"""Population data model, JSONL ingestion, and a synthetic generator.

Datasets are stored column-wise (attribute vector plus feature and embedding
matrices) so million-object populations stay cheap to hold and slice;
``DataObject`` is a per-row view for callers that want one record at a time.

File format is JSON Lines: a header line carrying the dimensions and the
attribute bounds, then one object per line::

    {"feature_dim": 4, "embedding_dim": 4, "attr_bounds": [50.0, 120.0]}
    {"id": 0, "attr": 71.0, "features": [...], "oracle_emb": [...], "proxy_emb": [...]}

``oracle_emb`` / ``proxy_emb`` are optional but must be present either on
every record or on none. When the header omits ``attr_bounds`` they are
derived from the data, which weakens any error guarantee computed from them;
the bounds calculators warn in that case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .seeding import spawn_rng

# Layout constants for the synthetic generator: cluster centers are spread
# widely relative to the unit within-cluster scale so neighborhood density
# under a moderate radius is governed by cluster membership.
_CENTER_SCALE = 4.0
_WITHIN_CLUSTER_SCALE = 1.0


@dataclass(frozen=True)
class DataObject:
    """One population member: identity, target attribute, vectors."""

    id: int
    attr_value: float
    features: np.ndarray
    oracle_embedding: np.ndarray | None = None
    proxy_embedding: np.ndarray | None = None


class Dataset:
    """The population: columnar storage with per-row ``DataObject`` views.

    Object ids are dense in ``[0, n)`` by construction. All arrays are
    frozen after construction, so a dataset can be shared across
    concurrently running experiment cells.
    """

    def __init__(
        self,
        attrs: np.ndarray,
        features: np.ndarray,
        oracle_emb: np.ndarray | None = None,
        proxy_emb: np.ndarray | None = None,
        attr_bounds: tuple[float, float] | None = None,
        bounds_source: str = "config",
    ):
        attrs = np.ascontiguousarray(attrs, dtype=np.float64)
        features = np.ascontiguousarray(features, dtype=np.float64)
        if attrs.ndim != 1:
            raise DataError("attrs must be a 1-d array")
        if features.ndim != 2 or features.shape[0] != attrs.shape[0]:
            raise DataError("features must be (n, feature_dim) aligned with attrs")
        if attrs.shape[0] == 0:
            raise DataError("empty dataset")

        emb_dim = None
        for name, emb in (("oracle_emb", oracle_emb), ("proxy_emb", proxy_emb)):
            if emb is None:
                continue
            emb = np.ascontiguousarray(emb, dtype=np.float64)
            if emb.ndim != 2 or emb.shape[0] != attrs.shape[0]:
                raise DataError(f"{name} must be (n, embedding_dim) aligned with attrs")
            if emb_dim is None:
                emb_dim = emb.shape[1]
            elif emb.shape[1] != emb_dim:
                raise DataError("oracle and proxy embeddings must share one dimension")
            if name == "oracle_emb":
                oracle_emb = emb
            else:
                proxy_emb = emb

        for name, arr in (
            ("attrs", attrs), ("features", features),
            ("oracle_emb", oracle_emb), ("proxy_emb", proxy_emb),
        ):
            if arr is not None and not np.isfinite(arr).all():
                bad_rows = ~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
                raise DataError(f"{name} row {int(np.argmax(bad_rows))} is not finite")

        if attr_bounds is None:
            attr_bounds = (float(attrs.min()), float(attrs.max()))
            bounds_source = "data"
        a, b = float(attr_bounds[0]), float(attr_bounds[1])
        lo, hi = float(attrs.min()), float(attrs.max())
        if not (a <= lo and hi <= b):
            raise DataError(
                f"attribute values [{lo}, {hi}] fall outside declared bounds [{a}, {b}]"
            )

        self.attrs = attrs
        self.features = features
        self.oracle_emb = oracle_emb
        self.proxy_emb = proxy_emb
        self.attr_bounds = (a, b)
        self.bounds_source = bounds_source
        self.cluster_assignment: np.ndarray | None = None  # set by the generator
        for arr in (attrs, features, oracle_emb, proxy_emb):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return self.attrs.shape[0]

    @property
    def ids(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def embedding_dim(self) -> int | None:
        if self.oracle_emb is not None:
            return self.oracle_emb.shape[1]
        if self.proxy_emb is not None:
            return self.proxy_emb.shape[1]
        return None

    def object(self, obj_id: int) -> DataObject:
        i = int(obj_id)
        if not 0 <= i < len(self):
            raise DataError(f"object id {obj_id} outside [0, {len(self)})")
        return DataObject(
            id=i,
            attr_value=float(self.attrs[i]),
            features=self.features[i],
            oracle_embedding=None if self.oracle_emb is None else self.oracle_emb[i],
            proxy_embedding=None if self.proxy_emb is None else self.proxy_emb[i],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented

        def same(x, y):
            if x is None or y is None:
                return x is y
            return np.array_equal(x, y)

        return (
            same(self.attrs, other.attrs)
            and same(self.features, other.features)
            and same(self.oracle_emb, other.oracle_emb)
            and same(self.proxy_emb, other.proxy_emb)
            and self.attr_bounds == other.attr_bounds
        )

    __hash__ = None  # mutable-looking container; identity hashing would mislead


@dataclass(frozen=True)
class SyntheticGenConfig:
    """Controls for the synthetic population generator.

    Oracle embeddings form a Gaussian mixture; proxy embeddings are the
    oracle points plus isotropic noise of scale ``proxy_noise_sigma``, which
    reproduces the concentrated near-zero proxy-minus-oracle distance gaps
    seen with real model cascades. Attribute values are globally Gaussian
    except in cluster 0, whose mean is offset by ``attr_neighborhood_shift``
    so query neighborhoods can disagree with the global distribution.
    """

    n_objects: int
    embedding_dim: int = 16
    n_clusters: int = 8
    proxy_noise_sigma: float = 0.0
    attr_global_mean: float = 80.0
    attr_global_sd: float = 10.0
    attr_neighborhood_shift: float = 0.0
    attr_bounds: tuple[float, float] = (50.0, 120.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_objects <= 0:
            raise ValueError("n_objects must be positive")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if not 0 < self.n_clusters <= self.n_objects:
            raise ValueError("need 0 < n_clusters <= n_objects")
        if self.proxy_noise_sigma < 0:
            raise ValueError("proxy_noise_sigma must be nonnegative")
        if self.attr_global_sd <= 0:
            raise ValueError("attr_global_sd must be positive")
        a, b = self.attr_bounds
        if not a < b:
            raise ValueError("attr_bounds must satisfy a < b")


def generate_synthetic(cfg: SyntheticGenConfig) -> Dataset:
    """Generate a population; a pure function of the config.

    Cluster sizes are balanced (round-robin assignment, shuffled), so the
    designated shifted cluster is never empty. Features are the oracle
    embedding vectors themselves: simulated models re-derive embeddings
    from them (identity for the oracle, plus noise for a proxy).
    """
    n, dim, k = cfg.n_objects, cfg.embedding_dim, cfg.n_clusters
    centers_rng = spawn_rng(cfg.seed, "gen", "centers")
    assign_rng = spawn_rng(cfg.seed, "gen", "assign")
    spread_rng = spawn_rng(cfg.seed, "gen", "spread")
    noise_rng = spawn_rng(cfg.seed, "gen", "proxy-noise")
    attr_rng = spawn_rng(cfg.seed, "gen", "attrs")

    centers = centers_rng.normal(0.0, _CENTER_SCALE, size=(k, dim))
    assign = assign_rng.permutation(np.arange(n, dtype=np.int64) % k)
    oracle = centers[assign] + spread_rng.normal(0.0, _WITHIN_CLUSTER_SCALE, size=(n, dim))
    if cfg.proxy_noise_sigma == 0.0:
        proxy = oracle.copy()
    else:
        proxy = oracle + noise_rng.normal(0.0, cfg.proxy_noise_sigma, size=(n, dim))

    attrs = attr_rng.normal(cfg.attr_global_mean, cfg.attr_global_sd, size=n)
    attrs[assign == 0] += cfg.attr_neighborhood_shift
    a, b = cfg.attr_bounds
    np.clip(attrs, a, b, out=attrs)

    ds = Dataset(
        attrs=attrs,
        features=oracle,
        oracle_emb=oracle,
        proxy_emb=proxy,
        attr_bounds=cfg.attr_bounds,
        bounds_source="config",
    )
    ds.cluster_assignment = assign
    ds.cluster_assignment.setflags(write=False)
    return ds


def _parse_vector(record: dict, key: str, dim: int | None, line_no: int) -> np.ndarray | None:
    if key not in record:
        return None
    vec = record[key]
    if not isinstance(vec, list) or not all(isinstance(x, (int, float)) for x in vec):
        raise DataError(f"line {line_no}: {key} must be a list of numbers")
    if dim is not None and len(vec) != dim:
        raise DataError(f"line {line_no}: {key} has length {len(vec)}, expected {dim}")
    return np.asarray(vec, dtype=np.float64)


def load_dataset(path: str) -> Dataset:
    """Load a JSONL dataset; ids are re-indexed densely in line order."""
    header = None
    attrs: list[float] = []
    features: list[np.ndarray] = []
    oracle_rows: list[np.ndarray] = []
    proxy_rows: list[np.ndarray] = []
    has_oracle = has_proxy = None

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise DataError(f"line {line_no}: expected a JSON object")

            if header is None:
                if "feature_dim" not in record or "embedding_dim" not in record:
                    raise DataError(
                        f"line {line_no}: header must declare feature_dim and embedding_dim"
                    )
                header = record
                continue

            if "attr" not in record or "features" not in record:
                raise DataError(f"line {line_no}: record needs 'attr' and 'features'")
            if not isinstance(record["attr"], (int, float)):
                raise DataError(f"line {line_no}: attr must be numeric")
            feat = _parse_vector(record, "features", int(header["feature_dim"]), line_no)
            o_emb = _parse_vector(record, "oracle_emb", int(header["embedding_dim"]), line_no)
            p_emb = _parse_vector(record, "proxy_emb", int(header["embedding_dim"]), line_no)

            if has_oracle is None:
                has_oracle, has_proxy = o_emb is not None, p_emb is not None
            if (o_emb is not None) != has_oracle or (p_emb is not None) != has_proxy:
                raise DataError(
                    f"line {line_no}: embedding columns must be present on all records or none"
                )

            attrs.append(float(record["attr"]))
            features.append(feat)
            if o_emb is not None:
                oracle_rows.append(o_emb)
            if p_emb is not None:
                proxy_rows.append(p_emb)

    if header is None or not attrs:
        raise DataError("empty dataset")

    bounds = header.get("attr_bounds")
    if bounds is not None:
        if (
            not isinstance(bounds, list)
            or len(bounds) != 2
            or not all(isinstance(x, (int, float)) for x in bounds)
        ):
            raise DataError("header attr_bounds must be [a, b]")
        bounds = (float(bounds[0]), float(bounds[1]))

    return Dataset(
        attrs=np.asarray(attrs),
        features=np.vstack(features),
        oracle_emb=np.vstack(oracle_rows) if oracle_rows else None,
        proxy_emb=np.vstack(proxy_rows) if proxy_rows else None,
        attr_bounds=bounds,
        bounds_source="file" if bounds is not None else "data",
    )


def save_dataset(ds: Dataset, path: str) -> None:
    """Write the JSONL form; loading it back yields an equal Dataset."""
    emb_dim = ds.embedding_dim if ds.embedding_dim is not None else 0
    header = {
        "feature_dim": ds.feature_dim,
        "embedding_dim": emb_dim,
        "attr_bounds": list(ds.attr_bounds),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(len(ds)):
            record = {
                "id": i,
                "attr": float(ds.attrs[i]),
                "features": ds.features[i].tolist(),
            }
            if ds.oracle_emb is not None:
                record["oracle_emb"] = ds.oracle_emb[i].tolist()
            if ds.proxy_emb is not None:
                record["proxy_emb"] = ds.proxy_emb[i].tolist()
            fh.write(json.dumps(record) + "\n")
