"""Population data model, JSONL ingestion, and a synthetic generator.

Datasets are stored column-wise (attribute vector plus feature and embedding
matrices) so million-object populations stay cheap to hold and slice;
``DataObject`` is one query target, built by ``sprint.resolve_query_object``.

File format is JSON Lines: a header line carrying the dimensions and the
attribute bounds, then one object per line::

    {"feature_dim": 4, "embedding_dim": 4, "attr_bounds": [50.0, 120.0]}
    {"id": 0, "attr": 71.0, "features": [...], "oracle_emb": [...], "proxy_emb": [...]}

Every record must carry ``attr``, ``features``, ``oracle_emb`` and
``proxy_emb``; a record missing one is a ``DataError`` naming its line.
Record i (0-based) is object i; its optional ``id`` must be i, or the
record is a ``DataError`` naming its line.
``feature_dim`` and ``embedding_dim`` are positive integers. When the header omits
``attr_bounds`` they are derived from the data, which weakens any error
guarantee computed from them; the bounds calculators warn in that case.
Bytes that are not UTF-8, integers too large for a float and values nested
too deeply to parse are also ``DataError``s naming their line.

``load_dataset`` parses the file line by line and converts the records
``_CHUNK`` at a time, column by column, in ``_block``: each record rule is
written once, as a check over a whole column, before one array per column.
Each block is written into columns allocated once, sized by a count of the
file's lines after the header, so loading a file peaks at its columns plus one
block. A source that cannot seek (a pipe) is not counted: its columns start
empty and grow by doubling. At the end each column is shrunk in place to
exactly the rows read. A block that breaks a rule is checked again one record
at a time by the same ``_block``, so the error always names the first bad
line and, within it, the first rule it breaks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import NoReturn

import numpy as np

from .errors import DataError, require_finite
from .seeding import spawn_rng

# Layout constants for the synthetic generator: cluster centers are spread
# widely relative to the unit within-cluster scale so neighborhood density
# under a moderate radius is governed by cluster membership.
_CENTER_SCALE = 4.0
_WITHIN_CLUSTER_SCALE = 1.0

# |x - y|^2 <= 2|x|^2 + 2|y|^2: while embeddings' squared norms stay within
# this bound, so do the squared distances between them, with room to round.
MAX_SQ_NORM = np.finfo(np.float64).max / 8


@dataclass(frozen=True)
class DataObject:
    """One query target: id (-1 for an external vector) and both embeddings."""

    id: int
    oracle_embedding: np.ndarray
    proxy_embedding: np.ndarray


class Dataset:
    """The population, stored column by column.

    Object ids are dense in ``[0, n)`` by construction. All four columns
    are required: ``features`` is (n, feature_dim), ``oracle_emb`` and
    ``proxy_emb`` are (n, embedding_dim). ``bounds_source`` is ``"data"``
    when ``attr_bounds`` is omitted and derived from ``attrs``, and
    ``"declared"`` otherwise. All arrays are frozen after construction, so
    ``distances_from(overwrite_input=True)`` never writes a stored matrix
    that an all-of-D scan passes it.

    ``oracle_sq_norms`` is a derived column: each oracle embedding row's
    squared norm, ``einsum("ij,ij->i")``, which ``frnn.within`` reads to
    decide membership within a radius over all of D without computing each
    row's distance. It is computed here, not on first use, so no timed
    selection pays for it; it is neither saved nor compared by ``==``.
    Proxy scans need each distance (to calibrate and to rank), so the
    proxy matrix has no such column.
    """

    def __init__(
        self,
        attrs: np.ndarray,
        features: np.ndarray,
        oracle_emb: np.ndarray,
        proxy_emb: np.ndarray,
        attr_bounds: tuple[float, float] | None = None,
    ):
        columns = {
            name: np.ascontiguousarray(arr, dtype=np.float64)
            for name, arr in (("attrs", attrs), ("features", features),
                              ("oracle_emb", oracle_emb), ("proxy_emb", proxy_emb))
        }
        attrs, features, oracle_emb, proxy_emb = columns.values()
        if attrs.ndim != 1:
            raise DataError("attrs must be a 1-d array")
        if attrs.shape[0] == 0:
            raise DataError("empty dataset")
        for name in ("features", "oracle_emb", "proxy_emb"):
            if columns[name].ndim != 2 or columns[name].shape[0] != attrs.shape[0]:
                raise DataError(f"{name} must be a 2-d array aligned with attrs")
        if oracle_emb.shape[1] != proxy_emb.shape[1]:
            raise DataError("oracle and proxy embeddings must share one dimension")
        for name, arr in columns.items():
            if not np.isfinite(arr).all():
                bad_rows = ~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
                raise DataError(f"{name} row {int(np.argmax(bad_rows))} is not finite")

        self.bounds_source = "data" if attr_bounds is None else "declared"
        if attr_bounds is None:
            attr_bounds = (float(attrs.min()), float(attrs.max()))
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
        self.oracle_sq_norms = np.einsum("ij,ij->i", oracle_emb, oracle_emb)
        for name, sq_norms in (("oracle_emb", self.oracle_sq_norms),
                               ("proxy_emb", np.einsum("ij,ij->i", proxy_emb, proxy_emb))):
            if not (sq_norms <= MAX_SQ_NORM).all():
                raise DataError(f"{name} row {int(np.argmax(sq_norms > MAX_SQ_NORM))} is too "
                                "large: its squared distances would overflow")
        self.cluster_assignment: np.ndarray | None = None  # set by the generator
        for arr in (*columns.values(), self.oracle_sq_norms):
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
    def embedding_dim(self) -> int:
        return self.oracle_emb.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.attrs, other.attrs)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.oracle_emb, other.oracle_emb)
            and np.array_equal(self.proxy_emb, other.proxy_emb)
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
        require_finite(self)
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
    designated shifted cluster is never empty. Features repeat the oracle
    embedding vectors; the models read only the embedding columns.
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
    )
    ds.cluster_assignment = assign
    ds.cluster_assignment.setflags(write=False)
    return ds


# JSON numbers only: ``type`` excludes bool, which ``isinstance(x, int)`` admits.
_NUMBER = frozenset((int, float))

# Records per column block: large enough that the per-block numpy calls are
# noise, small enough that one block of parsed JSON stays a few MB.
_CHUNK = 1024


def _header_dim(header: dict, key: str, line_no: int) -> int:
    dim = header[key]
    if type(dim) is not int or dim < 1:
        raise DataError(f"line {line_no}: {key} must be an integer >= 1, got {dim!r}")
    return dim


def _header_bounds(header: dict, line_no: int) -> tuple[float, float] | None:
    bounds = header.get("attr_bounds")
    if bounds is None:
        return None
    if (
        not isinstance(bounds, list)
        or len(bounds) != 2
        or not all(type(x) in _NUMBER for x in bounds)
    ):
        raise DataError(f"line {line_no}: header attr_bounds must be [a, b]")
    try:
        a, b = float(bounds[0]), float(bounds[1])
    except OverflowError:  # a JSON integer too large for a float
        raise DataError(f"line {line_no}: header attr_bounds holds a number too large "
                        "for a float") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DataError(f"line {line_no}: header attr_bounds must be finite, got {bounds}")
    return a, b


# ``json.loads`` without its per-call checks: on a stripped line that parses
# whole it returns the same object.
_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(line: str, line_no: int) -> dict:
    """One non-blank, stripped line as a JSON object."""
    if not line.isascii():
        try:
            line.encode("utf-8")  # undecodable bytes were read as lone surrogates
        except UnicodeEncodeError:
            raise DataError(f"line {line_no}: not UTF-8 text") from None
    try:
        record, end = _raw_decode(line)
    except (ValueError, RecursionError):
        end = -1
    if end != len(line):  # not one JSON document: json.loads raises its own error
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        except ValueError:  # an integer past Python's digit limit
            raise DataError(f"line {line_no}: number too large to read") from None
        except RecursionError:
            raise DataError(f"line {line_no}: JSON nested too deeply") from None
    if not isinstance(record, dict):
        raise DataError(f"line {line_no}: expected a JSON object")
    return record


def _block(records: list[dict], lines: list[int], start: int, dims: dict) -> list[np.ndarray]:
    """The records' columns, one float64 array each, or a ``DataError``
    naming the first bad line and, within it, the first broken rule.

    Each rule runs over a whole column, in this order: required keys,
    ``attr`` type, ``id``, ``attr`` overflow, then for each vector its
    element types, its length and its overflow. A rule that fails on
    several records re-checks them one at a time, in file order, with this
    function; the one-record call raises that rule's error. Types are checked
    before the arrays are built, since numpy would accept a bool among floats,
    parse the string ``"1.0"``, and compare ``True`` equal to 1.
    """
    def broken(message: str) -> NoReturn:
        if len(records) == 1:
            raise DataError(f"line {lines[0]}: {message}")
        for i in range(len(records)):
            _block(records[i:i + 1], lines[i:i + 1], start + i, dims)
        raise RuntimeError(f"lines {lines[0]}-{lines[-1]}: the column checks rejected "
                           "records the per-record checks accept")

    try:
        attrs = [r["attr"] for r in records]
        vectors = {key: [r[key] for r in records] for key in dims}
    except KeyError:
        broken("record needs attr, features, oracle_emb, proxy_emb")
    if not set(map(type, attrs)) <= _NUMBER:
        broken("attr must be a number")
    ids = [r.get("id", pos) for pos, r in enumerate(records, start)]
    if not set(map(type, ids)) <= {int} or ids != list(range(start, start + len(records))):
        broken(f"id {ids[0]!r} is not the record's position {start}")
    try:
        block = [np.array(attrs, dtype=np.float64)]
    except OverflowError:  # a JSON integer too large for a float
        broken("attr holds a number too large for a float")
    for key, dim in dims.items():
        rows = vectors[key]
        if (not set(map(type, rows)) <= {list}
                or not set(map(type, chain.from_iterable(rows))) <= _NUMBER):
            broken(f"{key} must be a list of numbers")
        if not set(map(len, rows)) <= {dim}:
            broken(f"{key} has length {len(rows[0])}, expected {dim}")
        try:
            block.append(np.fromiter(chain.from_iterable(rows), np.float64,
                                     len(rows) * dim).reshape(len(rows), dim))
        except OverflowError:
            broken(f"{key} holds a number too large for a float")
    return block


def load_dataset(path: str) -> Dataset:
    """Load a JSONL dataset; record i is object i, and its ``id``, if given, must be i.

    Records are parsed line by line and converted ``_CHUNK`` at a time, each
    block written into columns allocated once: as many rows as the file has
    lines after the header, counted before parsing when the source can seek,
    and doubled whenever a block would pass the end (a pipe starts at 0 rows).
    Each column is then shrunk in place to exactly the rows read.
    """
    header = None
    dims: dict[str, int] = {}
    records: list[dict] = []
    lines: list[int] = []
    columns: list[np.ndarray] = []
    n = 0

    def flush() -> None:
        nonlocal n
        k = len(records)
        block = _block(records, lines, n, dims)
        if n + k > len(columns[0]):  # a pipe, \r line ends, or a file that grew
            for i, col in enumerate(columns):  # one column at a time, freeing the old
                columns[i] = np.empty((max(2 * len(col), n + k), *col.shape[1:]))
                columns[i][:n] = col[:n]
        for col, arr in zip(columns, block):
            col[n:n + k] = arr
        n += k
        records.clear()
        lines.clear()

    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        rows = 0  # a row per line after the header's, in a \n or \r\n file
        if fh.seekable():
            rows = sum(chunk.count(b"\n") for chunk in iter(partial(fh.buffer.read, 1 << 20), b""))
            fh.buffer.seek(max(fh.buffer.tell() - 1, 0))
            rows -= fh.buffer.read(1) == b"\n"  # lines less one; an unended last line counts
            fh.seek(0)
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = _parse_line(line, line_no)
            except DataError:
                _block(records, lines, n, dims)  # an earlier bad record wins
                raise
            if header is None:
                if "feature_dim" not in record or "embedding_dim" not in record:
                    raise DataError(f"line {line_no}: header must declare feature_dim "
                                    "and embedding_dim")
                header = record
                feature_dim = _header_dim(record, "feature_dim", line_no)
                embedding_dim = _header_dim(record, "embedding_dim", line_no)
                dims = {"features": feature_dim,
                        "oracle_emb": embedding_dim, "proxy_emb": embedding_dim}
                bounds = _header_bounds(record, line_no)
                columns = [np.empty(rows)] + [np.empty((rows, d)) for d in dims.values()]
                continue
            records.append(record)
            lines.append(line_no)
            if len(records) == _CHUNK:
                flush()
    if records:
        flush()
    if header is None or n == 0:
        raise DataError("empty dataset")
    for col in columns:  # no view of a column exists here
        col.resize((n, *col.shape[1:]), refcheck=False)
    return Dataset(*columns, attr_bounds=bounds)


def save_dataset(ds: Dataset, path: str) -> None:
    """Write the JSONL form; loading it back yields an equal Dataset."""
    header = {
        "feature_dim": ds.feature_dim,
        "embedding_dim": ds.embedding_dim,
        "attr_bounds": list(ds.attr_bounds),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(len(ds)):
            record = {
                "id": i,
                "attr": float(ds.attrs[i]),
                "features": ds.features[i].tolist(),
                "oracle_emb": ds.oracle_emb[i].tolist(),
                "proxy_emb": ds.proxy_emb[i].tolist(),
            }
            fh.write(json.dumps(record) + "\n")
