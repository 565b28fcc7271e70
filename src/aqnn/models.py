"""Oracle and proxy embedding models with per-call cost accounting.

Both models are embedding functions over data objects. A ``stored`` model
reads the embedding persisted on the object; a ``simulated`` model
recomputes it from the object's raw feature vector (identity for the
oracle, plus isotropic Gaussian noise for a proxy) using a per-object
deterministic noise stream, so repeated calls always return the same
vector. A :class:`CallLedger` charges each (model role, object) pair at
most once per run, matching per-object call counting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .dataset import DataObject, Dataset
from .errors import DataError

ORACLE_COST_WEIGHT = 2.0  # conservative; observed oracle/proxy gaps run 2-10x
PROXY_COST_WEIGHT = 1.0

_MASK64 = (1 << 64) - 1


class CallLedger:
    """Monotone call counters with memoized per-object charging.

    Thread-safe so one ledger tolerates concurrent updates; experiment
    cells that run in parallel should still each own a ledger.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._charged: set[tuple[str, int]] = set()
        self.oracle_calls = 0
        self.proxy_calls = 0

    def charge(self, role: str, obj_id: int) -> bool:
        """Charge one call unless (role, obj_id) was already charged."""
        key = (role, int(obj_id))
        with self._lock:
            if key in self._charged:
                return False
            self._charged.add(key)
            if role == "oracle":
                self.oracle_calls += 1
            else:
                self.proxy_calls += 1
            return True

    def as_dict(self) -> dict[str, int]:
        return {"oracle_calls": self.oracle_calls, "proxy_calls": self.proxy_calls}


@dataclass(frozen=True)
class EmbeddingModel:
    role: str  # "oracle" | "proxy"
    source: str = "stored"  # "stored" | "simulated"
    cost_weight: float = PROXY_COST_WEIGHT
    noise_sigma: float = 0.0  # simulated models only
    noise_seed: int = 0

    def __post_init__(self):
        if self.role not in ("oracle", "proxy"):
            raise ValueError(f"role must be 'oracle' or 'proxy', got {self.role!r}")
        if self.source not in ("stored", "simulated"):
            raise ValueError(f"source must be 'stored' or 'simulated', got {self.source!r}")
        if self.cost_weight <= 0:
            raise ValueError("cost_weight must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    def _simulate(self, obj_id: int, base: np.ndarray) -> np.ndarray:
        """Re-derive object ``obj_id``'s embedding from its base vector."""
        base = np.asarray(base, dtype=np.float64)
        if self.noise_sigma == 0.0:
            return base
        # Stream keyed by (model seed, object id); ids shifted by one so the
        # pipeline's external-query pseudo-id -1 gets its own stream.
        rng = np.random.default_rng(
            [int(self.noise_seed) & _MASK64, (int(obj_id) + 1) & _MASK64]
        )
        return base + rng.normal(0.0, self.noise_sigma, size=len(base))

    def embed(self, obj: DataObject, ledger: CallLedger) -> np.ndarray:
        """Embed one object, charging the ledger at most once for it."""
        if self.source == "stored":
            emb = obj.oracle_embedding if self.role == "oracle" else obj.proxy_embedding
            if emb is None:
                raise DataError(f"object {obj.id} has no stored {self.role} embedding")
        else:
            base = obj.oracle_embedding if obj.oracle_embedding is not None else obj.features
            emb = self._simulate(obj.id, base)
        ledger.charge(self.role, obj.id)
        return np.asarray(emb, dtype=np.float64)


def oracle_model(
    source: str = "stored", cost_weight: float = ORACLE_COST_WEIGHT
) -> EmbeddingModel:
    return EmbeddingModel(role="oracle", source=source, cost_weight=cost_weight)


def proxy_model(
    source: str = "stored",
    cost_weight: float = PROXY_COST_WEIGHT,
    noise_sigma: float = 0.0,
    noise_seed: int = 0,
) -> EmbeddingModel:
    return EmbeddingModel(
        role="proxy",
        source=source,
        cost_weight=cost_weight,
        noise_sigma=noise_sigma,
        noise_seed=noise_seed,
    )


def embed_many(
    model: EmbeddingModel, ds: Dataset, ids: np.ndarray, ledger: CallLedger
) -> np.ndarray:
    """Embed many dataset objects; the fast path for stored embeddings.

    Accounting is identical to calling :meth:`EmbeddingModel.embed` per
    object: every id is charged through the ledger's memo table.
    """
    ids = np.asarray(ids, dtype=np.int64)
    for oid in ids:
        ledger.charge(model.role, int(oid))
    if model.source == "stored":
        matrix = ds.oracle_emb if model.role == "oracle" else ds.proxy_emb
        if matrix is None:
            raise DataError(f"dataset has no stored {model.role} embeddings")
        return matrix[ids]
    base = ds.oracle_emb if ds.oracle_emb is not None else ds.features
    return np.vstack([model._simulate(int(oid), base[oid]) for oid in ids])


def speedup(
    brute_oracle_calls: int,
    sprint_oracle_calls: int,
    sprint_proxy_calls: int,
    cost_ratio: float = ORACLE_COST_WEIGHT,
) -> float:
    """Embedding-cost ratio of brute force to the sampled pipeline.

    Cost model: one oracle call costs ``cost_ratio`` proxy calls.
    """
    denom = cost_ratio * sprint_oracle_calls + sprint_proxy_calls
    if denom <= 0:
        raise ValueError("pipeline cost must be positive")
    return (cost_ratio * brute_oracle_calls) / denom
