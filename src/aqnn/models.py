"""Oracle and proxy embedding models with per-call cost accounting.

Both models read embeddings stored with the population: the oracle its
costly high-quality column, the proxy its cheap one. A :class:`CallLedger`
charges each (model role, object) pair at most once per run, matching
per-object call counting; ``speedup`` prices the counts with an
oracle/proxy cost ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataObject, Dataset


class CallLedger:
    """Memoized per-object charging; each role's call count is the number
    of distinct objects charged to it.

    Not thread-safe: parallel runs fork, and each experiment cell owns
    its ledger.
    """

    def __init__(self):
        self._charged: dict[str, set[int]] = {"oracle": set(), "proxy": set()}

    @property
    def oracle_calls(self) -> int:
        return len(self._charged["oracle"])

    @property
    def proxy_calls(self) -> int:
        return len(self._charged["proxy"])

    def charge(self, role: str, ids) -> int:
        """Charge one call per id in ``ids`` (one id or an array) not yet
        charged for ``role``; returns the number of calls charged."""
        charged = self._charged[role]
        before = len(charged)
        charged.update(np.asarray(ids, dtype=np.int64).ravel().tolist())
        return len(charged) - before

    def as_dict(self) -> dict[str, int]:
        return {"oracle_calls": self.oracle_calls, "proxy_calls": self.proxy_calls}


@dataclass(frozen=True)
class EmbeddingModel:
    role: str  # "oracle" | "proxy"

    def __post_init__(self):
        if self.role not in ("oracle", "proxy"):
            raise ValueError(f"role must be 'oracle' or 'proxy', got {self.role!r}")

    def embed(self, obj: DataObject, ledger: CallLedger) -> np.ndarray:
        """Embed one object, charging the ledger at most once for it."""
        emb = obj.oracle_embedding if self.role == "oracle" else obj.proxy_embedding
        ledger.charge(self.role, obj.id)
        return np.asarray(emb, dtype=np.float64)


def oracle_model() -> EmbeddingModel:
    return EmbeddingModel(role="oracle")


def proxy_model() -> EmbeddingModel:
    return EmbeddingModel(role="proxy")


def embed_many(
    model: EmbeddingModel, ds: Dataset, ids: np.ndarray, ledger: CallLedger
) -> np.ndarray:
    """Embed many dataset objects as rows of the stored matrix.

    Accounting is identical to calling :meth:`EmbeddingModel.embed` per
    object: every id is charged through the ledger's memo table. A scan of
    all of D (``ids`` equal to ``ds.ids``) gets the read-only stored matrix
    itself rather than a copy of every row.
    """
    ids = np.asarray(ids, dtype=np.int64)
    ledger.charge(model.role, ids)
    matrix = ds.oracle_emb if model.role == "oracle" else ds.proxy_emb
    if ids.size == len(ds) and np.array_equal(ids, ds.ids):
        return matrix
    return matrix[ids]


def speedup(
    brute_oracle_calls: int,
    sprint_oracle_calls: int,
    sprint_proxy_calls: int,
    cost_ratio: float,
) -> float:
    """Embedding-cost ratio of brute force to the sampled pipeline.

    Cost model: one oracle call costs ``cost_ratio`` proxy calls.
    """
    denom = cost_ratio * sprint_oracle_calls + sprint_proxy_calls
    if denom <= 0:
        raise ValueError("pipeline cost must be positive")
    return (cost_ratio * brute_oracle_calls) / denom
