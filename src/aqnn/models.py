"""Oracle and proxy embedding models with per-call cost accounting.

Both models read embeddings stored with the population: the oracle its
costly high-quality column, the proxy its cheap one. A :class:`CallLedger`
charges each (model role, object) pair at most once per run, matching
per-object call counting. It keeps each role's charged ids as a few
sorted, disjoint id arrays, so the cost of a charge grows with the ids
it is given and the charges made before it, never with the population.
``speedup`` prices the counts with an oracle/proxy cost ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataObject, Dataset
from .frnn import in_sorted, sorted_distinct


class CallLedger:
    """Per-object charging; each role's call count is the number of
    distinct objects charged to it.

    Each role keeps the ids it has charged as a list of sorted, disjoint
    int64 arrays, one per charge that added any, plus their total size. A
    charge drops the ids an earlier array holds with one ``searchsorted``
    per array and appends the rest.

    Not thread-safe; each experiment cell owns its ledger, or a ``copy``.
    """

    def __init__(self):
        self._charged: dict[str, list[np.ndarray]] = {"oracle": [], "proxy": []}
        self._calls = {"oracle": 0, "proxy": 0}

    @property
    def oracle_calls(self) -> int:
        return self._calls["oracle"]

    @property
    def proxy_calls(self) -> int:
        return self._calls["proxy"]

    def charge(self, role: str, ids) -> int:
        """Charge one call per id in ``ids`` (one id or an array) not yet
        charged for ``role``; returns the number of calls charged."""
        charged = self._charged[role]
        new = sorted_distinct(np.asarray(ids, dtype=np.int64).ravel())
        for done in charged:
            if not new.size:
                break
            seen = in_sorted(new, done)
            if seen.any():
                new = new[~seen]
        if new.size:
            charged.append(new.copy())  # the caller may reuse its array
            self._calls[role] += new.size
        return new.size

    def copy(self) -> "CallLedger":
        """A ledger holding the same charges; later charges to either one
        never reach the other. No charge writes an array it has stored,
        so the two share those arrays."""
        out = CallLedger()
        out._charged = {role: list(arrays) for role, arrays in self._charged.items()}
        out._calls = dict(self._calls)
        return out

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
    object: the ids are charged in one batch, and the ledger's sorted id
    arrays drop those it has charged before. A scan of
    all of D (``ids`` equal to ``ds.ids``) gets the read-only stored matrix
    itself rather than a copy of every row.

    Any other ids get a fresh, writeable gather that shares no memory with
    the stored matrix. The caller owns it and may overwrite it, as
    ``sprint._proxy_distances`` does; nothing else holds a reference to it.
    """
    ids = np.asarray(ids, dtype=np.int64)
    ledger.charge(model.role, ids)
    matrix = ds.oracle_emb if model.role == "oracle" else ds.proxy_emb
    if ids.size == len(ds) and np.array_equal(ids, ds.ids):
        return matrix
    return np.take(matrix, ids, axis=0)


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
