"""Distance kernels, exact fixed-radius search, and calibrated selection.

The calibrated selector (precision-target thresholding) turns a precision
target into a proxy-distance cutoff. Candidate cutoffs are the labeled
proxy distances plus the query radius itself; each one is scored over the
labeled points it admits by a one-sided Hoeffding lower confidence bound
on precision. Among cutoffs whose bound clears the target, the selector
maximizes labeled recall, breaking ties by higher labeled precision
(trailing false positives never buy recall) and then by the larger cutoff
(more generous to unlabeled points at equal labeled evidence). The chosen
cutoff is then applied to the whole candidate universe by proxy distance.

Cost per call is O(m log m + n) for m labeled points and n candidates,
comfortably inside an O(n^2 log n) budget at sample scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError

VALID_METRICS = ("euclidean", "cosine")


def _as_vec(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d vector")
    return arr


def dist(metric: str, u, v) -> float:
    """Distance between two vectors.

    ``euclidean`` is the L2 norm of the difference; ``cosine`` is
    1 - cos(u, v), in [0, 2], and requires both vectors nonzero (a zero
    vector is bad data and raises ``DataError``).
    """
    u, v = _as_vec(u), _as_vec(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    if metric == "euclidean":
        return float(np.linalg.norm(u - v))
    if metric == "cosine":
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            raise DataError("cosine distance undefined for zero vectors")
        # rounding can push the value a few ulp outside [0, 2]
        return float(min(2.0, max(0.0, 1.0 - float(np.dot(u, v)) / (nu * nv))))
    raise ValueError(f"unknown metric {metric!r}; expected one of {VALID_METRICS}")


def distances_from(metric: str, q_emb, matrix: np.ndarray) -> np.ndarray:
    """Distances from one query vector to every row of a matrix."""
    q = _as_vec(q_emb)
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != q.shape[0]:
        raise ValueError(f"matrix shape {m.shape} incompatible with query dim {q.shape[0]}")
    if metric == "euclidean":
        return np.linalg.norm(m - q, axis=1)
    if metric == "cosine":
        nq = np.linalg.norm(q)
        nm = np.linalg.norm(m, axis=1)
        if nq == 0.0 or np.any(nm == 0.0):
            raise DataError("cosine distance undefined for zero vectors")
        return np.clip(1.0 - (m @ q) / (nm * nq), 0.0, 2.0)
    raise ValueError(f"unknown metric {metric!r}; expected one of {VALID_METRICS}")


@dataclass(frozen=True)
class NeighborSet:
    """A selected id-set tagged with the space and method that produced it."""

    member_ids: frozenset[int]
    space: str  # "oracle" | "proxy" | "mixed"
    method: str
    threshold_used: float | None = None

    def __len__(self) -> int:
        return len(self.member_ids)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self.member_ids


@dataclass(frozen=True)
class PrecisionTargetConfig:
    """Precision target ``t`` and failure probability ``delta`` of its guarantee."""

    t: float
    delta: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("precision target t must lie in [0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def exact_frnn(
    universe_ids: Iterable[int],
    embeddings: np.ndarray,
    q_emb,
    r: float,
    metric: str = "euclidean",
    space: str = "oracle",
) -> NeighborSet:
    """All ids whose embedding lies within distance r of the query.

    Boundary points (distance exactly r) are included. ``embeddings`` must
    be row-aligned with ``universe_ids`` and complete.
    """
    ids = np.asarray(list(universe_ids), dtype=np.int64)
    if embeddings is None:
        raise DataError(f"missing {space} embeddings for exact search")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != ids.shape[0]:
        raise DataError("embeddings not aligned with universe ids")
    if np.isnan(emb).any():
        raise DataError(f"missing {space} embedding values (NaN) in universe")
    d = distances_from(metric, q_emb, emb)
    members = ids[d <= r]
    return NeighborSet(
        member_ids=frozenset(int(i) for i in members),
        space=space,
        method="exact_frnn",
        threshold_used=float(r),
    )


def _hoeffding_lower(p_hat: float, n: int, delta: float) -> float:
    """One-sided lower confidence bound for a mean in [0, 1], clamped at 0."""
    return max(0.0, p_hat - math.sqrt(math.log(1.0 / delta) / (2.0 * n)))


def pqe_pt(
    sample_ids: Iterable[int],
    proxy_dists: Mapping[int, float],
    labeled_ids: Iterable[int],
    oracle_truth: NeighborSet,
    cfg: PrecisionTargetConfig,
    r: float,
) -> NeighborSet:
    """Precision-target selection via a calibrated proxy-distance cutoff.

    ``labeled_ids`` are the candidates whose oracle neighborhood membership
    is known (``oracle_truth``); the cutoff chosen from them is applied to
    every id in ``sample_ids``. When no cutoff's precision bound clears the
    target, falls back to the proxy-nearest labeled true neighbor as a
    singleton (empty when the labeled set has no true neighbor at all).
    """
    sample_ids = list(sample_ids)
    labeled_ids = list(labeled_ids)
    if not sample_ids:
        raise ValueError("empty sample")
    if not labeled_ids:
        raise ValueError("empty labeled calibration set")

    order = sorted(labeled_ids, key=lambda i: (proxy_dists[i], i))
    lab_d = np.array([proxy_dists[i] for i in order], dtype=np.float64)
    lab_true = np.array([i in oracle_truth.member_ids for i in order], dtype=bool)
    cum_true = np.cumsum(lab_true)
    m = len(order)
    total_true = int(cum_true[-1])

    # Candidate cutoffs keyed by the labeled prefix they admit. Prefixes end
    # at distance-tie-group boundaries; the radius slots in as one more
    # candidate. Equal prefixes share evidence, so keep only the largest
    # cutoff per prefix.
    prefix_tau: dict[int, float] = {}
    for pos in range(m):
        if pos == m - 1 or lab_d[pos + 1] != lab_d[pos]:
            prefix_tau[pos + 1] = max(prefix_tau.get(pos + 1, -math.inf), float(lab_d[pos]))
    r_prefix = int(np.searchsorted(lab_d, r, side="right"))
    if r_prefix >= 1:
        prefix_tau[r_prefix] = max(prefix_tau.get(r_prefix, -math.inf), float(r))

    best_key = None
    best_tau = None
    for size, tau in prefix_tau.items():
        k_true = int(cum_true[size - 1])
        p_hat = k_true / size
        if _hoeffding_lower(p_hat, size, cfg.delta) < cfg.t:
            continue
        recall = (k_true / total_true) if total_true > 0 else 1.0
        key = (recall, p_hat, tau)
        if best_key is None or key > best_key:
            best_key = key
            best_tau = tau

    if best_tau is None:
        true_positions = np.nonzero(lab_true)[0]
        if true_positions.size:
            nearest_true = int(order[int(true_positions[0])])
            members = frozenset({nearest_true})
        else:
            members = frozenset()
        return NeighborSet(members, space="mixed", method="pqe_pt", threshold_used=None)

    members = frozenset(int(i) for i in sample_ids if proxy_dists[i] <= best_tau)
    return NeighborSet(members, space="mixed", method="pqe_pt", threshold_used=float(best_tau))


def top_k_baseline(proxy_dists: Mapping[int, float], k: int) -> NeighborSet:
    """The k proxy-nearest ids; ties at the k-th distance go to smaller ids."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(proxy_dists):
        raise ValueError(f"k={k} exceeds universe size {len(proxy_dists)}")
    order = sorted(proxy_dists, key=lambda i: (proxy_dists[i], i))
    chosen = order[:k]
    return NeighborSet(
        member_ids=frozenset(int(i) for i in chosen),
        space="proxy",
        method="top_k",
        threshold_used=float(proxy_dists[chosen[-1]]),
    )


def prf1(selected, truth) -> tuple[float, float, float]:
    """Precision, recall, F1 of a selection against a truth set.

    Conventions: an empty selection has precision 1 (no false positives),
    an empty truth has recall 1, and F1 is 0 when P + R = 0.
    """
    sel = selected.member_ids if isinstance(selected, NeighborSet) else frozenset(selected)
    tru = truth.member_ids if isinstance(truth, NeighborSet) else frozenset(truth)
    overlap = len(sel & tru)
    p = overlap / len(sel) if sel else 1.0
    r = overlap / len(tru) if tru else 1.0
    f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
    return p, r, f1
