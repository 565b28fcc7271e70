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

A :class:`CalibrationTable` holds every candidate's bound and, for each
target, the cutoff the rule picks, so a search that probes many targets
calibrates once. Cost for m labeled points and n candidates: O(m log m)
once per selection, then O(log m) per probe plus one O(n) mask for the
final selection.

An exact neighborhood over a stored embedding matrix (:func:`exact_frnn`
with its stored squared norms, as a scan of all of D has) never needs the
distances themselves: :func:`within` decides membership for euclidean with
one BLAS matrix-vector product over the rows and their norms, plus a few
O(n) passes, then runs the exact kernel (about 65 ns a row at dimension
16, against a few ns a row for the product) on only the rows that lie
within rounding error of the cutoff: none of a typical population, every
row only when the coordinates dwarf the distances. A gather of rows has
no stored norms, and computing them costs about as much as the kernel, so
its membership is the exact kernel's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DataError

VALID_METRICS = ("euclidean", "cosine")


def distances_from(
    metric: str, q_emb, matrix: np.ndarray, overwrite_input: bool = False
) -> np.ndarray:
    """Distances from one query vector to every row of a matrix.

    ``euclidean`` is the L2 norm of the difference; ``cosine`` is
    1 - cos(u, v), clipped to [0, 2], and a zero vector under it is bad
    data (``DataError``).

    The matrix is never written unless ``overwrite_input`` is true. Then a
    writeable float64 matrix becomes the euclidean kernel's scratch buffer
    and holds garbage afterwards, so pass it only for a buffer the caller
    owns and reads no more, such as a fresh gather from ``embed_many``. A
    read-only matrix is never written.
    """
    q, m = _query_and_rows(q_emb, matrix)
    if metric == "euclidean":
        # np.linalg.norm's sum bit for bit, in one buffer squared in place, not three
        diff = np.subtract(m, q, out=m) if overwrite_input and m.flags.writeable else m - q
        diff *= diff
        return np.sqrt(np.add.reduce(diff, axis=1))
    if metric == "cosine":
        nq = np.linalg.norm(q)
        nm = np.linalg.norm(m, axis=1)
        if nq == 0.0 or np.any(nm == 0.0):
            raise DataError("cosine distance undefined for zero vectors")
        return np.clip(1.0 - (m @ q) / (nm * nq), 0.0, 2.0)
    raise ValueError(f"unknown metric {metric!r}; expected one of {VALID_METRICS}")


def _query_and_rows(q_emb, matrix) -> tuple[np.ndarray, np.ndarray]:
    """The query as a float64 vector and the rows as a float64 matrix of its width."""
    q = np.asarray(q_emb, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError("expected a 1-d query vector")
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != q.shape[0]:
        raise ValueError(f"matrix shape {m.shape} incompatible with query dim {q.shape[0]}")
    return q, m


_U = 2.0 ** -53  # float64 unit roundoff
_SUBNORMAL_STEP = 2.0 ** -1074


def within(
    metric: str, q_emb, rows: np.ndarray, cutoff: float, sq_norms: np.ndarray
) -> np.ndarray:
    """Which rows lie within ``cutoff`` of the query: a mask equal, row for
    row, to ``distances_from(metric, q_emb, rows) <= cutoff``.

    ``sq_norms`` are the rows' squared norms, ``einsum("ij,ij->i")`` of
    them as ``Dataset`` stores them for its embeddings. ``rows`` is never
    written. Cosine runs the exact kernel, itself one matrix-vector
    product.

    Euclidean filters with the expansion of the squared distance
    S = |x - q|^2 as |x|^2 - 2 x.q + |q|^2, and runs the exact kernel only
    on the rows the filter cannot decide. With u = 2^-53, k the dimension,
    X the largest row norm, Q = |q| and c the cutoff, to first order in u:

    - the kernel rounds k differences, k squares, k - 1 additions and a
      square root, so its distance d obeys d^2 = S (1 + e) with
      |e| <= (k + 4) u: it says "within" only if S <= c^2 (1 + (k + 4) u),
      and "beyond" only if S >= c^2 (1 - (k + 4) u);
    - the filter computes a = (|x|^2 - 2 x.q) + (|q|^2 - c^2). Each k-term
      dot product (summed in any order, with or without fused
      multiply-adds, as BLAS may) is off by at most k u times the sum of
      its terms' magnitudes, and the square c^2 and each of the three
      additions by u times the magnitudes they combine, so
      |a - (S - c^2)| <= (k + 2) u (X + Q)^2 + 3 u c^2.

    So a row with a < -M has S < c^2 (1 - (k + 4) u) and the kernel says
    "within", and one with a > M "beyond", whenever
    M >= (k + 2) u (X + Q)^2 + (k + 7) u c^2. The margin used,
    M = 2 (k + 4) (u ((X + Q)^2 + c^2) + 2^-1074), exceeds that by at
    least (k + 1) u ((X + Q)^2 + c^2), which covers the second-order terms
    and the rounding of M, X and Q themselves; its 2^-1074 term bounds the
    absolute error, at most half a step of 2^-1074 per rounding, of
    squares that underflow to subnormals, where relative bounds fail. Rows
    with |a| <= M, rows whose ``a`` is not finite (a NaN or infinite
    coordinate) and every row when M is not finite (an overflow, or a NaN
    query) go through the exact kernel.
    """
    if metric != "euclidean":
        return distances_from(metric, q_emb, rows) <= cutoff
    q, m = _query_and_rows(q_emb, rows)
    if not m.shape[0] or not cutoff >= 0.0:  # no distance is negative or below NaN
        return np.zeros(m.shape[0], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are refined below
        a = m @ (-2.0 * q)
        a += sq_norms
        qq, c2 = float(q @ q), float(cutoff) * float(cutoff)
        a += qq - c2
        reach = math.sqrt(float(np.max(sq_norms))) + math.sqrt(qq)
        margin = 2.0 * (m.shape[1] + 4) * (_U * (reach * reach + c2) + _SUBNORMAL_STEP)
        inside = a < 0.0
        undecided = ~(np.abs(a, out=a) > margin)  # NaN compares false, so it lands here
    if undecided.any():
        d = distances_from(metric, q, m[undecided], overwrite_input=True)
        inside[undecided] = d <= cutoff
    return inside


@dataclass(frozen=True, eq=False)
class NeighborSet:
    """A selected id-set and the distance cutoff that chose it, if any."""

    member_ids: np.ndarray  # sorted int64 array of distinct ids
    threshold_used: float | None = None

    def __len__(self) -> int:
        return int(self.member_ids.size)


def exact_frnn(
    universe_ids,
    embeddings: np.ndarray,
    q_emb,
    r: float,
    metric: str = "euclidean",
    sq_norms: np.ndarray | None = None,
) -> NeighborSet:
    """All ids whose embedding lies within distance r of the query.

    Boundary points (distance exactly r) are included. ``embeddings`` must
    be row-aligned with ``universe_ids`` and complete: a NaN coordinate is
    a ``DataError``. ``sq_norms``, the rows' squared norms, come with a
    stored matrix, whose rows are finite; membership there is
    :func:`within`'s. Other rows, such as a gather, run the exact kernel.
    """
    ids = np.asarray(universe_ids, dtype=np.int64)
    if embeddings is None:
        raise DataError("missing embeddings for exact search")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != ids.shape[0]:
        raise DataError("embeddings not aligned with universe ids")
    if sq_norms is not None:
        return NeighborSet(sorted_distinct(ids[within(metric, q_emb, emb, r, sq_norms)]), float(r))
    try:
        d = distances_from(metric, q_emb, emb)
    except (DataError, ValueError):  # a NaN row outranks any other fault
        _reject_nan(emb)
        raise
    if np.isnan(d).any():  # a NaN coordinate makes its row's distance NaN
        _reject_nan(emb)
    return NeighborSet(sorted_distinct(ids[d <= r]), float(r))


def _reject_nan(emb: np.ndarray) -> None:
    if np.isnan(emb).any():
        raise DataError("missing embedding values (NaN) in universe")


def sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """A 1-d id array sorted and deduplicated; itself if strictly increasing."""
    if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
        return np.unique(ids)
    return ids


def in_sorted(ids: np.ndarray, sorted_ids: np.ndarray) -> np.ndarray:
    """``np.isin(ids, sorted_ids)`` for a sorted ``sorted_ids``, by one searchsorted."""
    if not sorted_ids.size:
        return np.zeros(ids.shape, dtype=bool)
    at = np.searchsorted(sorted_ids, ids)
    return sorted_ids[np.minimum(at, sorted_ids.size - 1)] == ids


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """Every target's calibrated cutoff over one labeled set, built once.

    Candidates are the cutoffs at the ends of the labeled distance-tie
    groups plus the radius. Those whose lower bound clears a target t form
    a suffix of the candidates sorted by bound, so position i of ``lower``
    (ascending) stores the pick among candidates i and later: its cutoff
    and the labeled prefix size and true count it admits. A probe is one
    bisect; past the last bound, the fallback singleton is picked.
    """

    lower: list[float]
    tau: list[float]
    size: list[int]
    k_true: list[int]
    fallback: np.ndarray  # the proxy-nearest labeled true neighbor, or empty
    n_truth: int

    @classmethod
    def build(
        cls,
        labeled_ids: np.ndarray,
        labeled_d: np.ndarray,
        oracle_truth: NeighborSet,
        delta: float,
        r: float,
    ) -> "CalibrationTable":
        """Score every candidate cutoff of the labeled set against the truth.

        ``labeled_ids`` is a sorted array of distinct ids, ``labeled_d``
        their proxy distances, and ``oracle_truth`` their oracle labels.
        """
        if not labeled_ids.size:
            raise ValueError("empty labeled calibration set")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

        order = np.lexsort((labeled_ids, labeled_d))
        lab_ids = labeled_ids[order]
        lab_d = labeled_d[order]
        lab_true = in_sorted(lab_ids, oracle_truth.member_ids)
        cum_true = np.cumsum(lab_true)

        # Candidate cutoffs keyed by the labeled prefix they admit. Prefixes
        # end at distance-tie-group boundaries; the radius is one more
        # candidate, and where it admits the same prefix as a group end, the
        # tie-break on the cutoff prefers it.
        ends = np.flatnonzero(np.append(lab_d[1:] != lab_d[:-1], True))
        sizes = np.append(ends + 1, np.searchsorted(lab_d, r, side="right"))
        taus = np.append(lab_d[ends], r)
        if sizes[-1] == 0:
            sizes, taus = sizes[:-1], taus[:-1]
        k_true = cum_true[sizes - 1]
        p_hat = k_true / sizes
        # One-sided Hoeffding lower bound on precision, clamped at 0.
        lower = np.maximum(0.0, p_hat - np.sqrt(math.log(1.0 / delta) / (2.0 * sizes)))

        # Among the qualifying candidates the pick maximizes (true count,
        # p_hat, cutoff); the true count orders candidates as labeled recall
        # does. Rank every candidate by that key, then carry the best rank
        # from the highest bound down.
        by_key = np.lexsort((taus, p_hat, k_true))
        rank = np.empty_like(by_key)
        rank[by_key] = np.arange(by_key.size)
        by_lower = np.argsort(lower, kind="stable")
        best = by_key[np.maximum.accumulate(rank[by_lower][::-1])[::-1]]
        return cls(
            lower=lower[by_lower].tolist(),
            tau=taus[best].tolist(),
            size=sizes[best].tolist(),
            k_true=k_true[best].tolist(),
            fallback=lab_ids[lab_true][:1],
            n_truth=len(oracle_truth),
        )

    def _pick(self, t: float) -> int:
        """Position of the pick at target t; ``len(lower)`` for the fallback."""
        if not 0.0 <= t <= 1.0:  # NaN fails here too
            raise ValueError("precision target t must lie in [0, 1]")
        return bisect_left(self.lower, t)

    def select(self, ids: np.ndarray, d: np.ndarray, t: float) -> NeighborSet:
        """The ids whose proxy distance ``d`` is within the cutoff picked at t."""
        i = self._pick(t)
        if i == len(self.lower):
            return NeighborSet(self.fallback)
        return NeighborSet(ids[d <= self.tau[i]], self.tau[i])

    def labeled_prf1(self, t: float) -> tuple[float, float, float]:
        """``prf1`` of the labeled ids the pick at t admits, from its counts."""
        i = self._pick(t)
        if i == len(self.lower):  # the fallback holds only a true neighbor
            return _prf1_of_counts(self.fallback.size, self.fallback.size, self.n_truth)
        return _prf1_of_counts(self.k_true[i], self.size[i], self.n_truth)


def pqe_pt(
    sample_ids: np.ndarray,
    sample_d: np.ndarray,
    labeled_ids: np.ndarray,
    labeled_d: np.ndarray,
    oracle_truth: NeighborSet,
    t: float,
    delta: float,
    r: float,
) -> NeighborSet:
    """Precision-target selection via a calibrated proxy-distance cutoff.

    The cutoff's precision bound clears the target ``t`` at failure
    probability ``delta``. ``sample_ids`` and ``labeled_ids`` are sorted
    arrays of distinct ids, and ``sample_d`` and ``labeled_d`` their proxy
    distances. The labeled ids are the candidates whose oracle neighborhood
    membership is known (``oracle_truth``); the cutoff chosen from them is
    applied to every sample id. When no cutoff's precision bound clears the
    target, falls back to the proxy-nearest labeled true neighbor as a
    singleton (empty when the labeled set has no true neighbor at all).
    """
    if not sample_ids.size:
        raise ValueError("empty sample")
    table = CalibrationTable.build(labeled_ids, labeled_d, oracle_truth, delta, r)
    return table.select(sample_ids, sample_d, t)


def top_k_baseline(ids: np.ndarray, dists: np.ndarray, k: int) -> NeighborSet:
    """The k ids nearest by their aligned ``dists``; ties go to smaller ids."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > ids.size:
        raise ValueError(f"k={k} exceeds universe size {ids.size}")
    chosen = np.lexsort((ids, dists))[:k]
    return NeighborSet(np.sort(ids[chosen]), float(dists[chosen[-1]]))


def prf1(selected: NeighborSet, truth: NeighborSet) -> tuple[float, float, float]:
    """Precision, recall, F1 of a selection against a truth set.

    Conventions: an empty selection has precision 1 (no false positives),
    an empty truth has recall 1, and F1 is 0 when P + R = 0.
    """
    sel, tru = selected.member_ids, truth.member_ids
    overlap = np.count_nonzero(in_sorted(sel, tru))
    return _prf1_of_counts(overlap, sel.size, tru.size)


def _prf1_of_counts(overlap: int, selected: int, truth: int) -> tuple[float, float, float]:
    """``prf1`` from the overlap and the two set sizes."""
    p = overlap / selected if selected else 1.0
    r = overlap / truth if truth else 1.0
    f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
    return p, r, f1
