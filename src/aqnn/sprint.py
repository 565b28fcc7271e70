"""The sampling + calibrated-selection pipeline.

Three steps: draw a uniform sample S of the population, draw an
oracle-labeled pilot within it, then pick neighbors in S with a
precision-target search calibrated on the pilot. Value-sensitive
aggregates (AVG, VAR) get a ternary search maximizing pilot F1;
count-sensitive ones (PCT, COUNT) get a binary search balancing pilot
precision against recall; SUM runs the balance search first and then
refines the target within +-TWO_PHASE_WINDOW for F1.

``select`` is the one dispatch from an algorithm spec to selection code:
the three searches, the fixed-target cutoff, and the top_k and brute_force
baselines. For the first four it builds a ``SelectionContext`` and hands it
to ``search``; a caller running several of them on one sample and pilot
builds the context once and calls ``search`` for each. ``select_neighbors``
draws the sample and pilot and runs the aggregation's search through
``select``. Each step reads the model its role fixes.

One root seed drives independent derived streams for the sample and the
pilot, so resizing the pilot never perturbs the sample. The ledger over a
full run charges exactly s proxy calls and s_p oracle calls for sample
objects plus one call of each model for the query target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .aggregate import SENSITIVITY
from .dataset import DataObject, Dataset
from .errors import DegenerateNeighborhoodError
from .frnn import (
    CalibrationTable,
    NeighborSet,
    distances_from,
    exact_frnn,
    top_k_baseline,
)
from .models import CallLedger, EmbeddingModel, embed_many, oracle_model, proxy_model
from .seeding import spawn_rng

SEARCH_BY_SENSITIVITY = {"value": "sprint_v", "count": "sprint_c", "both": "two_phase"}

# Every selection algorithm ``select`` runs; pqe_pt_fixed takes a target.
ALGORITHMS = ("sprint_v", "sprint_c", "two_phase", "pqe_pt_fixed", "top_k", "brute_force")
# Those that calibrate on the pilot: ``search`` runs them on a SelectionContext.
CALIBRATED = ("sprint_v", "sprint_c", "two_phase", "pqe_pt_fixed")

TWO_PHASE_WINDOW = 0.05  # half-width of the refinement window around the balanced target

_NO_PILOT_TRUE_MSG = "pilot contains no true neighbors; increase s_p or r"

_ORACLE, _PROXY = oracle_model(), proxy_model()  # the model each step's role fixes


def parse_algorithm(spec: str) -> tuple[str, float | None]:
    """Split an algorithm spec into (name, fixed target): a name in
    ``ALGORITHMS`` exactly, with a target in [0, 1] for pqe_pt_fixed only."""
    name, colon, raw = spec.partition(":")
    if name not in ALGORITHMS or (colon and name != "pqe_pt_fixed"):
        raise ValueError(f"unknown algorithm {spec!r}")
    if name != "pqe_pt_fixed":
        return name, None
    try:
        t = float(raw)
    except ValueError:
        t = math.nan
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"algorithm {spec!r} needs a target in [0, 1], e.g. pqe_pt_fixed:0.95")
    return name, t


def _check_settings(max_iters: int | None = None, **fractions: float) -> None:
    """The search settings rule: each named value lies in (0, 1), and
    ``max_iters``, when given, is an ``int`` of at least 1 (not a bool)."""
    for name, value in fractions.items():
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    if max_iters is not None and (type(max_iters) is not int or max_iters < 1):
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")


def _is_integer(value) -> bool:
    """The integer rule for sizes, seeds and object ids: an ``int`` or a
    numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SprintConfig:
    """Pipeline parameters: sizes, search tolerances, confidence, seed."""

    s: int
    s_p: int
    omega_v: float = 0.01
    omega_c: float = 0.01
    alpha: float = 0.05
    max_iters: int = 30
    seed: int = 0

    def __post_init__(self):
        for name, value in (("s", self.s), ("s_p", self.s_p), ("seed", self.seed)):
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.s <= 0 or self.s_p <= 0:
            raise ValueError("sample and pilot sizes must be positive")
        if self.s_p > self.s:
            raise ValueError("pilot size cannot exceed sample size")
        _check_settings(omega_v=self.omega_v, omega_c=self.omega_c, alpha=self.alpha,
                        max_iters=self.max_iters)


@dataclass(frozen=True)
class QuerySpec:
    """One aggregation query: target, radius, metric, aggregation."""

    q_id: int | np.ndarray  # object id, or an external feature vector
    r: float
    agg: str
    metric: str = "euclidean"

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError(f"radius must be finite, got {self.r:g}")
        if self.r <= 0:
            raise ValueError("radius must be positive")
        if self.agg not in SENSITIVITY:
            raise ValueError(f"unknown aggregation {self.agg!r}")

    @property
    def sensitivity(self) -> str:
        return SENSITIVITY[self.agg]


def draw_sample(ds: Dataset, s: int, seed: int) -> np.ndarray:
    """Uniform sample of s object ids without replacement, sorted; drawn
    from the seed's ``"sample"`` stream."""
    if s > len(ds):
        raise ValueError(f"sample size {s} exceeds population {len(ds)}")
    rng = spawn_rng(seed, "sample")
    return np.sort(rng.choice(len(ds), size=s, replace=False)).astype(np.int64, copy=False)


def draw_pilot(sample_ids: np.ndarray, s_p: int, seed: int) -> np.ndarray:
    """Uniform subsample of the sample, sorted, from the seed's ``"pilot"``
    stream; oracle labels come later."""
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    if s_p > sample_ids.size:
        raise ValueError(f"pilot size {s_p} exceeds sample size {sample_ids.size}")
    rng = spawn_rng(seed, "pilot")
    return np.sort(rng.choice(sample_ids, size=s_p, replace=False)).astype(np.int64, copy=False)


def ternary_search_max(
    f: Callable[[float], float], omega: float, lo: float = 0.0, hi: float = 1.0
) -> tuple[float, int]:
    """Midpoint of the interval a ternary search shrinks around f's maximum.

    Each iteration drops the worse outer third, so the interval width after
    k iterations is (2/3)^k of the original; for a strictly unimodal f the
    maximizer stays inside. Returns (argmax estimate, iterations).
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    iterations = 0
    while hi - lo > omega:
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        if f(t1) > f(t2):
            hi = t2
        else:
            lo = t1
        iterations += 1
    return (lo + hi) / 2.0, iterations


@dataclass(frozen=True)
class SelectionResult:
    """A selection's outputs plus the context needed for aggregation.

    ``algorithm`` is the spec ``select`` ran, exactly as it was given.
    ``t_star`` is None, and ``probes`` is 0, for the baselines that search
    no precision target (top_k, brute_force).
    """

    algorithm: str
    neighbors: NeighborSet
    sample_ids: np.ndarray
    pilot_ids: np.ndarray
    t_star: float | None
    probes: int
    ledger: CallLedger


def oracle_scan(
    ds: Dataset, query: DataObject, ids: np.ndarray, r: float, metric: str, ledger: CallLedger,
) -> NeighborSet:
    """Exact oracle neighborhood of the query among ``ids``.

    Charges the ledger one oracle call per id plus one for the query. A
    scan of all of D reads the stored matrix, which comes with its stored
    squared norms; a gather of rows has none.
    """
    q_emb = _ORACLE.embed(query, ledger)
    rows = embed_many(_ORACLE, ds, ids, ledger)
    sq_norms = ds.oracle_sq_norms if rows is ds.oracle_emb else None
    return exact_frnn(ids, rows, q_emb, r, metric, sq_norms)


def _proxy_distances(
    ds: Dataset, query: DataObject, ids: np.ndarray, metric: str, ledger: CallLedger,
) -> np.ndarray:
    """Proxy distance from the query to each id, charging the proxy calls.

    The gather ``embed_many`` returns is this scan's own buffer, so the
    kernel squares in it; the read-only matrix of an all-of-D scan is
    left as it is.
    """
    q_emb = _PROXY.embed(query, ledger)
    rows = embed_many(_PROXY, ds, ids, ledger)
    return distances_from(metric, q_emb, rows, overwrite_input=True)


@dataclass(frozen=True)
class SelectionContext:
    """Precomputed state one query's selection algorithms share.

    Sorted sample and pilot id arrays (the pilot within the sample), the
    sample's aligned proxy distances, and the calibration table built once
    from the pilot's proxy distances and oracle labels, the only ids the
    oracle labels. Every probe of a search reads that table.
    """

    sample_ids: np.ndarray
    sample_d: np.ndarray
    pilot_ids: np.ndarray
    table: CalibrationTable
    ledger: CallLedger

    @classmethod
    def build(
        cls,
        ds: Dataset,
        query: DataObject,
        r: float,
        metric: str,
        sample_ids: np.ndarray,
        pilot_ids: np.ndarray,
        ledger: CallLedger,
        delta: float = SprintConfig.alpha,
    ) -> "SelectionContext":
        sample_ids = np.asarray(sample_ids, dtype=np.int64)
        pilot_ids = np.asarray(pilot_ids, dtype=np.int64)
        at = np.searchsorted(sample_ids, pilot_ids)
        if (at == sample_ids.size).any() or (sample_ids[at] != pilot_ids).any():
            raise ValueError("pilot ids must lie in the sorted sample ids")
        sample_d = _proxy_distances(ds, query, sample_ids, metric, ledger)
        pilot_truth = oracle_scan(ds, query, pilot_ids, r, metric, ledger)
        table = CalibrationTable.build(pilot_ids, sample_d[at], pilot_truth, delta, r)
        return cls(sample_ids, sample_d, pilot_ids, table, ledger)

    def result(self, t_star: float, algorithm: str, probes: int = 0) -> SelectionResult:
        """Select on the sample at target t_star and record how it was found."""
        return SelectionResult(
            algorithm=algorithm,
            neighbors=self.table.select(self.sample_ids, self.sample_d, t_star),
            sample_ids=self.sample_ids,
            pilot_ids=self.pilot_ids,
            t_star=t_star,
            probes=probes,
            ledger=self.ledger,
        )

    def require_pilot_truth(self) -> None:
        if not self.table.n_truth:
            raise DegenerateNeighborhoodError(_NO_PILOT_TRUE_MSG)


def sprint_v(ctx: SelectionContext, omega_v: float) -> SelectionResult:
    """Maximize pilot F1 by ternary search over the precision target."""
    _check_settings(omega_v=omega_v)
    ctx.require_pilot_truth()
    t_star, iterations = ternary_search_max(lambda t: ctx.table.labeled_prf1(t)[2], omega_v)
    return ctx.result(t_star, "sprint_v", 2 * iterations)


def _balance_search(
    ctx: SelectionContext, omega_c: float, max_iters: int
) -> tuple[float, int]:
    """Binary search for the target equalizing pilot precision and recall.

    The gap between adjacent cutoffs can jump, so the tolerance may be
    unreachable; the iteration cap bounds the loop and the best-gap target
    seen wins.
    """
    _check_settings(omega_c=omega_c, max_iters=max_iters)
    lo, hi = 0.0, 1.0
    best_gap, best_t = None, None
    probes = 0
    for _ in range(max_iters):
        t = (lo + hi) / 2.0
        p, r, _ = ctx.table.labeled_prf1(t)
        probes += 1
        gap = abs(r - p)
        if best_gap is None or gap < best_gap:
            best_gap, best_t = gap, t
        if gap <= omega_c:
            best_t = t
            break
        if p <= r:
            lo = t
        else:
            hi = t
    return best_t, probes


def sprint_c(
    ctx: SelectionContext, omega_c: float, max_iters: int = SprintConfig.max_iters
) -> SelectionResult:
    """Equalize pilot precision and recall by binary search over the target."""
    ctx.require_pilot_truth()
    t_star, probes = _balance_search(ctx, omega_c, max_iters)
    return ctx.result(t_star, "sprint_c", probes)


def two_phase(
    ctx: SelectionContext, omega_c: float, omega_v: float,
    max_iters: int = SprintConfig.max_iters,
) -> SelectionResult:
    """Balance precision and recall, then refine nearby for the best F1.

    Phase 1 finds the balanced target t_c; phase 2 ternary-searches F1 on
    the window t_c +- TWO_PHASE_WINDOW clipped to [0, 1].
    """
    _check_settings(omega_v=omega_v)
    ctx.require_pilot_truth()
    t_c, probes_c = _balance_search(ctx, omega_c, max_iters)
    lo = max(0.0, t_c - TWO_PHASE_WINDOW)
    hi = min(1.0, t_c + TWO_PHASE_WINDOW)
    t_star, iterations = ternary_search_max(
        lambda t: ctx.table.labeled_prf1(t)[2], omega_v, lo, hi)
    return ctx.result(t_star, "two_phase", probes_c + 2 * iterations)


def as_query_id(q, n: int | None = None) -> int:
    """The one id rule: ``q`` as an ``int`` if it is a non-bool integer, in
    ``[0, n)`` when ``n`` is given; else a ``ValueError`` naming it."""
    if not _is_integer(q):
        raise ValueError(f"query target {q!r} is not an integer object id")
    if n is not None and not 0 <= q < n:
        raise ValueError(f"query target {q} outside population {n}")
    return int(q)


def resolve_query_object(ds: Dataset, q_id) -> DataObject:
    """Turn a query target into a DataObject; the one place that does.

    An object id selects a member under ``as_query_id``'s rule. A finite
    vector of ``ds.embedding_dim`` floats becomes a pseudo-object with id
    -1 whose oracle and proxy embeddings are both the vector. Any other
    target is a ``ValueError`` naming it.
    """
    if _is_integer(q_id):
        i = as_query_id(q_id, len(ds))
        return DataObject(i, ds.oracle_emb[i], ds.proxy_emb[i])
    try:
        vec = np.asarray(q_id, dtype=np.float64)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (ds.embedding_dim,) or not np.isfinite(vec).all():
        what = repr(q_id) if vec is None or vec.ndim == 0 else f"vector of shape {vec.shape}"
        raise ValueError(f"query target {what} is neither an object id nor a finite "
                         f"vector of {ds.embedding_dim} floats")
    return DataObject(id=-1, oracle_embedding=vec, proxy_embedding=vec)


def select(
    spec: str, query: QuerySpec, cfg: SprintConfig, ds: Dataset,
    sample_ids: np.ndarray, pilot_ids: np.ndarray, ledger: CallLedger,
) -> SelectionResult:
    """Run the selection algorithm ``spec`` names on a drawn sample and pilot.

    The searches and ``pqe_pt_fixed:<t>`` (at target t) calibrate on the
    pilot: ``search`` on a ``SelectionContext`` built here. ``top_k``
    labels the whole sample with the oracle and keeps the K proxy-nearest,
    K being the true neighbor count; ``brute_force`` labels all of D.
    Every model call is charged to ``ledger``.
    """
    algorithm, target = parse_algorithm(spec)
    q_obj = resolve_query_object(ds, query.q_id)
    sample_ids = np.asarray(sample_ids, dtype=np.int64)

    if algorithm == "brute_force":
        on_d = oracle_scan(ds, q_obj, ds.ids, query.r, query.metric, ledger)
        return SelectionResult(spec, on_d, sample_ids, pilot_ids, None, 0, ledger)
    if algorithm == "top_k":
        # Oracle labels over the whole sample set the budget K = |ON_S|.
        k = len(oracle_scan(ds, q_obj, sample_ids, query.r, query.metric, ledger))
        if k:
            dists = _proxy_distances(ds, q_obj, sample_ids, query.metric, ledger)
            chosen = top_k_baseline(sample_ids, dists, k)
        else:  # nothing to rank; only the target's proxy call is spent
            _PROXY.embed(q_obj, ledger)
            chosen = NeighborSet(np.empty(0, dtype=np.int64))
        return SelectionResult(spec, chosen, sample_ids, pilot_ids, None, 0, ledger)

    ctx = SelectionContext.build(
        ds, q_obj, query.r, query.metric, sample_ids, pilot_ids, ledger, delta=cfg.alpha,
    )
    return search(ctx, cfg, spec)


def search(ctx: SelectionContext, cfg: SprintConfig, spec: str) -> SelectionResult:
    """The second half of ``select`` for the specs in ``CALIBRATED``: run the
    search ``spec`` names, or take ``pqe_pt_fixed``'s target, on a built
    context. Charges no model call, so every result's ledger is
    ``ctx.ledger`` as the build left it; any number of specs may run on one
    context.
    """
    algorithm, target = parse_algorithm(spec)
    # The searches are looked up as module globals at call time, so a tracer
    # that rebinds them (bench/spans.py) sees every call.
    if algorithm == "pqe_pt_fixed":
        return ctx.result(target, spec)
    if algorithm == "sprint_v":
        return sprint_v(ctx, cfg.omega_v)
    if algorithm == "sprint_c":
        return sprint_c(ctx, cfg.omega_c, cfg.max_iters)
    if algorithm == "two_phase":
        return two_phase(ctx, cfg.omega_c, cfg.omega_v, cfg.max_iters)
    raise ValueError(f"algorithm {spec!r} does not calibrate on a pilot")


def select_neighbors(
    query: QuerySpec,
    cfg: SprintConfig,
    ds: Dataset,
    oracle: EmbeddingModel,
    proxy: EmbeddingModel,
) -> SelectionResult:
    """Draw the sample and pilot, then run the aggregation's search.

    AVG and VAR route to the F1-maximizing search, PCT and COUNT to the
    precision-recall balancing search, SUM to the two-phase strategy.
    Any model pair but ``(oracle_model(), proxy_model())`` is a ``ValueError``.
    """
    if (oracle, proxy) != (_ORACLE, _PROXY):
        raise ValueError(
            f"select_neighbors takes (oracle_model(), proxy_model()), got {oracle, proxy}")
    sample_ids = draw_sample(ds, cfg.s, cfg.seed)
    pilot_ids = draw_pilot(sample_ids, cfg.s_p, cfg.seed)
    algorithm = SEARCH_BY_SENSITIVITY[query.sensitivity]
    return select(algorithm, query, cfg, ds, sample_ids, pilot_ids, CallLedger())
