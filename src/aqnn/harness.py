"""Experiment runner: repeated trials, baselines, sweeps, coverage checks.

A run is a grid of cells (algorithm x query x trial). Every cell derives
its randomness from the root seed and its own indices, so results are
independent of execution order and bit-reproducible; algorithms within one
(query, trial) pair share the same sample and pilot so per-trial
comparisons are paired, and its pilot-calibrated specs search one selection
state, built once (``_run_block``), that no search charges. Ground truth
per (query, radius) is computed once by brute force over the full
population; its oracle calls are accounted apart from the pipeline ledgers.

Wall-clock timings are collected per cell, a shared build split evenly
among the cells that used it, but quarantined from the canonical report
payload (they can never be bit-reproducible); request them explicitly via
``include_timing``.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .aggregate import AGGREGATIONS, AggregationContext, aggregate, relative_error
from .bounds import BoundsInput, min_sizes, reconcile_sizes
from .dataset import Dataset, SyntheticGenConfig, generate_synthetic
from .errors import DegenerateNeighborhoodError
from .frnn import NeighborSet, in_sorted, prf1
from .models import CallLedger, oracle_model, proxy_model, speedup
from .seeding import derive_seed
from .sprint import (
    CALIBRATED,
    QuerySpec,
    SelectionContext,
    SelectionResult,
    SprintConfig,
    as_query_id,
    draw_pilot,
    draw_sample,
    oracle_scan,
    parse_algorithm,
    resolve_query_object,
    search,
    select,
    select_neighbors,
)
from .stats import OPS, Hypothesis, ht_accuracy, t_test_one_sample, z_test_proportion

SWEEP_AXES = ("dataset_size", "sample_size", "pilot_size", "radius")


def canonical_json(payload) -> str:
    """The canonical, byte-reproducible text of a JSON payload; a
    non-finite float in it is a ``ValueError``, never ``NaN`` or ``Infinity``."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    grid: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
        if len(self.grid) < 1:
            raise ValueError("sweep grid must be nonempty")
        bad = [v for v in self.grid if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{self.axis} sweep values must be finite, got {bad[0]:g}")
        fractional = [v for v in self.grid if v != int(v)]
        if fractional and self.axis != "radius":
            raise ValueError(f"{self.axis} sweep values must be integers, got {fractional[0]:g}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        if self.grid[0] <= 0:
            raise ValueError(f"{self.axis} sweep values must be positive, got {self.grid[0]:g}")


def _require_distinct(what: str, items: Sequence) -> None:
    """Raise ``ValueError`` if ``items`` is empty or names one item twice: a
    report keys its cells and summaries by them, so a repeat is ambiguous."""
    if not items:
        raise ValueError(f"need at least one {what}")
    repeated = [item for item, n in Counter(items).items() if n > 1]
    if repeated:
        raise ValueError(f"{what} {repeated[0]!r} is repeated")


@dataclass
class ExperimentConfig:
    dataset: Dataset | None
    query_ids: Sequence[int]
    r: float
    aggs: Sequence[str]
    algorithms: Sequence[str]
    sprint: SprintConfig
    trials: int = 30
    seed: int = 0
    metric: str = QuerySpec.metric
    cost_ratio: float = 2.0  # oracle call cost in proxy calls; conservative (gaps run 2-10x)
    sweep: SweepSpec | None = None
    gen_config: SyntheticGenConfig | None = None  # required for dataset_size sweeps

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (self.cost_ratio > 0 and np.isfinite(self.cost_ratio)):
            raise ValueError(f"cost ratio must be positive and finite, got {self.cost_ratio:g}")
        self.query_ids = tuple(as_query_id(q) for q in self.query_ids)
        _require_distinct("query target", self.query_ids)
        _require_distinct("aggregation", self.aggs)
        _require_distinct("algorithm", self.algorithms)
        for agg in self.aggs:
            if agg not in AGGREGATIONS:
                raise ValueError(f"unknown aggregation {agg!r}")
        for spec in self.algorithms:
            parse_algorithm(spec)
        if self.dataset is None and self.gen_config is None:
            raise ValueError("need a dataset or a generator config")


@dataclass
class GroundTruth:
    on_d: NeighborSet
    agg_values: dict[str, float | None]  # None where undefined (degenerate)
    density: float
    oracle_calls: int

    def within(self, sample_ids: np.ndarray) -> NeighborSet:
        """The true neighborhood restricted to a sorted, distinct sample;
        charged to no ledger. Each sample id is looked up in ON_D, so no
        temporary is as large as ON_D."""
        inside = in_sorted(sample_ids, self.on_d.member_ids)
        return replace(self.on_d, member_ids=sample_ids[inside])


@dataclass
class CellResult:
    """One cell's scores; the defaults describe a degenerate cell, whose
    selection raised before it chose anything."""

    algorithm: str
    query_id: int
    trial: int
    estimates: dict[str, float | None]
    re_pct: dict[str, float | None]
    oracle_calls: int
    proxy_calls: int
    note: str
    f1_s: float | None = None
    pr_gap: float | None = None
    t_star: float | None = None
    selected: int = 0
    degenerate: bool = True
    wall_time_s: float = 0.0  # set by the caller, which times the whole cell
    sweep_value: float | None = None


@dataclass
class MetricsReport:
    seed: int
    config: dict
    ground_truth: dict
    cells: list[CellResult]
    summary: dict
    sweep: list[dict] | None = None

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = asdict(self)
        out["cells"] = [_visible(row, include_timing) for row in out["cells"]]
        if self.sweep is None:
            del out["sweep"]
        elif not include_timing:
            for entry in out["sweep"]:
                del entry["mean_wall_time_s"]
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return canonical_json(self.to_json_dict(include_timing))

    def to_csv_rows(self) -> list[dict]:
        """One row per cell, timed, with the per-aggregation maps flattened."""
        rows = []
        for c in self.cells:
            row = _visible(asdict(c), include_timing=True)
            del row["estimates"], row["re_pct"], row["note"]
            for agg, re in c.re_pct.items():
                row[f"re_{agg.lower()}"] = re
                row[f"estimate_{agg.lower()}"] = c.estimates.get(agg)
            rows.append(row)
        return rows


def _visible(row: dict, include_timing: bool) -> dict:
    """A cell's fields minus those hidden: an unset sweep value, and timing unless asked."""
    if row["sweep_value"] is None:
        del row["sweep_value"]
    if not include_timing:
        del row["wall_time_s"]
    return row


def ground_truth(
    ds: Dataset,
    query: QuerySpec,
    aggs: Sequence[str] | None = None,
) -> GroundTruth:
    """Brute-force oracle neighborhood over all of D plus exact aggregates,
    each the estimate at s = |D|.

    Charges |D| oracle calls (plus the query target) to a dedicated ledger
    whose total is reported in the result.
    """
    aggs = list(aggs) if aggs is not None else [query.agg]
    ledger = CallLedger()
    q_obj = resolve_query_object(ds, query.q_id)
    on_d = oracle_scan(ds, q_obj, ds.ids, query.r, query.metric, ledger)
    return GroundTruth(
        on_d=on_d,
        agg_values=_estimates(aggs, ds, on_d.member_ids, len(ds)),
        density=len(on_d) / len(ds),
        oracle_calls=ledger.oracle_calls,
    )


def _estimates(
    aggs: Sequence[str], ds: Dataset, member_ids: np.ndarray, s: int
) -> dict[str, float | None]:
    """Each aggregation's estimate from the members chosen in a sample of
    ``s``; None where it is degenerate."""
    ctx = AggregationContext(s, len(ds))
    values = ds.attrs[member_ids]
    out: dict[str, float | None] = {}
    for agg in aggs:
        try:
            out[agg] = aggregate(agg, values, member_ids.size, ctx)
        except DegenerateNeighborhoodError:
            out[agg] = None
    return out


def evaluate_cell(
    query_id: int,
    trial: int,
    res: SelectionResult,
    ds: Dataset,
    aggs: Sequence[str],
    gt: GroundTruth,
    on_s: NeighborSet,
) -> CellResult:
    """Score a selection, the one rule: estimates scaled from the sample it
    was chosen in, relative errors (None where undefined or the truth is 0),
    and F1 and |P - R| against ``on_s``, the truth within the sample; brute
    force chooses in all of D, so it is scored at s = |D| on all of D."""
    chosen = res.neighbors
    if res.algorithm == "brute_force":
        s, truth_for_f1 = len(ds), gt.on_d
    else:
        s, truth_for_f1 = res.sample_ids.size, on_s

    estimates = _estimates(aggs, ds, chosen.member_ids, s)
    re_pct: dict[str, float | None] = {}
    for agg, est in estimates.items():
        truth_val = gt.agg_values.get(agg)
        usable = est is not None and truth_val is not None and truth_val != 0
        re_pct[agg] = relative_error(est, truth_val) if usable else None
    degenerate = None in re_pct.values()
    # top_k keeps K = |ON_S| points, so its set is empty only when K = 0
    if res.algorithm == "top_k" and not chosen:
        note = "K=0"
    else:
        note = "degenerate aggregate" if degenerate else ""

    p, r, f1 = prf1(chosen, truth_for_f1)
    return CellResult(
        algorithm=res.algorithm,
        query_id=query_id,
        trial=trial,
        estimates=estimates,
        re_pct=re_pct,
        oracle_calls=res.ledger.oracle_calls,
        proxy_calls=res.ledger.proxy_calls,
        note=note,
        f1_s=f1,
        pr_gap=abs(p - r),
        t_star=res.t_star,
        selected=len(chosen),
        degenerate=degenerate,
    )


def _run_block(cfg: ExperimentConfig, ds: Dataset, gts: dict[int, GroundTruth],
               qi: int, trial: int) -> list[CellResult]:
    """All algorithms for one (query, trial) pair, on one sample and pilot.

    The k specs in ``sprint.CALIBRATED`` share one ``SelectionContext``,
    built once here, and each cell runs ``search`` on it as built. A search
    charges no model call, so every such cell reads the build's ledger: the
    calls the spec would charge alone. The build is timed once and each of
    the k cells' wall times carries 1/k of it. ``top_k`` and
    ``brute_force`` run ``select`` with their own scans and a fresh ledger.
    """
    query_id = cfg.query_ids[qi]
    cell_seed = derive_seed(cfg.seed, "cell", qi, trial)
    sample_ids = draw_sample(ds, cfg.sprint.s, cell_seed)
    pilot_ids = draw_pilot(sample_ids, cfg.sprint.s_p, cell_seed)
    gt = gts[query_id]
    on_s = gt.within(sample_ids)
    query = QuerySpec(q_id=query_id, r=cfg.r, agg=cfg.aggs[0], metric=cfg.metric)
    on_ctx = [parse_algorithm(spec)[0] in CALIBRATED for spec in cfg.algorithms]
    shared = sum(on_ctx)
    if shared:
        start = time.perf_counter()
        ctx = SelectionContext.build(
            ds, resolve_query_object(ds, query_id), cfg.r, cfg.metric, sample_ids, pilot_ids,
            CallLedger(), delta=cfg.sprint.alpha,
        )
        build_share = (time.perf_counter() - start) / shared

    results = []
    for spec, calibrated in zip(cfg.algorithms, on_ctx):
        start = time.perf_counter()
        ledger = ctx.ledger if calibrated else CallLedger()
        try:
            if calibrated:
                res = search(ctx, cfg.sprint, spec)
            else:
                res = select(spec, query, cfg.sprint, ds, sample_ids, pilot_ids, ledger)
        except DegenerateNeighborhoodError as exc:
            cell = CellResult(
                algorithm=spec, query_id=query_id, trial=trial,
                estimates=dict.fromkeys(cfg.aggs), re_pct=dict.fromkeys(cfg.aggs),
                oracle_calls=ledger.oracle_calls, proxy_calls=ledger.proxy_calls, note=str(exc),
            )
        else:
            cell = evaluate_cell(query_id, trial, res, ds, cfg.aggs, gt, on_s)
        cell.wall_time_s = time.perf_counter() - start + (build_share if calibrated else 0.0)
        results.append(cell)
    return results


def _summarize(cfg: ExperimentConfig, ds: Dataset, cells: list[CellResult]) -> dict:
    """Per-algorithm means and spreads; degenerate metrics excluded per field."""
    summary: dict = {}
    for spec in cfg.algorithms:
        rows = [c for c in cells if c.algorithm == spec]
        entry: dict = {
            "cells": len(rows),
            "degenerate_cells": sum(1 for c in rows if c.degenerate),
            "oracle_calls_mean": float(np.mean([c.oracle_calls for c in rows])),
            "proxy_calls_mean": float(np.mean([c.proxy_calls for c in rows])),
        }
        f1s = [c.f1_s for c in rows if c.f1_s is not None]
        gaps = [c.pr_gap for c in rows if c.pr_gap is not None]
        if f1s:
            entry["f1_mean"] = float(np.mean(f1s))
            entry["f1_sd"] = float(np.std(f1s))
        if gaps:
            entry["pr_gap_mean"] = float(np.mean(gaps))
            entry["pr_gap_sd"] = float(np.std(gaps))
        entry["re_pct"] = {}
        for agg in cfg.aggs:
            res = [c.re_pct[agg] for c in rows if c.re_pct.get(agg) is not None]
            if res:
                entry["re_pct"][agg] = {
                    "mean": float(np.mean(res)),
                    "sd": float(np.std(res)),
                    "n": len(res),
                }
        entry["speedup"] = speedup(
            len(ds),
            entry["oracle_calls_mean"],
            entry["proxy_calls_mean"],
            cfg.cost_ratio,
        )
        summary[spec] = entry
    return summary


def _config_digest(cfg: ExperimentConfig, ds: Dataset) -> dict:
    sprint = asdict(cfg.sprint)
    del sprint["seed"]  # cells derive their own seeds from the root seed
    return {
        "population_size": len(ds),
        "query_ids": list(cfg.query_ids),
        "r": cfg.r,
        "metric": cfg.metric,
        "aggs": list(cfg.aggs),
        "algorithms": list(cfg.algorithms),
        **sprint,
        "trials": cfg.trials,
        "cost_ratio": cfg.cost_ratio,
    }


def _prepare_pass(cfg: ExperimentConfig) -> tuple[Dataset, dict[int, GroundTruth]]:
    """A pass's population and the ground truth of each of its queries."""
    ds = cfg.dataset if cfg.dataset is not None else generate_synthetic(cfg.gen_config)
    gts: dict[int, GroundTruth] = {}
    for q in cfg.query_ids:
        query = QuerySpec(q_id=q, r=cfg.r, agg=cfg.aggs[0], metric=cfg.metric)
        gts[q] = ground_truth(ds, query, cfg.aggs)
    return ds, gts


def _pass_report(cfg: ExperimentConfig, ds: Dataset, gts: dict[int, GroundTruth],
                 cells: list[CellResult]) -> MetricsReport:
    gt_payload = {
        str(q): {
            "agg": gts[q].agg_values,
            "on_d_size": len(gts[q].on_d),
            "density": gts[q].density,
            "oracle_calls": gts[q].oracle_calls,
        }
        for q in cfg.query_ids
    }
    return MetricsReport(
        seed=cfg.seed,
        config=_config_digest(cfg, ds),
        ground_truth=gt_payload,
        cells=cells,
        summary=_summarize(cfg, ds, cells),
    )


def _vary(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """The single-pass config for one sweep value; rejects impossible sizes and targets."""
    try:
        if axis == "dataset_size":
            if cfg.gen_config is None:
                raise ValueError("dataset_size sweeps need a generator config")
            gen = replace(cfg.gen_config, n_objects=int(value))
            sub = replace(cfg, dataset=None, gen_config=gen, sweep=None)
        elif axis == "sample_size":
            sub = replace(cfg, sprint=replace(cfg.sprint, s=int(value)), sweep=None)
        elif axis == "pilot_size":
            sub = replace(cfg, sprint=replace(cfg.sprint, s_p=int(value)), sweep=None)
        else:  # radius
            sub = replace(cfg, r=float(value), sweep=None)
        n = len(sub.dataset) if sub.dataset is not None else sub.gen_config.n_objects
        if sub.sprint.s > n:
            raise ValueError(f"sample size {sub.sprint.s} exceeds population {n}")
        for q in sub.query_ids:
            as_query_id(q, n)
    except ValueError as exc:
        raise ValueError(f"{axis} sweep value {value:g}: {exc}") from exc
    return sub


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Execute the configured grid; with a sweep, one pass per grid value.

    Sweeps hold the root seed fixed across passes so only the swept factor
    changes. Per-radius sweeps report the achieved neighborhood density so
    instability at sparse radii stays attributable.

    Passes are prepared first; then each (query, trial) block runs on every
    pass in turn, so host speed drift reaches all passes alike. Cells are
    seeded by (query, trial) alone, so this order changes no output.
    """
    if cfg.sweep is None:
        subs = [cfg]
    else:  # vary every grid value first so a bad one fails before any pass runs
        subs = [_vary(cfg, cfg.sweep.axis, value) for value in cfg.sweep.grid]
    passes = [(sub, *_prepare_pass(sub)) for sub in subs]
    cells: list[list[CellResult]] = [[] for _ in passes]
    for qi in range(len(cfg.query_ids)):
        for trial in range(cfg.trials):
            for p, pass_cells in zip(passes, cells):
                pass_cells.extend(_run_block(*p, qi, trial))

    reports = [_pass_report(*p, c) for p, c in zip(passes, cells)]
    if cfg.sweep is None:
        return reports[0]

    entries = []
    for value, report in zip(cfg.sweep.grid, reports):
        for cell in report.cells:
            cell.sweep_value = float(value)
        entries.append({
            "value": float(value),
            "summary": report.summary,
            "density": {
                q: report.ground_truth[q]["density"] for q in report.ground_truth
            },
            "mean_wall_time_s": float(np.mean([c.wall_time_s for c in report.cells])),
        })
    base = reports[0]
    return MetricsReport(
        seed=cfg.seed,
        config=dict(base.config, sweep_axis=cfg.sweep.axis, sweep_grid=list(cfg.sweep.grid)),
        ground_truth=base.ground_truth,
        cells=[c for report in reports for c in report.cells],
        summary=base.summary,
        sweep=entries,
    )


@dataclass
class CoverageResult:
    coverage: float
    trials: int
    s: int
    s_p: int
    tolerance: float
    failures: int


def coverage_check(
    ds: Dataset,
    query: QuerySpec,
    alpha: float,
    omega_s: float,
    omega_nn: float,
    omega_c: float = 0.0001,
    lambda_: float = 1.0,
    trials: int = 200,
    seed: int = 0,
) -> CoverageResult:
    """Fraction of independent runs landing within omega_s + omega_nn.

    Sample and pilot sizes come from the bound calculator matching the
    query's aggregation; the neighborhood density input, and for SUM the
    mean magnitude |AVG| and size of the neighborhood, come from the
    brute-force ground truth.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    gt = ground_truth(ds, query, [query.agg, "AVG"])
    truth, avg = gt.agg_values[query.agg], gt.agg_values["AVG"]
    if avg is None:  # AVG is undefined exactly when ON_D is empty
        raise DegenerateNeighborhoodError("ground-truth neighborhood is empty")
    rho = max(gt.density, 1.0 / len(ds))

    a, b = ds.attr_bounds
    inp = BoundsInput(
        alpha=alpha,
        rho=rho,
        a=a,
        b=b,
        omega_s=omega_s,
        omega_nn=omega_nn,
        omega_c=omega_c,
        lambda_=lambda_,
        population_size_D=len(ds),
        avg_s_abs=abs(avg) if query.agg == "SUM" else None,
        on_d_size=len(gt.on_d) if query.agg == "SUM" else None,
        bounds_data_derived=ds.bounds_source == "data",
    )
    out = reconcile_sizes(min_sizes(query.agg, inp))
    s = min(out.s_min, len(ds))
    s_p = min(out.s_p_min, s)

    tolerance = omega_s + omega_nn
    failures = 0
    for trial in range(trials):
        cfg = SprintConfig(
            s=s, s_p=s_p, alpha=alpha, seed=derive_seed(seed, "coverage", trial)
        )
        try:
            res = select_neighbors(query, cfg, ds, oracle_model(), proxy_model())
        except DegenerateNeighborhoodError:
            failures += 1
            continue
        est = _estimates([query.agg], ds, res.neighbors.member_ids, s)[query.agg]
        if est is None or abs(est - truth) > tolerance:
            failures += 1
    return CoverageResult(
        coverage=1.0 - failures / trials,
        trials=trials,
        s=s,
        s_p=s_p,
        tolerance=tolerance,
        failures=failures,
    )


def default_ht_factors() -> list[float]:
    """The hypothesis grid: multiples of the truth from 0.5 to 1.5 by 0.05."""
    return [round(0.5 + 0.05 * i, 2) for i in range(21)]


def run_ht_protocol(
    ds: Dataset,
    query_ids: Sequence[int],
    r: float,
    agg: str,
    sprint_cfg: SprintConfig,
    factors: Sequence[float] | None = None,
    ops: Sequence[str] = ("ge", "le"),
    k_samples: int = 30,
    metric: str = QuerySpec.metric,
    seed: int = 0,
) -> dict:
    """Decision-agreement protocol for hypothesis testing on estimates.

    For every (query, factor, op) cell the hypothesized constant is
    factor x ground-truth aggregate; the truth decision tests the exact
    neighborhood, and k_samples fresh pipeline runs produce the estimated
    decisions scored against it. AVG uses the t-test on neighbor values,
    PCT the proportion z-test on the neighborhood fraction; both test at
    the pipeline's confidence ``sprint_cfg.alpha``.

    Every id is checked by ``sprint.as_query_id``, and the ids, factors
    and ops for emptiness and repeats, before any ground truth.
    A degenerate trial is left out: one whose selection fails, or whose
    estimate test is undefined (say, a t-test on a single member). A cell
    scores the rest and its note counts the lost ones; a query with no
    selection left is skipped.
    """
    if agg not in ("AVG", "PCT"):
        raise ValueError("hypothesis-testing protocol covers AVG and PCT")
    if k_samples < 1:
        raise ValueError(f"k_samples must be at least 1, got {k_samples}")
    for op in ops:
        if op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {op!r}")
    _require_distinct("op", ops)
    factors = list(factors) if factors is not None else default_ht_factors()
    _require_distinct("factor", factors)
    query_ids = [as_query_id(q, len(ds)) for q in query_ids]
    _require_distinct("query target", query_ids)
    oracle, proxy = oracle_model(), proxy_model()

    def decide(h: Hypothesis, members: np.ndarray, n: int) -> bool:
        """Reject-null decision on a neighborhood drawn from n objects."""
        if agg == "AVG":
            return t_test_one_sample(ds.attrs[members], h).reject_null
        return z_test_proportion(len(members) / n, n, h).reject_null

    per_cell = []
    per_factor: dict[float, list[float]] = {f: [] for f in factors}
    skipped = 0
    for qi, q in enumerate(query_ids):
        query = QuerySpec(q_id=q, r=r, agg=agg, metric=metric)
        gt = ground_truth(ds, query, [agg])
        truth_val = gt.agg_values[agg]
        if truth_val is None or truth_val == 0:
            skipped += 1
            continue

        # One selection per (query, trial), reused across factors and ops.
        trial_selections = []
        for trial in range(k_samples):
            cfg_trial = replace(sprint_cfg, seed=derive_seed(seed, "ht", qi, trial))
            try:
                res = select_neighbors(query, cfg_trial, ds, oracle, proxy)
            except DegenerateNeighborhoodError:
                continue
            trial_selections.append(res.neighbors.member_ids)
        if not trial_selections:
            skipped += 1
            continue

        for factor in factors:
            for op in ops:
                acc, note = None, ""
                try:
                    h = Hypothesis(agg=agg, op=op, c=factor * truth_val, alpha=sprint_cfg.alpha)
                    truth_decision = decide(h, gt.on_d.member_ids, len(ds))
                except ValueError as exc:
                    note = str(exc)
                else:
                    est = []
                    for members in trial_selections:
                        try:
                            est.append(decide(h, members, sprint_cfg.s))
                        except ValueError:  # an undefined test: no decision
                            continue
                    if not est:
                        note = "estimate test undefined"
                    else:
                        acc = ht_accuracy(est, [truth_decision] * len(est))
                        per_factor[factor].append(acc)
                        if len(est) < k_samples:
                            note = f"{k_samples - len(est)} of {k_samples} trials degenerate"
                per_cell.append(
                    {"query_id": q, "factor": factor, "op": op, "accuracy": acc, "note": note}
                )

    factor_means = {
        f: (float(np.mean(v)) if v else None) for f, v in per_factor.items()
    }
    defined = [x for x in factor_means.values() if x is not None]
    return {
        "agg": agg,
        "factors": factors,
        "ops": list(ops),
        "k_samples": k_samples,
        "cells": per_cell,
        "accuracy_by_factor": factor_means,
        "mean_accuracy": float(np.mean(defined)) if defined else None,
        "skipped_queries": skipped,
    }
