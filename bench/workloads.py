"""One workload in its own process: set-up, a timed closed loop, checks.

Started by ``run.py`` after it has written the inputs, so the peak RSS
read here covers the program's work and none of the input generation.
Prints one JSON line: correctness, operation counts and raw metrics.

A single client sends the next operation only when the previous one has
returned. The run alternates set-up and measurement: after the b-th of k
set-ups it runs rounds until b/k of ``--seconds`` of operation time have
been spent. This host's speed drifts over tens of seconds, so spreading the
measured operations across the whole run averages more of that drift
than one block would. Every round holds the same operations, and checks
run between operations with the clock stopped. With ``--trace 1`` odd
rounds run traced and even rounds untraced, so the tracing overhead is
measured within one time window.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time

import numpy as np

import aqnn
from aqnn import harness
from aqnn.aggregate import SCOPE_SAMPLE

import checks
import inputs
from spans import Tracer, layer_metrics

QUERY_AGGS = ("AVG", "VAR", "PCT", "COUNT", "SUM")
QUERY_S, QUERY_SP = 10_000, 1_000
GRID_ALGS = ("sprint_v", "sprint_c", "two_phase", "top_k", "brute_force")
GRID_AGGS = ("AVG", "PCT")
GRID_S, GRID_SP, GRID_TRIALS = 1_000, 300, 3
INGEST_N = 100_000


class Run:
    """Clock, tallies and verdict of one run; latencies are kept apart per tracing mode."""

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.busy = {False: 0.0, True: 0.0}
        self.latencies = {False: [], True: []}
        self.setup_times: list[float] = []
        self.rounds = 0
        self.attempted = self.failed = 0
        self.calls: list[tuple[int, int]] = []
        self.f1s: list[float] = []
        self.res: list[float] = []
        self.rss_mb = 0.0
        self.ok = True

    def check(self, check, *args):
        """Run one checker; a failure is reported on stderr and makes the run incorrect."""
        try:
            return check(*args)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.ok = False
            return None

    def traced(self, on: bool):
        return self.tracer.installed() if on else contextlib.nullcontext()

    def blocks(self, reps: int, setup, do_round):
        """``reps`` timed set-ups, each followed by its share of the measured rounds.

        The previous set-up result is dropped before the next set-up, so only
        one copy is alive at a time. Returns the last set-up result and
        records the peak RSS at the end of the timed loop.
        """
        state = None
        for b in range(1, reps + 1):
            state = None
            gc.collect()
            self.tracer.op = -1
            with self.traced(self.trace):
                t0 = time.perf_counter()
                state = setup()
                self.setup_times.append(time.perf_counter() - t0)
            while self.busy[False] + self.busy[True] < self.seconds * b / reps:
                traced = self.trace and self.rounds % 2 == 1
                self.tracer.op = self.rounds
                with self.traced(traced):
                    do_round(state, traced)
                self.rounds += 1
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return state

    def record(self, traced: bool, busy_s: float, latencies_s) -> None:
        self.busy[traced] += busy_s
        self.latencies[traced].extend(latencies_s)

    def ops_per_s(self, traced: bool) -> float:
        busy = self.busy[traced]
        return len(self.latencies[traced]) / busy if busy else 0.0


def arrays_of(ds) -> dict:
    """A dataset's columns under the names the checkers use."""
    return {"attrs": ds.attrs, "features": ds.features,
            "oracle": ds.oracle_emb, "proxy": ds.proxy_emb}


def check_population(ds, seed: int) -> None:
    """The loaded dataset holds exactly the benchmark's own seeded arrays."""
    want = inputs.population(len(ds), seed)
    checks.check_loaded(arrays_of(ds), {**want, "features": want["oracle"]})


def run_query(plan: dict, run: Run) -> None:
    targets = plan["targets"]
    truths: dict[int, np.ndarray] = {}
    oracle, proxy = aqnn.oracle_model(), aqnn.proxy_model()
    i = 0

    def do_round(ds, traced):
        nonlocal i
        ref = arrays_of(ds)
        est_ctx = aqnn.AggregationContext(QUERY_S, len(ds), SCOPE_SAMPLE)
        busy, lat = 0.0, []
        for _ in QUERY_AGGS:
            q, agg = targets[i % len(targets)], QUERY_AGGS[i % len(QUERY_AGGS)]
            query = aqnn.QuerySpec(q_id=q, r=inputs.RADIUS, agg=agg)
            cfg = aqnn.SprintConfig(s=QUERY_S, s_p=QUERY_SP, seed=plan["seed"] * 1_000_003 + i)
            run.tracer.op = i
            run.attempted += 1
            i += 1
            t0 = time.perf_counter()
            try:
                res = aqnn.select_neighbors(query, cfg, ds, oracle, proxy)
                selected = np.array(sorted(res.neighbors.member_ids), dtype=np.int64)
                estimate = aqnn.aggregate(agg, ds.attrs[selected], selected.size, est_ctx)
            except aqnn.AqnnError as exc:
                busy += time.perf_counter() - t0
                run.failed += 1
                print(f"query {q} {agg} failed: {exc}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            busy += dt
            lat.append(dt)
            if q not in truths:
                truths[q] = inputs.neighbourhood(ref["oracle"], q)
            scores = run.check(checks.check_query, ref, {
                "q": q, "agg": agg, "s": QUERY_S, "s_p": QUERY_SP, "r": inputs.RADIUS,
                "alpha": cfg.alpha, "sample": res.sample_ids, "pilot": res.pilot_ids,
                "selected": selected, "threshold": res.neighbors.threshold_used,
                "t_star": res.t_star, "estimate": estimate, "truth_ids": truths[q],
                "oracle_calls": res.ledger.oracle_calls, "proxy_calls": res.ledger.proxy_calls,
            })
            run.calls.append((res.ledger.oracle_calls, res.ledger.proxy_calls))
            if scores:
                run.f1s.append(scores[0])
                run.res.append(scores[1])
        run.record(traced, busy, lat)

    ds = run.blocks(3, lambda: aqnn.load_dataset(plan["data"]), do_round)
    run.check(check_population, ds, plan["seed"])


def grid_config(ds, targets, seed):
    return harness.ExperimentConfig(
        dataset=ds, query_ids=targets, r=inputs.RADIUS, aggs=list(GRID_AGGS),
        algorithms=list(GRID_ALGS), sprint=aqnn.SprintConfig(s=GRID_S, s_p=GRID_SP, seed=seed),
        trials=GRID_TRIALS, seed=seed,
    )


def run_grid(plan: dict, run: Run) -> None:
    targets = plan["targets"]
    truths: dict[int, np.ndarray] = {}
    first = None

    def do_round(ds, traced):
        nonlocal first
        seed = plan["seed"] * 1_000_003 + run.rounds
        t0 = time.perf_counter()
        report = harness.run_experiment(grid_config(ds, targets, seed))
        run.record(traced, time.perf_counter() - t0, [c.wall_time_s for c in report.cells])
        run.attempted += len(report.cells)
        run.failed += sum(c.degenerate for c in report.cells)
        if not truths:
            truths.update((q, inputs.neighbourhood(ds.oracle_emb, q)) for q in targets)
        payload = report.to_json_dict()
        scores = run.check(checks.check_grid_report, arrays_of(ds), payload, truths, seed)
        run.calls.extend((c["oracle_calls"], c["proxy_calls"]) for c in payload["cells"])
        if scores:
            run.f1s.extend(scores[0])
            run.res.extend(scores[1])
        if first is None:
            first = (seed, report.to_json())

    ds = run.blocks(5, lambda: aqnn.load_dataset(plan["data"]), do_round)
    rerun = harness.run_experiment(grid_config(ds, targets, first[0])).to_json()
    run.check(checks.check_same_report, first[1], rerun)
    run.check(check_population, ds, plan["seed"])


def run_ingest(plan: dict, run: Run) -> None:
    gen_cfg = aqnn.SyntheticGenConfig(n_objects=INGEST_N, seed=plan["seed"])
    path = plan["data"]
    loaded = None

    def gen_and_save():
        ds = aqnn.generate_synthetic(gen_cfg)
        aqnn.save_dataset(ds, path)
        return ds

    def do_round(generated, traced):
        nonlocal loaded
        loaded = None
        gc.collect()
        t0 = time.perf_counter()
        loaded = aqnn.load_dataset(path)
        dt = time.perf_counter() - t0
        run.record(traced, dt, [dt])
        run.attempted += 1

    generated = run.blocks(3, gen_and_save, do_round)
    arrays = arrays_of(generated)
    run.check(checks.check_jsonl_file, path, arrays, generated.attr_bounds)
    run.check(checks.check_loaded, arrays_of(loaded), arrays)


WORKLOADS = {"query": run_query, "grid": run_grid, "ingest": run_ingest}


def mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    run = Run(args.seconds, trace=bool(args.trace))
    WORKLOADS[plan["workload"]](plan, run)

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(run.setup_times),
            "ops_per_s": run.ops_per_s(False),
            "op_ms_p50": 1e3 * statistics.median(run.latencies[False]),
            "peak_rss_mb": run.rss_mb,
        }
    else:
        n_traced = len(run.latencies[True])
        metrics = layer_metrics(run.tracer, n_traced)
        calls = np.array(run.calls, dtype=float).reshape(-1, 2)
        metrics.update({
            "models.ledger.oracle_calls_per_op": mean(calls[:, 0]),
            "models.ledger.proxy_calls_per_op": mean(calls[:, 1]),
            "sprint.f1_mean": mean(run.f1s),
            "aggregate.re_pct_mean": mean(run.res),
            "trace.overhead_pct": (run.ops_per_s(False) / run.ops_per_s(True) - 1.0) * 100.0
            if n_traced else 0.0,
        })
        if args.spans:
            run.tracer.write(args.spans)
    print(json.dumps({"correct": run.ok, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
