"""Command-line front end: gen, query, bounds, bench, ht.

Flags mirror the pipeline's symbol names (--s, --sp, --omega-v, --omega-c,
--alpha, --radius) so invocations double as experiment records. Every
subcommand is deterministic given --seed (falling back to the AQNN_SEED
environment variable); --json switches to the canonical machine-readable
schema the harness emits. Exit codes: 0 success, 1 usage error, 2 data
error, 3 degenerate-query error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .aggregate import AGGREGATIONS, SCOPE_SAMPLE, AggregationContext, aggregate, relative_error
from .bounds import BoundsInput, min_sizes_count, min_sizes_sum, min_sizes_value, reconcile_sizes
from .dataset import SyntheticGenConfig, generate_synthetic, load_dataset, save_dataset
from .errors import DataError, DegenerateNeighborhoodError, UsageError
from .harness import (
    ExperimentConfig,
    SweepSpec,
    ground_truth,
    run_experiment,
    run_ht_protocol,
)
from .models import oracle_model, proxy_model
from .seeding import spawn_rng
from .frnn import prf1
from .sprint import ALGORITHMS, QuerySpec, SprintConfig, select_neighbors
from .stats import OPS

_EXIT_BY_ERROR = {UsageError: 1, DataError: 2, DegenerateNeighborhoodError: 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise UsageError(message)


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("AQNN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"AQNN_SEED must be an integer, got {env!r}") from exc
    return 0


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=10000, help="number of objects")
    p.add_argument("--dim", type=int, default=16, help="embedding dimension")
    p.add_argument("--clusters", type=int, default=8, help="mixture components")
    p.add_argument("--proxy-noise", type=float, default=0.0, help="proxy noise sigma")
    p.add_argument("--attr-mean", type=float, default=80.0)
    p.add_argument("--attr-sd", type=float, default=10.0)
    p.add_argument("--attr-shift", type=float, default=0.0,
                   help="attribute mean offset of cluster 0")
    p.add_argument("--bounds", type=float, nargs=2, default=(50.0, 120.0),
                   metavar=("A", "B"), help="attribute bounds")


def _gen_config(args, seed: int) -> SyntheticGenConfig:
    try:
        return SyntheticGenConfig(
            n_objects=args.n,
            embedding_dim=args.dim,
            n_clusters=args.clusters,
            proxy_noise_sigma=args.proxy_noise,
            attr_global_mean=args.attr_mean,
            attr_global_sd=args.attr_sd,
            attr_neighborhood_shift=args.attr_shift,
            attr_bounds=tuple(args.bounds),
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sprint_config(args, seed: int) -> SprintConfig:
    return SprintConfig(
        s=args.s, s_p=args.sp, omega_v=args.omega_v, omega_c=args.omega_c,
        alpha=args.alpha, max_iters=args.max_iters, seed=seed,
    )


def _load_or_generate(args, seed: int):
    if args.data is not None:
        return load_dataset(args.data)
    return generate_synthetic(_gen_config(args, seed))


def _resolve_queries(spec: str, ds, seed: int) -> list[int]:
    if spec.startswith("random:"):
        k = int(spec.split(":", 1)[1])
        if k < 1:
            raise UsageError("random:<k> needs k >= 1")
        rng = spawn_rng(seed, "query-targets")
        return [int(i) for i in rng.choice(len(ds), size=min(k, len(ds)), replace=False)]
    try:
        ids = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad query spec {spec!r}") from exc
    if not ids:
        raise UsageError("empty query list")
    return ids


def _models(args):
    return oracle_model(cost_weight=getattr(args, "cost_ratio", 2.0)), proxy_model()


def _cmd_gen(args) -> int:
    seed = _seed_from(args)
    ds = generate_synthetic(_gen_config(args, seed))
    save_dataset(ds, args.out)
    if args.json:
        sys.stdout.write(_canonical_json({
            "out": args.out,
            "n": len(ds),
            "feature_dim": ds.feature_dim,
            "embedding_dim": ds.embedding_dim,
            "attr_bounds": list(ds.attr_bounds),
            "seed": seed,
        }))
    else:
        print(f"wrote {len(ds)} objects to {args.out} (seed {seed})")
    return 0


def _cmd_query(args) -> int:
    seed = _seed_from(args)
    ds = _load_or_generate(args, seed)
    cfg = _sprint_config(args, seed)
    if cfg.s > len(ds):
        raise UsageError(f"--s {cfg.s} exceeds population {len(ds)}")
    q_id = args.q_id
    if q_id is None:
        q_id = int(spawn_rng(seed, "query-targets").integers(0, len(ds)))
    query = QuerySpec(q_id=q_id, r=args.radius, agg=args.agg, metric=args.metric)
    res = select_neighbors(query, cfg, ds, *_models(args))

    members = sorted(res.neighbors.member_ids)
    est_ctx = AggregationContext(cfg.s, len(ds), SCOPE_SAMPLE)
    estimate = aggregate(args.agg, ds.attrs[members] if members else [], len(members), est_ctx)

    payload = {
        "query_id": int(q_id),
        "agg": args.agg,
        "radius": args.radius,
        "metric": args.metric,
        "estimate": estimate,
        "selected": len(members),
        "t_star": res.t_star,
        "threshold": res.neighbors.threshold_used,
        "method": res.neighbors.method,
        "oracle_calls": res.ledger.oracle_calls,
        "proxy_calls": res.ledger.proxy_calls,
        "seed": seed,
    }
    if args.truth:
        gt = ground_truth(ds, query, oracle_model(), [args.agg])
        truth_val = gt.agg_values[args.agg]
        if truth_val is None:
            raise DegenerateNeighborhoodError("ground-truth neighborhood is empty")
        p, r, f1 = prf1(res.neighbors, gt.within(res.sample_ids))
        payload.update(
            truth=truth_val,
            re_pct=relative_error(estimate, truth_val) if truth_val != 0 else None,
            f1_s=f1,
            pr_gap=abs(p - r),
            on_d_size=len(gt.on_d),
        )
    if args.json:
        sys.stdout.write(_canonical_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_bounds(args) -> int:
    try:
        inp = BoundsInput(
            alpha=args.alpha, rho=args.rho, a=args.a, b=args.b,
            omega_s=args.omega_s, omega_nn=args.omega_nn, omega_c=args.omega_c,
            lambda_=args.lambda_, population_size_D=args.d_size,
            avg_s_abs=args.avg_s, on_d_size=args.on_d,
        )
        if args.agg in ("AVG", "VAR"):
            out = min_sizes_value(args.agg, inp)
        elif args.agg in ("PCT", "COUNT"):
            out = min_sizes_count(args.agg, inp)
        else:
            out = min_sizes_sum(inp)
        if args.reconcile:
            out = reconcile_sizes(out)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    payload = {
        "agg": args.agg,
        "s_min": out.s_min,
        "s_p_min": out.s_p_min,
        "omega_nn_implied": out.omega_nn_implied,
        "reconciled": out.reconciled,
        "details": out.details,
    }
    if args.json:
        sys.stdout.write(_canonical_json(payload))
    else:
        print(f"s_min = {out.s_min}")
        print(f"s_p_min = {out.s_p_min}")
        if out.omega_nn_implied is not None:
            print(f"omega_nn_implied = {out.omega_nn_implied:.6g}")
        if out.reconciled:
            print("reconciled: s raised to the pilot bound")
    return 0


def _parse_grid(raw: str) -> tuple:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok)
    except ValueError as exc:
        raise UsageError(f"bad sweep grid {raw!r}") from exc


def _cmd_bench(args) -> int:
    seed = _seed_from(args)
    ds = _load_or_generate(args, seed)
    queries = _resolve_queries(args.queries, ds, seed)
    sweep = None
    if args.sweep is not None:
        if args.grid is None:
            raise UsageError("--sweep needs --grid")
        sweep = SweepSpec(axis=args.sweep, grid=_parse_grid(args.grid))
    try:
        cfg = ExperimentConfig(
            dataset=ds if args.sweep != "dataset_size" else None,
            query_ids=queries,
            r=args.radius,
            aggs=[a.strip().upper() for a in args.agg.split(",") if a.strip()],
            algorithms=[a.strip() for a in args.algorithms.split(",") if a.strip()],
            sprint=_sprint_config(args, seed),
            trials=args.trials,
            seed=seed,
            metric=args.metric,
            sweep=sweep,
            gen_config=_gen_config(args, seed) if args.data is None else None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    report = run_experiment(cfg, parallel=args.parallel)
    text = report.to_json(include_timing=args.timings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.csv:
        rows = report.to_csv_rows()
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=sorted({k for r in rows for k in r}))
            writer.writeheader()
            writer.writerows(rows)
    if args.json or not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote report to {args.out}")
    return 0


def _cmd_ht(args) -> int:
    seed = _seed_from(args)
    ds = _load_or_generate(args, seed)
    queries = _resolve_queries(args.queries, ds, seed)
    lo, hi, step = args.factors
    if step <= 0 or hi < lo:
        raise UsageError("--factors needs LO HI STEP with STEP > 0 and HI >= LO")
    n_steps = int(round((hi - lo) / step))
    factors = [round(lo + i * step, 10) for i in range(n_steps + 1)]
    ops = [o.strip() for o in args.ops.split(",") if o.strip()]
    for op in ops:
        if op not in OPS:
            raise UsageError(f"op must be one of {OPS}, got {op!r}")

    result = run_ht_protocol(
        ds,
        queries,
        r=args.radius,
        agg=args.agg,
        sprint_cfg=_sprint_config(args, seed),
        factors=factors,
        ops=ops,
        k_samples=args.k,
        alpha=args.alpha,
        metric=args.metric,
        seed=seed,
    )
    if args.json:
        sys.stdout.write(_canonical_json(result))
    else:
        print(f"mean accuracy: {result['mean_accuracy']}")
        for factor in result["factors"]:
            print(f"  factor {factor:g}: {result['accuracy_by_factor'][factor]}")
    return 0


def _add_sprint_flags(p: argparse.ArgumentParser, s_default: int, sp_default: int) -> None:
    p.add_argument("--s", type=int, default=s_default, help="sample size")
    p.add_argument("--sp", type=int, default=sp_default, help="pilot sample size")
    p.add_argument("--omega-v", type=float, default=0.01, dest="omega_v")
    p.add_argument("--omega-c", type=float, default=0.01, dest="omega_c")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-iters", type=int, default=30, dest="max_iters")
    p.add_argument("--metric", choices=("euclidean", "cosine"), default="euclidean")
    p.add_argument("--radius", type=float, default=6.0)
    p.add_argument("--cost-ratio", type=float, default=2.0, dest="cost_ratio",
                   help="oracle call cost in proxy-call units")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aqnn", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="root seed (or AQNN_SEED)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen",
                           help="write a synthetic JSONL dataset")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(func=_cmd_gen)

    p_query = sub.add_parser("query",
                             help="answer one aggregation query end to end")
    p_query.add_argument("--data", default=None, help="JSONL dataset (default: generate)")
    _add_gen_flags(p_query)
    _add_sprint_flags(p_query, s_default=1000, sp_default=200)
    p_query.add_argument("--q-id", type=int, default=None, dest="q_id")
    p_query.add_argument("--agg", choices=AGGREGATIONS, default="AVG")
    p_query.add_argument("--truth", action="store_true",
                         help="also compute the brute-force truth and error metrics")
    p_query.add_argument("--json", action="store_true")
    p_query.set_defaults(func=_cmd_query)

    p_bounds = sub.add_parser("bounds",
                              help="minimum sample/pilot sizes for tolerances")
    p_bounds.add_argument("--agg", choices=AGGREGATIONS, required=True)
    p_bounds.add_argument("--alpha", type=float, default=0.05)
    p_bounds.add_argument("--rho", type=float, default=1.0)
    p_bounds.add_argument("--a", type=float, default=0.0)
    p_bounds.add_argument("--b", type=float, default=1.0)
    p_bounds.add_argument("--omega-s", type=float, default=0.05, dest="omega_s")
    p_bounds.add_argument("--omega-nn", type=float, default=0.1, dest="omega_nn")
    p_bounds.add_argument("--omega-c", type=float, default=0.0, dest="omega_c")
    p_bounds.add_argument("--lambda", type=float, default=1.0, dest="lambda_")
    p_bounds.add_argument("--d-size", type=int, default=1, dest="d_size")
    p_bounds.add_argument("--avg-s", type=float, default=None, dest="avg_s")
    p_bounds.add_argument("--on-d", type=int, default=None, dest="on_d")
    p_bounds.add_argument("--reconcile", action="store_true")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_bench = sub.add_parser("bench",
                             help="run the experiment harness")
    p_bench.add_argument("--data", default=None)
    _add_gen_flags(p_bench)
    _add_sprint_flags(p_bench, s_default=1000, sp_default=200)
    p_bench.add_argument("--queries", default="random:10")
    p_bench.add_argument("--agg", default="AVG", help="comma-separated aggregations")
    p_bench.add_argument(
        "--algorithms", default="sprint_v,sprint_c,two_phase",
        help="comma-separated, from: "
        + ", ".join("pqe_pt_fixed:<t>" if a == "pqe_pt_fixed" else a for a in ALGORITHMS),
    )
    p_bench.add_argument("--trials", type=int, default=30)
    p_bench.add_argument("--sweep", choices=("dataset_size", "sample_size", "pilot_size", "radius"),
                         default=None)
    p_bench.add_argument("--grid", default=None, help="comma-separated sweep grid")
    p_bench.add_argument("--parallel", type=int, default=0)
    p_bench.add_argument("--timings", action="store_true",
                         help="include wall-clock times (not byte-reproducible)")
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--csv", default=None)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_ht = sub.add_parser("ht",
                          help="hypothesis-testing accuracy protocol")
    p_ht.add_argument("--data", default=None)
    _add_gen_flags(p_ht)
    _add_sprint_flags(p_ht, s_default=1000, sp_default=200)
    p_ht.add_argument("--queries", default="random:10")
    p_ht.add_argument("--agg", choices=("AVG", "PCT"), default="AVG")
    p_ht.add_argument("--factors", type=float, nargs=3, default=(0.5, 1.5, 0.05),
                      metavar=("LO", "HI", "STEP"))
    p_ht.add_argument("--ops", default="ge,le")
    p_ht.add_argument("--k", type=int, default=30, help="samples per cell")
    p_ht.add_argument("--json", action="store_true")
    p_ht.set_defaults(func=_cmd_ht)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, DataError, DegenerateNeighborhoodError) as exc:
        code = next(c for t, c in _EXIT_BY_ERROR.items() if isinstance(exc, t))
        print(f"error: {exc}", file=sys.stderr)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
