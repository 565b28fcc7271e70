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
import inspect
import math
import os
import sys
from dataclasses import asdict

from .aggregate import AGGREGATIONS, AggregationContext, aggregate
from .bounds import BoundsInput, min_sizes, reconcile_sizes
from .dataset import SyntheticGenConfig, generate_synthetic, load_dataset, save_dataset
from .errors import DataError, DegenerateNeighborhoodError, UsageError
from .frnn import VALID_METRICS
from .harness import (
    SWEEP_AXES,
    ExperimentConfig,
    SweepSpec,
    canonical_json,
    evaluate_cell,
    ground_truth,
    run_experiment,
    run_ht_protocol,
)
from .models import oracle_model, proxy_model
from .seeding import spawn_rng
from .sprint import ALGORITHMS, QuerySpec, SprintConfig, select_neighbors

# The exit code of each error a subcommand may raise; the first match wins.
_EXIT_BY_ERROR = {UsageError: 1, ValueError: 1, DataError: 2, OSError: 2,
                  DegenerateNeighborhoodError: 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise UsageError(message)


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


def _from_flags(target, args, **given):
    """Call ``target`` (a config class or a function) with ``given`` plus
    every parsed flag whose dest names one of its parameters.

    A flag left unset parses as None and is left out, so the parameter keeps
    the default ``target`` declares; lists become tuples.
    """
    params = inspect.signature(target).parameters
    flags = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in params and value is not None
    }
    return target(**{**flags, **given})


def _csv(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _flag(p: argparse.ArgumentParser, flag: str, dest: str, **kwargs) -> None:
    """Add ``flag`` filling parameter ``dest``; help names it after the flag."""
    p.add_argument(flag, dest=dest, metavar=flag[2:].replace("-", "_").upper(), **kwargs)


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--n", "n_objects", type=int, default=10000, help="number of objects")
    _flag(p, "--dim", "embedding_dim", type=int, help="embedding dimension")
    _flag(p, "--clusters", "n_clusters", type=int, help="mixture components")
    _flag(p, "--proxy-noise", "proxy_noise_sigma", type=float, help="proxy noise sigma")
    _flag(p, "--attr-mean", "attr_global_mean", type=float)
    _flag(p, "--attr-sd", "attr_global_sd", type=float)
    _flag(p, "--attr-shift", "attr_neighborhood_shift", type=float,
          help="attribute mean offset of cluster 0")
    p.add_argument("--bounds", type=float, nargs=2, dest="attr_bounds",
                   metavar=("A", "B"), help="attribute bounds")


def _load_or_generate(args, seed: int):
    if args.data is not None:
        return load_dataset(args.data)
    return generate_synthetic(_from_flags(SyntheticGenConfig, args, seed=seed))


def _resolve_queries(spec: str, n: int, seed: int) -> list[int]:
    """Query targets from ``spec``; ``random:k`` draws k distinct ids below ``n``,
    so k above ``n`` is a usage error."""
    if spec.startswith("random:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"--queries {spec!r}: expected random:<k> with an integer k") from exc
        if k < 1:
            raise UsageError(f"--queries {spec!r}: random:<k> needs k >= 1")
        if k > n:
            raise UsageError(f"--queries {spec!r}: random:{k} draws more ids than the "
                             f"population of {n}")
        rng = spawn_rng(seed, "query-targets")
        return [int(i) for i in rng.choice(n, size=k, replace=False)]
    try:
        ids = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"--queries {spec!r}: expected comma-separated integer ids") from exc
    if not ids:
        raise UsageError(f"--queries {spec!r}: empty query list")
    return ids


def _cmd_gen(args) -> int:
    seed = _seed_from(args)
    ds = generate_synthetic(_from_flags(SyntheticGenConfig, args, seed=seed))
    save_dataset(ds, args.out)
    if args.json:
        sys.stdout.write(canonical_json({
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
    cfg = _from_flags(SprintConfig, args, seed=seed)
    if cfg.s > len(ds):
        raise UsageError(f"--s {cfg.s} exceeds population {len(ds)}")
    q_id = args.q_id
    if q_id is None:
        q_id = int(spawn_rng(seed, "query-targets").integers(0, len(ds)))
    query = _from_flags(QuerySpec, args, q_id=q_id)
    res = select_neighbors(query, cfg, ds, oracle_model(), proxy_model())

    members = res.neighbors.member_ids
    estimate = aggregate(query.agg, ds.attrs[members], len(members),
                         AggregationContext(cfg.s, len(ds)))

    payload = {
        "query_id": int(q_id),
        "agg": query.agg,
        "radius": query.r,
        "metric": query.metric,
        "estimate": estimate,
        "selected": len(members),
        "t_star": res.t_star,
        "threshold": res.neighbors.threshold_used,
        "method": res.algorithm,
        "oracle_calls": res.ledger.oracle_calls,
        "proxy_calls": res.ledger.proxy_calls,
        "seed": seed,
    }
    if args.truth:
        # the search found a true neighbor in the pilot, so ON_D is never empty here
        gt = ground_truth(ds, query, [query.agg])
        cell = evaluate_cell(q_id, 0, res, ds, [query.agg], gt, gt.within(res.sample_ids))
        payload.update(
            truth=gt.agg_values[query.agg],
            re_pct=cell.re_pct[query.agg],
            f1_s=cell.f1_s,
            pr_gap=cell.pr_gap,
            on_d_size=len(gt.on_d),
        )
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_bounds(args) -> int:
    out = min_sizes(args.agg, _from_flags(BoundsInput, args))
    if args.reconcile:
        out = reconcile_sizes(out)

    if args.json:
        sys.stdout.write(canonical_json({"agg": args.agg, **asdict(out)}))
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
    if args.data is not None and args.sweep == "dataset_size":
        raise UsageError(
            "--data cannot be combined with --sweep dataset_size, "
            "whose passes generate their own populations"
        )
    sweep = None
    if args.sweep is not None:
        if args.grid is None:
            raise UsageError("--sweep needs --grid")
        sweep = SweepSpec(axis=args.sweep, grid=_parse_grid(args.grid))
    # dataset_size passes generate their own populations; random targets come from the smallest
    ds = None if args.sweep == "dataset_size" else _load_or_generate(args, seed)
    n = len(ds) if ds is not None else min(args.n_objects, int(sweep.grid[0]))
    cfg = _from_flags(
        ExperimentConfig, args,
        dataset=ds,
        query_ids=_resolve_queries(args.queries, n, seed),
        sprint=_from_flags(SprintConfig, args, seed=seed),
        seed=seed,
        sweep=sweep,
        gen_config=(None if args.data is not None
                    else _from_flags(SyntheticGenConfig, args, seed=seed)),
    )
    report = run_experiment(cfg)
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


def _factor_grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to the last value not above hi (within float error)."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise UsageError(f"--factors values must be finite, got {lo:g} {hi:g} {step:g}")
    if step <= 0 or hi < lo:
        raise UsageError("--factors needs LO HI STEP with STEP > 0 and HI >= LO")
    n_steps = int((hi - lo) / step + 1e-9)
    return [round(lo + i * step, 10) for i in range(n_steps + 1)]


def _cmd_ht(args) -> int:
    seed = _seed_from(args)
    if args.k_samples is not None and args.k_samples < 1:
        raise UsageError(f"--k must be at least 1, got {args.k_samples}")
    factors = _factor_grid(*args.factors) if args.factors is not None else None
    ds = _load_or_generate(args, seed)
    cfg = _from_flags(SprintConfig, args, seed=seed)
    result = _from_flags(
        run_ht_protocol, args,
        ds=ds,
        query_ids=_resolve_queries(args.queries, len(ds), seed),
        sprint_cfg=cfg,
        factors=factors,
        seed=seed,
    )
    if args.json:
        sys.stdout.write(canonical_json(result))
    else:
        print(f"mean accuracy: {result['mean_accuracy']}")
        for factor in result["factors"]:
            print(f"  factor {factor:g}: {result['accuracy_by_factor'][factor]}")
    return 0


def _add_sprint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=int, default=1000, help="sample size")
    _flag(p, "--sp", "s_p", type=int, default=200, help="pilot sample size")
    p.add_argument("--omega-v", type=float)
    p.add_argument("--omega-c", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--metric", choices=VALID_METRICS)
    _flag(p, "--radius", "r", type=float, default=6.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aqnn", description=__doc__)
    parser.add_argument("--seed", type=int, help="root seed (or AQNN_SEED)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen",
                           help="write a synthetic JSONL dataset")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(func=_cmd_gen)

    p_query = sub.add_parser("query",
                             help="answer one aggregation query end to end")
    p_query.add_argument("--data", help="JSONL dataset (default: generate)")
    _add_gen_flags(p_query)
    _add_sprint_flags(p_query)
    p_query.add_argument("--q-id", type=int)
    p_query.add_argument("--agg", choices=AGGREGATIONS, default="AVG")
    p_query.add_argument("--truth", action="store_true",
                         help="also compute the brute-force truth and error metrics")
    p_query.add_argument("--json", action="store_true")
    p_query.set_defaults(func=_cmd_query)

    p_bounds = sub.add_parser("bounds",
                              help="minimum sample/pilot sizes for tolerances")
    p_bounds.add_argument("--agg", choices=AGGREGATIONS, required=True)
    p_bounds.add_argument("--alpha", type=float)
    p_bounds.add_argument("--rho", type=float)
    p_bounds.add_argument("--a", type=float)
    p_bounds.add_argument("--b", type=float)
    p_bounds.add_argument("--omega-s", type=float)
    p_bounds.add_argument("--omega-nn", type=float)
    p_bounds.add_argument("--omega-c", type=float)
    p_bounds.add_argument("--lambda", type=float, dest="lambda_")
    _flag(p_bounds, "--d-size", "population_size_D", type=int)
    _flag(p_bounds, "--avg-s", "avg_s_abs", type=float)
    _flag(p_bounds, "--on-d", "on_d_size", type=int)
    p_bounds.add_argument("--reconcile", action="store_true")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_bench = sub.add_parser("bench",
                             help="run the experiment harness")
    p_bench.add_argument("--data")
    _add_gen_flags(p_bench)
    _add_sprint_flags(p_bench)
    p_bench.add_argument("--queries", default="random:10")
    _flag(p_bench, "--agg", "aggs", type=lambda raw: _csv(raw.upper()), default="AVG",
          help="comma-separated aggregations")
    p_bench.add_argument(
        "--algorithms", type=_csv, default="sprint_v,sprint_c,two_phase",
        help="comma-separated, from: "
        + ", ".join("pqe_pt_fixed:<t>" if a == "pqe_pt_fixed" else a for a in ALGORITHMS),
    )
    p_bench.add_argument("--trials", type=int)
    p_bench.add_argument("--cost-ratio", type=float,
                         help="oracle call cost in proxy-call units, for speedup")
    p_bench.add_argument("--sweep", choices=SWEEP_AXES)
    p_bench.add_argument("--grid", help="comma-separated sweep grid")
    p_bench.add_argument("--timings", action="store_true",
                         help="include wall-clock times (not byte-reproducible)")
    p_bench.add_argument("--out")
    p_bench.add_argument("--csv")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_ht = sub.add_parser("ht",
                          help="hypothesis-testing accuracy protocol")
    p_ht.add_argument("--data")
    _add_gen_flags(p_ht)
    _add_sprint_flags(p_ht)
    p_ht.add_argument("--queries", default="random:10")
    p_ht.add_argument("--agg", choices=("AVG", "PCT"), default="AVG")
    p_ht.add_argument("--factors", type=float, nargs=3, metavar=("LO", "HI", "STEP"))
    p_ht.add_argument("--ops", type=_csv)
    _flag(p_ht, "--k", "k_samples", type=int, help="samples per cell")
    p_ht.add_argument("--json", action="store_true")
    p_ht.set_defaults(func=_cmd_ht)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:  # an OSError: it must be caught first
        return 0
    except tuple(_EXIT_BY_ERROR) as exc:
        code = next(c for t, c in _EXIT_BY_ERROR.items() if isinstance(exc, t))
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
