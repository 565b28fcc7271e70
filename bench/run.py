"""Benchmark entry point: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the repository root. Writes the workload's seeded inputs under
``.bench_run/``, runs the workload in a child process (so its peak RSS
excludes input generation), checks that the child reported exactly the
metrics ``BENCHMARK.json`` declares, and prints its result as the last
line: ``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Input files are removed afterwards; traced runs keep their spans in
``.bench_run/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

# One BLAS thread in this process and in the workload it starts; no
# bytecode caches left in the checkout.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "PYTHONDONTWRITEBYTECODE"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import inputs  # noqa: E402  (after the environment is set)

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
GRID_N, QUERY_N = 10_000, 100_000
QUERY_TARGETS, GRID_TARGETS = 64, 10


def write_inputs(workload: str, seed: int, run_dir: str) -> dict:
    plan = {"workload": workload, "seed": seed, "data": os.path.join(run_dir, "population.jsonl")}
    if workload == "ingest":  # the program writes its own population in set-up
        return plan
    n, k = (QUERY_N, QUERY_TARGETS) if workload == "query" else (GRID_N, GRID_TARGETS)
    pop = inputs.population(n, seed)
    plan["targets"] = inputs.pick_targets(pop["oracle"], k, seed)
    inputs.write_jsonl(pop, plan["data"])
    return plan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("query", "grid", "ingest"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "aqnn", "__init__.py")):
        print("error: run from the repository root; src/aqnn not found", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    base = os.path.join(os.getcwd(), ".bench_run")
    run_dir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        plan = write_inputs(args.workload, args.seed, run_dir)
        plan_path = os.path.join(run_dir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--plan", plan_path,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(base, f"spans-{args.workload}-{args.seed}.jsonl")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if child.returncode != 0 or not child.stdout.strip():
        print(f"error: workload exited with code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if set(result["metrics"]) != set(units):
        print(f"error: metrics {sorted(set(result['metrics']) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
