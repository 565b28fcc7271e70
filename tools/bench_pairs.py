"""Alternating before/after benchmark pairs: ``python3 tools/bench_pairs.py --parent REV --pr N``.

Run from the repository root. Extracts the committed tree of ``REV`` (the
parent) into a temporary directory with ``git archive``, then runs
``bench/run.py`` in that checkout and in the working tree, one pair per
seed: ``PAIRS`` pairs of every workload, each run as long as
``BENCHMARK.json``'s ``run_seconds``. Odd seeds run the parent first, even
seeds the change, so host drift does not favour one side. Every run must report ``correct`` with 0
failed, or the script stops. Writes ``BENCH_<N>.json``: for each workload
and each end-to-end metric of ``BENCHMARK.json``, both sides' runs, their
median and quartiles, the ratio of medians, and the number of pairs the
change won. With ``--traced-seconds``, one traced run per side and
workload (seed 3) adds the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

WORKLOADS = ("query", "grid", "ingest")
PAIRS = 10  # the fewest pairs a gain claim is judged on
TRACED_SEED = 3


def bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``; its metrics as ``{name: value}``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} in {tree}: not correct ({result})")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(runs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(before: list[float], after: list[float], better: str) -> dict:
    won = sum((a > b) if better == "higher" else (a < b) for b, a in zip(before, after))
    med_b, med_a = statistics.median(before), statistics.median(after)
    return {
        "before": quartiles(before),
        "after": quartiles(after),
        "after_over_before": round(med_a / med_b, 3) if med_b else None,
        "pairs_change_better": won,
        "before_runs": before,
        "after_runs": after,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the 'before' side")
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--traced-seconds", type=float, default=0.0,
                    help="seconds of one traced run per side and workload; 0 skips them")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    parent = tempfile.mkdtemp(prefix=f"bench-parent-{rev}-")
    try:
        archive = subprocess.run(["git", "archive", rev], stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)
        sides = {"before": parent, "after": os.getcwd()}
        report = {
            "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds:g}"
                       " --trace 0|1",
            "host": f"{os.cpu_count()}-core {platform.machine()}, Python "
                    f"{platform.python_version()}, numpy {np.__version__}",
            "parent": rev,
            "method": "tools/bench_pairs.py: parent (git archive of the parent revision) and "
                      "change each run from their own tree; pairs alternate which side runs "
                      "first (odd seeds parent first); every run correct with 0 failed.",
            "untraced": {},
        }
        for workload in WORKLOADS:
            runs = {"before": [], "after": []}
            for seed in range(1, PAIRS + 1):
                order = ("before", "after") if seed % 2 else ("after", "before")
                for side in order:
                    metrics = bench(sides[side], workload, seed, seconds, 0)
                    runs[side].append(metrics)
                    print(f"{workload} seed {seed} {side}: {json.dumps(metrics)}",
                          file=sys.stderr, flush=True)
            entry = {"seeds": list(range(1, PAIRS + 1)), "pairs": PAIRS}
            for name, direction in better.items():
                entry[name] = summarize(
                    [float(f"{m[name]:.4g}") for m in runs["before"]],
                    [float(f"{m[name]:.4g}") for m in runs["after"]], direction)
            report["untraced"][workload] = entry
        if args.traced_seconds > 0:
            report["traced"] = {
                "seed": TRACED_SEED, "seconds": args.traced_seconds,
                **{w: {side: bench(tree, w, TRACED_SEED, args.traced_seconds, 1)
                       for side, tree in sides.items()} for w in WORKLOADS},
            }
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    out = f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
