"""Per-algorithm cell times of the benchmark's grid: ``python3 tools/grid_cells.py --rounds N``.

Run from the repository root. Writes the ``grid`` workload's seeded
population and picks its query targets with ``bench/inputs.py``, loads the
population with ``aqnn.load_dataset``, and runs one untimed warm-up round
and then ``--rounds`` rounds of the workload's ``run_experiment``
configuration in this process, round i seeded as the benchmark seeds its
i-th round. Prints one JSON object: the median round time and, per
algorithm, the median of its cells' ``wall_time_s``. The benchmark's
``op_ms_p50`` pools every kind of cell into one median; this splits it.

``--src`` names the source tree to time (default ``src``), so the same
script times another checkout, e.g. one extracted with ``git archive``.
Nothing under ``bench/`` is written; its modules are only imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as bench/run.py sets
sys.dont_write_bytecode = True  # leave no bytecode cache under bench/

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--seed", type=int, default=3, help="the benchmark run's seed")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error(f"--rounds must be at least 1, got {args.rounds}")
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]

    import aqnn
    from aqnn import harness
    import inputs
    from run import GRID_N, GRID_TARGETS
    from workloads import grid_config

    pop = inputs.population(GRID_N, args.seed)
    targets = inputs.pick_targets(pop["oracle"], GRID_TARGETS, args.seed)
    with tempfile.TemporaryDirectory(prefix="grid-cells-") as tmp:
        path = os.path.join(tmp, "population.jsonl")
        inputs.write_jsonl(pop, path)
        ds = aqnn.load_dataset(path)

    rounds, cells = [], {}
    for i in range(-1, args.rounds):  # round -1 is the warm-up
        cfg = grid_config(ds, targets, args.seed * 1_000_003 + max(i, 0))
        t0 = time.perf_counter()
        report = harness.run_experiment(cfg)
        dt = time.perf_counter() - t0
        if i < 0:
            continue
        rounds.append(dt)
        for c in report.cells:
            cells.setdefault(c.algorithm, []).append(c.wall_time_s)

    def ms(xs):
        return round(1e3 * statistics.median(xs), 4)

    print(json.dumps({
        "seed": args.seed,
        "rounds": args.rounds,
        "cells_per_round": len(report.cells),
        "round_ms_median": ms(rounds),
        "cell_ms_median": {alg: ms(ts) for alg, ts in cells.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
