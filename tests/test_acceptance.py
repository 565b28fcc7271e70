"""Acceptance suite: one test per release criterion, tolerances pinned.

Every test is fully seeded, so outcomes are reproducible run to run. The
terminal summary hook in conftest prints one PASS/FAIL line per criterion.
"""

import gc
import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from aqnn import (
    AggregationContext,
    Hypothesis,
    QuerySpec,
    SprintConfig,
    SyntheticGenConfig,
    aggregate,
    exact_frnn,
    generate_synthetic,
    min_sizes,
    prf1,
    speedup,
    t_test_one_sample,
    ternary_search_max,
    z_test_proportion,
)
from aqnn.cli import main
from aqnn.harness import ExperimentConfig, SweepSpec, coverage_check, run_experiment, run_ht_protocol
from aqnn.models import CallLedger
from aqnn.seeding import derive_seed, spawn_rng
from aqnn.sprint import (
    SelectionContext, draw_pilot, draw_sample, resolve_query_object, sprint_c, sprint_v, two_phase,
)
from aqnn.bounds import BoundsInput


pytestmark = pytest.mark.acceptance


def test_criterion_01_speedup_arithmetic():
    """Five reference cost rows reproduced within 0.1 at cost ratio 2."""
    rows = [
        (8234, 600, 1000, 7.5),
        (4245, 150, 500, 10.6),
        (16225, 600, 1000, 14.8),
        (6990280, 20000, 35000, 186.4),
        (10000, 1200, 2000, 4.5),
    ]
    for brute, oracle_calls, proxy_calls, expected in rows:
        got = speedup(brute, oracle_calls, proxy_calls, cost_ratio=2.0)
        assert abs(got - expected) <= 0.1, (brute, got, expected)


def test_criterion_02_bounds_worked_examples():
    """Worked sample-size examples: AVG 452 exact, PCT 738 exact, pilot in [738, 740]."""
    avg = min_sizes(
        "AVG", BoundsInput(alpha=0.05, rho=0.8, a=50.0, b=120.0, omega_s=5.0)
    )
    assert avg.s_min == 452
    pct = min_sizes("PCT", BoundsInput(alpha=0.05, omega_s=0.05))
    assert pct.s_min == 738
    pilot = min_sizes(
        "PCT",
        BoundsInput(alpha=0.05, omega_s=0.05, rho=1.0, omega_nn=0.1, omega_c=0.0001),
    )
    assert 738 <= pilot.s_p_min <= 740


def test_criterion_03_zero_noise_equivalence():
    """All three selectors recover the exact sample neighborhood, 100/100."""
    ds = generate_synthetic(
        SyntheticGenConfig(
            n_objects=10_000, embedding_dim=16, n_clusters=8,
            proxy_noise_sigma=0.0, seed=41,
        )
    )
    query_pool = [int(i) for i in spawn_rng(41, "queries").choice(len(ds), 10, replace=False)]
    r = 6.5
    exact, total = 0, 0
    for trial in range(100):
        q_id = query_pool[trial % len(query_pool)]
        seed = derive_seed(4100, trial)
        sample = draw_sample(ds, 1000, seed)
        pilot = draw_pilot(sample, 600, seed)
        ctx = SelectionContext.build(
            ds, resolve_query_object(ds, q_id), r, "euclidean", sample, pilot, CallLedger()
        )
        truth = exact_frnn(sample, ds.oracle_emb[sample], ds.oracle_emb[q_id], r)
        for out in (sprint_v(ctx, 0.01), sprint_c(ctx, 0.01), two_phase(ctx, 0.01, 0.01)):
            total += 1
            same = np.array_equal(out.neighbors.member_ids, truth.member_ids)
            f1 = prf1(out.neighbors, truth)[2]
            exact += same and f1 == 1.0
    assert exact == total == 300


def test_criterion_04_hoeffding_coverage():
    """PCT estimate within omega_s + omega_nn in >= 95% of 500 trials."""
    ds = generate_synthetic(
        SyntheticGenConfig(
            n_objects=10_000, embedding_dim=16, n_clusters=1,
            proxy_noise_sigma=0.0, seed=42,
        )
    )
    result = coverage_check(
        ds,
        QuerySpec(q_id=5, r=6.0, agg="PCT"),
        alpha=0.05,
        omega_s=0.05,
        omega_nn=0.1,
        omega_c=0.0001,
        trials=500,
        seed=7,
    )
    assert result.s >= 738  # Theorem-2 floor for these tolerances
    assert result.coverage >= 0.95, result


def test_criterion_05_balanced_error_unbiasedness():
    """|FP| = |FN| forces the PCT estimate to equal |ON_S|/s exactly."""
    rng = np.random.default_rng(5005)
    for _ in range(1000):
        s = int(rng.integers(4, 200))
        ids = np.arange(s)
        k = int(rng.integers(1, s))
        truth = set(rng.choice(ids, size=k, replace=False).tolist())
        outside = np.array(sorted(set(ids.tolist()) - truth))
        swap = int(rng.integers(0, min(k, outside.size) + 1))
        dropped = set(rng.choice(sorted(truth), size=swap, replace=False).tolist())
        added = set(rng.choice(outside, size=swap, replace=False).tolist()) if swap else set()
        selected = sorted((truth - dropped) | added)
        ctx = AggregationContext(sample_size_s=s, population_size_D=10 * s)
        est = aggregate("PCT", [0.0] * len(selected), len(selected), ctx)
        reference = aggregate("PCT", [0.0] * k, k, ctx)
        assert est == reference  # exact equality, not approximate


def test_criterion_06_ternary_search_optimality():
    """t* within omega_v of the exhaustive-grid argmax on 100 unimodal profiles."""
    omega_v = 0.01
    rng = np.random.default_rng(606)
    grid = np.arange(0.0, 1.0 + omega_v / 10, omega_v / 10)
    hits = 0
    for i in range(100):
        m = float(rng.uniform(0.02, 0.98))
        shape = i % 3
        if shape == 0:
            a = float(rng.uniform(0.5, 40.0))
            f = lambda t, m=m, a=a: 1.0 / (1.0 + a * (t - m) ** 2)
        elif shape == 1:
            f = lambda t, m=m: -((t - m) ** 2)
        else:
            p = float(rng.uniform(1.0, 2.0))
            f = lambda t, m=m, p=p: -(abs(t - m) ** p)
        t_star, _ = ternary_search_max(f, omega_v)
        g_star = float(grid[np.argmax([f(t) for t in grid])])
        hits += abs(t_star - g_star) <= omega_v
    assert hits == 100


def _criterion_07_trials():
    ds = generate_synthetic(
        SyntheticGenConfig(
            n_objects=20_000, embedding_dim=16, n_clusters=2,
            proxy_noise_sigma=0.3, seed=77,
        )
    )
    q_id, r = 11, 5.6
    rows = []
    for trial in range(30):
        seed = derive_seed(123, trial)
        sample = draw_sample(ds, 7000, seed)
        pilot = draw_pilot(sample, 5000, seed)
        ctx = SelectionContext.build(
            ds, resolve_query_object(ds, q_id), r, "euclidean", sample, pilot, CallLedger()
        )
        truth = exact_frnn(sample, ds.oracle_emb[sample], ds.oracle_emb[q_id], r)
        fixed = ctx.result(0.95, "pqe_pt_fixed:0.95").neighbors
        p_f, r_f, f1_f = prf1(fixed, truth)
        sv = sprint_v(ctx, 0.01)
        f1_v = prf1(sv.neighbors, truth)[2]
        sc = sprint_c(ctx, 0.01)
        p_c, r_c, _ = prf1(sc.neighbors, truth)
        rows.append(
            {"f1_fixed": f1_f, "gap_fixed": abs(p_f - r_f),
             "f1_v": f1_v, "gap_c": abs(p_c - r_c)}
        )
    return rows


def test_criterion_07_algorithm_comparison_pattern():
    """Balanced search beats the fixed target on the PR gap; F1 search on F1."""
    rows = _criterion_07_trials()
    mean_fixed_f1 = float(np.mean([r["f1_fixed"] for r in rows]))
    # noise level calibrated so the fixed 0.95 target lands near 0.8
    assert 0.7 <= mean_fixed_f1 <= 0.9, mean_fixed_f1
    gap_wins = sum(r["gap_c"] < r["gap_fixed"] for r in rows)
    f1_wins = sum(r["f1_v"] >= r["f1_fixed"] for r in rows)
    assert gap_wins >= 24, gap_wins
    assert f1_wins >= 24, f1_wins
    assert float(np.mean([r["gap_c"] for r in rows])) < float(
        np.mean([r["gap_fixed"] for r in rows])
    )


def test_criterion_08_scalability():
    """Selection+aggregation wall time stable (< 20%) from 1e4 to 1e6 objects."""
    gen = SyntheticGenConfig(
        n_objects=10**4, embedding_dim=16, n_clusters=8,
        proxy_noise_sigma=0.4, seed=55,
    )
    base = dict(
        query_ids=[7], r=6.0, aggs=["AVG"], algorithms=["sprint_v"],
        sprint=SprintConfig(s=1000, s_p=600, seed=2), seed=90,
    )
    # warm pass so allocator and cache effects hit neither grid endpoint
    run_experiment(ExperimentConfig(dataset=None, gen_config=gen, trials=3, **base))
    cfg = ExperimentConfig(
        dataset=None,
        gen_config=gen,
        trials=30,
        sweep=SweepSpec(axis="dataset_size", grid=(10**4, 10**5, 10**6)),
        **base,
    )
    # the cyclic collector runs when allocation counts say so, not with
    # population size, so it is paused for the timed sweep alone
    gc.disable()
    try:
        report = run_experiment(cfg)
    finally:
        gc.enable()
    times = [entry["mean_wall_time_s"] for entry in report.sweep]
    densities = [list(entry["density"].values())[0] for entry in report.sweep]
    assert max(densities) - min(densities) < 0.02  # constant-density regime
    ratio = max(times) / min(times)
    assert ratio < 1.2, (times, ratio)


def _ht_config(agg, rho):
    if agg == "AVG":
        out = min_sizes(
            "AVG", BoundsInput(alpha=0.05, rho=rho, a=50.0, b=120.0, omega_s=5.0,
                               lambda_=1.0)
        )
        s, s_p = out.s_min, out.s_p_min
    else:
        out = min_sizes(
            "PCT",
            BoundsInput(alpha=0.05, rho=rho, omega_s=0.05, omega_nn=0.75,
                        omega_c=0.0001),
        )
        s, s_p = out.s_min, min(out.s_p_min, out.s_min)
    return SprintConfig(s=s, s_p=s_p, seed=0)


@pytest.mark.parametrize("agg", ["AVG", "PCT"])
def test_criterion_09_hypothesis_testing_accuracy(agg):
    """Zero noise + theorem-sized samples: perfect calls far from the truth."""
    ds = generate_synthetic(
        SyntheticGenConfig(
            n_objects=6000, embedding_dim=16, n_clusters=4,
            proxy_noise_sigma=0.0, seed=61,
        )
    )
    queries = [int(i) for i in spawn_rng(61, "queries").choice(len(ds), 10, replace=False)]
    cfg = _ht_config(agg, rho=0.15)
    out = run_ht_protocol(
        ds, queries, r=7.0, agg=agg, sprint_cfg=cfg, k_samples=30, seed=9
    )
    assert out["accuracy_by_factor"][0.5] == 1.0
    assert out["accuracy_by_factor"][1.5] == 1.0
    assert out["mean_accuracy"] >= 0.8, out["mean_accuracy"]


def test_criterion_10_statistical_kernels():
    """t and z statistics and p-values match scipy to 1e-8 on 20 random cases."""
    rng = np.random.default_rng(1010)
    alternatives = {"ge": "less", "le": "greater", "ne": "two-sided"}
    for _ in range(20):
        n = int(rng.integers(3, 300))
        values = rng.normal(rng.uniform(-10, 10), rng.uniform(0.2, 5.0), n)
        c = float(rng.uniform(-12, 12))
        op = ("ge", "le", "ne")[int(rng.integers(0, 3))]
        mine = t_test_one_sample(values, Hypothesis(agg="AVG", op=op, c=c))
        ref_t, ref_p = sps.ttest_1samp(values, c, alternative=alternatives[op])
        assert abs(mine.statistic - ref_t) <= 1e-8
        assert abs(mine.p_value - ref_p) <= 1e-8
    for _ in range(20):
        n = int(rng.integers(30, 5000))
        c = float(rng.uniform(0.05, 0.95))
        p_hat = float(rng.uniform(0.0, 1.0))
        op = ("ge", "le", "ne")[int(rng.integers(0, 3))]
        mine = z_test_proportion(p_hat, n, Hypothesis(agg="PCT", op=op, c=c))
        stat = (p_hat - c) / math.sqrt(c * (1 - c) / n)
        if op == "ge":
            ref_p = sps.norm.cdf(stat)
        elif op == "le":
            ref_p = sps.norm.sf(stat)
        else:
            ref_p = 2 * min(sps.norm.cdf(stat), sps.norm.sf(stat))
        assert abs(mine.statistic - stat) <= 1e-8
        assert abs(mine.p_value - ref_p) <= 1e-8


def test_criterion_11_cli_determinism(tmp_path, capsys):
    """Repeated seeded CLI invocations produce byte-identical reports."""
    invocations = [
        ["--seed", "21", "bounds", "--agg", "SUM", "--alpha", "0.05",
         "--a", "1", "--b", "5", "--omega-s", "50", "--omega-nn", "0.5",
         "--d-size", "1000", "--avg-s", "3.0", "--on-d", "100", "--json"],
        ["--seed", "21", "query", "--n", "1200", "--dim", "8", "--q-id", "3",
         "--s", "400", "--sp", "120", "--radius", "5", "--agg", "SUM",
         "--truth", "--json"],
        ["--seed", "21", "bench", "--n", "500", "--dim", "8", "--clusters", "4",
         "--proxy-noise", "0.4", "--queries", "random:2", "--radius", "5",
         "--agg", "AVG,PCT,SUM", "--algorithms",
         "sprint_v,sprint_c,two_phase,pqe_pt_fixed:0.9,top_k,brute_force",
         "--trials", "2", "--s", "150", "--sp", "60", "--json"],
        ["--seed", "21", "ht", "--n", "500", "--dim", "8", "--clusters", "4",
         "--queries", "random:1", "--radius", "5", "--agg", "PCT",
         "--factors", "0.5", "1.5", "0.25", "--k", "3", "--s", "150",
         "--sp", "60", "--json"],
    ]
    for argv in invocations:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        json.loads(first)  # valid canonical JSON

    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    gen = ["--seed", "33", "gen", "--n", "200", "--dim", "6", "--proxy-noise", "0.2"]
    assert main(gen + ["--out", str(out_a)]) == 0
    assert main(gen + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
