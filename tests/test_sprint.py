import math
import re

import numpy as np
import pytest

from aqnn import (
    CallLedger,
    DegenerateNeighborhoodError,
    NeighborSet,
    QuerySpec,
    SprintConfig,
    draw_pilot,
    draw_sample,
    exact_frnn,
    oracle_model,
    prf1,
    proxy_model,
    select_neighbors,
    sprint_c,
    sprint_v,
    ternary_search_max,
    two_phase,
)
from aqnn.frnn import CalibrationTable
from aqnn.harness import ground_truth
from aqnn.seeding import spawn_rng
from aqnn.sprint import SelectionContext, resolve_query_object


def expected_ternary_iterations(omega):
    return math.ceil(math.log(1.0 / omega) / math.log(1.5))


def make_context(proxy_dist, truth_ids, r, sample_ids=None, pilot_ids=None, delta=0.05):
    """Craft a SelectionContext from explicit distances."""
    pilot_ids = np.asarray(
        pilot_ids if pilot_ids is not None else sorted(proxy_dist), dtype=np.int64
    )
    sample_ids = np.asarray(
        sample_ids if sample_ids is not None else sorted(proxy_dist), dtype=np.int64
    )
    truth = NeighborSet(np.array(sorted(truth_ids), dtype=np.int64), r)
    pilot_d = np.array([proxy_dist[i] for i in pilot_ids.tolist()], dtype=np.float64)
    return SelectionContext(
        sample_ids=sample_ids,
        sample_d=np.array([proxy_dist[i] for i in sample_ids.tolist()], dtype=np.float64),
        pilot_ids=pilot_ids,
        table=CalibrationTable.build(pilot_ids, pilot_d, truth, delta, float(r)),
        ledger=CallLedger(),
    )


def build_clean_context(ds, q_id, r, s, s_p, seed):
    ledger = CallLedger()
    sample = draw_sample(ds, s, seed)
    pilot = draw_pilot(sample, s_p, seed)
    ctx = SelectionContext.build(
        ds, resolve_query_object(ds, q_id), r, "euclidean", sample, pilot, ledger
    )
    return ctx, sample, ledger


class TestDrawSample:
    def test_full_sample_is_population(self, tiny_ds):
        ids = draw_sample(tiny_ds, len(tiny_ds), 0)
        assert set(ids) == set(range(len(tiny_ds)))

    def test_deterministic(self, clean_ds):
        assert np.array_equal(draw_sample(clean_ds, 50, 42), draw_sample(clean_ds, 50, 42))

    def test_draws_from_the_seeds_own_streams(self, clean_ds):
        # the streams bench/inputs.py restates for the harness
        sample = draw_sample(clean_ds, 50, 42)
        rng = spawn_rng(42, "sample")
        assert np.array_equal(sample, np.sort(rng.choice(len(clean_ds), 50, replace=False)))
        rng = spawn_rng(42, "pilot")
        assert np.array_equal(draw_pilot(sample, 10, 42),
                              np.sort(rng.choice(sample, 10, replace=False)))

    def test_size_exact_no_duplicates(self, clean_ds):
        ids = draw_sample(clean_ds, 500, 3)
        assert len(ids) == 500 == len(set(ids))

    def test_oversized_rejected(self, tiny_ds):
        with pytest.raises(ValueError, match="exceeds population"):
            draw_sample(tiny_ds, 9, 0)

    def test_inclusion_frequency_matches_uniform_rate(self, tiny_ds):
        # Monte-Carlo against the without-replacement inclusion rate s/|D|
        n, s, reps = len(tiny_ds), 3, 10000
        hits = sum(0 in draw_sample(tiny_ds, s, seed) for seed in range(reps))
        p = s / n
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(hits / reps - p) <= 3 * se


class TestDrawPilot:
    def test_full_pilot_is_sample(self):
        sample = np.array([3, 5, 9, 11])
        assert np.array_equal(np.sort(draw_pilot(sample, 4, 0)), sample)

    def test_subset_of_sample(self):
        sample = np.arange(100, 160)
        pilot = draw_pilot(sample, 20, 5)
        assert set(pilot) <= set(sample)
        assert len(pilot) == 20

    def test_deterministic(self):
        sample = np.arange(50)
        assert np.array_equal(draw_pilot(sample, 10, 7), draw_pilot(sample, 10, 7))

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="exceeds sample"):
            draw_pilot(np.arange(5), 6, 0)


class TestTernarySearch:
    def test_iteration_count_formula(self):
        for omega in (0.05, 0.01, 0.001):
            _, iters = ternary_search_max(lambda t: -((t - 0.4) ** 2), omega)
            assert iters == expected_ternary_iterations(omega)

    def test_quadratic_peak_found(self):
        for m in (0.12, 0.5, 0.93):
            t_star, _ = ternary_search_max(lambda t, m=m: -((t - m) ** 2), 1e-4)
            assert abs(t_star - m) <= 1e-4

    def test_unimodal_profiles_match_grid_argmax(self):
        # grid search at resolution omega/10 as the independent optimizer
        omega = 0.01
        rng = np.random.default_rng(77)
        for _ in range(25):
            m = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.5, 30.0)
            f = lambda t, m=m, a=a: 1.0 / (1.0 + a * (t - m) ** 2)
            t_star, _ = ternary_search_max(f, omega)
            grid = np.arange(0.0, 1.0 + omega / 10, omega / 10)
            g_star = grid[np.argmax([f(t) for t in grid])]
            assert abs(t_star - g_star) <= omega

    @pytest.mark.parametrize("omega", [0.0, -0.1, math.nan])
    def test_tolerance_not_above_zero_raises(self, omega):
        with pytest.raises(ValueError, match="omega must be positive"):
            ternary_search_max(lambda t: t, omega)


# Each public search, like SprintConfig, rejects a setting outside the one
# settings rule, naming it, rather than answering from no probes or failing
# inside its loop.
BAD_SEARCH_SETTINGS = {
    "sprint_v omega_v nan": (lambda ctx: sprint_v(ctx, math.nan),
                             "omega_v must lie in (0, 1), got nan"),
    "sprint_v omega_v 1.5": (lambda ctx: sprint_v(ctx, 1.5),
                             "omega_v must lie in (0, 1), got 1.5"),
    "sprint_c max_iters -3": (lambda ctx: sprint_c(ctx, 0.01, -3),
                              "max_iters must be an integer >= 1, got -3"),
    "sprint_c max_iters 2.5": (lambda ctx: sprint_c(ctx, 0.01, 2.5),
                               "max_iters must be an integer >= 1, got 2.5"),
    "sprint_c omega_c nan": (lambda ctx: sprint_c(ctx, math.nan),
                             "omega_c must lie in (0, 1), got nan"),
    "sprint_c omega_c -1": (lambda ctx: sprint_c(ctx, -1.0),
                            "omega_c must lie in (0, 1), got -1.0"),
    "two_phase max_iters 0": (lambda ctx: two_phase(ctx, 0.01, 0.01, max_iters=0),
                              "max_iters must be an integer >= 1, got 0"),
    "two_phase omega_c nan": (lambda ctx: two_phase(ctx, math.nan, 0.01),
                              "omega_c must lie in (0, 1), got nan"),
    "two_phase omega_v nan": (lambda ctx: two_phase(ctx, 0.01, math.nan),
                              "omega_v must lie in (0, 1), got nan"),
    "SprintConfig max_iters 2.5": (lambda ctx: SprintConfig(s=500, s_p=100, max_iters=2.5),
                                   "max_iters must be an integer >= 1, got 2.5"),
    "SprintConfig max_iters True": (lambda ctx: SprintConfig(s=500, s_p=100, max_iters=True),
                                    "max_iters must be an integer >= 1, got True"),
}


@pytest.mark.parametrize("run,message", BAD_SEARCH_SETTINGS.values(), ids=BAD_SEARCH_SETTINGS)
def test_search_rejects_settings_sprint_config_rejects(run, message):
    ctx = make_context({i: float(i + 1) for i in range(10)}, {0, 1, 2, 3}, r=4.5)
    with pytest.raises(ValueError, match=re.escape(message)):
        run(ctx)


# Sizes and the seed follow one integer rule, an int or a numpy integer but
# never a bool, rather than failing inside the draws or running as seed 1.
BAD_SIZES_AND_SEEDS = {
    "s 500.5": ({"s": 500.5}, "s must be an integer, got 500.5"),
    "s_p True": ({"s_p": True}, "s_p must be an integer, got True"),
    "seed 1.5": ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    "seed True": ({"seed": True}, "seed must be an integer, got True"),
}


@pytest.mark.parametrize("fields,message", BAD_SIZES_AND_SEEDS.values(), ids=BAD_SIZES_AND_SEEDS)
def test_sprint_config_sizes_and_seed_are_integers(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SprintConfig(**{"s": 500, "s_p": 100, **fields})


def test_sprint_config_numpy_integers_select_as_ints(clean_ds, models):
    query = QuerySpec(q_id=2, r=6.0, agg="AVG")
    as_ints = select_neighbors(query, SprintConfig(s=300, s_p=100, seed=5), clean_ds, *models)
    as_numpy = select_neighbors(
        query, SprintConfig(s=np.int64(300), s_p=np.int32(100), seed=np.int64(5)),
        clean_ds, *models)
    assert np.array_equal(as_numpy.neighbors.member_ids, as_ints.neighbors.member_ids)
    assert as_numpy.t_star == as_ints.t_star


class TestSprintV:
    def test_zero_noise_recovers_exact_frnn(self, clean_ds):
        ctx, sample, _ = build_clean_context(clean_ds, 17, 6.0, 800, 250, 1)
        out = sprint_v(ctx, 0.01)
        truth = exact_frnn(sample, clean_ds.oracle_emb[sample], clean_ds.oracle_emb[17], 6.0)
        assert np.array_equal(out.neighbors.member_ids, truth.member_ids)
        assert prf1(out.neighbors, truth)[2] == 1.0
        assert out.algorithm == "sprint_v"

    def test_iteration_count(self, clean_ds):
        ctx, _, _ = build_clean_context(clean_ds, 17, 6.0, 400, 150, 2)
        for omega in (0.05, 0.01):
            out = sprint_v(ctx, omega)
            assert out.probes == 2 * expected_ternary_iterations(omega)

    def test_degenerate_pilot_raises(self, clean_ds):
        ctx, _, _ = build_clean_context(clean_ds, 17, 1e-9, 400, 50, 3)
        with pytest.raises(DegenerateNeighborhoodError, match="pilot contains no true"):
            sprint_v(ctx, 0.01)


class TestSprintC:
    def test_zero_noise_exits_on_first_probe(self, clean_ds):
        ctx, sample, _ = build_clean_context(clean_ds, 8, 6.0, 800, 250, 4)
        out = sprint_c(ctx, 0.01)
        assert out.probes == 1
        assert out.t_star == 0.5
        truth = exact_frnn(sample, clean_ds.oracle_emb[sample], clean_ds.oracle_emb[8], 6.0)
        assert np.array_equal(out.neighbors.member_ids, truth.member_ids)
        assert out.algorithm == "sprint_c"

    def test_iteration_cap_respected(self, clean_ds):
        ctx, _, _ = build_clean_context(clean_ds, 8, 6.0, 400, 150, 5)
        out = sprint_c(ctx, 1e-12, max_iters=1)
        assert out.probes == 1
        assert out.t_star == 0.5

    def test_crossing_gap_matches_exhaustive_scan(self):
        # ten labeled points; precision and recall cross between adjacent
        # cutoffs so the tolerance is unreachable and the best-gap rule wins
        proxy = {i: float(i + 1) for i in range(10)}
        truth_ids = {0, 1, 2, 3, 6, 7}
        ctx = make_context(proxy, truth_ids, r=8.5)
        grid = np.arange(0.0, 1.0, 0.001)
        grid_gaps = []
        for t in grid:
            p, r, _ = ctx.table.labeled_prf1(float(t))
            grid_gaps.append(abs(p - r))
        expected_min = min(grid_gaps)
        out = sprint_c(ctx, omega_c=1e-9, max_iters=40)
        p, r, _ = ctx.table.labeled_prf1(out.t_star)
        assert abs(p - r) == pytest.approx(expected_min, abs=1e-12)

    def test_probe_stays_strictly_inside_interval(self, clean_ds):
        ctx, _, _ = build_clean_context(clean_ds, 8, 6.0, 400, 150, 6)
        out = sprint_c(ctx, 1e-12, max_iters=25)
        assert 0.0 < out.t_star < 1.0


class TestTwoPhase:
    def test_zero_noise_matches_other_selectors(self, clean_ds):
        ctx, sample, _ = build_clean_context(clean_ds, 21, 6.0, 800, 250, 7)
        tp = two_phase(ctx, 0.01, 0.01)
        sv = sprint_v(ctx, 0.01)
        sc = sprint_c(ctx, 0.01)
        assert np.array_equal(tp.neighbors.member_ids, sv.neighbors.member_ids)
        assert np.array_equal(tp.neighbors.member_ids, sc.neighbors.member_ids)
        assert tp.algorithm == "two_phase"

    def test_refined_target_within_window(self, clean_ds):
        ctx, _, _ = build_clean_context(clean_ds, 21, 6.0, 800, 250, 8)
        sc = sprint_c(ctx, 0.01)
        tp = two_phase(ctx, 0.01, 0.01)
        assert sc.t_star - 0.05 - 1e-12 <= tp.t_star <= sc.t_star + 0.05 + 1e-12

    def test_flat_f1_keeps_balanced_selection(self, clean_ds):
        # zero noise: F1 is flat at 1 around the balanced target, so the
        # refinement must not change the selected set
        ctx, _, _ = build_clean_context(clean_ds, 21, 6.0, 800, 250, 9)
        sc = sprint_c(ctx, 0.01)
        tp = two_phase(ctx, 0.01, 0.01)
        assert np.array_equal(tp.neighbors.member_ids, sc.neighbors.member_ids)


class TestSelectNeighbors:
    @pytest.mark.parametrize(
        "agg,label",
        [("AVG", "sprint_v"), ("VAR", "sprint_v"), ("PCT", "sprint_c"),
         ("COUNT", "sprint_c"), ("SUM", "two_phase")],
    )
    def test_dispatch(self, clean_ds, models, agg, label):
        oracle, proxy = models
        cfg = SprintConfig(s=300, s_p=100, seed=5)
        res = select_neighbors(QuerySpec(q_id=2, r=6.0, agg=agg), cfg, clean_ds, oracle, proxy)
        assert res.algorithm == label

    def test_ledger_accounting_external_query(self, clean_ds, models):
        # external query vector: no memo overlap with sample objects, so the
        # totals are exactly s + 1 proxy and s_p + 1 oracle calls
        oracle, proxy = models
        cfg = SprintConfig(s=400, s_p=120, seed=6)
        q_vec = clean_ds.oracle_emb[0] + 0.01
        res = select_neighbors(
            QuerySpec(q_id=q_vec, r=6.0, agg="AVG"), cfg, clean_ds, oracle, proxy
        )
        assert res.ledger.proxy_calls == 401
        assert res.ledger.oracle_calls == 121

    def test_selection_is_subset_of_sample(self, noisy_ds, models):
        oracle, proxy = models
        for agg in ("AVG", "PCT", "SUM"):
            cfg = SprintConfig(s=500, s_p=200, seed=7)
            res = select_neighbors(
                QuerySpec(q_id=11, r=6.0, agg=agg), cfg, noisy_ds, oracle, proxy
            )
            assert np.isin(res.neighbors.member_ids, res.sample_ids).all()

    def test_pilot_resize_does_not_perturb_sample(self, clean_ds, models):
        oracle, proxy = models
        res_a = select_neighbors(
            QuerySpec(q_id=3, r=6.0, agg="AVG"),
            SprintConfig(s=400, s_p=100, seed=11),
            clean_ds, oracle, proxy,
        )
        res_b = select_neighbors(
            QuerySpec(q_id=3, r=6.0, agg="AVG"),
            SprintConfig(s=400, s_p=200, seed=11),
            clean_ds, oracle, proxy,
        )
        assert np.array_equal(res_a.sample_ids, res_b.sample_ids)

    def test_same_seed_reproducible(self, noisy_ds, models):
        oracle, proxy = models
        cfg = SprintConfig(s=400, s_p=150, seed=123)
        q = QuerySpec(q_id=9, r=6.0, agg="PCT")
        r1 = select_neighbors(q, cfg, noisy_ds, oracle, proxy)
        r2 = select_neighbors(q, cfg, noisy_ds, oracle, proxy)
        assert np.array_equal(r1.neighbors.member_ids, r2.neighbors.member_ids)
        assert r1.t_star == r2.t_star

    @pytest.mark.parametrize("pair", ["swapped", "oracle twice", "proxy twice"])
    def test_model_pair_checked(self, clean_ds, pair):
        # each step reads its own model, so any pair but (oracle, proxy) is an error
        o, p = oracle_model(), proxy_model()
        oracle, proxy = {"swapped": (p, o), "oracle twice": (o, o), "proxy twice": (p, p)}[pair]
        with pytest.raises(ValueError, match=r"\(oracle_model\(\), proxy_model\(\)\)"):
            select_neighbors(QuerySpec(q_id=2, r=6.0, agg="AVG"), SprintConfig(s=300, s_p=100),
                             clean_ds, oracle, proxy)


_BAD_TARGETS = {
    "nan vector": lambda ds: np.where(np.arange(ds.embedding_dim) == 3, np.nan, ds.oracle_emb[0]),
    "inf vector": lambda ds: np.full(ds.embedding_dim, np.inf),
    "short vector": lambda ds: ds.oracle_emb[0][:-1],
    "matrix": lambda ds: ds.oracle_emb[:2],
    "float id": lambda ds: 3.0,
    "bool id": lambda ds: True,
    "numpy bool id": lambda ds: np.True_,
    "none": lambda ds: None,
    "text": lambda ds: "abc",
}


@pytest.mark.parametrize("run", ["select_neighbors", "ground_truth"])
@pytest.mark.parametrize("target", sorted(_BAD_TARGETS))
def test_bad_query_target_raises(clean_ds, models, run, target):
    # only a non-bool integer id or a finite vector of embedding_dim floats
    # is a target; anything else fails before any answer is produced
    query = QuerySpec(q_id=_BAD_TARGETS[target](clean_ds), r=6.0, agg="PCT")
    with pytest.raises(ValueError, match="query target .* neither an object id nor a finite "
                                         "vector of 16 floats"):
        if run == "select_neighbors":
            select_neighbors(query, SprintConfig(s=300, s_p=100), clean_ds, *models)
        else:
            ground_truth(clean_ds, query)


def test_empty_sample_raises_before_any_call(clean_ds):
    # a pilot outside the sample is named, even when the sample is empty,
    # and no model call is charged for it
    ledger = CallLedger()
    query = resolve_query_object(clean_ds, 2)
    for sample, pilot in [([], [3]), ([1, 2, 4], [3])]:
        with pytest.raises(ValueError, match="pilot ids must lie in the sorted sample ids"):
            SelectionContext.build(clean_ds, query, 6.0, "euclidean", np.array(sample, np.int64),
                                   np.array(pilot, np.int64), ledger)
    assert ledger.as_dict() == {"oracle_calls": 0, "proxy_calls": 0}


class TestBalancedCountIdentity:
    def test_equal_fp_fn_gives_exact_count_rate(self):
        # whenever |false positives| = |false negatives|, the selected-set
        # rate equals the true-neighbor rate exactly
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = int(rng.integers(4, 60))
            ids = list(range(s))
            k = int(rng.integers(1, s))
            truth = set(rng.choice(ids, size=k, replace=False).tolist())
            outside = [i for i in ids if i not in truth]
            swap = int(rng.integers(0, min(len(truth), len(outside)) + 1))
            dropped = set(rng.choice(sorted(truth), size=swap, replace=False).tolist())
            added = set(rng.choice(outside, size=swap, replace=False).tolist())
            selected = (truth - dropped) | added
            assert len(selected) / s == len(truth) / s
