import json
import re
import time
import warnings
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from aqnn import (
    CallLedger,
    DegenerateNeighborhoodError,
    QuerySpec,
    SprintConfig,
    SyntheticGenConfig,
    draw_pilot,
    draw_sample,
    generate_synthetic,
    oracle_model,
    proxy_model,
    select_neighbors,
)
from aqnn.bounds import BoundsInput, min_sizes, reconcile_sizes
from aqnn.dataset import Dataset, load_dataset, save_dataset
from aqnn.seeding import derive_seed
from aqnn.sprint import CALIBRATED, SelectionContext, parse_algorithm, select
from aqnn.harness import (
    CellResult,
    ExperimentConfig,
    SweepSpec,
    canonical_json,
    coverage_check,
    evaluate_cell,
    ground_truth,
    run_experiment,
    run_ht_protocol,
)


@pytest.fixture(scope="module")
def small_ds():
    return generate_synthetic(
        SyntheticGenConfig(n_objects=800, embedding_dim=8, n_clusters=4, seed=31)
    )


@pytest.fixture(scope="module")
def small_noisy_ds():
    return generate_synthetic(
        SyntheticGenConfig(
            n_objects=800, embedding_dim=8, n_clusters=4, proxy_noise_sigma=0.6, seed=32
        )
    )


def with_points(ds, emb, attrs):
    """``ds`` plus objects at ``emb`` (oracle and proxy alike) with ``attrs``."""
    return Dataset(np.append(ds.attrs, attrs), np.vstack([ds.features, emb]),
                   np.vstack([ds.oracle_emb, emb]), np.vstack([ds.proxy_emb, emb]),
                   ds.attr_bounds)


def small_config(ds, **kw):
    defaults = dict(
        dataset=ds,
        query_ids=[3, 17],
        r=5.0,
        aggs=["AVG", "PCT"],
        algorithms=["sprint_v", "brute_force"],
        sprint=SprintConfig(s=200, s_p=80, seed=1),
        trials=3,
        seed=9,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestGroundTruth:
    def test_huge_radius_aggregates_everything(self, tiny_ds):
        gt = ground_truth(
            tiny_ds, QuerySpec(q_id=0, r=1e9, agg="AVG"), ["AVG", "SUM"]
        )
        assert gt.agg_values["AVG"] == pytest.approx(tiny_ds.attrs.mean())
        assert gt.agg_values["SUM"] == pytest.approx(tiny_ds.attrs.sum())
        assert gt.density == 1.0

    def test_six_point_neighborhood_layout(self):
        pts = np.array(
            [[0.1, 0.0], [0.0, 0.3], [-0.4, 0.2], [0.5, 0.5], [0.9, 0.0],
             [0.0, -0.95], [2.0, 0.0], [0.0, 3.0], [-2.5, 1.0]]
        )
        ds = Dataset(attrs=np.arange(9.0), features=pts, oracle_emb=pts, proxy_emb=pts)
        gt = ground_truth(
            ds, QuerySpec(q_id=np.zeros(2), r=1.0, agg="COUNT"), ["COUNT"]
        )
        assert len(gt.on_d) == 6
        assert gt.agg_values["COUNT"] == 6.0

    def test_oracle_ledger_equals_population(self, tiny_ds):
        gt = ground_truth(tiny_ds, QuerySpec(q_id=0, r=2.0, agg="PCT"))
        assert gt.oracle_calls == len(tiny_ds)  # query object memoized within D

    def test_empty_neighborhood_marks_value_aggs_degenerate(self, tiny_ds):
        q = np.array([500.0, 500.0])
        gt = ground_truth(
            tiny_ds, QuerySpec(q_id=q, r=1.0, agg="AVG"), ["AVG", "PCT"]
        )
        assert gt.agg_values["AVG"] is None
        assert gt.agg_values["PCT"] == 0.0


class TestRunExperiment:
    def test_brute_force_exact_everywhere(self, small_ds):
        report = run_experiment(small_config(small_ds, algorithms=["brute_force"]))
        for cell in report.cells:
            for agg, re in cell.re_pct.items():
                assert re == pytest.approx(0.0)

    def test_zero_noise_selector_perfect_f1(self, small_ds):
        report = run_experiment(small_config(small_ds, algorithms=["sprint_v"]))
        assert all(c.f1_s == 1.0 for c in report.cells)

    def test_cell_count(self, small_ds):
        report = run_experiment(
            small_config(small_ds, algorithms=["sprint_v", "sprint_c"], trials=4)
        )
        # 2 algorithms x 2 queries x 4 trials
        assert len(report.cells) == 16
        assert report.summary["sprint_v"]["cells"] == 8

    def test_deterministic_reports(self, small_noisy_ds):
        cfg = dict(algorithms=["sprint_c", "top_k"], trials=2)
        r1 = run_experiment(small_config(small_noisy_ds, **cfg))
        r2 = run_experiment(small_config(small_noisy_ds, **cfg))
        assert r1.to_json() == r2.to_json()

    def test_sweep_cells_equal_single_radius_runs(self, small_noisy_ds):
        # the passes' blocks run interleaved; that order moves no cell
        cfg_kw = dict(algorithms=["sprint_v", "pqe_pt_fixed:0.9", "top_k"], trials=2)
        grid = (4.0, 5.0, 6.0)
        sweep = run_experiment(small_config(small_noisy_ds, **cfg_kw,
                                            sweep=SweepSpec(axis="radius", grid=grid)))

        def untimed(cells):
            return [{**asdict(c), "wall_time_s": None, "sweep_value": None} for c in cells]

        for r in grid:
            alone = run_experiment(small_config(small_noisy_ds, **cfg_kw, r=r))
            swept = [c for c in sweep.cells if c.sweep_value == r]
            assert untimed(swept) == untimed(alone.cells)

    def test_cells_name_the_spec_as_given(self, small_noisy_ds):
        specs = ["sprint_v", "sprint_c", "two_phase", "pqe_pt_fixed:0.90", "top_k",
                 "brute_force"]
        report = run_experiment(small_config(small_noisy_ds, algorithms=specs, trials=1))
        assert [c.algorithm for c in report.cells] == specs * 2

    def test_algorithms_share_trial_samples(self, small_noisy_ds):
        # paired trials: oracle+proxy call counts line up per (query, trial)
        report = run_experiment(
            small_config(small_noisy_ds, algorithms=["sprint_v", "sprint_c"], trials=2)
        )
        by_key = {}
        for c in report.cells:
            by_key.setdefault((c.query_id, c.trial), []).append(c)
        for cells in by_key.values():
            assert len(cells) == 2
            assert cells[0].oracle_calls == cells[1].oracle_calls

    def test_top_k_charges_oracle_for_sample(self, small_noisy_ds):
        report = run_experiment(small_config(small_noisy_ds, algorithms=["top_k"]))
        for cell in report.cells:
            assert cell.oracle_calls == 200 + 1  # whole sample plus the target

    def test_fixed_target_parse_errors(self):
        # the name must match exactly, and every error names the whole spec
        assert parse_algorithm("pqe_pt_fixed:0.9") == ("pqe_pt_fixed", 0.9)
        assert parse_algorithm("top_k") == ("top_k", None)
        cases = [
            ("pqe_pt_fixed", "needs a target"),
            ("pqe_pt_fixed:", "needs a target"),
            ("annoy", "unknown algorithm"),
            ("pqe_pt_fixedX:0.5", "unknown algorithm"),
            ("sprint_v:0.5", "unknown algorithm"),
            ("pqe_pt_fixed:abc", r"needs a target in \[0, 1\]"),
            ("pqe_pt_fixed:1.5", r"needs a target in \[0, 1\]"),
            ("pqe_pt_fixed:nan", r"needs a target in \[0, 1\]"),
        ]
        for spec, why in cases:
            with pytest.raises(ValueError, match=why) as exc:
                parse_algorithm(spec)
            assert repr(spec) in str(exc.value)

    def test_radius_sweep_reports_density(self, small_ds):
        cfg = small_config(
            small_ds,
            algorithms=["sprint_v"],
            trials=2,
            sweep=SweepSpec(axis="radius", grid=(4.0, 6.0)),
        )
        report = run_experiment(cfg)
        assert len(report.sweep) == 2
        d_small = np.mean(list(report.sweep[0]["density"].values()))
        d_large = np.mean(list(report.sweep[1]["density"].values()))
        assert d_small <= d_large
        assert {c.sweep_value for c in report.cells} == {4.0, 6.0}

    def test_sample_size_sweep(self, small_ds):
        cfg = small_config(
            small_ds,
            algorithms=["sprint_v"],
            trials=1,
            sweep=SweepSpec(axis="sample_size", grid=(150, 300)),
        )
        report = run_experiment(cfg)
        assert [e["value"] for e in report.sweep] == [150.0, 300.0]

    @pytest.mark.parametrize(
        "axis,grid,message",
        [
            ("sample_size", (100, 900), "sample size 900 exceeds population 800"),
            ("sample_size", (50, 100), "pilot size cannot exceed sample size"),
            ("pilot_size", (100, 250), "pilot size cannot exceed sample size"),
            ("dataset_size", (150, 800), "sample size 200 exceeds population 150"),
        ],
    )
    def test_bad_sweep_value_rejected_before_any_pass(self, small_ds, monkeypatch,
                                                       axis, grid, message):
        import aqnn.harness

        passes = []
        monkeypatch.setattr(aqnn.harness, "_prepare_pass", lambda *a, **k: passes.append(a))
        gen = SyntheticGenConfig(n_objects=800, embedding_dim=8, n_clusters=4, seed=31)
        cfg = small_config(
            None if axis == "dataset_size" else small_ds,
            gen_config=gen,
            sweep=SweepSpec(axis=axis, grid=grid),
        )
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        assert passes == []

    def test_sweep_target_outside_a_pass_rejected_before_any_pass(self, monkeypatch):
        import aqnn.harness

        passes = []
        monkeypatch.setattr(aqnn.harness, "_prepare_pass", lambda *a, **k: passes.append(a))
        gen = SyntheticGenConfig(n_objects=800, embedding_dim=8, n_clusters=4, seed=31)
        cfg = small_config(None, query_ids=[3, 600], gen_config=gen,
                           sweep=SweepSpec(axis="dataset_size", grid=(400, 800)))
        with pytest.raises(ValueError, match="dataset_size sweep value 400: "
                           "query target 600 outside population 400"):
            run_experiment(cfg)
        assert passes == []

    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf")])
    def test_cost_ratio_must_be_positive_and_finite(self, small_ds, ratio):
        with pytest.raises(ValueError, match="cost ratio"):
            small_config(small_ds, cost_ratio=ratio)

    def test_top_k_without_true_neighbor_notes_k_zero(self, small_ds):
        # a radius this small leaves only the target itself as a true neighbor
        report = run_experiment(
            small_config(small_ds, r=1e-9, aggs=["PCT"], algorithms=["top_k"], trials=6)
        )
        empty = [c for c in report.cells if c.selected == 0]
        assert empty, "some sample should miss the target"
        for cell in empty:
            assert cell.note == "K=0"
            assert (cell.oracle_calls, cell.proxy_calls) == (200 + 1, 1)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec(axis="radius", grid=(2.0, 2.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sweep_value_rejected(self, bad):
        with pytest.raises(ValueError, match="sweep values must be finite"):
            SweepSpec(axis="radius", grid=(2.0, bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="radius must be finite"):
            QuerySpec(q_id=0, r=bad, agg="AVG")

    def test_canonical_json_refuses_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"threshold": float("inf")})

    def test_timing_quarantined_from_json(self, small_ds):
        report = run_experiment(small_config(small_ds, algorithms=["sprint_v"], trials=1))
        plain = report.to_json_dict()
        timed = report.to_json_dict(include_timing=True)
        assert "wall_time_s" not in plain["cells"][0]
        assert "wall_time_s" in timed["cells"][0]
        rows = report.to_csv_rows()
        assert "wall_time_s" in rows[0]

    def test_degenerate_cell_fields(self, small_ds):
        # a radius this small leaves only the target as a true neighbor, and
        # a target outside the sample is in no pilot, so the search gives up
        sample = draw_sample(small_ds, 200, derive_seed(9, "cell", 0, 0))
        q = int(np.setdiff1d(small_ds.ids, sample)[0])
        report = run_experiment(small_config(small_ds, query_ids=[q], r=1e-9,
                                             algorithms=["sprint_v"], trials=1))
        assert report.to_json_dict()["cells"] == [{
            "algorithm": "sprint_v", "query_id": q, "trial": 0,
            "estimates": {"AVG": None, "PCT": None}, "re_pct": {"AVG": None, "PCT": None},
            "f1_s": None, "pr_gap": None, "t_star": None, "selected": 0,
            "degenerate": True, "note": "pilot contains no true neighbors; increase s_p or r",
            "proxy_calls": 200 + 1, "oracle_calls": 80 + 1,  # s + 1 and s_p + 1
        }]

    def test_degenerate_cells_recorded_not_fatal(self, small_ds):
        # radius so small the pilot finds no true neighbors
        cfg = small_config(small_ds, r=0.05, algorithms=["sprint_v"], trials=2)
        report = run_experiment(cfg)
        assert all(c.degenerate for c in report.cells)
        assert report.summary["sprint_v"]["degenerate_cells"] == len(report.cells)


def _reference_block(cfg, ds, gts, qi, trial):
    """The per-cell path the shared selection state replaced: each spec runs
    ``select`` on the block's sample and pilot with a fresh ledger, then
    ``evaluate_cell``; a degenerate selection keeps the calls it charged."""
    query_id = cfg.query_ids[qi]
    cell_seed = derive_seed(cfg.seed, "cell", qi, trial)
    sample = draw_sample(ds, cfg.sprint.s, cell_seed)
    pilot = draw_pilot(sample, cfg.sprint.s_p, cell_seed)
    gt = gts[query_id]
    query = QuerySpec(q_id=query_id, r=cfg.r, agg=cfg.aggs[0], metric=cfg.metric)
    cells = []
    for spec in cfg.algorithms:
        ledger = CallLedger()
        try:
            res = select(spec, query, cfg.sprint, ds, sample, pilot, ledger)
        except DegenerateNeighborhoodError as exc:
            cells.append(CellResult(spec, query_id, trial, dict.fromkeys(cfg.aggs),
                                    dict.fromkeys(cfg.aggs), ledger.oracle_calls,
                                    ledger.proxy_calls, str(exc)))
        else:
            cells.append(evaluate_cell(query_id, trial, res, ds, cfg.aggs, gt,
                                       gt.within(sample)))
    return cells


class TestSharedSelectionState:
    SPECS = ["sprint_v", "top_k", "sprint_c", "pqe_pt_fixed:0.9", "brute_force", "two_phase"]

    @pytest.fixture(scope="class")
    def outlier_ds(self, small_noisy_ds):
        # object 800 lies far from the rest, so it is its own only true
        # neighbour and most pilots hold none
        return with_points(small_noisy_ds, np.full((1, 8), 100.0), 80.0)

    def test_cells_equal_the_per_cell_reference(self, outlier_ds):
        grid = (4.0, 5.0, 6.0)
        cfg = small_config(outlier_ds, query_ids=[3, 800], aggs=["AVG", "PCT", "SUM"],
                           algorithms=self.SPECS, trials=4,
                           sweep=SweepSpec(axis="radius", grid=grid))
        want = []
        for r in grid:
            sub = replace(cfg, r=r, sweep=None)
            gts = {q: ground_truth(outlier_ds, QuerySpec(q_id=q, r=r, agg="AVG"), sub.aggs)
                   for q in sub.query_ids}
            for qi in range(len(sub.query_ids)):
                for trial in range(sub.trials):
                    for cell in _reference_block(sub, outlier_ds, gts, qi, trial):
                        want.append({**asdict(cell), "sweep_value": r})
        got = run_experiment(cfg).cells
        assert [{**asdict(c), "wall_time_s": 0.0} for c in got] == want

        no_pilot_truth = [c for c in got if c.query_id == 800 and c.algorithm in CALIBRATED
                          and c.note.startswith("pilot contains no true neighbors")]
        assert {c.algorithm for c in no_pilot_truth} == {"sprint_v", "sprint_c", "two_phase"}

    def test_one_build_per_block_timed_into_its_cells(self, small_noisy_ds, monkeypatch):
        builds = []
        build = SelectionContext.build.__func__

        def spy(cls, *args, **kwargs):
            # a build far slower than any cell's own work, so the cells'
            # sum can reach it only by carrying the build's time
            t0 = time.perf_counter()
            ctx = build(cls, *args, **kwargs)
            time.sleep(0.005)
            builds.append(time.perf_counter() - t0)
            return ctx

        monkeypatch.setattr(SelectionContext, "build", classmethod(spy))
        for specs in (self.SPECS, ["sprint_c"], ["top_k", "brute_force"]):
            builds.clear()
            cells = run_experiment(small_config(small_noisy_ds, algorithms=specs)).cells
            shared = [spec for spec in specs if parse_algorithm(spec)[0] in CALIBRATED]
            assert len(builds) == (2 * 3 if shared else 0)  # queries x trials
            blocks = [cells[i:i + len(specs)] for i in range(0, len(cells), len(specs))]
            for block, built_s in zip(blocks, builds):
                assert sum(c.wall_time_s for c in block if c.algorithm in shared) >= built_s


class TestCoverage:
    def test_tolerance_dominates_range_full_coverage(self, small_ds):
        # omega_s + omega_nn beyond the attribute span: every trial lands
        result = coverage_check(
            small_ds,
            QuerySpec(q_id=3, r=5.0, agg="AVG"),
            alpha=0.05,
            omega_s=200.0,
            omega_nn=100.0,
            trials=5,
            seed=0,
        )
        assert result.coverage == 1.0

    def test_zero_noise_pct_coverage(self, small_ds):
        result = coverage_check(
            small_ds,
            QuerySpec(q_id=3, r=5.0, agg="PCT"),
            alpha=0.05,
            omega_s=0.05,
            omega_nn=0.1,
            trials=40,
            seed=1,
        )
        assert result.coverage >= 0.95
        assert result.s >= result.s_p

    def test_tiny_sample_fails_on_spread_attribute(self, small_noisy_ds):
        # force s = 1 by hand: re-run the trial loop with an absurd tolerance
        from aqnn.harness import CoverageResult  # noqa: F401  (shape check)

        result = coverage_check(
            small_noisy_ds,
            QuerySpec(q_id=3, r=5.0, agg="AVG"),
            alpha=0.05,
            omega_s=300.0,  # yields s_min = 1 for the wide clinical span
            omega_nn=0.001,
            lambda_=10.0,
            trials=30,
            seed=2,
        )
        # a near-singleton pilot rarely holds a true neighbor, so coverage
        # collapses well below the nominal level
        assert result.s <= 2
        assert result.coverage < 0.95

    def test_sum_sized_by_the_mean(self):
        # SUM's bound takes |AVG| of the true neighbourhood; sized by |SUM|
        # instead, s_min is 30,482,379 here and every trial samples all of D
        ds = generate_synthetic(
            SyntheticGenConfig(n_objects=5000, proxy_noise_sigma=0.3, seed=1))
        query = QuerySpec(q_id=3, r=5.0, agg="SUM")
        gt = ground_truth(ds, query, ["AVG"])
        inp = BoundsInput(alpha=0.05, rho=gt.density, a=ds.attr_bounds[0], b=ds.attr_bounds[1],
                          omega_s=20000.0, omega_nn=20000.0, omega_c=0.0001,
                          population_size_D=len(ds), avg_s_abs=abs(gt.agg_values["AVG"]),
                          on_d_size=len(gt.on_d))
        result = coverage_check(ds, query, alpha=0.05, omega_s=20000.0, omega_nn=20000.0,
                                trials=2, seed=0)
        assert result.s == min(reconcile_sizes(min_sizes("SUM", inp)).s_min, len(ds)) == 3450


    @pytest.mark.parametrize("agg", ["AVG", "VAR", "PCT", "COUNT", "SUM"])
    def test_empty_true_neighbourhood_is_degenerate(self, small_ds, agg):
        # a target far from every object has no true neighbour, so every
        # aggregation fails loudly instead of sizing and running its trials
        query = QuerySpec(q_id=np.full(8, 100.0), r=1.0, agg=agg)
        with pytest.raises(DegenerateNeighborhoodError, match="ground-truth neighborhood is empty"):
            coverage_check(small_ds, query, alpha=0.05, omega_s=0.5, omega_nn=0.5, trials=3)


class TestBoundsProvenance:
    """``coverage_check`` warns exactly when the attribute bounds come from the data."""

    def _coverage(self, ds):
        return coverage_check(ds, QuerySpec(q_id=3, r=5.0, agg="AVG"), alpha=0.05,
                              omega_s=200.0, omega_nn=100.0, trials=2, seed=0)

    def test_bounds_derived_from_data_warn(self, small_ds):
        ds = Dataset(small_ds.attrs, small_ds.features, small_ds.oracle_emb, small_ds.proxy_emb)
        assert ds.bounds_source == "data"
        with pytest.warns(UserWarning, match="derived from the data"):
            self._coverage(ds)

    @pytest.mark.parametrize("source", ["generated", "file"])
    def test_declared_bounds_do_not_warn(self, small_ds, tmp_path, source):
        ds = small_ds
        if source == "file":
            path = tmp_path / "declared.jsonl"
            save_dataset(small_ds, str(path))
            ds = load_dataset(str(path))
        assert ds.bounds_source == "declared"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._coverage(ds)
        assert not [w for w in caught if "derived from the data" in str(w.message)]


class TestHtProtocol:
    def test_far_factors_agree_perfectly(self, small_ds):
        out = run_ht_protocol(
            small_ds,
            query_ids=[3],
            r=5.0,
            agg="AVG",
            sprint_cfg=SprintConfig(s=250, s_p=80, seed=0),
            factors=[0.5, 1.5],
            k_samples=5,
            seed=3,
        )
        assert out["accuracy_by_factor"][0.5] == 1.0
        assert out["accuracy_by_factor"][1.5] == 1.0

    def test_pct_protocol_runs(self, small_ds):
        out = run_ht_protocol(
            small_ds,
            query_ids=[3],
            r=5.0,
            agg="PCT",
            sprint_cfg=SprintConfig(s=250, s_p=80, seed=0),
            factors=[0.5, 1.0, 1.5],
            k_samples=5,
            seed=4,
        )
        assert out["mean_accuracy"] is not None
        assert 0.0 <= out["mean_accuracy"] <= 1.0

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_samples_checked_before_ground_truth(self, small_ds, monkeypatch, k):
        import aqnn.harness

        calls = []
        monkeypatch.setattr(aqnn.harness, "ground_truth", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=f"k_samples must be at least 1, got {k}"):
            run_ht_protocol(small_ds, query_ids=[3], r=5.0, agg="AVG",
                            sprint_cfg=SprintConfig(s=250, s_p=80, seed=0), k_samples=k)
        assert calls == []

    def test_all_degenerate_query_skipped(self, small_ds):
        # a far outlier is its own only neighbour and lies in no pilot of
        # these trials; the query beside it keeps its own result
        ds = with_points(small_ds, np.full((1, 8), 100.0), 80.0)
        kw = dict(r=5.0, agg="AVG", sprint_cfg=SprintConfig(s=250, s_p=80, seed=0),
                  factors=[0.5, 1.5], k_samples=5, seed=0)
        out = run_ht_protocol(ds, query_ids=[3, 800], **kw)
        alone = run_ht_protocol(ds, query_ids=[3], **kw)
        assert out["skipped_queries"] == 1
        assert out["cells"] == alone["cells"]
        assert out["mean_accuracy"] == alone["mean_accuracy"] == 1.0

    def test_lost_trials_noted(self, small_ds):
        # a far group of 12 is missed by the pilot in 3 of these 10 trials
        rng = np.random.default_rng(0)
        ds = with_points(small_ds, 100.0 + rng.normal(0, 0.5, size=(12, 8)),
                         rng.uniform(70, 90, 12))
        out = run_ht_protocol(ds, query_ids=[3, 800], r=5.0, agg="PCT",
                              sprint_cfg=SprintConfig(s=250, s_p=80, seed=0),
                              factors=[0.5, 1.5], k_samples=10, seed=1)
        noted = [c for c in out["cells"] if c["note"] == "3 of 10 trials degenerate"]
        assert [c["query_id"] for c in noted] == [800, 800]
        assert all(round(c["accuracy"] * 7, 9).is_integer() for c in noted)

    def test_zero_truth_query_skipped(self, small_ds, monkeypatch):
        # every attribute is 0, so the AVG truth is 0 and no factor of it
        # makes a hypothesis; the query is skipped before any selection
        import aqnn.harness

        calls = []
        monkeypatch.setattr(aqnn.harness, "select_neighbors", lambda *a: calls.append(a))
        ds = Dataset(np.zeros(len(small_ds)), small_ds.features, small_ds.oracle_emb,
                     small_ds.proxy_emb, (-1.0, 1.0))
        out = run_ht_protocol(ds, query_ids=[3], r=5.0, agg="AVG",
                              sprint_cfg=SprintConfig(s=250, s_p=80, seed=0),
                              factors=[0.5, 1.5], k_samples=5)
        assert (out["skipped_queries"], out["cells"], out["mean_accuracy"]) == (1, [], None)
        assert calls == []

    def test_invalid_truth_hypothesis_noted(self):
        # 4 of 5000 objects are true neighbours, so at factor 0.5 the truth's
        # z-test has n*c = 5000 * 0.5 * 4/5000 = 2 < 5: the cell has no
        # accuracy and its note says why
        ds = generate_synthetic(SyntheticGenConfig(n_objects=5000, proxy_noise_sigma=0.2, seed=7))
        out = run_ht_protocol(ds, query_ids=[16], r=2.5, agg="PCT",
                              sprint_cfg=SprintConfig(s=4000, s_p=3000, seed=0),
                              factors=[0.5], k_samples=5)
        note = "normal approximation invalid: n*c = 2 < 5"
        assert [(c["op"], c["accuracy"], c["note"]) for c in out["cells"]] == [
            ("ge", None, note), ("le", None, note)]
        assert (out["accuracy_by_factor"], out["mean_accuracy"]) == ({0.5: None}, None)

    def test_single_member_trial_leaves_the_rest_scored(self):
        # At r = 4.5 most trials select only the target, whose t-test is
        # undefined. Such a trial gives no decision and counts as lost; the
        # cell scores its other trials instead of reading None. (At r = 4 no
        # trial selects two members, so every cell stays undefined.)
        ds = generate_synthetic(SyntheticGenConfig(n_objects=5000, seed=7))
        out = run_ht_protocol(ds, query_ids=range(10), r=4.5, agg="AVG",
                              sprint_cfg=SprintConfig(s=500, s_p=60, seed=0),
                              k_samples=30, seed=0)
        assert Counter(c["note"] for c in out["cells"]) == {
            "estimate test undefined": 294, "26 of 30 trials degenerate": 42,
            "29 of 30 trials degenerate": 42}
        assert all((c["accuracy"] is None) == (c["note"] == "estimate test undefined")
                   for c in out["cells"])
        assert out["mean_accuracy"] == pytest.approx(0.9375)


_NOT_IDS = [3.7, True, np.float64(3.0), "3"]


@pytest.mark.parametrize("run", ["ExperimentConfig", "run_ht_protocol", "ground_truth",
                                 "select_neighbors"])
@pytest.mark.parametrize("q", _NOT_IDS, ids=repr)
def test_non_integer_query_id_raises(small_ds, monkeypatch, run, q):
    # every entry point reads ids by one rule, and never truncates them;
    # the protocol checks all of its ids before the first ground truth
    import aqnn.harness

    calls = []
    monkeypatch.setattr(aqnn.harness, "ground_truth", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match=re.escape(f"query target {q!r} ")):
        if run == "ExperimentConfig":
            small_config(small_ds, query_ids=[3, q])
        elif run == "run_ht_protocol":
            run_ht_protocol(small_ds, query_ids=[3, q], r=5.0, agg="AVG",
                            sprint_cfg=SprintConfig(s=250, s_p=80, seed=0))
        elif run == "ground_truth":
            ground_truth(small_ds, QuerySpec(q_id=q, r=5.0, agg="AVG"))
        else:
            select_neighbors(QuerySpec(q_id=q, r=5.0, agg="AVG"), SprintConfig(s=250, s_p=80),
                             small_ds, oracle_model(), proxy_model())
    assert calls == []


@pytest.mark.parametrize("run,kw,message", [
    ("ExperimentConfig", dict(query_ids=[1, 1]), "query target 1 is repeated"),
    ("ExperimentConfig", dict(query_ids=[1, np.int64(1)]), "query target 1 is repeated"),
    ("ExperimentConfig", dict(aggs=["AVG", "PCT", "AVG"]), "aggregation 'AVG' is repeated"),
    ("ExperimentConfig", dict(algorithms=["sprint_v", "sprint_v"]),
     "algorithm 'sprint_v' is repeated"),
    ("ExperimentConfig", dict(aggs=["AVG", "FOO"]), "unknown aggregation 'FOO'"),
    ("ExperimentConfig", dict(aggs=["avg"]), "unknown aggregation 'avg'"),
    ("run_ht_protocol", dict(query_ids=[3, 17, 3]), "query target 3 is repeated"),
    ("run_ht_protocol", dict(query_ids=[]), "need at least one query target"),
    ("run_ht_protocol", dict(query_ids=[3], factors=[1.0, 1.0]), "factor 1.0 is repeated"),
    ("run_ht_protocol", dict(query_ids=[3], factors=[0.5, 1, 1.0]), "factor 1 is repeated"),
    ("run_ht_protocol", dict(query_ids=[3], factors=[]), "need at least one factor"),
    ("run_ht_protocol", dict(query_ids=[3], ops=("ge", "le", "ge")), "op 'ge' is repeated"),
])
def test_ambiguous_inputs_raise_before_ground_truth(small_ds, monkeypatch, run, kw, message):
    # a report keys its cells and summaries by query, aggregation and spec,
    # so a repeat would give two answers under one key
    import aqnn.harness

    calls = []
    monkeypatch.setattr(aqnn.harness, "ground_truth", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=re.escape(message)):
        if run == "ExperimentConfig":
            run_experiment(small_config(small_ds, **kw))
        else:
            run_ht_protocol(small_ds, r=5.0, agg="AVG",
                            sprint_cfg=SprintConfig(s=250, s_p=80, seed=0), **kw)
    assert calls == []


def test_numpy_query_id_reported_as_json_integer(small_ds):
    report = run_experiment(small_config(small_ds, query_ids=[np.int64(3)],
                                         algorithms=["sprint_v"], trials=1))
    payload = json.loads(report.to_json())
    assert payload["config"]["query_ids"] == [3]
    assert list(payload["ground_truth"]) == ["3"]
    assert payload["cells"][0]["query_id"] == 3
    out = run_ht_protocol(small_ds, query_ids=[np.int64(3)], r=5.0, agg="AVG",
                          sprint_cfg=SprintConfig(s=250, s_p=80, seed=0), factors=[1.5],
                          k_samples=2)
    assert {type(c["query_id"]) for c in out["cells"]} == {int}
