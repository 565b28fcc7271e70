import numpy as np
import pytest

from aqnn import QuerySpec, SprintConfig, SyntheticGenConfig, generate_synthetic
from aqnn.dataset import Dataset
from aqnn.harness import (
    ExperimentConfig,
    SweepSpec,
    coverage_check,
    ground_truth,
    parse_algorithm,
    run_experiment,
    run_ht_protocol,
)
from aqnn.models import oracle_model, proxy_model


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
            tiny_ds, QuerySpec(q_id=0, r=1e9, agg="AVG"), oracle_model(), ["AVG", "SUM"]
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
            ds, QuerySpec(q_id=np.zeros(2), r=1.0, agg="COUNT"), oracle_model(), ["COUNT"]
        )
        assert len(gt.on_d) == 6
        assert gt.agg_values["COUNT"] == 6.0

    def test_oracle_ledger_equals_population(self, tiny_ds):
        gt = ground_truth(tiny_ds, QuerySpec(q_id=0, r=2.0, agg="PCT"), oracle_model())
        assert gt.oracle_calls == len(tiny_ds)  # query object memoized within D

    def test_empty_neighborhood_marks_value_aggs_degenerate(self, tiny_ds):
        q = np.array([500.0, 500.0])
        gt = ground_truth(
            tiny_ds, QuerySpec(q_id=q, r=1.0, agg="AVG"), oracle_model(), ["AVG", "PCT"]
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

    def test_parallel_matches_serial(self, small_noisy_ds):
        cfg_kw = dict(algorithms=["sprint_v", "pqe_pt_fixed:0.9"], trials=2)
        serial = run_experiment(small_config(small_noisy_ds, **cfg_kw), parallel=0)
        parallel = run_experiment(small_config(small_noisy_ds, **cfg_kw), parallel=2)
        assert serial.to_json() == parallel.to_json()

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
        with pytest.raises(Exception, match="needs a target"):
            parse_algorithm("pqe_pt_fixed")
        with pytest.raises(Exception, match="unknown algorithm"):
            parse_algorithm("annoy")

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
        monkeypatch.setattr(aqnn.harness, "_run_single", lambda *a, **k: passes.append(a))
        gen = SyntheticGenConfig(n_objects=800, embedding_dim=8, n_clusters=4, seed=31)
        cfg = small_config(
            None if axis == "dataset_size" else small_ds,
            gen_config=gen,
            sweep=SweepSpec(axis=axis, grid=grid),
        )
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        assert passes == []

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

    def test_timing_quarantined_from_json(self, small_ds):
        report = run_experiment(small_config(small_ds, algorithms=["sprint_v"], trials=1))
        plain = report.to_json_dict()
        timed = report.to_json_dict(include_timing=True)
        assert "wall_time_s" not in plain["cells"][0]
        assert "wall_time_s" in timed["cells"][0]
        rows = report.to_csv_rows()
        assert "wall_time_s" in rows[0]

    def test_degenerate_cells_recorded_not_fatal(self, small_ds):
        # radius so small the pilot finds no true neighbors
        cfg = small_config(small_ds, r=0.05, algorithms=["sprint_v"], trials=2)
        report = run_experiment(cfg)
        assert all(c.degenerate for c in report.cells)
        assert report.summary["sprint_v"]["degenerate_cells"] == len(report.cells)


class TestCoverage:
    def test_tolerance_dominates_range_full_coverage(self, small_ds):
        # omega_s + omega_nn beyond the attribute span: every trial lands
        result = coverage_check(
            small_ds,
            QuerySpec(q_id=3, r=5.0, agg="AVG"),
            oracle_model(),
            proxy_model(),
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
            oracle_model(),
            proxy_model(),
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
            oracle_model(),
            proxy_model(),
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
