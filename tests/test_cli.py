import inspect
import io
import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from aqnn import (
    BoundsInput,
    Dataset,
    SprintConfig,
    SyntheticGenConfig,
    generate_synthetic,
    save_dataset,
    speedup,
)
from aqnn.bounds import min_sizes, reconcile_sizes
from aqnn.cli import main
from aqnn.harness import ExperimentConfig, default_ht_factors, run_ht_protocol


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_pct_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--agg", "PCT", "--alpha", "0.05", "--omega-s", "0.05"
        )
        assert code == 0
        assert "s_min = 738" in out

    def test_avg_worked_example_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--agg", "AVG", "--alpha", "0.05", "--rho", "0.8",
            "--a", "50", "--b", "120", "--omega-s", "5", "--json",
        )
        assert code == 0
        assert json.loads(out)["s_min"] == 452

    def test_invalid_tolerance_combo_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--agg", "PCT", "--rho", "1.0",
            "--omega-nn", "0.01", "--omega-c", "0.5",
        )
        assert code == 1
        assert "omega_nn" in err


class TestGenCommand:
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(capsys, "--seed", "1", "gen", "--n", "60", "--dim", "4",
                       "--out", str(a))[0] == 0
        assert run_cli(capsys, "--seed", "1", "gen", "--n", "60", "--dim", "4",
                       "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, "--seed", "1", "gen", "--n", "60", "--dim", "4", "--out", str(a))
        run_cli(capsys, "--seed", "2", "gen", "--n", "60", "--dim", "4", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AQNN_SEED", "1.5")
        code, _, err = run_cli(capsys, "gen", "--n", "30", "--out", str(tmp_path / "a.jsonl"))
        assert code == 1
        assert "AQNN_SEED must be an integer, got '1.5'" in err
        assert not any(tmp_path.iterdir())

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("AQNN_SEED", "7")
        run_cli(capsys, "gen", "--n", "30", "--dim", "3", "--out", str(a))
        monkeypatch.delenv("AQNN_SEED")
        run_cli(capsys, "--seed", "7", "gen", "--n", "30", "--dim", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestQueryCommand:
    def test_zero_noise_truth_metrics(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seed", "3", "query", "--n", "1500", "--q-id", "4",
            "--s", "500", "--sp", "150", "--radius", "6", "--agg", "AVG",
            "--truth", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["f1_s"] == 1.0
        assert payload["pr_gap"] == 0.0
        assert payload["re_pct"] < 15.0

    def test_missing_data_file_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "query", "--data", "/nonexistent/x.jsonl")
        assert code == 2

    def test_degenerate_radius_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "--seed", "3", "query", "--n", "500", "--q-id", "2",
            "--s", "200", "--sp", "50", "--radius", "1e-9", "--agg", "AVG",
        )
        assert code == 3
        assert "pilot contains no true neighbors" in err

    def test_directory_as_data_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "query", "--data", str(tmp_path), "--q-id", "0")
        assert code == 2
        assert "Is a directory" in err

    @pytest.mark.parametrize("value,message", [
        (b"1" * 400, "line 2: attr holds a number too large for a float"),
        (b"1" * 5000, "line 2: number too large to read"),
        (b'"\xff"', "line 2: not UTF-8 text"),
    ])
    def test_malformed_number_or_bytes_is_data_error(self, tmp_path, capsys, value, message):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"feature_dim": 2, "embedding_dim": 2}\n'
                         b'{"attr": ' + value + b', "features": [1, 0], "oracle_emb": [1, 0], '
                         b'"proxy_emb": [1, 0]}\n')
        code, _, err = run_cli(capsys, "query", "--data", str(path), "--q-id", "0")
        assert code == 2
        assert err == f"error: {message}\n"

    def test_non_finite_data_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"feature_dim": 2, "embedding_dim": 2}\n'
            '{"attr": 1.0, "features": [1, 0], "oracle_emb": [1, 0], "proxy_emb": [NaN, 0]}\n'
            '{"attr": 2.0, "features": [0, 1], "oracle_emb": [0, 1], "proxy_emb": [Infinity, 0]}\n'
        )
        code, _, err = run_cli(
            capsys, "query", "--data", str(path), "--q-id", "0", "--s", "2", "--sp", "1"
        )
        assert code == 2
        assert "not finite" in err

    def test_embeddings_whose_distances_overflow_are_data_error(self, capsys):
        # every proxy value is finite, but its squared distances are not
        code, out, err = run_cli(capsys, "--seed", "1", "query", "--n", "500", "--s", "100",
                                 "--sp", "50", "--proxy-noise", "1e300", "--json")
        assert (code, out) == (2, "")
        assert err == "error: proxy_emb row 0 is too large: its squared distances would overflow\n"

    def test_cosine_zero_row_is_data_error(self, tmp_path, capsys):
        ds = generate_synthetic(SyntheticGenConfig(n_objects=300, seed=5))
        emb = ds.oracle_emb.copy()
        emb[5] = 0.0
        path = tmp_path / "zero.jsonl"
        save_dataset(
            Dataset(ds.attrs, emb, emb, emb, attr_bounds=ds.attr_bounds), str(path)
        )
        code, _, err = run_cli(
            capsys, "query", "--data", str(path), "--metric", "cosine", "--radius", "0.3",
            "--s", "300", "--sp", "100",
        )
        assert code == 2
        assert "zero vectors" in err

    def test_boolean_in_data_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bool.jsonl"
        path.write_text(
            '{"feature_dim": 2, "embedding_dim": 2}\n'
            '{"attr": true, "features": [1, 0], "oracle_emb": [1, 0], "proxy_emb": [1, 0]}\n'
        )
        code, _, err = run_cli(
            capsys, "query", "--data", str(path), "--q-id", "0", "--s", "1", "--sp", "1"
        )
        assert code == 2
        assert "line 2: attr must be a number" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "query", "--frobnicate", "1")
        assert code == 1

    def test_cost_ratio_is_not_a_query_flag(self, capsys):
        code, _, err = run_cli(capsys, "query", "--n", "200", "--cost-ratio", "5")
        assert code == 1
        assert "--cost-ratio" in err

    def test_truth_of_a_degenerate_query_is_never_computed(self, capsys, monkeypatch):
        # only a pilot true neighbor lets the search finish, and it lies in ON_D,
        # so a query whose ON_D could be empty exits 3 before its truth is computed
        import aqnn.cli

        calls = []
        monkeypatch.setattr(aqnn.cli, "ground_truth", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(
            capsys, "--seed", "3", "query", "--n", "500", "--q-id", "2",
            "--s", "200", "--sp", "50", "--radius", "1e-9", "--truth",
        )
        assert code == 3
        assert "pilot contains no true neighbors" in err
        assert out == "" and calls == []

    @pytest.mark.parametrize("q_id", ["5000", "-3"])
    def test_target_outside_population_is_usage_error(self, capsys, q_id):
        code, _, err = run_cli(
            capsys, "query", "--n", "1000", f"--q-id={q_id}", "--s", "200", "--sp", "50"
        )
        assert code == 1
        assert f"query target {q_id} outside population 1000" in err

    def test_oversized_sample_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "--seed", "0", "query", "--n", "100", "--s", "500", "--sp", "50"
        )
        assert code == 1
        assert "exceeds population" in err


class TestBenchCommand:
    def test_deterministic_json_report(self, capsys):
        argv = [
            "--seed", "11", "bench", "--n", "600", "--dim", "8", "--clusters", "4",
            "--queries", "random:2", "--radius", "5", "--agg", "AVG,PCT",
            "--algorithms", "sprint_v,brute_force", "--trials", "2",
            "--s", "200", "--sp", "60", "--json",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["summary"]["brute_force"]["re_pct"]["AVG"]["mean"] == 0.0
        assert payload["summary"]["sprint_v"]["speedup"] > 1.0

    def test_report_and_csv_files(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rows = tmp_path / "cells.csv"
        code, out, _ = run_cli(
            capsys, "--seed", "11", "bench", "--n", "400", "--dim", "8",
            "--clusters", "4", "--queries", "0,5", "--radius", "5",
            "--agg", "AVG", "--algorithms", "sprint_v", "--trials", "1",
            "--s", "150", "--sp", "50", "--out", str(report), "--csv", str(rows),
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload["cells"]) == 2
        header = rows.read_text().splitlines()[0]
        assert "re_avg" in header and "wall_time_s" in header

    def test_csv_header_of_two_aggregation_run(self, tmp_path, capsys):
        rows = tmp_path / "cells.csv"
        code, _, err = run_cli(
            capsys, "--seed", "11", "bench", "--n", "400", "--dim", "8", "--clusters", "4",
            "--queries", "0,5", "--radius", "5", "--agg", "AVG,PCT",
            "--algorithms", "sprint_v,top_k", "--trials", "1", "--s", "150", "--sp", "50",
            "--csv", str(rows),
        )
        assert code == 0, err
        lines = rows.read_text().splitlines()
        assert lines[0] == (
            "algorithm,degenerate,estimate_avg,estimate_pct,f1_s,oracle_calls,pr_gap,"
            "proxy_calls,query_id,re_avg,re_pct,selected,t_star,trial,wall_time_s"
        )
        assert len(lines) == 1 + 2 * 2

    SWEEP_ARGV = [
        "--seed", "7", "bench", "--n", "2000", "--proxy-noise", "0.4", "--agg", "PCT",
        "--algorithms", "sprint_c", "--s", "300", "--sp", "100", "--trials", "2",
        "--sweep", "radius", "--grid", "5,6", "--json",
    ]

    def test_sweep_json_byte_identical_without_timings(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.SWEEP_ARGV)
        code2, out2, _ = run_cli(capsys, *self.SWEEP_ARGV)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "mean_wall_time_s" not in out1
        code3, out3, _ = run_cli(capsys, *self.SWEEP_ARGV, "--timings")
        assert code3 == 0
        assert all("mean_wall_time_s" in e for e in json.loads(out3)["sweep"])

    def test_timed_sweep_report_keys(self, capsys):
        code, out, err = run_cli(capsys, *self.SWEEP_ARGV, "--timings")
        assert code == 0, err
        payload = json.loads(out)
        assert set(payload) == {"seed", "config", "ground_truth", "cells", "summary", "sweep"}
        cell_keys = {
            "algorithm", "query_id", "trial", "estimates", "re_pct", "f1_s", "pr_gap",
            "t_star", "oracle_calls", "proxy_calls", "selected", "degenerate", "note",
            "sweep_value", "wall_time_s",
        }
        assert all(set(cell) == cell_keys for cell in payload["cells"])
        assert all(set(entry) == {"value", "summary", "density", "mean_wall_time_s"}
                   for entry in payload["sweep"])

    def test_sweep_csv_rows_carry_sweep_value(self, tmp_path, capsys):
        import csv

        path = tmp_path / "c.csv"
        argv = [a for a in self.SWEEP_ARGV if a != "--json"]
        argv[argv.index("--trials") + 1] = "1"
        code, _, err = run_cli(capsys, *argv, "--queries", "5", "--csv", str(path))
        assert code == 0, err
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["sweep_value"]) for r in rows] == [5.0, 6.0]

    @pytest.mark.parametrize("extra", [
        ["--queries", "5000"],
        ["--queries=-3", "--sweep", "sample_size", "--grid", "200,300"],
    ])
    def test_target_outside_population_is_usage_error(self, capsys, extra):
        code, _, err = run_cli(
            capsys, "bench", "--n", "1000", "--s", "100", "--sp", "50", "--trials", "1",
            "--algorithms", "sprint_v", *extra,
        )
        assert code == 1
        assert "outside population 1000" in err

    @pytest.mark.parametrize("sweep,grid,value", [
        ("dataset_size", "0,1000", "0"),
        ("radius", "-1,2", "-1"),
    ])
    def test_sweep_grid_values_must_be_positive(self, capsys, sweep, grid, value):
        code, _, err = run_cli(
            capsys, "bench", "--n", "1000", "--s", "100", "--sp", "50", "--trials", "1",
            "--queries", "random:2", "--sweep", sweep, f"--grid={grid}",
        )
        assert code == 1
        assert f"{sweep} sweep values must be positive, got {value}" in err

    def test_bad_sweep_value_fails_before_any_pass(self, tmp_path, capsys, monkeypatch):
        import aqnn.harness

        path = tmp_path / "pop.jsonl"
        save_dataset(generate_synthetic(SyntheticGenConfig(n_objects=300, seed=5)), str(path))
        passes = []
        monkeypatch.setattr(aqnn.harness, "_prepare_pass", lambda *a, **k: passes.append(a))
        code, _, err = run_cli(
            capsys, "bench", "--data", str(path), "--sweep", "sample_size",
            "--grid", "100,200,400", "--s", "100", "--sp", "50",
        )
        assert code == 1
        assert "sample_size sweep value 400: sample size 400 exceeds population 300" in err
        assert passes == []

    @pytest.mark.parametrize("sweep,grid,value", [
        ("sample_size", "300.7,500.2", "300.7"),
        ("pilot_size", "40,60.5", "60.5"),
        ("dataset_size", "500.5,1000", "500.5"),
    ])
    def test_fractional_size_sweep_value_is_usage_error(self, capsys, sweep, grid, value):
        code, out, err = run_cli(
            capsys, "bench", "--n", "1000", "--s", "200", "--sp", "30", "--trials", "1",
            "--queries", "3", "--sweep", sweep, "--grid", grid,
        )
        assert code == 1
        assert f"{sweep} sweep values must be integers, got {value}" in err
        assert out == ""

    def test_non_numeric_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--n", "300", "--s", "100", "--sp", "40", "--queries", "1",
            "--sweep", "radius", "--grid", "5,x",
        )
        assert code == 1
        assert "bad sweep grid '5,x'" in err

    COST_ARGV = [
        "--seed", "1", "bench", "--n", "2000", "--proxy-noise", "0.4", "--queries", "3",
        "--trials", "2", "--algorithms", "sprint_v,brute_force", "--s", "300", "--sp", "100",
    ]

    def test_cost_ratio_prices_speedup(self, capsys):
        code, out, _ = run_cli(capsys, *self.COST_ARGV, "--cost-ratio", "5")
        assert code == 0
        payload = json.loads(out)
        entry = payload["summary"]["sprint_v"]
        assert payload["config"]["cost_ratio"] == 5.0
        assert entry["speedup"] == speedup(
            2000, entry["oracle_calls_mean"], entry["proxy_calls_mean"], 5.0
        )
        assert entry["speedup"] == pytest.approx(12.41, abs=0.01)

    def test_nonpositive_cost_ratio_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, *self.COST_ARGV, "--cost-ratio", "0")
        assert code == 1
        assert "cost ratio must be positive" in err

    def test_dataset_size_sweep_draws_random_targets_from_smallest_population(self, capsys):
        code, out, err = run_cli(
            capsys, "--seed", "1", "bench", "--sweep", "dataset_size", "--grid", "1000,2000",
            "--queries", "random:3", "--s", "300", "--sp", "100", "--trials", "1",
            "--algorithms", "sprint_v",
        )
        assert code == 0, err
        query_ids = json.loads(out)["config"]["query_ids"]
        assert len(query_ids) == 3 and all(0 <= q < 1000 for q in query_ids)

    def test_algorithms_help_lists_every_algorithm(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for name in ("sprint_v", "sprint_c", "two_phase", "pqe_pt_fixed:<t>", "top_k",
                     "brute_force"):
            assert name in out

    def test_sweep_needs_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--n", "200", "--sweep", "radius", "--s", "50", "--sp", "20"
        )
        assert code == 1
        assert "--grid" in err

    def test_data_with_dataset_size_sweep_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import aqnn.cli

        path = tmp_path / "small.jsonl"
        save_dataset(generate_synthetic(SyntheticGenConfig(n_objects=300, seed=5)), str(path))
        loads = []
        monkeypatch.setattr(aqnn.cli, "_load_or_generate", lambda *a: loads.append(a))
        code, _, err = run_cli(
            capsys, "bench", "--data", str(path), "--sweep", "dataset_size",
            "--grid", "100,200", "--s", "50", "--sp", "20", "--trials", "1", "--queries", "3",
        )
        assert code == 1
        assert "--data cannot be combined with --sweep dataset_size" in err
        assert loads == []


class TestHtCommand:
    def test_json_output_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seed", "5", "ht", "--n", "600", "--dim", "8", "--clusters", "4",
            "--queries", "random:1", "--radius", "5", "--agg", "AVG",
            "--factors", "0.5", "1.5", "0.5", "--k", "3", "--s", "200", "--sp", "60",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == [0.5, 1.0, 1.5]
        assert payload["accuracy_by_factor"]["0.5"] == 1.0

    def test_target_outside_population_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "ht", "--n", "300", "--queries", "300", "--s", "100", "--sp", "50",
            "--k", "2",
        )
        assert code == 1
        assert "query target 300 outside population 300" in err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_nonpositive_k_is_usage_error(self, tmp_path, capsys, k):
        path = tmp_path / "small.jsonl"
        save_dataset(generate_synthetic(SyntheticGenConfig(n_objects=300, seed=5)), str(path))
        code, _, err = run_cli(
            capsys, "ht", "--data", str(path), "--queries", "3", "--s", "50", "--sp", "20",
            "--k", k,
        )
        assert code == 1
        assert f"--k must be at least 1, got {k}" in err

    def test_bad_op_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "ht", "--n", "200", "--ops", "xx", "--s", "50", "--sp", "20"
        )
        assert code == 1


class TestFeaturesOnlyFile:
    """A file without both embedding columns stops at load, on every command."""

    FILES = {
        "header_dim_0": (
            '{"feature_dim": 2, "embedding_dim": 0}\n'
            '{"attr": 1.0, "features": [1, 0]}\n',
            "line 1: embedding_dim must be an integer >= 1, got 0",
        ),
        "record_without_embeddings": (
            '{"feature_dim": 2, "embedding_dim": 2}\n'
            '{"attr": 1.0, "features": [1, 0], "oracle_emb": [1, 0], "proxy_emb": [1, 0]}\n'
            '{"attr": 2.0, "features": [0, 1]}\n',
            "line 3: record needs attr, features, oracle_emb, proxy_emb",
        ),
    }
    COMMANDS = {
        "query": ["query", "--q-id", "0", "--s", "1", "--sp", "1"],
        "bench": ["bench", "--queries", "0", "--s", "1", "--sp", "1", "--trials", "1"],
        "ht": ["ht", "--queries", "0", "--s", "1", "--sp", "1", "--k", "1"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_exits_2_naming_the_line(self, tmp_path, capsys, command, name):
        text, message = self.FILES[name]
        path = tmp_path / "features_only.jsonl"
        path.write_text(text)
        code, _, err = run_cli(capsys, *self.COMMANDS[command], "--data", str(path))
        assert code == 2
        assert message in err


class TestUnsetFlagsTakeLibraryDefaults:
    """A flag left unset keeps the default of the type or function it fills."""

    def test_bounds_defaults_match_bounds_input(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--agg", "AVG", "--json")
        assert code == 0
        want = min_sizes("AVG", BoundsInput())
        payload = json.loads(out)
        assert (payload["s_min"], payload["s_p_min"]) == (want.s_min, want.s_p_min)
        assert payload["omega_nn_implied"] == want.omega_nn_implied
        assert payload["details"] == want.details

    def test_bench_config_reports_sprint_and_experiment_defaults(self, capsys):
        # only flags whose defaults live in the CLI are set
        code, out, err = run_cli(
            capsys, "bench", "--n", "400", "--s", "100", "--sp", "40", "--queries", "1",
            "--algorithms", "sprint_v", "--json",
        )
        assert code == 0, err
        config = json.loads(out)["config"]
        sprint = {f.name: f.default for f in fields(SprintConfig) if f.name not in
                  ("s", "s_p", "seed")}
        experiment = {f.name: f.default for f in fields(ExperimentConfig)
                      if f.name in ("trials", "metric", "cost_ratio")}
        assert {k: config[k] for k in sprint} == sprint
        assert {k: config[k] for k in experiment} == experiment
        assert (config["s"], config["s_p"], config["r"]) == (100, 40, 6.0)

    def test_ht_defaults_match_run_ht_protocol(self, capsys):
        code, out, err = run_cli(
            capsys, "ht", "--n", "400", "--s", "100", "--sp", "40", "--queries", "1", "--json",
        )
        assert code == 0, err
        payload = json.loads(out)
        params = inspect.signature(run_ht_protocol).parameters
        assert payload["factors"] == default_ht_factors()
        assert payload["ops"] == list(params["ops"].default)
        assert payload["k_samples"] == params["k_samples"].default


class TestBadInputFailsLoudly:
    BENCH = ["bench", "--n", "300", "--s", "100", "--sp", "40", "--queries", "1", "--trials", "1"]
    HT = ["ht", "--n", "300", "--s", "100", "--sp", "40", "--queries", "1", "--k", "1"]

    @pytest.mark.parametrize("algorithms", ["", ","])
    def test_empty_algorithm_list(self, capsys, algorithms):
        code, _, err = run_cli(capsys, *self.BENCH, "--algorithms", algorithms)
        assert code == 1
        assert "need at least one algorithm" in err

    def test_parallel_flag_is_gone(self, capsys):
        # bench runs its grid serially; the forked worker pool was removed
        code, out, err = run_cli(capsys, *self.BENCH, "--algorithms", "sprint_v",
                                 "--parallel", "2")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --parallel 2" in err

    def test_unknown_aggregation_fails_before_any_population(self, capsys, monkeypatch):
        # a dataset_size sweep generates its populations in its passes, so a
        # bad --agg must fail before the first pass is prepared
        import aqnn.harness

        passes = []
        monkeypatch.setattr(aqnn.harness, "_prepare_pass", lambda *a, **k: passes.append(a))
        code, _, err = run_cli(capsys, *self.BENCH, "--agg", "AVG,FOO",
                               "--sweep", "dataset_size", "--grid", "300,400")
        assert code == 1
        assert "unknown aggregation 'FOO'" in err
        assert passes == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--queries", "1,1", "query target 1 is repeated"),
        ("--agg", "avg,AVG", "aggregation 'AVG' is repeated"),
        ("--algorithms", "sprint_v,top_k,sprint_v", "algorithm 'sprint_v' is repeated"),
    ])
    def test_repeated_bench_input(self, capsys, flag, value, message):
        code, _, err = run_cli(capsys, *self.BENCH, flag, value)
        assert code == 1
        assert message in err

    def test_empty_op_list(self, capsys):
        code, _, err = run_cli(capsys, *self.HT, "--ops", ",")
        assert code == 1
        assert "need at least one op" in err

    def test_non_integer_random_query_count(self, capsys):
        code, _, err = run_cli(capsys, *self.BENCH, "--queries", "random:x")
        assert code == 1
        assert "--queries 'random:x'" in err and "random:<k>" in err

    @pytest.mark.parametrize("spec,message", [
        ("random:0", "random:<k> needs k >= 1"),
        ("random:301", "random:301 draws more ids than the population of 300"),
        ("1,x", "expected comma-separated integer ids"),
        (",", "empty query list"),
    ])
    def test_bad_query_spec(self, capsys, spec, message):
        code, _, err = run_cli(capsys, *self.BENCH, "--queries", spec)
        assert code == 1
        assert f"--queries {spec!r}: {message}" in err

    def test_descending_factor_grid(self, capsys):
        code, _, err = run_cli(capsys, *self.HT, "--factors", "1", "0.5", "0.1")
        assert code == 1
        assert "--factors needs LO HI STEP with STEP > 0 and HI >= LO" in err

    @pytest.mark.parametrize("argv", [
        ["query", "--data", "{}", "--q-id", "0"],
        ["gen", "--n", "20", "--out", "{}"],
        [*BENCH, "--out", "{}"],
        [*BENCH, "--csv", "{}"],
    ], ids=["query --data", "gen --out", "bench --out", "bench --csv"])
    def test_unusable_path_is_data_error(self, tmp_path, capsys, argv):
        # a path under a regular file can be neither read nor written
        (tmp_path / "file").write_text("")
        path = str(tmp_path / "file" / "x")
        code, _, err = run_cli(capsys, *(path if a == "{}" else a for a in argv))
        assert code == 2
        assert err.startswith("error: ") and f"Not a directory: {path!r}" in err

    def test_broken_pipe_exits_0(self, monkeypatch):
        # BrokenPipeError is an OSError, which exits 2; a reader that closed
        # the pipe early is no error, so main catches it first
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["bounds", "--agg", "PCT"]) == 0

    GEN = ["gen", "--n", "50", "--out", "pop.jsonl"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv,flag,param", [
        (["bounds", "--agg", "AVG"], "--alpha", "alpha"),
        (["bounds", "--agg", "AVG"], "--rho", "rho"),
        (["bounds", "--agg", "AVG"], "--a", "a"),
        (["bounds", "--agg", "AVG"], "--b", "b"),
        (["bounds", "--agg", "AVG"], "--omega-s", "omega_s"),
        (["bounds", "--agg", "AVG"], "--omega-nn", "omega_nn"),
        (["bounds", "--agg", "PCT"], "--omega-c", "omega_c"),
        (["bounds", "--agg", "AVG"], "--lambda", "lambda_"),
        (["bounds", "--agg", "SUM", "--on-d", "10"], "--avg-s", "avg_s_abs"),
        (GEN, "--proxy-noise", "proxy_noise_sigma"),
        (GEN, "--attr-mean", "attr_global_mean"),
        (GEN, "--attr-sd", "attr_global_sd"),
        (GEN, "--attr-shift", "attr_neighborhood_shift"),
    ])
    def test_non_finite_flag_value(self, tmp_path, capsys, monkeypatch, argv, flag, param,
                                   value):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}", "--json")
        assert code == 1
        assert f"{param} must be finite, got {value}" in err
        assert out == "" and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv,flag_values,message", [
        (GEN, ["--bounds", "0", "{}"], "attr_bounds must be finite"),
        (HT, ["--factors", "0.5", "{}", "0.5"], "--factors values must be finite"),
    ])
    def test_non_finite_multi_value_flag(self, tmp_path, capsys, monkeypatch, argv,
                                         flag_values, message, value):
        monkeypatch.chdir(tmp_path)
        if value == "-inf":  # argparse reads "-inf" as another flag, not as a value
            message = f"argument {flag_values[0]}: expected"
        code, out, err = run_cli(capsys, *argv, *(v.format(value) for v in flag_values),
                                 "--json")
        assert code == 1
        assert message in err
        assert out == "" and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_radius(self, capsys, radius):
        code, out, err = run_cli(capsys, "query", "--n", "300", "--s", "100", "--sp", "40",
                                 "--radius", radius, "--json")
        assert code == 1
        assert f"radius must be finite, got {radius}" in err
        assert out == "" and "Traceback" not in err

    def test_non_finite_sweep_value(self, capsys):
        code, out, err = run_cli(capsys, *self.BENCH, "--algorithms", "sprint_v",
                                 "--sweep", "radius", "--grid", "5,nan")
        assert code == 1
        assert "radius sweep values must be finite, got nan" in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("argv,given", [
        (["--agg", "VAR", "--b", "1e100"], "b=1e+100"),  # span**4 overflows
        (["--agg", "AVG", "--omega-s", "1e-200"], "omega_s=1e-200"),  # omega_s**2 underflows to 0
    ])
    def test_extreme_finite_bounds_input(self, capsys, argv, given):
        code, out, err = run_cli(capsys, "bounds", *argv, "--json")
        assert code == 1
        assert "sizes leave the floating-point range" in err and given in err
        assert out == "" and "Traceback" not in err


class TestHtFactors:
    HT = ["--seed", "2", "ht", "--n", "300", "--s", "100", "--sp", "40", "--queries", "1",
          "--k", "1", "--json"]

    @pytest.mark.parametrize("factors,want", [
        (("0.5", "1.4", "0.25"), [0.5, 0.75, 1.0, 1.25]),  # no factor exceeds HI
        (("0.1", "0.7", "0.2"), [0.1, 0.3, 0.5, 0.7]),  # (HI - LO) / STEP is 2.9999999999999996
    ])
    def test_grid_ends_at_last_step_not_above_hi(self, capsys, factors, want):
        code, out, err = run_cli(capsys, *self.HT, "--factors", *factors)
        assert code == 0, err
        assert json.loads(out)["factors"] == want

    def test_step_grid_to_hi_is_the_default_grid(self, capsys):
        code, out, err = run_cli(capsys, *self.HT, "--factors", "0.5", "1.5", "0.05")
        assert code == 0, err
        assert json.loads(out)["factors"] == default_ht_factors()

    @pytest.mark.parametrize("flags,message", [
        # each factor is rounded to 10 digits, so a step below that repeats 1.0
        (["--factors", "1", "1.00000000003", "1e-11"], "factor 1.0 is repeated"),
        (["--ops", "ge,ge"], "op 'ge' is repeated"),
    ])
    def test_repeated_factor_or_op(self, capsys, flags, message):
        code, out, err = run_cli(capsys, *self.HT, *flags)
        assert code == 1
        assert message in err
        assert out == "" and "Traceback" not in err


class TestTextOutputs:
    """The plain-text and summary outputs no other test reads."""

    def test_gen_json_payload(self, tmp_path, capsys):
        path = tmp_path / "pop.jsonl"
        code, out, _ = run_cli(
            capsys, "--seed", "3", "gen", "--n", "60", "--dim", "4", "--bounds", "0", "200",
            "--out", str(path), "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "out": str(path), "n": 60, "feature_dim": 4, "embedding_dim": 4,
            "attr_bounds": [0.0, 200.0], "seed": 3,
        }

    def test_query_text_lists_the_json_payload(self, capsys):
        argv = ["--seed", "3", "query", "--n", "600", "--s", "200", "--sp", "60", "--q-id", "4"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, json_out, _ = run_cli(capsys, *argv, "--json")
        payload = json.loads(json_out)
        assert out.splitlines() == [
            f"{key}: {payload[key]}" for key in (
                "query_id", "agg", "radius", "metric", "estimate", "selected", "t_star",
                "threshold", "method", "oracle_calls", "proxy_calls", "seed",
            )
        ]

    def test_ht_text_lists_accuracy_by_factor(self, capsys):
        argv = ["--seed", "2", "ht", "--n", "300", "--s", "100", "--sp", "40", "--queries", "1",
                "--k", "2", "--factors", "0.5", "1.5", "0.5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, json_out, _ = run_cli(capsys, *argv, "--json")
        payload = json.loads(json_out)
        by_factor = payload["accuracy_by_factor"]
        assert out.splitlines() == [
            f"mean accuracy: {payload['mean_accuracy']}",
            f"  factor 0.5: {by_factor['0.5']}",
            f"  factor 1: {by_factor['1.0']}",
            f"  factor 1.5: {by_factor['1.5']}",
        ]

    @pytest.mark.parametrize("agg,flags,inp", [
        ("PCT", ["--omega-s", "0.2"], BoundsInput(omega_s=0.2)),
        ("AVG", ["--lambda", "0.05"], BoundsInput(lambda_=0.05)),
        ("AVG", [], BoundsInput()),
    ])
    def test_bounds_reconcile(self, capsys, agg, flags, inp):
        argv = ["bounds", "--agg", agg, *flags, "--reconcile"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(run_cli(capsys, *argv, "--json")[1])
        want = reconcile_sizes(min_sizes(agg, inp))
        assert want.reconciled == bool(flags)  # the first two cases reconcile, the last does not
        assert (payload["s_min"], payload["s_p_min"], payload["reconciled"]) == (
            want.s_min, want.s_p_min, want.reconciled
        )
        lines = [f"s_min = {want.s_min}", f"s_p_min = {want.s_p_min}"]
        if want.omega_nn_implied is not None:
            lines.append(f"omega_nn_implied = {want.omega_nn_implied:.6g}")
        if want.reconciled:
            lines.append("reconciled: s raised to the pilot bound")
        assert out.splitlines() == lines
