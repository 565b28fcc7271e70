import json

import numpy as np
import pytest

from aqnn import Dataset, SyntheticGenConfig, generate_synthetic, save_dataset
from aqnn.cli import main


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

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "query", "--frobnicate", "1")
        assert code == 1

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

    def test_bad_sweep_value_fails_before_any_pass(self, tmp_path, capsys, monkeypatch):
        import aqnn.harness

        path = tmp_path / "pop.jsonl"
        save_dataset(generate_synthetic(SyntheticGenConfig(n_objects=300, seed=5)), str(path))
        passes = []
        monkeypatch.setattr(aqnn.harness, "_run_single", lambda *a, **k: passes.append(a))
        code, _, err = run_cli(
            capsys, "bench", "--data", str(path), "--sweep", "sample_size",
            "--grid", "100,200,400", "--s", "100", "--sp", "50",
        )
        assert code == 1
        assert "sample_size sweep value 400: sample size 400 exceeds population 300" in err
        assert passes == []

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

    def test_bad_op_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "ht", "--n", "200", "--ops", "xx", "--s", "50", "--sp", "20"
        )
        assert code == 1
