"""Each benchmark checker accepts the program's real answer and rejects a planted wrong one.

Run from the repository root: ``python3 -m pytest bench/test_checks.py -q``.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import aqnn  # noqa: E402
from aqnn import harness  # noqa: E402
from aqnn.aggregate import SCOPE_SAMPLE  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

N, S, SP = 3000, 600, 200


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    pop = inputs.population(N, 5)
    path = str(tmp_path_factory.mktemp("pop") / "pop.jsonl")
    inputs.write_jsonl(pop, path)
    return pop, aqnn.load_dataset(path), inputs.pick_targets(pop["oracle"], 2, 5)


@pytest.fixture(scope="module", params=["AVG", "SUM"])
def query_op(request, population):
    pop, ds, targets = population
    q, agg = targets[0], request.param
    cfg = aqnn.SprintConfig(s=S, s_p=SP, seed=3)
    res = aqnn.select_neighbors(aqnn.QuerySpec(q_id=q, r=inputs.RADIUS, agg=agg), cfg, ds,
                                aqnn.oracle_model(), aqnn.proxy_model())
    selected = np.array(sorted(res.neighbors.member_ids), dtype=np.int64)
    estimate = aqnn.aggregate(agg, ds.attrs[selected], selected.size,
                              aqnn.AggregationContext(S, N, SCOPE_SAMPLE))
    return {
        "q": q, "agg": agg, "s": S, "s_p": SP, "r": inputs.RADIUS, "alpha": cfg.alpha,
        "sample": res.sample_ids, "pilot": res.pilot_ids, "selected": selected,
        "threshold": res.neighbors.threshold_used, "t_star": res.t_star,
        "estimate": estimate, "truth_ids": inputs.neighbourhood(pop["oracle"], q),
        "oracle_calls": res.ledger.oracle_calls, "proxy_calls": res.ledger.proxy_calls,
    }


def test_query_checks_accept_the_program_answer(population, query_op):
    f1, re = checks.check_query(population[0], query_op)
    assert 0.0 < f1 <= 1.0 and re >= 0.0


def test_selection_with_a_dropped_neighbour_is_rejected(population, query_op):
    assert query_op["threshold"] is not None
    planted = dict(query_op, selected=query_op["selected"][1:])
    with pytest.raises(checks.CheckFailed, match="selection"):
        checks.check_query(population[0], planted)


def test_ledger_off_by_one_is_rejected(population, query_op):
    for key in ("oracle_calls", "proxy_calls"):
        for delta in (-1, 1):
            planted = dict(query_op, **{key: query_op[key] + delta})
            with pytest.raises(checks.CheckFailed, match="calls"):
                checks.check_query(population[0], planted)


def test_estimate_scaled_by_wrong_population_ratio_is_rejected(population, query_op):
    attrs = population[0]["attrs"][query_op["selected"]]
    wrong = {"AVG": attrs.mean() * N / S, "SUM": attrs.sum() * N / SP}[query_op["agg"]]
    with pytest.raises(checks.CheckFailed, match="estimate"):
        checks.check_query(population[0], dict(query_op, estimate=wrong))


def test_count_scaled_by_wrong_population_ratio_is_rejected():
    values = np.arange(30.0)
    checks.check_estimate("COUNT", N * 30 / S, values, N, S)
    with pytest.raises(checks.CheckFailed):
        checks.check_estimate("COUNT", S * 30 / N, values, N, S)


def test_cutoff_below_the_precision_target_is_rejected(population, query_op):
    with pytest.raises(checks.CheckFailed, match="t_star"):
        checks.check_query(population[0], dict(query_op, t_star=1.0))


@pytest.fixture(scope="module")
def grid_report(population):
    pop, ds, targets = population
    cfg = harness.ExperimentConfig(
        dataset=ds, query_ids=targets, r=inputs.RADIUS, aggs=["AVG", "PCT"],
        algorithms=["sprint_v", "sprint_c", "two_phase", "top_k", "brute_force"],
        sprint=aqnn.SprintConfig(s=S, s_p=SP), trials=2, seed=11,
    )
    truths = {q: inputs.neighbourhood(pop["oracle"], q) for q in targets}
    return pop, truths, harness.run_experiment(cfg).to_json_dict()


def test_grid_checks_accept_the_program_report(grid_report):
    pop, truths, report = grid_report
    f1s, res = checks.check_grid_report(pop, report, truths, 11)
    assert len(f1s) == len(report["cells"]) * 4 // 5 and all(0 <= f <= 1 for f in f1s)


@pytest.mark.parametrize("field", ["oracle_calls", "proxy_calls"])
@pytest.mark.parametrize("algorithm", ["sprint_v", "top_k", "brute_force"])
def test_grid_cell_ledger_off_by_one_is_rejected(grid_report, algorithm, field):
    pop, truths, report = grid_report
    planted = json.loads(json.dumps(report))
    cell = next(c for c in planted["cells"] if c["algorithm"] == algorithm)
    cell[field] += 1
    with pytest.raises(checks.CheckFailed, match="calls"):
        checks.check_grid_report(pop, planted, truths, 11)


def test_grid_ground_truth_with_a_dropped_neighbour_is_rejected(grid_report):
    pop, truths, report = grid_report
    planted = json.loads(json.dumps(report))
    q = str(report["config"]["query_ids"][0])
    planted["ground_truth"][q]["on_d_size"] -= 1
    with pytest.raises(checks.CheckFailed, match="ON_D"):
        checks.check_grid_report(pop, planted, truths, 11)


def test_grid_brute_force_below_perfect_f1_is_rejected(grid_report):
    pop, truths, report = grid_report
    planted = json.loads(json.dumps(report))
    next(c for c in planted["cells"] if c["algorithm"] == "brute_force")["f1_s"] = 0.99
    with pytest.raises(checks.CheckFailed, match="F1"):
        checks.check_grid_report(pop, planted, truths, 11)


def test_grid_reports_that_differ_are_rejected(grid_report):
    text = json.dumps(grid_report[2], sort_keys=True)
    checks.check_same_report(text, text)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_report(text, text.replace('"trial": 1', '"trial": 2', 1))


def _written_file(tmp_path, n=40):
    pop = inputs.population(n, 9)
    path = str(tmp_path / "pop.jsonl")
    inputs.write_jsonl(pop, path)
    return path, {**pop, "features": pop["oracle"]}


def _columns(ds):
    return {"attrs": ds.attrs, "features": ds.features, "oracle": ds.oracle_emb, "proxy": ds.proxy_emb}


def test_population_file_checks_accept_the_written_file(tmp_path):
    path, arrays = _written_file(tmp_path)
    checks.check_jsonl_file(path, arrays, inputs.ATTR_BOUNDS)
    checks.check_loaded(_columns(aqnn.load_dataset(path)), arrays)


def test_population_file_truncated_by_one_row_is_rejected(tmp_path):
    path, arrays = _written_file(tmp_path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_jsonl_file(path, arrays, inputs.ATTR_BOUNDS)
    with pytest.raises(checks.CheckFailed, match="attrs"):
        checks.check_loaded(_columns(aqnn.load_dataset(path)), arrays)
