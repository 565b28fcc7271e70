"""The selection dispatch: ledger closed forms and golden canonical outputs."""

import contextlib
import hashlib
import io
import re

import numpy as np
import pytest

from aqnn import (CallLedger, QuerySpec, SprintConfig, draw_pilot, draw_sample, oracle_model,
                  proxy_model)
from aqnn import frnn, sprint
from aqnn.cli import main
from aqnn.frnn import distances_from
from aqnn.sprint import ALGORITHMS, select

S, S_P = 400, 120


@pytest.fixture(scope="module")
def drawn(noisy_ds):
    sample = draw_sample(noisy_ds, S, 8)
    pilot = draw_pilot(sample, S_P, 8)
    return sample, pilot


def _target(ds, sample, pilot, where):
    if where == "pilot":
        return int(pilot[0])
    if where == "sample":
        return int(np.setdiff1d(sample, pilot)[0])
    if where == "population":
        return int(np.setdiff1d(ds.ids, sample)[0])
    return ds.oracle_emb[int(pilot[0])] + 0.01  # an external feature vector


def _spec(algorithm):
    return "pqe_pt_fixed:0.9" if algorithm == "pqe_pt_fixed" else algorithm


@pytest.mark.parametrize("where", ["pilot", "sample", "population", "external"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ledger_closed_form(noisy_ds, drawn, algorithm, where):
    sample, pilot = drawn
    q_id = _target(noisy_ds, sample, pilot, where)
    query = QuerySpec(q_id=q_id, r=6.0, agg="AVG")
    ledger = CallLedger()
    res = select(_spec(algorithm), query, SprintConfig(s=S, s_p=S_P), noisy_ds,
                 sample, pilot, ledger)
    assert res.ledger is ledger
    assert len(res.neighbors) > 0
    outside_sample = where in ("population", "external")
    outside_pilot = where != "pilot"
    if algorithm == "brute_force":
        expected = (len(noisy_ds) + (where == "external"), 0)
    elif algorithm == "top_k":
        expected = (S + outside_sample, S + outside_sample)
    else:
        expected = (S_P + outside_pilot, S + outside_sample)
    assert (ledger.oracle_calls, ledger.proxy_calls) == expected


def _norm_kernel(metric, q_emb, matrix, overwrite_input=False):
    """The proxy kernel before scans owned their gather: a fresh difference."""
    assert metric == "euclidean"
    return np.linalg.norm(np.asarray(matrix, dtype=np.float64) - q_emb, axis=1)


@pytest.mark.parametrize("s", [S, "all"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_proxy_scan_writes_only_its_own_gather(noisy_ds, monkeypatch, algorithm, s):
    # the proxy kernel squares in the gather embed_many returned; a sample
    # of all of D is scanned as the read-only stored matrix itself. Oracle
    # scans hand the exact kernel a gather, or, over the stored matrix
    # (frnn.within), copies of the rows its filter cannot decide. Either
    # way the outputs equal the reference kernel's and the stored
    # embeddings keep every byte.
    s = len(noisy_ds) if s == "all" else s
    sample = draw_sample(noisy_ds, s, 8)
    pilot = draw_pilot(sample, S_P, 8)
    query = QuerySpec(q_id=int(pilot[0]), r=6.0, agg="AVG")
    stored = noisy_ds.proxy_emb, noisy_ds.oracle_emb
    stored_bytes = [m.tobytes() for m in stored]
    scanned = {"sprint": [], "frnn": []}

    def spy(module):
        def kernel(metric, q_emb, matrix, overwrite_input=False):
            scanned[module].append((matrix is noisy_ds.proxy_emb, matrix.flags.writeable,
                                    any(np.shares_memory(matrix, m) for m in stored)))
            return distances_from(metric, q_emb, matrix, overwrite_input)
        return kernel

    def run(sprint_kernel, frnn_kernel):
        monkeypatch.setattr(sprint, "distances_from", sprint_kernel)
        monkeypatch.setattr(frnn, "distances_from", frnn_kernel)
        return select(_spec(algorithm), query, SprintConfig(s=s, s_p=S_P), noisy_ds,
                      sample, pilot, CallLedger())

    got, want = run(spy("sprint"), spy("frnn")), run(_norm_kernel, _norm_kernel)
    assert [m.tobytes() for m in stored] == stored_bytes
    assert np.array_equal(got.neighbors.member_ids, want.neighbors.member_ids)
    assert (got.neighbors.threshold_used, got.t_star, got.probes, got.ledger.as_dict()) == (
        want.neighbors.threshold_used, want.t_star, want.probes, want.ledger.as_dict())
    full = s == len(noisy_ds)
    assert scanned["sprint"] == ([] if algorithm == "brute_force" else [(full, not full, full)])
    assert set(scanned["frnn"]) <= {(False, True, False)}


def test_unknown_algorithm_rejected(noisy_ds, drawn):
    with pytest.raises(ValueError, match="unknown algorithm"):
        select("annoy", QuerySpec(q_id=0, r=6.0, agg="AVG"), SprintConfig(s=S, s_p=S_P),
               noisy_ds, *drawn, CallLedger())


@pytest.mark.parametrize("spec", ["pqe_pt_fixed", "sprint_v:0.9"])
def test_target_only_where_the_algorithm_takes_one(noisy_ds, drawn, spec):
    # pqe_pt_fixed needs its target in the spec; no other algorithm takes one.
    # The spec is read before any model call is charged.
    ledger = CallLedger()
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        select(spec, QuerySpec(q_id=0, r=6.0, agg="AVG"), SprintConfig(s=S, s_p=S_P),
               noisy_ds, *drawn, ledger)
    assert ledger.as_dict() == {"oracle_calls": 0, "proxy_calls": 0}


@pytest.mark.parametrize("spec,message", [
    ("top_k", "'top_k' does not calibrate on a pilot"),
    ("brute_force", "'brute_force' does not calibrate on a pilot"),
    ("pqe_pt_fixed:2", "'pqe_pt_fixed:2' needs a target in [0, 1]"),
], ids=["top_k", "brute_force", "pqe_pt_fixed:2"])
def test_search_runs_only_calibrated_specs(noisy_ds, drawn, spec, message):
    # the baselines keep their own scans; a context never stands in for them.
    # search parses its spec itself, so a bad target fails there too.
    ctx = sprint.SelectionContext.build(noisy_ds, sprint.resolve_query_object(noisy_ds, 0),
                                        6.0, "euclidean", *drawn, CallLedger())
    with pytest.raises(ValueError, match=re.escape(message)):
        sprint.search(ctx, SprintConfig(s=S, s_p=S_P), spec)


@pytest.mark.parametrize("spec", ["sprint_v", "sprint_c", "two_phase", "pqe_pt_fixed:0.90",
                                  "top_k", "brute_force"])
def test_result_names_the_spec_as_given(noisy_ds, drawn, spec):
    res = select(spec, QuerySpec(q_id=int(drawn[1][0]), r=6.0, agg="AVG"),
                 SprintConfig(s=S, s_p=S_P), noisy_ds, *drawn, CallLedger())
    assert res.algorithm == spec


@pytest.mark.parametrize("agg,name", [("AVG", "sprint_v"), ("PCT", "sprint_c"),
                                      ("SUM", "two_phase")])
def test_searches_are_looked_up_at_call_time(noisy_ds, drawn, monkeypatch, agg, name):
    # bench/spans.py traces the searches by rebinding sprint's globals; a
    # dispatch table built at import would keep calling the originals.
    calls = []
    for search_name in ("sprint_v", "sprint_c", "two_phase"):
        def spy(ctx, cfg, search_name=search_name, original=getattr(sprint, search_name)):
            calls.append(search_name)
            return original(ctx, cfg)
        monkeypatch.setattr(sprint, search_name, spy)
    query = QuerySpec(q_id=int(drawn[1][0]), r=6.0, agg=agg)
    cfg = SprintConfig(s=S, s_p=S_P, seed=8)
    ctx = sprint.SelectionContext.build(
        noisy_ds, sprint.resolve_query_object(noisy_ds, query.q_id), query.r, query.metric,
        *drawn, CallLedger())
    sprint.search(ctx, cfg, name)
    sprint.select_neighbors(query, cfg, noisy_ds, oracle_model(), proxy_model())
    assert calls == [name, name]


# sha256 of canonical outputs recorded before the selection dispatch was
# unified; the refactor must leave every byte of them unchanged. The radius
# sweep is hashed with mean_wall_time_s removed, as it is now kept out of
# the canonical report.
GOLDEN = {
    "bench": "6e39c156ef718e9452e06c7a2371af23f01662c50eb33e96c06e3e66c1672f6a",
    "ht_AVG": "2bc0c1961c39f80079c1246e8ef8142ec37a2c27c0b45ac127439a4cf7950ffe",
    "ht_PCT": "324ace3749c89c2f8e18b5a10ee94b7b9afc4958fb9a9e43d61e737b650e9f7c",
    "query_AVG": "d601a752c38ccba1bc54f00a3bb2eff377456d5fe34f5378b59a61c884846340",
    "query_COUNT": "523532424633a58e42a8fe92c8a8de61fc693e092eabeeee4c34a8af760a44d0",
    "query_PCT": "c792c241ce83a7aa4b5bc838f7a9edfae8c0536fffed6d17cb94f0783e98ca01",
    "query_SUM": "4f5375a990ad65cf144912d3a63538e6b12370c6b22bb3dbb732cf4dd8304c7f",
    "query_VAR": "2c576c1e3ad830afa1b429a9831f82900a49bffdb5a65dee7c9c34046ac36823",
    "query_cosine": "bb4cec4bbe7867f6a6346d219a8b9c927d8aa9444420ae90e5fdbfc24ed95506",
    "sweep_radius": "468b5a49c3bdc9714a1a2892d625c5a684be7beb671672052f064e271ab9bdeb",
}


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--seed", "7", *argv]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def canonical_outputs(tmp_path_factory):
    pop = str(tmp_path_factory.mktemp("golden") / "pop.jsonl")
    _run("gen", "--n", "3000", "--dim", "16", "--clusters", "8", "--proxy-noise", "0.4",
         "--out", pop)
    query = ["query", "--data", pop, "--q-id", "11", "--s", "1000", "--sp", "300",
             "--truth", "--json"]
    out = {
        f"query_{agg}": _run(*query, "--radius", "6", "--agg", agg)
        for agg in ("AVG", "PCT", "SUM", "VAR", "COUNT")
    }
    out["query_cosine"] = _run(*query, "--radius", "0.3", "--metric", "cosine", "--agg", "AVG")
    out["bench"] = _run(
        "bench", "--data", pop, "--queries", "random:4", "--radius", "6",
        "--agg", "AVG,PCT,SUM,VAR,COUNT",
        "--algorithms", "sprint_v,sprint_c,two_phase,pqe_pt_fixed:0.9,top_k,brute_force",
        "--s", "500", "--sp", "150", "--trials", "3", "--json",
    )
    for agg in ("AVG", "PCT"):
        out[f"ht_{agg}"] = _run(
            "ht", "--data", pop, "--queries", "random:2", "--radius", "6", "--agg", agg,
            "--s", "500", "--sp", "150", "--k", "5", "--json",
        )
    out["sweep_radius"] = _run(
        "bench", "--n", "2000", "--proxy-noise", "0.4", "--agg", "PCT",
        "--algorithms", "sprint_c", "--s", "300", "--sp", "100", "--trials", "2",
        "--sweep", "radius", "--grid", "5,6", "--json",
    )
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_output_unchanged(canonical_outputs, name):
    digest = hashlib.sha256(canonical_outputs[name].encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]
