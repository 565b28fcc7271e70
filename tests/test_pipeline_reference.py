"""The whole pipeline against a plain reference, on arbitrary small inputs.

The reference restates the paper's three steps from the module docstrings:
draw the sample and pilot from the seed's own streams, score every sample
object's proxy distance, label the pilot with the oracle, then run the
written-out ternary, balance and two-phase searches over the per-probe
selector ``pqe_pt_per_probe`` (kept in ``test_frnn.py``), charging a
set-based ledger (``SetLedger``, kept in ``test_models.py``). ``select`` and
``select_neighbors`` must agree with it exactly: member ids, ``t_star``,
``probes``, ``threshold_used``, ledger counts and every estimate, or the
same degenerate error.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from aqnn import (
    AggregationContext,
    Dataset,
    DegenerateNeighborhoodError,
    QuerySpec,
    SprintConfig,
    aggregate,
    oracle_model,
    proxy_model,
    select_neighbors,
)
from aqnn.aggregate import AGGREGATIONS
from aqnn.models import CallLedger
from aqnn.seeding import spawn_rng
from aqnn.sprint import select
from test_frnn import pqe_pt_per_probe
from test_models import SetLedger

_NO_PILOT_TRUE = "pilot contains no true neighbors; increase s_p or r"
_ROUTE = {"AVG": "sprint_v", "VAR": "sprint_v", "PCT": "sprint_c", "COUNT": "sprint_c",
          "SUM": "two_phase"}
_WINDOW = 0.05


def ref_distances(metric, q, rows):
    if metric == "euclidean":
        return np.linalg.norm(rows - q, axis=1)
    return np.clip(1.0 - (rows @ q) / (np.linalg.norm(rows, axis=1) * np.linalg.norm(q)),
                   0.0, 2.0)


def prf1_of_sets(selected, truth):
    overlap = len(selected & truth)
    p = overlap / len(selected) if selected else 1.0
    r = overlap / len(truth) if truth else 1.0
    return p, r, (2.0 * p * r / (p + r) if p + r > 0 else 0.0)


def ref_ternary(f, omega, lo=0.0, hi=1.0):
    iterations = 0
    while hi - lo > omega:
        t1, t2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if f(t1) > f(t2):
            hi = t2
        else:
            lo = t1
        iterations += 1
    return (lo + hi) / 2.0, 2 * iterations


def ref_balance(prf1_at, omega_c, max_iters):
    lo, hi, best, probes = 0.0, 1.0, None, 0
    for _ in range(max_iters):
        t = (lo + hi) / 2.0
        p, r, _ = prf1_at(t)
        probes += 1
        if best is None or abs(r - p) < best[0]:
            best = (abs(r - p), t)
        if abs(r - p) <= omega_c:
            return t, probes
        lo, hi = (t, hi) if p <= r else (lo, t)
    return best[1], probes


def reference(spec, query, cfg, ds, sample, pilot):
    """(member ids, t_star, probes, threshold_used, ledger counts, spec) of one selection."""
    name, _, target = spec.partition(":")
    ledger = SetLedger()
    q_id = query.q_id if isinstance(query.q_id, int) else -1
    q_oracle = ds.oracle_emb[q_id] if q_id >= 0 else np.asarray(query.q_id, dtype=np.float64)
    q_proxy = ds.proxy_emb[q_id] if q_id >= 0 else q_oracle

    def oracle_truth(ids):
        ledger.charge("oracle", [q_id, *ids.tolist()])
        return ids[ref_distances(query.metric, q_oracle, ds.oracle_emb[ids]) <= query.r]

    def proxy_d(ids):
        ledger.charge("proxy", [q_id, *ids.tolist()])
        return ref_distances(query.metric, q_proxy, ds.proxy_emb[ids])

    def done(members, t_star, probes, threshold):
        return (np.asarray(members, dtype=np.int64).tolist(), t_star, probes, threshold,
                (ledger.oracle_calls, ledger.proxy_calls), spec)

    if name == "brute_force":
        members = oracle_truth(ds.ids)
        return done(members, None, 0, query.r)
    if name == "top_k":
        k = oracle_truth(sample).size
        if not k:
            ledger.charge("proxy", [q_id])
            return done([], None, 0, None)
        d = proxy_d(sample)
        chosen = np.lexsort((sample, d))[:k]
        return done(np.sort(sample[chosen]), None, 0, float(d[chosen[-1]]))

    sample_d = proxy_d(sample)
    pilot_d = sample_d[np.searchsorted(sample, pilot)]
    truth = SimpleNamespace(member_ids=oracle_truth(pilot))
    true_set = set(truth.member_ids.tolist())

    def on(ids, d, t):
        return pqe_pt_per_probe(ids, d, pilot, pilot_d, truth,
                                SimpleNamespace(t=t, delta=cfg.alpha), query.r)

    def prf1_at(t):
        return prf1_of_sets(set(on(pilot, pilot_d, t).member_ids.tolist()), true_set)

    def f1_at(t):
        return prf1_at(t)[2]

    if name == "pqe_pt_fixed":
        t_star, probes = float(target), 0
    elif not true_set:
        raise DegenerateNeighborhoodError(_NO_PILOT_TRUE)
    elif name == "sprint_v":
        t_star, probes = ref_ternary(f1_at, cfg.omega_v)
    elif name == "sprint_c":
        t_star, probes = ref_balance(prf1_at, cfg.omega_c, cfg.max_iters)
    else:
        t_c, probes = ref_balance(prf1_at, cfg.omega_c, cfg.max_iters)
        t_star, more = ref_ternary(f1_at, cfg.omega_v, max(0.0, t_c - _WINDOW),
                                   min(1.0, t_c + _WINDOW))
        probes += more
    chosen = on(sample, sample_d, t_star)
    return done(chosen.member_ids, t_star, probes, chosen.threshold_used)


def ref_estimate(agg, values, s, n):
    """Each aggregation's one formula, scaled by |D|/s; None where degenerate."""
    k = values.size
    if agg in ("AVG", "VAR") and not k:
        return None
    return {"AVG": lambda: float(values.mean()),
            "VAR": lambda: float(np.mean((values - values.mean()) ** 2)),
            "PCT": lambda: k / s,
            "COUNT": lambda: n * k / s,
            "SUM": lambda: n / s * float(values.sum())}[agg]()


def estimates(members, ds, s):
    values = ds.attrs[np.asarray(members, dtype=np.int64)]
    out = {}
    for agg in AGGREGATIONS:
        try:
            out[agg] = aggregate(agg, values, values.size, AggregationContext(s, len(ds)))
        except DegenerateNeighborhoodError:
            out[agg] = None
    return out


def outcome(run):
    """``run()``'s comparable facts, or the degenerate error it raised."""
    try:
        return run()
    except DegenerateNeighborhoodError as exc:
        return ("degenerate", str(exc))


def of_result(res):
    return (res.neighbors.member_ids.tolist(), res.t_star, res.probes,
            res.neighbors.threshold_used, (res.ledger.oracle_calls, res.ledger.proxy_calls),
            res.algorithm)


@st.composite
def populations(draw):
    """Small populations on a coarse grid, so distances tie often; the
    proxy equals the oracle (zero noise), sits on a shifted grid (ties), or
    carries Gaussian noise. No vector is zero, so cosine is defined."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    oracle = rng.integers(1, 4, size=(n, dim)).astype(np.float64)
    noise = draw(st.sampled_from(["zero", "grid", "gauss"]))
    if noise == "zero":
        proxy = oracle.copy()
    elif noise == "grid":
        proxy = oracle + rng.choice([0.0, 0.5, 1.0], size=(n, dim))
    else:
        proxy = oracle + rng.normal(0.0, draw(st.sampled_from([0.1, 0.4])), size=(n, dim))
    attrs = rng.integers(-3, 4, size=n).astype(np.float64)
    return Dataset(attrs, oracle, oracle, proxy)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), ds=populations())
def test_select_matches_reference(data, ds):
    n = len(ds)
    metric = data.draw(st.sampled_from(["euclidean", "cosine"]))
    if data.draw(st.booleans()):
        q_id = data.draw(st.integers(0, n - 1))
        q_oracle = ds.oracle_emb[q_id]
    else:  # an external vector on the grid
        q_id = data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=ds.embedding_dim,
                                  max_size=ds.embedding_dim)).copy()
        q_oracle = np.array(q_id)
    # the radius sits on an oracle distance (a boundary tie) or anywhere
    on_grid = [d for d in ref_distances(metric, q_oracle, ds.oracle_emb).tolist() if d > 0]
    r = data.draw(st.sampled_from(on_grid or [1.0])
                  | st.floats(0.001, 3.0 if metric == "euclidean" else 0.3))
    agg = data.draw(st.sampled_from(AGGREGATIONS))
    s = data.draw(st.integers(1, n))
    cfg = SprintConfig(
        s=s, s_p=data.draw(st.integers(1, s)),
        omega_v=data.draw(st.sampled_from([0.01, 0.2])),
        omega_c=data.draw(st.sampled_from([0.01, 0.25, 0.5])),
        alpha=data.draw(st.sampled_from([0.05, 0.4])),
        max_iters=data.draw(st.sampled_from([1, 4, 30])),
        seed=data.draw(st.integers(0, 2**63 - 1)),
    )
    query = QuerySpec(q_id=q_id, r=r, agg=agg, metric=metric)
    sample = np.sort(spawn_rng(cfg.seed, "sample").choice(n, size=s, replace=False))
    pilot = np.sort(spawn_rng(cfg.seed, "pilot").choice(sample, size=cfg.s_p, replace=False))
    target = data.draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))

    for spec in ("sprint_v", "sprint_c", "two_phase", f"pqe_pt_fixed:{target}", "top_k",
                 "brute_force"):
        name = spec.partition(":")[0]
        want = outcome(lambda: reference(spec, query, cfg, ds, sample, pilot))
        got = outcome(lambda: of_result(
            select(spec, query, cfg, ds, sample, pilot, CallLedger())))
        assert got == want, spec
        if want[0] != "degenerate":
            size = n if name == "brute_force" else s
            assert estimates(got[0], ds, size) == {
                a: ref_estimate(a, ds.attrs[np.array(want[0], dtype=np.int64)], size, n)
                for a in AGGREGATIONS}

    want = outcome(lambda: reference(_ROUTE[agg], query, cfg, ds, sample, pilot))
    got = outcome(lambda: of_result(
        select_neighbors(query, cfg, ds, oracle_model(), proxy_model())))
    assert got == want
