"""Correctness checks that recompute each answer apart from the program.

Every checker takes plain numbers and arrays (never the program's objects)
and raises ``CheckFailed`` on the first disagreement. The reference data
are the benchmark's own seeded arrays from ``inputs.population``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import cell_sample_and_pilot

# Estimates and errors are compared with a relative tolerance because the
# program and the checker may sum in another order; a wrong |D|/s scale or
# a dropped value moves them by far more.
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def sample_estimate(agg: str, values: np.ndarray, n: int, s: int) -> float:
    """The aggregate over selected sample values, scaled to the population by |D|/s."""
    k = values.size
    if agg == "AVG":
        return float(values.mean())
    if agg == "VAR":
        return float(((values - values.mean()) ** 2).mean())
    if agg == "PCT":
        return k / s
    if agg == "COUNT":
        return n * k / s
    if agg == "SUM":
        return float(values.sum()) * n / s
    raise ValueError(f"unknown aggregation {agg!r}")


def population_truth(agg: str, values: np.ndarray, n: int) -> float:
    """The exact aggregate over a whole neighbourhood of the population."""
    if agg == "PCT":
        return values.size / n
    if agg == "COUNT":
        return float(values.size)
    if agg == "SUM":
        return float(values.sum())
    return sample_estimate(agg, values, n, n)


def relative_error_pct(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / abs(truth) * 100.0


def f1_score(selected: np.ndarray, truth: np.ndarray) -> float:
    """F1 of a selection against a truth set; empty selection has precision 1."""
    overlap = np.intersect1d(selected, truth).size
    p = overlap / selected.size if selected.size else 1.0
    r = overlap / truth.size if truth.size else 1.0
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def hoeffding_lower(k_true: np.ndarray, size: np.ndarray, delta: float) -> np.ndarray:
    return np.maximum(0.0, k_true / size - np.sqrt(math.log(1.0 / delta) / (2.0 * size)))


def check_ledger(q: int, sample: np.ndarray, pilot: np.ndarray,
                 oracle_calls: int, proxy_calls: int) -> None:
    """Exactly |S| proxy and |pilot| oracle calls, plus one each for a target outside them."""
    want_proxy = sample.size + int(q not in sample)
    want_oracle = pilot.size + int(q not in pilot)
    _require(proxy_calls == want_proxy, f"proxy calls {proxy_calls} != {want_proxy}")
    _require(oracle_calls == want_oracle, f"oracle calls {oracle_calls} != {want_oracle}")


def check_draws(n: int, s: int, s_p: int, sample: np.ndarray, pilot: np.ndarray) -> None:
    _require(sample.size == s and np.all(np.diff(sample) > 0), "sample is not s sorted distinct ids")
    _require(sample[0] >= 0 and sample[-1] < n, "sample id outside the population")
    _require(pilot.size == s_p and np.all(np.diff(pilot) > 0), "pilot is not s_p sorted distinct ids")
    _require(np.isin(pilot, sample).all(), "pilot is not inside the sample")


def check_selection(ref: dict, q: int, r: float, delta: float, sample: np.ndarray,
                    pilot: np.ndarray, selected: np.ndarray,
                    threshold: float | None, t_star: float) -> None:
    """Selection = sample ids within the cutoff; the cutoff's pilot prefix clears t_star.

    Distances use the same numpy expression as the program, so a point
    lying exactly on the cutoff compares equal on both sides.
    """
    proxy_d = np.linalg.norm(ref["proxy"][sample] - ref["proxy"][q], axis=1)
    pilot_pd = proxy_d[np.searchsorted(sample, pilot)]
    pilot_true = np.linalg.norm(ref["oracle"][pilot] - ref["oracle"][q], axis=1) <= r
    if threshold is not None:
        want = sample[proxy_d <= threshold]
        _require(np.array_equal(selected, want),
                 f"selection of {selected.size} ids != {want.size} sample ids within {threshold}")
        in_prefix = pilot_pd <= threshold
        size = int(in_prefix.sum())
        _require(size > 0, "cutoff admits no labelled pilot point")
        lb = float(hoeffding_lower(np.array([pilot_true[in_prefix].sum()]), np.array([size]), delta)[0])
        _require(lb >= t_star, f"cutoff's pilot precision bound {lb} < t_star {t_star}")
        return
    # Fallback: no cutoff clears the target, so the proxy-nearest labelled
    # true neighbour is returned alone (nothing when the pilot has none).
    # Candidate cutoffs end at distance-tie groups, plus the radius itself.
    order = np.lexsort((pilot, pilot_pd))
    sorted_d = pilot_pd[order]
    cum_true = np.cumsum(pilot_true[order])
    sizes = np.nonzero(np.append(sorted_d[1:] != sorted_d[:-1], True))[0] + 1
    r_size = int(np.searchsorted(sorted_d, r, side="right"))
    if r_size:
        sizes = np.append(sizes, r_size)
    lb = hoeffding_lower(cum_true[sizes - 1], sizes, delta)
    _require(not (lb >= t_star).any(), "a cutoff clears t_star but the selector fell back")
    true_order = order[pilot_true[order]]
    want = pilot[true_order[:1]]
    _require(np.array_equal(selected, want), "fallback is not the proxy-nearest true pilot point")


def check_estimate(agg: str, estimate: float, values: np.ndarray, n: int, s: int) -> None:
    want = sample_estimate(agg, values, n, s)
    _require(_close(estimate, want), f"{agg} estimate {estimate} != {want}")


def check_query(ref: dict, op: dict) -> tuple[float, float]:
    """All query checks; returns (F1 against the exact sample neighbourhood, RE %)."""
    q, n = op["q"], ref["attrs"].size
    sample, pilot, selected = op["sample"], op["pilot"], op["selected"]
    check_draws(n, op["s"], op["s_p"], sample, pilot)
    check_ledger(q, sample, pilot, op["oracle_calls"], op["proxy_calls"])
    check_selection(ref, q, op["r"], op["alpha"], sample, pilot, selected,
                    op["threshold"], op["t_star"])
    check_estimate(op["agg"], op["estimate"], ref["attrs"][selected], n, op["s"])
    truth_ids = op["truth_ids"]
    truth = population_truth(op["agg"], ref["attrs"][truth_ids], n)
    return (f1_score(selected, np.intersect1d(truth_ids, sample)),
            relative_error_pct(op["estimate"], truth))


def cell_calls(algorithm: str, q: int, n: int, sample: np.ndarray,
               pilot: np.ndarray) -> tuple[int, int]:
    """Closed-form (oracle, proxy) calls of one grid cell for a target inside D."""
    outside_sample = int(q not in sample)
    if algorithm == "brute_force":
        return n, 0
    if algorithm == "top_k":
        return sample.size + outside_sample, sample.size + outside_sample
    return pilot.size + int(q not in pilot), sample.size + outside_sample


def check_ground_truth(ref: dict, report: dict, truths: dict[int, np.ndarray]) -> None:
    n = ref["attrs"].size
    for q in report["config"]["query_ids"]:
        gt, ids = report["ground_truth"][str(q)], truths[q]
        _require(gt["on_d_size"] == ids.size, f"query {q}: |ON_D| {gt['on_d_size']} != {ids.size}")
        _require(gt["density"] == ids.size / n, f"query {q}: density {gt['density']} is not |ON_D|/|D|")
        _require(gt["oracle_calls"] == n, f"query {q}: truth charged {gt['oracle_calls']} != {n}")
        for agg, value in gt["agg"].items():
            want = population_truth(agg, ref["attrs"][ids], n)
            _require(_close(value, want), f"query {q}: true {agg} {value} != {want}")


def check_grid_report(ref: dict, report: dict, truths: dict[int, np.ndarray],
                      grid_seed: int) -> tuple[list[float], list[float]]:
    """Checks every cell of one ``run_experiment`` report.

    The report carries selection sizes but not the selected ids, so F1 is
    rebuilt from the benchmark's own |ON_S|: F1 * (|sel| + |ON_S|) / 2 must
    be a whole overlap count. Returns F1 and RE % of the non-brute-force cells.
    """
    cfg = report["config"]
    n, s, s_p = ref["attrs"].size, cfg["s"], cfg["s_p"]
    _require(cfg["population_size"] == n, "report population size differs")
    check_ground_truth(ref, report, truths)
    f1s, res = [], []
    draws = {}
    for cell in report["cells"]:
        q, trial, alg = cell["query_id"], cell["trial"], cell["algorithm"]
        where = f"cell {alg} q={q} trial={trial}"
        if cell["degenerate"]:  # counted as a failed operation, not checked
            continue
        qi = cfg["query_ids"].index(q)
        if (qi, trial) not in draws:
            draws[qi, trial] = cell_sample_and_pilot(n, s, s_p, grid_seed, qi, trial)
        sample, pilot = draws[qi, trial]
        want = cell_calls(alg, q, n, sample, pilot)
        got = (cell["oracle_calls"], cell["proxy_calls"])
        _require(got == want, f"{where}: (oracle, proxy) calls {got} != {want}")
        truth_ids = truths[q]
        sel = cell["selected"]
        scope_n = n if alg == "brute_force" else s
        _require(_close(cell["estimates"]["PCT"], sel / scope_n), f"{where}: PCT != selected/|S|")
        for agg, est in cell["estimates"].items():
            truth = population_truth(agg, ref["attrs"][truth_ids], n)
            re = relative_error_pct(est, truth)
            _require(_close(cell["re_pct"][agg], re), f"{where}: RE {agg} {cell['re_pct'][agg]} != {re}")
            if alg != "brute_force":
                res.append(re)
        if alg == "brute_force":
            _require(sel == truth_ids.size and cell["f1_s"] == 1.0, f"{where}: F1 {cell['f1_s']} != 1")
            _require(all(v == 0.0 for v in cell["re_pct"].values()), f"{where}: RE != 0")
            continue
        on_s = int(np.isin(truth_ids, sample).sum())
        if alg == "top_k":
            _require(sel == on_s, f"{where}: top-K chose {sel} != K = |ON_S| = {on_s}")
        overlap = cell["f1_s"] * (sel + on_s) / 2.0
        whole = round(overlap)
        _require(abs(overlap - whole) < 1e-6 and 0 <= whole <= min(sel, on_s),
                 f"{where}: F1 {cell['f1_s']} fits no overlap of {sel} and {on_s}")
        f1s.append(2.0 * whole / (sel + on_s))
    return f1s, res


def check_same_report(first: str, second: str) -> None:
    _require(first == second, "two grid runs with one seed differ in canonical JSON")


def check_jsonl_file(path: str, arrays: dict[str, np.ndarray], bounds: tuple) -> None:
    """Parse the written file line by line and compare every value exactly."""
    n = arrays["attrs"].size
    rows = 0
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        dim = arrays["features"].shape[1]
        _require(header == {"feature_dim": dim, "embedding_dim": dim, "attr_bounds": list(bounds)},
                 f"header {header} differs")
        for i, line in enumerate(fh):
            _require(i < n, f"file has more than {n} rows")
            rec = json.loads(line)
            _require(rec["id"] == i and rec["attr"] == arrays["attrs"][i], f"row {i}: id or attr differs")
            for key, col in (("features", "features"), ("oracle_emb", "oracle"), ("proxy_emb", "proxy")):
                _require(rec[key] == arrays[col][i].tolist(), f"row {i}: {key} differs")
            rows += 1
    _require(rows == n, f"file has {rows} rows, expected {n}")


def check_loaded(loaded: dict[str, np.ndarray], arrays: dict[str, np.ndarray]) -> None:
    for key, want in arrays.items():
        got = loaded[key]
        _require(got is not None and got.shape == want.shape and np.array_equal(got, want),
                 f"loaded {key} differs from the generated array")
