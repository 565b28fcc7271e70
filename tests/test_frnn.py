import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aqnn import (
    DataError,
    NeighborSet,
    exact_frnn,
    pqe_pt,
    prf1,
    top_k_baseline,
)
from aqnn import frnn
from aqnn.frnn import VALID_METRICS, CalibrationTable, distances_from, in_sorted, within


class TestDist:
    @staticmethod
    def one(metric, u, v):
        return distances_from(metric, u, np.array([v], dtype=float))[0]

    def test_euclidean_3_4_5(self):
        assert self.one("euclidean", [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_cosine_identity(self):
        for v in ([1.0, 2.0], [0.5, -3.0, 2.0]):
            assert self.one("cosine", v, v) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert self.one("cosine", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_cosine_opposite_is_two(self):
        assert self.one("cosine", [1.0, 0.0], [-2.0, 0.0]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            self.one("euclidean", [1.0], [1.0, 2.0])

    def test_cosine_zero_vector(self):
        with pytest.raises(DataError, match="zero"):
            self.one("cosine", [0.0, 0.0], [1.0, 0.0])

    def test_cosine_zero_row_is_data_error(self):
        with pytest.raises(DataError, match="zero"):
            distances_from("cosine", [1.0, 0.0], np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="zero"):
            distances_from("cosine", [0.0, 0.0], np.array([[1.0, 1.0]]))

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            self.one("manhattan", [0.0], [1.0])

    @settings(max_examples=300)
    @given(data=st.data(), rows=st.sampled_from([0, 1]) | st.integers(2, 30),
           dim=st.integers(1, 5), dtype=st.sampled_from(["int64", "float32", "float64"]),
           strided=st.booleans(), writeable=st.booleans(), overwrite=st.booleans())
    def test_euclidean_equals_norm_reference(
        self, data, rows, dim, dtype, strided, writeable, overwrite
    ):
        # the kernel np.linalg.norm(m - q, axis=1) it replaced, bit for bit;
        # a strided matrix is a non-contiguous slice of a wider one; the
        # caller's matrix is written only when handed over with
        # overwrite_input, writeable and float64, as a fresh gather is
        elements = (st.integers(-10**6, 10**6) if dtype == "int64"
                    else st.floats(-1e6, 1e6, width=32 if dtype == "float32" else 64))
        wide = data.draw(arrays(dtype, (rows, 2 * dim if strided else dim), elements=elements))
        m = wide[:, ::2] if strided else wide
        m.flags.writeable = writeable
        before = m.copy()
        q = data.draw(arrays("float64", dim, elements=st.floats(-1e6, 1e6)))
        want = np.linalg.norm(m - q, axis=1)
        got = distances_from("euclidean", q, m, overwrite_input=overwrite)
        assert np.array_equal(got, want)
        assert got.shape == (rows,) and got.dtype == np.float64
        if not (overwrite and writeable and dtype == "float64"):
            assert np.array_equal(m, before)

    @settings(max_examples=300)
    @given(ids=st.lists(st.integers(-3, 40), max_size=30),
           truth=st.sets(st.integers(-3, 40), max_size=15))
    def test_in_sorted_equals_isin(self, ids, truth):
        # the labelling np.isin(lab_ids, truth) it replaced: needles in any
        # order, with repeats; truth empty, or holding ids no needle has
        ids = np.array(ids, dtype=np.int64)
        truth = np.array(sorted(truth), dtype=np.int64)
        assert np.array_equal(in_sorted(ids, truth), np.isin(ids, truth))


class TestExactFrnn:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_nan_embedding_row_is_data_error(self, tiny_ds, metric):
        # the shifted copy has no zero row, which cosine rejects too
        for shift in (0.0, 10.0):
            emb = tiny_ds.oracle_emb + shift
            emb[3, 1] = np.nan
            with pytest.raises(DataError, match="NaN"):
                exact_frnn(tiny_ds.ids, emb, [1.0, 1.0], 2.0, metric)

    def test_nan_query_selects_nothing(self, tiny_ds):
        res = exact_frnn(tiny_ds.ids, tiny_ds.oracle_emb, [np.nan, 0.0], 1e9)
        assert len(res) == 0

    @given(st.lists(st.tuples(st.integers(0, 9), st.floats(-3, 3), st.floats(-3, 3)),
                    min_size=1, max_size=20),
           st.floats(0, 4))
    def test_unsorted_duplicated_universe_gives_sorted_distinct_members(self, rows, r):
        ids = np.array([i for i, _, _ in rows], dtype=np.int64)
        emb = np.array([[x, y] for _, x, y in rows])
        res = exact_frnn(ids, emb, [0.0, 0.0], r)
        want = np.unique(ids[np.linalg.norm(emb, axis=1) <= r])
        assert np.array_equal(res.member_ids, want)
        assert res.member_ids.dtype == np.int64

    def test_radius_zero_exact_matches_only(self, tiny_ds):
        res = exact_frnn(tiny_ds.ids, tiny_ds.oracle_emb, [0.0, 0.0], 0.0)
        assert np.array_equal(res.member_ids, [0])

    def test_huge_radius_returns_universe(self, tiny_ds):
        res = exact_frnn(tiny_ds.ids, tiny_ds.oracle_emb, [0.0, 0.0], 1e9)
        assert np.array_equal(res.member_ids, np.arange(len(tiny_ds)))
        assert res.member_ids.dtype == np.int64

    def test_boundary_included(self, tiny_ds):
        # object 5 sits at exactly distance 5 from the origin
        res = exact_frnn(tiny_ds.ids, tiny_ds.oracle_emb, [0.0, 0.0], 5.0)
        assert 5 in res.member_ids.tolist()

    def test_six_point_neighborhood(self):
        # a layout with exactly six points within the unit radius of q
        pts = np.array(
            [[0.1, 0.0], [0.0, 0.3], [-0.4, 0.2], [0.5, 0.5], [0.9, 0.0], [0.0, -0.95],
             [2.0, 0.0], [0.0, 3.0], [-2.5, 1.0]]
        )
        res = exact_frnn(range(len(pts)), pts, [0.0, 0.0], 1.0)
        assert len(res) == 6

    def test_radius_monotone(self, clean_ds):
        q = clean_ds.oracle_emb[11]
        small = exact_frnn(clean_ds.ids, clean_ds.oracle_emb, q, 3.0)
        large = exact_frnn(clean_ds.ids, clean_ds.oracle_emb, q, 6.0)
        assert np.isin(small.member_ids, large.member_ids).all()


class TestWithin:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the kernel's own, on inf and NaN
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 40), metric=st.sampled_from(VALID_METRICS),
           offset=st.sampled_from([0.0, 1e8]),
           coord=st.sampled_from(["grid", "floats", "normal", "subnormal", "any"]))
    def test_equals_the_exact_kernel(self, data, dim, metric, offset, coord):
        # integer coordinates put rows exactly on the cutoff, and a common
        # 1e8 offset leaves the filter no row it can decide; normal draws
        # fill every mantissa bit, the same scaled by 2^-525 have subnormal
        # squares, and any float brings NaN, infinities and overflowing
        # squares. Rows repeat, the query may be one of them, and the
        # cutoff may be 0, a row's distance or a neighbour of one, or lie
        # anywhere; a negative or NaN cutoff admits nothing
        shape = (data.draw(st.integers(1, 6)) + 1, dim)
        if coord in ("normal", "subnormal"):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
            pool = rng.standard_normal(shape) * (2.0 ** -525 if coord == "subnormal" else 100.0)
        else:
            elements = {"grid": st.integers(-3, 3).map(float), "floats": st.floats(-1e3, 1e3),
                        "any": st.floats()}[coord]
            pool = data.draw(arrays("float64", shape, elements=elements))
        q = pool[data.draw(st.integers(0, len(pool) - 1))] + offset
        rows = pool[data.draw(st.lists(st.integers(0, len(pool) - 2), max_size=30))] + offset
        sq_norms = np.einsum("ij,ij->i", rows, rows)
        try:
            d = distances_from(metric, q, rows)
        except DataError:  # a zero vector under cosine
            with pytest.raises(DataError, match="zero"):
                within(metric, q, rows, 1.0, sq_norms)
            return
        ties = d.tolist() + np.nextafter(d, 0.0).tolist() + np.nextafter(d, np.inf).tolist()
        anywhere = data.draw(st.floats(0.0, 2.0 * float(np.nanmax(d, initial=1.0))))
        for c in (*ties, anywhere, 0.0, -1.0, math.nan):
            assert np.array_equal(within(metric, q, rows, c, sq_norms), d <= c)

    def test_refines_only_what_rounding_cannot_decide(self, noisy_ds, monkeypatch):
        refined = []

        def spy(metric, q_emb, matrix, overwrite_input=False):
            refined.append(len(matrix))
            return distances_from(metric, q_emb, matrix, overwrite_input)

        monkeypatch.setattr(frnn, "distances_from", spy)
        emb, sq_norms = noisy_ds.oracle_emb, noisy_ds.oracle_sq_norms
        for i in range(0, len(noisy_ds), 100):
            for r in (3.0, 6.0, 9.0):
                within("euclidean", emb[i], emb, r, sq_norms)
        assert sum(refined) <= 3  # of 90 scans of 3000 rows
        refined.clear()
        far = np.random.default_rng(0).integers(-3, 4, size=(500, 16)) + 1e8
        got = within("euclidean", far[0], far, 3.0, np.einsum("ij,ij->i", far, far))
        assert refined == [len(far)]
        assert np.array_equal(got, distances_from("euclidean", far[0], far) <= 3.0)


def pqe_pt_bruteforce(sample_ids, proxy_dists, labeled_ids, truth_ids, t, delta, r):
    """Independent enumeration of every candidate cutoff with the same rule.

    Walks all labeled prefixes plus the radius cutoff, scores each by the
    clamped one-sided Hoeffding lower bound, and picks the qualifying one
    maximizing (labeled recall, labeled precision, cutoff).
    """
    ordered = sorted(labeled_ids, key=lambda i: (proxy_dists[i], i))
    total_true = sum(1 for i in ordered if i in truth_ids)
    candidates = []
    for i in ordered:
        candidates.append(proxy_dists[i])
    candidates.append(r)

    best = None
    for tau in candidates:
        admitted = [i for i in ordered if proxy_dists[i] <= tau]
        if not admitted:
            continue
        k_true = sum(1 for i in admitted if i in truth_ids)
        n = len(admitted)
        p_hat = k_true / n
        lb = max(0.0, p_hat - math.sqrt(math.log(1.0 / delta) / (2 * n)))
        if lb < t:
            continue
        recall = k_true / total_true if total_true else 1.0
        key = (recall, p_hat, tau)
        if best is None or key > best:
            best = key
    if best is None:
        trues = [i for i in ordered if i in truth_ids]
        return (frozenset(trues[:1]), None)
    tau = best[2]
    return (frozenset(i for i in sample_ids if proxy_dists[i] <= tau), tau)


def ids_of(members):
    return np.array(sorted(members), dtype=np.int64)


def run_pqe_pt(sample_ids, proxy_dists, labeled_ids, truth_ids, t, delta, r):
    """pqe_pt on the dict inputs of the reference, as sorted id arrays."""
    sample, labeled = ids_of(sample_ids), ids_of(labeled_ids)
    sample_d = np.array([proxy_dists[i] for i in sample.tolist()], dtype=np.float64)
    labeled_d = np.array([proxy_dists[i] for i in labeled.tolist()], dtype=np.float64)
    truth = NeighborSet(ids_of(truth_ids), r)
    return pqe_pt(sample, sample_d, labeled, labeled_d, truth, t, delta, r)


class TestPqePt:
    def _clean_instance(self):
        # zero noise: proxy distance identical to oracle distance; enough
        # true labels that the Hoeffding slack stays below ~0.12
        rng = np.random.default_rng(5)
        dists = np.sort(rng.uniform(0.0, 10.0, size=200))
        ids = list(range(200))
        proxy = {i: float(dists[i]) for i in ids}
        r = 5.0
        truth = frozenset(i for i in ids if proxy[i] <= r)
        return ids, proxy, truth, r

    def test_zero_noise_equals_exact_frnn(self):
        ids, proxy, truth, r = self._clean_instance()
        # targets up to the certifiable ceiling 1 - sqrt(ln(1/delta)/(2 n_true))
        ceiling = 1.0 - math.sqrt(math.log(1 / 0.05) / (2 * len(truth)))
        assert ceiling > 0.8
        for t in (0.0, 0.3, 0.6, 0.8, ceiling):
            res = run_pqe_pt(ids, proxy, ids, truth, t, 0.05, r)
            assert np.array_equal(res.member_ids, ids_of(truth))
            assert res.threshold_used == pytest.approx(r)

    def test_zero_noise_subset_property_any_target(self):
        ids, proxy, truth, r = self._clean_instance()
        for t in np.linspace(0.0, 1.0, 21):
            res = run_pqe_pt(ids, proxy, ids, truth, float(t), 0.05, r)
            assert set(res.member_ids.tolist()) <= truth

    def test_vacuous_target_picks_maximal_supported_cutoff(self):
        # with t = 0 every cutoff qualifies; the winner still ends on a true
        # neighbor, which at zero noise admits the full true set
        ids, proxy, truth, r = self._clean_instance()
        res = run_pqe_pt(ids, proxy, ids, truth, 0.0, 0.05, r)
        assert np.array_equal(res.member_ids, ids_of(truth))

    def test_fallback_singleton_nearest_true(self):
        # tiny labeled set: no cutoff can certify a 0.99 target
        ids = [0, 1, 2, 3]
        proxy = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        res = run_pqe_pt(ids, proxy, ids, {1, 2}, 0.99, 0.05, 10.0)
        assert np.array_equal(res.member_ids, [1])
        assert res.threshold_used is None

    def test_fallback_empty_without_true_neighbors(self):
        ids = [0, 1]
        proxy = {0: 1.0, 1: 2.0}
        res = run_pqe_pt(ids, proxy, ids, set(), 0.9, 0.05, 0.5)
        assert res.member_ids.size == 0

    def test_crafted_misranked_matches_bruteforce(self):
        # ten labeled points, two proxy-misranked (true neighbors pushed
        # beyond two false ones in proxy order)
        ids = list(range(10))
        proxy = {0: 0.5, 1: 1.0, 2: 1.5, 3: 2.0, 4: 2.5,
                 5: 3.0, 6: 3.5, 7: 4.0, 8: 4.5, 9: 5.0}
        truth = frozenset({0, 1, 2, 3, 5, 7})  # 4 and 6 are misranked falses
        t, delta, r = 0.8, 0.05, 2.2
        expected_set, expected_tau = pqe_pt_bruteforce(
            ids, proxy, ids, truth, t, delta, r
        )
        res = run_pqe_pt(ids, proxy, ids, truth, t, delta, r)
        assert np.array_equal(res.member_ids, ids_of(expected_set))
        if expected_tau is None:
            assert res.threshold_used is None
        else:
            assert res.threshold_used == pytest.approx(expected_tau)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_randomized_matches_bruteforce(self, data):
        rng_seed = data.draw(st.integers(0, 10**6))
        rng = np.random.default_rng(rng_seed)
        n = data.draw(st.integers(3, 25))
        ids = list(range(n))
        proxy = {i: float(d) for i, d in enumerate(rng.uniform(0, 10, size=n))}
        truth = frozenset(int(i) for i in ids if rng.random() < 0.5)
        r = float(rng.uniform(0, 10))
        t = data.draw(st.floats(0.0, 1.0))
        delta = 0.05
        expected_set, _ = pqe_pt_bruteforce(ids, proxy, ids, truth, t, delta, r)
        res = run_pqe_pt(ids, proxy, ids, truth, t, delta, r)
        assert np.array_equal(res.member_ids, ids_of(expected_set))

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_ties_radius_slot_and_unlabeled_ids_match_bruteforce(self, data):
        # distances from a small grid repeat, so tie groups are common; the
        # radius often equals a labeled distance; some sample ids are unlabeled
        n = data.draw(st.integers(2, 30))
        ids = sorted(data.draw(st.sets(st.integers(0, 200), min_size=n, max_size=n)))
        grid = st.sampled_from([0.5 * k for k in range(5)])
        proxy = dict(zip(ids, data.draw(st.lists(grid, min_size=n, max_size=n))))
        labeled = data.draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=n - 1, unique=True)
        )
        # labels are coin flips, or true below a cutoff with one in five flipped
        cut = data.draw(st.one_of(st.none(), grid))
        truth = frozenset(
            i for i in labeled
            if (data.draw(st.booleans()) if cut is None
                else (proxy[i] < cut) != (data.draw(st.integers(0, 4)) == 0))
        )
        r = data.draw(st.one_of(st.sampled_from([proxy[i] for i in labeled]),
                                st.floats(0.0, 2.5)))
        t = data.draw(st.floats(0.0, 1.0))
        delta = data.draw(st.sampled_from([0.05, 0.3, 0.9]))
        expected_set, expected_tau = pqe_pt_bruteforce(ids, proxy, labeled, truth, t, delta, r)
        res = run_pqe_pt(ids, proxy, labeled, truth, t, delta, r)
        assert np.array_equal(res.member_ids, ids_of(expected_set))
        assert res.threshold_used == expected_tau

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_nestedness_in_target(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        n = data.draw(st.integers(4, 30))
        ids = list(range(n))
        proxy = {i: float(d) for i, d in enumerate(rng.uniform(0, 10, size=n))}
        truth = frozenset(int(i) for i in ids if rng.random() < 0.6)
        r = float(rng.uniform(2, 8))
        t1 = data.draw(st.floats(0.0, 1.0))
        t2 = data.draw(st.floats(0.0, 1.0))
        t1, t2 = min(t1, t2), max(t1, t2)
        low = run_pqe_pt(ids, proxy, ids, truth, t1, 0.05, r)
        high = run_pqe_pt(ids, proxy, ids, truth, t2, 0.05, r)
        assert np.isin(high.member_ids, low.member_ids).all()

    def test_calibration_cutoff_applied_to_wider_sample(self):
        # labeled subset picks the cutoff; unlabeled sample ids inside it
        # are swept in
        sample = list(range(8))
        proxy = {0: 0.5, 1: 1.0, 2: 1.4, 3: 1.8, 4: 2.6, 5: 0.75, 6: 1.6, 7: 9.0}
        labeled = [0, 1, 2, 3, 4]
        res = run_pqe_pt(sample, proxy, labeled, {0, 1, 2, 3}, 0.2, 0.05, 2.0)
        # cutoff lands at the radius (last true labeled is at 1.8 < r=2.0)
        assert res.threshold_used == pytest.approx(2.0)
        assert np.array_equal(res.member_ids, [0, 1, 2, 3, 5, 6])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            run_pqe_pt([], {}, [], set(), 0.5, 0.05, 1.0)


def pqe_pt_per_probe(sample_ids, sample_d, labeled_ids, labeled_d, oracle_truth, cfg, r):
    """The selector as it ran before its calibration table: each call
    re-sorts the labeled set and re-scores every candidate cutoff."""
    if not sample_ids.size:
        raise ValueError("empty sample")
    if not labeled_ids.size:
        raise ValueError("empty labeled calibration set")

    order = np.lexsort((labeled_ids, labeled_d))
    lab_ids = labeled_ids[order]
    lab_d = labeled_d[order]
    lab_true = np.isin(lab_ids, oracle_truth.member_ids)
    cum_true = np.cumsum(lab_true)

    ends = np.flatnonzero(np.append(lab_d[1:] != lab_d[:-1], True))
    sizes = np.append(ends + 1, np.searchsorted(lab_d, r, side="right"))
    taus = np.append(lab_d[ends], r)
    if sizes[-1] == 0:
        sizes, taus = sizes[:-1], taus[:-1]
    k_true = cum_true[sizes - 1]
    p_hat = k_true / sizes
    lower = np.maximum(0.0, p_hat - np.sqrt(math.log(1.0 / cfg.delta) / (2.0 * sizes)))
    ok = lower >= cfg.t

    if not ok.any():
        nearest_true = lab_ids[lab_true][:1]
        return NeighborSet(nearest_true, threshold_used=None)

    k_true, p_hat, taus = k_true[ok], p_hat[ok], taus[ok]
    best_tau = float(taus[np.lexsort((taus, p_hat, k_true))[-1]])
    members = sample_ids[sample_d <= best_tau]
    return NeighborSet(members, threshold_used=best_tau)


class TestCalibrationTable:
    """The table's probes against the per-probe selector."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_probes_match_per_probe_reference(self, data):
        # distances from a small grid tie often; the radius sits on a pilot
        # distance, below every one, or anywhere; the pilot may hold no true
        # neighbor, which leaves only the empty fallback (pqe_pt_fixed runs
        # on such a pilot); the truth may hold ids outside the pilot
        n = data.draw(st.integers(1, 30))
        ids = sorted(data.draw(st.sets(st.integers(0, 200), min_size=n, max_size=n)))
        grid = st.sampled_from([0.5 * k for k in range(1, 6)])
        dist = dict(zip(ids, data.draw(st.lists(grid, min_size=n, max_size=n))))
        pilot = sorted(data.draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True)))
        case = data.draw(st.sampled_from(
            ["coin", "no_true", "radius_on_pilot", "radius_below", "outside"]))
        truth = [] if case == "no_true" else [i for i in pilot if data.draw(st.booleans())]
        if case == "outside":
            truth += data.draw(st.lists(st.integers(0, 220).filter(lambda i: i not in pilot),
                                        min_size=1, max_size=5, unique=True))
        if case == "radius_on_pilot":
            r = dist[data.draw(st.sampled_from(pilot))]
        elif case == "radius_below":
            r = data.draw(st.floats(0.0, 0.49))
        else:
            r = data.draw(st.floats(0.0, 3.0))
        delta = data.draw(st.sampled_from([0.05, 0.3, 0.9]))

        sample, pilot = ids_of(ids), ids_of(pilot)
        sample_d = np.array([dist[i] for i in sample.tolist()])
        pilot_d = np.array([dist[i] for i in pilot.tolist()])
        truth = NeighborSet(ids_of(truth), r)
        table = CalibrationTable.build(pilot, pilot_d, truth, delta, r)

        bounds = table.lower
        assert bounds == sorted(bounds) and bounds[-1] < 1.0  # so t = 1.0 falls back
        targets = (bounds + [float(np.nextafter(b, 2)) for b in bounds] + [0.0, 1.0]
                   + data.draw(st.lists(st.floats(0.0, 1.0), max_size=10)))
        for t in targets:
            cfg = SimpleNamespace(t=t, delta=delta)
            want = pqe_pt_per_probe(sample, sample_d, pilot, pilot_d, truth, cfg, r)
            got = table.select(sample, sample_d, t)
            assert np.array_equal(got.member_ids, want.member_ids)
            assert got.threshold_used == want.threshold_used
            on_pilot = pqe_pt_per_probe(pilot, pilot_d, pilot, pilot_d, truth, cfg, r)
            assert table.labeled_prf1(t) == prf1(on_pilot, truth)

    def test_bad_target_fails_on_every_probe(self):
        table = CalibrationTable.build(
            ids_of([0]), np.array([1.0]), NeighborSet(ids_of([0]), 1.5), 0.05, 1.5)
        table.labeled_prf1(0.5)
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError, match="precision target"):
                table.labeled_prf1(bad)
            with pytest.raises(ValueError, match="precision target"):
                table.select(ids_of([0, 1]), np.array([1.0, 2.0]), bad)


def top_k_of(dists, k):
    ids = np.array(list(dists), dtype=np.int64)
    return top_k_baseline(ids, np.array(list(dists.values())), k).member_ids


class TestTopK:
    def test_k_equals_universe(self):
        dists = {0: 3.0, 1: 1.0, 2: 2.0}
        assert np.array_equal(top_k_of(dists, 3), [0, 1, 2])

    def test_k_one_is_nearest(self):
        dists = {0: 3.0, 1: 1.0, 2: 2.0}
        assert np.array_equal(top_k_of(dists, 1), [1])

    def test_tie_at_kth_broken_by_smaller_id(self):
        dists = {0: 1.0, 5: 2.0, 3: 2.0, 7: 2.0}
        assert np.array_equal(top_k_of(dists, 2), [0, 3])

    def test_k_exceeds_universe(self):
        with pytest.raises(ValueError, match="exceeds universe"):
            top_k_of({0: 1.0}, 2)

    def test_zero_noise_rank_preservation(self, clean_ds):
        q = clean_ds.oracle_emb[3]
        on = exact_frnn(clean_ds.ids, clean_ds.oracle_emb, q, 6.0)
        d = np.linalg.norm(clean_ds.proxy_emb - q, axis=1)
        k = len(on)
        ordered = np.sort(d)
        assert ordered[k - 1] < ordered[k]  # distinct k-th and (k+1)-th
        assert np.array_equal(top_k_baseline(clean_ds.ids, d, k).member_ids, on.member_ids)


def prf1_of(selected, truth):
    return prf1(NeighborSet(ids_of(selected)), NeighborSet(ids_of(truth)))


class TestPrf1:
    def test_perfect(self):
        assert prf1_of({1, 2, 3}, {1, 2, 3}) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert prf1_of({1, 2}, {3, 4}) == (0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        p, r, f1 = prf1_of({1, 2, 3, 4}, {1, 2, 3, 5, 6, 7})
        assert (p, r, f1) == (0.75, 0.5, pytest.approx(0.6))

    def test_empty_selection_precision_one(self):
        p, r, f1 = prf1_of(set(), {1, 2})
        assert p == 1.0 and r == 0.0 and f1 == 0.0

    def test_empty_truth_recall_one(self):
        p, r, f1 = prf1_of({1}, set())
        assert p == 0.0 and r == 1.0 and f1 == 0.0

    @given(
        sel=st.frozensets(st.integers(0, 30), max_size=20),
        tru=st.frozensets(st.integers(0, 30), max_size=20),
    )
    def test_f1_between_min_and_max(self, sel, tru):
        p, r, f1 = prf1_of(sel, tru)
        if p + r > 0:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
