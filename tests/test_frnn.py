import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqnn import (
    DataError,
    NeighborSet,
    PrecisionTargetConfig,
    dist,
    exact_frnn,
    pqe_pt,
    prf1,
    top_k_baseline,
)
from aqnn.frnn import distances_from


class TestDist:
    def test_euclidean_3_4_5(self):
        assert dist("euclidean", [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_cosine_identity(self):
        for v in ([1.0, 2.0], [0.5, -3.0, 2.0]):
            assert dist("cosine", v, v) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert dist("cosine", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_cosine_opposite_is_two(self):
        assert dist("cosine", [1.0, 0.0], [-2.0, 0.0]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dist("euclidean", [1.0], [1.0, 2.0])

    def test_cosine_zero_vector(self):
        with pytest.raises(DataError, match="zero"):
            dist("cosine", [0.0, 0.0], [1.0, 0.0])

    def test_cosine_zero_row_is_data_error(self):
        with pytest.raises(DataError, match="zero"):
            distances_from("cosine", [1.0, 0.0], np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="zero"):
            distances_from("cosine", [0.0, 0.0], np.array([[1.0, 1.0]]))

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            dist("manhattan", [0.0], [1.0])


class TestExactFrnn:
    def test_radius_zero_exact_matches_only(self, tiny_ds):
        res = exact_frnn(tiny_ds.ids, tiny_ds.oracle_emb, [0.0, 0.0], 0.0)
        assert res.member_ids == {0}

    def test_huge_radius_returns_universe(self, tiny_ds):
        res = exact_frnn(tiny_ds.ids, tiny_ds.oracle_emb, [0.0, 0.0], 1e9)
        assert res.member_ids == set(range(len(tiny_ds)))

    def test_boundary_included(self, tiny_ds):
        # object 5 sits at exactly distance 5 from the origin
        res = exact_frnn(tiny_ds.ids, tiny_ds.oracle_emb, [0.0, 0.0], 5.0)
        assert 5 in res.member_ids

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
        assert small.member_ids <= large.member_ids


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
        truth_set = NeighborSet(truth, "oracle", "exact_frnn", r)
        # targets up to the certifiable ceiling 1 - sqrt(ln(1/delta)/(2 n_true))
        ceiling = 1.0 - math.sqrt(math.log(1 / 0.05) / (2 * len(truth)))
        assert ceiling > 0.8
        for t in (0.0, 0.3, 0.6, 0.8, ceiling):
            res = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t=t), r)
            assert res.member_ids == truth
            assert res.threshold_used == pytest.approx(r)

    def test_zero_noise_subset_property_any_target(self):
        ids, proxy, truth, r = self._clean_instance()
        truth_set = NeighborSet(truth, "oracle", "exact_frnn", r)
        for t in np.linspace(0.0, 1.0, 21):
            res = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t=float(t)), r)
            assert res.member_ids <= truth

    def test_vacuous_target_picks_maximal_supported_cutoff(self):
        # with t = 0 every cutoff qualifies; the winner still ends on a true
        # neighbor, which at zero noise admits the full true set
        ids, proxy, truth, r = self._clean_instance()
        truth_set = NeighborSet(truth, "oracle", "exact_frnn", r)
        res = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t=0.0), r)
        assert res.member_ids == truth

    def test_fallback_singleton_nearest_true(self):
        # tiny labeled set: no cutoff can certify a 0.99 target
        ids = [0, 1, 2, 3]
        proxy = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        truth_set = NeighborSet(frozenset({1, 2}), "oracle", "exact_frnn", 10.0)
        res = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t=0.99), 10.0)
        assert res.member_ids == {1}
        assert res.threshold_used is None

    def test_fallback_empty_without_true_neighbors(self):
        ids = [0, 1]
        proxy = {0: 1.0, 1: 2.0}
        truth_set = NeighborSet(frozenset(), "oracle", "exact_frnn", 0.5)
        res = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t=0.9), 0.5)
        assert res.member_ids == frozenset()

    def test_crafted_misranked_matches_bruteforce(self):
        # ten labeled points, two proxy-misranked (true neighbors pushed
        # beyond two false ones in proxy order)
        ids = list(range(10))
        proxy = {0: 0.5, 1: 1.0, 2: 1.5, 3: 2.0, 4: 2.5,
                 5: 3.0, 6: 3.5, 7: 4.0, 8: 4.5, 9: 5.0}
        truth = frozenset({0, 1, 2, 3, 5, 7})  # 4 and 6 are misranked falses
        truth_set = NeighborSet(truth, "oracle", "exact_frnn", 2.2)
        t, delta, r = 0.8, 0.05, 2.2
        expected_set, expected_tau = pqe_pt_bruteforce(
            ids, proxy, ids, truth, t, delta, r
        )
        res = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t, delta), r)
        assert res.member_ids == expected_set
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
        truth_set = NeighborSet(truth, "oracle", "exact_frnn", r)
        expected_set, _ = pqe_pt_bruteforce(ids, proxy, ids, truth, t, delta, r)
        res = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t, delta), r)
        assert res.member_ids == expected_set

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_nestedness_in_target(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        n = data.draw(st.integers(4, 30))
        ids = list(range(n))
        proxy = {i: float(d) for i, d in enumerate(rng.uniform(0, 10, size=n))}
        truth = frozenset(int(i) for i in ids if rng.random() < 0.6)
        r = float(rng.uniform(2, 8))
        truth_set = NeighborSet(truth, "oracle", "exact_frnn", r)
        t1 = data.draw(st.floats(0.0, 1.0))
        t2 = data.draw(st.floats(0.0, 1.0))
        t1, t2 = min(t1, t2), max(t1, t2)
        low = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t1), r)
        high = pqe_pt(ids, proxy, ids, truth_set, PrecisionTargetConfig(t2), r)
        assert high.member_ids <= low.member_ids

    def test_calibration_cutoff_applied_to_wider_sample(self):
        # labeled subset picks the cutoff; unlabeled sample ids inside it
        # are swept in
        sample = list(range(8))
        proxy = {0: 0.5, 1: 1.0, 2: 1.4, 3: 1.8, 4: 2.6, 5: 0.75, 6: 1.6, 7: 9.0}
        labeled = [0, 1, 2, 3, 4]
        truth_set = NeighborSet(frozenset({0, 1, 2, 3}), "oracle", "exact_frnn", 2.0)
        res = pqe_pt(sample, proxy, labeled, truth_set, PrecisionTargetConfig(0.2), 2.0)
        # cutoff lands at the radius (last true labeled is at 1.8 < r=2.0)
        assert res.threshold_used == pytest.approx(2.0)
        assert res.member_ids == {0, 1, 2, 3, 5, 6}

    def test_empty_sample_rejected(self):
        truth_set = NeighborSet(frozenset(), "oracle", "exact_frnn", 1.0)
        with pytest.raises(ValueError, match="empty sample"):
            pqe_pt([], {}, [], truth_set, PrecisionTargetConfig(0.5), 1.0)


class TestTopK:
    def test_k_equals_universe(self):
        dists = {0: 3.0, 1: 1.0, 2: 2.0}
        assert top_k_baseline(dists, 3).member_ids == {0, 1, 2}

    def test_k_one_is_nearest(self):
        dists = {0: 3.0, 1: 1.0, 2: 2.0}
        assert top_k_baseline(dists, 1).member_ids == {1}

    def test_tie_at_kth_broken_by_smaller_id(self):
        dists = {0: 1.0, 5: 2.0, 3: 2.0, 7: 2.0}
        assert top_k_baseline(dists, 2).member_ids == {0, 3}

    def test_k_exceeds_universe(self):
        with pytest.raises(ValueError, match="exceeds universe"):
            top_k_baseline({0: 1.0}, 2)

    def test_zero_noise_rank_preservation(self, clean_ds):
        q = clean_ds.oracle_emb[3]
        on = exact_frnn(clean_ds.ids, clean_ds.oracle_emb, q, 6.0)
        d = np.linalg.norm(clean_ds.proxy_emb - q, axis=1)
        dists = {int(i): float(x) for i, x in enumerate(d)}
        k = len(on)
        ordered = np.sort(d)
        assert ordered[k - 1] < ordered[k]  # distinct k-th and (k+1)-th
        assert top_k_baseline(dists, k).member_ids == on.member_ids


class TestPrf1:
    def test_perfect(self):
        assert prf1({1, 2, 3}, {1, 2, 3}) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert prf1({1, 2}, {3, 4}) == (0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        p, r, f1 = prf1({1, 2, 3, 4}, {1, 2, 3, 5, 6, 7})
        assert (p, r, f1) == (0.75, 0.5, pytest.approx(0.6))

    def test_empty_selection_precision_one(self):
        p, r, f1 = prf1(set(), {1, 2})
        assert p == 1.0 and r == 0.0 and f1 == 0.0

    def test_empty_truth_recall_one(self):
        p, r, f1 = prf1({1}, set())
        assert p == 0.0 and r == 1.0 and f1 == 0.0

    @given(
        sel=st.frozensets(st.integers(0, 30), max_size=20),
        tru=st.frozensets(st.integers(0, 30), max_size=20),
    )
    def test_f1_between_min_and_max(self, sel, tru):
        p, r, f1 = prf1(sel, tru)
        if p + r > 0:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
