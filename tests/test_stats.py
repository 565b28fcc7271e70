import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from aqnn import Hypothesis, ht_accuracy, t_test_one_sample, z_test_proportion
from aqnn.stats import norm_cdf, regularized_incomplete_beta, t_cdf

# scipy is the independent reference implementation throughout this module.

_OP_TO_SCIPY = {"ge": "less", "le": "greater", "ne": "two-sided"}
# a fixed seed per op; hash(op) is salted per process (PYTHONHASHSEED)
_OP_SEED = {"ge": 1, "le": 2, "ne": 3}


class TestTCdfKernel:
    @pytest.mark.parametrize("df", [1, 2, 5, 29, 100, 500])
    @pytest.mark.parametrize("t", [-12.0, -3.2, -0.5, 0.0, 0.7, 2.4, 9.0])
    def test_matches_reference(self, df, t):
        assert t_cdf(t, df) == pytest.approx(sps.t.cdf(t, df), abs=1e-10)

    def test_incomplete_beta_reference(self):
        from scipy.special import betainc

        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(0.1, 50, size=2)
            x = rng.uniform(0, 1)
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                betainc(a, b, x), abs=1e-10
            )

    def test_norm_cdf_reference(self):
        for z in (-8.0, -1.96, 0.0, 1.645, 6.0):
            assert norm_cdf(z) == pytest.approx(sps.norm.cdf(z), abs=1e-12)


class TestTTest:
    def test_mean_equals_constant(self):
        values = [1.0, 2.0, 3.0]  # mean exactly 2
        d = t_test_one_sample(values, Hypothesis(agg="AVG", op="ne", c=2.0))
        assert d.statistic == 0.0
        assert d.p_value == pytest.approx(1.0)
        assert not d.reject_null

    def test_strong_rejection_case(self):
        # n=30 with mean 78, sd 10 against c=100: statistic near -12.05
        rng = np.random.default_rng(11)
        values = rng.normal(0, 1, 30)
        values = (values - values.mean()) / values.std(ddof=1) * 10.0 + 78.0
        d = t_test_one_sample(values, Hypothesis(agg="AVG", op="ge", c=100.0))
        assert d.statistic == pytest.approx(-12.0499, abs=1e-3)
        assert d.reject_null
        ref_t, ref_p = sps.ttest_1samp(values, 100.0, alternative="less")
        assert d.statistic == pytest.approx(ref_t, abs=1e-8)
        assert d.p_value == pytest.approx(ref_p, abs=1e-8)

    def test_single_value_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            t_test_one_sample([1.0], Hypothesis(agg="AVG", op="ne", c=0.0))

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError, match="zero sample standard deviation"):
            t_test_one_sample([2.0, 2.0, 2.0], Hypothesis(agg="AVG", op="ne", c=0.0))

    @pytest.mark.parametrize("op", ["ge", "le", "ne"])
    def test_randomized_against_reference(self, op):
        rng = np.random.default_rng(_OP_SEED[op])
        for _ in range(20):
            n = int(rng.integers(3, 200))
            values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), n)
            c = float(rng.uniform(-6, 6))
            d = t_test_one_sample(values, Hypothesis(agg="AVG", op=op, c=c))
            ref_t, ref_p = sps.ttest_1samp(values, c, alternative=_OP_TO_SCIPY[op])
            assert d.statistic == pytest.approx(ref_t, abs=1e-8)
            assert d.p_value == pytest.approx(ref_p, abs=1e-8)

    def test_two_sided_doubles_smaller_tail(self):
        rng = np.random.default_rng(4)
        values = rng.normal(1.0, 2.0, 25)
        left = t_test_one_sample(values, Hypothesis(agg="AVG", op="ge", c=1.5))
        right = t_test_one_sample(values, Hypothesis(agg="AVG", op="le", c=1.5))
        two = t_test_one_sample(values, Hypothesis(agg="AVG", op="ne", c=1.5))
        assert two.p_value == pytest.approx(2 * min(left.p_value, right.p_value))

    @given(
        shift=st.floats(-3, 3),
        scale=st.floats(0.1, 10),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40)
    def test_decision_invariant_under_affine_rescaling(self, shift, scale, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 20)
        c = 0.3
        base = t_test_one_sample(values, Hypothesis(agg="AVG", op="ne", c=c))
        moved = t_test_one_sample(
            values * scale + shift, Hypothesis(agg="AVG", op="ne", c=c * scale + shift)
        )
        assert base.reject_null == moved.reject_null
        assert base.p_value == pytest.approx(moved.p_value, rel=1e-6, abs=1e-9)


class TestZTest:
    def test_p_hat_equals_constant(self):
        d = z_test_proportion(0.4, 100, Hypothesis(agg="PCT", op="ne", c=0.4))
        assert d.statistic == 0.0
        assert not d.reject_null

    def test_reference_rejection_case(self):
        d = z_test_proportion(0.5, 100, Hypothesis(agg="PCT", op="le", c=0.4))
        assert d.statistic == pytest.approx(2.0412, abs=1e-3)
        assert d.reject_null

    def test_degenerate_constant_rejected(self):
        with pytest.raises(ValueError):
            z_test_proportion(0.5, 100, Hypothesis(agg="PCT", op="ne", c=0.0))

    def test_approximation_preconditions_named(self):
        with pytest.raises(ValueError, match=r"n\*c"):
            z_test_proportion(0.5, 20, Hypothesis(agg="PCT", op="ne", c=0.1))
        with pytest.raises(ValueError, match=r"n\*\(1-c\)"):
            z_test_proportion(0.5, 20, Hypothesis(agg="PCT", op="ne", c=0.9))

    @pytest.mark.parametrize("op", ["ge", "le", "ne"])
    def test_randomized_against_reference(self, op):
        rng = np.random.default_rng(_OP_SEED[op])
        for _ in range(20):
            n = int(rng.integers(30, 2000))
            c = float(rng.uniform(0.1, 0.9))
            p_hat = float(rng.uniform(0, 1))
            h = Hypothesis(agg="PCT", op=op, c=c)
            if min(n * c, n * (1 - c)) < 5.0:  # the normal approximation does not hold
                with pytest.raises(ValueError, match="normal approximation invalid"):
                    z_test_proportion(p_hat, n, h)
                continue
            d = z_test_proportion(p_hat, n, h)
            ref_stat = (p_hat - c) / math.sqrt(c * (1 - c) / n)
            if op == "ge":
                ref_p = sps.norm.cdf(ref_stat)
            elif op == "le":
                ref_p = sps.norm.sf(ref_stat)
            else:
                ref_p = 2 * min(sps.norm.cdf(ref_stat), sps.norm.sf(ref_stat))
            assert d.statistic == pytest.approx(ref_stat, abs=1e-8)
            assert d.p_value == pytest.approx(ref_p, abs=1e-8)


class TestHtAccuracy:
    def test_identical_lists(self):
        assert ht_accuracy([True] * 30, [True] * 30) == 1.0

    def test_fully_discordant(self):
        assert ht_accuracy([True] * 10, [False] * 10) == 0.0

    def test_27_of_30(self):
        est = [True] * 27 + [False] * 3
        true = [True] * 30
        assert ht_accuracy(est, true) == pytest.approx(0.9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ht_accuracy([True], [True, False])

    @given(st.lists(st.booleans(), min_size=1, max_size=50), st.integers(0, 10**6))
    def test_symmetry(self, xs, seed):
        rng = np.random.default_rng(seed)
        ys = [bool(rng.integers(0, 2)) for _ in xs]
        assert ht_accuracy(xs, ys) == ht_accuracy(ys, xs)


class TestHypothesisValidation:
    def test_unknown_op(self):
        with pytest.raises(ValueError):
            Hypothesis(agg="AVG", op="gt", c=0.0)

    def test_pct_constant_range(self):
        with pytest.raises(ValueError):
            Hypothesis(agg="PCT", op="ne", c=1.5)
