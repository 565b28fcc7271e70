import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqnn import AggregationContext, DegenerateNeighborhoodError, aggregate, relative_error
from aqnn.aggregate import AGGREGATIONS

TRUTH_CTX = AggregationContext(sample_size_s=10, population_size_D=10)

# Three heart-rate values per the worked neighborhood example: the oracle
# neighborhood totals 234 (mean 78); the proxy one swaps a 78 for a 100,
# totalling 256, while the count stays 3.
ORACLE_BAG = [78.0, 76.0, 80.0]
PROXY_BAG = [76.0, 80.0, 100.0]


class TestAggregate:
    def test_avg_oracle_bag(self):
        assert aggregate("AVG", ORACLE_BAG, 3, TRUTH_CTX) == pytest.approx(78.0)

    def test_sum_inflated_by_false_positive(self):
        assert aggregate("SUM", ORACLE_BAG, 3, TRUTH_CTX) == pytest.approx(234.0)
        assert aggregate("SUM", PROXY_BAG, 3, TRUTH_CTX) == pytest.approx(256.0)

    def test_count_insensitive_to_composition(self):
        assert aggregate("COUNT", ORACLE_BAG, 3, TRUTH_CTX) == 3.0
        assert aggregate("COUNT", PROXY_BAG, 3, TRUTH_CTX) == 3.0

    def test_var_of_constant_bag_is_zero(self):
        assert aggregate("VAR", [5.0, 5.0, 5.0], 3, TRUTH_CTX) == 0.0

    def test_var_population_convention(self):
        # divide by n, not n-1
        assert aggregate("VAR", [1.0, 3.0], 2, TRUTH_CTX) == pytest.approx(1.0)

    def test_avg_empty_bag_degenerate(self):
        with pytest.raises(DegenerateNeighborhoodError, match="empty neighborhood"):
            aggregate("AVG", [], 0, TRUTH_CTX)

    def test_var_empty_bag_degenerate(self):
        with pytest.raises(DegenerateNeighborhoodError):
            aggregate("VAR", [], 0, TRUTH_CTX)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="neighbor_count"):
            aggregate("AVG", [1.0, 2.0], 3, TRUTH_CTX)

    def test_sample_scope_scaling(self):
        ctx = AggregationContext(sample_size_s=50, population_size_D=1000)
        vals = [2.0, 4.0, 6.0]
        assert aggregate("PCT", vals, 3, ctx) == pytest.approx(3 / 50)
        assert aggregate("COUNT", vals, 3, ctx) == pytest.approx(1000 * 3 / 50)
        assert aggregate("SUM", vals, 3, ctx) == pytest.approx(1000 / 50 * 12.0)

    def test_truth_scope_pct(self):
        ctx = AggregationContext(sample_size_s=1000, population_size_D=1000)
        assert aggregate("PCT", [0.0] * 30, 30, ctx) == pytest.approx(0.03)

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        s=st.integers(1, 500),
        d=st.integers(500, 5000),
    )
    def test_sum_factorizes_as_size_pct_avg(self, values, s, d):
        n = len(values)
        if n > s:
            return
        ctx = AggregationContext(sample_size_s=s, population_size_D=d)
        total = aggregate("SUM", values, n, ctx)
        pct = aggregate("PCT", values, n, ctx)
        avg = aggregate("AVG", values, n, ctx)
        assert total == pytest.approx(d * pct * avg, rel=1e-12, abs=1e-9)

    @given(values=st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    def test_var_nonnegative_avg_within_range(self, values):
        assert aggregate("VAR", values, len(values), TRUTH_CTX) >= 0.0
        avg = aggregate("AVG", values, len(values), TRUTH_CTX)
        assert min(values) - 1e-9 <= avg <= max(values) + 1e-9


def reference_aggregate(agg, values, neighbor_count, s, d, truth_scope):
    """``aggregate`` as it was with two scopes: the population truth had a
    formula of its own for COUNT, PCT and SUM; the sample estimate scaled
    by |D|/s."""
    vals = np.asarray(values, dtype=np.float64)
    if agg in ("AVG", "VAR"):
        if vals.size == 0:
            raise DegenerateNeighborhoodError("empty neighborhood")
        if agg == "AVG":
            return float(vals.mean())
        return float(np.mean((vals - vals.mean()) ** 2))
    if agg == "COUNT":
        return float(neighbor_count) if truth_scope else d * neighbor_count / s
    if agg == "PCT":
        return neighbor_count / d if truth_scope else neighbor_count / s
    total = float(vals.sum())
    return total if truth_scope else d / s * total


def outcome(run):
    try:
        return run()
    except DegenerateNeighborhoodError as exc:
        return str(exc)


@settings(max_examples=300)
@given(data=st.data(), agg=st.sampled_from(AGGREGATIONS), d=st.integers(1, 10**6))
def test_estimate_at_full_sample_is_the_truth(data, agg, d):
    # the one estimate rule at s = |D| equals the old truth formula bit for
    # bit; bags are arbitrary short lists or constant bags up to |D| long
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.floats(-1e6, 1e6), max_size=min(d, 40)))
    else:
        values = np.full(data.draw(st.integers(0, d)), data.draw(st.floats(-1e6, 1e6)))
    n = len(values)
    got = outcome(lambda: aggregate(agg, values, n, AggregationContext(d, d)))
    assert got == outcome(lambda: reference_aggregate(agg, values, n, d, d, truth_scope=True))
    assert got == outcome(lambda: reference_aggregate(agg, values, n, d, d, truth_scope=False))


class TestRelativeError:
    def test_exact_estimate(self):
        assert relative_error(78.0, 78.0) == 0.0

    def test_proxy_bag_mean_error(self):
        # 256/3 vs 78 -> 9.40 percent
        assert relative_error(256.0 / 3.0, 78.0) == pytest.approx(9.40, abs=0.005)

    def test_zero_estimate(self):
        assert relative_error(0.0, 5.0) == pytest.approx(100.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="zero truth"):
            relative_error(1.0, 0.0)

    @given(
        a=st.floats(-1e6, 1e6),
        b=st.floats(-1e6, 1e6).filter(lambda x: abs(x) > 1e-9),
        k=st.floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-9),
    )
    def test_scale_invariance(self, a, b, k):
        assert relative_error(k * a, k * b) == pytest.approx(
            relative_error(a, b), rel=1e-9, abs=1e-9
        )
