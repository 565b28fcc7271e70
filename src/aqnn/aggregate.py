"""Aggregation over neighbor attribute bags and the relative-error metric.

Population estimates scale sample counts by |D|/s: COUNT and SUM multiply
by the population-to-sample ratio, PCT divides the selected count by the
sample size. SUM therefore factors exactly as |D| * PCT_estimate * AVG of
the selected values, which is the decomposition its error bound controls
(a count term and a mean term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNeighborhoodError

AGGREGATIONS = ("AVG", "VAR", "PCT", "COUNT", "SUM")

SCOPE_SAMPLE = "sample_estimate"
SCOPE_TRUTH = "population_truth"


@dataclass(frozen=True)
class AggregationContext:
    """Sample and population sizes plus which scope an aggregate is for."""

    sample_size_s: int
    population_size_D: int
    scope: str = SCOPE_SAMPLE

    def __post_init__(self):
        if self.sample_size_s <= 0 or self.population_size_D <= 0:
            raise ValueError("sizes must be positive")
        if self.sample_size_s > self.population_size_D:
            raise ValueError("sample size cannot exceed population size")
        if self.scope not in (SCOPE_SAMPLE, SCOPE_TRUTH):
            raise ValueError(f"unknown scope {self.scope!r}")


def aggregate(agg: str, values, neighbor_count: int, ctx: AggregationContext) -> float:
    """Aggregate a neighbor attribute bag under the given scope.

    VAR is the population variance (mean squared deviation, no Bessel
    correction). AVG and VAR require a nonempty bag.
    """
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {agg!r}")
    vals = np.asarray(values, dtype=np.float64)
    if neighbor_count != vals.size:
        raise ValueError(f"neighbor_count={neighbor_count} but |values|={vals.size}")

    if agg in ("AVG", "VAR"):
        if vals.size == 0:
            raise DegenerateNeighborhoodError("empty neighborhood")
        if agg == "AVG":
            return float(vals.mean())
        return float(np.mean((vals - vals.mean()) ** 2))

    if agg == "COUNT":
        if ctx.scope == SCOPE_TRUTH:
            return float(neighbor_count)
        return ctx.population_size_D * neighbor_count / ctx.sample_size_s

    if agg == "PCT":
        if ctx.scope == SCOPE_TRUTH:
            return neighbor_count / ctx.population_size_D
        return neighbor_count / ctx.sample_size_s

    # SUM
    total = float(vals.sum())
    if ctx.scope == SCOPE_TRUTH:
        return total
    return ctx.population_size_D / ctx.sample_size_s * total


def relative_error(estimate: float, truth: float) -> float:
    """|estimate - truth| / |truth| as a percentage; undefined at truth 0."""
    if truth == 0:
        raise ValueError("RE undefined for zero truth")
    return abs(estimate - truth) / abs(truth) * 100.0
