"""Aggregation over neighbor attribute bags and the relative-error metric.

Each aggregation has one formula. Population estimates scale sample counts
by |D|/s: COUNT and SUM multiply by the population-to-sample ratio, PCT
divides the selected count by the sample size. SUM therefore factors
exactly as |D| * PCT_estimate * AVG of the selected values, which is the
decomposition its error bound controls (a count term and a mean term). The
ground truth is the same estimate over all of D, at s = |D|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNeighborhoodError

# What each aggregation depends on: the selected values, their count, or both.
# Selection and the size bounds dispatch on it.
SENSITIVITY = {"AVG": "value", "VAR": "value", "PCT": "count", "COUNT": "count", "SUM": "both"}
AGGREGATIONS = tuple(SENSITIVITY)

SCOPE_SAMPLE = "sample_estimate"  # the one scope; kept while callers still pass it


@dataclass(frozen=True)
class AggregationContext:
    """The sample and population sizes an estimate scales between."""

    sample_size_s: int
    population_size_D: int
    scope: str = SCOPE_SAMPLE

    def __post_init__(self):
        if self.sample_size_s <= 0 or self.population_size_D <= 0:
            raise ValueError("sizes must be positive")
        if self.sample_size_s > self.population_size_D:
            raise ValueError("sample size cannot exceed population size")
        if self.scope != SCOPE_SAMPLE:
            raise ValueError(f"unknown scope {self.scope!r}")


def aggregate(agg: str, values, neighbor_count: int, ctx: AggregationContext) -> float:
    """Estimate an aggregation from the neighbor attribute bag of a sample.

    VAR is the population variance (mean squared deviation, no Bessel
    correction). AVG and VAR require a nonempty bag.
    """
    if agg not in SENSITIVITY:
        raise ValueError(f"unknown aggregation {agg!r}")
    vals = np.asarray(values, dtype=np.float64)
    if neighbor_count != vals.size:
        raise ValueError(f"neighbor_count={neighbor_count} but |values|={vals.size}")

    if SENSITIVITY[agg] == "value":
        if vals.size == 0:
            raise DegenerateNeighborhoodError("empty neighborhood")
        if agg == "AVG":
            return float(vals.mean())
        return float(np.mean((vals - vals.mean()) ** 2))
    if agg == "COUNT":
        return ctx.population_size_D * neighbor_count / ctx.sample_size_s
    if agg == "PCT":
        return neighbor_count / ctx.sample_size_s
    return ctx.population_size_D / ctx.sample_size_s * float(vals.sum())  # SUM


def relative_error(estimate: float, truth: float) -> float:
    """|estimate - truth| / |truth| as a percentage; undefined at truth 0."""
    if truth == 0:
        raise ValueError("RE undefined for zero truth")
    return abs(estimate - truth) / abs(truth) * 100.0
