"""Closed-form minimum sample and pilot sizes for target error tolerances.

Each calculator answers: how large must the sample s and the oracle-labeled
pilot s_p be so the estimate lands within omega_s + omega_nn of the truth
with probability at least 1 - alpha. The calculators are pure arithmetic
over :class:`BoundsInput`; estimating inputs such as the neighborhood
density from data is the caller's job. Sizes are ceilings of the raw
bounds, with exact integers kept as-is.

Value-sensitive aggregates (AVG, VAR) control selection error through the
pilot-vs-sample F1 gap tolerance ``lambda_``; count-sensitive ones (PCT,
COUNT) through the precision-recall balance tolerance ``omega_c``. SUM
takes the max of a count-driven and a mean-driven requirement on both
sizes. The selection-error tolerance a given ``lambda_`` implies is
reported back as ``omega_nn_implied`` for value-sensitive aggregates.
``min_sizes`` picks the calculator from the aggregation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import require_finite

_DATA_BOUNDS_WARNING = (
    "attribute bounds were derived from the data; they enter the error "
    "guarantee, so supply population-level bounds when available"
)


@dataclass(frozen=True)
class BoundsInput:
    alpha: float = 0.05
    rho: float = 1.0  # neighborhood density |ON_S| / |S|
    a: float = 0.0  # attribute lower bound
    b: float = 1.0  # attribute upper bound
    omega_s: float = 0.05  # sampling-error tolerance
    omega_nn: float = 0.1  # selection-error tolerance
    omega_c: float = 0.0  # precision-recall gap tolerance
    lambda_: float = 1.0  # pilot-vs-sample F1 gap tolerance
    population_size_D: int = 1
    on_s_size: int | None = None  # |ON_S|; defaults to round(rho * s)
    avg_s_abs: float | None = None  # |AVG_S| magnitude estimate (SUM)
    on_d_size: int | None = None  # |ON_D| estimate (SUM)
    bounds_data_derived: bool = False

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.omega_s <= 0:
            raise ValueError("omega_s must be positive")
        if self.omega_nn <= 0:
            raise ValueError("omega_nn must be positive")
        if self.omega_c < 0:
            raise ValueError("omega_c must be nonnegative")
        if self.lambda_ <= 0:
            raise ValueError("lambda_ must be positive")
        if self.population_size_D < 1:
            raise ValueError("population_size_D must be at least 1")


@dataclass(frozen=True)
class BoundsOutput:
    s_min: int
    s_p_min: int
    omega_nn_implied: float | None = None
    reconciled: bool = False
    details: dict[str, float] = field(default_factory=dict)


def _require_span(inp: BoundsInput) -> float:
    if not inp.a < inp.b:
        raise ValueError("attribute bounds must satisfy a < b")
    if inp.bounds_data_derived:
        warnings.warn(_DATA_BOUNDS_WARNING, stacklevel=3)
    return inp.b - inp.a


def min_sizes_value(agg: str, inp: BoundsInput) -> BoundsOutput:
    """Minimum sizes for value-sensitive aggregates (AVG, VAR)."""
    if agg not in ("AVG", "VAR"):
        raise ValueError(f"value-sensitive calculator got {agg!r}")
    span = _require_span(inp)
    ln2a = math.log(2.0 / inp.alpha)

    if agg == "AVG":
        kappa1 = span**2 * ln2a / (2.0 * inp.rho)
    else:
        kappa1 = span**4 * ln2a / (2.0 * inp.rho)
    kappa2 = 32.0 * ln2a

    s_raw = kappa1 / inp.omega_s**2
    sp_raw = kappa2 / inp.lambda_**2
    s_min = max(1, math.ceil(s_raw))
    s_p_min = max(1, math.ceil(sp_raw))

    on_s = inp.on_s_size if inp.on_s_size is not None else max(1, round(inp.rho * s_min))
    if on_s < 1:
        raise ValueError("on_s_size must be at least 1")
    if agg == "AVG":
        c1, c2 = 2.0 * span / on_s, 0.0
    else:
        c1, c2 = 3.0 * span**2 / on_s, span**2 / on_s
    omega_nn_implied = c1 * inp.lambda_ + c2 * inp.lambda_**2

    return BoundsOutput(
        s_min=s_min,
        s_p_min=s_p_min,
        omega_nn_implied=omega_nn_implied,
        details={
            "kappa1": kappa1,
            "kappa2": kappa2,
            "s_raw": s_raw,
            "s_p_raw": sp_raw,
            "c1": c1,
            "c2": c2,
            "on_s_size": float(on_s),
        },
    )


def min_sizes_count(agg: str, inp: BoundsInput) -> BoundsOutput:
    """Minimum sizes for count-sensitive aggregates (PCT, COUNT)."""
    if agg not in ("PCT", "COUNT"):
        raise ValueError(f"count-sensitive calculator got {agg!r}")
    ln2a = math.log(2.0 / inp.alpha)

    if agg == "PCT":
        kappa1 = 0.5 * ln2a
    else:
        kappa1 = inp.population_size_D**2 / 2.0 * ln2a
    kappa2 = 2.0 * ln2a / inp.rho**2

    denom = inp.omega_nn - inp.rho * inp.omega_c
    if denom <= 0:
        raise ValueError("omega_nn must exceed rho*omega_c")

    s_raw = kappa1 / inp.omega_s**2
    sp_raw = kappa2 / denom**2
    return BoundsOutput(
        s_min=max(1, math.ceil(s_raw)),
        s_p_min=max(1, math.ceil(sp_raw)),
        details={"kappa1": kappa1, "kappa2": kappa2, "s_raw": s_raw, "s_p_raw": sp_raw},
    )


def min_sizes_sum(inp: BoundsInput) -> BoundsOutput:
    """Minimum sizes for SUM: the max of count-driven and mean-driven terms.

    The count-side selection tolerance rescales omega_nn by s / (2 |D|
    |AVG_S|); the sample size that enters that rescaling is the one this
    very calculator produces, so the computed s_min is substituted. Callers
    estimating |AVG_S| from a pilot inherit that circularity.
    """
    span = _require_span(inp)
    if inp.avg_s_abs is None or inp.avg_s_abs <= 0:
        raise ValueError("avg_s_abs (positive |AVG_S| estimate) is required for SUM")
    if inp.on_d_size is None or inp.on_d_size < 1:
        raise ValueError("on_d_size (|ON_D| estimate >= 1) is required for SUM")

    ln4a = math.log(4.0 / inp.alpha)
    ln2a = math.log(2.0 / inp.alpha)
    d = inp.population_size_D

    s_count = 2.0 * d**2 * inp.avg_s_abs**2 * ln4a / inp.omega_s**2
    s_avg = 2.0 * span**2 * inp.on_d_size**2 * ln4a / inp.omega_s**2
    s_min = max(1, math.ceil(max(s_count, s_avg)))

    omega_nn_sum = inp.omega_nn * s_min / (2.0 * d * inp.avg_s_abs)
    denom = omega_nn_sum - inp.rho * inp.omega_c
    if denom <= 0:
        raise ValueError("rescaled omega_nn must exceed rho*omega_c")

    kappa2_count = 2.0 * ln2a / inp.rho**2
    kappa2_avg = 32.0 * ln2a
    sp_count = kappa2_count / denom**2
    sp_avg = kappa2_avg / inp.lambda_**2
    s_p_min = max(1, math.ceil(max(sp_count, sp_avg)))

    return BoundsOutput(
        s_min=s_min,
        s_p_min=s_p_min,
        details={
            "s_count": s_count,
            "s_avg": s_avg,
            "s_p_count": sp_count,
            "s_p_avg": sp_avg,
            "omega_nn_sum": omega_nn_sum,
        },
    )


def min_sizes(agg: str, inp: BoundsInput) -> BoundsOutput:
    """Minimum sizes from the calculator matching the aggregation's sensitivity."""
    if agg in ("AVG", "VAR"):
        return min_sizes_value(agg, inp)
    if agg in ("PCT", "COUNT"):
        return min_sizes_count(agg, inp)
    if agg == "SUM":
        return min_sizes_sum(inp)
    raise ValueError(f"unknown aggregation {agg!r}")


def reconcile_sizes(out: BoundsOutput) -> BoundsOutput:
    """Enforce s >= s_p by raising s to the pilot bound when it is smaller."""
    if out.s_p_min <= out.s_min:
        return out
    return BoundsOutput(
        s_min=out.s_p_min,
        s_p_min=out.s_p_min,
        omega_nn_implied=out.omega_nn_implied,
        reconciled=True,
        details=dict(out.details),
    )
