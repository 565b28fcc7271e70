"""Exception types shared across the package, and the finiteness rule
for the floats a caller supplies."""

import math
from dataclasses import fields


class AqnnError(Exception):
    """Base class for all package-specific errors."""


class UsageError(AqnnError):
    """Bad command-line usage or invalid flag combination (exit code 1)."""


class DataError(AqnnError):
    """Malformed or inconsistent dataset input (exit code 2)."""


class DegenerateNeighborhoodError(AqnnError):
    """A neighborhood too empty to aggregate over (exit code 3)."""


def require_finite(config) -> None:
    """Raise ``ValueError`` naming the first field of the dataclass ``config``
    that holds a NaN or infinite float, alone or inside a tuple or list."""
    for f in fields(config):
        value = getattr(config, f.name)
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {value}")
