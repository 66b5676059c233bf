"""Small value types shared across modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComplexValue:
    """A complex double together with an absolute-error estimate.

    The estimate is heuristic-but-tested (series remainder bounds plus a
    rounding term), not an interval-arithmetic enclosure.
    """

    value: complex
    err: float

    def __abs__(self) -> float:
        return abs(self.value)

    def __complex__(self) -> complex:
        return self.value


@dataclass(frozen=True)
class TailBoundedSum:
    """Partial sum of a positive series with a proven tail bound.

    The true sum lies in [value, value + tail_bound].
    """

    value: float
    tail_bound: float
    cutoff: int

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound
