"""Closed integer intervals [lo, hi].

Quantities that depend on Ramsey numbers whose exact value is open are
carried as intervals; exactly known values are degenerate intervals with
lo == hi.  Addition and subtraction are exact interval arithmetic; max
acts endpointwise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class IntInterval:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: int) -> "IntInterval":
        return cls(value, value)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other: "IntInterval | int") -> "IntInterval":
        if isinstance(other, int):
            other = IntInterval.point(other)
        return IntInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other: "IntInterval | int") -> "IntInterval":
        if isinstance(other, int):
            other = IntInterval.point(other)
        return IntInterval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other: int) -> "IntInterval":
        return IntInterval.point(other) - self

    def __str__(self) -> str:
        if self.exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


def interval_max(*items: IntInterval) -> IntInterval:
    """Endpointwise maximum: [max of lows, max of highs]."""
    if not items:
        raise ValueError("interval_max of no intervals")
    return IntInterval(max(i.lo for i in items), max(i.hi for i in items))


def interval_sum(items) -> IntInterval:
    """Sum of intervals; empty sum is the exact 0."""
    total = IntInterval.point(0)
    for item in items:
        total = total + item
    return total
