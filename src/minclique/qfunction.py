"""The clique-correction function q and its bounded-parts variant.

q(k) is the minimum, over all ways of writing k as an ordered-irrelevant
sum of positive parts k_1 + ... + k_s, of the total block cost
sum_i (small_omega(2 k_i + 1) - 1).  Costs are intervals wherever the
underlying Ramsey values are only bracketed, and the minimum folds
endpointwise, so q(k) is itself an interval (degenerate when exact).

Computed by one bottom-up dynamic program over the largest part allowed
(an unbounded knapsack over parts; the bounded variant adds one row per
allowed part), so each partition is counted once, in descending order.
Certificates achieve the interval's lower endpoint under optimistic costs
and break ties by fewest parts, then lexicographically largest part
vector.  A certificate whose value is not exact is flagged conditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf

from .intervals import IntInterval, interval_sum
from .ramsey import small_omega
from .reports import FAIL, INDETERMINATE, PASS, CheckResult


@lru_cache(maxsize=None)
def block_cost(j: int) -> IntInterval:
    """Cost of a single part j: least clique number on 2j + 1 vertices with
    independence number <= 2, minus one."""
    return small_omega(2 * j + 1) - 1


@dataclass(frozen=True)
class QCertificate:
    k: int
    parts: tuple[int, ...]
    part_values: tuple[IntInterval, ...]
    total: IntInterval
    conditional: bool  # true when q(k) itself is not exactly determined

    def __post_init__(self) -> None:
        if sum(self.parts) != self.k or any(p < 1 for p in self.parts):
            raise ValueError("certificate parts must be positive and sum to k")
        if interval_sum(self.part_values) != self.total:
            raise ValueError("certificate total must be the sum of its part values")


def _minimize(k: int, s_max: int) -> tuple[IntInterval, QCertificate]:
    """Bottom-up over the largest part p = 1..k: after round p, entry r of
    row j is the best partition of r into parts <= p and, when s_max < k,
    at most j parts (unrestricted, a single row is updated in place).
    Entries are keyed (lo total, number of parts, -largest part); every
    partition stored before round p has largest part < p, so the third
    component settles ties toward lexicographically largest parts.  The
    certificate is read back part by part from the final rows: a remainder
    whose entry improved after it was used would improve k's entry too.
    The upper endpoint is minimized on its own."""
    bounded = s_max < k
    rows = s_max if bounded else 1
    best = [[(0, 0, 0)] + [(inf, 0, 0)] * k for _ in range(rows + 1)]
    hi = [[0] + [inf] * k for _ in range(rows + 1)]
    for p in range(1, k + 1):
        cost = block_cost(p)
        for j in range(1, rows + 1):
            src = j - 1 if bounded else j
            src_best, src_hi, row_best, row_hi = best[src], hi[src], best[j], hi[j]
            for r in range(p, k + 1):
                lo, nparts, _ = src_best[r - p]
                cand = (lo + cost.lo, nparts + 1, -p)
                if cand < row_best[r]:
                    row_best[r] = cand
                if src_hi[r - p] + cost.hi < row_hi[r]:
                    row_hi[r] = src_hi[r - p] + cost.hi
    value = IntInterval(best[rows][k][0], hi[rows][k])
    parts = []
    j, r = rows, k
    while r:
        parts.append(-best[j][r][2])
        r -= parts[-1]
        if bounded:
            j -= 1
    part_values = tuple(block_cost(p) for p in parts)
    cert = QCertificate(
        k, tuple(parts), part_values, interval_sum(part_values),
        conditional=not value.exact,
    )
    assert cert.total.lo == value.lo
    return value, cert


def q(k: int) -> tuple[IntInterval, QCertificate]:
    """Minimum total block cost over all partitions of k; q(0) = 0."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return _minimize(k, k)


def q_value(k: int) -> IntInterval:
    return q(k)[0]


def q_bounded_s(k: int, s_max: int) -> tuple[IntInterval, QCertificate]:
    """Same minimization restricted to partitions with at most s_max parts."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if s_max < 1:
        raise ValueError(f"need s_max >= 1, got {s_max}")
    return _minimize(k, min(s_max, k))


@dataclass(frozen=True)
class FewPartsReport:
    """Outcome of checking that three parts always suffice, with the
    side observations about two parts and a single part."""

    k_max: int
    entries: tuple[CheckResult, ...]
    indeterminate: tuple[int, ...]  # k where intervals prevent a verdict
    two_part_exceptions: tuple[int, ...]  # exact k needing more than 2 parts
    single_block_exceptions: tuple[int, ...]  # exact k where one part is not optimal

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def check_three_parts_suffice(k_max: int) -> FewPartsReport:
    """For each exactly determined k <= k_max, assert that restricting the
    minimization to at most 3 parts loses nothing; k with interval values
    are reported as indeterminate.  Also records where 2 parts or a single
    part would not suffice (the lone single-part exception is k = 4)."""
    entries = []
    indeterminate = []
    two_part = []
    single = []
    for k in range(1, k_max + 1):
        full, _ = q(k)
        if not full.exact:
            indeterminate.append(k)
            entries.append(CheckResult(
                f"k={k}", INDETERMINATE,
                f"q({k}) only known to lie in {full}; no verdict",
            ))
            continue
        bounded, _ = q_bounded_s(k, 3)
        ok = bounded == full
        entries.append(CheckResult(
            f"k={k}", PASS if ok else FAIL,
            f"min over <= 3 parts is {bounded}, unrestricted is {full}",
        ))
        if q_bounded_s(k, 2)[0] != full:
            two_part.append(k)
        if block_cost(k).exact and block_cost(k) != full:
            single.append(k)
    return FewPartsReport(
        k_max, tuple(entries), tuple(indeterminate), tuple(two_part), tuple(single)
    )
