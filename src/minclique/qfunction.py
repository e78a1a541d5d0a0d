"""The clique-correction function q, its bounded-parts variant and the gap.

q(k) is the minimum, over all ways of writing k as an ordered-irrelevant
sum of positive parts k_1 + ... + k_s, of the total block cost
sum_i (small_omega(2 k_i + 1) - 1).  Costs are intervals wherever the
underlying Ramsey values are only bracketed, and the minimum folds
endpointwise, so q(k) is itself an interval (degenerate when exact).

One bottom-up table over the largest part allowed (an unbounded knapsack
plus one row per bounded number of parts) answers every k up to its size,
counting each partition once, in descending order.  Certificates achieve
the interval's lower endpoint under optimistic costs and break ties by
fewest parts, then lexicographically largest part vector.  A certificate
whose value is not exact is flagged conditional.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import inf

from .intervals import IntInterval, interval_max, interval_sum
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


def _partition_minima(k_max: int, s_max: int) -> Callable[[int, int], tuple[IntInterval, QCertificate]]:
    """Reader (r, s) -> (value, certificate) of one table for all r <= k_max
    and bounds s on the number of parts, s <= s_max where s < r.  Bottom-up
    over the largest part p = 1..k_max: after round p, entry r of row
    j = 1..min(s_max, k_max - 1) is the best partition of r into parts <= p
    and at most j parts, read from row j - 1; the last row, updated in
    place, allows any number, so it stands for every row j >= r.  Keys are
    lo total * (k_max + 1) + number of parts, beside the largest part; all
    stored before round p have largest part < p, so replacing on ties
    settles them toward lexicographically largest parts.  The certificate
    is read back part by part from the final rows: a remainder whose entry
    improved after it was used would improve r's entry too.  The upper
    endpoint is minimized on its own."""
    last, m = min(s_max, k_max - 1) + 1, k_max + 1
    key = [[0] + [inf] * k_max for _ in range(last + 1)]
    largest = [[0] * m for _ in range(last + 1)]
    hi = [[0] + [inf] * k_max for _ in range(last + 1)]
    for p in range(1, k_max + 1):
        step, cost_hi = block_cost(p).lo * m + 1, block_cost(p).hi
        for j in range(1, last + 1):
            src = j if j == last else j - 1
            row_key, row_largest, row_hi = key[j], largest[j], hi[j]
            # zip reads entry r - p after the in-place last row wrote it this round
            for r, v, h in zip(range(p, m), key[src], hi[src]):
                if v + step <= row_key[r]:
                    row_key[r] = v + step
                    row_largest[r] = p
                if h + cost_hi < row_hi[r]:
                    row_hi[r] = h + cost_hi

    def minimum(k: int, s: int) -> tuple[IntInterval, QCertificate]:
        row = s if s < k else last
        value = IntInterval(key[row][k] // m, hi[row][k])
        parts, r = [], k
        while r:
            parts.append(largest[s if s < r else last][r])
            r -= parts[-1]
            s -= 1
        part_values = tuple(block_cost(p) for p in parts)
        cert = QCertificate(k, tuple(parts), part_values, interval_sum(part_values),
                            conditional=not value.exact)
        assert cert.total.lo == value.lo
        return value, cert

    return minimum


def q(k: int) -> tuple[IntInterval, QCertificate]:
    """Minimum total block cost over all partitions of k; q(0) = 0."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return _partition_minima(k, 0)(k, k)


def q_value(k: int) -> IntInterval:
    return q(k)[0]


def q_bounded_s(k: int, s_max: int) -> tuple[IntInterval, QCertificate]:
    """Same minimization restricted to partitions with at most s_max parts."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if s_max < 1:
        raise ValueError(f"need s_max >= 1, got {s_max}")
    return _partition_minima(k, s_max if s_max < k else 0)(k, s_max)


def chromatic_gap(n: int) -> IntInterval:
    """Largest possible excess of chromatic number over clique number on n
    vertices, by the formula.

    A partition of k into s parts fits in n vertices when its blocks, of
    2 k_i + 1 vertices each, do: 2k + s <= n.  So the excess is the maximum
    over 1 <= k <= (n - 1)/2 of k - q_bounded_s(k, n - 2k), the partition
    minimum over the parts that fit (and 0, for the complete graph), from
    one table with n // 3 bounded rows, since n - 2k < k only for k > n/3.
    Both endpoints come from partitions that fit.  Each k is realized by
    the join that `constructions.build_extremal` constructs, but it is
    built and verified only where the catalog holds every block (k <= 8
    with the built-in witnesses); beyond that the value rests on the
    formula.  On every n the exhaustive oracle reaches, the maximum
    provably matches `oracle.brute_gap`; `check gap` confirms it, and the
    CLI's `gap` command chooses between the two."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    minimum = _partition_minima((n - 1) // 2, n // 3)
    candidates = [IntInterval.point(0)]  # k = 0: complete graph
    for k in range(1, (n - 1) // 2 + 1):
        candidates.append(k - minimum(k, n - 2 * k)[0])
    return interval_max(*candidates)


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
    minimum = _partition_minima(k_max, 3)
    entries = []
    indeterminate = []
    two_part = []
    single = []
    for k in range(1, k_max + 1):
        full, _ = minimum(k, k)
        if not full.exact:
            indeterminate.append(k)
            entries.append(CheckResult(
                f"k={k}", INDETERMINATE,
                f"q({k}) only known to lie in {full}; no verdict",
            ))
            continue
        bounded, _ = minimum(k, 3)
        ok = bounded == full
        entries.append(CheckResult(
            f"k={k}", PASS if ok else FAIL,
            f"min over <= 3 parts is {bounded}, unrestricted is {full}",
        ))
        if minimum(k, 2)[0] != full:
            two_part.append(k)
        if block_cost(k).exact and block_cost(k) != full:
            single.append(k)
    return FewPartsReport(
        k_max, tuple(entries), tuple(indeterminate), tuple(two_part), tuple(single)
    )
