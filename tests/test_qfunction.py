import sys
import time

import pytest

from minclique import IntInterval, chromatic_gap, q, q_bounded_s, q_value
from minclique.qfunction import FewPartsReport, block_cost, check_three_parts_suffice
from minclique.reports import FAIL, PASS, CheckResult

import brute

# the published row: q(k) for k = 0..19, then 21, 22 (k = 20 is open)
EXACT_Q = {
    0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4, 9: 5,
    10: 5, 11: 6, 12: 6, 13: 6, 14: 7, 15: 7, 16: 7, 17: 7, 18: 8, 19: 8,
    21: 9, 22: 9,
}


def test_q_table_reproduction():
    for k, value in EXACT_Q.items():
        assert q_value(k) == IntInterval.point(value), f"q({k})"
    assert q_value(20) == IntInterval(8, 9)


def test_q_zero_and_errors():
    value, cert = q(0)
    assert value == IntInterval.point(0)
    assert cert.parts == ()
    with pytest.raises(ValueError):
        q(-1)


def test_q_certificates():
    _, cert = q(4)
    assert cert.parts == (2, 2)
    assert cert.part_values == (IntInterval.point(1),) * 2
    _, cert = q(14)
    assert cert.parts == (14,)
    _, cert = q(20)
    assert cert.conditional
    assert cert.total.lo == 8


def test_certificates_consistent():
    for k in range(23):
        value, cert = q(k)
        assert sum(cert.parts) == k
        assert cert.total.lo == value.lo
        assert cert.conditional == (not value.exact)
        assert list(cert.parts) == sorted(cert.parts, reverse=True)


def test_q_bounded_examples():
    assert q_bounded_s(4, 2)[0] == IntInterval.point(2)
    assert q_bounded_s(4, 1)[0] == IntInterval.point(3)
    for k in range(1, 23):
        assert q_bounded_s(k, k)[0] == q_value(k)


def test_q_bounded_matches_partition_enumeration():
    for k in range(1, 19):
        for s in range(1, k + 1):
            value, cert = q_bounded_s(k, s)
            assert (value, cert.parts) == brute.q_bounded(k, s), (k, s)


def test_gap_matches_partition_enumeration():
    for n in range(1, 38):
        assert chromatic_gap(n) == brute.chromatic_gap(n), n


def test_q_bounded_monotone_in_s():
    for k in range(1, 23):
        prev = None
        for s in range(1, k + 1):
            cur = q_bounded_s(k, s)[0]
            if prev is not None:
                assert cur.lo <= prev.lo and cur.hi <= prev.hi
            prev = cur


def test_subadditivity():
    # q(a) + q(k - a) >= q(k) on exactly known values
    for k in range(23):
        if k not in EXACT_Q:
            continue
        for a in range(k + 1):
            if a in EXACT_Q and (k - a) in EXACT_Q:
                assert EXACT_Q[a] + EXACT_Q[k - a] >= EXACT_Q[k]


def test_one_plus_q_k_minus_2():
    for k in range(2, 23):
        if k in EXACT_Q and (k - 2) in EXACT_Q:
            assert 1 + q_value(k - 2).lo >= q_value(k).lo


def test_x_plus_q_k_minus_x():
    for k in range(23):
        if k not in EXACT_Q:
            continue
        for x in range(k + 1):
            if (k - x) in EXACT_Q:
                assert x + EXACT_Q[k - x] >= EXACT_Q[k]


def test_half_k_pattern():
    # q(k) = ceil(k/2) exactly for k = 0..12 and k = 14, and for no other
    # exactly known k
    for k, value in EXACT_Q.items():
        expected = (k + 1) // 2
        if k <= 12 or k == 14:
            assert value == expected
        else:
            assert value != expected


def test_single_block_matches_q_except_4():
    # on the exactly known range the single-part cost equals q(k) except k=4
    for k in range(1, 23):
        if k not in EXACT_Q or not block_cost(k).exact:
            continue
        if k == 4:
            assert block_cost(k).lo != EXACT_Q[k]
        else:
            assert block_cost(k).lo == EXACT_Q[k]


def test_three_parts_report():
    report = check_three_parts_suffice(22)
    assert report.passed
    assert report.indeterminate == (20,)
    assert report.single_block_exceptions == (4,)
    assert report.two_part_exceptions == ()
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["k=20"] == "indeterminate"
    assert statuses["k=22"] == "pass"

    small = check_three_parts_suffice(1)
    assert small.passed and len(small.entries) == 1


def test_three_parts_report_from_small_tables():
    # for k_max < 4 the one table has fewer than 3 bounded rows; every q(k)
    # with k <= 6 is exact, so no entry is indeterminate
    for k_max in range(1, 7):
        ks = range(1, k_max + 1)
        entries = []
        for k in ks:
            full, three = q_value(k), q_bounded_s(k, 3)[0]
            assert full.exact
            entries.append(CheckResult(
                f"k={k}", PASS if three == full else FAIL,
                f"min over <= 3 parts is {three}, unrestricted is {full}",
            ))
        assert check_three_parts_suffice(k_max) == FewPartsReport(
            k_max, tuple(entries), (),
            tuple(k for k in ks if q_bounded_s(k, 2)[0] != q_value(k)),
            tuple(k for k in ks if block_cost(k) != q_value(k)),
        ), k_max


def test_q_runtime():
    t0 = time.perf_counter()
    for k in range(23):
        q(k)
    assert time.perf_counter() - t0 < 1.0


def test_q_beyond_recursion_limit():
    k = sys.getrecursionlimit() + 100
    value, cert = q(k)
    assert isinstance(value, IntInterval)
    assert sum(cert.parts) == k and cert.total.lo == value.lo
