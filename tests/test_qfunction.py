import io
import json
import sys
import time

import pytest

from minclique import IntInterval, chromatic_gap, q, q_bounded_s, q_value, qfunction
from minclique.cli import main
from minclique.qfunction import QCertificate, block_cost

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
    value, cert = q(20)
    assert not value.exact
    assert cert.total.lo == 8


@pytest.mark.parametrize("costs, parts", [
    ({1: 1, 3: 2, 4: 2}, (3, 3)),  # ties (4, 1, 1): fewest parts wins
    ({2: 2, 3: 3, 4: 4}, (4, 2)),  # ties (3, 3) and (2, 2, 2): lexicographically largest
], ids=["fewest-parts", "lex-largest"])
def test_q_certificate_tie_breaks(monkeypatch, costs, parts):
    # today's Ramsey table has no tie that these rules decide, so the costs
    # are planted (10 for a part not listed)
    monkeypatch.setattr(qfunction, "block_cost", lambda p: IntInterval.point(costs.get(p, 10)))
    value, cert = q(6)
    assert value == IntInterval.point(sum(costs[p] for p in parts))
    assert cert.parts == parts


def test_certificates_consistent():
    for k in range(23):
        value, cert = q(k)
        assert sum(cert.parts) == k
        assert cert.total.lo == value.lo
        assert list(cert.parts) == sorted(cert.parts, reverse=True)


@pytest.mark.parametrize("parts, part_values, total, message", [
    ((2, 1), (1, 1), 2, "sum to k"),  # 3 != k
    ((4, 0), (2, 0), 2, "sum to k"),  # a zero part
    ((2, 2), (1, 1), 3, "sum of its part values"),
], ids=["wrong-sum", "zero-part", "wrong-total"])
def test_certificate_rejects_inconsistent_parts(parts, part_values, total, message):
    with pytest.raises(ValueError, match=message):
        QCertificate(4, parts, tuple(map(IntInterval.point, part_values)), IntInterval.point(total))


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


def check_theorem2(k_max):
    out, err = io.StringIO(), io.StringIO()
    code = main(["check", "theorem2", "--kmax", str(k_max)], out=out, err=err)
    return code, json.loads(out.getvalue()), err.getvalue()


def test_three_parts_report():
    code, payload, _ = check_theorem2(22)
    assert code == 0
    assert payload["results"]["indeterminate_k"] == [20]
    assert payload["results"]["single_block_exceptions"] == [4]
    assert payload["results"]["two_part_exceptions"] == []
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert "fail" not in statuses.values()
    assert statuses["k=20"] == "indeterminate"
    assert statuses["k=22"] == "pass"

    code, small, _ = check_theorem2(1)
    assert code == 0 and len(small["checks"]) == 1
    assert small["checks"][0]["status"] == "pass"


def test_three_parts_report_from_small_tables():
    # for k_max < 4 the one table has fewer than 3 bounded rows; every q(k)
    # with k <= 6 is exact, so no entry is indeterminate
    for k_max in range(1, 7):
        ks = range(1, k_max + 1)
        entries = []
        for k in ks:
            full, three = q_value(k), q_bounded_s(k, 3)[0]
            assert full.exact
            entries.append({
                "name": f"k={k}", "status": "pass" if three == full else "fail",
                "condition": f"min over <= 3 parts is {three}, unrestricted is {full}",
            })
        _, payload, _ = check_theorem2(k_max)
        assert payload["checks"] == entries, k_max
        assert payload["results"] == {
            "indeterminate_k": [],
            "two_part_exceptions": [k for k in ks if q_bounded_s(k, 2)[0] != q_value(k)],
            "single_block_exceptions": [k for k in ks if block_cost(k) != q_value(k)],
        }, k_max


def test_three_parts_report_failures(monkeypatch):
    # planted costs: part 1 is free and every other part costs 10, so only
    # all-ones partitions are cheap; three parts lose from k = 4, two from
    # k = 3 and a single part from k = 2
    monkeypatch.setattr(qfunction, "block_cost", lambda p: IntInterval.point(0 if p == 1 else 10))
    code, payload, err = check_theorem2(5)
    assert [(c["name"], c["status"]) for c in payload["checks"]] == [
        ("k=1", "pass"), ("k=2", "pass"), ("k=3", "pass"), ("k=4", "fail"), ("k=5", "fail"),
    ]
    assert payload["checks"][3]["condition"] == "min over <= 3 parts is 10, unrestricted is 0"
    assert payload["results"]["two_part_exceptions"] == [3, 4, 5]
    assert payload["results"]["single_block_exceptions"] == [2, 3, 4, 5]
    assert code == 1
    assert "FAIL k=4" in err


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
