"""Acceptance suite: the package's exit criteria, one test per criterion.

Every test asserts its criterion at exact tolerance and prints one
PASS line (run with -s or -rA to see them).  The heavy criterion is the
exhaustive one (all isomorphism classes through 8 vertices); everything
is cached per session, so the suite shares one enumeration pass.
"""

import random
import time

from minclique import (
    IntInterval,
    brute_Q,
    brute_gap,
    build_extremal,
    chromatic_gap,
    chromatic_number,
    clique_number,
    complement,
    compose_alpha2,
    count_graphs,
    enumerate_graphs,
    independence_number,
    matching_number,
    q,
    q_bounded_s,
    q_value,
)
from minclique.constructions import ComposeInput
from minclique.oracle import KNOWN_CLASS_COUNTS
from minclique.qfunction import check_three_parts_suffice

import brute
from conftest import random_graph, random_triangle_free

Q_ROW = (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS — {text}")


def test_criterion_01_q_table():
    t0 = time.perf_counter()
    for k, expected in enumerate(Q_ROW):
        assert q_value(k) == IntInterval.point(expected), f"q({k})"
    assert q_value(21) == IntInterval.point(9)
    assert q_value(22) == IntInterval.point(9)
    open_value = q_value(20)
    assert open_value.lo < open_value.hi
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"q(0..19, 21, 22) reproduce the published row; q(20) = {open_value} "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_formula_at_desk_scale():
    t0 = time.perf_counter()
    for n, expected in enumerate(KNOWN_CLASS_COUNTS):
        assert count_graphs(n) == expected, f"class count at n={n}"
    pairs = []
    for n in range(9):
        for k in range((n - 3) // 2 + 1):
            qk = q_value(k)
            assert qk.exact
            assert brute_Q(n, n - k) == n - 2 * k + qk.lo, (n, k)
            pairs.append((n, k))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(2, f"exhaustive check of {len(pairs)} (n, k) pairs over "
               f"{sum(KNOWN_CLASS_COUNTS)} isomorphism classes ({elapsed:.1f} s)")


def test_criterion_03_small_value_table():
    t0 = time.perf_counter()
    # published values of the minimum clique number at chi = n - k, n = 2k+3
    omega_of_n = [
        lambda n: n, lambda n: n - 1, lambda n: n - 3, lambda n: n - 4,
        lambda n: n - 6, lambda n: n - 7, lambda n: n - 9,
    ]
    for k in range(7):
        n = 2 * k + 3
        witness = build_extremal(n, k)
        assert witness.chi == n - k
        assert witness.omega == n - 2 * k + q_value(k).lo
        assert witness.omega == omega_of_n[k](n), (n, k)
        assert chromatic_number(witness.graph) == witness.chi
        assert clique_number(witness.graph) == witness.omega
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"constructions for k = 0..6 at n = 2k + 3 hit the published "
               f"values ({elapsed:.1f} s)")


def test_criterion_04_catalog_certification(catalog):
    t0 = time.perf_counter()
    expected = {5: 2, 8: 3, 13: 4, 17: 5}
    for size, omega in expected.items():
        g = catalog.witness_alpha2(size)
        assert g.n == size
        assert independence_number(g) <= 2, size
        assert clique_number(g) == omega, size
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"witnesses on 5, 8, 13, 17 vertices verified exactly "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_05_composition(catalog, c5):
    h1, _ = compose_alpha2(ComposeInput.build(c5, c5))
    assert h1.n == 12
    assert clique_number(h1) == 4
    assert independence_number(h1) <= 2
    assert h1.n <= 13  # R(3, 2 + 2 + 1) - 1

    w8 = catalog.witness_alpha2(8)
    h2, _ = compose_alpha2(ComposeInput.build(w8, c5))
    assert h2.n == 15
    assert clique_number(h2) == 5
    assert independence_number(h2) <= 2
    assert h2.n <= 17  # R(3, 3 + 2 + 1) - 1
    _report(5, "both reference compositions verified (12 and 15 vertices, "
               "sizes within the Ramsey bound)")


def test_criterion_06_matching_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            assert matching_number(g) == brute.matching_number(g)
            checked += 1
    rng = random.Random(20240817)
    for _ in range(1000):
        g = random_graph(rng, rng.randrange(1, 11), rng.random())
        assert matching_number(g) == brute.matching_number(g)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"matching solver equals brute force on {checked} graphs "
               f"({elapsed:.1f} s)")


def test_criterion_07_chromatic_identity(catalog):
    for size in (5, 8, 13, 17):
        g = catalog.witness_alpha2(size)
        assert chromatic_number(g) + matching_number(complement(g)) == g.n, size
    rng = random.Random(1729)
    for _ in range(500):
        g = complement(random_triangle_free(rng, rng.randrange(1, 12)))
        assert independence_number(g) <= 2
        assert chromatic_number(g) + matching_number(complement(g)) == g.n
    _report(7, "chi + nu(complement) = n on all catalog witnesses and 500 "
               "seeded alpha <= 2 graphs")


def test_criterion_08_subadditivity():
    exact = {k: q_value(k).lo for k in range(23) if q_value(k).exact}
    for k in exact:
        for a in range(k + 1):
            if a in exact and (k - a) in exact:
                assert exact[a] + exact[k - a] >= exact[k], (a, k)
        if k >= 2 and (k - 2) in exact:
            assert 1 + exact[k - 2] >= exact[k], k
        for x in range(k + 1):
            if (k - x) in exact:
                assert x + exact[k - x] >= exact[k], (x, k)
    _report(8, f"all three superadditivity-style inequalities hold on the "
               f"{len(exact)} exact values with k <= 22")


def test_criterion_09_gap_identity():
    for n in range(1, 9):
        from minclique.oracle import level_stats

        table = level_stats(n).min_clique_by_chi
        assert brute_gap(n) == max(c - w for c, w in table.items()), n
    for n in range(3, 9):
        formula = chromatic_gap(n)
        assert formula == IntInterval.point(brute_gap(n)), n
    _report(9, "gap identity and arithmetic gap agreement hold for all n <= 8")


def test_criterion_10_three_parts_suffice():
    report = check_three_parts_suffice(22)
    assert report.passed
    for k in range(1, 23):
        value = q_value(k)
        if value.exact:
            assert q_bounded_s(k, 3)[0] == value, k
    assert report.indeterminate == (20,)
    assert report.single_block_exceptions == (4,)
    assert q(4)[1].parts == (2, 2)
    _report(10, "three parts always suffice on exact values; single-block "
                "exception is exactly k = 4 with certificate (2, 2)")
