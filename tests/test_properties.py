"""Hypothesis properties: the graph6 round trip, IntInterval arithmetic
laws, and the invariants of compose_alpha2."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from minclique import (
    Graph,
    IntInterval,
    WitnessCatalog,
    clique_number,
    complement,
    compose_alpha2,
    parse_graph6,
    serialize_graph6,
)
from minclique.constructions import ComposeInput, eq4_upper_bound
from minclique.intervals import interval_max, interval_sum

PROPERTY = settings(derandomize=True, deadline=None, database=None)
CATALOG = WitnessCatalog()


# -- graph6 ---------------------------------------------------------------------


def _graph_from_bits(n: int, bits: int) -> Graph:
    """Graph whose upper-triangle pairs (in column order) are the set bits."""
    rows = [0] * n
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bits >> pos & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            pos += 1
    return Graph(n, tuple(rows))


@PROPERTY
@given(n=st.integers(0, 64), bits=st.integers(0, (1 << 2016) - 1))
@example(n=63, bits=0)
@example(n=64, bits=(1 << 2016) - 1)
def test_graph6_roundtrip(n, bits):
    g = _graph_from_bits(n, bits)
    text = serialize_graph6(g)
    header = chr(n + 63) if n <= 62 else "~" + chr(63) + chr(63 + (n >> 6)) + chr(63 + (n & 63))
    assert text.startswith(header)
    assert len(text) == len(header) + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph6(text) == g


# -- IntInterval ----------------------------------------------------------------

ints = st.integers(-50, 50)
intervals = st.builds(lambda lo, width: IntInterval(lo, lo + width), ints, st.integers(0, 6))


@PROPERTY
@given(intervals, intervals, intervals)
def test_interval_addition_commutes_and_associates(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@PROPERTY
@given(ints, ints, intervals)
def test_interval_point_arithmetic_matches_ints(x, y, a):
    px, py = IntInterval.point(x), IntInterval.point(y)
    assert px + py == IntInterval.point(x + y)
    assert px - py == IntInterval.point(x - y)
    assert a + x == x + a == a + px
    assert a - x == a - px
    assert x - a == px - a


@PROPERTY
@given(intervals, intervals)
def test_interval_difference_is_the_hull_of_member_differences(a, b):
    diffs = {p - q for p in range(a.lo, a.hi + 1) for q in range(b.lo, b.hi + 1)}
    assert a - b == IntInterval(min(diffs), max(diffs))


@PROPERTY
@given(st.lists(intervals, max_size=6))
def test_interval_sum_and_max_act_endpointwise(items):
    assert interval_sum(items) == IntInterval(
        sum(i.lo for i in items), sum(i.hi for i in items)
    )
    if items:
        assert interval_max(*items) == IntInterval(
            max(i.lo for i in items), max(i.hi for i in items)
        )


# -- compose_alpha2 -------------------------------------------------------------


@st.composite
def alpha2_graphs(draw):
    """A catalog witness, or the complement of a random triangle-free graph."""
    if draw(st.booleans()):
        return CATALOG.witness_alpha2(draw(st.integers(1, 18)))[0]
    n = draw(st.integers(1, 12))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if not rows[u] & rows[v] and draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return complement(Graph(n, tuple(rows)))


def _has_independent_triple(g: Graph) -> bool:
    return any(
        ~g.adj[u] & ~g.adj[v] & ~(1 << u | 1 << v) & ((1 << g.n) - 1)
        for u in range(g.n) for v in range(u + 1, g.n) if not g.adj[u] >> v & 1
    )


@settings(PROPERTY, max_examples=40)
@given(alpha2_graphs(), alpha2_graphs())
def test_compose_alpha2_invariants(g1, g2):
    omega1, omega2 = clique_number(g1), clique_number(g2)
    if omega1 < omega2:
        g1, g2, omega1, omega2 = g2, g1, omega2, omega1
    h, alpha = compose_alpha2(ComposeInput.build(g1, g2))
    assert alpha <= 2
    assert not _has_independent_triple(h)
    assert clique_number(h) == omega1 + omega2
    assert h.n == g1.n + g2.n + omega2 <= eq4_upper_bound(omega1, omega2).hi
