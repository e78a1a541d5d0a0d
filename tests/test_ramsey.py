import pytest

from minclique import (
    IntInterval,
    UnsupportedWitnessError,
    WitnessCatalog,
    circulant,
    clique_number,
    complement,
    complete_graph,
    empty_graph,
    independence_number,
    r3,
    small_omega,
)
from minclique.graphs import Graph, join
from minclique.ramsey import verify_alpha2, verify_join


def test_r3_exact_values():
    known = {1: 1, 2: 3, 3: 6, 4: 9, 5: 14, 6: 18, 7: 23, 8: 28, 9: 36}
    for ell, value in known.items():
        assert r3(ell) == IntInterval.point(value)


def test_r3_brackets_and_extrapolation():
    assert r3(10) == IntInterval(40, 43)
    assert r3(11) == IntInterval(46, 51)
    assert r3(12) == IntInterval(47, 62)
    assert r3(13) == IntInterval(48, 74)


def test_r3_errors():
    with pytest.raises(ValueError):
        r3(0)
    with pytest.raises(ValueError):
        r3(-3)


def test_r3_monotone_and_step():
    for ell in range(1, 30):
        assert r3(ell + 1).lo >= r3(ell).lo + 1
        assert r3(ell + 1).hi >= r3(ell).hi
        # two-color Ramsey recurrence (note the exact table is NOT always
        # within the sharper +ell step: R(3,5) = 14 = R(3,4) + 5)
        assert r3(ell + 1).hi <= r3(ell).hi + ell + 1
    for ell in range(11, 30):  # extrapolated region uses the +ell step
        assert r3(ell + 1).hi == r3(ell).hi + ell


def test_small_omega_values():
    assert small_omega(5) == IntInterval.point(2)
    assert small_omega(3) == IntInterval.point(2)
    assert small_omega(9) == IntInterval.point(4)
    assert small_omega(41) == IntInterval(9, 10)
    assert small_omega(1) == IntInterval.point(1)
    with pytest.raises(ValueError):
        small_omega(0)


def test_small_omega_monotone():
    prev = small_omega(1)
    for x in range(2, 40):
        cur = small_omega(x)
        assert cur.lo >= prev.lo and cur.hi >= prev.hi
        if prev.exact and cur.exact:
            assert cur.hi <= prev.hi + 1
        prev = cur


def test_catalog_verifies_builtins(catalog):
    expected = {5: 2, 8: 3, 13: 4, 17: 5}
    for size, omega in expected.items():
        g = catalog.witness_alpha2(size)
        assert g.n == size
        assert clique_number(g) == omega
        assert independence_number(g) <= 2


def test_witnesses_against_subset_enumeration(catalog):
    import brute

    for size in (5, 8, 13):
        g = catalog.witness_alpha2(size)
        assert brute.clique_number(g) == small_omega(size).lo
        assert brute.independence_number(g) == 2


def test_witness_properties_whole_range(catalog):
    for x in range(1, 19):
        g = catalog.witness_alpha2(x)
        assert g.n == x
        assert clique_number(g) == small_omega(x).lo
        assert independence_number(g) <= 2


def test_witness_examples(catalog, c5):
    assert catalog.witness_alpha2(5) == c5
    w13 = catalog.witness_alpha2(13)
    assert w13 == complement(circulant(13, {1, 5}))
    w6 = catalog.witness_alpha2(6)
    assert clique_number(w6) == 3
    # built by joining one dominating vertex onto the 5-vertex witness
    assert w6.degree(5) == 5


def test_witness_unsupported(catalog):
    with pytest.raises(UnsupportedWitnessError):
        catalog.witness_alpha2(19)
    with pytest.raises(UnsupportedWitnessError):
        catalog.witness_alpha2(36)
    with pytest.raises(UnsupportedWitnessError):
        catalog.witness_alpha2(0)


def test_external_35_vertex_base_serves_36():
    # complement of the triangle-free C35(1, 7, 11, 16): omega 8, alpha 2
    w35 = complement(circulant(35, {1, 7, 11, 16}))
    loaded = WitnessCatalog()
    loaded._admit(w35, "C35 complement")
    assert 35 in loaded.base_sizes()
    assert loaded.witness_alpha2(35) == w35  # served as stored
    g = loaded.witness_alpha2(36)  # one dominating vertex on the 35-vertex base
    assert g.n == 36
    assert clique_number(g) == 9 == small_omega(36).lo
    assert independence_number(g) == 2
    with pytest.raises(UnsupportedWitnessError):
        loaded.witness_alpha2(40)  # small_omega(40) = [9, 10] is open


def test_external_witness_rejection(c5):
    loaded = WitnessCatalog()
    for graph, reason in ((complete_graph(5), "clique number 5, expected 2"),
                          (empty_graph(8), "independence number 8 > 2"),
                          (complete_graph(40), "not exact")):
        with pytest.raises(ValueError, match=reason):
            loaded._admit(graph, "candidate")
    assert loaded.base_sizes() == WitnessCatalog().base_sizes()
    assert loaded.witness_alpha2(5) == c5  # the built-in base was not replaced


def test_verify_alpha2(c5):
    assert verify_alpha2(c5, 2, "C5") == 2
    assert verify_alpha2(complete_graph(4), 4, "K4") == 1
    with pytest.raises(ValueError, match="^C5: clique number 2, expected 3$"):
        verify_alpha2(c5, 3, "C5")
    with pytest.raises(ValueError, match="^C6: independence number 3 > 2$"):
        verify_alpha2(circulant(6, {1}), 2, "C6")


def test_verify_join(c5):
    parts = [(c5, 2), (complete_graph(3), 3), (c5, 2)]
    graph = join([part for part, _ in parts])
    assert verify_join(graph, parts, 7, "J") is None
    with pytest.raises(ValueError, match="^J: clique number 7, expected 6$"):
        verify_join(graph, parts, 6, "J")  # the parts' clique numbers miss the target
    # one cross edge, 1 -- 6, removed from both rows
    rows = list(graph.adj)
    rows[1] &= ~(1 << 6)
    rows[6] &= ~(1 << 1)
    with pytest.raises(ValueError, match="^J: row 1 is not the join of its parts$"):
        verify_join(Graph(13, tuple(rows)), parts, 7, "J")
    # a part that is not the graph's: C5 with its edge 3 -- 4 removed, a path
    p5 = Graph(5, (c5.adj[0], c5.adj[1], c5.adj[2], c5.adj[3] & ~(1 << 4), c5.adj[4] & ~(1 << 3)))
    with pytest.raises(ValueError, match="^J: row 11 is not the join of its parts$"):
        verify_join(graph, parts[:2] + [(p5, 2)], 7, "J")
    with pytest.raises(ValueError, match="^J: the parts have 8 vertices, the graph 13$"):
        verify_join(graph, parts[:2], 7, "J")
