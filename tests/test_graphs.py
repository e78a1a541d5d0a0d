import random

import pytest

from minclique import (
    CapacityError,
    Graph,
    Graph6Error,
    InvalidEdgeError,
    InvalidVertexError,
    circulant,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    join,
    parse_graph6,
    relabel,
    serialize_graph6,
)
from minclique.oracle import canonical_form

from conftest import random_graph


def test_from_edges_triangle():
    g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert g.num_edges == 3
    assert g == complete_graph(3)


def test_from_edges_cycle_and_empty(c5):
    assert from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]) == c5
    assert from_edges(2, []) == empty_graph(2)


def test_from_edges_collapses_duplicates():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_from_edges_errors():
    with pytest.raises(InvalidVertexError):
        from_edges(3, [(0, 3)])
    with pytest.raises(InvalidEdgeError):
        from_edges(3, [(1, 1)])


def test_capacity():
    with pytest.raises(CapacityError):
        empty_graph(65)
    with pytest.raises(CapacityError):
        disjoint_union([complete_graph(40), complete_graph(40)])


def test_complement_basics(c5):
    assert complement(complete_graph(5)) == empty_graph(5)
    # C5 is self-complementary up to isomorphism
    assert canonical_form(complement(c5)) == canonical_form(c5)


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(0, 12))
        assert complement(complement(g)) == g


def test_join_small(c5):
    g = join([c5, complete_graph(2)])
    assert g.n == 7
    # both added vertices dominate
    assert g.degree(5) == 6 and g.degree(6) == 6
    assert join([complete_graph(1)]) == complete_graph(1)
    k22 = join([empty_graph(2), empty_graph(2)])
    assert canonical_form(k22) == canonical_form(circulant(4, {1}))


def test_join_recovers_parts(c5, petersen):
    parts = [c5, petersen, complete_graph(3)]
    g = join(parts)
    offset = 0
    for part in parts:
        assert induced_subgraph(g, range(offset, offset + part.n)) == part
        offset += part.n


def test_disjoint_union(c5):
    g = disjoint_union([complete_graph(3), complete_graph(3)])
    assert g.n == 6 and g.num_edges == 6
    assert not g.has_edge(0, 3)
    assert disjoint_union([c5]) == c5
    assert disjoint_union([]) == empty_graph(0)


def test_induced_subgraph(c5):
    p3 = induced_subgraph(c5, {0, 1, 2})
    assert p3.edges() == [(0, 1), (1, 2)]
    assert induced_subgraph(c5, range(5)) == c5
    assert induced_subgraph(complete_graph(5), {1, 3, 4}) == complete_graph(3)
    with pytest.raises(InvalidVertexError):
        induced_subgraph(c5, {0, 5})


def test_circulant(c5):
    assert circulant(5, {1}) == c5
    w = circulant(8, {1, 4})
    assert w.n == 8 and all(w.degree(v) == 3 for v in range(8))
    with pytest.raises(InvalidEdgeError):
        circulant(8, {5})


def test_circulants_are_regular():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(3, 20)
        conns = {rng.randrange(1, n // 2 + 1) for _ in range(rng.randrange(1, 4))}
        g = circulant(n, conns)
        degrees = {g.degree(v) for v in range(n)}
        assert len(degrees) == 1


def test_relabel(c5):
    g = relabel(c5, [4, 3, 2, 1, 0])
    assert canonical_form(g) == canonical_form(c5)
    with pytest.raises(InvalidVertexError):
        relabel(c5, [0, 0, 1, 2, 3])


def test_graph_invariant_validation():
    with pytest.raises(InvalidEdgeError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(InvalidEdgeError):
        Graph(1, (1,))  # loop
    with pytest.raises(InvalidVertexError):
        Graph(1, (2,))  # bit beyond n


# -- graph6 -------------------------------------------------------------------


def test_graph6_known_values():
    star = parse_graph6("D?{")
    assert star.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert serialize_graph6(star) == "D?{"
    assert serialize_graph6(empty_graph(1)) == "@"
    assert serialize_graph6(empty_graph(0)) == "?"
    assert parse_graph6(">>graph6<<D?{") == star


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated
    with pytest.raises(Graph6Error):
        parse_graph6("D?{{")  # trailing byte
    with pytest.raises(Graph6Error):
        parse_graph6("D!?{")  # byte below the graph6 range
    with pytest.raises(CapacityError):
        parse_graph6("~?B?" + "?" * 700)  # 65 vertices


def test_graph6_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 30), rng.random())
        assert parse_graph6(serialize_graph6(g)) == g


def test_graph6_matches_networkx():
    # an independent codec in both directions; the long form starts at n = 63
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for n in [*range(1, 65), 62, 63, 64, 62, 63, 64]:
        g = random_graph(rng, n, rng.random())
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert serialize_graph6(g) == theirs
        assert parse_graph6(theirs) == g
        back = nx.from_graph6_bytes(serialize_graph6(g).encode())
        assert back.number_of_nodes() == n
        assert from_edges(n, back.edges()) == g


def test_graph6_roundtrip_large():
    rng = random.Random(13)
    for n in (62, 63, 64):
        g = random_graph(rng, n, 0.3)
        text = serialize_graph6(g)
        if n <= 62:
            assert text[0] == chr(n + 63)
        else:
            assert text[0] == "~"
        assert parse_graph6(text) == g
