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
from minclique.graphs import permuted_rows, transpose
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
    def error(n, rows):
        with pytest.raises((CapacityError, InvalidEdgeError, InvalidVertexError)) as info:
            Graph(n, tuple(rows))
        return info.type, str(info.value)

    assert error(2, (2, 0)) == (InvalidEdgeError, "asymmetric adjacency between 0 and 1")
    assert error(1, (1,)) == (InvalidEdgeError, "loop at vertex 0")
    assert error(1, (2,)) == (InvalidVertexError, "row 0 has bits >= n set")
    rows = [0] * 64
    rows[0] = 1 << 63
    assert error(64, rows) == (InvalidEdgeError, "asymmetric adjacency between 0 and 63")
    rows = [0] * 64
    rows[62] = 1 << 63
    assert error(64, rows) == (InvalidEdgeError, "asymmetric adjacency between 62 and 63")
    rows = [0] * 64
    rows[63] = 1 << 62  # the one-sided bit below the diagonal still names u < v
    assert error(64, rows) == (InvalidEdgeError, "asymmetric adjacency between 62 and 63")
    rows = [0] * 64
    rows[63] = 1 << 64
    assert error(64, rows) == (InvalidVertexError, "row 63 has bits >= n set")
    assert error(3, (0, 0)) == (InvalidVertexError, "adjacency row count does not match n")
    assert error(65, (0,) * 65) == (CapacityError, "vertex count 65 outside 0..64")


def _pairwise_check(n, rows):
    """Graph's validation written out pair by pair: the same errors, the
    same first offender."""
    if not 0 <= n <= 64:
        return CapacityError, f"vertex count {n} outside 0..64"
    if len(rows) != n:
        return InvalidVertexError, "adjacency row count does not match n"
    for u, row in enumerate(rows):
        if row < 0 or row >> n:
            return InvalidVertexError, f"row {u} has bits >= n set"
        if row >> u & 1:
            return InvalidEdgeError, f"loop at vertex {u}"
    for u in range(n):
        for v in range(u + 1, n):
            if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                return InvalidEdgeError, f"asymmetric adjacency between {u} and {v}"
    return None


def test_graph_validation_matches_pairwise_reference():
    rng = random.Random(23)
    kinds = ["valid", "asymmetric", "loop", "out of range", "negative", "wrong length"]
    for _ in range(2000):
        n = rng.choice([-1, 65, *range(65)])
        size = min(max(n, 0), 64)
        rows = list(random_graph(rng, size, rng.random()).adj)
        kind = rng.choice(kinds)
        if size and kind == "asymmetric":
            for _ in range(rng.randrange(1, 4)):
                rows[rng.randrange(size)] ^= 1 << rng.randrange(size)
        elif size and kind == "loop":
            v = rng.randrange(size)
            rows[v] |= 1 << v
        elif size and kind == "out of range":
            rows[rng.randrange(size)] |= 1 << rng.randrange(size, 70)
        elif size and kind == "negative":
            rows[rng.randrange(size)] = -rng.randrange(1, 1 << size)
        elif kind == "wrong length":
            rows = rows[:-1] if rows and rng.random() < 0.5 else rows + [0]
        expected = _pairwise_check(n, rows)
        if expected is None:
            assert Graph(n, tuple(rows)).adj == tuple(rows)
        else:
            with pytest.raises(expected[0]) as info:
                Graph(n, tuple(rows))
            assert (info.type, str(info.value)) == expected


def test_transpose_matches_definition():
    rng = random.Random(29)
    for n in (0, 1, 2, 8, 9, 31, 63, 64):
        full = (1 << n) - 1
        matrices = [[0] * n, [full] * n]
        matrices += [[rng.getrandbits(n) for _ in range(n)] for _ in range(20)]
        matrices += [[rng.choice((0, full, rng.getrandbits(n))) for _ in range(n)]
                     for _ in range(20)]
        for rows in matrices:
            columns = transpose(rows)
            assert columns == [sum(1 << r for r, row in enumerate(rows) if row >> c & 1)
                               for c in range(n)]
            assert transpose(columns) == rows


def test_permuted_rows_matches_definition():
    rng = random.Random(31)
    for n in (0, 1, 5, 33, 64):
        g = random_graph(rng, n, rng.random())
        order = rng.sample(range(n), rng.randrange(n + 1))
        assert permuted_rows(g.adj, order) == [
            sum(1 << j for j, u in enumerate(order) if g.has_edge(v, u)) for v in order
        ]


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
