import itertools
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
    induced_subgraph,
    join,
    parse_graph6,
    serialize_graph6,
)
from minclique.graphs import permuted_rows, transpose
from minclique.oracle import canonical_form

import brute
from conftest import random_graph


def test_capacity():
    with pytest.raises(CapacityError):
        Graph(65, (0,) * 65)
    with pytest.raises(CapacityError):
        circulant(65, {1})


def test_complement_basics(c5):
    assert complement(complete_graph(5)) == Graph(5, (0,) * 5)
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
    assert g.adj[5].bit_count() == 6 and g.adj[6].bit_count() == 6
    assert join([complete_graph(1)]) == complete_graph(1)
    k22 = join([Graph(2, (0, 0)), Graph(2, (0, 0))])
    assert canonical_form(k22) == canonical_form(circulant(4, {1}))


def test_join_recovers_parts(c5, petersen):
    parts = [c5, petersen, complete_graph(3)]
    g = join(parts)
    offset = 0
    for part in parts:
        assert induced_subgraph(g, range(offset, offset + part.n)) == part
        offset += part.n


def test_induced_subgraph(c5):
    p3 = induced_subgraph(c5, {0, 1, 2})
    assert brute.edges(p3) == [(0, 1), (1, 2)]
    assert induced_subgraph(c5, range(5)) == c5
    assert induced_subgraph(complete_graph(5), {1, 3, 4}) == complete_graph(3)
    # the error names the first offender in ascending order
    with pytest.raises(InvalidVertexError, match=r"^vertex 5 outside 0\.\.4$"):
        induced_subgraph(c5, {0, 7, 5})
    with pytest.raises(InvalidVertexError, match=r"^vertex -1 outside 0\.\.4$"):
        induced_subgraph(c5, {9, -1})


def test_circulant(c5):
    assert circulant(5, {1}) == c5
    w = circulant(8, {1, 4})
    assert w.n == 8 and all(row.bit_count() == 3 for row in w.adj)
    with pytest.raises(InvalidEdgeError):
        circulant(8, {5})
    with pytest.raises(InvalidEdgeError):
        circulant(8, {0})


def test_circulants_are_regular():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(3, 20)
        conns = {rng.randrange(1, n // 2 + 1) for _ in range(rng.randrange(1, 4))}
        g = circulant(n, conns)
        degrees = {row.bit_count() for row in g.adj}
        assert len(degrees) == 1


def test_circulant_matches_edge_list():
    # the rows against the definition, every connection set up to 16 vertices
    for n in range(17):
        distances = range(1, n // 2 + 1)
        for size in range(len(distances) + 1):
            for conns in itertools.combinations(distances, size):
                pairs = [(i, (i + d) % n) for i in range(n) for d in conns]
                assert circulant(n, conns) == brute.from_edges(n, pairs), (n, conns)


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
            sum((g.adj[v] >> u & 1) << j for j, u in enumerate(order)) for v in order
        ]


# -- graph6 -------------------------------------------------------------------


def test_graph6_known_values():
    star = parse_graph6("D?{")
    assert brute.edges(star) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert serialize_graph6(star) == "D?{"
    assert serialize_graph6(Graph(1, (0,))) == "@"
    assert serialize_graph6(Graph(0, ())) == "?"
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
        h.add_edges_from(brute.edges(g))
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert serialize_graph6(g) == theirs
        assert parse_graph6(theirs) == g
        back = nx.from_graph6_bytes(serialize_graph6(g).encode())
        assert back.number_of_nodes() == n
        assert brute.from_edges(n, back.edges()) == g


def _graph6_by_definition(g):
    """graph6 written bit by bit from the format's definition: the header
    N(n), then x(0,1), x(0,2), x(1,2), x(0,3), ... (the upper triangle by
    columns) padded with zeros to a multiple of six, each 6-bit group
    big-endian as chr(63 + group)."""
    n = g.n
    if n <= 62:
        header = [n]
    else:
        header = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    stream = [g.adj[j] >> i & 1 for j in range(n) for i in range(j)]
    stream += [0] * (-len(stream) % 6)
    groups = [
        sum(bit << 5 - k for k, bit in enumerate(stream[i:i + 6]))
        for i in range(0, len(stream), 6)
    ]
    return "".join(chr(63 + x) for x in header + groups)


def test_graph6_matches_definition():
    # every n the package allows, on empty, complete and random graphs: both
    # header forms and every residue C(n, 2) % 6 can take (0, 1, 3 and 4,
    # so 0, 5, 3 and 2 padding bits)
    rng = random.Random(29)
    residues, headers = set(), set()
    for n in range(65):
        graphs = [Graph(n, (0,) * n), complete_graph(n)]
        graphs += [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)]
        for g in graphs:
            text = serialize_graph6(g)
            assert text == _graph6_by_definition(g), n
            assert parse_graph6(text) == g
        residues.add(n * (n - 1) // 2 % 6)
        headers.add(text[0] == "~")
    assert residues == {0, 1, 3, 4} and headers == {False, True}


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
