import io
import itertools
import json
import random

import pytest

from minclique import (
    CapacityError,
    IntInterval,
    PreconditionError,
    build_extremal,
    chromatic_gap,
    chromatic_number,
    clique_number,
    complement,
    complete_graph,
    compose_alpha2,
    independence_number,
    induced_subgraph,
    join,
    matching_number,
    q_value,
    serialize_graph6,
)
from minclique import constructions, matching, oracle, solvers
from minclique.cli import main
from minclique.constructions import ComposeInput, _lex_first_clique, eq4_upper_bound
from minclique.oracle import brute_gap, enumerate_graphs
from minclique.ramsey import default_catalog

from brute import edges, from_edges
from conftest import random_triangle_free


def test_compose_c5_c5(c5):
    inp = ComposeInput.build(c5, c5)
    assert (inp.clique1, inp.clique2) == ((0, 1), (0, 1))
    h, alpha = compose_alpha2(inp)
    assert alpha == 2
    assert serialize_graph6(h) == "Khcx~vx~M[{x"
    assert h.n == 12
    assert clique_number(h) == 4
    assert independence_number(h) <= 2
    assert h.n <= eq4_upper_bound(2, 2).lo == 13


def test_compose_w8_c5(c5, catalog):
    w8, _, _ = catalog.witness_alpha2(8)
    inp = ComposeInput.build(w8, c5)
    assert (inp.clique1, inp.clique2) == ((0, 2), (0, 1))
    h, alpha = compose_alpha2(inp)
    assert alpha == 2
    assert serialize_graph6(h) == "NUYurX^V~}~x~xlktnG"
    assert h.n == 15
    assert clique_number(h) == 5
    assert independence_number(h) <= 2
    assert h.n <= eq4_upper_bound(3, 2).lo == 17


def test_compose_k2_k2():
    k2 = complete_graph(2)
    h, _ = compose_alpha2(ComposeInput.build(k2, k2, (0, 1), (0, 1)))
    assert h.n == 6
    assert clique_number(h) == 4
    assert independence_number(h) <= 2


def test_compose_restricts_to_factors(c5):
    inp = ComposeInput.build(c5, c5)
    h, _ = compose_alpha2(inp)
    assert induced_subgraph(h, range(5)) == c5
    assert induced_subgraph(h, range(5, 10)) == c5
    # R u V1 and R u U2 are cliques of size 2 * omega2
    r = set(range(10, 12))
    for clique_part, offset in ((inp.clique1, 0), (inp.clique2, 5)):
        block = r | {offset + v for v in clique_part}
        sub = induced_subgraph(h, block)
        assert sub == complete_graph(4)
    # V1 x U2 edges are absent
    for a in inp.clique1:
        for b in inp.clique2:
            assert not h.adj[a] >> 5 + b & 1


def _compose_reference(g1, g2, clique1, clique2, x, y):
    """Whether x and y are adjacent in the merge, by the module docstring's
    rules: g1 on 0..n1-1, g2 next, then r_i paired with the i-th vertices
    v_i of V1 and u_i of U2."""
    n1, n2 = g1.n, g2.n
    x, y = min(x, y), max(x, y)
    if y < n1:
        return g1.adj[x] >> y & 1
    if x >= n1 + n2:
        return True  # R is a clique
    if x >= n1:
        if y < n1 + n2:
            return g2.adj[x - n1] >> y - n1 & 1
        u, b = clique2[y - n1 - n2], x - n1  # r_i and a vertex of g2
        return b in clique2 or g2.adj[u] >> b & 1
    if y < n1 + n2:
        return not (x in clique1 and y - n1 in clique2)  # cross edges but V1 x U2
    v = clique1[y - n1 - n2]  # r_i and a vertex of g1
    return x in clique1 or g1.adj[v] >> x & 1


def test_compose_matches_docstring_rules(catalog):
    rng = random.Random(15)

    def alpha2_graph():
        if rng.random() < 0.3:
            return catalog.witness_alpha2(rng.randint(1, 17))[0]
        return complement(random_triangle_free(rng, rng.randint(1, 12)))

    def some_clique(g, size):
        return rng.choice([c for c in itertools.combinations(range(g.n), size)
                           if all(g.adj[u] >> v & 1 for u, v in itertools.combinations(c, 2))])

    for _ in range(40):
        g1, g2 = sorted((alpha2_graph(), alpha2_graph()), key=clique_number, reverse=True)
        omega2 = clique_number(g2)
        explicit = (some_clique(g1, omega2), some_clique(g2, omega2))
        for cliques in ((None, None), explicit):
            inp = ComposeInput.build(g1, g2, *cliques)
            h, alpha = compose_alpha2(inp)
            assert alpha == independence_number(h) <= 2
            assert h.n == g1.n + g2.n + omega2
            for x, y in itertools.combinations(range(h.n), 2):
                expected = _compose_reference(g1, g2, inp.clique1, inp.clique2, x, y)
                assert h.adj[x] >> y & 1 == expected, (inp, x, y)


def test_lex_first_clique_is_first_combination():
    # the default compose cliques, against brute force over the census
    for n in range(7):
        for g in enumerate_graphs(n):
            for size in range(1, clique_number(g) + 1):
                first = next(
                    c for c in itertools.combinations(range(n), size)
                    if all(g.adj[u] >> v & 1 for u, v in itertools.combinations(c, 2))
                )
                assert _lex_first_clique(g, size) == first, (g, size)


def test_compose_input_errors(c5):
    with pytest.raises(PreconditionError):
        ComposeInput.build(c5, complete_graph(3))  # omega1 < omega2
    with pytest.raises(PreconditionError):
        ComposeInput.build(complement(join([from_edges(3, [])] * 3)), c5)  # 3 K3: alpha 3
    with pytest.raises(PreconditionError):
        ComposeInput.build(c5, c5, (0, 2), (0, 1))  # not a clique
    with pytest.raises(PreconditionError):
        ComposeInput.build(c5, c5, (0,), (0, 1))  # wrong size


def test_build_extremal_examples():
    w = build_extremal(7, 2)
    assert (w.omega, w.chi) == (4, 5)
    assert w.certificate.parts == (2,)
    assert serialize_graph6(w.graph) == "Fhf~w"  # the README tour

    w = build_extremal(5, 1)
    assert (w.omega, w.chi) == (4, 4)

    w = build_extremal(9, 3)
    assert (w.omega, w.chi) == (5, 6)

    w = build_extremal(5, 0)
    assert w.graph == complete_graph(5)


def test_build_extremal_verified_by_solvers():
    # (17, 7) and (19, 8) use the 15- and 17-vertex blocks, so every block
    # size the catalog serves has its summed chi re-solved here
    for n, k in [(7, 2), (8, 2), (9, 3), (10, 3), (11, 4), (17, 7), (19, 8)]:
        w = build_extremal(n, k)
        assert chromatic_number(w.graph) == n - k == w.chi
        assert clique_number(w.graph) == n - 2 * k + q_value(k).lo == w.omega
        assert w.graph.n == n


def test_build_extremal_every_pair_by_search():
    # build_extremal certifies omega, alpha and chi from the joined blocks'
    # facts; the exact solvers re-solve omega and alpha on every buildable
    # pair, and Gallai's chi = n - nu(complement) checks chi on the whole join
    for k in range(9):
        for n in range(2 * k + 3, 65):
            w = build_extremal(n, k)
            assert clique_number(w.graph) == w.omega, (n, k)
            assert independence_number(w.graph) <= 2, (n, k)
            assert w.chi == n - matching_number(complement(w.graph)), (n, k)


def test_build_extremal_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n, k in [(7, 2), (11, 4), (14, 5), (19, 8), (24, 6)]:
        w = build_extremal(n, k)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges(w.graph))
        assert max(len(c) for c in nx.find_cliques(h)) == w.omega, (n, k)
        assert max(len(c) for c in nx.find_cliques(nx.complement(h))) <= 2, (n, k)


def test_build_extremal_runs_no_clique_search(monkeypatch):
    for x in range(1, 18, 2):  # every block size served, with its facts
        default_catalog().witness_alpha2(x)

    def no_search(g):
        raise AssertionError("build_extremal ran a clique search")

    def no_matching(g):
        raise AssertionError("build_extremal ran a matching")

    monkeypatch.setattr(solvers, "clique_number", no_search)
    monkeypatch.setattr(matching, "matching_number", no_matching)
    for k in range(9):
        w = build_extremal(64, k)
        assert w.omega == 64 - 2 * k + q_value(k).lo
        assert w.chi == 64 - k


def test_build_extremal_join_identity(catalog):
    # the clique number of the join is the sum of the dominating-vertex
    # count and the block clique numbers
    for n, k in [(9, 3), (11, 4)]:
        w = build_extremal(n, k)
        blocks = [catalog.witness_alpha2(2 * p + 1)[0] for p in w.certificate.parts]
        expected = n - sum(b.n for b in blocks) + sum(clique_number(b) for b in blocks)
        assert w.omega == expected


def test_build_extremal_errors():
    with pytest.raises(PreconditionError):
        build_extremal(6, 2)
    with pytest.raises(PreconditionError):
        build_extremal(4, 1)
    with pytest.raises(PreconditionError):
        build_extremal(43, 20)  # q(20) not exact
    with pytest.raises(CapacityError):
        build_extremal(65, 0)
    with pytest.raises(PreconditionError):
        build_extremal(7, -1)


def test_build_extremal_rejects_a_wrong_join_chi(monkeypatch):
    join_and_chi = constructions.certified_join
    monkeypatch.setattr(constructions, "certified_join",
                        lambda parts, omega, source: (join_and_chi(parts, omega, source)[0], 6))
    with pytest.raises(RuntimeError, match="internal error: joined graph has chromatic "
                                           "number 6, expected 5"):
        build_extremal(7, 2)


def test_gap_oracle_small():
    assert brute_gap(3) == 0
    assert brute_gap(5) == 1
    with pytest.raises(CapacityError):
        brute_gap(9)


def test_gap_formula():
    assert chromatic_gap(9) == IntInterval.point(1)
    assert chromatic_gap(13) == IntInterval.point(3)
    for n in range(3, 9):
        assert chromatic_gap(n) == IntInterval.point(brute_gap(n))
    # at n = 49, k = 24 fits only as the single part (24,), of cost [9, 13];
    # q(24)'s upper end comes from a partition with more parts than fit
    assert chromatic_gap(48) == IntInterval(13, 14)
    assert chromatic_gap(49) == IntInterval(13, 15)


def test_gap_command_needs_no_census(monkeypatch):
    # `gap` answers from the formula alone, also where the census reaches
    def unreachable(*args):
        raise AssertionError("the gap command reached the census")

    for name in ("brute_gap", "level_stats", "enumerate_graphs"):
        monkeypatch.setattr(oracle, name, unreachable)

    def gap(n):
        out = io.StringIO()
        assert main(["gap", str(n)], out=out, err=io.StringIO()) == 0
        return json.loads(out.getvalue())["results"]

    for n, g in enumerate((0, 0, 0, 0, 0, 1, 1, 1, 1)):
        assert gap(n) == {"gap": [g, g]}, n


def test_gap_formula_is_monotone():
    prev = IntInterval.point(0)
    for n in range(1, 130):
        cur = chromatic_gap(n)
        assert cur.lo >= prev.lo and cur.hi >= prev.hi
        prev = cur
