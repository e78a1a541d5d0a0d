import random

import pytest

from minclique import (
    chromatic_number,
    circulant,
    clique_number,
    complement,
    complete_graph,
    enumerate_graphs,
    independence_number,
    join,
    max_clique,
    solvers,
)

import brute
from brute import edges, from_edges
from conftest import random_graph


def test_clique_known(c5):
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(c5) == 2
    assert clique_number(from_edges(0, [])) == 0
    assert clique_number(from_edges(4, [])) == 1
    assert clique_number(complement(circulant(13, {1, 5}))) == 4


def test_max_clique_is_a_clique(petersen):
    for g in (petersen, complete_graph(6), circulant(9, {1, 2})):
        members = sorted(max_clique(g))
        assert len(members) == clique_number(g)
        assert all(g.adj[u] >> v & 1 for i, u in enumerate(members) for v in members[i + 1:])


def test_chromatic_known(c5, petersen):
    assert chromatic_number(c5) == 3
    assert chromatic_number(petersen) == 3
    for n in range(1, 8):
        assert chromatic_number(complete_graph(n)) == n
    assert chromatic_number(from_edges(0, [])) == 0
    assert chromatic_number(join([c5, complete_graph(2)])) == 5


def test_independence_known(c5):
    assert independence_number(c5) == 2
    assert independence_number(from_edges(7, [])) == 7
    assert independence_number(circulant(8, {1, 4})) == 3


def test_solvers_match_bruteforce():
    rng = random.Random(99)
    corpus = [random_graph(rng, rng.randrange(0, 9), rng.random()) for _ in range(150)]
    corpus += [complete_graph(5), from_edges(6, []), circulant(7, {1, 2}), circulant(8, {1, 4})]
    for g in corpus:
        assert clique_number(g) == brute.clique_number(g)
        assert chromatic_number(g) == brute.chromatic_number(g)
        assert independence_number(g) == brute.independence_number(g)


def test_basic_inequalities():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 10))
        omega = clique_number(g)
        chi = chromatic_number(g)
        assert omega <= chi <= g.n
        assert independence_number(g) == clique_number(complement(g))


def test_edge_deletion_monotonicity():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 9), 0.7)
        if not edges(g):
            continue
        omega, chi = clique_number(g), chromatic_number(g)
        u, v = rng.choice(edges(g))
        smaller = from_edges(g.n, [e for e in edges(g) if e != (u, v)])
        assert clique_number(smaller) <= omega
        assert chi - 1 <= chromatic_number(smaller) <= chi


def test_chromatic_matches_bruteforce_on_census():
    # every isomorphism class on up to 7 vertices: 1,253 graphs, most of them
    # settled by the greedy bound meeting the clique bound
    count = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            count += 1
            assert chromatic_number(g) == brute.chromatic_number(g), g
    assert count == 1253


def _first_fit_colors(g):
    # first-fit greedy coloring, vertices by descending degree, ties by index
    classes = []
    for v in sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v)):
        for cls in classes:
            if not any(g.adj[u] >> v & 1 for u in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    return len(classes)


def test_root_coloring_is_first_fit():
    # the clique search's root color count is chi's greedy upper bound
    rng = random.Random(41)
    corpus = [g for n in range(8) for g in enumerate_graphs(n)]
    assert len(corpus) == 1253
    corpus += [random_graph(rng, rng.randrange(0, 65), rng.random()) for _ in range(200)]
    for g in corpus:
        assert solvers._max_clique_within(g)[2] == _first_fit_colors(g), g


def _crown(m):
    # K_{m,m} minus a perfect matching, sides interleaved as 2i and 2i + 1
    return from_edges(2 * m, [(2 * i, 2 * j + 1) for i in range(m) for j in range(m) if i != j])


def _grotzsch():
    # Mycielskian of C5: cycle 0..4, shadows 5..9, apex 10
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    pairs += [(5 + i, 10) for i in range(5)]
    return from_edges(11, pairs)


def _wheel(rim):
    return join([circulant(rim, {1}), complete_graph(1)])


def test_chromatic_where_greedy_is_loose():
    for m in range(3, 7):
        crown = _crown(m)
        root_colors = solvers._max_clique_within(crown)[2]
        assert root_colors == m  # first-fit is far off here
        assert clique_number(crown) == 2
        assert chromatic_number(crown) == 2
    grotzsch = _grotzsch()
    assert clique_number(grotzsch) == 2
    assert chromatic_number(grotzsch) == brute.chromatic_number(grotzsch) == 4
    for rim in (5, 7, 9):
        wheel = _wheel(rim)
        assert clique_number(wheel) == 3
        assert chromatic_number(wheel) == brute.chromatic_number(wheel) == 4


def _mycielskian(g):
    # shadow n + v of each v, joined to v's neighbors, and an apex 2n on the shadows
    n = g.n
    pairs = edges(g) + [(n + a, b) for u, v in edges(g) for a, b in ((u, v), (v, u))]
    return from_edges(2 * n + 1, pairs + [(n + v, 2 * n) for v in range(n)])


def test_inclusion_exclusion_oracle_matches_recursion():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert brute.chromatic_number_by_inclusion_exclusion(g) == brute.chromatic_number(g), g


def test_chromatic_search_matches_inclusion_exclusion_past_eight_vertices():
    # only graphs whose root coloring exceeds omega, the ones that reach the
    # k-colorability search; both its outcomes (a k below the greedy bound,
    # and every such k refuted) occur
    rng = random.Random(16)
    checked = 0
    for n in (12, 14, 16):
        for p in (0.3, 0.5, 0.7):
            kept = 0
            while kept < 4:
                g = random_graph(rng, n, p)
                omega, _, upper, _, _ = solvers._max_clique_within(g)
                if upper > omega:
                    kept += 1
                    assert chromatic_number(g) == brute.chromatic_number_by_inclusion_exclusion(g), g
            checked += kept
    assert checked == 36
    # Mycielski's construction keeps omega = 2 and raises chi by one
    m5 = _mycielskian(_grotzsch())
    assert m5.n == 23
    assert clique_number(m5) == 2
    assert chromatic_number(m5) == 5


class _AlphaCalled(Exception):
    pass


def test_chromatic_skips_alpha_when_bounds_meet(monkeypatch, c5):
    def no_alpha(g):
        raise _AlphaCalled

    monkeypatch.setattr(solvers, "independence_number", no_alpha)
    for n in range(1, 7):
        assert chromatic_number(complete_graph(n)) == n
    for n in (4, 6, 10):
        assert chromatic_number(circulant(n, {1})) == 2
    path = from_edges(7, [(i, i + 1) for i in range(6)])
    star = from_edges(6, [(0, i) for i in range(1, 6)])
    binary = from_edges(15, [(i, 2 * i + j) for i in range(7) for j in (1, 2)])
    for tree in (path, star, binary):
        assert chromatic_number(tree) == 2
    for a, b in ((1, 1), (2, 3), (4, 4)):
        assert chromatic_number(join([from_edges(a, []), from_edges(b, [])])) == 2
    # chi(C5) = 3 > omega = 2: no coloring meets the clique bound
    with pytest.raises(_AlphaCalled):
        chromatic_number(c5)


def test_clique_matches_networkx_past_eight_vertices():
    # an independent oracle where the brute force cannot reach: the
    # degree-order relabelling and the search on up to 64 vertices
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for n in [*rng.sample(range(9, 64), 30), 64, 64]:
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges(g))
        omega = max(len(c) for c in nx.find_cliques(h))
        assert clique_number(g) == omega
        members = sorted(max_clique(g))
        assert len(members) == omega
        assert all(g.adj[u] >> v & 1 for i, u in enumerate(members) for v in members[i + 1:])
