import itertools
import random

import pytest

from minclique import (
    CapacityError,
    brute_Q,
    brute_gap,
    canonical_form,
    chromatic_number,
    circulant,
    clique_number,
    complement,
    complete_graph,
    count_graphs,
    disjoint_union,
    enumerate_graphs,
    from_edges,
    join,
    relabel,
)
from minclique.oracle import (
    KNOWN_CLASS_COUNTS,
    _vertex_keys,
    export_q_table_csv,
    level_stats,
    verify_clique_formula,
)

import brute
from conftest import random_graph


def test_counts_small():
    assert count_graphs(0) == 1
    assert count_graphs(4) == 11
    assert count_graphs(5) == 34


def test_counts_match_published_sequence():
    for n, expected in enumerate(KNOWN_CLASS_COUNTS):
        assert count_graphs(n) == expected


def test_capacity_error():
    with pytest.raises(CapacityError):
        count_graphs(9)
    with pytest.raises(CapacityError):
        list(enumerate_graphs(-1))


def test_representatives_are_pairwise_nonisomorphic():
    forms = [canonical_form(g) for g in enumerate_graphs(7)]
    assert len(set(forms)) == len(forms) == 1044


# OEIS A008406, row n = 8: the number of 8-vertex graphs with e edges,
# e = 0..28, from the published table rather than from this enumerator
EDGE_COUNTS_8 = (
    1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
    1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1,
)


def test_level_8_edge_counts_match_published_row():
    assert len(EDGE_COUNTS_8) == 29 and sum(EDGE_COUNTS_8) == 12346
    histogram = [0] * 29
    for g in enumerate_graphs(8):
        histogram[g.num_edges] += 1
    assert tuple(histogram) == EDGE_COUNTS_8


def test_levels_are_closed_under_complement():
    for n in range(8):
        forms = {canonical_form(g) for g in enumerate_graphs(n)}
        assert {canonical_form(complement(g)) for g in enumerate_graphs(n)} == forms


def test_every_labelled_graph_on_5_vertices_is_represented():
    # all 2^10 labelled graphs, no augmentation involved
    pairs = list(itertools.combinations(range(5), 2))
    labelled = {
        canonical_form(from_edges(5, [e for i, e in enumerate(pairs) if mask >> i & 1]))
        for mask in range(1 << len(pairs))
    }
    assert labelled == {canonical_form(g) for g in enumerate_graphs(5)}


def _to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_classes_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas: dict[int, set] = {}
    for h in nx.graph_atlas_g():
        h = nx.convert_node_labels_to_integers(h)
        g = from_edges(h.number_of_nodes(), h.edges())
        atlas.setdefault(g.n, set()).add(canonical_form(g))
    assert sum(map(len, atlas.values())) == 1253
    for n in range(8):
        assert atlas[n] == {canonical_form(g) for g in enumerate_graphs(n)}


def test_q_tables_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    tables: dict[int, dict[int, int]] = {}
    for h in nx.graph_atlas_g():
        h = nx.convert_node_labels_to_integers(h)
        g = from_edges(h.number_of_nodes(), h.edges())
        chi, omega = brute.chromatic_number(g), brute.clique_number(g)
        table = tables.setdefault(g.n, {})
        table[chi] = min(table.get(chi, omega), omega)
    for n in range(8):
        assert tables[n] == level_stats(n).min_clique_by_chi


def _swap_edges(rng, g):
    """Degree-preserving double edge swap: uv, xy -> uy, xv when possible."""
    edges = g.edges()
    for _ in range(20):
        (u, v), (x, y) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            x, y = y, x
        if len({u, v, x, y}) == 4 and not g.has_edge(u, y) and not g.has_edge(x, v):
            rest = [e for e in edges if e not in ((u, v), (x, y), (y, x))]
            return from_edges(g.n, rest + [(u, y), (x, v)])
    return None


def test_canonical_form_agrees_with_networkx_isomorphism():
    nx = pytest.importorskip("networkx")
    rng = random.Random(53)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(6, 8)
        a = random_graph(rng, n, rng.uniform(0.2, 0.8))
        perm = list(range(n))
        rng.shuffle(perm)
        others = [relabel(a, perm), random_graph(rng, n, 0.5)]
        if a.num_edges >= 2:
            others.append(_swap_edges(rng, a))
        for b in others:
            if b is None:
                continue
            same = nx.is_isomorphic(_to_networkx(nx, a), _to_networkx(nx, b))
            assert (canonical_form(a) == canonical_form(b)) == same
            verdicts.add(same)
    assert verdicts == {True, False}


def _sizes(rng, n, parts):
    """A random composition of n into `parts` positive sizes."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _blow_up(base, sizes, clique):
    """Vertex i of base becomes sizes[i] vertices, independent or a clique;
    the copies of two adjacent vertices are completely joined."""
    start = list(itertools.accumulate(sizes, initial=0))
    blocks = [range(start[i], start[i + 1]) for i in range(base.n)]
    edges = []
    for i, block in enumerate(blocks):
        if clique:
            edges += itertools.combinations(block, 2)
        for j in base.neighbors(i):
            if i < j:
                edges += itertools.product(block, blocks[j])
    return from_edges(start[-1], edges)


def test_canonical_form_agrees_with_networkx_on_twin_heavy_graphs():
    # many interchangeable vertices: the case twin pruning cuts short
    nx = pytest.importorskip("networkx")
    rng = random.Random(61)
    c5 = circulant(5, {1})
    verdicts = set()
    for n in range(6, 13):
        family = [from_edges(n, []), complete_graph(n)]
        for _ in range(2):
            sizes = _sizes(rng, n, rng.randint(2, 5))
            family.append(join([from_edges(s, []) for s in sizes]))  # complete multipartite
            family.append(disjoint_union([complete_graph(s) for s in sizes]))
        for clique in (False, True):
            sizes = _sizes(rng, n, 5)
            turned = sizes[2:] + sizes[:2]  # a rotation of C5: isomorphic
            family += [_blow_up(c5, sizes, clique), _blow_up(c5, turned, clique),
                       _blow_up(c5, rng.sample(sizes, 5), clique)]
        for a in family:
            swapped = _swap_edges(rng, a) if a.num_edges >= 2 else None
            pairs = [(a, rng.choice(family)), (a, swapped)]
            pairs += [(g, relabel(g, rng.sample(range(n), n)))
                      for g in (a, swapped) if g is not None]
            for g, h in pairs:
                if h is None:
                    continue
                g_nx, h_nx = _to_networkx(nx, g), _to_networkx(nx, h)
                # could_be_isomorphic (degrees, triangles, cliques) rules
                # most pairs out at once; VF2 alone takes seconds on some
                same = nx.could_be_isomorphic(g_nx, h_nx) and nx.is_isomorphic(g_nx, h_nx)
                assert (canonical_form(g) == canonical_form(h)) == same
                verdicts.add(same)
    assert verdicts == {True, False}


def test_canonical_form_invariance():
    rng = random.Random(31)
    for g in list(enumerate_graphs(5)) + list(enumerate_graphs(6))[:40]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_canonical_form_separates():
    assert canonical_form(circulant(5, {1})) != canonical_form(complete_graph(5))


def test_brute_q_examples():
    assert brute_Q(5, 5) == 5
    assert brute_Q(6, 5) == 5
    assert brute_Q(7, 5) == 4
    assert brute_Q(5, 3) == 2


def test_brute_q_exact_small_rows():
    for n in range(2, 9):
        assert brute_Q(n, n) == n
        assert brute_Q(n, n - 1) == n - 1
    for n in range(5, 9):
        assert brute_Q(n, n - 2) <= n - 3


def test_brute_q_attained_by_witness():
    for n in range(1, 8):
        stats = level_stats(n)
        for c, omega in stats.min_clique_by_chi.items():
            g = stats.witness_by_chi[c]
            assert chromatic_number(g) == c
            assert clique_number(g) == omega


def test_brute_q_range_errors():
    with pytest.raises(ValueError):
        brute_Q(5, 0)
    with pytest.raises(ValueError):
        brute_Q(5, 6)
    with pytest.raises(CapacityError):
        brute_Q(9, 3)


def test_gap_values_and_identity():
    expected = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1, 8: 1}
    for n, gap in expected.items():
        assert brute_gap(n) == gap
    for n in range(1, 9):
        table = level_stats(n).min_clique_by_chi
        assert brute_gap(n) == max(c - q for c, q in table.items())


def test_formula_verification():
    entries = verify_clique_formula(8)
    assert all(e.passed for e in entries)
    names = {e.name for e in entries}
    assert names == {
        f"n={n},k={k}" for n in range(9) for k in range((n - 3) // 2 + 1)
    }
    assert "n=7,k=2" in names

    (small,) = verify_clique_formula(3)
    assert small.passed and small.name == "n=3,k=0"


def test_enumeration_agrees_with_brute_on_level_4():
    # spot check the level stats against the independent brute oracles
    for g in enumerate_graphs(4):
        assert chromatic_number(g) == brute.chromatic_number(g)
        assert clique_number(g) == brute.clique_number(g)


def test_csv_export():
    text = export_q_table_csv(4)
    lines = text.strip().splitlines()
    assert lines[0] == "n,c,min_clique"
    assert "4,4,4" in lines
    assert "3,2,2" in lines


def test_vertex_keys_match_definition():
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 13), rng.random())
        expected = [
            (g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v))))
            for v in range(g.n)
        ]
        assert _vertex_keys(g.n, g.adj) == expected
