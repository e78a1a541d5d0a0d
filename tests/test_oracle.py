import io
import itertools
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

from minclique import (
    CapacityError,
    brute_gap,
    canonical_form,
    chromatic_number,
    circulant,
    clique_number,
    complement,
    complete_graph,
    count_graphs,
    enumerate_graphs,
    join,
    oracle,
    solvers,
)
from minclique.graphs import bits
from minclique.oracle import (
    KNOWN_CLASS_COUNTS,
    _canonical_columns,
    _generators,
    _vertex_keys,
    level_stats,
)
from minclique.cli import main

import brute
from brute import edges, from_edges, relabel
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


def _reference_levels(top):
    """Levels 0..top by the rule with no orbit pruning and no shortcut: each
    child of each parent that passes the degree test (as its definition)
    and the edge budget, whose new vertex has the maximal key, gets a
    canonical form, and the first child per form is kept."""
    levels = [[()]]
    for m in range(top):
        total = (m + 1) * m // 2
        first = {}
        for rows in levels[-1]:
            degs = [row.bit_count() for row in rows]
            for mask in range(1 << m):
                d = mask.bit_count()
                if d > total // 2 - sum(degs) // 2 or any(
                        d < degs[v] + (mask >> v & 1) for v in range(m)):
                    continue
                child = tuple(row | (mask >> v & 1) << m for v, row in enumerate(rows)) + (mask,)
                keys = _vertex_keys(m + 1, child)
                if keys[m] == max(keys):
                    first.setdefault(_canonical_columns(m + 1, child, keys), child)
        lighter = list(first.values())
        full = (1 << m + 1) - 1
        levels.append(lighter + [
            tuple(full ^ row ^ 1 << v for v, row in enumerate(rows))
            for rows in lighter if sum(row.bit_count() for row in rows) < total])
    return levels


def test_levels_equal_the_unpruned_reference_in_order():
    count_graphs(7)
    assert _reference_levels(7) == oracle._levels[:8]


def test_level_8_canonicalises_only_tied_children(monkeypatch):
    count_graphs(8)
    expected = oracle._levels[8]
    calls, keyed = [], []

    def counted(n, adj, keys):
        calls.append(n)
        return _canonical_columns(n, adj, keys)

    def counted_keys(n, adj):
        keyed.append(n)
        return _vertex_keys(n, adj)

    # the search nodes: calls of the nested extend, whose code object is a
    # constant of _canonical_columns
    (extend,) = [c for c in _canonical_columns.__code__.co_consts
                 if getattr(c, "co_name", None) == "extend"]
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is extend:
            nodes += 1

    monkeypatch.setattr(oracle, "_levels", oracle._levels[:8])
    monkeypatch.setattr(oracle, "_canonical_columns", counted)
    monkeypatch.setattr(oracle, "_vertex_keys", counted_keys)
    sys.setprofile(profile)
    try:
        count_graphs(8)
    finally:
        sys.setprofile(None)
    assert oracle._levels[8] == expected
    # a cut lost from the search (the minimal column, the best prefix or
    # the twin rule) changes this number even where every form stays
    assert nodes == 23247
    # 2,091 with a form for every tied child, 13,754 for every survivor
    assert len(calls) == 1257
    # children whose new vertex has a strictly top degree get no keys; the
    # count includes the keys recomputed for a bucket's first child (6,392
    # with a form for every tied child, 10,296 without the degree-first test)
    assert keyed.count(8) == 6782


def test_level_8_hash_collisions_only_cost_forms(monkeypatch):
    # with every tied child in one bucket, each tied child but the first
    # makes its form and the second also makes the first one's: the 2,091
    # forms of one set over all tied children, and the same level
    count_graphs(8)
    expected = oracle._levels[8]
    calls = []

    def counted(n, adj, keys):
        calls.append(n)
        return _canonical_columns(n, adj, keys)

    monkeypatch.setattr(oracle, "_levels", oracle._levels[:8])
    monkeypatch.setattr(oracle, "_canonical_columns", counted)
    monkeypatch.setattr(oracle, "hash", lambda keys: 0, raising=False)
    count_graphs(8)
    assert oracle._levels[8] == expected
    assert len(calls) == 2091


def _closure(n, generators):
    """The group the permutations generate: the identity, closed under
    composition with each generator."""
    identity = tuple(range(n))
    group, frontier = [identity], [identity]
    seen = {identity}
    while frontier:
        g = frontier.pop()
        for s in generators:
            h = tuple(s[g[v]] for v in range(n))
            if h not in seen:
                seen.add(h)
                group.append(h)
                frontier.append(h)
    return group


def test_automorphism_groups_satisfy_the_orbit_count():
    # each labelled graph on n vertices lies in the class of exactly one
    # representative G, whose class holds n!/|Aut(G)| labelled graphs; so
    # the sum over the level proves that the generators give all of Aut(G)
    for n in range(8):
        labelled = 0
        for g in enumerate_graphs(n):
            generators = _generators(n, g.adj, _vertex_keys(n, g.adj))
            # one map per (v, w): it fixes 0..v-1 and sends v to some w > v
            moved = [next((v, s[v]) for v in range(n) if s[v] != v) for s in generators]
            assert all(w > v for v, w in moved) and len(set(moved)) == len(moved)
            group = _closure(n, generators)
            assert len(set(group)) == len(group) and tuple(range(n)) in group
            for image in group:
                assert sorted(image) == list(range(n))
                assert all(
                    sum(1 << image[u] for u in bits(g.adj[v])) == g.adj[image[v]]
                    for v in range(n))
            assert math.factorial(n) % len(group) == 0
            labelled += math.factorial(n) // len(group)
        assert labelled == 2 ** (n * (n - 1) // 2)


def test_orbit_minima_equal_the_least_images_under_every_permutation():
    # the group by brute force (every permutation), the least mask per orbit
    # as the least image of each mask under that group
    for n in range(7):
        masks = list(range(1 << n))
        for g in enumerate_graphs(n):
            group = brute.automorphisms(g)
            generators = _generators(n, g.adj, _vertex_keys(n, g.adj))
            assert set(_closure(n, generators)) == set(group)
            least = {min(sum(1 << image[v] for v in bits(mask)) for image in group)
                     for mask in masks}
            assert oracle._orbit_minima(n, g.adj, masks) == sorted(least), g.adj


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
    h.add_edges_from(edges(g))
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
    gaps: dict[int, int] = {}
    for h in nx.graph_atlas_g():
        h = nx.convert_node_labels_to_integers(h)
        g = from_edges(h.number_of_nodes(), h.edges())
        chi, omega = brute.chromatic_number(g), brute.clique_number(g)
        table = tables.setdefault(g.n, {})
        table[chi] = min(table.get(chi, omega), omega)
        gaps[g.n] = max(gaps.get(g.n, 0), chi - omega)
    for n in range(8):
        assert tables[n] == level_stats(n)
        assert gaps[n] == brute_gap(n), n


def test_pruned_tables_equal_an_exact_search_on_every_graph():
    # the unpruned table, with the bounds the pruning rests on checked per graph
    for n in range(9):
        exact = {}
        for g in enumerate_graphs(n):
            low, high = oracle._greedy_bounds(n, g.adj)
            omega, chi = solvers.clique_and_chromatic_number(g)
            assert low <= omega <= chi <= high, g.adj
            if chi not in exact or omega < exact[chi]:
                exact[chi] = omega
        assert list(level_stats.__wrapped__(n).items()) == list(exact.items()), n


def test_level_stats_searches_only_where_an_entry_can_move(monkeypatch):
    calls = []
    exact = solvers.clique_and_chromatic_number

    def counted(g):
        calls.append(g.n)
        return exact(g)

    monkeypatch.setattr(solvers, "clique_and_chromatic_number", counted)
    for n in range(9):
        level_stats.__wrapped__(n)
    # 13,599 with a search on every graph; the count moves with the vertex
    # order of the greedy bounds (79 by descending degree)
    assert len(calls) == 686
    assert calls.count(8) == 655


def _swap_edges(rng, g):
    """Degree-preserving double edge swap: uv, xy -> uy, xv when possible."""
    pairs = edges(g)
    for _ in range(20):
        (u, v), (x, y) = rng.sample(pairs, 2)
        if rng.random() < 0.5:
            x, y = y, x
        if len({u, v, x, y}) == 4 and not g.adj[u] >> y & 1 and not g.adj[x] >> v & 1:
            rest = [e for e in pairs if e not in ((u, v), (x, y), (y, x))]
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
    pairs = []
    for i, block in enumerate(blocks):
        if clique:
            pairs += itertools.combinations(block, 2)
        for j in bits(base.adj[i]):
            if i < j:
                pairs += itertools.product(block, blocks[j])
    return from_edges(start[-1], pairs)


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
            family.append(complement(family[-1]))  # disjoint cliques
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


def test_canonical_form_on_64_vertex_twin_classes():
    # every vertex has a twin: with no twin rule the empty graph alone
    # would need 64! leaves; it needs no networkx, so every install runs it
    rng = random.Random(67)
    forms = {}
    for sizes in ((64,), (32, 32), (31, 33), (16,) * 4, (20, 20, 20, 4)):
        multipartite = join([from_edges(s, []) for s in sizes])  # (64,): empty
        for g in (multipartite, complement(multipartite)):
            form = canonical_form(g)
            assert canonical_form(relabel(g, rng.sample(range(64), 64))) == form
            forms[sizes, g is multipartite] = form
    # ten classes, so K32,32 and K31,33 get different forms
    assert len(set(forms.values())) == 10


def test_canonical_form_invariance():
    rng = random.Random(31)
    for g in list(enumerate_graphs(5)) + list(enumerate_graphs(6))[:40]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_canonical_form_separates():
    assert canonical_form(circulant(5, {1})) != canonical_form(complete_graph(5))


def test_brute_q_examples():
    # Q(n, c) is level_stats(n).get(c)
    assert level_stats(5).get(5) == 5
    assert level_stats(6).get(5) == 5
    assert level_stats(7).get(5) == 4
    assert level_stats(5).get(3) == 2


def test_brute_q_exact_small_rows():
    for n in range(2, 9):
        assert level_stats(n).get(n) == n
        assert level_stats(n).get(n - 1) == n - 1
    for n in range(5, 9):
        assert level_stats(n).get(n - 2) <= n - 3


def test_brute_q_range_errors():
    # no graph has chi = 0 or chi > n; the census stops at 8 vertices
    assert level_stats(5).get(0) is None and level_stats(5).get(6) is None
    for n in (-1, 9):
        with pytest.raises(CapacityError):
            level_stats(n)


def test_gap_values_and_identity():
    expected = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1, 8: 1}
    # brute_gap is defined as max(c - Q(n, c)) over the table; the atlas test
    # checks it against chi - omega of every graph on at most 7 vertices
    for n, gap in expected.items():
        assert brute_gap(n) == gap


def _theorem1_formula_rows(nmax):
    out, err = io.StringIO(), io.StringIO()
    assert main(["check", "theorem1", "--nmax", str(nmax)], out=out, err=err) == 0, err.getvalue()
    return [c for c in json.loads(out.getvalue())["checks"] if c["name"].startswith("n=")]


def test_formula_verification():
    rows = _theorem1_formula_rows(8)
    assert all(c["status"] == "pass" for c in rows)
    names = {c["name"] for c in rows}
    assert names == {
        f"n={n},k={k}" for n in range(9) for k in range((n - 3) // 2 + 1)
    }
    assert "n=7,k=2" in names

    (small,) = _theorem1_formula_rows(3)
    assert small["status"] == "pass" and small["name"] == "n=3,k=0"


def test_enumeration_agrees_with_brute_on_level_4():
    # spot check the level stats against the independent brute oracles
    for g in enumerate_graphs(4):
        assert chromatic_number(g) == brute.chromatic_number(g)
        assert clique_number(g) == brute.clique_number(g)


def test_vertex_keys_match_definition():
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 13), rng.random())
        expected = [
            (g.adj[v].bit_count(), tuple(sorted(g.adj[u].bit_count() for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        assert _vertex_keys(g.n, g.adj) == expected


def test_names_the_benchmark_tracer_looks_up_exist():
    # the tracer skips its per-level spans silently when a lookup finds
    # nothing, so a rename here would only read as oracle.level8.self_s = 0
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    names = re.findall(r'getattr\(oracle, "(\w+)", None\)', tracing.read_text())
    assert names
    for name in names:
        assert hasattr(oracle, name), name
