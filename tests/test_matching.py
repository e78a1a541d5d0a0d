import random

import pytest

from minclique import (
    PreconditionError,
    chromatic_number,
    complement,
    edmonds_gallai,
    induced_subgraph,
    matching_number,
    verify_complement_partition,
)
from minclique import matching, solvers
from minclique.oracle import enumerate_graphs

import brute
from brute import edges, from_edges, relabel
from conftest import random_graph, random_triangle_free


def test_matching_known(c5, k4, petersen):
    assert matching_number(c5) == 2
    assert matching_number(k4) == 2
    assert matching_number(petersen) == 5
    assert matching_number(from_edges(6, [])) == 0


def test_matching_is_valid(petersen):
    seen = set()
    for u, v in edmonds_gallai(petersen).matching.pairs:
        assert petersen.adj[u] >> v & 1
        assert u not in seen and v not in seen
        seen.update((u, v))


def test_matching_matches_bruteforce_small():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert matching_number(g) == brute.matching_number(g)


def test_matching_matches_bruteforce_random():
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 11), rng.random())
        assert matching_number(g) == brute.matching_number(g)


def test_matching_relabel_invariant(petersen, c5):
    rng = random.Random(8)
    for g in (petersen, c5, random_graph(rng, 9, 0.4)):
        nu = matching_number(g)
        for _ in range(50):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert matching_number(relabel(g, perm)) == nu


def _nx_matching_number(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    return len(nx.max_weight_matching(h, maxcardinality=True))


def test_matching_matches_networkx_random():
    rng = random.Random(64)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 65), rng.random() ** 2)
        assert matching_number(g) == _nx_matching_number(g)


def test_edmonds_gallai_d_matches_bruteforce():
    rng = random.Random(29)
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    graphs += [random_graph(rng, rng.randrange(1, 11), rng.random()) for _ in range(200)]
    for g in graphs:
        assert edmonds_gallai(g).d == brute.d_by_deletion(g)


def test_edmonds_gallai_d_matches_networkx():
    rng = random.Random(40)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(11, 41), rng.random() ** 2)
        assert edmonds_gallai(g).d == brute.d_by_deletion(g, _nx_matching_number)


def test_edmonds_gallai_examples(c5, k4):
    d = edmonds_gallai(c5)
    assert d.d == frozenset(range(5)) and not d.a and not d.c

    d = edmonds_gallai(k4)
    assert not d.d and not d.a and d.c == frozenset(range(4))

    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    d = edmonds_gallai(star)
    assert d.d == frozenset({1, 2, 3})
    assert d.a == frozenset({0})
    assert not d.c


def test_edmonds_gallai_structure():
    rng = random.Random(12)
    graphs = [random_graph(rng, rng.randrange(1, 11), rng.random()) for _ in range(40)]
    for g in graphs:
        decomp = edmonds_gallai(g)
        nu = decomp.matching.size
        # partition
        assert decomp.d | decomp.a | decomp.c == frozenset(range(g.n))
        assert not (decomp.d & decomp.a) and not (decomp.d & decomp.c)
        # deficiency count: n - 2 nu = (#components of D) - |A|
        assert g.n - 2 * nu == len(decomp.components_of_d) - len(decomp.a)
        # each D-component is factor-critical
        for comp in decomp.components_of_d:
            sub = induced_subgraph(g, comp)
            for v in range(sub.n):
                rest = induced_subgraph(sub, set(range(sub.n)) - {v})
                assert brute.has_perfect_matching(rest) or rest.n == 0


def test_chi_plus_nu_identity():
    # for independence number <= 2: chromatic number + matching number of
    # the complement = vertex count
    rng = random.Random(77)
    count = 0
    while count < 40:
        g = complement(random_triangle_free(rng, rng.randrange(1, 11)))
        count += 1
        assert chromatic_number(g) + matching_number(complement(g)) == g.n


def test_partition_report_c5(c5):
    assert verify_complement_partition(c5, 2).passed
    isolated, separator, components = brute.gallai_partition(complement(c5))
    assert not isolated and not separator
    assert components == [(frozenset(range(5)), 2)]  # one odd component


def test_partition_report_k6_minus_matching():
    g = from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                       if (u, v) not in {(0, 1), (2, 3), (4, 5)}])
    assert verify_complement_partition(g, 3).passed
    _, separator, components = brute.gallai_partition(complement(g))
    assert [(len(c), nu) for c, nu in components] == [(2, 1)] * 3  # three even ones
    assert not separator


def test_partition_report_with_separator():
    # complement is a star plus an isolated vertex: one cut vertex, leaves
    gbar = from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert verify_complement_partition(complement(gbar), 1).passed
    isolated, separator, _ = brute.gallai_partition(gbar)
    assert separator == frozenset({0})
    assert isolated == frozenset({4})


def test_partition_report_singletons():
    # K3 + K1: the complement is a star centred on 3, so 3 separates three singletons
    gbar = from_edges(4, [(0, 3), (1, 3), (2, 3)])
    assert verify_complement_partition(complement(gbar), 1).passed
    isolated, separator, components = brute.gallai_partition(gbar)
    assert separator == frozenset({3}) and not isolated
    assert [(len(c), nu) for c, nu in components] == [(1, 0)] * 3


def test_partition_verdict_can_fail(monkeypatch, c5):
    # chi comes from the decomposition's matching, so only the component
    # matching numbers move: the verdict fails, no precondition does
    real = matching.matching_number
    monkeypatch.setattr(matching, "matching_number", lambda g: real(g) + 1)
    assert verify_complement_partition(c5, 2).passed is False


def _census_alpha2():
    """The census graphs with independence number exactly 2: their
    complements have an edge and no triangle."""
    for n in range(9):
        for g in enumerate_graphs(n):
            gbar = complement(g)
            if any(gbar.adj) and all(gbar.adj[u] & gbar.adj[v] == 0 for u, v in edges(gbar)):
                yield g


def test_partition_bullets_on_census_alpha2():
    # a second way for Gallai's chi = n - nu(complement): the partition
    # bullets with nu taken as n - chi, all by brute force
    graphs = list(_census_alpha2())
    assert len(graphs) == 574
    for g in graphs:
        k = g.n - brute.chromatic_number(g)
        assert brute.gallai_faults(complement(g), k) == [], g
        assert verify_complement_partition(g, k).passed


def test_partition_bullets_on_catalog_blocks(catalog):
    for x in range(1, 19):
        block, _, chi = catalog.witness_alpha2(x)
        k = x - chi
        gbar = complement(block)
        assert brute.gallai_faults(gbar, k, _nx_matching_number) == [], x
        if any(gbar.adj):  # alpha = 2, not 1: the catalog certifies alpha <= 2
            assert verify_complement_partition(block, k).passed, x


def test_partition_takes_chi_from_matching(monkeypatch, c5):
    def forbidden(g):
        raise AssertionError("chromatic_number called")

    monkeypatch.setattr(solvers, "chromatic_number", forbidden)
    assert verify_complement_partition(c5, 2).passed
    with pytest.raises(PreconditionError, match="chromatic number is 3"):
        verify_complement_partition(c5, 3)


def test_partition_precondition_errors(petersen, k4):
    with pytest.raises(PreconditionError):
        verify_complement_partition(petersen, 5)  # alpha = 4
    with pytest.raises(PreconditionError):
        verify_complement_partition(k4, 0)  # alpha = 1
    c5_plus_dominator = complement(from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
    with pytest.raises(PreconditionError):
        verify_complement_partition(c5_plus_dominator, 3)  # wrong k
