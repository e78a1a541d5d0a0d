"""Maximum matching in general graphs and the Edmonds-Gallai decomposition.

The matching solver is the classic blossom (augmenting path with blossom
shrinking) algorithm in its contracted-base formulation: a BFS forest of
alternating paths, with odd cycles collapsed by rerooting every member's
`base` pointer at the cycle's least common ancestor.  O(V^3), exact.

The decomposition D / A / C is read off one maximum matching: against it
the search from each exposed vertex fails, marking exactly the vertices an
even alternating path reaches, and D (the vertices some maximum matching
misses) is the union of those marks.  A is the outside neighborhood of D, C
is everything else.  The tests check D against the direct characterization,
v in D iff deleting v does not drop the matching number.

`verify_complement_partition` returns, for a concrete graph with
independence number 2, one verdict on the partition of the complement that
the Edmonds-Gallai theorem yields: with the isolated vertices and the
separator X = A removed, each remaining component has size 2k_i or
2k_i + 1 where k_i is its internal matching number, X is at most the number
of odd components, and the matching number decomposes as sum(k_i) + |X|.
The report keeps only k and the verdict; the tests recompute the partition
on their own (`tests/brute.py`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import Graph, bits, complement, induced_subgraph
from . import solvers


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges; pairs are (u, v) with u < v."""

    pairs: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.pairs)


def matching_number(g: Graph) -> int:
    """Edges in a maximum matching: half the matched vertices, no pairs built."""
    return (g.n - _maximum_mates(_neighbor_lists(g)).count(-1)) // 2


def _neighbor_lists(g: Graph) -> list[list[int]]:
    """Neighbors of each vertex, ascending, by an inline low-bit loop."""
    lists = []
    for row in g.adj:
        nbrs = []
        while row:
            low = row & -row
            nbrs.append(low.bit_length() - 1)
            row ^= low
        lists.append(nbrs)
    return lists


def _pairs(mate: list[int]) -> Matching:
    return Matching(frozenset((v, u) for v, u in enumerate(mate) if 0 <= v < u))


def _maximum_mates(neighbors: list[list[int]]) -> list[int]:
    n = len(neighbors)
    mate = [-1] * n
    for v in range(n):  # greedy seed
        if mate[v] < 0:
            for u in neighbors[v]:
                if mate[u] < 0:
                    mate[v] = u
                    mate[u] = v
                    break
    for v in range(n):
        if mate[v] < 0:
            _search(neighbors, mate, v)
    return mate


def _search(neighbors: list[list[int]], mate: list[int], root: int) -> list[bool] | None:
    """Grow an alternating tree from the exposed vertex `root`: flip the first
    augmenting path into `mate` and return None, or return the outer marks,
    True exactly where an even alternating path from `root` reaches."""
    n = len(neighbors)
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    outer = [False] * n
    outer[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in neighbors[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                # odd cycle through the forest: shrink the blossom
                cur = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur, to, in_blossom)
                mark_path(to, cur, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                if mate[to] < 0:
                    # augmenting path found: flip along the parents
                    u = to
                    while u >= 0:
                        pv = parent[u]
                        nxt = mate[pv]
                        mate[u] = pv
                        mate[pv] = u
                        u = nxt
                    return None
                outer[mate[to]] = True
                queue.append(mate[to])
    return outer


@dataclass(frozen=True)
class EGDecomposition:
    """The canonical partition describing all maximum matchings.

    d: vertices missed by at least one maximum matching; a: their outside
    neighborhood; c: the rest (perfectly matched among themselves).
    """

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]
    matching: Matching
    components_of_d: tuple[frozenset[int], ...]


def edmonds_gallai(g: Graph) -> EGDecomposition:
    neighbors = _neighbor_lists(g)
    mate = _maximum_mates(neighbors)
    # the matching is maximum, so every search fails and only marks
    d = frozenset(
        v for root in range(g.n) if mate[root] < 0
        for v, even in enumerate(_search(neighbors, mate, root)) if even
    )
    a = frozenset(
        u for v in d for u in neighbors[v] if u not in d
    )
    c = frozenset(range(g.n)) - d - a
    return EGDecomposition(d, a, c, _pairs(mate), _components_within(g, d))


def _components_within(g: Graph, vertex_set: frozenset[int]) -> tuple[frozenset[int], ...]:
    todo = set(vertex_set)
    comps = []
    while todo:
        start = min(todo)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in bits(g.adj[v]):
                if u in todo and u not in comp:
                    comp.add(u)
                    frontier.append(u)
        todo -= comp
        comps.append(frozenset(comp))
    return tuple(sorted(comps, key=min))


# -- partition check for alpha = 2 graphs -------------------------------------


@dataclass(frozen=True)
class ComplementPartitionReport:
    k: int
    passed: bool  # every property of the partition holds


def verify_complement_partition(g: Graph, k: int) -> ComplementPartitionReport:
    """The verdict on the partition of the complement of an alpha=2 graph
    whose chromatic number is n - k.

    Preconditions (alpha(g) = 2 and chi(g) = n - k) are verified exactly
    and reported as a PreconditionError, never as a failed verdict.  With
    alpha = 2 every colour class is an edge of the complement or a single
    vertex, so chi = n - nu(complement) (Gallai), read off the matching the
    decomposition already holds.
    """
    gbar = complement(g)
    alpha = solvers.clique_number(gbar)  # independence number of g
    if alpha != 2:
        raise PreconditionError(f"independence number is {alpha}, need exactly 2")
    decomp = edmonds_gallai(gbar)
    chi = g.n - decomp.matching.size
    if chi != g.n - k:
        raise PreconditionError(
            f"chromatic number is {chi}, need n - k = {g.n} - {k} = {g.n - k}"
        )
    # an isolated vertex is in D, never in the separator A
    rest = frozenset(v for v in range(gbar.n) if gbar.adj[v]) - decomp.a
    comps = [(len(comp), matching_number(induced_subgraph(gbar, comp)))
             for comp in _components_within(gbar, rest)]
    passed = (
        all(size - 2 * nu in (0, 1) for size, nu in comps)
        and len(decomp.a) <= sum(size % 2 for size, _ in comps)
        and sum(nu for _, nu in comps) + len(decomp.a) == k
    )
    return ComplementPartitionReport(k, passed)
