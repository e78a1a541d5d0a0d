"""Independent brute-force oracles for the test suite.

These deliberately share no code with the package solvers: cliques and
independent sets by subset enumeration, colorability by bare recursion,
matchings by exhaustive choice.  Only usable for small n, which is the
point — they are the ground truth the fast solvers are pinned against.
Automorphisms come from trying every permutation, not from a backtrack.
The partition minima enumerate every partition instead of running q's
dynamic program.  The Edmonds-Gallai partition is read off its
definitions, by deleting one vertex at a time, instead of off a blossom
search.  The helpers at the top (an edge-list builder, an edge
reader and a relabeller) make the suite's inputs; the package itself works
only on adjacency rows.
"""

from itertools import combinations, permutations

from minclique import Graph, IntInterval, small_omega
from minclique.graphs import bits, permuted_rows


def from_edges(n: int, pairs) -> Graph:
    """Graph on n vertices with exactly the given edges (duplicates collapsed)."""
    rows = [0] * n
    for u, v in pairs:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges (u, v) with u < v, in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the permutation sending v to perm[v]."""
    # the new vertex i is the old vertex that perm sends to i
    order = sorted(range(g.n), key=perm.__getitem__)
    return Graph(g.n, tuple(permuted_rows(g.adj, order)))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g, as the tuple of vertex images, by trying all
    n! permutations: usable to about 6 vertices."""
    return [perm for perm in permutations(range(g.n))
            if all(sum(1 << perm[u] for u in bits(g.adj[v])) == g.adj[perm[v]]
                   for v in range(g.n))]


def clique_number(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        if r <= best:
            break
        for comb in combinations(range(g.n), r):
            if all(g.adj[u] >> v & 1 for u, v in combinations(comb, 2)):
                best = r
                break
    return best


def independence_number(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        if r <= best:
            break
        for comb in combinations(range(g.n), r):
            if not any(g.adj[u] >> v & 1 for u, v in combinations(comb, 2)):
                best = r
                break
    return best


def is_k_colorable(g: Graph, k: int) -> bool:
    colors = [-1] * g.n

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        used = {colors[u] for u in bits(g.adj[v]) if colors[u] >= 0}
        for c in range(min(k, v + 1)):  # at most one new color per vertex
            if c in used:
                continue
            colors[v] = c
            if rec(v + 1):
                return True
            colors[v] = -1
        return False

    return g.n == 0 or rec(0)


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    k = 1
    while not is_k_colorable(g, k):
        k += 1
    return k


def chromatic_number_by_inclusion_exclusion(g: Graph) -> int:
    """Least k with sum over S of (-1)^(n - |S|) i(S)^k > 0, where i(S)
    counts the independent sets inside S, the empty one included
    (Bjorklund, Husfeldt and Koivisto).  The sum counts the k-tuples of
    independent sets that cover every vertex, so it is positive iff k
    colors suffice.  Time and memory 2^n: usable to about 20 vertices."""
    count = [1]  # count[S] = i(S) for S within the vertices seen so far
    even = [True]  # whether |S| has the parity of the vertices seen so far
    for v in range(g.n):
        earlier = g.adj[v] & ((1 << v) - 1)
        count += [count[s] + count[s & ~earlier] for s in range(1 << v)]
        even = [not e for e in even] + even
    plus = [c for c, e in zip(count, even) if e]
    minus = [c for c, e in zip(count, even) if not e]
    k, plus_k, minus_k = 0, [1] * len(plus), [1] * len(minus)
    while sum(plus_k) <= sum(minus_k):
        k += 1
        plus_k = [p * c for p, c in zip(plus_k, plus)]
        minus_k = [m * c for m, c in zip(minus_k, minus)]
    return k


def matching_number(g: Graph) -> int:
    pairs = edges(g)

    def rec(i: int, used: int) -> int:
        if i == len(pairs):
            return 0
        best = rec(i + 1, used)
        u, v = pairs[i]
        if not (used >> u & 1) and not (used >> v & 1):
            best = max(best, 1 + rec(i + 1, used | 1 << u | 1 << v))
        return best

    return rec(0, 0)


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and matching_number(g) == g.n // 2


def induced(g: Graph, vertices) -> Graph:
    """Subgraph on the given vertices, renumbered in increasing order."""
    order = sorted(vertices)
    return Graph(len(order), tuple(
        sum(1 << j for j, u in enumerate(order) if g.adj[v] >> u & 1) for v in order
    ))


def d_by_deletion(h: Graph, nu_of=matching_number) -> frozenset[int]:
    """D of the Edmonds-Gallai partition by its direct characterization: the
    vertices v with nu(h - v) = nu(h), with `nu_of` for matching numbers."""
    everything = set(range(h.n))
    nu = nu_of(h)
    return frozenset(v for v in everything if nu_of(induced(h, everything - {v})) == nu)


def gallai_partition(h: Graph, nu_of=matching_number):
    """The Edmonds-Gallai partition of h from its definitions alone, with
    `nu_of` for every matching number: D by deletion, the separator A the
    neighbours of D outside D.  Returns (isolated, separator, components),
    the components being those of h - A - isolated as (vertices, matching
    number) pairs, by size, then least vertex."""
    everything = set(range(h.n))
    d = d_by_deletion(h, nu_of)
    separator = frozenset(u for v in d for u in bits(h.adj[v]) if u not in d)
    isolated = frozenset(v for v in everything if not h.adj[v])
    rest = everything - separator - isolated
    components = []
    while rest:
        comp, frontier = set(), [min(rest)]
        while frontier:
            v = frontier.pop()
            if v in rest:
                rest.discard(v)
                comp.add(v)
                frontier.extend(bits(h.adj[v]))
        components.append((frozenset(comp), nu_of(induced(h, comp))))
    components.sort(key=lambda c: (len(c[0]), min(c[0])))
    return isolated, separator, components


def gallai_faults(h: Graph, nu: int, nu_of=matching_number) -> list[str]:
    """The properties of `gallai_partition(h)` that fail, given nu = nu(h):
    each component has 2 nu_i or 2 nu_i + 1 vertices, the separator is at
    most the number of odd components, and nu = sum(nu_i) + |separator|.
    For h the complement of a graph with independence number at most 2, nu
    is n - chi of that graph (Gallai), so passing n - chi checks both."""
    _, separator, components = gallai_partition(h, nu_of)
    faults = [f"component {sorted(c)} has {len(c)} vertices and matching number {nu_i}"
              for c, nu_i in components if len(c) - 2 * nu_i not in (0, 1)]
    odd = sum(len(c) % 2 for c, _ in components)
    if len(separator) > odd:
        faults.append(f"separator of {len(separator)} exceeds the {odd} odd components")
    total = sum(nu_i for _, nu_i in components) + len(separator)
    if total != nu:
        faults.append(f"components and separator give matching number {total}, not {nu}")
    return faults


def partitions(k: int, s: int, largest: int):
    """Partitions of k into at most s parts of at most `largest` each, as
    descending tuples."""
    if k == 0:
        yield ()
    elif s:
        for p in range(min(k, largest), 0, -1):
            for rest in partitions(k - p, s - 1, p):
                yield (p,) + rest


def q_bounded(k: int, s: int) -> tuple[IntInterval, tuple[int, ...]]:
    """Least total block cost, small_omega(2p + 1) - 1 per part p, over the
    partitions of k into at most s parts, with the parts that attain the
    lower endpoint: lowest lo, then fewest parts, then the lexicographically
    largest part vector.  The upper endpoint is minimized on its own."""
    cost = {p: small_omega(2 * p + 1) - 1 for p in range(1, k + 1)}
    scored = [(sum(cost[p].lo for p in parts), sum(cost[p].hi for p in parts), parts)
              for parts in partitions(k, s, k)]
    lo, _, parts = min(scored, key=lambda t: (t[0], len(t[2]), [-p for p in t[2]]))
    return IntInterval(lo, min(hi for _, hi, _ in scored)), parts


def chromatic_gap(n: int) -> IntInterval:
    """Endpointwise max of 0 and k - q_bounded(k, n - 2k) over 2k + 1 <= n."""
    values = {k: q_bounded(k, n - 2 * k)[0] for k in range(1, (n - 1) // 2 + 1)}
    return IntInterval(max([0] + [k - v.hi for k, v in values.items()]),
                       max([0] + [k - v.lo for k, v in values.items()]))
