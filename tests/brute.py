"""Independent brute-force oracles for the test suite.

These deliberately share no code with the package solvers: cliques and
independent sets by subset enumeration, colorability by bare recursion,
matchings by exhaustive choice.  Only usable for small n, which is the
point — they are the ground truth the fast solvers are pinned against.
The partition minima enumerate every partition instead of running q's
dynamic program.
"""

from itertools import combinations

from minclique import Graph, IntInterval, small_omega


def clique_number(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        if r <= best:
            break
        for comb in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(comb, 2)):
                best = r
                break
    return best


def independence_number(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        if r <= best:
            break
        for comb in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(comb, 2)):
                best = r
                break
    return best


def is_k_colorable(g: Graph, k: int) -> bool:
    colors = [-1] * g.n

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        used = {colors[u] for u in g.neighbors(v) if colors[u] >= 0}
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
    edges = g.edges()

    def rec(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        best = rec(i + 1, used)
        u, v = edges[i]
        if not (used >> u & 1) and not (used >> v & 1):
            best = max(best, 1 + rec(i + 1, used | 1 << u | 1 << v))
        return best

    return rec(0, 0)


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and matching_number(g) == g.n // 2


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
