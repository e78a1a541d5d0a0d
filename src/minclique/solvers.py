"""Exact clique number, chromatic number, and independence number.

Clique: branch and bound over bitset candidate sets, vertices preordered by
descending degree (ties by lowest index), with a greedy-coloring upper bound
for pruning.  The coloring at the root of the search is first-fit over the
whole graph in that order, so one clique search yields omega, a maximum
clique and chi's upper bound together.  The search runs on the graph
relabelled into that order, P A P^T for the permutation matrix P; as A is
symmetric, that is P (P A)^T, one bit-matrix transpose of the reordered
rows (`graphs.permuted_rows`).

Chromatic number: bounds first, search only between them.  The root
coloring is proper, so its color count `upper` satisfies chi <= upper; a
maximum clique needs distinct colors, so omega <= chi.  When upper equals
omega the two bounds meet and chi = upper exactly, with no independence
number and no search; the bounds meet on 12,625 of the 13,595 census
representatives on 3..8 vertices (the greedy order depends on the
labelling, so the count moves with the choice of representatives).
Otherwise k runs upward from max(omega, ceil(n / alpha)) to upper - 1, each
k decided by backtracking with forward checking; the first colorable k is
chi, and if none is, chi is upper.  The backtracking has two cuts, both
symmetry breaks: a maximum clique is preassigned to distinct colors, and
each step may open at most one brand-new color.
Everything is exact; the test suite pins all three against brute-force
enumeration on small graphs.

Independence number is computed as the clique number of the complement, so
it shares the clique solver's correctness and never touches the matching
code (the alpha <= 2 chromatic identity check needs the two routes to stay
independent).
"""

from __future__ import annotations

from .graphs import Graph, bits, complement, permuted_rows


def max_clique(g: Graph) -> frozenset[int]:
    """A maximum clique of g (deterministic choice)."""
    size, members, _ = _max_clique_within(g)
    assert size == len(members)
    return frozenset(members)


def clique_number(g: Graph) -> int:
    return _max_clique_within(g)[0]


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def chromatic_number(g: Graph) -> int:
    return clique_and_chromatic_number(g)[1]


def clique_and_chromatic_number(g: Graph) -> tuple[int, int]:
    """(omega, chi) of g, from one clique search and, only when its greedy
    bound exceeds omega, a k-colorability search."""
    omega, clique, upper = _max_clique_within(g)
    if upper == omega:
        return omega, upper
    alpha = independence_number(g)
    for k in range(max(omega, -(-g.n // alpha)), upper):
        if _colorable(g, k, clique):
            return omega, k
    return omega, upper


def is_k_colorable(g: Graph, k: int) -> bool:
    """True iff g has a proper coloring with at most k colors."""
    if k < 0:
        raise ValueError("color count must be nonnegative")
    return chromatic_number(g) <= k


# -- clique branch and bound ------------------------------------------------


def _max_clique_within(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """Maximum clique of g as (size, sorted members, color count of the
    root coloring).  The root coloring fills one class at a time in vertex
    order, which by induction on classes is first-fit in that order: an
    upper bound on chi."""
    if not g.n:
        return 0, (), 0
    verts = sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))
    radj = permuted_rows(g.adj, verts)

    best_size = 0
    best_mask = 0

    def expand(cand: int, size: int, current: int, seq: list[tuple[int, int]]) -> None:
        nonlocal best_size, best_mask
        for i in range(len(seq) - 1, -1, -1):
            v, color = seq[i]
            if size + color <= best_size:
                return
            sub = cand & radj[v]
            if sub:
                expand(sub, size + 1, current | 1 << v, _greedy_color_order(sub, radj))
            elif size + 1 > best_size:
                best_size = size + 1
                best_mask = current | 1 << v
            cand &= ~(1 << v)

    full = (1 << len(verts)) - 1
    root = _greedy_color_order(full, radj)
    expand(full, 0, 0, root)
    return best_size, tuple(sorted(verts[i] for i in bits(best_mask))), root[-1][1]


def _greedy_color_order(cand: int, radj: list[int]) -> list[tuple[int, int]]:
    """Sequentially color the candidate set; returns (vertex, color) with
    colors nondecreasing, so a reverse scan sees upper bounds first."""
    seq = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            seq.append((v, color))
            uncolored ^= low
            avail &= ~radj[v] & uncolored
    return seq


# -- k-colorability backtracking ---------------------------------------------


def _colorable(g: Graph, k: int, clique: tuple[int, ...]) -> bool:
    """Backtracking decision with forward checking.

    `clique` (at most k vertices) is preassigned to colors 0..|clique|-1,
    and a vertex may open color c only if c-1 is already in use.  Both cuts
    are exact, so the answer is too.  No color class can exceed alpha: a
    vertex is never offered a color already on a neighbor, so every class
    stays independent.  It runs only when the greedy bound exceeds omega,
    so the clique never covers every vertex (and solve(0) is True anyway).
    """
    n = g.n
    colors = [-1] * n
    forbidden = [0] * n  # bitmask of colors used by colored neighbors
    full = (1 << k) - 1

    for c, v in enumerate(clique):
        colors[v] = c
        for u in bits(g.adj[v]):
            forbidden[u] |= 1 << c
    max_used = len(clique) - 1
    neg_degree = [-row.bit_count() for row in g.adj]

    def pick() -> int:
        window = (1 << min(max_used + 2, k)) - 1
        best_v = -1
        best_key = None
        for v in range(n):
            if colors[v] >= 0:
                continue
            avail = (window & ~forbidden[v]).bit_count()
            key = (avail, neg_degree[v], v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        return best_v

    def solve(remaining: int) -> bool:
        nonlocal max_used
        if remaining == 0:
            return True
        v = pick()
        window = (1 << min(max_used + 2, k)) - 1
        options = window & ~forbidden[v]
        while options:
            low = options & -options
            options ^= low
            c = low.bit_length() - 1
            colors[v] = c
            saved_max = max_used
            max_used = max(max_used, c)
            touched = []
            dead = False
            for u in bits(g.adj[v]):
                if colors[u] < 0 and not forbidden[u] >> c & 1:
                    forbidden[u] |= 1 << c
                    touched.append(u)
                    if forbidden[u] == full:
                        dead = True
            if not dead and solve(remaining - 1):
                return True
            for u in touched:
                forbidden[u] &= ~(1 << c)
            colors[v] = -1
            max_used = saved_max
        return False

    return solve(n - len(clique))
