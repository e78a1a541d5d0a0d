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
each step may open at most one brand-new color, so the colors on offer are
the lowest min(max_used + 2, k), max_used being the highest color in use
(the window).  It runs on the clique search's relabelled rows, with that
search's clique as positions, so the graph is sorted and permuted once per
chi.  Its pick rule is DSATUR's (Brelaz 1979): the next vertex has the
fewest colors left in the window, ties to the highest degree, then the
lowest label.  Every color on a colored neighbor is at most max_used,
inside the window, so fewest left is most distinct colors on colored
neighbors (the saturation), and the ties are position order.  Uncolored
vertices are therefore kept in one bitmask per saturation, and a pick is
the lowest bit of the highest non-empty one.
Everything is exact; the test suite pins all three against brute-force
enumeration on small graphs, and chi's search against inclusion-exclusion
over independent sets on up to 16 vertices.

Independence number is computed as the clique number of the complement, so
it shares the clique solver's correctness and never touches the matching
code (the alpha <= 2 chromatic identity check needs the two routes to stay
independent).
"""

from __future__ import annotations

from .graphs import Graph, bits, complement, permuted_rows


def max_clique(g: Graph) -> frozenset[int]:
    """A maximum clique of g (deterministic choice)."""
    _, clique, _, verts, _ = _max_clique_within(g)
    return frozenset(verts[i] for i in clique)


def clique_number(g: Graph) -> int:
    return _max_clique_within(g)[0]


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def chromatic_number(g: Graph) -> int:
    return clique_and_chromatic_number(g)[1]


def clique_and_chromatic_number(g: Graph) -> tuple[int, int]:
    """(omega, chi) of g, from one clique search and, only when its greedy
    bound exceeds omega, a k-colorability search on the same relabelled
    rows."""
    omega, clique, upper, _, radj = _max_clique_within(g)
    if upper == omega:
        return omega, upper
    alpha = independence_number(g)
    for k in range(max(omega, -(-g.n // alpha)), upper):
        if _colorable(radj, k, clique):
            return omega, k
    return omega, upper


# -- clique branch and bound ------------------------------------------------


def _max_clique_within(g: Graph) -> tuple[int, tuple[int, ...], int, list[int], list[int]]:
    """Maximum clique of g on its relabelling by descending degree, ties by
    lowest index: (size, the clique's positions in increasing order of
    their labels in g, color count of the root coloring, verts, radj), where
    position i is vertex verts[i] of g and radj holds the relabelled rows.
    The root coloring fills one class at a time in position order, which by
    induction on classes is first-fit in that order: an upper bound on
    chi."""
    if not g.n:
        return 0, (), 0, [], []
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
    clique = tuple(sorted(bits(best_mask), key=verts.__getitem__))
    return best_size, clique, root[-1][1], verts, radj


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


def _colorable(radj: list[int], k: int, clique: tuple[int, ...]) -> bool:
    """Whether the graph with rows `radj` has a proper k-coloring: DSATUR
    backtracking with forward checking.

    `clique` (at most k vertices) is preassigned to colors 0..|clique|-1,
    and a vertex may open color c only if c-1 is already in use.  Both cuts
    are exact, so the answer is too.  No color class can exceed alpha: a
    vertex is never offered a color already on a neighbor, so every class
    stays independent.  It runs only when the greedy bound exceeds omega,
    so the clique never covers every vertex.

    `radj` and `clique` are the clique search's relabelled rows and the
    positions of its maximum clique.  The next vertex is an uncolored one
    with the fewest colors left in the window: as every color on a colored
    neighbor lies inside it, that is the largest saturation (distinct colors
    on colored neighbors), ties to the lowest row, which is the highest
    degree then the lowest label of g.  Uncolored vertices sit in one
    bitmask per saturation, so a pick is the lowest bit of the highest
    non-empty bucket.  Coloring v with c walks the uncolored neighbors not
    yet barred from c (`barred[c]`) up one bucket, and backtracking walks
    them down again; a vertex that reaches bucket k has no color left.
    """
    n = len(radj)
    forbidden = [0] * n  # per vertex: colors on its colored neighbors
    barred = [0] * k  # per color: vertices with a neighbor of that color
    buckets = [0] * (k + 1)  # per saturation: the uncolored vertices
    uncolored = (1 << n) - 1
    for c, v in enumerate(clique):
        uncolored ^= 1 << v
        barred[c] = radj[v]
    rest = uncolored
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        forbidden[v] = sum(1 << c for c in range(len(clique)) if barred[c] & low)
        buckets[forbidden[v].bit_count()] |= low

    def solve(uncolored: int, max_used: int) -> bool:
        if not uncolored:
            return True
        s = k - 1
        while not buckets[s]:
            s -= 1
        low = buckets[s] & -buckets[s]
        buckets[s] ^= low
        uncolored ^= low
        v = low.bit_length() - 1
        row = radj[v]
        options = (1 << min(max_used + 2, k)) - 1 & ~forbidden[v]
        while options:
            color = options & -options
            options ^= color
            c = color.bit_length() - 1
            touched = row & uncolored & ~barred[c]
            barred[c] |= touched
            rest = touched
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = bit.bit_length() - 1
                f = forbidden[u]
                forbidden[u] = f | color
                up = f.bit_count() + 1
                buckets[up - 1] ^= bit
                buckets[up] |= bit
            if not buckets[k] and solve(uncolored, max(max_used, c)):
                return True
            rest = touched
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = bit.bit_length() - 1
                f = forbidden[u] ^ color
                forbidden[u] = f
                down = f.bit_count()
                buckets[down + 1] ^= bit
                buckets[down] |= bit
            barred[c] ^= touched
        buckets[s] |= low
        return False

    return solve(uncolored, len(clique) - 1)
