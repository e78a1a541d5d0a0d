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
chi, and if none is, chi is upper.  A greedy independent set of size a
comes first: alpha >= a gives ceil(n / alpha) <= ceil(n / a), so alpha is
solved only when ceil(n / a) > omega.  The backtracking has two cuts, both
symmetry breaks: a maximum clique is preassigned to distinct colors, and
each step may open at most one brand-new color, so the colors on offer are
the lowest min(max_used + 2, k), max_used being the highest color in use
(the window).  It runs on the clique search's relabelled rows, with that
search's clique as positions, so the graph is sorted and permuted once per
chi.  Its pick rule is DSATUR's (Brelaz 1979): the next vertex has the
fewest colors left in the window, ties to the highest degree, then the
lowest label.  Every color on a colored neighbor is at most max_used,
inside the window, so fewest left is most distinct colors on colored
neighbors (the saturation), and the ties are position order.  Saturations
are therefore kept bit-sliced, one plane per bit of every uncolored
vertex's count: a pick narrows the uncolored set through the planes from
the top and takes its lowest bit, and coloring a vertex adds one to all of
its newly barred neighbors at once by a ripple carry.
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
    rows, and alpha only where it can raise the first k (module docstring)."""
    omega, clique, upper, _, radj = _max_clique_within(g)
    if upper == omega:
        return omega, upper
    start = omega
    if -(-g.n // _greedy_independent(radj)) > omega:
        start = max(omega, -(-g.n // independence_number(g)))
    for k in range(start, upper):
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
    expand = None  # the closure refers to itself: free it without the cyclic gc
    clique = tuple(sorted(bits(best_mask), key=verts.__getitem__))
    return best_size, clique, root[-1][1], verts, radj


def _greedy_color_order(cand: int, radj: list[int]) -> list[tuple[int, int]]:
    """Sequentially color the candidate set; returns (vertex, color) with
    colors nondecreasing, so a reverse scan sees upper bounds first.  Also
    the census's colouring bound (`oracle._greedy_bounds`), on raw rows."""
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


def _greedy_independent(radj: list[int]) -> int:
    """Size of a greedy independent set, taking the last row (lowest degree)
    first: a lower bound on alpha."""
    size = 0
    rest = (1 << len(radj)) - 1
    while rest:
        v = rest.bit_length() - 1
        rest &= ~(radj[v] | 1 << v)
        size += 1
    return size


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
    degree then the lowest label of g.  A saturation s is kept as
    s + 2**width - k in `width` bit planes, the top plane first, so a pick
    narrows the uncolored set through the planes and takes its lowest bit.
    `barred` holds one n-bit lane per color, bit c*n + u set when u has a
    neighbor of color c, so v's colors left are one mask over the window's
    lanes.  Coloring v with c adds one to the uncolored neighbors not yet
    barred from c by a ripple carry over a copy of the planes, which
    backtracking drops; a carry out of the top plane is a saturation of k,
    a vertex with no color left.
    """
    n = len(radj)
    width = (k - 1).bit_length()
    low_first = range(width - 1, -1, -1)
    uncolored = (1 << n) - 1
    for v in clique:
        uncolored ^= 1 << v
    # planes[j] holds bit width - 1 - j of every s + 2**width - k
    planes = [uncolored if (2**width - k) >> i & 1 else 0 for i in low_first]
    barred = 0
    for c, v in enumerate(clique):
        carry = radj[v] & uncolored
        barred |= carry << c * n
        for i in low_first:
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
    lanes = [sum(1 << c * n for c in range(min(m + 2, k))) for m in range(k)]

    def solve(uncolored: int, max_used: int, planes: list[int], barred: int) -> bool:
        if not uncolored:
            return True
        pick = uncolored
        for plane in planes:
            if pick & plane:
                pick &= plane
        low = pick & -pick
        v = low.bit_length() - 1
        uncolored ^= low
        row = radj[v] & uncolored
        options = lanes[max_used] & ~(barred >> v)
        opened = (max_used + 1) * n  # the lane of the one color v may open
        while options:
            color = options & -options
            options ^= color
            shift = color.bit_length() - 1
            touched = row & ~(barred >> shift)
            sat = planes[:]
            carry = touched
            for i in low_first:
                if not carry:
                    break
                sat[i], carry = sat[i] ^ carry, sat[i] & carry
            if carry:
                continue
            if solve(uncolored, max_used + (shift == opened), sat, barred | touched << shift):
                return True
        return False

    found = solve(uncolored, len(clique) - 1, planes, barred)
    solve = None  # as in _max_clique_within
    return found
