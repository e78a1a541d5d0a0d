"""Brute-force ground truth on up to 8 vertices.

Graphs are enumerated one representative per isomorphism class by vertex
augmentation: every n-vertex representative is extended by a new vertex
with each of the 2^n possible neighborhoods (in increasing bitmask order),
and the results are deduplicated at level n+1 by a canonical form.  The
class counts 1, 1, 2, 4, 11, 34, 156, 1044, 12346 for n = 0..8 are asserted
by the tests, which pins the whole pipeline.

Before a child is canonicalised it must pass a canonical-deletion filter
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998): its
new vertex must have the maximal vertex key (below) among all n + 1
vertices.  Degrees are tested first, from the parent's degrees and the mask
bits, which rejects most children before any tuple is built; the full keys
of a survivor are computed once and reused by the canonical form.  The
filter is sound.  Take any class at level n + 1, a member G of it, and a
vertex v of G with the maximal key.  G - v is isomorphic to some level-n
representative P, because level n is complete.  So the child of P whose
mask is v's neighborhood is isomorphic to G, and its new vertex has key(v),
which is the maximum.  Every class therefore keeps at least one child, and
the two steps below remove the duplicates among the survivors.

Most survivors need no canonical form (the same paper's orbit argument).
For each parent P only the least mask of each orbit of Aut(P) is tried.
Aut(P) is found by backtracking over the maps that keep keys and
adjacency (`_automorphisms`), and not at all when every key is distinct,
since only the identity then keeps them.  Masks in one orbit give
isomorphic children, and the degree, budget and key tests give them the
same verdict: an automorphism keeps degrees and edge counts, and the set
of the parent's top-degree vertices is a union of degree classes.  Then a
survivor whose new vertex is the only vertex with the maximal key is kept
with no canonical form, and with no keys at all when the new vertex's
degree alone is strictly the largest.  Take two such survivors in one
class, from parents P and P'.  An isomorphism between them maps the one
top-key vertex to the other, so new vertex to new vertex; it restricts to an
isomorphism P -> P', so P = P', since a level holds one representative
per class, and it restricts to an automorphism of P that sends one mask
to the other.  The orbit step tried only one of the two masks, so the two
survivors are one.  Whether a class has a unique top-key vertex depends
on the class alone, so a class with a tied top key has only tied
survivors, and only those go through a set of canonical forms.  Neither
step changes a representative.  The first occurrence of a class in parent
order, then mask order, is the least mask of its orbit, since every mask
of that orbit gives the same class; so it is still tried and still kept
first, and every level holds the same representatives in the same order.

Only the lighter half of each level is generated.  Complementation is a
bijection on isomorphism classes that sends e edges to C(n + 1, 2) - e, so
a child is kept only if it has at most floor(C(n + 1, 2) / 2) edges: a mask
with more bits than that budget minus the parent's edge count is skipped
next to the degree test.  After deduplication the complement of every kept
representative with fewer than C(n + 1, 2) / 2 edges is appended, with no
canonical form needed.  A class with exactly C(n + 1, 2) / 2 edges is
generated directly and never complemented, so no class is counted twice.
The canonical-deletion argument above still holds for the lighter half.
Take G with at most half the edges and v with the maximal key: G - v is a
graph on n vertices, and level n is complete because it already holds its
own complements, so its representative P is there; the mask of v has
deg(v) = e(G) - e(P) bits, within the budget.

Representatives are deterministic.  A class with at most half the edges is
represented by its first surviving child in parent order, then mask order;
a class with more than half the edges is represented by the complement of
its complement class's representative.  They are not the members the
unfiltered enumeration kept, so `check theorem1 --dump-graph6` lists other
graph6 lines for the same classes.

The canonical form is the lexicographically minimal upper-triangle bit
string (column order, the graph6 layout) over all vertex orderings that
list a cheap isomorphism-invariant vertex key (degree, then sorted
neighbor degrees) in nondecreasing order.  Restricting to key-monotone
orderings is sound — isomorphisms preserve the key, so isomorphic graphs
minimize over corresponding sets of orderings — and it keeps the search
tree tiny for everything except highly regular graphs, which are rare.
The minimization itself is a DFS that only ever extends a prefix by
vertices whose next column is minimal, with a global best for pruning.

The DFS also skips twins.  Vertices u and v are twins when their
neighborhoods agree outside {u, v}: true twins (adjacent) have equal closed
neighborhoods, false twins (not adjacent) equal open ones, and each kind
is transitive.  A vertex v cannot have both a true twin w and a false twin
x: w would be a neighbor of x, so x a neighbor of w, hence of v.  So being
twins is an equivalence.  Swapping two twins is an automorphism that fixes
every other vertex; if both are unplaced it fixes the placed prefix, so
they have the same next column and their subtrees give the same column
strings.  Trying only the first twin of each class at a position therefore
leaves the minimum unchanged.  Twins share a key, so the key-monotone
argument above is unchanged.  The pruning cuts the t! identical subtrees
of t interchangeable vertices (isolated vertices, the parts of a complete
multipartite graph) down to one.

On top of the enumeration: the table of minimum clique number by chromatic
number and the largest chi - omega excess, read off that table.  The
formula is checked against both by `check theorem1` (`cli._check_theorem1`).

The table needs an exact search on few graphs.  Each graph first gets two
cheap bounds over its vertices by descending degree, ties by index: `low`,
the size of a greedy clique, and `high`, the colour count of a first-fit
colouring, so low <= omega <= chi <= high.  If every c in [low, high]
already has an entry <= low, the graph is skipped: its own entry would sit
at c = chi, which already holds a value <= low <= omega, so it can neither
add a key nor lower a value.  Otherwise, if low == high, then omega = chi =
low with no search, and only else does the exact search run.  The first
graph with a given chi is never skipped, since that key is still missing,
so the table gets the same keys, in the same order, with the same values
as with a search on every graph.
"""

from __future__ import annotations

import functools

from .errors import CapacityError
from .graphs import Graph
from . import solvers

MAX_ENUM_VERTICES = 8

KNOWN_CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def canonical_form(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Complete isomorphism invariant for small graphs: n plus the columns
    of the minimal upper-triangle bit string."""
    return g.n, _canonical_columns(g.n, g.adj, _vertex_keys(g.n, g.adj))


def _vertex_keys(n: int, adj: tuple[int, ...] | list[int]) -> list[tuple]:
    degs = [row.bit_count() for row in adj]
    keys = []
    for v in range(n):
        row = adj[v]
        nbr_degs = []
        while row:  # inline low-bit loop: a `bits` generator costs more here
            low = row & -row
            nbr_degs.append(degs[low.bit_length() - 1])
            row ^= low
        nbr_degs.sort()
        keys.append((degs[v], tuple(nbr_degs)))
    return keys


def _canonical_columns(n: int, adj, keys: list[tuple]) -> tuple[int, ...]:
    """Columns of the minimal bit string; column j has j bits, the
    adjacency of position j to positions 0..j-1 (most significant first).
    `keys` must be `_vertex_keys(n, adj)`."""
    if n <= 1:
        return ()
    order = sorted(range(n), key=lambda v: (keys[v], v))
    groups: list[list[int]] = []
    for v in order:
        if groups and keys[groups[-1][-1]] == keys[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    # twin[v] is the least vertex of v's twin class; twins share a key, so
    # only members of one group need comparing
    twin = list(range(n))
    for group in groups:
        for i, v in enumerate(group):
            for u in group[:i]:
                if twin[u] == u and adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    twin[v] = u
                    break

    best: list[int] | None = None

    def extend(placed: list[int], cols: list[int], group_idx: int, used_in_group: set[int]) -> None:
        nonlocal best
        j = len(placed)
        if j == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        group = groups[group_idx]
        remaining = [v for v in group if v not in used_in_group]
        # next column value per candidate; only minima can start a minimal suffix
        scored = []
        for v in remaining:
            col = 0
            row = adj[v]
            for i, p in enumerate(placed):
                col |= (row >> p & 1) << (j - 1 - i)
            scored.append((col, v))
        low = min(col for col, _ in scored)
        # every child of a call appends the same minimal column, the parent
        # returned if cols == best[:j] and low > best[j], and each later best
        # extends the parent's cols: so here cols <= best[:j] and j < n
        if best is not None and cols == best[:j] and low > best[j]:
            return
        tried = 0  # bitmask of the twin classes already tried at position j
        for col, v in scored:
            if col != low or tried >> twin[v] & 1:
                continue
            tried |= 1 << twin[v]
            placed.append(v)
            cols.append(col)
            if len(remaining) == 1:
                extend(placed, cols, group_idx + 1, set())
            else:
                used_in_group.add(v)
                extend(placed, cols, group_idx, used_in_group)
                used_in_group.discard(v)
            placed.pop()
            cols.pop()

    extend([], [], 0, set())
    extend = None  # the closure refers to itself: free it without the cyclic gc
    assert best is not None
    return tuple(best[1:])  # drop the empty column of position 0


# -- enumeration ---------------------------------------------------------------

_levels: list[list[tuple[int, ...]]] = [[()]]  # adjacency-row tuples per n


def _automorphisms(n: int, adj, keys: list[tuple]) -> list[tuple[int, ...]]:
    """Every automorphism of the graph, as the tuple of vertex images.
    `keys` must be `_vertex_keys(n, adj)`: an automorphism keeps keys, so
    vertex v is mapped in turn to each unused w with v's key whose row
    agrees with v's on the vertices mapped so far."""
    candidates = [[w for w in range(n) if keys[w] == keys[v]] for v in range(n)]
    image = [0] * n
    group = []

    def extend(v: int, used: int) -> None:
        if v == n:
            group.append(tuple(image))
            return
        row, mapped = adj[v], 0
        for u in range(v):  # v's row on 0..v-1, carried over by the map so far
            mapped |= (row >> u & 1) << image[u]
        for w in candidates[v]:
            if not used >> w & 1 and adj[w] & used == mapped:
                image[v] = w
                extend(v + 1, used | 1 << w)

    extend(0, 0)
    extend = None  # as in _canonical_columns
    return group


def _ensure_level(n: int) -> None:
    while len(_levels) <= n:
        prev = _levels[-1]
        m = len(_levels) - 1
        total = (m + 1) * m // 2  # edges of the complete graph on m + 1 vertices
        lighter: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()  # canonical forms of tied children
        for rows in prev:
            # mask.bit_count() >= degs[v] + (mask >> v & 1) for every v holds
            # iff the new degree exceeds the parent's maximum degree, or
            # equals it and the mask avoids every vertex of that degree
            degs = [row.bit_count() for row in rows]
            top = max(degs, default=0)
            top_mask = sum(1 << v for v, d in enumerate(degs) if d == top)
            budget = total // 2 - sum(degs) // 2  # mask bits left for the child
            masks = []
            for mask in range(1 << m):
                d = mask.bit_count()
                if top <= d <= budget and not (d == top and mask & top_mask):
                    masks.append(mask)
            parent_keys = _vertex_keys(m, rows) if len(masks) > 1 else []
            # some key tied; with distinct keys only the identity keeps them
            if len(set(parent_keys)) < len(parent_keys):
                # the least mask of each Aut(P)-orbit, in mask order
                powers = [[1 << w for w in image]
                          for image in _automorphisms(m, rows, parent_keys)]
                least, covered = [], set()
                for mask in masks:
                    if mask not in covered:
                        least.append(mask)
                        vs = [v for v in range(m) if mask >> v & 1]
                        covered.update(sum([p[v] for v in vs]) for p in powers)
                masks = least
            for mask in masks:
                child = tuple(
                    row | ((mask >> v & 1) << m) for v, row in enumerate(rows)
                ) + (mask,)
                d = mask.bit_count()
                if d > top + 1 or (d > top and not mask & top_mask):
                    lighter.append(child)  # a strictly top degree: the unique top key
                    continue
                keys = _vertex_keys(m + 1, child)
                top_key = max(keys)
                if keys[m] < top_key:
                    continue
                if keys.count(top_key) > 1:
                    form = _canonical_columns(m + 1, child, keys)
                    if form in seen:
                        continue
                    seen.add(form)
                lighter.append(child)
        full = (1 << (m + 1)) - 1
        # complements on the raw rows: graphs.complement would build and
        # validate a Graph per class, ten times the cost at level 8
        _levels.append(lighter + [
            tuple(full ^ row ^ (1 << v) for v, row in enumerate(rows))
            for rows in lighter if sum(row.bit_count() for row in rows) < total
        ])


def _level(n: int) -> list[tuple[int, ...]]:
    """The level-n representatives, enumerated on first use; the one check
    of the enumeration cap."""
    if not 0 <= n <= MAX_ENUM_VERTICES:
        raise CapacityError(f"enumeration supports 0..{MAX_ENUM_VERTICES}, got {n}")
    _ensure_level(n)
    return _levels[n]


def enumerate_graphs(n: int):
    """Exactly one representative per isomorphism class, deterministically
    ordered; n <= MAX_ENUM_VERTICES."""
    for rows in _level(n):
        yield Graph(n, rows)


def count_graphs(n: int) -> int:
    return len(_level(n))


# -- exhaustive statistics -----------------------------------------------------


def _greedy_bounds(n: int, adj) -> tuple[int, int]:
    """(low, high) with low <= omega <= chi <= high: the size of a greedy
    clique and the colour count of a first-fit colouring, both over the
    vertices by descending degree, ties by index."""
    cand, low, classes = (1 << n) - 1, 0, []
    for v in sorted(range(n), key=lambda v: -adj[v].bit_count()):
        row = adj[v]
        if cand >> v & 1:
            low += 1
            cand &= row
        for c, members in enumerate(classes):
            if not members & row:
                classes[c] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return low, len(classes)


@functools.cache
def level_stats(n: int) -> dict[int, int]:
    """Per-vertex-count exhaustive table: for each achievable chromatic
    number c, the least clique number over the n-vertex graphs with chi = c,
    so `level_stats(n).get(c)` is Q(n, c), or None where no graph has it.
    Only a graph that could still change the table gets the exact search
    (module docstring)."""
    min_clique: dict[int, int] = {}
    for rows in _level(n):
        low, high = _greedy_bounds(n, rows)
        if all(c in min_clique and min_clique[c] <= low for c in range(low, high + 1)):
            continue
        if low == high:
            omega = chi = low
        else:
            omega, chi = solvers.clique_and_chromatic_number(Graph(n, rows))
        if chi not in min_clique or omega < min_clique[chi]:
            min_clique[chi] = omega
    return min_clique


def brute_gap(n: int) -> int:
    """Exact maximum of chi - omega over all n-vertex graphs: the largest
    c - Q(n, c), since Q(n, c) is the least omega at chi = c."""
    return max(c - w for c, w in level_stats(n).items())

