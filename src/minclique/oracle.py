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
the canonical-form dict still removes the duplicates among the survivors.

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
number, its verification against the arithmetic formula, and the largest
chi - omega excess.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import CapacityError
from .graphs import Graph
from .qfunction import q
from .reports import FAIL, PASS, CheckResult
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
    assert best is not None
    return tuple(best[1:])  # drop the empty column of position 0


# -- enumeration ---------------------------------------------------------------

_levels: list[list[tuple[int, ...]]] = [[()]]  # adjacency-row tuples per n


def _ensure_level(n: int) -> None:
    while len(_levels) <= n:
        prev = _levels[-1]
        m = len(_levels) - 1
        total = (m + 1) * m // 2  # edges of the complete graph on m + 1 vertices
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for rows in prev:
            # mask.bit_count() >= degs[v] + (mask >> v & 1) for every v holds
            # iff the new degree exceeds the parent's maximum degree, or
            # equals it and the mask avoids every vertex of that degree
            degs = [row.bit_count() for row in rows]
            top = max(degs, default=0)
            top_mask = sum(1 << v for v, d in enumerate(degs) if d == top)
            budget = total // 2 - sum(degs) // 2  # mask bits left for the child
            for mask in range(1 << m):
                d = mask.bit_count()
                if d < top or d > budget or (d == top and mask & top_mask):
                    continue
                child = tuple(
                    row | ((mask >> v & 1) << m) for v, row in enumerate(rows)
                ) + (mask,)
                keys = _vertex_keys(m + 1, child)
                if keys[m] < max(keys):
                    continue
                form = _canonical_columns(m + 1, child, keys)
                if form not in seen:
                    seen[form] = child
        lighter = list(seen.values())
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


@dataclass(frozen=True)
class LevelStats:
    """Per-vertex-count exhaustive results: for each achievable chromatic
    number c, the least clique number and a graph attaining it, plus the
    largest chi - omega over the level."""

    min_clique_by_chi: dict[int, int]
    witness_by_chi: dict[int, Graph]
    max_gap: int


@functools.cache
def level_stats(n: int) -> LevelStats:
    min_clique: dict[int, int] = {}
    witness: dict[int, Graph] = {}
    max_gap = 0
    for g in enumerate_graphs(n):
        omega, chi = solvers.clique_and_chromatic_number(g)
        max_gap = max(max_gap, chi - omega)
        if chi not in min_clique or omega < min_clique[chi]:
            min_clique[chi] = omega
            witness[chi] = g
    return LevelStats(min_clique, witness, max_gap)


def brute_Q(n: int, c: int) -> int | None:
    """Least clique number over all n-vertex graphs with chromatic number
    exactly c; None if no such graph exists."""
    _level(n)
    if not 1 <= c <= max(n, 1):
        raise ValueError(f"need 1 <= c <= n, got c = {c}")
    return level_stats(n).min_clique_by_chi.get(c)


def brute_gap(n: int) -> int:
    """Exact maximum of chi - omega over all n-vertex graphs."""
    return level_stats(n).max_gap


def verify_clique_formula(n_max: int) -> tuple[CheckResult, ...]:
    """Exhaustively confirm, for every n <= n_max and every k with
    n >= 2k + 3, that the least clique number at chromatic number n - k
    equals n - 2k + q(k)."""
    if n_max > MAX_ENUM_VERTICES:
        raise CapacityError(f"oracle verification supports n <= {MAX_ENUM_VERTICES}")
    entries = []
    for n in range(n_max + 1):
        for k in range((n - 3) // 2 + 1):
            qk = q(k)[0]
            assert qk.exact, "q is exact throughout the oracle range"
            expected = n - 2 * k + qk.lo
            actual = brute_Q(n, n - k)
            ok = actual == expected
            entries.append(CheckResult(
                f"n={n},k={k}", PASS if ok else FAIL,
                f"min clique at chi = {n - k} on {n} vertices is {actual}, "
                f"formula gives {n} - {2 * k} + {qk.lo} = {expected}",
            ))
    return tuple(entries)


def export_q_table_csv(n_max: int) -> str:
    """CSV dump of the exhaustive (n, c, min clique) table."""
    lines = ["n,c,min_clique"]
    for n in range(n_max + 1):
        table = level_stats(n).min_clique_by_chi
        for c in sorted(table):
            lines.append(f"{n},{c},{table[c]}")
    return "\n".join(lines) + "\n"
