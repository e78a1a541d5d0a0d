"""Known values and bounds for the Ramsey numbers R(3, ell), their inverse,
and a self-certifying catalog of extremal graphs with independence number 2.

R(3, ell) is exactly known for ell <= 9; for ell = 10 and 11 only the
published bracketing bounds are stored, and everything beyond that is
extrapolated as a valid interval (monotone lower step +1, upper step +ell).
All unknowns propagate as IntInterval values, never as point estimates.

small_omega(x) inverts the table: the least clique number possible on x
vertices when no three vertices are pairwise nonadjacent.  It is exact
wherever x falls between two exactly known Ramsey values.

The catalog stores the complements of the triangle-free graphs that meet
the lower bounds for R(3, 2..6) (on 2, 5, 8, 13 and 17 vertices) and
derives witnesses for the in-between sizes.  Nothing is trusted: each
built-in base is admitted only if small_omega(n) is exact (n <= 39), and the
exact solvers show that its independence number is at most 2 and its clique
number equals small_omega(n).  Every derived graph is certified before it is
handed out: an induced subgraph by the same search, a base joined with
dominating vertices by `verify_join`, from the base's admitted facts.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Sequence

from .errors import UnsupportedWitnessError
from .graphs import (
    Graph,
    circulant,
    complement,
    complete_graph,
    induced_subgraph,
    join,
    parse_graph6,
)
from .intervals import IntInterval
from . import solvers

# Exact values R(3, ell) for ell = 1..9, then published brackets.
_EXACT_R3 = (1, 3, 6, 9, 14, 18, 23, 28, 36)
_BRACKETED_R3 = {10: (40, 43), 11: (46, 51)}


@lru_cache(maxsize=None)
def r3(ell: int) -> IntInterval:
    """Bounds on R(3, ell); exact (degenerate) for ell <= 9."""
    if ell <= 0:
        raise ValueError(f"R(3, {ell}) undefined; need ell >= 1")
    if ell <= len(_EXACT_R3):
        return IntInterval.point(_EXACT_R3[ell - 1])
    if ell in _BRACKETED_R3:
        return IntInterval(*_BRACKETED_R3[ell])
    prev = r3(ell - 1)
    return IntInterval(prev.lo + 1, prev.hi + (ell - 1))


def small_omega(x: int) -> IntInterval:
    """Bounds on the least clique number over x-vertex graphs with no
    independent triple.  Exact iff the relevant Ramsey values are."""
    if x <= 0:
        raise ValueError(f"need x >= 1, got {x}")
    lo = 1
    while r3(lo + 1).hi <= x:
        lo += 1
    hi = 1
    while r3(hi + 1).lo <= x:
        hi += 1
    return IntInterval(lo, hi)


def verify_alpha2(graph: Graph, omega: int, source: str) -> int:
    """Independence number of a built graph, once the exact solvers show
    that alpha (the clique number of the complement) is at most 2 and the
    clique number is `omega`; else a ValueError naming `source`.  Every
    alpha <= 2 graph the package builds and certifies by search passes
    here: the built-in bases, induced subgraphs of them and compositions.
    Joins go through `verify_join` instead."""
    alpha = solvers.clique_number(complement(graph))
    if alpha > 2:
        raise ValueError(f"{source}: independence number {alpha} > 2")
    got = solvers.clique_number(graph)
    if got != omega:
        raise ValueError(f"{source}: clique number {got}, expected {omega}")
    return alpha


def verify_join(graph: Graph, parts: Sequence[tuple[Graph, int]], omega: int,
                source: str) -> None:
    """Certify, with no search, that a graph has independence number at
    most 2 and clique number `omega`, given that it is the join of `parts`.

    Each part comes with its clique number, and each must be certified to
    have independence number at most 2: a catalog witness or a complete
    graph.  The check is that row v of `graph` is the row of v in its part,
    shifted to the part's label range, together with every vertex outside
    that range; a ValueError names `source` and the first row that differs.
    Then a clique meets each part in a clique, so omega(graph) is the sum
    of the parts' clique numbers, which must equal `omega`.  And two
    vertices of different parts are adjacent, so an independent set lies in
    one part: alpha(graph) is the largest alpha of a part, at most 2.
    """
    full = (1 << graph.n) - 1
    expected: list[int] = []
    for part, _ in parts:
        offset = len(expected)
        outside = full & ~(((1 << part.n) - 1) << offset)
        expected.extend(row << offset | outside for row in part.adj)
    for v, (row, want) in enumerate(zip(graph.adj, expected)):
        if row != want:
            raise ValueError(f"{source}: row {v} is not the join of its parts")
    if len(expected) != graph.n:
        raise ValueError(
            f"{source}: the parts have {len(expected)} vertices, the graph {graph.n}")
    got = sum(part_omega for _, part_omega in parts)
    if got != omega:
        raise ValueError(f"{source}: clique number {got}, expected {omega}")


# Triangle-free sides of the classic lower-bound graphs for R(3, 2..6), on
# R(3, ell) - 1 vertices.  Each is complemented at load, so the stored graph
# has independence number <= 2 and clique number small_omega(n) = ell - 1.
# The 5/8/13-vertex ones are the classic cyclic graphs.  No 17-vertex
# circulant is triangle-free with independence number 5 (exhaustive check
# over all connection sets), so that witness is a frozen graph6 literal,
# found by local search and admitted like everything else.
_G17_TRIANGLE_FREE = "P??_eM_d?[HU}?OI[@?qBIcO"


class WitnessCatalog:
    """Verified extremal graphs with independence number <= 2.

    The built-in bases cover clique numbers up to 5 (17 vertices); each
    passes the admission check (see `_admit`) when the catalog is built.
    Other sizes are derived from them on demand (see `witness_alpha2`).
    """

    def __init__(self):
        self._bases: dict[int, Graph] = {}  # vertex count -> admitted graph
        self._witness_cache: dict[int, Graph] = {}
        for side in (circulant(2, {1}), circulant(5, {2}), circulant(8, {1, 4}),
                     circulant(13, {1, 5}), parse_graph6(_G17_TRIANGLE_FREE)):
            self._admit(complement(side), f"built-in witness on {side.n} vertices")

    def _admit(self, graph: Graph, source: str) -> None:
        """Store graph as the base for its vertex count if small_omega(n) is
        exact, alpha <= 2 and omega equals it; raise ValueError otherwise."""
        target = small_omega(graph.n)
        if not target.exact:
            raise ValueError(f"clique target for {graph.n} vertices is not exact")
        verify_alpha2(graph, target.lo, source)
        self._bases[graph.n] = graph

    def base_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self._bases))

    def witness_alpha2(self, x: int) -> Graph:
        """A verified x-vertex graph with independence number <= 2 and the
        least possible clique number small_omega(x).

        Stored witnesses were verified at admission and are returned as-is.
        Otherwise the graph is derived: by joining dominating vertices onto a smaller base (each
        added vertex raises the clique number by exactly one and cannot
        enlarge an independent set), or, where no base lines up, as an
        induced subgraph of the next stored witness (which cannot lower
        the clique number below small_omega(x)).  Either way the result is
        certified before it is returned: the join by `verify_join` from the
        base's admitted clique number, the induced subgraph by
        `verify_alpha2`.  Sizes are bounded only by small_omega(x) being
        exact (x <= 39) and by the stored bases.
        """
        if x < 1:
            raise UnsupportedWitnessError(f"need x >= 1, got {x}")
        if x in self._bases:
            return self._bases[x]
        if x in self._witness_cache:
            return self._witness_cache[x]
        target = small_omega(x)
        if not target.exact:
            raise UnsupportedWitnessError(
                f"clique target for x = {x} is only known to lie in {target}"
            )
        w = target.lo
        graph = self._construct(x, w, f"derived witness on {x} vertices")
        if graph is None:
            raise UnsupportedWitnessError(
                f"no catalog construction reaches {x} vertices with clique {w}; "
                f"stored bases: {self.base_sizes()}"
            )
        self._witness_cache[x] = graph
        return graph

    def _construct(self, x: int, w: int, source: str) -> Graph | None:
        """A certified x-vertex graph with alpha <= 2 and clique number w
        derived from a base, or None if no base lines up."""
        # dominating augmentation: base on fewer vertices, smaller clique;
        # admission proved each base's clique number equals small_omega(size)
        candidates = [
            size for size in self._bases
            if size < x and small_omega(size).lo + (x - size) == w
        ]
        if candidates:
            base = self._bases[max(candidates)]
            dominating = complete_graph(x - base.n)
            graph = join([base, dominating])
            verify_join(graph, [(base, small_omega(base.n).lo), (dominating, dominating.n)],
                        w, source)
            return graph
        # induced subgraph of a bigger witness with the same clique number
        candidates = [size for size in self._bases if size > x and small_omega(size).lo == w]
        if candidates:
            base = self._bases[min(candidates)]
            graph = induced_subgraph(base, range(x))
            verify_alpha2(graph, w, source)
            return graph
        return None


@cache
def default_catalog() -> WitnessCatalog:
    """Process-wide catalog, built and verified on first use."""
    return WitnessCatalog()
