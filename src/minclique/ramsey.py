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
dominating vertices by `certified_join`, from the base's admitted facts.
Each served size also carries its chromatic number.  A join's is the sum
of its parts'; any other witness has alpha <= 2, so its chromatic number
is x - nu(complement) (Gallai), one maximum matching per served size.
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
from . import matching, solvers

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
    Joins go through `certified_join` instead, which also sums the parts'
    chromatic numbers."""
    alpha = solvers.clique_number(complement(graph))
    if alpha > 2:
        raise ValueError(f"{source}: independence number {alpha} > 2")
    got = solvers.clique_number(graph)
    if got != omega:
        raise ValueError(f"{source}: clique number {got}, expected {omega}")
    return alpha


def certified_join(parts: Sequence[tuple[Graph, int, int]], omega: int,
                   source: str) -> tuple[Graph, int]:
    """The join of `parts` and its chromatic number, certified with no search.

    Each part is (graph, omega, chi) with both numbers certified, and each
    graph must be certified to have independence number at most 2: a
    catalog witness or a complete graph.  A clique meets each part in a
    clique, so the join's clique number is the sum of the parts', which
    must equal `omega`; else a ValueError naming `source`.  Two vertices of
    different parts are adjacent, so an independent set, and with it a
    colour class, lies in one part: the join's independence number is the
    largest part's, at most 2, and its chromatic number the sum of the
    parts'.
    """
    got = sum(part_omega for _, part_omega, _ in parts)
    if got != omega:
        raise ValueError(f"{source}: clique number {got}, expected {omega}")
    return join([graph for graph, _, _ in parts]), sum(chi for _, _, chi in parts)


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
        # vertex count -> (witness, omega, chi), filled when a size is first served
        self._witness_cache: dict[int, tuple[Graph, int, int]] = {}
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

    def witness_alpha2(self, x: int) -> tuple[Graph, int, int]:
        """A verified x-vertex graph with independence number <= 2 and the
        least possible clique number small_omega(x), as the part
        (graph, clique number, chromatic number) that `certified_join`
        takes; all three are found when the size is first served.

        Stored witnesses were verified at admission and are returned as-is.
        Otherwise the graph is derived: by joining dominating vertices onto a smaller base (each
        added vertex raises the clique number by exactly one and cannot
        enlarge an independent set), or, where no base lines up, as an
        induced subgraph of the next stored witness (which cannot lower
        the clique number below small_omega(x)).  Either way the result is
        certified before it is returned: the join by `certified_join` from
        the base's admitted clique number, the induced subgraph by
        `verify_alpha2`.  Sizes are bounded only by small_omega(x) being
        exact (x <= 39) and by the stored bases.
        """
        if x not in self._witness_cache:
            if x < 1:
                raise UnsupportedWitnessError(f"need x >= 1, got {x}")
            target = small_omega(x)
            if not target.exact:
                raise UnsupportedWitnessError(
                    f"clique target for x = {x} is only known to lie in {target}"
                )
            graph, chi = self._construct(x, target.lo)
            self._witness_cache[x] = graph, target.lo, chi
        return self._witness_cache[x]

    def _construct(self, x: int, w: int) -> tuple[Graph, int]:
        """A certified x-vertex graph with alpha <= 2 and clique number w,
        stored or derived from a base, with its chromatic number."""
        source = f"derived witness on {x} vertices"
        # dominating augmentation: base on fewer vertices, smaller clique;
        # admission proved each base's clique number equals small_omega(size)
        candidates = [
            size for size in self._bases
            if size < x and small_omega(size).lo + (x - size) == w
        ]
        if x in self._bases:
            graph = self._bases[x]
        elif candidates:
            base = max(candidates)
            dominating = complete_graph(x - base)
            return certified_join([self.witness_alpha2(base), (dominating, x - base, x - base)],
                                  w, source)
        else:
            # induced subgraph of a bigger witness with the same clique number
            candidates = [size for size in self._bases if size > x and small_omega(size).lo == w]
            if not candidates:
                raise UnsupportedWitnessError(
                    f"no catalog construction reaches {x} vertices with clique {w}; "
                    f"stored bases: {self.base_sizes()}"
                )
            graph = induced_subgraph(self._bases[min(candidates)], range(x))
            verify_alpha2(graph, w, source)
        # alpha <= 2: a colour class has at most two vertices, and the classes
        # of two form a matching of the complement (Gallai)
        return graph, x - matching.matching_number(complement(graph))


@cache
def default_catalog() -> WitnessCatalog:
    """Process-wide catalog, built and verified on first use."""
    return WitnessCatalog()
