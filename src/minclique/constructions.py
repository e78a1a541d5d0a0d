"""Certified extremal constructions.

Two builders live here.  `compose_alpha2` merges two graphs of independence
number <= 2 into a bigger one, gluing a fresh clique R onto equal-size
cliques V1 and U2 picked in each factor: R u V1 and R u U2 become cliques,
all cross edges between the factors are present except V1 x U2, and each
r_i inherits v_i's neighbors on one side and u_i's on the other.  The
output has clique number omega_1 + omega_2 and still no independent triple.
Its rows are bitmasks: g1 on 0..n1-1 with its cross edges (all of g2, less
U2 on V1), g2 shifted to n1..n1+n2-1, and on n1+n2+i the row of r_i, R - r_i
| N(v_i) | V1 | (N(u_i) | U2) << n1.  Each edge is set in at least one of
its two rows, and one `transpose` adds the reverse edges (row | column).

`build_extremal` realizes the minimum clique number achievable at chromatic
number n - k: join the optimal witness blocks (one per part of the q(k)
certificate, block i on 2 k_i + 1 vertices) together with enough dominating
vertices.  In a join a clique meets each part in a clique and an independent
set lies inside one part, so the clique number is the sum of the parts' and
the independence number the largest part's.  `ramsey.verify_join` checks the
graph row by row against its parts and certifies both facts from those the
catalog proved for its blocks, with no search on the joined graph.  The join
has no independent triple, so a proper coloring uses classes of at most two
vertices, and the classes of size two form a matching of the complement:
chi = n - nu(complement) (Gallai), one maximum matching instead of a
chromatic search, checked to be n - k.

`compose_alpha2`'s output is no join, so it certifies alpha <= 2 and its
clique number by search, with `ramsey.verify_alpha2`, the exact check every
built-in catalog base passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, InvalidVertexError, PreconditionError
from .graphs import (MAX_VERTICES, Graph, bits, complement, complete_graph,
                     induced_subgraph, join, transpose)
from .intervals import IntInterval
from .qfunction import QCertificate, q
from .ramsey import default_catalog, r3, small_omega, verify_alpha2, verify_join
from . import matching, solvers


@dataclass(frozen=True)
class ComposeInput:
    """Validated input for compose_alpha2: two alpha <= 2 graphs and one
    clique in each, both of size omega(g2), with omega(g1) >= omega(g2);
    both clique numbers are kept, so no caller solves them again."""

    g1: Graph
    g2: Graph
    clique1: tuple[int, ...]
    clique2: tuple[int, ...]
    omega1: int
    omega2: int

    @classmethod
    def build(
        cls,
        g1: Graph,
        g2: Graph,
        clique1=None,
        clique2=None,
    ) -> "ComposeInput":
        """Validate, choosing lexicographically first cliques when unset."""
        omega2 = solvers.clique_number(g2)
        omega1 = solvers.clique_number(g1)
        if omega1 < omega2:
            raise PreconditionError(
                f"clique number of first graph ({omega1}) is below the second's ({omega2})"
            )
        for name, graph in (("first", g1), ("second", g2)):
            alpha = solvers.independence_number(graph)
            if alpha > 2:
                raise PreconditionError(
                    f"{name} graph has independence number {alpha} > 2"
                )
        if clique2 is None:
            clique2 = _lex_first_clique(g2, omega2)
        if clique1 is None:
            clique1 = _lex_first_clique(g1, omega2)
        clique1 = tuple(sorted(clique1))
        clique2 = tuple(sorted(clique2))
        for name, graph, clique in (("clique1", g1, clique1), ("clique2", g2, clique2)):
            if len(clique) != omega2:
                raise PreconditionError(
                    f"{name} has size {len(clique)}, need omega(g2) = {omega2}"
                )
            if not _is_clique(graph, clique):
                raise PreconditionError(f"{name} {clique} is not a clique")
        return cls(g1, g2, clique1, clique2, omega1, omega2)


def _is_clique(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Whether `vertices` are distinct and pairwise adjacent in g."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise InvalidVertexError(f"vertex {v} outside 0..{g.n - 1}")
        mask |= 1 << v
    return mask.bit_count() == len(vertices) and all(
        mask & ~g.adj[v] == 1 << v for v in vertices)


def _lex_first_clique(g: Graph, size: int) -> tuple[int, ...]:
    """Lexicographically first clique of the given size (must exist)."""
    chosen: list[int] = []
    cand = (1 << g.n) - 1
    while len(chosen) < size:
        for v in range(g.n):
            if not cand >> v & 1:
                continue
            rest = cand & g.adj[v] & (~0 << (v + 1))
            if solvers.clique_number(induced_subgraph(g, bits(rest))) >= size - len(chosen) - 1:
                chosen.append(v)
                cand = rest
                break
        else:
            raise PreconditionError(f"graph has no clique of size {size}")
    return tuple(chosen)


def compose_alpha2(inp: ComposeInput) -> tuple[Graph, int]:
    """The merge described in the module docstring, with its independence
    number (at most 2); `verify_alpha2` also proves the clique number is
    omega(g1) + omega(g2)."""
    g1, g2, omega2 = inp.g1, inp.g2, inp.omega2
    n1, n2 = g1.n, g2.n
    off_r = n1 + n2
    total = off_r + omega2
    if total > MAX_VERTICES:
        raise CapacityError(f"composition needs {total} vertices, limit {MAX_VERTICES}")
    v1 = sum(1 << v for v in inp.clique1)
    u2 = sum(1 << u for u in inp.clique2)
    all2 = (1 << n2) - 1
    r = ((1 << omega2) - 1) << off_r
    rows = [row | (all2 & ~u2 if v1 >> v & 1 else all2) << n1 for v, row in enumerate(g1.adj)]
    rows += [row << n1 for row in g2.adj]
    rows += [r - (1 << off_r + i) | g1.adj[v] | v1 | (g2.adj[u] | u2) << n1
             for i, (v, u) in enumerate(zip(inp.clique1, inp.clique2))]
    result = Graph(total, tuple(row | column for row, column in zip(rows, transpose(rows))))
    source = f"composition of {n1}- and {n2}-vertex graphs"
    return result, verify_alpha2(result, inp.omega1 + omega2, source)


@dataclass(frozen=True)
class ExtremalWitness:
    """A graph on n vertices with chromatic number exactly n - k whose
    clique number attains the minimum possible value n - 2k + q(k)."""

    n: int
    k: int
    graph: Graph
    omega: int
    chi: int
    certificate: QCertificate


def build_extremal(n: int, k: int) -> ExtremalWitness:
    """Construct and verify the extremal graph for the pair (n, k).

    Requires n >= 2k + 3 (below that the formula is not established) and an
    exactly determined q(k) with catalog witnesses for every block.
    """
    if k < 0:
        raise PreconditionError(f"need k >= 0, got {k}")
    if n < 2 * k + 3:
        raise PreconditionError(f"need n >= 2k + 3 = {2 * k + 3}, got n = {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"n = {n} exceeds {MAX_VERTICES}")
    value, cert = q(k)
    if not value.exact:
        raise PreconditionError(
            f"q({k}) is only known to lie in {value}; cannot certify an extremal graph"
        )
    catalog = default_catalog()
    # each catalog witness on x vertices has alpha <= 2 and clique number small_omega(x)
    parts = [(catalog.witness_alpha2(2 * part + 1), small_omega(2 * part + 1).lo)
             for part in cert.parts]
    extra = n - sum(block.n for block, _ in parts)
    if extra:
        parts.append((complete_graph(extra), extra))
    graph = join([part for part, _ in parts])
    omega = n - 2 * k + value.lo
    verify_join(graph, parts, omega, f"extremal graph for (n, k) = ({n}, {k})")
    chi = n - matching.matching_number(complement(graph))
    if chi != n - k:
        raise RuntimeError(
            f"internal error: joined graph has chromatic number {chi}, expected {n - k}"
        )
    return ExtremalWitness(n, k, graph, omega, chi, cert)


def eq4_upper_bound(omega1: int, omega2: int) -> IntInterval:
    """Size bound satisfied by compose_alpha2 outputs: at most
    R(3, omega1 + omega2 + 1) - 1 vertices."""
    return r3(omega1 + omega2 + 1) - 1
