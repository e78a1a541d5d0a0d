"""Immutable simple graphs on at most 64 vertices, as bitset adjacency rows.

Vertices are dense labels 0..n-1.  Row u is an integer whose bit v is set
iff uv is an edge, so neighborhood intersection is a single AND — this is
what makes the exact solvers fast at the sizes we care about (n <= 40).

Also provides the constructions the package builds its graphs from
(complete graphs, complements, joins, induced subgraphs, circulants) and
graph6 serialization, the interchange format for small-graph corpora.

The three passes that read a whole adjacency matrix by columns go through
one primitive, `transpose`: the rows are packed 64 bits apart into a single
int, and six masked block swaps on that int transpose the 64 x 64 bit
matrix.  Symmetry validation (a matrix equals its transpose), the clique
search's relabelling and induced subgraphs (`permuted_rows`: P A P^T =
P (P A)^T for symmetric A) and graph6 parsing (lower triangle | its
transpose) cost a handful of big-int operations each instead of O(n^2)
Python-level bit tests.
"""

from __future__ import annotations

import binascii
import re
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, Graph6Error, InvalidEdgeError, InvalidVertexError

MAX_VERTICES = 64


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; adj[u] is the neighborhood of u as a bitmask.

    Construction rejects a row count other than n, a row with bits >= n
    (negative rows included), a loop and an asymmetric pair, each error
    naming its first offender.  The row checks are one O(n) loop.  Symmetry
    is one comparison of the packed matrix M with its transpose: a few
    big-int operations, not n(n - 1)/2 bit tests.  The lowest set bit of
    D = M xor M^T names the first asymmetric pair (u, v) in row-major order
    with u < v, because D is symmetric with an empty diagonal: had its
    lowest nonzero row u a bit v < u, row v < u would be nonzero too.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise InvalidVertexError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise InvalidVertexError(f"row {u} has bits >= n set")
            if row >> u & 1:
                raise InvalidEdgeError(f"loop at vertex {u}")
        packed = _pack(self.adj)
        asymmetric = packed ^ _transposed(packed, self.n)
        if asymmetric:
            u, v = divmod((asymmetric & -asymmetric).bit_length() - 1, 64)
            raise InvalidEdgeError(f"asymmetric adjacency between {u} and {v}")

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def bits(mask: int) -> Iterable[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- 64 x 64 bit-matrix transpose ----------------------------------------------
# A matrix of at most 64 rows packs into one int with row r at bits
# 64r..64r+63, so entry (r, c) is bit 64r + c.  Transposing swaps bit s of r
# with bit s of c for s = 0..5.  The six swaps commute; swap s exchanges each
# entry whose r has bit s clear and whose c has bit s set with the entry
# 63 * 2**s bits above it (a masked delta swap).  When every entry lies in
# the top-left size x size corner, the swaps with 2**s >= size move only
# zeros, so they are skipped.


def _swap_steps() -> list[tuple[int, int]]:
    """(shift, mask) of swaps s = 0..5, in closed form."""
    word = (1 << 64) - 1
    whole = (1 << 64 * 64) - 1
    steps = []
    for s in range(6):
        j = 1 << s
        columns = word // ((1 << 2 * j) - 1) * (((1 << j) - 1) << j)
        rows = whole // ((1 << 128 * j) - 1) * (((1 << 64 * j) - 1) // word)
        steps.append((63 * j, rows * columns))
    return steps


_SWAP_STEPS = _swap_steps()


def _pack(rows: Sequence[int]) -> int:
    return int.from_bytes(b"".join([row.to_bytes(8, "little") for row in rows]), "little")


def _transposed(packed: int, size: int) -> int:
    """Transpose of a packed matrix whose entries all lie in the top-left
    size x size corner."""
    for shift, mask in _SWAP_STEPS[:(size - 1).bit_length()]:
        t = (packed ^ packed >> shift) & mask
        packed ^= t ^ t << shift
    return packed


def _columns(rows: Sequence[int], size: int) -> list[int]:
    """Columns 0..size-1 of the matrix with these rows, all of whose
    entries lie in the top-left size x size corner."""
    packed = _transposed(_pack(rows), size)
    return list(struct.unpack(f"<{size}Q", packed.to_bytes(8 * size, "little")))


def transpose(rows: Sequence[int]) -> list[int]:
    """Transpose of the n x n bit matrix with these n <= 64 rows, each in
    0..2**n - 1: bit r of entry c is bit c of rows[r]."""
    return _columns(rows, len(rows))


def permuted_rows(adj: Sequence[int], order: Sequence[int]) -> list[int]:
    """Rows of the subgraph induced on the distinct vertices `order`, with
    order[i] relabelled i.  `adj` must be symmetric, as a Graph's rows are:
    then column order[i] of the picked rows is row i of the result."""
    columns = _columns([adj[v] for v in order], len(adj))
    return [columns[v] for v in order]


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


def join(parts: Sequence[Graph]) -> Graph:
    """Disjoint union plus every edge between vertices of distinct parts."""
    if not parts:
        raise ValueError("join of no parts")
    full = (1 << sum(p.n for p in parts)) - 1
    rows: list[int] = []
    for part in parts:
        offset = len(rows)
        outside = full & ~(((1 << part.n) - 1) << offset)
        rows.extend(row << offset | outside for row in part.adj)
    return Graph(len(rows), tuple(rows))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on `keep`, relabeled 0..|keep|-1 in ascending vertex order."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise InvalidVertexError(f"vertex {v} outside 0..{g.n - 1}")
    return Graph(len(kept), tuple(permuted_rows(g.adj, kept)))


def circulant(n: int, connections: Iterable[int]) -> Graph:
    """Circulant graph: vertex i adjacent to (i +/- d) mod n for each
    distance d in `connections` (each between 1 and n // 2)."""
    connections = frozenset(connections)
    for d in connections:
        if not 1 <= d <= n // 2:
            raise InvalidEdgeError(f"connection distance {d} invalid for n={n}")
    rows = [0] * n
    for i in range(n):
        for d in connections:
            rows[i] |= 1 << (i + d) % n | 1 << (i - d) % n
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6: 6-bit big-endian encoding of the upper triangle in column order.
# Header is chr(n + 63) for n <= 62, else '~' followed by n as three 6-bit
# groups.  Bytes are printable ASCII 63..126.
#
# The body is base64 in another alphabet: both cut one big-endian bit
# stream into 6-bit groups, and graph6 writes group v as chr(63 + v) where
# base64 writes the v-th letter of A-Z a-z 0-9 + /.  So the serializer packs
# the stream into one int with stream bit 0 as its top bit, left-aligned in
# whole 3-byte blocks (base64 then emits no '=' padding), encodes it with
# binascii and maps the alphabet with one bytes.translate.  The shift that
# aligns the stream fills the tail with zeros, so graph6's padding bits need
# no handling of their own; the characters past ceil(nbits / 6) encode only
# that fill and are cut off.  binascii, not base64: the latter is a Python
# wrapper around it whose import would add to start-up.
# ---------------------------------------------------------------------------

_G6_PREFIX = ">>graph6<<"
_G6_BAD_BYTE = re.compile("[^?-~]")  # outside 63..126
# a graph6 byte to its six stream bits, last bit first
_G6_BITS = {63 + v: format(v, "06b")[::-1] for v in range(64)}
_B64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)


def serialize_graph6(g: Graph) -> str:
    if g.n <= 62:
        header = chr(g.n + 63)
    else:
        header = "~" + "".join(
            chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)
        )
    nbits = g.n * (g.n - 1) // 2
    # bit i of tri is stream bit i: column c is the low c bits of adj[c]
    tri = 0
    for c in range(1, g.n):
        tri |= (g.adj[c] & ((1 << c) - 1)) << c * (c - 1) // 2
    # stream bit 0 becomes the top bit of whole 3-byte blocks
    nbytes = -(-nbits // 24) * 3
    packed = int(format(tri, f"0{nbits}b")[::-1], 2) << nbytes * 8 - nbits
    body = binascii.b2a_base64(packed.to_bytes(nbytes, "big"), newline=False)
    return header + body.translate(_B64_TO_G6)[:-(-nbits // 6)].decode("ascii")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_PREFIX):
        s = s[len(_G6_PREFIX):]
    if not s:
        raise Graph6Error("empty graph6 string")
    bad = _G6_BAD_BYTE.search(s)
    if bad:
        raise Graph6Error(f"byte {ord(bad.group())} outside graph6 range 63..126")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graphs beyond 258047 vertices are not supported")
        if len(s) < 4:
            raise Graph6Error("truncated long-form vertex count")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 vertex count {n} exceeds {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) < expected:
        raise Graph6Error(f"truncated bit stream: {len(body)} bytes, need {expected}")
    if len(body) > expected:
        raise Graph6Error(f"{len(body) - expected} trailing bytes after bit stream")
    # bit i of tri is bit i of the stream: the bytes and their bits reversed
    tri = int(body[::-1].translate(_G6_BITS) or "0", 2)
    if tri >> nbits:
        raise Graph6Error("nonzero padding bits")
    # row c of the lower triangle is column c of the stream, bit r for r < c
    lower = [tri >> c * (c - 1) // 2 & ((1 << c) - 1) for c in range(n)]
    return Graph(n, tuple(row | column for row, column in zip(lower, transpose(lower))))
