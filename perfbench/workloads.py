"""Seeded inputs for the three benchmark workloads.

Each workload is described by a JSON-serialisable spec.  The spec holds
only the inputs the program receives (command arguments, (n, k) pairs,
graph6 lines); the references the answers are checked against live in
references.py and never reach the worker.  The same seed always gives the
same spec, and `digest` fingerprints it so that two runs can show they
measured identical inputs.

Why these three (see README.md for the layer-to-metric mapping):

* census: the exhaustive isomorph-free oracle on <= 8 vertices, i.e. level-8
  enumeration plus ~13.6k chromatic solves on tiny graphs.  It has no
  seed-dependent input: the command is fixed.
* witness_sweep: the certified-construction path (q table, catalog, joins
  of alpha <= 2 blocks, chi/omega on dense 64-vertex graphs) with no oracle.
  The seed fixes the order of the witness commands.
* invariants: the exact solvers and the matching code on unstructured
  random graphs and on alpha <= 2 graphs, unlike both other workloads.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("census", "witness_sweep", "invariants")

CENSUS_NMAX = 8
THEOREM2_KMAX = 80
# The catalog builds witnesses for k = 0..8 today; k >= 9 raises
# UnsupportedWitnessError until the construction gap is closed.
WITNESS_KMAX = 8
WITNESS_NMAX = 64

# Random G(n, p) cells as (n, p, samples per seed).  chi is exact
# backtracking, so its cost is heavy-tailed in n and p: G(48..64, 0.3..0.7)
# took from 0.1 s to well over 4 s per graph, and G(44, 0.5) up to 0.3 s.
# Those cells are left out, since a per-seed total they dominate moves by
# more than any bound allows.  n = 48..64 appears only where every solver
# stays within milliseconds (p = 0.1, and p = 0.9 at n = 48).  Ten samples
# per cell keep the seed-to-seed change of the latency percentiles small.
GNP_CELLS = (
    [(n, p, 10) for n in (16, 24, 32, 40) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    + [(48, 0.9, 8), (48, 0.1, 4), (56, 0.1, 4), (64, 0.1, 4)]
)
# alpha <= 2 graphs: complements of random triangle-free graphs, as
# (n, edge share, samples).  The triangle-free process stops after the given
# share of a maximal graph's edge count, so both the sparse case (many
# dominating vertices, odd complement components) and the maximal one
# (perfect complement matchings) occur.  chi on the maximal case is
# heavy-tailed from n = 18 on (1 to 34 ms at 18 vertices, up to 0.2 s at 22,
# over 5 s at 32, and verify_complement_partition solves chi again), so it
# stays at n = 16; the sparse case stays cheap up to n = 28.
ALPHA2_CELLS = [(16, 1.0, 12), (20, 0.5, 8), (24, 0.5, 8), (28, 0.5, 8)]

SMOKE = {
    "census": {"nmax": 6},
    "witness_sweep": {"kmax": 10, "witness_kmax": 2, "witness_nmax": 12},
    "invariants": {"gnp": [(12, 0.3, 1), (16, 0.5, 1)], "alpha2": [(12, 1.0, 1)]},
}


def make_spec(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs one run of `workload` measures, generated from `seed`."""
    if workload == "census":
        nmax = SMOKE["census"]["nmax"] if smoke else CENSUS_NMAX
        return {"workload": workload, "argv": ["check", "theorem1", "--nmax", str(nmax)]}
    rng = random.Random(f"{workload}:{seed}")
    if workload == "witness_sweep":
        size = SMOKE["witness_sweep"] if smoke else {
            "kmax": THEOREM2_KMAX, "witness_kmax": WITNESS_KMAX, "witness_nmax": WITNESS_NMAX,
        }
        pairs = [
            [n, k]
            for k in range(size["witness_kmax"] + 1)
            for n in range(2 * k + 3, size["witness_nmax"] + 1)
        ]
        rng.shuffle(pairs)
        return {
            "workload": workload,
            "theorem2_argv": ["check", "theorem2", "--kmax", str(size["kmax"])],
            "pairs": pairs,
            "catalog_argv": ["check", "catalog"],
        }
    if workload == "invariants":
        gnp = SMOKE["invariants"]["gnp"] if smoke else GNP_CELLS
        alpha2 = SMOKE["invariants"]["alpha2"] if smoke else ALPHA2_CELLS
        graphs = []
        for n, p, count in gnp:
            for _ in range(count):
                graphs.append(to_graph6(n, random_gnp(rng, n, p)))
        for n, share, count in alpha2:
            for _ in range(count):
                graphs.append(to_graph6(n, complement_edges(n, random_triangle_free(rng, n, share))))
        rng.shuffle(graphs)
        return {"workload": workload, "graph6": graphs}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def digest(spec: dict) -> str:
    """Short fingerprint of a spec's inputs."""
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_triangle_free(rng: random.Random, n: int, share: float) -> list[tuple[int, int]]:
    """Random triangle-free process: add shuffled pairs that close no
    triangle; keep the first `share` of the edges of the maximal graph it
    reaches (at least one edge, so the complement has independence
    number exactly 2)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    nbrs = [0] * n
    edges = []
    for u, v in pairs:
        if not nbrs[u] & nbrs[v]:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
            edges.append((u, v))
    return edges[:max(1, round(share * len(edges)))]


def complement_edges(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    present = set(edges)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]


def to_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 line, written here rather than taken from the package so
    that the inputs do not depend on the code under test."""
    if not 0 <= n <= 258047:
        raise ValueError(f"graph6 supports 0..258047 vertices, got {n}")
    present = set(edges)
    bitstring = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bitstring += [0] * (-len(bitstring) % 6)
    if n <= 62:
        chars = [chr(n + 63)]
    else:
        chars = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    for i in range(0, len(bitstring), 6):
        value = 0
        for b in bitstring[i:i + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)
