"""Independent references for every answer the benchmark measures.

Nothing here imports the package.  The census is checked against hard-coded
published tables; witnesses and invariants are rechecked with networkx,
through identities the package's own code does not use:

* a graph is the join of the subgraphs induced on the connected components
  of its complement, so omega is the sum of their clique numbers;
* if the complement is triangle-free (alpha <= 2), chi = n - nu(complement)
  (Gallai);
* on other graphs chi is only bracketed: max(omega, ceil(n / alpha)) <= chi
  <= the colours of a DSATUR greedy colouring;
* Edmonds-Gallai: n - 2 nu equals the number of components of G[D] minus |A|.

Each check returns a list of problems; an empty list means the answer is
right.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import networkx as nx

# Isomorphism classes of graphs on n = 0..8 vertices (OEIS A000088).
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# The published row q(0..19); q(20) is the first value that depends on an
# open Ramsey number.
Q_ROW = (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8)
FIRST_OPEN_K = 20
# R(3, ell) for ell = 1..9, and the lower bound R(3, 10) >= 40.
R3_EXACT = (1, 3, 6, 9, 14, 18, 23, 28, 36)
R3_10_LOWER = 40
# Built-in catalog witnesses on 5, 8, 13 and 17 vertices.
CATALOG_WITNESSES = 4


@dataclass(frozen=True)
class References:
    class_counts: tuple[int, ...] = CLASS_COUNTS
    q_row: tuple[int, ...] = Q_ROW
    catalog_witnesses: int = CATALOG_WITNESSES


DEFAULT = References()

_ENTRY = re.compile(r"^n=(\d+),k=(\d+)$")
_ACTUAL = re.compile(r" is (\d+), formula gives ")


def _report(code: int, stdout: str, problems: list[str]) -> dict | None:
    if code != 0:
        problems.append(f"exit status {code}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"report is not JSON: {exc}")
        return None


def check_census(nmax: int, code: int, stdout: str, refs: References = DEFAULT) -> list[str]:
    """`check theorem1 --nmax N`: class counts and Q(n, n - k) for every
    n <= N, k with n >= 2k + 3, against the published tables."""
    problems: list[str] = []
    report = _report(code, stdout, problems)
    if report is None:
        return problems
    counts = report["results"].get("class_counts")
    if counts != list(refs.class_counts[:nmax + 1]):
        problems.append(f"class counts {counts}, published {list(refs.class_counts[:nmax + 1])}")
    want = {(n, k) for n in range(nmax + 1) for k in range(n) if n >= 2 * k + 3}
    seen = set()
    for entry in report["checks"]:
        if entry["status"] != "pass":
            problems.append(f"{entry['name']}: status {entry['status']}")
        match = _ENTRY.match(entry["name"])
        if not match:
            continue
        n, k = int(match[1]), int(match[2])
        seen.add((n, k))
        actual = _ACTUAL.search(entry["condition"])
        expected = n - 2 * k + refs.q_row[k]
        if actual is None or int(actual[1]) != expected:
            problems.append(f"Q({n}, {n - k}): reported {entry['condition']!r}, published {expected}")
    if seen != want:
        problems.append(f"checked pairs {sorted(seen)}, want {sorted(want)}")
    return problems


def block_cost(j: int) -> int:
    """Least clique number on 2j + 1 vertices with no independent triple,
    minus one; exact for j <= 19."""
    x = 2 * j + 1
    if x >= R3_10_LOWER:
        raise ValueError(f"block cost of {j} needs open Ramsey values")
    r3 = R3_EXACT + (R3_10_LOWER,)
    w = next(w for w in range(1, len(r3)) if r3[w] > x)  # r3[w] is R(3, w + 1)
    return w - 1


def partitions(k: int, largest: int | None = None):
    if k == 0:
        yield ()
        return
    for p in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - p, p):
            yield (p,) + rest


def brute_q(k: int, max_parts: int | None = None) -> int:
    return min(
        sum(block_cost(p) for p in parts)
        for parts in partitions(k)
        if max_parts is None or len(parts) <= max_parts
    )


def check_theorem2(kmax: int, code: int, stdout: str, refs: References = DEFAULT) -> list[str]:
    """`check theorem2 --kmax K`: no failed entry; every k below the first
    open value passes and that value is indeterminate; the two-part and
    single-block exceptions below it match a brute force over partitions."""
    problems: list[str] = []
    report = _report(code, stdout, problems)
    if report is None:
        return problems
    status = {e["name"]: e["status"] for e in report["checks"]}
    if sorted(status) != sorted(f"k={k}" for k in range(1, kmax + 1)):
        problems.append(f"entries {sorted(status)} do not cover k = 1..{kmax}")
    problems += [f"{name}: failed" for name, s in status.items() if s == "fail"]
    exact_range = range(1, min(kmax, FIRST_OPEN_K - 1) + 1)
    problems += [f"k={k}: {status.get(f'k={k}')}, want pass"
                 for k in exact_range if status.get(f"k={k}") != "pass"]
    if kmax >= FIRST_OPEN_K and status.get(f"k={FIRST_OPEN_K}") != "indeterminate":
        problems.append(f"k={FIRST_OPEN_K} should be indeterminate")
    results = report["results"]
    for key, want in (
        ("two_part_exceptions", [k for k in exact_range if brute_q(k, 2) != refs.q_row[k]]),
        ("single_block_exceptions", [k for k in exact_range if block_cost(k) != refs.q_row[k]]),
    ):
        got = [k for k in results.get(key, []) if k in exact_range]
        if got != want:
            problems.append(f"{key} below k={FIRST_OPEN_K}: {got}, want {want}")
    return problems


def check_catalog(code: int, stdout: str, refs: References = DEFAULT) -> list[str]:
    problems: list[str] = []
    report = _report(code, stdout, problems)
    if report is None:
        return problems
    if report["results"].get("witnesses_verified") != refs.catalog_witnesses:
        problems.append(f"verified {report['results'].get('witnesses_verified')} witnesses, "
                        f"want {refs.catalog_witnesses}")
    problems += [f"{e['name']}: {e['status']}" for e in report["checks"] if e["status"] != "pass"]
    return problems


def _graph(graph6: str) -> nx.Graph:
    return nx.from_graph6_bytes(graph6.encode())


def _nu(g: nx.Graph) -> int:
    return len(nx.max_weight_matching(g, maxcardinality=True))


def _omega(g: nx.Graph) -> int:
    return nx.max_weight_clique(g, weight=None)[1] if g.number_of_nodes() else 0


def check_witness(n: int, k: int, code: int, stdout: str, refs: References = DEFAULT) -> list[str]:
    """`witness n k`: chi = n - k and omega = n - 2k + q(k), as reported and
    as recomputed from the graph6 output."""
    problems: list[str] = []
    report = _report(code, stdout, problems)
    if report is None:
        return problems
    r = report["results"]
    want_chi, want_omega = n - k, n - 2 * k + refs.q_row[k]
    if (r["n"], r["k"], r["chi"], r["omega"]) != (n, k, want_chi, want_omega):
        problems.append(f"reported n, k, chi, omega = {r['n']}, {r['k']}, {r['chi']}, {r['omega']}; "
                        f"want {n}, {k}, {want_chi}, {want_omega}")
    g = _graph(r["graph6"])
    if g.number_of_nodes() != n:
        return problems + [f"graph has {g.number_of_nodes()} vertices, want {n}"]
    gbar = nx.complement(g)
    if any(nx.triangles(gbar).values()):
        return problems + ["complement has a triangle, so alpha > 2"]
    chi = n - _nu(gbar)
    omega = sum(_omega(g.subgraph(c)) for c in nx.connected_components(gbar))
    if (chi, omega) != (want_chi, want_omega):
        problems.append(f"recomputed chi, omega = {chi}, {omega}; want {want_chi}, {want_omega}")
    return problems


def check_invariants(graph6: str, got: dict) -> list[str]:
    """One graph's invariant set against networkx."""
    if "error" in got:
        return [got["error"]]
    g = _graph(graph6)
    n = g.number_of_nodes()
    gbar = nx.complement(g)
    omega, alpha, nu = _omega(g), _omega(gbar), _nu(g)
    problems = [
        f"{name} = {got[name]}, networkx gives {want}"
        for name, want in (("n", n), ("omega", omega), ("alpha", alpha), ("nu", nu))
        if got[name] != want
    ]
    chi = got["chi"]
    if alpha <= 2:
        if chi != n - _nu(gbar):
            problems.append(f"chi = {chi}, Gallai identity gives {n - _nu(gbar)}")
    else:
        greedy = max(nx.greedy_color(g, strategy="DSATUR").values()) + 1
        if not max(omega, -(-n // alpha)) <= chi <= greedy:
            problems.append(f"chi = {chi} outside [{max(omega, -(-n // alpha))}, {greedy}]")
    eg = got["eg"]
    if eg["d"] + eg["a"] + eg["c"] != n or eg["matching"] != nu:
        problems.append(f"Edmonds-Gallai sets {eg} do not cover n = {n} with nu = {nu}")
    elif n - 2 * nu != eg["d_components"] - eg["a"]:
        problems.append(f"deficiency {n - 2 * nu} != components of D - |A| in {eg}")
    part = got["partition"]
    if alpha == 2:
        if part is None or not part["passed"] or part["k"] != n - chi:
            problems.append(f"complement partition {part} should pass with k = n - chi")
    elif part is not None:
        problems.append(f"complement partition ran on a graph with alpha = {alpha}")
    return problems
