"""Command-line interface.

One JSON report object goes to stdout; a short human-readable summary goes
to stderr.  Exit status: 0 when every check passes (indeterminate results
do not fail a run), 1 when any check fails, 2 on bad input.

Commands:
    q K                     value and certificate of the partition minimum
    witness N K [--out F]   certified extremal graph for chi = N - K
    verify FILE [--props]   solve omega/chi/alpha/nu for a graph6 file
    check theorem1 [--nmax N] [--dump-graph6 F]
                            census of every n <= N <= 8, from the oracle's
                            level tables: the Q(n, c) table, Q(n, n - k)
                            against the formula, class counts, the gap
    check theorem2 [--kmax K]
    check catalog
    gap N                   largest chi - omega on N vertices, by the formula
    compose F1 F2 [...]     merge two alpha <= 2 graphs

Each command computes its facts and turns them into check rows, named
pass/fail/indeterminate outcomes with the condition checked; `main` parses
(one parser per process), times, emits the report and maps errors to exit
statuses.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass

from . import constructions, matching, oracle, qfunction, solvers
from .errors import UnsupportedWitnessError
from .graphs import Graph, parse_graph6, serialize_graph6
from .intervals import IntInterval
from .ramsey import default_catalog, small_omega

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

ALL_PROPS = ("omega", "chi", "alpha", "nu")


PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | indeterminate
    condition: str  # the condition checked, with concrete values filled in

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "condition": self.condition}


class _InputError(Exception):
    pass


# what each _cmd_* returns for main to emit: command, inputs, results, checks
_Report = tuple[str, dict, dict, list[CheckResult]]


def _emit(command: str, inputs: dict, results: dict, checks: list[CheckResult],
          started: float, out, err) -> int:
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": [c.as_dict() for c in checks],
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }
    out.write(json.dumps(report, indent=2) + "\n")
    failed = [c for c in checks if c.status == FAIL]
    open_ = [c for c in checks if c.status == INDETERMINATE]
    if checks:
        err.write(
            f"{command}: {len(checks) - len(failed) - len(open_)} passed, "
            f"{len(failed)} failed, {len(open_)} indeterminate\n"
        )
    for c in failed:
        err.write(f"  FAIL {c.name}: {c.condition}\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _interval_json(value: IntInterval) -> list[int]:
    return [value.lo, value.hi]


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    return parse_graph6(line)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    raise _InputError(f"{path} contains no graph6 line")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _cmd_q(args) -> _Report:
    value, cert = qfunction.q(args.k)
    results = {
        "q": _interval_json(value),
        "parts": list(cert.parts),
        "part_values": [_interval_json(v) for v in cert.part_values],
        "indeterminate": not value.exact,
    }
    checks = []
    if not value.exact:
        checks.append(CheckResult(
            f"q({args.k})", INDETERMINATE,
            f"value depends on open Ramsey bounds; known to lie in {value}",
        ))
    return "q", {"k": args.k}, results, checks


def _cmd_witness(args) -> _Report:
    witness = constructions.build_extremal(args.n, args.k)
    g6 = serialize_graph6(witness.graph)
    if args.out:
        _write_text(args.out, g6 + "\n")
    results = {
        "graph6": g6,
        "n": witness.n,
        "k": witness.k,
        "omega": witness.omega,
        "chi": witness.chi,
        "parts": list(witness.certificate.parts),
        "q": _interval_json(witness.certificate.total),
    }
    checks = [
        CheckResult("chi", PASS, f"chromatic number {witness.chi} equals n - k = {args.n - args.k}"),
        CheckResult("omega", PASS,
                    f"clique number {witness.omega} equals n - 2k + q(k) = "
                    f"{args.n} - {2 * args.k} + {witness.certificate.total.lo}"),
    ]
    return "witness", {"n": args.n, "k": args.k}, results, checks


def _cmd_verify(args) -> _Report:
    props = ALL_PROPS if args.props == "all" else tuple(p.strip() for p in args.props.split(","))
    for prop in props:
        if prop not in ALL_PROPS:
            raise _InputError(f"unknown property {prop!r}; choose from {ALL_PROPS}")
    g = _load_graph(args.file)
    results: dict = {"n": g.n, "edges": g.num_edges}
    # one clique search serves omega and chi's bounds
    if "chi" in props:
        omega, chi = solvers.clique_and_chromatic_number(g)
    elif "omega" in props:
        omega = solvers.clique_number(g)
    for prop in props:
        if prop == "omega":
            results["omega"] = omega
        elif prop == "chi":
            results["chi"] = chi
        elif prop == "alpha":
            results["alpha"] = solvers.independence_number(g)
        else:
            results["nu"] = matching.matching_number(g)
    return "verify", {"file": args.file, "props": list(props)}, results, []


def _cmd_gap(args) -> _Report:
    value = qfunction.chromatic_gap(args.n)
    return "gap", {"n": args.n}, {"gap": _interval_json(value)}, []


def _cmd_compose(args) -> _Report:
    g1 = _load_graph(args.file1)
    g2 = _load_graph(args.file2)
    clique1 = _parse_vertex_list(args.clique1)
    clique2 = _parse_vertex_list(args.clique2)
    inp = constructions.ComposeInput.build(g1, g2, clique1, clique2)
    merged, alpha = constructions.compose_alpha2(inp)
    g6 = serialize_graph6(merged)
    if args.out:
        _write_text(args.out, g6 + "\n")
    omega1, omega2 = inp.omega1, inp.omega2
    # compose_alpha2 raises unless omega(merged) = omega1 + omega2 and alpha <= 2
    results = {"graph6": g6, "n": merged.n, "omega": omega1 + omega2, "alpha": alpha}
    checks = []
    bound = constructions.eq4_upper_bound(omega1, omega2)
    if bound.exact:
        checks.append(CheckResult(
            "size-bound", PASS if merged.n <= bound.lo else FAIL,
            f"|V| = {merged.n} <= R(3, omega1 + omega2 + 1) - 1 = {bound.lo}",
        ))
    return "compose", {"file1": args.file1, "file2": args.file2}, results, checks


def _parse_vertex_list(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _InputError(f"bad vertex list {text!r}: {exc}") from exc


def _check_theorem1(args) -> _Report:
    """Every census row from one pass over n <= --nmax: Q(n, n - k) against
    n - 2k + q(k) for each k with n >= 2k + 3, the class count, the gap."""
    oracle.count_graphs(args.nmax)  # the enumeration cap, checked before any work
    formula_rows, count_rows, gap_rows, counts, q_table = [], [], [], [], []
    for n in range(args.nmax + 1):
        stats = oracle.level_stats(n)
        q_table += ([n, c, w] for c, w in sorted(stats.items()))
        for k in range((n - 3) // 2 + 1):
            qk = qfunction.q_value(k)
            expected, actual = n - 2 * k + qk.lo, stats.get(n - k)
            formula_rows.append(CheckResult(
                f"n={n},k={k}", PASS if qk.exact and actual == expected else FAIL,
                f"min clique at chi = {n - k} on {n} vertices is {actual}, "
                f"formula gives {n} - {2 * k} + {qk.lo} = {expected}",
            ))
        got, want = oracle.count_graphs(n), oracle.KNOWN_CLASS_COUNTS[n]
        counts.append(got)
        count_rows.append(CheckResult(
            f"count-n={n}", PASS if got == want else FAIL,
            f"{got} isomorphism classes enumerated, published count is {want}",
        ))
        if n:
            formula, brute = qfunction.chromatic_gap(n), oracle.brute_gap(n)
            gap_rows.append(CheckResult(
                f"gap-n={n}", PASS if formula.exact and formula.lo == brute else FAIL,
                f"arithmetic gap {formula} vs exhaustive {brute}",
            ))
    results = {"pairs_checked": len(formula_rows), "class_counts": counts, "q_table": q_table}
    checks = formula_rows + count_rows + gap_rows
    if args.dump_graph6:
        _write_text(args.dump_graph6, "".join(
            serialize_graph6(g) + "\n" for g in oracle.enumerate_graphs(args.nmax)))
    return "check theorem1", {"target": "theorem1", "nmax": args.nmax}, results, checks


def _check_theorem2(args) -> _Report:
    """One row per k <= --kmax: the minimum over at most 3 parts against the
    unrestricted q(k) where q(k) is exact, no verdict where it is not; the
    exact k that 2 parts or a single part do not serve go into the results."""
    if args.kmax < 1:
        raise _InputError("theorem2 check needs --kmax >= 1")
    minimum = qfunction.few_parts_minima(args.kmax)
    checks, indeterminate, two_part, single = [], [], [], []
    for k in range(1, args.kmax + 1):
        full = minimum(k, k)[0]
        if not full.exact:
            indeterminate.append(k)
            checks.append(CheckResult(
                f"k={k}", INDETERMINATE, f"q({k}) only known to lie in {full}; no verdict"))
            continue
        three = minimum(k, 3)[0]
        checks.append(CheckResult(
            f"k={k}", PASS if three == full else FAIL,
            f"min over <= 3 parts is {three}, unrestricted is {full}",
        ))
        if minimum(k, 2)[0] != full:
            two_part.append(k)
        single_cost = qfunction.block_cost(k)
        if single_cost.exact and single_cost != full:
            single.append(k)
    results = {"indeterminate_k": indeterminate, "two_part_exceptions": two_part,
               "single_block_exceptions": single}
    return "check theorem2", {"target": "theorem2", "kmax": args.kmax}, results, checks


def _check_catalog(args) -> _Report:
    catalog = default_catalog()
    checks = []
    for size in catalog.base_sizes():
        if size < 5:
            continue  # the 2-vertex base is trivial plumbing
        g = catalog.witness_alpha2(size)[0]
        omega, alpha = solvers.clique_number(g), solvers.independence_number(g)
        want = small_omega(size).lo
        checks.append(CheckResult(
            f"witness-{size}", PASS if omega == want and alpha <= 2 else FAIL,
            f"{size}-vertex witness: clique {omega} (want {want}), "
            f"independence {alpha} (want <= 2)",
        ))
    return "check catalog", {"target": "catalog"}, {"witnesses_verified": len(checks)}, checks


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minclique",
        description="Exact minimum clique numbers at prescribed chromatic number, "
                    "with certified extremal constructions over Ramsey bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("q", help="partition minimum q(k) with certificate")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_q)

    p = sub.add_parser("witness", help="certified extremal graph for chi = n - k")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--out", help="write the graph6 line to this file")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="solve graph invariants for a graph6 file")
    p.add_argument("file")
    p.add_argument("--props", default="all",
                   help="comma list from omega,chi,alpha,nu (default: all)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check", help="run a verification suite")
    targets = p.add_subparsers(dest="target", required=True)
    t = targets.add_parser("theorem1", help="exhaustive Q(n, n - k) census and gap")
    t.add_argument("--nmax", type=int, default=oracle.MAX_ENUM_VERTICES)
    t.add_argument("--dump-graph6", help="write enumerated graphs as graph6 lines")
    t.set_defaults(func=_check_theorem1)
    t = targets.add_parser("theorem2", help="three parts suffice for q(k)")
    t.add_argument("--kmax", type=int, default=22)
    t.set_defaults(func=_check_theorem2)
    t = targets.add_parser("catalog", help="re-verify each stored witness")
    t.set_defaults(func=_check_catalog)

    p = sub.add_parser("gap", help="largest chi - omega on n vertices")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("compose", help="merge two alpha <= 2 graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--clique1", help="comma list of vertices forming a clique in graph 1")
    p.add_argument("--clique2", help="comma list of vertices forming a clique in graph 2")
    p.add_argument("--out", help="write the merged graph6 line to this file")
    p.set_defaults(func=_cmd_compose)
    return parser


def main(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    try:
        # argparse prints usage errors and --help itself; send them to err/out
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        report = args.func(args)
    except (_InputError, UnsupportedWitnessError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    return _emit(*report, started, out, err)

