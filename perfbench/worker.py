"""One measured repetition of a workload, in a fresh interpreter.

Reads a spec (see workloads.py) as JSON on stdin and prints one JSON
result on stdout.  Set-up (importing minclique and building the default
catalog, which re-verifies its witnesses) is timed apart from the workload.
Answers are returned unchecked: run.py checks them against references.py
after the timed region, so networkx is never imported here and does not
count toward this process's memory.

With "trace_path" in the spec, tracing.Tracer wraps the package's layer
boundaries before the catalog is built and the spans are written there.
With workload "setup", only set-up is measured.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set of this process.  VmHWM belongs to the
    address space exec created; ru_maxrss on Linux also keeps the peak of
    the process image before exec, i.e. of the benchmark's parent."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cli(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv, out=out, err=err)
    except Exception as exc:  # an unexpected exception is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"code": code, "stdout": out.getvalue()}


def run_census(spec: dict, mc) -> tuple[dict, list[float]]:
    start = time.perf_counter()
    report = _cli(mc.cli, spec["argv"])
    return {"report": report}, [time.perf_counter() - start]


def run_witness_sweep(spec: dict, mc) -> tuple[dict, list[float]]:
    theorem2 = _cli(mc.cli, spec["theorem2_argv"])
    latencies, witnesses = [], []
    for n, k in spec["pairs"]:
        start = time.perf_counter()
        witnesses.append(_cli(mc.cli, ["witness", str(n), str(k)]))
        latencies.append(time.perf_counter() - start)
    catalog = _cli(mc.cli, spec["catalog_argv"])
    return {"theorem2": theorem2, "witnesses": witnesses, "catalog": catalog}, latencies


def _invariants(mc, text: str) -> dict:
    g = mc.graphs.parse_graph6(text)
    omega = mc.solvers.clique_number(g)
    alpha = mc.solvers.independence_number(g)
    nu = mc.matching.matching_number(g)
    chi = mc.solvers.chromatic_number(g)
    eg = mc.matching.edmonds_gallai(g)
    partition = None
    if alpha == 2:
        report = mc.matching.verify_complement_partition(g, g.n - chi)
        partition = {"k": report.k, "passed": report.passed}
    return {
        "n": g.n, "omega": omega, "alpha": alpha, "nu": nu, "chi": chi,
        "eg": {"d": len(eg.d), "a": len(eg.a), "c": len(eg.c),
               "d_components": len(eg.components_of_d), "matching": eg.matching.size},
        "partition": partition,
    }


def run_invariants(spec: dict, mc) -> tuple[dict, list[float]]:
    latencies, results = [], []
    for text in spec["graph6"]:
        start = time.perf_counter()
        try:
            results.append(_invariants(mc, text))
        except Exception as exc:  # an unexpected exception is a failed operation
            results.append({"error": f"{type(exc).__name__}: {exc}"})
        latencies.append(time.perf_counter() - start)
    return {"graphs": results}, latencies


RUNNERS = {
    "census": run_census,
    "witness_sweep": run_witness_sweep,
    "invariants": run_invariants,
}


def main() -> int:
    spec = json.load(sys.stdin)
    trace_path = spec.get("trace_path")

    start = time.perf_counter()
    import minclique
    import minclique.cli

    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    minclique.ramsey.default_catalog()
    setup_s = time.perf_counter() - start

    result: dict = {"setup_s": setup_s}
    if spec["workload"] != "setup":
        if tracer:
            tracer.run = "workload"
        start = time.perf_counter()
        outputs, latencies = RUNNERS[spec["workload"]](spec, minclique)
        wall_s = time.perf_counter() - start
        result |= {"wall_s": wall_s, "latencies_s": latencies, "outputs": outputs}
        if tracer:
            result["layers"], result["trace_problems"] = tracer.aggregate("workload", wall_s)
            tracer.dump(trace_path, {"workload": spec["workload"], "digest": spec["digest"]})
    result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
