"""minclique benchmark: one workload, one seed, one JSON verdict.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Closed loop, one operation at a time: every repetition of the workload runs
in a fresh interpreter (worker.py), as a command-line user gets it, and the
next starts only when the previous one has exited.  First, one discarded
process byte-compiles the package; then SETUP_PROBES processes measure
set-up alone; then whole repetitions run until the next, taken as long as
the longest so far, would end after `--seconds`, with at least one.  Every
answer is checked against references.py outside the timed region.

With --trace 0 the last stdout line carries the end-to-end metrics (medians
over repetitions; operation latencies pooled over them).  With --trace 1 the
same untraced repetitions are followed by one traced and one more untraced
repetition, and the last line carries the per-layer metrics of tracing.py
plus trace.overhead: the traced wall time over the mean of the untraced
repetitions either side of it, minus one.  The lines before
it repeat every metric by name and unit with the error rate and the input
digest; a record of the run and, when traced, its spans go to .bench_out/.

Exits 2 without a result when the package source is not next to this
directory, and 1 when a repetition crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import references
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = tracing.METRICS | {"trace.overhead": "ratio"}


class RunError(Exception):
    pass


def _worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py"))],
            input=json.dumps(spec), capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{spec['workload']} repetition overran the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


class Checker:
    """Checks every operation of a repetition; verdicts are cached by
    operation and output, so repetitions that repeat an answer cost
    nothing more."""

    def __init__(self, spec: dict, refs: references.References):
        self.spec = spec
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[str, list[str]] = {}

    def _op(self, label: str, output: dict, check) -> None:
        key = json.dumps([label, output], sort_keys=True)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = [output["error"]] if "error" in output else check()
            except Exception as exc:  # a malformed answer fails its operation, not the run
                self._verdicts[key] = [f"malformed output: {type(exc).__name__}: {exc}"]
        problems = self._verdicts[key]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def repetition(self, outputs: dict) -> None:
        spec, refs = self.spec, self.refs
        workload = spec["workload"]
        if workload == "census":
            out = outputs["report"]
            nmax = int(spec["argv"][-1])
            self._op("census", out, lambda: references.check_census(nmax, out["code"], out["stdout"], refs))
        elif workload == "witness_sweep":
            out = outputs["theorem2"]
            kmax = int(spec["theorem2_argv"][-1])
            self._op("theorem2", out, lambda: references.check_theorem2(kmax, out["code"], out["stdout"], refs))
            for (n, k), out in zip(spec["pairs"], outputs["witnesses"], strict=True):
                self._op(f"witness {n} {k}", out,
                         lambda: references.check_witness(n, k, out["code"], out["stdout"], refs))
            out = outputs["catalog"]
            self._op("catalog", out, lambda: references.check_catalog(out["code"], out["stdout"], refs))
        else:
            for text, out in zip(spec["graph6"], outputs["graphs"], strict=True):
                self._op(f"invariants {text}", out, lambda: references.check_invariants(text, out))


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool = False,
        refs: references.References = references.DEFAULT) -> dict:
    """Measure and check one workload; returns the run record."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    spec = workloads.make_spec(workload, seed, smoke)
    digest = workloads.digest(spec)
    spec["digest"] = digest

    _worker({"workload": "setup"}, deadline)  # byte-compiles the package
    measure_start = time.monotonic()
    setups = [_worker({"workload": "setup"}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    longest = 0.0
    while True:
        rep_start = time.monotonic()
        reps.append(_worker(spec, deadline))
        now = time.monotonic()
        longest = max(longest, now - rep_start)
        if now - measure_start + longest > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    latencies_ms = [t * 1000 for r in reps for t in r["latencies_s"]]
    walls = [r["wall_s"] for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": _p90(latencies_ms),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    units = E2E_UNITS

    checker = Checker(spec, refs)
    for r in reps:
        checker.repetition(r["outputs"])
    trace_problems: list[str] = []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.jsonl"
        traced = _worker({**spec, "trace_path": str(spans_path)}, deadline)
        # The host's speed drifts over minutes, so the overhead is taken
        # against the untraced repetitions just before and just after.
        after = _worker(spec, deadline)
        for r in (traced, after):
            checker.repetition(r["outputs"])
        trace_problems = traced["trace_problems"]
        untraced_s = (reps[-1]["wall_s"] + after["wall_s"]) / 2
        metrics = traced["layers"] | {"trace.overhead": traced["wall_s"] / untraced_s - 1}
        units = LAYER_UNITS

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "digest": digest, "repetitions": len(reps), "setup_samples_s": setups,
        "wall_samples_s": walls, "operations_per_repetition": len(reps[0]["latencies_s"]),
        "correct": checker.failed == 0 and not trace_problems,
        "attempted": checker.attempted, "failed": checker.failed,
        "problems": checker.problems[:50] + trace_problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "elapsed_s": time.monotonic() - started,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "minclique" / "__init__.py").is_file():
        print(f"error: no minclique package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in record["problems"][:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"workload {record['workload']}  seed {record['seed']}  inputs sha256:{record['digest']}  "
          f"repetitions {record['repetitions']} x {record['operations_per_repetition']} operations  "
          f"setup samples {len(record['setup_samples_s'])}")
    for name, metric in record["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':44s} {record['failed'] / record['attempted']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
