"""Self-test of the benchmark harness at smoke size (census to 6 vertices,
witnesses for k <= 2 up to 12 vertices, three small graphs).

    python3 perfbench/selftest.py

Checks that:

1. for every workload, the command's last line carries every metric that
   BENCHMARK.json declares (end-to-end with --trace 0, per-layer with
   --trace 1) with its declared unit, with no failed operation, and that
   the lines before it name every metric and the error rate;
2. a deliberately wrong reference (a class count, a q value, the catalog
   size) makes operations fail, so the error rate rises above 0;
3. the hard-coded q row agrees with a brute force over partitions;
4. the command exits nonzero without a result where no package is present.

Prints one PASS line per check and exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics_printed(declared: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[section]}
        for workload in workloads.WORKLOADS:
            proc = command(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke")
            expect(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: metrics {got}, declared {want}")
            text = "\n".join(lines[:-1])
            for name in list(want) + ["error_rate"]:
                expect(f" {name} " in text, f"{workload}: {name} not printed by name")
    print("PASS 1: every declared metric is printed by name with its unit, on every workload")


def check_planted_references() -> None:
    planted = {
        "census": dataclasses.replace(references.DEFAULT, class_counts=(1, 1, 2, 4, 11, 34, 157)),
        "witness_sweep": dataclasses.replace(references.DEFAULT, q_row=(0, 1, 2) + references.Q_ROW[3:]),
    }
    for workload, refs in planted.items():
        record = run.run(workload, seed=3, seconds=1, trace=False, smoke=True, refs=refs)
        rate = record["failed"] / record["attempted"]
        expect(rate > 0 and not record["correct"], f"{workload}: planted reference not caught")
    catalog = dataclasses.replace(references.DEFAULT, catalog_witnesses=5)
    expect(references.check_catalog(0, json.dumps({"results": {"witnesses_verified": 4}, "checks": []}),
                                    catalog) != [], "catalog: planted reference not caught")
    wrong = {"n": 5, "omega": 2, "alpha": 2, "nu": 2, "chi": 4,
             "eg": {"d": 5, "a": 0, "c": 0, "d_components": 1, "matching": 2},
             "partition": {"k": 1, "passed": True}}
    expect(references.check_invariants("Dhc", wrong) != [], "invariants: wrong chi of C5 not caught")
    print("PASS 2: planted wrong references raise the error rate above 0")


def check_q_row() -> None:
    brute = tuple(references.brute_q(k) for k in range(len(references.Q_ROW)))
    expect(brute == references.Q_ROW, f"brute force q row {brute} != {references.Q_ROW}")
    print("PASS 3: the published q row matches a brute force over partitions")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = command(bare, "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("PASS 4: without the package the command exits nonzero and prints no result")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_q_row()
        check_planted_references()
        check_metrics_printed(declared)
        check_bare_directory()
    except SelfTestError as exc:
        print(f"FAIL: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
