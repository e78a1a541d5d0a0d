"""Spans at the package's layer boundaries, recorded from outside it.

`install` replaces module attributes (and one catalog method) with
wrappers that record a span per call: name, start, end, parent span and
run id ("setup" or "workload").  Names bound by `from ... import` are
replaced in the importing module too, so that calls between layers nest
as parent and child.  Generators are forced to completion inside their
span, so enumeration time is not charged to whoever consumes it.  Spans
stay in memory until `dump`.

A layer's self time is its span durations minus the time covered by its
child spans; `aggregate` turns the spans of one run into the per-layer
metrics the benchmark reports.  Functions a later version of the package
no longer has are skipped, and their metrics read zero.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module name, attribute, span name)
_TARGETS = (
    ("solvers", "clique_number", "solvers.clique_number"),
    ("solvers", "independence_number", "solvers.independence_number"),
    ("solvers", "max_clique", "solvers.max_clique"),
    ("solvers", "chromatic_number", "solvers.chromatic_number"),
    ("matching", "matching_number", "matching.matching_number"),
    ("matching", "max_matching", "matching.max_matching"),
    ("matching", "edmonds_gallai", "matching.edmonds_gallai"),
    ("matching", "verify_complement_partition", "matching.verify_complement_partition"),
    ("qfunction", "q", "qfunction.q"),
    ("qfunction", "q_bounded_s", "qfunction.q_bounded_s"),
    ("oracle", "q", "qfunction.q"),
    ("constructions", "q", "qfunction.q"),
    ("oracle", "level_stats", "oracle.level_stats"),
    ("constructions", "delete_edges_until_chi", "constructions.delete_edges_until_chi"),
    ("ramsey", "default_catalog", "ramsey.default_catalog"),
    ("constructions", "default_catalog", "ramsey.default_catalog"),
    ("cli", "default_catalog", "ramsey.default_catalog"),
    ("graphs", "parse_graph6", "graphs.parse_graph6"),
    ("cli", "parse_graph6", "graphs.parse_graph6"),
    ("graphs", "serialize_graph6", "graphs.serialize_graph6"),
    ("cli", "serialize_graph6", "graphs.serialize_graph6"),
    ("cli", "main", "cli.main"),
)

_COUNTED = (
    "solvers.chromatic_number", "solvers.clique_number", "solvers.independence_number",
    "solvers.max_clique", "matching.matching_number", "matching.max_matching",
    "matching.edmonds_gallai", "matching.verify_complement_partition",
    "ramsey.witness_alpha2", "qfunction.q", "qfunction.q_bounded_s",
    "constructions.build_extremal", "constructions.delete_edges_until_chi",
    "graphs.parse_graph6", "graphs.serialize_graph6", "cli.main",
    "oracle.enumerate", "oracle.level_stats",
)
_TIMED = _COUNTED + ("oracle.level8",)

# Every per-layer metric a traced run reports, with its unit.
METRICS = (
    {f"{name}.calls": "count" for name in _COUNTED}
    | {f"{name}.self_s": "s" for name in _TIMED}
    | {
        "oracle.levels1to7.self_s": "s",
        "oracle.classes": "count",
        "ramsey.catalog_init_s": "s",
        "constructions.chi_in_build_s": "s",
        "constructions.chi_calls_per_build": "ratio",
        "constructions.deleted_edges": "count",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.remainder_s": "s",
    }
)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.run = "setup"
        self.classes: dict[int, int] = {}  # vertex count -> classes enumerated
        self.deleted_edges = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run]
        spans.append(span)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        import importlib

        mods = {
            name: importlib.import_module(f"minclique.{name}")
            for name in ("cli", "constructions", "graphs", "matching", "oracle",
                         "qfunction", "ramsey", "solvers")
        }
        for mod, attr, name in _TARGETS:
            fn = getattr(mods[mod], attr, None)
            if fn is not None:
                setattr(mods[mod], attr, self.wrap(fn, name))

        catalog_cls = mods["ramsey"].WitnessCatalog
        catalog_cls.witness_alpha2 = self.wrap(catalog_cls.witness_alpha2, "ramsey.witness_alpha2")

        oracle = mods["oracle"]
        enumerate_graphs, count_graphs = oracle.enumerate_graphs, oracle.count_graphs

        def forced(n: int) -> list:
            graphs = list(enumerate_graphs(n))
            self.classes[n] = len(graphs)
            return graphs

        def counted(n: int) -> int:
            self.classes[n] = count_graphs(n)
            return self.classes[n]

        oracle.enumerate_graphs = lambda n: iter(self.call("oracle.enumerate", forced, n))
        oracle.count_graphs = lambda n: self.call("oracle.enumerate", counted, n)

        levels = getattr(oracle, "_levels", None)
        ensure_level = getattr(oracle, "_ensure_level", None)
        if levels is not None and ensure_level is not None:
            def ensure_level_traced(n: int) -> None:
                # one span per level actually built
                for m in range(len(levels), n + 1):
                    self.call(f"oracle.level{m}", ensure_level, m)

            oracle._ensure_level = ensure_level_traced

        build = mods["constructions"].build_extremal

        def build_counted(*args, **kwargs):
            witness = build(*args, **kwargs)
            self.deleted_edges += len(getattr(witness, "deleted_edges", ()))
            return witness

        mods["constructions"].build_extremal = self.wrap(build_counted, "constructions.build_extremal")

    def dump(self, path: str, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "run": run}) + "\n")

    def aggregate(self, run: str, wall_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics over the spans of one run id, and the problems
        found checking that the spans nest (self times must add up to the
        time covered by root spans, which must fit in the wall time)."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_build = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_build[i] = in_build[parent] or spans[parent][0] == "constructions.build_extremal"
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        roots_s = chi_in_build_s = 0.0
        chi_in_build = count = 0
        for i, (name, start, end, parent, span_run) in enumerate(spans):
            if span_run != run:
                continue
            count += 1
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if parent < 0:
                roots_s += end - start
            if name == "solvers.chromatic_number" and in_build[i]:
                chi_in_build += 1
                chi_in_build_s += end - start
        self_sum = sum(self_s.values())
        problems = []
        if abs(self_sum - roots_s) > 1e-6 * max(1.0, roots_s):
            problems.append(f"spans do not nest: self times {self_sum} s, root spans {roots_s} s")
        if roots_s > wall_s:
            problems.append(f"root spans cover {roots_s} s of a {wall_s} s run")
        builds = calls["constructions.build_extremal"]
        metrics: dict[str, float] = {f"{name}.calls": calls[name] for name in _COUNTED}
        metrics |= {f"{name}.self_s": self_s[name] for name in _TIMED}
        catalog_init = [end - start for name, start, end, _, r in spans
                        if name == "ramsey.default_catalog" and r == "setup"]
        metrics |= {
            "oracle.levels1to7.self_s": sum(self_s[f"oracle.level{m}"] for m in range(1, 8)),
            "oracle.classes": sum(self.classes.values()),
            "ramsey.catalog_init_s": catalog_init[0] if catalog_init else 0.0,
            "constructions.chi_in_build_s": chi_in_build_s,
            "constructions.chi_calls_per_build": chi_in_build / builds if builds else 0.0,
            "constructions.deleted_edges": self.deleted_edges,
            "trace.spans": count,
            "trace.wall_s": wall_s,
            "trace.self_sum_s": self_sum,
            "trace.remainder_s": wall_s - self_sum,
        }
        return metrics, problems
