"""Spans around riskroute's public functions, for the traced benchmark run.

``Tracer.install`` replaces each traced function with a wrapper in every
riskroute module that holds it, so calls are recorded wherever the package
looks the function up: ``solve_wardrop`` calling ``shortest_path`` inside
``solvers`` and ``pra_report`` calling it through ``analysis`` both count.
A function the package no longer has is skipped, and its metrics read zero.
Spans stay in memory as (name, start, end, parent, case) rows until
``write`` saves them. Untraced runs never call ``install``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable

#: (module, function) pairs wrapped in traced runs.
TRACED = (
    ("instances", "make"),
    ("instances", "write_instance"),
    ("instances", "read_instance"),
    ("network", "validate_instance"),
    ("network", "enumerate_simple_paths"),
    ("solvers", "solve_wardrop"),
    ("solvers", "solve_rawe_meanstdev"),
    ("solvers", "shortest_path"),
    ("alternating", "classify_edges"),
    ("alternating", "find_alternating_path"),
    ("analysis", "pra_report"),
    ("analysis", "max_shortest_path_oracle"),
)


def _count_result(name: str, result, counts: dict[str, float]) -> None:
    """Counters read off a traced function's return value."""
    if name in ("solvers.solve_wardrop", "solvers.solve_rawe_meanstdev"):
        counts[name + ".iterations"] += result.iterations
        if not result.converged:
            counts["solvers.unconverged"] += 1
    elif name == "network.enumerate_simple_paths":
        counts["network.paths_enumerated"] += len(result)
    elif name == "analysis.pra_report":
        counts["analysis.pra_report.checks_evaluated"] += sum(
            1 for c in result.checks if not c.skipped
        )
    elif name == "analysis.max_shortest_path_oracle":
        counts[name + ".points"] += result.points


class Tracer:
    def __init__(self) -> None:
        # rows of [name, start, end, parent index or -1, case index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        #: true while open or close runs, so a signal handler can keep out
        self.busy = False
        self._restore: list[tuple[object, str, Callable]] = []

    def open(self, name: str, case: int = -1) -> int:
        """Start a span under the innermost open one; a span outside any case
        span inherits its parent's case."""
        self.busy = True
        parent = self._stack[-1] if self._stack else -1
        if case < 0 and parent >= 0:
            case = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), 0.0, parent, case])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.busy = False
        return index

    def close(self, index: int) -> None:
        self.busy = True
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self.busy = False

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            _count_result(name, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "riskroute") -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, func_name in TRACED:
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans nest strictly (one thread), so the children cover disjoint parts
        of their parent and the self times of a root's subtree add up to the
        root's duration.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def busy_by_name(self) -> tuple[dict[str, float], dict[str, int]]:
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            busy[span[0]] += own
            calls[span[0]] += 1
        return busy, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"columns": ["name", "start", "end", "parent", "case"],\n')
            out.write(' "spans": [\n')
            out.write(",\n".join(json.dumps(row) for row in self.spans))
            out.write("\n]}\n")
