"""Spans around lossfit's public functions, recorded from outside the package.

``Tracer.installed`` replaces each named function, in every loaded
``lossfit`` module that holds a reference to it, by a wrapper that records
a span (name, start, end, parent).  Calls are therefore caught at the
module boundary where they are made, including calls between lossfit's
own modules, and nothing in the package is edited.  Spans stay in memory
until ``layer_totals`` folds them into self times and call counts.

Run as a script, ``python3 bench/tracing.py SPANS.json ARGS...`` runs one
``lossfit`` command through ``lossfit.cli.main`` with spans recorded and
writes them to ``SPANS.json``, so that a fresh CLI process can be traced.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: Public functions wrapped in a traced run, as ``module.function`` under lossfit.
TRACED = (
    "simulation.generate_sample",
    "simulation.run_study",
    "mle.fit_mle_y",
    "mle.fit_mle_z",
    "mtm.fit_mtm_y",
    "mtm.fit_mtm_y_plugin",
    "mtm.fit_mtm_z",
    "mtm.cov_mtm_y",
    "mtm.cov_mtm_z",
    "efficiency.are_table",
    "efficiency.finite_re",
    "payments.transform_to_normal",
    "gof.ks_statistic",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.iterations: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        iterations = self.iterations[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            count = getattr(result, "iterations", None)
            if count is not None:
                iterations.append(count)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, names=TRACED):
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "lossfit" or key.startswith("lossfit.")]
        try:
            for qualname in names:
                module_name, func = qualname.rsplit(".", 1)
                original = getattr(importlib.import_module(f"lossfit.{module_name}"), func)
                wrapper = self.wrap(qualname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def absorb(self, path: str) -> None:
        """Add the spans another process wrote to ``path`` (see the module doc)."""
        with open(path, encoding="utf-8") as fobj:
            record = json.load(fobj)
        offset = len(self.spans)
        outer = self._stack[-1] if self._stack else -1
        for name, start, end, parent in record["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else outer])
        for name, counts in record["iterations"].items():
            self.iterations[name].extend(counts)

    def _child_ns(self) -> list[int]:
        """Per span, the total duration of its direct children.

        Calls are single-threaded, so the children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return child_ns

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """Self time (duration minus children) in ns and call count per span name."""
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for (name, start, end, _), child in zip(self.spans, self._child_ns()):
            totals[name][0] += end - start - child
            totals[name][1] += 1
        return {name: (v[0], v[1]) for name, v in totals.items()}

    def coverage(self) -> tuple[int, int]:
        """Total ns of top-level spans, and the part their children cover."""
        top = [(end - start, child) for (_, start, end, parent), child
               in zip(self.spans, self._child_ns()) if parent < 0]
        return sum(ns for ns, _ in top), sum(child for _, child in top)


def span_cost_ns(calls: int = 20000) -> float:
    """Cost of recording one span, measured on a wrapped no-op (best of 5)."""
    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter_ns() - start - bare) / calls)
    return max(best, 0.0)


if __name__ == "__main__":
    from lossfit import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump({"spans": tracer.spans, "iterations": tracer.iterations}, out)
    sys.exit(code)
