"""Span tracing of earlab's public functions, installed from outside src/.

Tracer.install() replaces each traced function wherever callers look it up:
on every earlab module global bound to it (so validate_decomposition as
imported into constructions, coloring, kernels and oriented is traced too)
and, for methods, on the class.  Tracer.uninstall() puts the originals back.
Spans stay in memory as [name, start, end, parent index, op id] and are
written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

SETUP = -1     # op id of spans recorded while inputs are generated
WARMUP = -2    # op id of spans recorded during warm-up calls

# (metric prefix, module, attribute); "Class.method" wraps a method, and
# "Digraph.__init__" stands for the constructor.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.load_digraph", "cli", "load_digraph"),
    ("cli.load_decomposition", "cli", "load_decomposition"),
    ("digraph.Digraph", "digraph", "Digraph.__init__"),
    ("digraph.is_strong", "digraph", "is_strong"),
    ("digraph.set_predicates", "digraph", "set_predicates"),
    ("ears.validate_decomposition", "ears", "validate_decomposition"),
    ("ears.EarDecomposition.stage", "ears", "EarDecomposition.stage"),
    ("ears.find_ear_decomposition", "ears", "find_ear_decomposition"),
    ("ears.find_le_decomposition", "ears", "find_le_decomposition"),
    ("ears.generate_random_le", "ears", "generate_random_le"),
    ("constructions.seymour_vertex", "constructions", "seymour_vertex"),
    ("constructions.small_quasi_kernel", "constructions", "small_quasi_kernel"),
    ("constructions.longest_path_transversal", "constructions",
     "longest_path_transversal"),
    ("kernels.trace_kernels", "kernels", "trace_kernels"),
    ("coloring.proper_3_coloring", "coloring", "proper_3_coloring"),
    ("coloring.dichromatic_bounds", "coloring", "dichromatic_bounds"),
    ("coloring.verify_homomorphism", "coloring", "verify_homomorphism"),
    ("coloring.verify_proper", "coloring", "verify_proper"),
    ("oriented.oriented_coloring_le3", "oriented", "oriented_coloring_le3"),
    ("oriented.extend_homomorphism", "oriented", "extend_homomorphism"),
    ("oriented.uniqueness_census", "oriented", "uniqueness_census"),
    ("tournaments.find_homomorphism", "tournaments", "find_homomorphism"),
    ("tournaments.tournament_reps", "tournaments", "tournament_reps"),
    ("oracles.kernel_oracle", "oracles", "kernel_oracle"),
    ("oracles.quasi_kernel_oracle", "oracles", "quasi_kernel_oracle"),
    ("oracles.chromatic_oracles", "oracles", "chromatic_oracles"),
    ("oracles.oriented_chromatic_oracle", "oracles", "oriented_chromatic_oracle"),
    ("oracles.longest_path_oracle", "oracles", "longest_path_oracle"),
)
# Spans of these count while inputs are generated; all others only in ops.
SETUP_TARGETS = frozenset({"ears.generate_random_le"})
SEARCH_COUNTS = tuple(f"ears.find_le_decomposition.{k}"
                      for k in ("found", "none", "budget_stops"))
ORACLE_COUNTS = tuple(f"{name}.search_space" for name, module, _ in TARGETS
                      if module == "oracles")


def metric_names() -> list[str]:
    names = [f"{name}.{part}" for name, _, _ in TARGETS
             for part in ("calls", "ms", "self_ms")]
    return names + list(SEARCH_COUNTS) + list(ORACLE_COUNTS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(SEARCH_COUNTS + ORACLE_COUNTS, 0)
        self.op = SETUP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: int = 1) -> None:
        if self.op >= 0:
            self.counts[key] += amount

    def _hooks(self, name: str, errors):
        if name == "ears.find_le_decomposition":
            def on_result(result):
                self._count(SEARCH_COUNTS[0] if result is not None else SEARCH_COUNTS[1])

            def on_error(exc):
                if isinstance(exc, errors.BudgetExceededError):
                    self._count(SEARCH_COUNTS[2])
            return on_result, on_error
        if name.startswith("oracles."):
            return (lambda report: self._count(f"{name}.search_space",
                                               report.search_space_size)), None
        return None, None

    def _wrap(self, name: str, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            span[2] = perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the currently imported earlab modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "earlab" or n.startswith("earlab.")]
        errors = sys.modules["earlab.errors"]
        for name, module_name, attr in TARGETS:
            module = sys.modules[f"earlab.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapper = self._wrap(name, original, *self._hooks(name, errors))
                self._patch(owner, method, original, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, *self._hooks(name, errors))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """calls, ms and self_ms per target over the measured ops (over
        input generation for SETUP_TARGETS), plus the search counters.
        Self time is a span's duration minus the time its child spans
        cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op >= 0 or (op == SETUP and name in SETUP_TARGETS):
                row = totals[name]
                row[0] += 1
                row[1] += (end - start) * 1000
                row[2] += (end - start - child[index]) * 1000
        metrics: dict[str, float] = {}
        for name, (calls, ms, self_ms) in totals.items():
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.ms"] = ms
            metrics[f"{name}.self_ms"] = self_ms
        metrics.update(self.counts)
        return metrics

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: the header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
