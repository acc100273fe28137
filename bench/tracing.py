"""In-process tracing of the rdfpg layers, done from outside the package.

`Tracer.install()` replaces each traced function at every place callers
look it up: the defining module's global and every `from ... import` copy in
the other rdfpg modules (so `validate_rdf` is wrapped both in `rdfpg.cli`
and in `rdfpg.schema_dependent`), and methods on their class. Nothing under
src/ is edited; `uninstall()` puts the originals back.

A span is (name, start, end, parent, run id); spans stay in memory and are
written out once, at the end. Self time is a span's duration minus the part
covered by its child spans. Hot methods (`PropertyGraph.properties_of`) and
`generic_schema` are counted only, without a span, to keep the overhead low.

`memory_pass` runs commands with `tracemalloc` on and records the peak of
each top-level stage the CLI calls; it is kept apart from the timed and
traced runs because tracemalloc distorts timings.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# Module-level functions that get a span, by rdfpg module.
SPANNED = {
    "turtle": ("parse_turtle", "parse_turtle_raw", "skolemize", "serialize_turtle"),
    "rdf_graph": ("build_rdf_graph", "build_rdf_schema", "complete_partial_schema",
                  "validate_rdf", "rdf_graph_to_triples", "rdf_schema_to_triples", "rdf_equal"),
    "schema_dependent": ("map_schema", "map_graph", "map_database",
                         "invert_schema", "invert_graph", "invert_database"),
    "schema_independent": ("map_graph", "map_database", "invert_graph"),
    "pg_graph": ("validate_pg",),
    "pg_json": ("serialize_pg", "serialize_pg_schema", "parse_pg", "parse_pg_schema"),
    "generator": ("gen_rdf_database", "gen_rdf_graph",
                  "gen_schema_triples", "gen_instance_triples"),
    "cli": ("main", "run_roundtrip"),
}
# Methods that get a span: (module, class, method, span name).
SPANNED_METHODS = (
    ("terms", "TripleSet", "__iter__", "terms.tripleset_iter"),
    ("pg_graph", "PropertyGraph", "nodes_sorted", "pg_graph.nodes_sorted"),
    ("pg_graph", "PropertyGraph", "edges_sorted", "pg_graph.edges_sorted"),
)
# Counted without a span.
COUNTED = {"schema_independent": ("generic_schema",)}
COUNTED_METHODS = (("pg_graph", "PropertyGraph", "properties_of", "pg_graph.properties_of"),)

# Per-layer self-time metrics: metric -> spans whose self time it sums.
SELF_TIME = {
    "turtle.parse_turtle_s": ("turtle.parse_turtle", "turtle.parse_turtle_raw", "turtle.skolemize"),
    "turtle.serialize_turtle_s": ("turtle.serialize_turtle",),
    "terms.tripleset_iter_s": ("terms.tripleset_iter",),
    "rdf_graph.build_rdf_graph_s": ("rdf_graph.build_rdf_graph",),
    "rdf_graph.build_rdf_schema_s": ("rdf_graph.build_rdf_schema",
                                     "rdf_graph.complete_partial_schema"),
    "rdf_graph.validate_rdf_s": ("rdf_graph.validate_rdf",),
    "rdf_graph.rdf_graph_to_triples_s": ("rdf_graph.rdf_graph_to_triples",
                                         "rdf_graph.rdf_schema_to_triples"),
    "rdf_graph.rdf_equal_s": ("rdf_graph.rdf_equal",),
    "schema_dependent.map_database_s": ("schema_dependent.map_database",
                                        "schema_dependent.map_schema",
                                        "schema_dependent.map_graph"),
    "schema_dependent.invert_database_s": ("schema_dependent.invert_database",
                                           "schema_dependent.invert_schema",
                                           "schema_dependent.invert_graph"),
    "schema_independent.map_database_s": ("schema_independent.map_database",
                                          "schema_independent.map_graph"),
    "schema_independent.invert_graph_s": ("schema_independent.invert_graph",),
    "pg_graph.validate_pg_s": ("pg_graph.validate_pg",),
    "pg_graph.sorted_s": ("pg_graph.nodes_sorted", "pg_graph.edges_sorted"),
    "pg_json.serialize_pg_s": ("pg_json.serialize_pg", "pg_json.serialize_pg_schema"),
    "pg_json.parse_pg_s": ("pg_json.parse_pg", "pg_json.parse_pg_schema"),
    "generator.gen_s": ("generator.gen_rdf_database", "generator.gen_rdf_graph",
                        "generator.gen_schema_triples", "generator.gen_instance_triples"),
    "cli.main_s": ("cli.main",),
    "cli.run_roundtrip_s": ("cli.run_roundtrip",),
}
# Per-layer call counts: metric -> span or counter name.
CALLS = {
    "terms.tripleset_iter_calls": "terms.tripleset_iter",
    "rdf_graph.validate_rdf_calls": "rdf_graph.validate_rdf",
    "schema_independent.generic_schema_calls": "schema_independent.generic_schema",
    "pg_graph.validate_pg_calls": "pg_graph.validate_pg",
    "pg_graph.nodes_sorted_calls": "pg_graph.nodes_sorted",
    "pg_graph.edges_sorted_calls": "pg_graph.edges_sorted",
    "pg_graph.properties_of_calls": "pg_graph.properties_of",
}

# Top-level stages of the memory pass: (module, attribute, stage). The CLI
# looks these up in its own globals or as attributes of the route modules.
STAGES = (
    ("cli", "parse_turtle", "parse_turtle"),
    ("cli", "build_rdf_graph", "build_rdf_graph"),
    ("schema_dependent", "map_database", "map_database"),
    ("schema_independent", "map_database", "map_database"),
    ("cli", "serialize_pg", "serialize_pg"),
    ("cli", "parse_pg", "parse_pg"),
    ("schema_dependent", "invert_database", "invert"),
    ("schema_independent", "invert_graph", "invert"),
    ("cli", "serialize_turtle", "serialize_turtle"),
)


def _module(name: str):
    return importlib.import_module(f"rdfpg.{name}")


class _Patches:
    """Replacements made on modules and classes, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Replace `original` wherever a loaded rdfpg module holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "rdfpg" or name.startswith("rdfpg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.run_id = 0
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, functions in table.items():
                module = _module(module_name)
                for fn_name in functions:
                    original = getattr(module, fn_name, None)
                    if original is None:
                        self.missing.append(f"{module_name}.{fn_name}")
                        continue
                    self._patches.everywhere(original, make(f"{module_name}.{fn_name}", original))
        for methods, make in ((SPANNED_METHODS, self._spanned), (COUNTED_METHODS, self._counted)):
            for module_name, class_name, method, name in methods:
                cls = getattr(_module(module_name), class_name)
                original = cls.__dict__.get(method)
                if original is None:
                    self.missing.append(name)
                    continue
                self._patches.set(cls, method, make(name, original))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results ----------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self, run_ids=None) -> dict[str, float]:
        """Self time by span name, over the spans of `run_ids` (all if None)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is None or (run_ids is not None and span[4] not in run_ids):
                continue
            name, start, end, _, _ = span
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        metrics = {m: sum(own.get(s, 0.0) for s in spans) for m, spans in SELF_TIME.items()}
        metrics.update({m: self.counts[c] for m, c in CALLS.items()})
        return metrics

    def dump(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "run": s[4]}
            for s in self.spans if s is not None
        ]


def memory_pass(run) -> dict[str, float]:
    """Peak traced memory in MB of each top-level stage while `run()` executes.

    The peak is the highest tracemalloc total while the stage runs, so it
    includes what earlier stages left alive, as the process's RSS does.
    """
    peaks: dict[str, float] = defaultdict(float)
    patches = _Patches()

    def staged(stage, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                peaks[stage] = max(peaks[stage], peak)

        return wrapper

    for module_name, attr, stage in STAGES:
        module = _module(module_name)
        original = getattr(module, attr, None)
        if original is not None:
            patches.set(module, attr, staged(stage, original))
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        patches.undo()
    return dict(peaks)
