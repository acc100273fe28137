"""The benchmark's tracer finds every rdfpg name it wraps.

`bench/tracing.py` wraps rdfpg functions and methods by name. A traced name
that rdfpg no longer has is skipped, and a traced benchmark run then only
prints a "trace: not found" line, so this test names it instead. The test
loads the tracer from its file and edits nothing under bench/.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import rdfpg.cli
from rdfpg.pg_graph import PropertyGraph

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def test_the_benchmark_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    main, nodes_sorted = rdfpg.cli.main, PropertyGraph.nodes_sorted
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert rdfpg.cli.main is not main
    finally:
        tracer.uninstall()
    assert rdfpg.cli.main is main
    assert PropertyGraph.nodes_sorted is nodes_sorted
