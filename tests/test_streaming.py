"""The writers stream: into a text stream they write exactly what they return.

`serialize_pg` and `serialize_turtle` take an optional text stream. Written
to one, the document goes out piece by piece and is never held whole;
without one, it is returned as a string. Both forms must give the same
text, and the streamed form must not hold the document in memory.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from conftest import DATA_DIR, build_company_pg

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.generator import GeneratorConfig, gen_property_graph, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_graph import INTEGER, STRING, Edge, Node, PgValue, canonical_graph
from rdfpg.pg_json import serialize_pg
from rdfpg.rdf_graph import (
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_graph_to_triples,
    rdf_schema_to_triples,
)
from rdfpg.terms import Iri, Literal, Triple, TripleSet
from rdfpg.turtle import parse_turtle, serialize_turtle


def _streamed(serialize, value) -> str:
    buffer = io.StringIO()
    assert serialize(value, buffer) is None
    return buffer.getvalue()


def _org_database():
    schema = build_rdf_schema(
        complete_partial_schema(parse_turtle((DATA_DIR / "org-schema.ttl").read_text()))
    )
    graph = build_rdf_graph(parse_turtle((DATA_DIR / "org-instance.ttl").read_text()))
    return schema, graph


def _property_graphs():
    schema, graph = _org_database()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield dep.map_database(schema, graph)[1]
    yield indep.map_graph(graph)
    yield build_company_pg()
    yield canonical_graph([], [])
    for seed in range(20):
        yield gen_property_graph(GeneratorConfig(seed=seed))
        yield indep.map_graph(gen_rdf_graph(GeneratorConfig(seed=seed)))


def _triple_sets():
    schema, graph = _org_database()
    yield rdf_graph_to_triples(graph)
    yield rdf_schema_to_triples(schema)
    yield parse_turtle((DATA_DIR / "org-instance.ttl").read_text())
    yield TripleSet()
    for seed in range(20):
        yield rdf_graph_to_triples(gen_rdf_graph(GeneratorConfig(seed=seed)))
        generated_schema, generated_graph = gen_rdf_database(GeneratorConfig(seed=seed))
        yield rdf_graph_to_triples(generated_graph)
        yield rdf_schema_to_triples(generated_schema)


def test_serialize_pg_streams_what_it_returns():
    for i, graph in enumerate(_property_graphs()):
        assert _streamed(serialize_pg, graph) == serialize_pg(graph), i


def test_serialize_turtle_streams_what_it_returns():
    for i, triples in enumerate(_triple_sets()):
        assert _streamed(serialize_turtle, triples) == serialize_turtle(triples), i


def test_empty_documents_stream_unchanged():
    empty_pg = '{\n  "edges": [],\n  "nodes": []\n}\n'
    assert _streamed(serialize_pg, canonical_graph([], [])) == empty_pg
    assert _streamed(serialize_turtle, TripleSet()) == ""


class _CountingSink:
    """A text stream that keeps nothing but the number of characters written."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def _large_graph():
    """3,000 nodes in a chain, each with two properties; the edges carry one."""
    nodes = [
        Node("http://example.org/voc/Thing", (
            ("http://example.org/voc/rank", PgValue(str(i), INTEGER)),
            ("iri", PgValue(f"http://example.org/data/thing{i}", STRING)),
        ))
        for i in range(3000)
    ]
    weight = (("weight", PgValue("1", INTEGER)),)
    edges = [Edge("http://example.org/voc/next", i, i + 1, weight) for i in range(2999)]
    return canonical_graph(nodes, edges)


def test_streaming_does_not_hold_the_document():
    graph = _large_graph()
    sink = _CountingSink()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        serialize_pg(graph, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == len(serialize_pg(graph)) > 1_000_000
    assert peak < sink.chars / 4, (peak, sink.chars)


def _long_literal_triples():
    """100 subjects, each with one 10,000-character literal: about 1 M characters of Turtle."""
    name = Iri("http://example.org/voc/name")
    return TripleSet(
        Triple(Iri(f"http://example.org/data/thing{i}"), name, Literal.plain(f"{i:05d}" * 2000))
        for i in range(100)
    )


def test_serialize_turtle_does_not_hold_the_document():
    triples = _long_literal_triples()
    sink = _CountingSink()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        serialize_turtle(triples, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == len(serialize_turtle(triples)) > 1_000_000
    assert peak < sink.chars / 4, (peak, sink.chars)


def test_cli_import_loads_neither_generator_nor_cypher():
    script = (
        "import sys\n"
        "import rdfpg.cli\n"
        "print(sorted(m for m in ('rdfpg.generator', 'rdfpg.cypher') if m in sys.modules))\n"
        "from rdfpg import export_import_script, gen_rdf_graph\n"
        "print(gen_rdf_graph.__module__, export_import_script.__module__)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True
    )
    assert result.stdout.splitlines() == ["[]", "rdfpg.generator rdfpg.cypher", "False"]


def test_package_exports_every_listed_name():
    import rdfpg

    namespace: dict = {}
    exec("from rdfpg import *", namespace)
    assert set(rdfpg.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no attribute 'gen_nothing'"):
        rdfpg.gen_nothing  # noqa: B018
