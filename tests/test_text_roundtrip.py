"""Information preservation through the text the CLI reads and writes.

The roundtrip machine check compares models in memory. These tests take the
route `rdfpg convert` then `rdfpg invert` takes: Turtle text, the RDF graph
it denotes, PG JSON text, the inverse, and Turtle text again, which must
denote the same graph (and, on the dep route, the same schema).

Two sources of input: the generated databases of the machine check, seeds
0-999 of each route, and every set of up to a few triples over a small
universe of terms (bounded-exhaustive testing: a defect that needs only a
few triples shows up here).
"""

from __future__ import annotations

import itertools
import warnings

import pytest

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.errors import RdfPgError, ValidityWarning
from rdfpg.generator import GeneratorConfig, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import (
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_graph_to_triples,
    rdf_schema_to_triples,
)
from rdfpg.terms import (
    COMMON_PREFIXES,
    Iri,
    Literal,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_RESOURCE,
    Triple,
    TripleSet,
    XSD_INTEGER,
    XSD_STRING,
)
from rdfpg.turtle import parse_turtle, serialize_turtle

SEEDS = range(1000)


def _graph_of(text: str):
    return build_rdf_graph(parse_turtle(text))


def _schema_of(text: str):
    return build_rdf_schema(complete_partial_schema(parse_turtle(text)))


def _indep_through_text(graph_text: str):
    """The graph `rdfpg invert --mode indep` writes back from `convert`'s PG text."""
    pg_text = serialize_pg(indep.map_graph(_graph_of(graph_text)))
    return _graph_of(serialize_turtle(rdf_graph_to_triples(indep.invert_graph(parse_pg(pg_text)))))


def _dep_through_text(schema_text: str, graph_text: str):
    """(schema, graph) that `rdfpg invert --mode dep` writes back from `convert`'s PG texts.

    A ValidityWarning, which the CLI reports with exit 1, is raised here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", ValidityWarning)
        pg_schema, pg = dep.map_database(_schema_of(schema_text), _graph_of(graph_text))
        schema, graph = dep.invert_database(
            parse_pg_schema(serialize_pg_schema(pg_schema)), parse_pg(serialize_pg(pg)))
    return (_schema_of(serialize_turtle(rdf_schema_to_triples(schema))),
            _graph_of(serialize_turtle(rdf_graph_to_triples(graph))))


def _without_edgeless_literals(graph):
    return graph._replace(literal_nodes=frozenset(t.o for t in graph.datatype_edges))


def test_generated_indep_graphs_come_back_through_text():
    untextual = 0
    for seed in SEEDS:
        graph = gen_rdf_graph(GeneratorConfig(seed=seed))
        text = serialize_turtle(rdf_graph_to_triples(graph))
        denoted = _graph_of(text)
        # Turtle holds every resource; a literal in no triple it cannot hold.
        assert denoted == _without_edgeless_literals(graph), seed
        untextual += denoted != graph
        assert _indep_through_text(text) == denoted, seed
    print(f"{untextual} of {len(SEEDS)} generated graphs held a literal Turtle cannot carry")
    # The generator draws edgeless literals on purpose; were none drawn, the
    # count above would show nothing about them.
    assert 0 < untextual < len(SEEDS)


def test_generated_dep_databases_come_back_through_text():
    untextual = 0
    for seed in SEEDS:
        schema, graph = gen_rdf_database(GeneratorConfig(seed=seed))
        schema_text = serialize_turtle(rdf_schema_to_triples(schema))
        text = serialize_turtle(rdf_graph_to_triples(graph))
        denoted = _graph_of(text)
        assert _schema_of(schema_text) == schema, seed
        assert denoted == _without_edgeless_literals(graph), seed
        untextual += denoted != graph
        assert _dep_through_text(schema_text, text) == (schema, denoted), seed
    print(f"{untextual} of {len(SEEDS)} generated databases held a literal Turtle cannot carry")


# -- every small set of triples over a small universe ---------------------------

EX = "http://e.x/"
A, B, C, P = (Iri(EX + name) for name in ("a", "b", "C", "p"))
IRI_KEY = Iri("iri")  # spelled as the key of a node's IRI in both PG encodings
X = Literal("x", XSD_STRING)
ONE = Literal("1", XSD_STRING)
INT_ONE, INT_01 = Literal("1", XSD_INTEGER), Literal("01", XSD_INTEGER)
CUSTOM = Literal("1", Iri(EX + "dt"))

UNIVERSE = (
    Triple(A, P, B), Triple(A, P, A), Triple(B, P, A), Triple(C, P, A),
    Triple(A, IRI_KEY, B),
    Triple(A, P, X), Triple(A, P, ONE), Triple(A, P, INT_ONE), Triple(A, P, INT_01),
    Triple(B, P, CUSTOM), Triple(A, IRI_KEY, X),
    Triple(A, RDF_TYPE, C), Triple(B, RDF_TYPE, C), Triple(A, RDF_TYPE, B),
    Triple(B, RDF_TYPE, RDFS_RESOURCE), Triple(C, RDF_TYPE, RDFS_RESOURCE),
    Triple(A, RDF_TYPE, P),
)
MAX_TRIPLES = 4

SCHEMAS = {
    # Completion gives p the domain and range rdfs:Resource.
    "completing": [Triple(P, RDF_TYPE, RDF_PROPERTY)],
    "class-range": [Triple(C, RDF_TYPE, RDFS_CLASS), Triple(P, RDFS_DOMAIN, C),
                    Triple(P, RDFS_RANGE, C)],
    "string-range": [Triple(P, RDFS_DOMAIN, C), Triple(P, RDFS_RANGE, XSD_STRING)],
}


def _small_sets():
    for size in range(MAX_TRIPLES + 1):
        for triples in itertools.combinations(UNIVERSE, size):
            yield serialize_turtle(TripleSet(triples, COMMON_PREFIXES))


def test_every_small_indep_graph_comes_back_through_text():
    accepted = refused = 0
    for text in _small_sets():
        try:
            denoted = _graph_of(text)
            back = _indep_through_text(text)
        except RdfPgError:
            refused += 1
            continue
        accepted += 1
        assert back == denoted, text
    assert accepted > 0 and refused > 0


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_small_dep_database_comes_back_through_text(name):
    schema_text = serialize_turtle(TripleSet(SCHEMAS[name], COMMON_PREFIXES))
    schema = _schema_of(schema_text)
    accepted = refused = invalid = 0
    for text in _small_sets():
        try:
            denoted = _graph_of(text)
            back = _dep_through_text(schema_text, text)
        except ValidityWarning:  # outside the guarantee: the CLI exits 1
            invalid += 1
            continue
        except RdfPgError:
            refused += 1
            continue
        accepted += 1
        assert back == (schema, denoted), text
    assert accepted > 0 and invalid > 0 and refused > 0
