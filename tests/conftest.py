"""Shared fixtures: the bundled organisation example and a hand-built PG pair."""

from __future__ import annotations

from pathlib import Path

import pytest

from rdfpg.pg_graph import (
    DATE,
    INTEGER,
    PgValue,
    PropertyGraph,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    PropertyGraphSchemaBuilder,
    STRING,
)
from rdfpg.rdf_graph import RdfGraph, RdfGraphSchema, build_rdf_graph, build_rdf_schema
from rdfpg.terms import TripleSet
from rdfpg.turtle import parse_turtle

DATA_DIR = Path(__file__).parent / "data"

VOC = "http://www.example.org/voc/"
EX = "http://www.example.org/data/"
XSD = "http://www.w3.org/2001/XMLSchema#"

# The empty database of each model, to compare results with.
EMPTY_RDF_GRAPH = RdfGraph({}, frozenset(), frozenset(), frozenset())
EMPTY_RDF_SCHEMA = RdfGraphSchema(frozenset(), frozenset())
EMPTY_PG = PropertyGraph((), ())
EMPTY_PG_SCHEMA = PropertyGraphSchema({}, ())


@pytest.fixture(scope="session")
def org_instance_text() -> str:
    return (DATA_DIR / "org-instance.ttl").read_text()


@pytest.fixture(scope="session")
def org_schema_text() -> str:
    return (DATA_DIR / "org-schema.ttl").read_text()


@pytest.fixture()
def org_instance(org_instance_text) -> TripleSet:
    return parse_turtle(org_instance_text)


@pytest.fixture()
def org_schema_triples(org_schema_text) -> TripleSet:
    return parse_turtle(org_schema_text)


@pytest.fixture()
def org_graph(org_instance) -> RdfGraph:
    return build_rdf_graph(org_instance)


@pytest.fixture()
def org_rdf_schema(org_schema_triples) -> RdfGraphSchema:
    return build_rdf_schema(org_schema_triples)


def build_company_pg(
    person_label: str = "Person",
    edge_label: str = "ceo",
    age_type=INTEGER,
    extra_person_prop: tuple[str, PgValue] | None = None,
    edge_prop: tuple[str, PgValue] | None = ("since", PgValue("2003", DATE)),
) -> PropertyGraph:
    """The two-company-node example graph, with knobs for mutation tests."""
    b = PropertyGraphBuilder()
    org = b.add_node("Organisation")
    b.add_property(org, "name", PgValue("Tesla, Inc.", STRING))
    b.add_property(org, "creation", PgValue("2003-07-01", DATE))
    person = b.add_node(person_label)
    b.add_property(person, "birthName", PgValue("Elon Musk", STRING))
    b.add_property(person, "age", PgValue("46", age_type))
    if extra_person_prop is not None:
        b.add_property(person, *extra_person_prop)
    edge = b.add_edge(edge_label, org, person)
    if edge_prop is not None:
        b.add_property(edge, *edge_prop)
    return b.build()


def build_company_pg_schema() -> PropertyGraphSchema:
    b = PropertyGraphSchemaBuilder()
    org = b.add_node_type("Organisation")
    b.add_property_type(org, "name", STRING)
    b.add_property_type(org, "creation", DATE)
    person = b.add_node_type("Person")
    b.add_property_type(person, "birthName", STRING)
    b.add_property_type(person, "age", INTEGER)
    ceo = b.add_edge_type("ceo", org, person)
    b.add_property_type(ceo, "since", DATE)
    return b.build()


@pytest.fixture()
def company_pg() -> PropertyGraph:
    return build_company_pg()


@pytest.fixture()
def company_pg_schema() -> PropertyGraphSchema:
    return build_company_pg_schema()
