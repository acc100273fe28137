"""Acceptance suite.

One test per acceptance criterion (A1-A8), each printing a PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. Tolerances are exact matches and hard time budgets; nothing here is
approximate.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import build_company_pg, build_company_pg_schema

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.cli import run_roundtrip
from rdfpg.errors import FormatError, ValidityWarning
from rdfpg.generator import (
    GeneratorConfig,
    gen_pg_schema,
    gen_property_graph,
    gen_triple_set,
)
from rdfpg.pg_graph import (
    DATE,
    Edge,
    EdgeType,
    INT,
    Node,
    PgValue,
    PropertyGraphSchema,
    STRING,
    canonical_graph,
    canonical_schema,
    validate_pg,
)
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import (
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_equal,
    validate_rdf,
)
from rdfpg.terms import Iri, Literal, RDF_TYPE, RDFS_RANGE, RDFS_RESOURCE, Triple, TripleSet
from rdfpg.turtle import parse_turtle, serialize_turtle

VOC = "http://www.example.org/voc/"
EX = "http://www.example.org/data/"
XSD = "http://www.w3.org/2001/XMLSchema#"

ROUNDTRIP_BOUNDS = GeneratorConfig(max_classes=10, max_properties=15,
                                   max_resources=30, max_triples=100)
ROUNDTRIP_COUNT = 1000
ROUNDTRIP_BUDGET_SECONDS = 30.0
EXAMPLE_BUDGET_SECONDS = 1.0


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


class _Null:
    def write(self, _):
        pass


@pytest.fixture(scope="module")
def dep_suite():
    assert ROUNDTRIP_BOUNDS == GeneratorConfig()  # the bounds run_roundtrip draws within
    started = time.perf_counter()
    result = run_roundtrip("dep", seed=42, count=ROUNDTRIP_COUNT, out=_Null())
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def indep_suite():
    assert ROUNDTRIP_BOUNDS == GeneratorConfig()  # the bounds run_roundtrip draws within
    started = time.perf_counter()
    result = run_roundtrip("indep", seed=42, count=ROUNDTRIP_COUNT, out=_Null())
    return result, time.perf_counter() - started


def _expected_dep_schema():
    return canonical_schema(
        {
            VOC + "Organisation": [(VOC + "name", STRING), (VOC + "creation", DATE)],
            VOC + "Person": [(VOC + "birthName", STRING), (VOC + "age", INT)],
        },
        [EdgeType(VOC + "ceo", VOC + "Organisation", VOC + "Person", ())],
    )


def _expected_dep_pg():
    org = Node(VOC + "Organisation", (
        (VOC + "creation", PgValue("2003-07-01", DATE)),
        (VOC + "name", PgValue("Tesla, Inc.", STRING)),
        ("iri", PgValue(EX + "Tesla_Inc", STRING)),
    ))
    person = Node(VOC + "Person", (
        (VOC + "age", PgValue("46", INT)),
        (VOC + "birthName", PgValue("Elon Musk", STRING)),
        ("iri", PgValue(EX + "Elon_Musk", STRING)),
    ))
    return canonical_graph([org, person], [Edge(VOC + "ceo", 0, 1, ())])


def test_a1_schema_dependent_example_match(org_instance, org_schema_triples):
    started = time.perf_counter()
    schema = build_rdf_schema(complete_partial_schema(org_schema_triples))
    graph = build_rdf_graph(org_instance)
    pg_schema, pg = dep.map_database(schema, graph)
    elapsed = time.perf_counter() - started

    expected_schema = _expected_dep_schema()
    expected_pg = _expected_dep_pg()
    checks = [
        pg_schema == PropertyGraphSchema(
            node_types={
                VOC + "Organisation": ((VOC + "creation", DATE), (VOC + "name", STRING)),
                VOC + "Person": ((VOC + "age", INT), (VOC + "birthName", STRING)),
            },
            edge_types=(EdgeType(VOC + "ceo", VOC + "Organisation", VOC + "Person", ()),),
        ),
        pg_schema == expected_schema,
        len(pg.nodes) == 2,
        len(pg.edges) == 1,
        sum(len(element.properties) for element in pg.nodes + pg.edges) == 6,
        pg == expected_pg,
        elapsed < EXAMPLE_BUDGET_SECONDS,
    ]
    _announce(
        "A1",
        all(checks),
        "schema-dependent conversion of the bundled example matches the expected "
        f"PG database exactly ({elapsed:.3f}s)",
    )


def _expected_indep_pg():
    def resource(iri, type_iri):
        return Node("Resource", (
            ("iri", PgValue(iri, STRING)), ("type", PgValue(type_iri, STRING)),
        ))

    def literal(value, type_iri):
        return Node("Literal", (
            ("type", PgValue(type_iri, STRING)), ("value", PgValue(value, STRING)),
        ))

    def edge(label, src, dst, type_iri):
        return Edge(label, src, dst, (("type", PgValue(type_iri, STRING)),))

    tesla, musk, name, created, birth, age = range(6)
    nodes = [
        resource(EX + "Tesla_Inc", VOC + "Organisation"),
        resource(EX + "Elon_Musk", VOC + "Person"),
        literal("Tesla, Inc.", XSD + "string"),
        literal("2003-07-01", XSD + "date"),
        literal("Elon Musk", XSD + "string"),
        literal("46", XSD + "int"),
    ]
    edges = [
        edge("ObjectProperty", tesla, musk, VOC + "ceo"),
        edge("DatatypeProperty", tesla, name, VOC + "name"),
        edge("DatatypeProperty", tesla, created, VOC + "creation"),
        edge("DatatypeProperty", musk, birth, VOC + "birthName"),
        edge("DatatypeProperty", musk, age, VOC + "age"),
    ]
    return canonical_graph(nodes, edges)


def test_a2_schema_independent_example_match(org_instance):
    started = time.perf_counter()
    graph = build_rdf_graph(org_instance)
    _, pg = indep.map_database(graph)
    elapsed = time.perf_counter() - started
    checks = [
        len(pg.nodes) == 6,
        len(pg.edges) == 5,
        sum(len(element.properties) for element in pg.nodes + pg.edges) == 17,
        pg == _expected_indep_pg(),
        elapsed < EXAMPLE_BUDGET_SECONDS,
    ]
    _announce(
        "A2",
        all(checks),
        "schema-independent conversion of the bundled example has 6 nodes, 5 edges, "
        f"17 properties and matches the expected PG exactly ({elapsed:.3f}s)",
    )


def test_a3_dependent_roundtrip_1000(dep_suite):
    result, elapsed = dep_suite
    _announce(
        "A3",
        result.passed == ROUNDTRIP_COUNT and elapsed < ROUNDTRIP_BUDGET_SECONDS,
        f"schema-dependent route: {result.passed}/{ROUNDTRIP_COUNT} generated databases "
        f"recovered exactly, both schema and instance ({elapsed:.1f}s)",
    )


def test_a4_independent_roundtrip_1000(indep_suite):
    result, elapsed = indep_suite
    _announce(
        "A4",
        result.passed == ROUNDTRIP_COUNT and elapsed < ROUNDTRIP_BUDGET_SECONDS,
        f"schema-independent route: {result.passed}/{ROUNDTRIP_COUNT} generated graphs "
        f"recovered exactly, unrestricted inputs ({elapsed:.1f}s)",
    )


def test_a5_semantics_preserved_in_both_suites(dep_suite, indep_suite):
    dep_result, _ = dep_suite
    indep_result, _ = indep_suite
    _announce(
        "A5",
        dep_result.semantics_failures == 0 and indep_result.semantics_failures == 0,
        "every produced property graph validated against its produced or generic "
        f"schema in both {ROUNDTRIP_COUNT}-case suites",
    )


def test_a6_validity_relations_and_mutations(org_instance, org_schema_triples, org_graph, org_rdf_schema):
    company_pg = build_company_pg()
    company_schema = build_company_pg_schema()
    detected = []

    # baselines
    baseline_ok = (
        validate_rdf(org_graph, org_rdf_schema).valid
        and validate_pg(company_pg, company_schema).valid
    )

    def rdf_mutation(drop: Triple, add: Triple) -> set[str]:
        mutated = TripleSet((org_instance.triples - {drop}) | {add}, org_instance.prefixes)
        return validate_rdf(build_rdf_graph(mutated), org_rdf_schema).rules_violated()

    # 1. wrong node class
    detected.append(
        "R1"
        in rdf_mutation(
            Triple(Iri(EX + "Tesla_Inc"), RDF_TYPE, Iri(VOC + "Organisation")),
            Triple(Iri(EX + "Tesla_Inc"), RDF_TYPE, Iri(VOC + "Company")),
        )
    )
    # 2. undeclared edge label
    detected.append(
        "P2a"
        in validate_pg(build_company_pg(edge_label="boss"), company_schema).rules_violated()
    )
    # 3. mismatched endpoint classes (edge relabeled to a declared property)
    detected.append(
        "R2"
        in rdf_mutation(
            Triple(Iri(EX + "Tesla_Inc"), Iri(VOC + "ceo"), Iri(EX + "Elon_Musk")),
            Triple(Iri(EX + "Tesla_Inc"), Iri(VOC + "creation"), Iri(EX + "Elon_Musk")),
        )
    )
    # 4. wrong property datatype
    detected.append(
        "P1b"
        in validate_pg(build_company_pg(age_type=STRING), company_schema).rules_violated()
    )
    # 5. undeclared property
    detected.append(
        "P1b"
        in validate_pg(
            build_company_pg(extra_person_prop=("nickname", PgValue("E", STRING))),
            company_schema,
        ).rules_violated()
    )
    # 6. dangling property type reference in a schema document
    document = json.loads(serialize_pg_schema(company_schema))
    document["nodeTypes"][0]["propertyTypes"].append("pt999")
    try:
        parse_pg_schema(json.dumps(document))
        detected.append(False)
    except FormatError:
        detected.append(True)
    # 7. retyped literal
    detected.append(
        "R3"
        in rdf_mutation(
            Triple(Iri(EX + "Elon_Musk"), Iri(VOC + "age"), Literal("46", Iri(XSD + "int"))),
            Triple(Iri(EX + "Elon_Musk"), Iri(VOC + "age"), Literal("46", Iri(XSD + "string"))),
        )
    )

    _announce(
        "A6",
        baseline_ok and all(detected),
        f"both bundled databases validate and {sum(detected)}/7 single-element "
        "mutations were detected under the expected rule",
    )


def test_a7_io_roundtrips(org_instance, org_schema_triples):
    turtle_cases = 0
    for ts in (org_instance, org_schema_triples):
        assert parse_turtle(serialize_turtle(ts)) == ts
        turtle_cases += 1
    for seed in range(500):
        ts = gen_triple_set(GeneratorConfig(seed=seed))
        text = serialize_turtle(ts)
        rebuilt = gen_triple_set(GeneratorConfig(seed=seed))
        if parse_turtle(text) == ts and serialize_turtle(rebuilt) == text:
            turtle_cases += 1

    json_cases = 0
    for seed in range(500):
        graph = gen_property_graph(GeneratorConfig(seed=seed))
        text = serialize_pg(graph)
        rebuilt = gen_property_graph(GeneratorConfig(seed=seed))
        if parse_pg(text) == graph and serialize_pg(rebuilt) == text:
            json_cases += 1
        schema = gen_pg_schema(GeneratorConfig(seed=seed))
        stext = serialize_pg_schema(schema)
        srebuilt = gen_pg_schema(GeneratorConfig(seed=seed))
        if parse_pg_schema(stext) == schema and serialize_pg_schema(srebuilt) == stext:
            json_cases += 1

    _announce(
        "A7",
        turtle_cases == 502 and json_cases == 1000,
        f"Turtle identity on {turtle_cases}/502 triple sets and PG JSON identity on "
        f"{json_cases}/1000 documents, all byte-stable across independent builds",
    )


def test_a8_partial_schema_completion(org_instance, org_schema_triples):
    removed = Triple(Iri(VOC + "ceo"), RDFS_RANGE, Iri(VOC + "Person"))
    partial = TripleSet(org_schema_triples.triples - {removed}, org_schema_triples.prefixes)
    schema = build_rdf_schema(complete_partial_schema(partial))
    graph = build_rdf_graph(org_instance)
    with pytest.warns(ValidityWarning):
        pg_schema, pg = dep.map_database(schema, graph)
    with pytest.warns(ValidityWarning):
        schema_back, graph_back = dep.invert_database(pg_schema, pg)

    recovered_ceo_ranges = {
        range_ for prop, _, range_ in schema_back.property_edges if prop.value == VOC + "ceo"
    }
    _announce(
        "A8",
        rdf_equal(graph_back, graph)
        and rdf_equal(schema_back, schema)
        and recovered_ceo_ranges == {RDFS_RESOURCE},
        "completion gave the range-less property the resource class, the converted "
        "database round-tripped exactly, and the recovered schema keeps that range",
    )
