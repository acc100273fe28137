"""Property graph model: typing, validity, canonical equality."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_company_pg

from rdfpg.errors import AmbiguousCanonicalKey
from rdfpg.generator import GeneratorConfig, gen_property_graph, gen_rdf_graph
from rdfpg.pg_graph import (
    DATE,
    INTEGER,
    Edge,
    EdgeType,
    Node,
    PgValue,
    PropertyGraphBuilder,
    PropertyGraphSchemaBuilder,
    STRING,
    pg_equal,
    validate_pg,
)
from rdfpg.pg_json import parse_pg_schema, serialize_pg_schema
from rdfpg.schema_independent import map_graph as indep_map_graph


def test_pg_value_is_a_typed_tuple_that_never_equals_a_str():
    value = PgValue("46", INTEGER)
    assert (value.lexical, value.datatype) == ("46", INTEGER)
    assert str(value) == "'46':Integer"
    for text in ("46", "'46':Integer", INTEGER, ""):
        assert value != text and text != value
    assert PgValue("", STRING) != ""
    assert value != PgValue("46", STRING)
    assert value < PgValue("46", STRING) < PgValue("5", INTEGER)


# Short strings over a few ASCII and non-ASCII characters: many are equal, or
# prefixes of each other, or differ only beyond the ASCII range.
_strings = st.text(st.sampled_from(["a", "b", "\x00", "\xe9", "\u2028", "\U0001f600"]), max_size=3)
_property_types = st.lists(st.tuples(_strings, _strings), max_size=2).map(sorted).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    properties=st.lists(st.tuples(_strings, st.builds(PgValue, _strings, _strings)), max_size=4),
    edge_types=st.lists(
        st.builds(EdgeType, _strings, _strings, _strings, _property_types), max_size=6
    ),
)
def test_natural_order_is_the_field_order(properties, edge_types):
    assert sorted(properties) == sorted(
        properties, key=lambda kv: (kv[0], kv[1].lexical, kv[1].datatype)
    )
    assert sorted(edge_types) == sorted(
        edge_types, key=lambda et: (et.label, et.source, et.target, et.property_types)
    )


def test_describe_names_a_node_by_its_properties_and_an_edge_by_its_ends(company_pg):
    org, person = company_pg.nodes
    (ceo,) = company_pg.edges
    assert (type(org), type(ceo)) == (Node, Edge)
    assert company_pg.describe(org) == (
        "node Organisation{creation='2003-07-01':Date, name='Tesla, Inc.':String}"
    )
    assert company_pg.describe(person) == (
        "node Person{age='46':Integer, birthName='Elon Musk':String}"
    )
    assert company_pg.describe(ceo) == "edge Organisation --ceo--> Person"


def test_datatype_tokens():
    # A datatype is its token: a kind name, or a custom datatype's IRI.
    assert DATE == "Date"
    b = PropertyGraphBuilder()
    n = b.add_node("T")
    b.add_property(n, "p", PgValue("x", "http://dt.example/blend"))
    assert b.build().nodes[0].properties == (("p", PgValue("x", "http://dt.example/blend")),)
    # Both builders refuse an empty datatype.
    with pytest.raises(ValueError, match="datatype may not be empty"):
        b.add_property(n, "q", PgValue("x", ""))
    sb = PropertyGraphSchemaBuilder()
    nt = sb.add_node_type("T")
    with pytest.raises(ValueError, match="datatype may not be empty"):
        sb.add_property_type(nt, "q", "")


# -- validity -----------------------------------------------------------------


def test_company_example_is_valid(company_pg, company_pg_schema):
    assert validate_pg(company_pg, company_pg_schema).valid


def test_empty_graph_is_vacuously_valid(company_pg_schema):
    empty = PropertyGraphBuilder().build()
    assert validate_pg(empty, company_pg_schema).valid


def test_retyped_value_violates_p1b(company_pg_schema):
    mutated = build_company_pg(age_type=STRING)
    report = validate_pg(mutated, company_pg_schema)
    assert report.rules_violated() == {"P1b"}


def test_unknown_node_label_violates_p1a(company_pg_schema):
    mutated = build_company_pg(person_label="Company")
    report = validate_pg(mutated, company_pg_schema)
    assert "P1a" in report.rules_violated()
    # the edge's endpoint label no longer matches the edge type either
    assert "P2a" in report.rules_violated()


def test_unknown_edge_label_violates_p2a(company_pg_schema):
    mutated = build_company_pg(edge_label="boss")
    assert validate_pg(mutated, company_pg_schema).rules_violated() == {"P2a"}


def test_undeclared_property_violates_p1b(company_pg_schema):
    mutated = build_company_pg(extra_person_prop=("nickname", PgValue("E", STRING)))
    assert validate_pg(mutated, company_pg_schema).rules_violated() == {"P1b"}


def test_undeclared_edge_property_violates_p2b(company_pg_schema):
    mutated = build_company_pg(edge_prop=("weight", PgValue("1", INTEGER)))
    assert validate_pg(mutated, company_pg_schema).rules_violated() == {"P2b"}


def test_node_without_properties_is_valid(company_pg_schema):
    b = PropertyGraphBuilder()
    b.add_node("Person")
    assert validate_pg(b.build(), company_pg_schema).valid


def test_reserved_iri_property_always_allowed(company_pg_schema):
    allowed = build_company_pg(extra_person_prop=("iri", PgValue("http://x.example/p", STRING)))
    assert validate_pg(allowed, company_pg_schema).valid
    # only the string-typed form is reserved
    retyped = build_company_pg(extra_person_prop=("iri", PgValue("1", INTEGER)))
    assert validate_pg(retyped, company_pg_schema).rules_violated() == {"P1b"}


def test_validation_is_monotone_under_element_removal(company_pg_schema):
    # same invalid node with and without the (also invalid) edge present
    def graph(with_edge: bool):
        b = PropertyGraphBuilder()
        org = b.add_node("Organisation")
        person = b.add_node("Person")
        b.add_property(person, "age", PgValue("46", STRING))
        if with_edge:
            b.add_edge("boss", org, person)
        return b.build()

    full = {(v.rule, v.element) for v in validate_pg(graph(True), company_pg_schema).violations}
    reduced = {(v.rule, v.element) for v in validate_pg(graph(False), company_pg_schema).violations}
    assert reduced <= full


# -- pg_equal -----------------------------------------------------------------


def test_pg_equal_ignores_construction_order(company_pg):
    b = PropertyGraphBuilder()
    person = b.add_node("Person")
    b.add_property(person, "age", PgValue("46", INTEGER))
    b.add_property(person, "birthName", PgValue("Elon Musk", STRING))
    org = b.add_node("Organisation")
    b.add_property(org, "creation", PgValue("2003-07-01", DATE))
    b.add_property(org, "name", PgValue("Tesla, Inc.", STRING))
    edge = b.add_edge("ceo", org, person)
    b.add_property(edge, "since", PgValue("2003", DATE))
    assert pg_equal(company_pg, b.build())


def test_pg_equal_detects_missing_edge_property(company_pg):
    assert not pg_equal(company_pg, build_company_pg(edge_prop=None))


def test_pg_equal_requires_distinguishable_nodes():
    b = PropertyGraphBuilder()
    b.add_node("Person")
    b.add_node("Person")
    twins = b.build()
    with pytest.raises(AmbiguousCanonicalKey):
        pg_equal(twins, twins)


def test_pg_equal_same_conversion_twice():
    graph = gen_rdf_graph(GeneratorConfig(seed=11))
    assert pg_equal(indep_map_graph(graph), indep_map_graph(graph))


def test_pg_equal_is_an_equivalence_on_converted_graphs():
    graphs = [
        indep_map_graph(gen_rdf_graph(GeneratorConfig(seed=s))) for s in range(6)
    ]
    copies = [
        indep_map_graph(gen_rdf_graph(GeneratorConfig(seed=s))) for s in range(6)
    ]
    for g, c in zip(graphs, copies):
        assert pg_equal(g, g)
        assert pg_equal(g, c) == pg_equal(c, g)
    for a in graphs[:3]:
        for b in copies[:3]:
            for c in graphs[:3]:
                if pg_equal(a, b) and pg_equal(b, c):
                    assert pg_equal(a, c)


# -- schema equality -----------------------------------------------------------


def test_pg_schema_equal_ignores_construction_order(company_pg_schema):
    b = PropertyGraphSchemaBuilder()
    person = b.add_node_type("Person")
    org = b.add_node_type("Organisation")
    b.add_property_type(person, "age", INTEGER)
    b.add_property_type(org, "name", STRING)
    b.add_property_type(org, "creation", DATE)
    b.add_property_type(person, "birthName", STRING)
    ceo = b.add_edge_type("ceo", org, person)
    b.add_property_type(ceo, "since", DATE)
    assert company_pg_schema == b.build()


def test_pg_schema_equal_detects_missing_property_type(company_pg_schema):
    b = PropertyGraphSchemaBuilder()
    org = b.add_node_type("Organisation")
    b.add_property_type(org, "name", STRING)
    b.add_property_type(org, "creation", DATE)
    person = b.add_node_type("Person")
    b.add_property_type(person, "birthName", STRING)
    b.add_property_type(person, "age", INTEGER)
    b.add_edge_type("ceo", org, person)  # no "since"
    assert company_pg_schema != b.build()


def _duplicates_schema(duplicate_property_type=True, edge_type_count=2, node_order="AB"):
    """Node type A lists ("k", String) twice; edge type r: A -> B appears twice."""
    b = PropertyGraphSchemaBuilder()
    handles = {label: b.add_node_type(label) for label in node_order}
    b.add_property_type(handles["A"], "k", STRING)
    if duplicate_property_type:
        b.add_property_type(handles["A"], "k", STRING)
    for _ in range(edge_type_count):
        r = b.add_edge_type("r", handles["A"], handles["B"])
        b.add_property_type(r, "w", INTEGER)
    return b.build()


# Serialized form of _duplicates_schema(): every duplicate is kept and gets its own id.
_DUPLICATES_SCHEMA_JSON = (
    '{\n  "edgeTypes": [\n    {\n      "id": "et0",\n      "label": "r",\n'
    '      "propertyTypes": [\n        "pt2"\n      ],\n      "source": "nt0",\n'
    '      "target": "nt1"\n    },\n    {\n      "id": "et1",\n      "label": "r",\n'
    '      "propertyTypes": [\n        "pt3"\n      ],\n      "source": "nt0",\n'
    '      "target": "nt1"\n    }\n  ],\n  "nodeTypes": [\n    {\n      "id": "nt0",\n'
    '      "label": "A",\n      "propertyTypes": [\n        "pt0",\n        "pt1"\n'
    '      ]\n    },\n    {\n      "id": "nt1",\n      "label": "B",\n'
    '      "propertyTypes": []\n    }\n  ],\n  "propertyTypes": [\n    {\n'
    '      "id": "pt0",\n      "key": "k",\n      "type": "String"\n    },\n    {\n'
    '      "id": "pt1",\n      "key": "k",\n      "type": "String"\n    },\n    {\n'
    '      "id": "pt2",\n      "key": "w",\n      "type": "Integer"\n    },\n    {\n'
    '      "id": "pt3",\n      "key": "w",\n      "type": "Integer"\n    }\n  ]\n}\n'
)


def test_schema_duplicates_are_kept_and_counted():
    schema = _duplicates_schema()
    assert serialize_pg_schema(schema) == _DUPLICATES_SCHEMA_JSON
    assert schema == _duplicates_schema(node_order="BA")
    assert schema == parse_pg_schema(_DUPLICATES_SCHEMA_JSON)
    assert schema != _duplicates_schema(duplicate_property_type=False)
    assert schema != _duplicates_schema(edge_type_count=1)
    assert schema != _duplicates_schema(edge_type_count=3)


def test_duplicate_node_type_labels_rejected():
    b = PropertyGraphSchemaBuilder()
    b.add_node_type("Person")
    with pytest.raises(ValueError):
        b.add_node_type("Person")


def _canonical_property_order(props):
    return sorted(props, key=lambda kv: (kv[0], kv[1].lexical, kv[1].datatype))


def test_properties_stored_per_owner_in_canonical_order(company_pg):
    generated = [
        gen_property_graph(GeneratorConfig(seed=seed, max_resources=20, max_triples=40))
        for seed in range(5)
    ]
    for pg in [company_pg, *generated]:
        for element in pg.nodes + pg.edges:
            props = element.properties
            assert list(props) == _canonical_property_order(props)
    assert sum(len(element.properties) for element in company_pg.nodes + company_pg.edges) == 5
