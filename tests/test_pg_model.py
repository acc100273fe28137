"""Property graph model: typing, validity, canonical equality."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_company_pg

from rdfpg.generator import GeneratorConfig, gen_property_graph, gen_rdf_graph
from rdfpg.pg_graph import (
    DATE,
    INTEGER,
    Edge,
    EdgeType,
    Node,
    PgValue,
    STRING,
    canonical_graph,
    canonical_schema,
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
    properties = (("p", PgValue("x", "http://dt.example/blend")),)
    assert canonical_graph([Node("T", properties)], []).nodes[0].properties == properties


# -- validity -----------------------------------------------------------------


def test_company_example_is_valid(company_pg, company_pg_schema):
    assert validate_pg(company_pg, company_pg_schema).valid


def test_empty_graph_is_vacuously_valid(company_pg_schema):
    empty = canonical_graph([], [])
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


def test_p2b_reports_against_the_first_edge_type_leaving_the_fewest_unmatched():
    schema = canonical_schema(
        {"A": []},
        [  # three edge types, one signature
            EdgeType("r", "A", "A", tuple((key, STRING) for key in keys))
            for keys in (("x",), ("x", "y"), ("y", "z"))
        ],
    )

    def unmatched_keys(*keys):
        properties = tuple(sorted((key, PgValue("1", STRING)) for key in keys))
        graph = canonical_graph([Node("A", ())], [Edge("r", 0, 0, properties)])
        return [v.message.split("'")[1] for v in validate_pg(graph, schema).violations]

    assert unmatched_keys("x", "y") == []
    assert unmatched_keys("x", "y", "z") == ["z"]  # ('x', 'y') leaves one, before ('y', 'z')
    assert unmatched_keys("y", "z", "w") == ["w"]
    assert unmatched_keys("w") == ["w"]


def test_node_without_properties_is_valid(company_pg_schema):
    assert validate_pg(canonical_graph([Node("Person", ())], []), company_pg_schema).valid


def test_reserved_iri_property_always_allowed(company_pg_schema):
    allowed = build_company_pg(extra_person_prop=("iri", PgValue("http://x.example/p", STRING)))
    assert validate_pg(allowed, company_pg_schema).valid
    # only the string-typed form is reserved
    retyped = build_company_pg(extra_person_prop=("iri", PgValue("1", INTEGER)))
    assert validate_pg(retyped, company_pg_schema).rules_violated() == {"P1b"}


def test_validation_is_monotone_under_element_removal(company_pg_schema):
    # same invalid node with and without the (also invalid) edge present
    def graph(with_edge: bool):
        nodes = [Node("Organisation", ()), Node("Person", (("age", PgValue("46", STRING)),))]
        return canonical_graph(nodes, [Edge("boss", 0, 1, ())] if with_edge else [])

    full = {(v.rule, v.element) for v in validate_pg(graph(True), company_pg_schema).violations}
    reduced = {(v.rule, v.element) for v in validate_pg(graph(False), company_pg_schema).violations}
    assert reduced <= full


# -- graph equality -----------------------------------------------------------


def test_pg_equal_ignores_construction_order(company_pg):
    person = Node("Person", (
        ("age", PgValue("46", INTEGER)), ("birthName", PgValue("Elon Musk", STRING)),
    ))
    org = Node("Organisation", (
        ("creation", PgValue("2003-07-01", DATE)), ("name", PgValue("Tesla, Inc.", STRING)),
    ))
    edge = Edge("ceo", 1, 0, (("since", PgValue("2003", DATE)),))
    assert company_pg == canonical_graph([person, org], [edge])


def test_pg_equal_detects_missing_edge_property(company_pg):
    assert company_pg != build_company_pg(edge_prop=None)


def test_pg_equal_same_conversion_twice():
    graph = gen_rdf_graph(GeneratorConfig(seed=11))
    assert indep_map_graph(graph) == indep_map_graph(graph)


def test_pg_equal_is_an_equivalence_on_converted_graphs():
    graphs = [
        indep_map_graph(gen_rdf_graph(GeneratorConfig(seed=s))) for s in range(6)
    ]
    copies = [
        indep_map_graph(gen_rdf_graph(GeneratorConfig(seed=s))) for s in range(6)
    ]
    for g, c in zip(graphs, copies):
        assert g == g
        assert (g == c) == (c == g)
    for a in graphs[:3]:
        for b in copies[:3]:
            for c in graphs[:3]:
                if a == b and b == c:
                    assert a == c


# -- schema equality -----------------------------------------------------------


def test_pg_schema_equal_ignores_construction_order(company_pg_schema):
    schema = canonical_schema(
        {
            "Person": [("birthName", STRING), ("age", INTEGER)],
            "Organisation": [("name", STRING), ("creation", DATE)],
        },
        [EdgeType("ceo", "Organisation", "Person", (("since", DATE),))],
    )
    assert company_pg_schema == schema


def test_pg_schema_equal_detects_missing_property_type(company_pg_schema):
    schema = canonical_schema(
        {
            "Organisation": [("creation", DATE), ("name", STRING)],
            "Person": [("age", INTEGER), ("birthName", STRING)],
        },
        [EdgeType("ceo", "Organisation", "Person", ())],  # no "since"
    )
    assert company_pg_schema != schema


def _duplicates_schema(duplicate_property_type=True, edge_type_count=2, node_order="AB"):
    """Node type A lists ("k", String) twice; edge type r: A -> B appears twice."""
    node_types = {label: [] for label in node_order}
    node_types["A"] += [("k", STRING)] * (2 if duplicate_property_type else 1)
    edge_types = [EdgeType("r", "A", "B", (("w", INTEGER),))] * edge_type_count
    return canonical_schema(node_types, edge_types)


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
