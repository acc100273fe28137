"""Schema-dependent conversion and its inverse."""

from __future__ import annotations

import pytest

from conftest import EMPTY_PG, EMPTY_PG_SCHEMA, EMPTY_RDF_GRAPH, EMPTY_RDF_SCHEMA

from rdfpg import schema_dependent as dep
from rdfpg.errors import (
    ConflictingResourceClass,
    DuplicatePropertyLabel,
    MissingEndpointType,
    MissingIriProperty,
    NonIriLabel,
    NotProducedByConversion,
    ReservedVocabularyTerm,
    ValidityWarning,
)
from rdfpg.generator import GeneratorConfig, gen_rdf_database
from rdfpg.pg_graph import (
    canonical_graph,
    canonical_schema,
    DATATYPE_KINDS,
    DATE,
    Edge,
    EdgeType,
    INT,
    INTEGER,
    Node,
    PgValue,
    PropertyGraphSchema,
    STRING,
    validate_pg,
)
from rdfpg.rdf_graph import (
    RdfGraphSchema,
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_equal,
    validate_rdf,
)
from rdfpg.schema_dependent import PG_DATATYPE_OF, RDF_DATATYPE_OF
from rdfpg.terms import (
    Iri,
    RDFS_RANGE,
    RDFS_RESOURCE,
    SUPPORTED_DATATYPES,
    Triple,
    TripleSet,
)
from rdfpg.turtle import parse_turtle

VOC = "http://www.example.org/voc/"
EX = "http://www.example.org/data/"
XSD = "http://www.w3.org/2001/XMLSchema#"


# -- datatype correspondence ---------------------------------------------------


def test_correspondence_is_invertible_over_supported_set():
    for iri in sorted(SUPPORTED_DATATYPES, key=lambda i: i.value):
        assert RDF_DATATYPE_OF[PG_DATATYPE_OF[iri]] == iri
    assert sorted(RDF_DATATYPE_OF) == sorted(DATATYPE_KINDS)


def test_correspondence_extends_through_custom():
    odd = Iri("http://dt.example/temperature")
    assert odd not in PG_DATATYPE_OF and odd.value not in RDF_DATATYPE_OF
    graph = build_rdf_graph(parse_turtle(f'<{EX}a> <{VOC}p> "1"^^<{odd.value}> .'))
    pg = dep.map_graph(graph)
    mapped = dict(pg.nodes[0].properties)[VOC + "p"].datatype
    assert mapped == odd.value
    (literal,) = dep.invert_graph(pg).literal_nodes
    assert literal.datatype == odd


def test_correspondence_pins_each_integer_flavor():
    assert PG_DATATYPE_OF[Iri(XSD + "integer")] == INTEGER
    assert PG_DATATYPE_OF[Iri(XSD + "int")] == INT


# -- forward schema mapping ----------------------------------------------------


def test_map_schema_org_example(org_rdf_schema):
    assert dep.map_schema(org_rdf_schema) == PropertyGraphSchema(
        node_types={
            VOC + "Organisation": ((VOC + "creation", DATE), (VOC + "name", STRING)),
            VOC + "Person": ((VOC + "age", INT), (VOC + "birthName", STRING)),
        },
        edge_types=(EdgeType(VOC + "ceo", VOC + "Organisation", VOC + "Person", ()),),
    )


def test_map_schema_empty():
    assert dep.map_schema(build_rdf_schema(TripleSet())) == EMPTY_PG_SCHEMA


def test_map_schema_self_loop():
    schema = build_rdf_schema(
        parse_turtle(
            f"@prefix voc: <{VOC}> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "voc:knows rdfs:domain voc:A ; rdfs:range voc:A .\n"
        )
    )
    assert dep.map_schema(schema) == PropertyGraphSchema(
        node_types={VOC + "A": ()},
        edge_types=(EdgeType(VOC + "knows", VOC + "A", VOC + "A", ()),),
    )


def test_map_schema_refuses_a_datatype_property_spelled_iri():
    schema = build_rdf_schema(
        parse_turtle(
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            f"<{VOC}C> a rdfs:Class .\n"
            f"<iri> rdfs:domain <{VOC}C> ; rdfs:range <{XSD}string> .\n"
        )
    )
    with pytest.raises(ReservedVocabularyTerm) as err:
        dep.map_schema(schema)
    assert (err.value.iri, err.value.where) == ("iri", "datatype property")


def test_map_schema_datatype_domain_rejected():
    schema = build_rdf_schema(
        TripleSet(
            [
                Triple(Iri(VOC + "p"), Iri("http://www.w3.org/2000/01/rdf-schema#domain"), Iri(XSD + "int")),
                Triple(Iri(VOC + "p"), RDFS_RANGE, Iri(XSD + "string")),
            ]
        )
    )
    with pytest.raises(MissingEndpointType):
        dep.map_schema(schema)


# -- forward instance mapping ----------------------------------------------------


def test_map_graph_org_example(org_graph):
    pg = dep.map_graph(org_graph)
    assert len(pg.nodes) == 2
    assert len(pg.edges) == 1
    assert sum(len(element.properties) for element in pg.nodes + pg.edges) == 6
    by_label = {node.label: node for node in pg.nodes}
    org_node = by_label[VOC + "Organisation"]
    props = dict(org_node.properties)
    assert props == {
        "iri": PgValue(EX + "Tesla_Inc", STRING),
        VOC + "name": PgValue("Tesla, Inc.", STRING),
        VOC + "creation": PgValue("2003-07-01", DATE),
    }
    (edge,) = pg.edges
    assert edge.label == VOC + "ceo"
    assert edge.properties == ()


def test_map_graph_empty():
    assert dep.map_graph(build_rdf_graph(TripleSet())) == EMPTY_PG


def test_map_graph_lone_resource():
    pg = dep.map_graph(build_rdf_graph(parse_turtle(f"<{EX}a> a <{VOC}T> .")))
    (node,) = pg.nodes
    assert node.properties == (("iri", PgValue(EX + "a", STRING)),)


def test_map_graph_refuses_a_datatype_property_spelled_iri():
    graph = build_rdf_graph(parse_turtle(f'<{EX}a> a <{VOC}C> ; <iri> "{EX}b" .'))
    with pytest.raises(ReservedVocabularyTerm) as err:
        dep.map_graph(graph)
    assert str(err.value) == (
        "iri is a reserved vocabulary term and cannot name a datatype property"
    )


@pytest.mark.parametrize("kind", DATATYPE_KINDS)
def test_map_graph_refuses_a_custom_datatype_spelled_as_a_kind_name(kind):
    graph = build_rdf_graph(parse_turtle(f'<{EX}a> <{VOC}p> "5"^^<{kind}> .'))
    with pytest.raises(ReservedVocabularyTerm) as err:
        dep.map_graph(graph)
    assert (err.value.iri, err.value.where) == (kind, "custom datatype")


def test_map_graph_rejects_multivalued_property():
    graph = build_rdf_graph(parse_turtle(f'<{EX}a> <{VOC}name> "x" , "y" .'))
    with pytest.raises(DuplicatePropertyLabel):
        dep.map_graph(graph)


# One graph with every refusal of map_graph's datatype edges: a key spelled
# "iri", repeated keys on two subjects, and a custom datatype spelled as a
# kind name. The refusal is that of the smallest offending (subject, key),
# whatever order the statements come in.
_REFUSALS = (
    f'<{EX}e> <{VOC}p> "5"^^<Integer> .',
    f'<{EX}b> <iri> "{EX}x" .',
    f'<{EX}c> <{VOC}name> "p" , "q" .',
    f'<{EX}a> <{VOC}z> "1" , "2" .',
    f'<{EX}a> <{VOC}m> "1" , "2" .',
    f'<{EX}a> <{VOC}b> "1" .',
)


@pytest.mark.parametrize("order", [1, -1], ids=["as-listed", "reversed"])
def test_map_graph_refusal_precedence(order):
    statements = _REFUSALS[::order]
    expected = [
        (f"{EX}a", DuplicatePropertyLabel, (f"{EX}a", f"{VOC}m")),
        (f"{EX}b", ReservedVocabularyTerm, ("iri", "datatype property")),
        (f"{EX}c", DuplicatePropertyLabel, (f"{EX}c", f"{VOC}name")),
        (f"{EX}e", ReservedVocabularyTerm, ("Integer", "custom datatype")),
    ]
    # The whole graph first, then without each refused subject in turn.
    for subject, error, names in expected:
        graph = build_rdf_graph(parse_turtle("\n".join(statements)))
        with pytest.raises(error) as err:
            dep.map_graph(graph)
        assert str(err.value) == str(error(*names)), subject
        statements = [s for s in statements if not s.startswith(f"<{subject}>")]


def test_map_graph_never_creates_edge_properties():
    for seed in range(20):
        _, graph = gen_rdf_database(GeneratorConfig(seed=seed))
        pg = dep.map_graph(graph)
        for e in pg.edges:
            assert e.properties == ()


def test_map_database_checks_output(org_rdf_schema, org_graph):
    pgs, pg = dep.map_database(org_rdf_schema, org_graph)
    assert validate_pg(pg, pgs).valid


def test_map_database_warns_on_invalid_input(org_rdf_schema):
    stray = build_rdf_graph(parse_turtle(f"<{EX}a> a <{VOC}Unknown> ."))
    with pytest.warns(ValidityWarning):
        pgs, pg = dep.map_database(org_rdf_schema, stray)
    assert len(pg.nodes) == 1


def test_map_database_warns_on_datatype_classed_resources():
    # formally valid (xsd:int is a declared class) but outside the mapping's
    # node-type domain; converts with a warning instead of tripping the
    # output check
    schema = build_rdf_schema(
        TripleSet(
            [
                Triple(Iri(VOC + "p"), Iri("http://www.w3.org/2000/01/rdf-schema#domain"), Iri(VOC + "A")),
                Triple(Iri(VOC + "p"), RDFS_RANGE, Iri(XSD + "int")),
            ]
        )
    )
    graph = build_rdf_graph(parse_turtle(f"<{EX}a> a <{XSD}int> ."))
    assert validate_rdf(graph, schema).valid
    with pytest.warns(ValidityWarning, match="datatype or"):
        pgs, pg = dep.map_database(schema, graph)
    assert len(pg.nodes) == 1
    assert rdf_equal(dep.invert_graph(pg), graph)


def test_map_database_warns_on_unsupported_literal_datatype():
    # valid (the literal's class is its datatype, the property's range), but
    # the property becomes an edge type, so the node property it yields is
    # undeclared; converts with a report-less warning instead of tripping
    # the output check
    schema = build_rdf_schema(complete_partial_schema(parse_turtle(
        f"<{VOC}p> <http://www.w3.org/2000/01/rdf-schema#domain> <{VOC}A> ;"
        f" <http://www.w3.org/2000/01/rdf-schema#range> <{EX}dt> .\n"
        f"<{EX}dt> a <http://www.w3.org/2000/01/rdf-schema#Class> ."
    )))
    graph = build_rdf_graph(parse_turtle(f'<{EX}a> a <{VOC}A> ; <{VOC}p> "x"^^<{EX}dt> .'))
    assert validate_rdf(graph, schema).valid
    with pytest.warns(ValidityWarning, match=f"e.g. {VOC}p") as caught:
        pgs, pg = dep.map_database(schema, graph)
    assert caught.pop(ValidityWarning).message.report is None
    assert validate_pg(pg, pgs).rules_violated() == {"P1b"}
    assert dep.invert_graph(pg) == graph


def test_map_database_warning_carries_the_input_report(org_rdf_schema):
    stray = build_rdf_graph(parse_turtle(f"<{EX}a> a <{VOC}Unknown> ."))
    with pytest.warns(ValidityWarning) as caught:
        dep.map_database(org_rdf_schema, stray)
    assert caught.pop(ValidityWarning).message.report == validate_rdf(stray, org_rdf_schema)


# -- inverse mappings -------------------------------------------------------------


def test_invert_schema_recovers_org(org_rdf_schema):
    assert rdf_equal(dep.invert_schema(dep.map_schema(org_rdf_schema)), org_rdf_schema)


def test_invert_schema_empty():
    empty = canonical_schema({}, [])
    assert dep.invert_schema(empty) == EMPTY_RDF_SCHEMA


def test_invert_schema_from_bare_labels():
    schema = dep.invert_schema(canonical_schema({"Person": [("age", INTEGER)]}, []))
    classes = {iri.value for iri in schema.class_nodes}
    assert classes == {"Person", XSD + "integer"}
    (edge,) = schema.property_edges
    assert edge == (Iri("age"), Iri("Person"), Iri(XSD + "integer"))


def test_invert_graph_recovers_org(org_graph):
    assert rdf_equal(dep.invert_graph(dep.map_graph(org_graph)), org_graph)


def test_invert_graph_empty():
    assert dep.invert_graph(canonical_graph([], [])) == EMPTY_RDF_GRAPH


def test_invert_graph_single_node():
    graph = dep.invert_graph(
        canonical_graph([Node(VOC + "T", (("iri", PgValue(EX + "a", STRING)),))], [])
    )
    assert graph.resource_nodes == {Iri(EX + "a"): Iri(VOC + "T")}
    assert not (graph.literal_nodes or graph.object_edges or graph.datatype_edges)


def test_invert_graph_requires_iri_property():
    with pytest.raises(MissingIriProperty) as err:
        dep.invert_graph(canonical_graph([Node(VOC + "T", ())], []))
    assert str(err.value) == (
        f"node {VOC}T{{}} has no single 'iri' property to recover its IRI from"
    )


def test_invert_graph_rejects_unusable_label():
    node = Node("not an iri", (("iri", PgValue(EX + "a", STRING)),))
    with pytest.raises(NonIriLabel):
        dep.invert_graph(canonical_graph([node], []))


def _node_with(label=VOC + "T", iri=EX + "a", key=VOC + "p", datatype=STRING):
    properties = sorted([("iri", PgValue(iri, STRING)), (key, PgValue("x", datatype))])
    return canonical_graph([Node(label, tuple(properties))], [])


@pytest.mark.parametrize(
    "graph, role, value",
    [
        (_node_with(iri=EX + "a b"), "'iri' value", EX + "a b"),
        (_node_with(iri=""), "'iri' value", ""),
        (_node_with(key=VOC + "p q"), "property key", VOC + "p q"),
        (_node_with(datatype="Dat e"), "datatype", "Dat e"),
        (_node_with(iri=EX + "a<b>"), "'iri' value", EX + "a<b>"),
        (_node_with(key=VOC + "p^q"), "property key", VOC + "p^q"),
        (_node_with(datatype="urn:dt`x"), "datatype", "urn:dt`x"),
    ],
    ids=["iri-value-space", "iri-value-empty", "key-space", "datatype-space",
         "iri-value-angle", "key-caret", "datatype-backtick"],
)
def test_invert_graph_names_the_node_with_an_unusable_iri(graph, role, value):
    with pytest.raises(NonIriLabel) as err:
        dep.invert_graph(graph)
    (n,) = graph.nodes
    assert (err.value.element, err.value.role, err.value.label) == (graph.describe(n), role, value)
    assert str(err.value).startswith(f"node {VOC}T{{")


def test_invert_schema_names_the_type_with_an_unusable_iri():
    with pytest.raises(NonIriLabel) as err:
        dep.invert_schema(canonical_schema({VOC + "T": [(VOC + "when", "Dat e")]}, []))
    assert str(err.value) == (
        f"property type '{VOC}when' carries datatype 'Dat e', which is not usable as an IRI"
    )

    with pytest.raises(NonIriLabel) as err:
        dep.invert_database(
            canonical_schema({VOC + "T": [("a key", STRING)]}, []), canonical_graph([], [])
        )
    assert str(err.value) == (
        f"node type '{VOC}T' carries property key 'a key', which is not usable as an IRI"
    )


ORG = VOC + "Organisation"
TESLA_IRI = ("iri", PgValue(EX + "Tesla_Inc", STRING))
TESLA = Node(ORG, (
    (VOC + "creation", PgValue("2003-07-01", DATE)),
    (VOC + "name", PgValue("Tesla, Inc.", STRING)),
    TESLA_IRI,
))


def _org_pg_with(org_graph, *, nodes=(), edges=(), tesla=TESLA):
    """The org example's PG with its Tesla node replaced by `tesla`, then
    `nodes` and `edges` added; edge ends are positions among its nodes."""
    pg = dep.map_graph(org_graph)
    assert TESLA in pg.nodes
    return canonical_graph(
        [tesla if n == TESLA else n for n in pg.nodes] + list(nodes),
        list(pg.edges) + list(edges),
    )


@pytest.mark.parametrize(
    "edit, reason",
    [
        ({"nodes": [TESLA]}, "repeats the node before it"),
        ({"nodes": [Node(ORG, (TESLA_IRI,))]},
         f"holds the IRI of node {ORG}{{{VOC}creation='2003-07-01':Date, "
         f"{VOC}name='Tesla, Inc.':String, iri='{EX}Tesla_Inc':String}}"),
        ({"edges": [Edge(VOC + "ceo", 0, 1, ())]}, "repeats the edge before it"),
        ({"tesla": Node(ORG, tuple(sorted(
            TESLA.properties + ((VOC + "creation", PgValue("2004-01-01", DATE)),))))},
         f"holds two values for '{VOC}creation'"),
        ({"tesla": Node(ORG, TESLA.properties[:2] + (
            ("iri", PgValue(EX + "Tesla_Inc", "http://dt.example/iri")),))},
         "holds its 'iri' value as http://dt.example/iri, not String"),
    ],
    ids=["twin-node", "same-iri-fewer-properties", "twin-edge", "second-value", "iri-not-string"],
)
def test_invert_graph_refuses_a_graph_no_conversion_produces(org_graph, edit, reason):
    pg = _org_pg_with(org_graph, **edit)
    with pytest.raises(NotProducedByConversion) as err:
        dep.invert_graph(pg)
    assert err.value.reason == reason
    assert str(err.value) == f"{err.value.element} {reason}, which no conversion produces"
    assert err.value.element.startswith("edge " if "edges" in edit else f"node {ORG}{{")


def test_invert_graph_keeps_the_errors_of_two_iris_and_of_two_classes(org_graph):
    two_iris = Node(ORG, tuple(sorted(TESLA.properties + (("iri", PgValue(EX + "b", STRING)),))))
    with pytest.raises(MissingIriProperty):
        dep.invert_graph(_org_pg_with(org_graph, tesla=two_iris))
    with pytest.raises(ConflictingResourceClass) as err:
        dep.invert_graph(_org_pg_with(org_graph, nodes=[Node(VOC + "Person", (TESLA_IRI,))]))
    assert err.value.iri == EX + "Tesla_Inc"


def test_invert_graph_drops_edge_properties_with_warning():
    nodes = [
        Node(VOC + "T", (("iri", PgValue(EX + "a", STRING)),)),
        Node(VOC + "T", (("iri", PgValue(EX + "c", STRING)),)),
    ]
    edge = Edge(VOC + "p", 0, 1, (("since", PgValue("2003", DATE)),))
    with pytest.warns(UserWarning, match="dropped"):
        graph = dep.invert_graph(canonical_graph(nodes, [edge]))
    assert len(graph.object_edges) == 1


def test_invert_database_warns_with_the_report_of_a_nonconforming_graph():
    pg_schema = canonical_schema({"http://ex.org/T": [("http://ex.org/p", INTEGER)]}, [])
    node = Node("http://ex.org/X", (
        ("http://ex.org/p", PgValue("5", INTEGER)), ("iri", PgValue("http://ex.org/a", STRING)),
    ))
    pg = canonical_graph([node], [])
    with pytest.warns(ValidityWarning, match="input PG database is invalid") as caught:
        _, graph = dep.invert_database(pg_schema, pg)
    report = caught.pop(ValidityWarning).message.report
    assert report == validate_pg(pg, pg_schema) and not report.valid
    assert graph.resource_nodes == {Iri("http://ex.org/a"): Iri("http://ex.org/X")}


def test_custom_datatypes_survive_the_loop():
    text = f'<{EX}a> <{VOC}p> "42.5"^^<http://dt.example/temperature> .'
    graph = build_rdf_graph(parse_turtle(text))
    pg = dep.map_graph(graph)
    (node,) = pg.nodes
    values = dict(node.properties)
    assert values[VOC + "p"].datatype == "http://dt.example/temperature"
    assert rdf_equal(dep.invert_graph(pg), graph)


# -- whole-database round-trips -----------------------------------------------


def test_org_database_roundtrips(org_rdf_schema, org_graph):
    pgs, pg = dep.map_database(org_rdf_schema, org_graph)
    schema_back, graph_back = dep.invert_database(pgs, pg)
    assert rdf_equal(schema_back, org_rdf_schema)
    assert rdf_equal(graph_back, org_graph)


def test_empty_database_roundtrips():
    schema = build_rdf_schema(TripleSet())
    graph = build_rdf_graph(TripleSet())
    pgs, pg = dep.map_database(schema, graph)
    assert (pgs, pg) == (EMPTY_PG_SCHEMA, EMPTY_PG)
    schema_back, graph_back = dep.invert_database(pgs, pg)
    assert (schema_back, graph_back) == (EMPTY_RDF_SCHEMA, EMPTY_RDF_GRAPH)


def test_mapping_is_deterministic(org_rdf_schema, org_graph):
    assert dep.map_schema(org_rdf_schema) == dep.map_schema(org_rdf_schema)
    assert dep.map_graph(org_graph) == dep.map_graph(org_graph)


def test_generated_databases_roundtrip_exactly():
    for seed in range(100):
        schema, graph = gen_rdf_database(GeneratorConfig(seed=seed))
        pgs, pg = dep.map_database(schema, graph)
        assert validate_pg(pg, pgs).valid, seed
        schema_back, graph_back = dep.invert_database(pgs, pg)
        assert rdf_equal(schema, schema_back), seed
        assert rdf_equal(graph, graph_back), seed


def test_completed_schema_still_roundtrips(org_schema_triples, org_graph):
    removed = Triple(Iri(VOC + "ceo"), RDFS_RANGE, Iri(VOC + "Person"))
    partial = TripleSet(org_schema_triples - {removed}, org_schema_triples.prefixes)
    schema = build_rdf_schema(complete_partial_schema(partial))
    assert RDFS_RESOURCE in schema.class_nodes
    # the instance no longer matches the widened schema, so expect a warning
    assert not validate_rdf(org_graph, schema).valid
    with pytest.warns(ValidityWarning):
        pgs, pg = dep.map_database(schema, org_graph)
    with pytest.warns(ValidityWarning):
        schema_back, graph_back = dep.invert_database(pgs, pg)
    assert rdf_equal(schema_back, schema)
    assert rdf_equal(graph_back, org_graph)


def test_map_schema_range_without_a_node_type_rejected():
    p, a, b = Iri(VOC + "p"), Iri(VOC + "A"), Iri(VOC + "B")  # B is no class of the schema
    with pytest.raises(MissingEndpointType) as err:
        dep.map_schema(RdfGraphSchema(frozenset({a}), frozenset({(p, a, b)})))
    assert str(err.value) == (
        f"property {p}: range class {b} is excluded from node types, "
        "so the property cannot be placed"
    )
