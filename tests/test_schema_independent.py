"""Schema-independent conversion and its inverse."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMPTY_PG, EMPTY_RDF_GRAPH

from rdfpg import schema_independent as indep
from rdfpg.errors import (
    MissingRequiredProperty,
    NonIriLabel,
    NotGenericSchema,
    NotProducedByConversion,
    SchemaViolation,
)
from rdfpg.generator import GeneratorConfig, gen_rdf_graph
from rdfpg.pg_graph import (
    Edge,
    EdgeType,
    Node,
    PgValue,
    PropertyGraphSchema,
    STRING,
    canonical_graph,
    canonical_schema,
    validate_pg,
)
from rdfpg.rdf_graph import RdfGraph, build_rdf_graph, rdf_equal
from rdfpg.terms import Iri, Literal, RDFS_RESOURCE, Triple, TripleSet
from rdfpg.turtle import parse_turtle

VOC = "http://www.example.org/voc/"
EX = "http://www.example.org/data/"
XSD = "http://www.w3.org/2001/XMLSchema#"


# -- the generic schema ---------------------------------------------------------


def test_generic_schema_shape():
    string_type = ("type", STRING)
    assert indep.generic_schema() == PropertyGraphSchema(
        node_types={
            "Literal": (string_type, ("value", STRING)),
            "Resource": (("iri", STRING), string_type),
        },
        edge_types=(
            EdgeType("DatatypeProperty", "Resource", "Literal", (string_type,)),
            EdgeType("ObjectProperty", "Resource", "Resource", (string_type,)),
        ),
    )


def test_generic_schema_is_in_canonical_order():
    # canonical_schema orders the same types given in any order.
    built = canonical_schema(
        {
            "Resource": [("type", STRING), ("iri", STRING)],
            "Literal": [("value", STRING), ("type", STRING)],
        },
        [
            EdgeType("ObjectProperty", "Resource", "Resource", (("type", STRING),)),
            EdgeType("DatatypeProperty", "Resource", "Literal", (("type", STRING),)),
        ],
    )
    schema = indep.generic_schema()
    assert schema == built
    assert list(schema.node_types) == list(built.node_types) == ["Literal", "Resource"]


def test_generic_schema_is_constant():
    assert indep.generic_schema() == indep.generic_schema()


def test_require_generic_schema_names_the_first_differing_type():
    indep.require_generic_schema(indep.generic_schema())
    types_only = canonical_schema(
        {"Literal": [("type", STRING)], "Resource": [("type", STRING)]}, []
    )
    with pytest.raises(NotGenericSchema, match="its node type 'Literal' differs"):
        indep.require_generic_schema(types_only)
    generic = indep.generic_schema()
    edge_types = (generic.edge_types[0], EdgeType("ObjectProperty", "Resource", "Resource", ()))
    with pytest.raises(NotGenericSchema, match="its edge type 'ObjectProperty' differs"):
        indep.require_generic_schema(PropertyGraphSchema(generic.node_types, edge_types))


# -- forward mapping -------------------------------------------------------------


def test_map_graph_org_example(org_graph):
    pg = indep.map_graph(org_graph)
    assert len(pg.nodes) == 6
    assert len(pg.edges) == 5
    assert sum(len(element.properties) for element in pg.nodes + pg.edges) == 17
    labels = [node.label for node in pg.nodes]
    assert labels.count("Resource") == 2
    assert labels.count("Literal") == 4
    edge_labels = [edge.label for edge in pg.edges]
    assert edge_labels.count("ObjectProperty") == 1
    assert edge_labels.count("DatatypeProperty") == 4
    # every element keeps its class in a "type" property
    resource = next(
        n for n in pg.nodes
        if ("iri", PgValue(EX + "Tesla_Inc", STRING)) in n.properties
    )
    assert dict(resource.properties)["type"] == PgValue(VOC + "Organisation", STRING)
    object_edge = next(e for e in pg.edges if e.label == "ObjectProperty")
    assert dict(object_edge.properties)["type"] == PgValue(VOC + "ceo", STRING)


def test_map_graph_empty():
    assert indep.map_graph(build_rdf_graph(TripleSet())) == EMPTY_PG


def test_map_graph_single_datatype_triple():
    pg = indep.map_graph(build_rdf_graph(parse_turtle(f'<{EX}a> <{VOC}p> "x" .')))
    assert {n.label for n in pg.nodes} == {"Resource", "Literal"}
    (edge,) = pg.edges
    assert edge.label == "DatatypeProperty"


def test_map_database_always_validates():
    for seed in range(50):
        graph = gen_rdf_graph(GeneratorConfig(seed=seed))
        schema, pg = indep.map_database(graph)
        assert validate_pg(pg, schema).valid, seed


def test_element_counts_are_arithmetic():
    for seed in range(50):
        graph = gen_rdf_graph(GeneratorConfig(seed=seed))
        pg = indep.map_graph(graph)
        n_nodes = len(graph.resource_nodes) + len(graph.literal_nodes)
        n_edges = len(graph.object_edges) + len(graph.datatype_edges)
        assert len(pg.nodes) == n_nodes, seed
        assert len(pg.edges) == n_edges, seed
        assert sum(len(e.properties) for e in pg.nodes + pg.edges) == 2 * n_nodes + n_edges, seed


# -- inverse mapping --------------------------------------------------------------


def test_invert_recovers_org(org_graph):
    assert rdf_equal(indep.invert_graph(indep.map_graph(org_graph)), org_graph)


def test_invert_empty():
    assert indep.invert_graph(canonical_graph([], [])) == EMPTY_RDF_GRAPH


def test_generated_graphs_roundtrip():
    for seed in range(100):
        graph = gen_rdf_graph(GeneratorConfig(seed=seed))
        assert rdf_equal(indep.invert_graph(indep.map_graph(graph)), graph), seed


def test_handles_inputs_the_dependent_route_rejects():
    # multi-valued property and an untyped subject in one graph
    text = f'<{EX}a> <{VOC}name> "x" , "y" .'
    graph = build_rdf_graph(parse_turtle(text))
    assert rdf_equal(indep.invert_graph(indep.map_graph(graph)), graph)


def test_isolated_and_shared_literals_roundtrip():
    a, c = Iri(EX + "a"), Iri(EX + "c")
    shared = Literal("46", Iri(XSD + "int"))
    graph = RdfGraph(
        {a: Iri(VOC + "T"), c: RDFS_RESOURCE},
        frozenset({
            shared,
            Literal("46", Iri(XSD + "string")),  # same lexical, different datatype
            Literal("orphan", Iri(XSD + "string")),  # no incident edge
        }),
        frozenset({Triple(a, Iri(VOC + "loop"), a)}),
        frozenset({Triple(a, Iri(VOC + "p"), shared), Triple(c, Iri(VOC + "p"), shared)}),
    )
    assert rdf_equal(indep.invert_graph(indep.map_graph(graph)), graph)


@st.composite
def rdf_graphs(draw):
    resources = {}
    for i in range(draw(st.integers(0, 6))):
        label = draw(st.sampled_from((VOC + "A", VOC + "B", RDFS_RESOURCE.value)))
        resources[Iri(f"{EX}r{i}")] = Iri(label)
    literals = []
    for _ in range(draw(st.integers(0, 6))):
        lexical = draw(st.text(max_size=6))
        datatype = draw(
            st.sampled_from((XSD + "string", XSD + "int", "http://dt.example/z"))
        )
        literals.append(Literal(lexical, Iri(datatype)))
    subjects = list(resources)
    object_edges, datatype_edges = set(), set()
    if subjects:
        for _ in range(draw(st.integers(0, 8))):
            prop = Iri(draw(st.sampled_from((VOC + "p", VOC + "q"))))
            if literals and draw(st.booleans()):
                datatype_edges.add(Triple(
                    draw(st.sampled_from(subjects)), prop, draw(st.sampled_from(literals))
                ))
            else:
                object_edges.add(Triple(
                    draw(st.sampled_from(subjects)), prop, draw(st.sampled_from(subjects))
                ))
    return RdfGraph(resources, frozenset(literals), frozenset(object_edges),
                    frozenset(datatype_edges))


@settings(max_examples=200, deadline=None)
@given(rdf_graphs())
def test_roundtrip_holds_for_arbitrary_graphs(graph):
    schema, pg = indep.map_database(graph)
    assert validate_pg(pg, schema).valid
    assert rdf_equal(indep.invert_graph(pg), graph)


def test_invert_rejects_foreign_labels():
    with pytest.raises(SchemaViolation):
        indep.invert_graph(canonical_graph([Node("Widget", ())], []))


def test_invert_requires_bookkeeping_properties():
    empty = Node("Resource", ())  # conformant but empty: nothing to recover
    with pytest.raises(MissingRequiredProperty) as err:
        indep.invert_graph(canonical_graph([empty], []))
    assert err.value.count == 0

    two_iris = Node("Resource", (
        ("iri", PgValue(EX + "a", STRING)),
        ("iri", PgValue(EX + "b", STRING)),
        ("type", PgValue(VOC + "T", STRING)),
    ))
    with pytest.raises(MissingRequiredProperty) as err:
        indep.invert_graph(canonical_graph([two_iris], []))
    assert err.value.count == 2


@pytest.mark.parametrize(
    "iri, type_iri, role",
    [
        (EX + "a b", VOC + "T", "'iri' value"),
        (EX + "a", VOC + "T\tU", "'type' value"),
        (EX + "a", "", "'type' value"),
        (EX + "a{b}", VOC + "T", "'iri' value"),
        (EX + "a", VOC + "T|U", "'type' value"),
    ],
    ids=["iri-space", "type-tab", "type-empty", "iri-brace", "type-pipe"],
)
def test_invert_graph_names_the_node_with_an_unusable_iri(iri, type_iri, role):
    pg = canonical_graph([_resource(iri, type_iri)], [])
    with pytest.raises(NonIriLabel) as err:
        indep.invert_graph(pg)
    assert (err.value.element, err.value.role) == (pg.describe(pg.nodes[0]), role)
    assert str(err.value).startswith("node Resource{iri=")


def test_invert_graph_names_the_edge_with_an_unusable_iri():
    nodes = [_resource(EX + "a"), _resource(EX + "b")]
    edge = Edge("ObjectProperty", 0, 1, (("type", PgValue(VOC + "p q", STRING)),))
    with pytest.raises(NonIriLabel) as err:
        indep.invert_graph(canonical_graph(nodes, [edge]))
    assert str(err.value) == (
        f"edge Resource --ObjectProperty--> Resource carries 'type' value '{VOC}p q', "
        "which is not usable as an IRI"
    )


def test_invert_graph_makes_one_iri_per_type_string():
    """A "type" string shared by many elements is checked once: every element
    gets the same Iri object."""
    nodes = [_resource(EX + name) for name in ("a", "b", "c")]
    knows = (("type", PgValue(VOC + "knows", STRING)),)
    edges = [
        Edge("ObjectProperty", src, dst, knows)
        for src, dst in itertools.permutations(range(3), 2)
    ]
    graph = indep.invert_graph(canonical_graph(nodes, edges))
    predicates = [t.p for t in graph.object_edges]
    assert len(predicates) == 6
    assert all(p is predicates[0] for p in predicates)
    classes = list(graph.resource_nodes.values())
    assert all(c is classes[0] for c in classes)


# -- error precedence of the inverse ----------------------------------------------


def _resource(iri, type_iri=VOC + "T") -> Node:
    return Node("Resource", (("iri", PgValue(iri, STRING)), ("type", PgValue(type_iri, STRING))))


def test_schema_violation_outranks_an_unusable_iri_on_an_earlier_node():
    pg = canonical_graph([
        _resource(EX + "a b"),  # node 0: NonIriLabel on its own
        Node("Widget", ()),  # sorts after every Resource node
    ], [])
    assert pg.nodes[0].label == "Resource"
    with pytest.raises(SchemaViolation, match="no node type labeled 'Widget'"):
        indep.invert_graph(pg)


def test_schema_violation_outranks_a_class_conflict_on_an_earlier_node():
    nodes = [
        _resource(EX + "a", VOC + "T"),
        _resource(EX + "a", VOC + "U"),  # ConflictingResourceClass on its own
        Node("Widget", ()),
    ]
    with pytest.raises(SchemaViolation, match="no node type labeled 'Widget'"):
        indep.invert_graph(canonical_graph(nodes, []))


def test_literal_without_value_or_type_names_value_first():
    pg = canonical_graph([Node("Literal", ())], [])
    with pytest.raises(MissingRequiredProperty) as err:
        indep.invert_graph(pg)
    assert (err.value.element, err.value.label, err.value.count) == (
        pg.describe(pg.nodes[0]), "value", 0)


def test_edge_without_type_names_the_edge():
    nodes = [_resource(EX + "a"), _resource(EX + "b")]
    with pytest.raises(MissingRequiredProperty) as err:
        indep.invert_graph(canonical_graph(nodes, [Edge("ObjectProperty", 0, 1, ())]))
    assert (err.value.element, err.value.label, err.value.count) == (
        "edge Resource --ObjectProperty--> Resource", "type", 0)


# -- graphs no conversion produces -------------------------------------------------


def _literal(value="x", type_iri=XSD + "string") -> Node:
    return Node("Literal", (("type", PgValue(type_iri, STRING)), ("value", PgValue(value, STRING))))


def test_invert_refuses_twin_resource_nodes():
    pg = canonical_graph([_resource(EX + "a"), _resource(EX + "a")], [])
    with pytest.raises(NotProducedByConversion) as err:
        indep.invert_graph(pg)
    assert err.value.element == pg.describe(pg.nodes[1])
    assert str(err.value) == (
        f"node Resource{{iri='{EX}a':String, type='{VOC}T':String}} repeats the node "
        "before it, which no conversion produces"
    )


def test_invert_refuses_a_twin_literal_with_an_edge_moved_onto_it():
    p = (("type", PgValue(VOC + "p", STRING)),)
    pg = canonical_graph(
        [_resource(EX + "a"), _literal(), _literal()],
        [Edge("DatatypeProperty", 0, literal, p) for literal in (1, 2)],
    )
    with pytest.raises(NotProducedByConversion, match="repeats the node before it") as err:
        indep.invert_graph(pg)
    assert err.value.element.startswith("node Literal{")


def test_invert_refuses_twin_edges():
    knows = Edge("ObjectProperty", 0, 1, (("type", PgValue(VOC + "knows", STRING)),))
    with pytest.raises(NotProducedByConversion) as err:
        indep.invert_graph(canonical_graph([_resource(EX + "a"), _resource(EX + "c")], [knows] * 2))
    assert str(err.value) == (
        "edge Resource --ObjectProperty--> Resource repeats the edge before it, "
        "which no conversion produces"
    )


def test_invert_refuses_a_literal_node_with_an_iri():
    # The reserved "iri" property conforms on any node, but a Literal node
    # would lose it.
    literal = _literal()
    pg = canonical_graph(
        [Node(literal.label, (("iri", PgValue(EX + "a", STRING)), *literal.properties))], []
    )
    assert validate_pg(pg, indep.generic_schema()).valid
    with pytest.raises(NotProducedByConversion) as err:
        indep.invert_graph(pg)
    assert (err.value.element, err.value.reason) == (
        pg.describe(pg.nodes[0]), "carries the reserved property 'iri'")


def test_schema_violation_outranks_a_twin():
    with pytest.raises(SchemaViolation):
        indep.invert_graph(canonical_graph([_literal(), _literal(), Node("Widget", ())], []))


def test_a_missing_property_outranks_the_reserved_iri_on_a_literal():
    node = Node("Literal", (("iri", PgValue(EX + "a", STRING)), ("value", PgValue("x", STRING))))
    with pytest.raises(MissingRequiredProperty) as err:
        indep.invert_graph(canonical_graph([node], []))
    assert err.value.label == "type"
