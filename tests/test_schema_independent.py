"""Schema-independent conversion and its inverse."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMPTY_PG, EMPTY_RDF_GRAPH

from rdfpg import schema_independent as indep
from rdfpg.errors import (
    MissingRequiredProperty,
    NonIriLabel,
    NotGenericSchema,
    SchemaViolation,
)
from rdfpg.generator import GeneratorConfig, gen_rdf_graph
from rdfpg.pg_graph import (
    EdgeType,
    PgValue,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    PropertyGraphSchemaBuilder,
    STRING,
    validate_pg,
)
from rdfpg.rdf_graph import RdfGraphBuilder, build_rdf_graph, rdf_equal
from rdfpg.terms import Iri, RDFS_RESOURCE, TripleSet
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
    # The module writes the schema out by hand; the builder's order must match.
    b = PropertyGraphSchemaBuilder()
    resource = b.add_node_type("Resource")
    b.add_property_type(resource, "type", STRING)
    b.add_property_type(resource, "iri", STRING)
    literal = b.add_node_type("Literal")
    b.add_property_type(literal, "value", STRING)
    b.add_property_type(literal, "type", STRING)
    b.add_property_type(b.add_edge_type("ObjectProperty", resource, resource), "type", STRING)
    b.add_property_type(b.add_edge_type("DatatypeProperty", resource, literal), "type", STRING)
    built = b.build()
    schema = indep.generic_schema()
    assert schema == built
    assert list(schema.node_types) == list(built.node_types) == ["Literal", "Resource"]


def test_generic_schema_is_constant():
    assert indep.generic_schema() == indep.generic_schema()


def test_require_generic_schema_names_the_first_differing_type():
    indep.require_generic_schema(indep.generic_schema())
    b = PropertyGraphSchemaBuilder()
    for label in ("Literal", "Resource"):
        b.add_property_type(b.add_node_type(label), "type", STRING)
    with pytest.raises(NotGenericSchema, match="its node type 'Literal' differs"):
        indep.require_generic_schema(b.build())
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
    assert indep.invert_graph(PropertyGraphBuilder().build()) == EMPTY_RDF_GRAPH


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
    b = RdfGraphBuilder()
    a = b.add_resource(Iri(EX + "a"), Iri(VOC + "T"))
    c = b.add_resource(Iri(EX + "c"), RDFS_RESOURCE)
    shared = b.add_literal("46", Iri(XSD + "int"))
    b.add_literal("46", Iri(XSD + "string"))  # same lexical, different datatype
    b.add_literal("orphan", Iri(XSD + "string"))  # no incident edge
    b.add_datatype_edge(a, shared, Iri(VOC + "p"))
    b.add_datatype_edge(c, shared, Iri(VOC + "p"))
    b.add_object_edge(a, a, Iri(VOC + "loop"))
    graph = b.build()
    assert rdf_equal(indep.invert_graph(indep.map_graph(graph)), graph)


@st.composite
def rdf_graphs(draw):
    b = RdfGraphBuilder()
    resources = []
    for i in range(draw(st.integers(0, 6))):
        label = draw(st.sampled_from((VOC + "A", VOC + "B", RDFS_RESOURCE.value)))
        resources.append(b.add_resource(Iri(f"{EX}r{i}"), Iri(label)))
    literals = []
    for _ in range(draw(st.integers(0, 6))):
        lexical = draw(st.text(max_size=6))
        datatype = draw(
            st.sampled_from((XSD + "string", XSD + "int", "http://dt.example/z"))
        )
        literals.append(b.add_literal(lexical, Iri(datatype)))
    if resources:
        for _ in range(draw(st.integers(0, 8))):
            prop = Iri(draw(st.sampled_from((VOC + "p", VOC + "q"))))
            if literals and draw(st.booleans()):
                b.add_datatype_edge(
                    draw(st.sampled_from(resources)), draw(st.sampled_from(literals)), prop
                )
            else:
                b.add_object_edge(
                    draw(st.sampled_from(resources)), draw(st.sampled_from(resources)), prop
                )
    return b.build()


@settings(max_examples=200, deadline=None)
@given(rdf_graphs())
def test_roundtrip_holds_for_arbitrary_graphs(graph):
    schema, pg = indep.map_database(graph)
    assert validate_pg(pg, schema).valid
    assert rdf_equal(indep.invert_graph(pg), graph)


def test_invert_rejects_foreign_labels():
    b = PropertyGraphBuilder()
    b.add_node("Widget")
    with pytest.raises(SchemaViolation):
        indep.invert_graph(b.build())


def test_invert_requires_bookkeeping_properties():
    b = PropertyGraphBuilder()
    b.add_node("Resource")  # conformant but empty: nothing to recover
    with pytest.raises(MissingRequiredProperty) as err:
        indep.invert_graph(b.build())
    assert err.value.count == 0

    b = PropertyGraphBuilder()
    n = b.add_node("Resource")
    b.add_property(n, "iri", PgValue(EX + "a", STRING))
    b.add_property(n, "iri", PgValue(EX + "b", STRING))
    b.add_property(n, "type", PgValue(VOC + "T", STRING))
    with pytest.raises(MissingRequiredProperty) as err:
        indep.invert_graph(b.build())
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
    b = PropertyGraphBuilder()
    n = b.add_node("Resource")
    b.add_property(n, "iri", PgValue(iri, STRING))
    b.add_property(n, "type", PgValue(type_iri, STRING))
    pg = b.build()
    with pytest.raises(NonIriLabel) as err:
        indep.invert_graph(pg)
    assert (err.value.element, err.value.role) == (pg.describe(pg.nodes[0]), role)
    assert str(err.value).startswith("node Resource{iri=")


def test_invert_graph_names_the_edge_with_an_unusable_iri():
    b = PropertyGraphBuilder()
    nodes = []
    for name in ("a", "b"):
        n = b.add_node("Resource")
        b.add_property(n, "iri", PgValue(EX + name, STRING))
        b.add_property(n, "type", PgValue(VOC + "T", STRING))
        nodes.append(n)
    e = b.add_edge("ObjectProperty", *nodes)
    b.add_property(e, "type", PgValue(VOC + "p q", STRING))
    with pytest.raises(NonIriLabel) as err:
        indep.invert_graph(b.build())
    assert str(err.value) == (
        f"edge Resource --ObjectProperty--> Resource carries 'type' value '{VOC}p q', "
        "which is not usable as an IRI"
    )
