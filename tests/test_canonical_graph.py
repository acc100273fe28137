"""`canonical_graph` is the one owner of an element's canonical form and of
canonical order.

Its order is pinned against a reference kept here: each element's
properties sorted, then the sort that compares edge endpoints as whole
nodes, not as ranks. The elements drawn are plain tuples or named tuples
with their properties in any order. Both mappings and `parse_pg` pass it
plain tuples; each must give the graph that the reference gives for the
same elements, and their properties, in a shuffled order.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.generator import GeneratorConfig, gen_property_graph, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_graph import (
    Edge,
    INTEGER,
    IRI_PROPERTY_KEY,
    Node,
    PgValue,
    PropertyGraph,
    STRING,
    canonical_graph,
)
from rdfpg.pg_json import parse_pg, serialize_pg

SEEDS = range(300)


def _reference(nodes: list[tuple], edges: list[tuple]) -> PropertyGraph:
    """Canonical order with endpoints compared as nodes: each element's
    properties sorted, then nodes sorted, then edges by (source node, label,
    properties, target node), both stable."""
    nodes = [Node(label, tuple(sorted(properties))) for label, properties in nodes]
    edges = [Edge(label, s, t, tuple(sorted(properties))) for label, s, t, properties in edges]
    order = sorted(range(len(nodes)), key=nodes.__getitem__)
    position = {n: i for i, n in enumerate(order)}
    edges = sorted(edges, key=lambda e: (nodes[e.source], e.label, e.properties, nodes[e.target]))
    return PropertyGraph(
        tuple(nodes[n] for n in order),
        tuple(Edge(e.label, position[e.source], position[e.target], e.properties) for e in edges),
    )


# Few labels, keys and values, so that twin nodes, edges between twins and
# duplicate edges are common. Properties come in the order drawn, as a list
# or a tuple, and elements as plain tuples or named tuples.
_properties = st.lists(
    st.tuples(
        st.sampled_from("ab"),
        st.builds(PgValue, st.sampled_from("xy"), st.sampled_from((STRING, INTEGER))),
    ),
    max_size=3,
).flatmap(lambda ps: st.sampled_from((ps, tuple(ps))))


@st.composite
def _elements(draw) -> tuple[list[tuple], list[tuple]]:
    node = st.tuples(st.sampled_from("AB"), _properties)
    nodes = draw(st.lists(st.one_of(node, node.map(Node._make)), max_size=8))
    if not nodes:
        return nodes, []
    ends = st.integers(0, len(nodes) - 1)
    edge = st.tuples(st.sampled_from("rs"), ends, ends, _properties)
    edges = draw(st.lists(st.one_of(edge, edge.map(Edge._make)), max_size=12))
    return nodes, edges


@settings(max_examples=300, deadline=None)
@given(_elements())
def test_canonical_graph_gives_the_reference_order(elements):
    nodes, edges = elements
    assert canonical_graph(nodes, edges) == _reference(nodes, edges)


def test_reference_order_with_twins_and_duplicate_edges():
    """Twins, edges between them and duplicate edges, in many shuffled orders."""
    twin = Node("T", (("k", PgValue("x", STRING)),))
    base_nodes = [Node("C", ()), twin, twin, Node("A", (("k", PgValue("1", INTEGER)),))]
    base_edges = [
        Edge("r", 1, 2, ()),
        Edge("r", 2, 1, ()),
        Edge("r", 1, 0, ()),
        Edge("r", 1, 0, ()),
        Edge("r", 2, 0, ()),
        Edge("s", 3, 1, (("w", PgValue("1", INTEGER)),)),
        Edge("r", 3, 3, ()),
    ]
    rng = random.Random(7)
    for _ in range(200):
        perm = rng.sample(range(len(base_nodes)), len(base_nodes))
        at = {old: new for new, old in enumerate(perm)}
        nodes = [base_nodes[old] for old in perm]
        edges = [Edge(e.label, at[e.source], at[e.target], e.properties) for e in base_edges]
        rng.shuffle(edges)
        assert canonical_graph(nodes, edges) == _reference(nodes, edges)


def test_canonical_graph_of_nothing_is_the_empty_graph():
    assert canonical_graph([], []) == PropertyGraph((), ()) == _reference([], [])


# -- the producers ---------------------------------------------------------------


def _dep_elements(graph, rng: random.Random) -> tuple[list[tuple], list[tuple]]:
    """The schema-dependent mapping's nodes and edges, and each node's
    properties, in a shuffled order."""
    iris = rng.sample(sorted(graph.resource_nodes), len(graph.resource_nodes))
    properties = {iri: [(IRI_PROPERTY_KEY, PgValue(iri.value, STRING))] for iri in iris}
    for t in rng.sample(sorted(graph.datatype_edges), len(graph.datatype_edges)):
        datatype = dep.PG_DATATYPE_OF.get(t.o.datatype, t.o.datatype.value)
        properties[t.s].append((t.p.value, PgValue(t.o.lexical, datatype)))
    nodes = [(graph.resource_nodes[iri].value, properties[iri]) for iri in iris]
    node_of = {iri: n for n, iri in enumerate(iris)}
    edges = [
        (t.p.value, node_of[t.s], node_of[t.o], ())
        for t in rng.sample(sorted(graph.object_edges), len(graph.object_edges))
    ]
    return nodes, edges


def _indep_elements(graph, rng: random.Random) -> tuple[list[tuple], list[tuple]]:
    """The schema-independent mapping's nodes and edges in a shuffled order,
    each node's properties out of key order."""
    elements = [(iri, True) for iri in graph.resource_nodes]
    elements += [(lit, False) for lit in graph.literal_nodes]
    nodes = []
    node_of = {}
    for element, is_resource in rng.sample(elements, len(elements)):
        node_of[element] = len(nodes)
        if is_resource:
            nodes.append((indep.RESOURCE_LABEL, (
                (indep.TYPE_KEY, PgValue(graph.resource_nodes[element].value, STRING)),
                (IRI_PROPERTY_KEY, PgValue(element.value, STRING)),
            )))
        else:
            nodes.append((indep.LITERAL_LABEL, (
                (indep.VALUE_KEY, PgValue(element.lexical, STRING)),
                (indep.TYPE_KEY, PgValue(element.datatype.value, STRING)),
            )))
    labeled = [(t, indep.DATATYPE_PROPERTY_LABEL) for t in graph.datatype_edges]
    labeled += [(t, indep.OBJECT_PROPERTY_LABEL) for t in graph.object_edges]
    edges = [
        (label, node_of[t.s], node_of[t.o], ((indep.TYPE_KEY, PgValue(t.p.value, STRING)),))
        for t, label in rng.sample(labeled, len(labeled))
    ]
    return nodes, edges


def test_schema_dependent_map_graph_equals_the_built_graph():
    for seed in SEEDS:
        _, graph = gen_rdf_database(GeneratorConfig().with_seed(seed))
        expected = _reference(*_dep_elements(graph, random.Random(seed)))
        assert dep.map_graph(graph) == expected, seed


def test_schema_independent_map_graph_equals_the_built_graph():
    for seed in SEEDS:
        graph = gen_rdf_graph(GeneratorConfig().with_seed(seed))
        expected = _reference(*_indep_elements(graph, random.Random(seed)))
        assert indep.map_graph(graph) == expected, seed


def test_parse_pg_ignores_the_order_of_the_document():
    """A document whose nodes are permuted, renumbered and pointed at by
    shuffled edges parses to the canonical document's graph."""
    for seed in SEEDS:
        graph = gen_property_graph(GeneratorConfig().with_seed(seed))
        text = serialize_pg(graph)
        assert parse_pg(text) == graph
        doc = json.loads(text)
        rng = random.Random(seed)
        rng.shuffle(doc["nodes"])
        renamed = {node["id"]: f"n{i}" for i, node in enumerate(doc["nodes"])}
        for node in doc["nodes"]:
            node["id"] = renamed[node["id"]]
            rng.shuffle(node["properties"])
        for edge in doc["edges"]:
            edge["source"], edge["target"] = renamed[edge["source"]], renamed[edge["target"]]
            rng.shuffle(edge["properties"])
        rng.shuffle(doc["edges"])
        assert parse_pg(json.dumps(doc)) == graph, seed
