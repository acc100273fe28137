"""Property graphs are built in canonical order and compare with ==.

The pins below fix the canonical order of a graph whose nodes cannot all be
told apart: two identical nodes that each have an edge to a third node. Ties
between equal keys fall back to insertion order, for nodes and for edges.
"""

from __future__ import annotations

import random

import pytest

from rdfpg.cypher import export_import_script
from rdfpg.errors import AmbiguousCanonicalKey
from rdfpg.generator import GeneratorConfig, gen_property_graph
from rdfpg.pg_graph import INTEGER, STRING, PgValue, PropertyGraph, PropertyGraphBuilder, pg_equal
from rdfpg.pg_json import parse_pg, serialize_pg


def _twins() -> PropertyGraph:
    b = PropertyGraphBuilder()
    c = b.add_node("C")
    b.add_property(c, "k", PgValue("c", STRING))
    t1 = b.add_node("T")
    b.add_property(t1, "k", PgValue("x", STRING))
    t2 = b.add_node("T")
    b.add_property(t2, "k", PgValue("x", STRING))
    b.add_edge("r", t2, c)
    b.add_edge("r", t1, c)
    e = b.add_edge("s", t1, t2)
    b.add_property(e, "w", PgValue("1", INTEGER))
    return b.build()


def _prop(key: str, datatype: str, value: str) -> str:
    return (
        "        {\n"
        f'          "key": "{key}",\n'
        f'          "type": "{datatype}",\n'
        f'          "value": "{value}"\n'
        "        }"
    )


def _element(fields: list[str]) -> str:
    return "    {\n" + ",\n".join("      " + f for f in fields) + "\n    }"


def _props(*props: str) -> str:
    return '"properties": ' + ("[\n" + ",\n".join(props) + "\n      ]" if props else "[]")


TWINS_DOCUMENT = (
    '{\n  "edges": [\n'
    + ",\n".join([
        _element(['"id": "e0"', '"label": "r"', _props(), '"source": "n2"', '"target": "n0"']),
        _element(['"id": "e1"', '"label": "r"', _props(), '"source": "n1"', '"target": "n0"']),
        _element([
            '"id": "e2"', '"label": "s"', _props(_prop("w", "Integer", "1")),
            '"source": "n1"', '"target": "n2"',
        ]),
    ])
    + '\n  ],\n  "nodes": [\n'
    + ",\n".join([
        _element(['"id": "n0"', '"label": "C"', _props(_prop("k", "String", "c"))]),
        _element(['"id": "n1"', '"label": "T"', _props(_prop("k", "String", "x"))]),
        _element(['"id": "n2"', '"label": "T"', _props(_prop("k", "String", "x"))]),
    ])
    + "\n  ]\n}\n"
)


def test_twin_nodes_serialize_in_insertion_order_among_equals():
    assert serialize_pg(_twins()) == TWINS_DOCUMENT


def test_twin_nodes_cypher_export():
    assert export_import_script(_twins()) == (
        "CREATE (:C {_rdfpg_id: 0, k: 'c'});\n"
        "CREATE (:T {_rdfpg_id: 1, k: 'x'});\n"
        "CREATE (:T {_rdfpg_id: 2, k: 'x'});\n"
        "MATCH (a {_rdfpg_id: 2}), (b {_rdfpg_id: 0}) CREATE (a)-[:r]->(b);\n"
        "MATCH (a {_rdfpg_id: 1}), (b {_rdfpg_id: 0}) CREATE (a)-[:r]->(b);\n"
        "MATCH (a {_rdfpg_id: 1}), (b {_rdfpg_id: 2}) CREATE (a)-[:s {w: 1}]->(b);\n"
    )


def test_twin_nodes_make_pg_equal_raise():
    with pytest.raises(AmbiguousCanonicalKey) as err:
        pg_equal(_twins(), _twins())
    assert err.value.key == "('T', (('k', 'x', 'String'),))"
    assert str(err.value) == (
        "two distinct nodes share the canonical key ('T', (('k', 'x', 'String'),))"
    )


def _rebuild(graph: PropertyGraph, rng: random.Random, drop: int | None = None) -> PropertyGraph:
    """`graph` built again with nodes, edges and properties added in a shuffled
    order; `drop` leaves out the property of that index in the shuffled list."""
    b = PropertyGraphBuilder()
    handle = {}
    elements = graph.nodes + graph.edges  # an element's id is its position here
    nodes = list(range(len(graph.nodes)))
    rng.shuffle(nodes)
    for n in nodes:
        handle[n] = b.add_node(elements[n].label)
    edges = list(range(len(graph.nodes), len(elements)))
    rng.shuffle(edges)
    for e in edges:
        label, src, dst, _ = elements[e]
        handle[e] = b.add_edge(label, handle[src], handle[dst])
    properties = [
        (owner, key, value)
        for owner, element in enumerate(elements)
        for key, value in element.properties
    ]
    rng.shuffle(properties)
    for i, (owner, key, value) in enumerate(properties):
        if i != drop:
            b.add_property(handle[owner], key, value)
    return b.build()


@pytest.mark.parametrize("seed", range(60))
def test_generated_graphs_compare_with_eq(seed):
    graph = gen_property_graph(GeneratorConfig(seed=seed))
    rng = random.Random(seed)
    shuffled = _rebuild(graph, rng)
    assert shuffled == graph
    assert parse_pg(serialize_pg(graph)) == graph
    others = [
        shuffled,
        _rebuild(graph, rng, drop=0),
        gen_property_graph(GeneratorConfig(seed=seed + 1)),
    ]
    for other in others:
        assert pg_equal(graph, other) == (graph == other)
    if any(element.properties for element in graph.nodes + graph.edges):
        assert others[1] != graph
