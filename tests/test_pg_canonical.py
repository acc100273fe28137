"""Property graphs are built in canonical order and compare with ==.

The pins below fix the canonical order of a graph whose nodes cannot all be
told apart: two identical nodes that each have an edge to a third node. Ties
between equal keys fall back to insertion order, for nodes and for edges.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from rdfpg.cypher import export_import_script
from rdfpg.generator import GeneratorConfig, gen_property_graph
from rdfpg.pg_graph import (
    INTEGER,
    STRING,
    Edge,
    Node,
    PgValue,
    PropertyGraph,
    canonical_graph,
)
from rdfpg.pg_json import parse_pg, serialize_pg


def _twins() -> PropertyGraph:
    c, t1, t2 = range(3)
    nodes = [
        Node("C", (("k", PgValue("c", STRING)),)),
        Node("T", (("k", PgValue("x", STRING)),)),
        Node("T", (("k", PgValue("x", STRING)),)),
    ]
    edges = [
        Edge("r", t2, c, ()),
        Edge("r", t1, c, ()),
        Edge("s", t1, t2, (("w", PgValue("1", INTEGER)),)),
    ]
    return canonical_graph(nodes, edges)


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


def _rebuild(graph: PropertyGraph, rng: random.Random, drop: int | None = None) -> PropertyGraph:
    """`graph` built again from its nodes and edges in a shuffled order, and
    its properties in a shuffled order, sorted again per element; `drop`
    leaves out the property of that index in the shuffled list."""
    elements = graph.nodes + graph.edges  # an element's id is its position here
    nodes = list(range(len(graph.nodes)))
    rng.shuffle(nodes)
    edges = list(range(len(graph.nodes), len(elements)))
    rng.shuffle(edges)
    properties = [
        (owner, key, value)
        for owner, element in enumerate(elements)
        for key, value in element.properties
    ]
    rng.shuffle(properties)
    kept = defaultdict(list)
    for i, (owner, key, value) in enumerate(properties):
        if i != drop:
            kept[owner].append((key, value))
    position = {n: i for i, n in enumerate(nodes)}
    return canonical_graph(
        [Node(elements[n].label, tuple(sorted(kept[n]))) for n in nodes],
        [
            Edge(
                elements[e].label,
                position[elements[e].source],
                position[elements[e].target],
                tuple(sorted(kept[e])),
            )
            for e in edges
        ],
    )


@pytest.mark.parametrize("seed", range(60))
def test_generated_graphs_compare_with_eq(seed):
    graph = gen_property_graph(GeneratorConfig(seed=seed))
    rng = random.Random(seed)
    shuffled = _rebuild(graph, rng)
    assert shuffled == graph
    assert parse_pg(serialize_pg(graph)) == graph
    dropped = _rebuild(graph, rng, drop=0)
    if any(element.properties for element in graph.nodes + graph.edges):
        assert dropped != graph
