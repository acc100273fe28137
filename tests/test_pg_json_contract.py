"""The PG JSON reader's error contract and the writers' byte layout.

The error tables were recorded from the reader before it was rewritten:
each malformed document must keep its exception class and message, which
holds the JSON path of the first offending value. The layout tests use
`json.dumps(..., indent=2, sort_keys=True, ensure_ascii=False)` as the
oracle for the bytes the writers produce.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfpg.errors import DanglingEdgeEndpoint, FormatError
from rdfpg.generator import GeneratorConfig, gen_pg_schema, gen_property_graph
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
)
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema


def _doc(defaults: dict, fields: dict) -> dict:
    """`defaults` updated with `fields`; a field given as ... is left out."""
    merged = {**defaults, **fields}
    return {k: v for k, v in merged.items() if v is not ...}


def node(**fields):
    return _doc({"id": "n0", "label": "A", "properties": []}, fields)


def edge(**fields):
    return _doc(
        {"id": "e0", "label": "r", "source": "n0", "target": "n0", "properties": []}, fields
    )


def prop(**fields):
    return _doc({"key": "k", "value": "v", "type": "String"}, fields)


def graph(**fields):
    return _doc({"nodes": [node()], "edges": []}, fields)


def property_type(**fields):
    return _doc({"id": "pt0", "key": "k", "type": "String"}, fields)


def node_type(**fields):
    return _doc({"id": "nt0", "label": "A", "propertyTypes": ["pt0"]}, fields)


def edge_type(**fields):
    return _doc(
        {"id": "et0", "label": "r", "source": "nt0", "target": "nt0", "propertyTypes": []},
        fields,
    )


def schema(**fields):
    return _doc(
        {"nodeTypes": [node_type()], "edgeTypes": [], "propertyTypes": [property_type()]},
        fields,
    )


GRAPH_ERRORS = [
    pytest.param(
        "{",
        FormatError, '$: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)',
        id='not-json',
    ),
    pytest.param(
        [],
        FormatError, '$: expected an object, got list',
        id='root-list',
    ),
    pytest.param(
        graph(zz=1, aa=2),
        FormatError, '$: unknown field(s): aa, zz',
        id='root-unknown-fields',
    ),
    pytest.param(
        graph(nodes=...),
        FormatError, "$: missing required field 'nodes'",
        id='nodes-missing',
    ),
    pytest.param(
        graph(edges=...),
        FormatError, "$: missing required field 'edges'",
        id='edges-missing',
    ),
    pytest.param(
        graph(nodes={}),
        FormatError, '$.nodes: expected a list, got dict',
        id='nodes-not-list',
    ),
    pytest.param(
        graph(nodes=[node(), 1]),
        FormatError, '$.nodes[1]: expected an object, got int',
        id='node-not-object',
    ),
    pytest.param(
        graph(nodes=[node(zz=1, aa=None)]),
        FormatError, '$.nodes[0]: unknown field(s): aa, zz',
        id='node-unknown-fields',
    ),
    pytest.param(
        graph(nodes=[node(id=...)]),
        FormatError, "$.nodes[0]: missing required field 'id'",
        id='node-id-missing',
    ),
    pytest.param(
        graph(nodes=[node(id=5, label=...)]),
        FormatError, '$.nodes[0].id: expected a string, got int',
        id='node-id-int-before-label-missing',
    ),
    pytest.param(
        graph(nodes=[node(), node(label=7)]),
        FormatError, "$.nodes[1]: duplicate node id 'n0'",
        id='node-id-duplicate',
    ),
    pytest.param(
        graph(nodes=[node(label=None)]),
        FormatError, '$.nodes[0].label: expected a string, got NoneType',
        id='node-label-null',
    ),
    pytest.param(
        graph(nodes=[node(properties=...)]),
        FormatError, "$.nodes[0]: missing required field 'properties'",
        id='node-properties-missing',
    ),
    pytest.param(
        graph(nodes=[node(properties="x")]),
        FormatError, '$.nodes[0].properties: expected a list, got str',
        id='node-properties-not-list',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(), []])]),
        FormatError, '$.nodes[0].properties[1]: expected an object, got list',
        id='property-not-object',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(extra=1)])]),
        FormatError, '$.nodes[0].properties[0]: unknown field(s): extra',
        id='property-unknown-field',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(key=...)])]),
        FormatError, "$.nodes[0].properties[0]: missing required field 'key'",
        id='property-key-missing',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(key=..., value=1)])]),
        FormatError, "$.nodes[0].properties[0]: missing required field 'key'",
        id='property-key-missing-value-int',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(key=True)])]),
        FormatError, '$.nodes[0].properties[0].key: expected a string, got bool',
        id='property-key-bool',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(value=...)])]),
        FormatError, "$.nodes[0].properties[0]: missing required field 'value'",
        id='property-value-missing',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(value=1.5)])]),
        FormatError, '$.nodes[0].properties[0].value: expected a string, got float',
        id='property-value-float',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(type=...)])]),
        FormatError, "$.nodes[0].properties[0]: missing required field 'type'",
        id='property-type-missing',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(type="")])]),
        FormatError, '$.nodes[0].properties[0].type: datatype may not be empty',
        id='property-type-empty',
    ),
    pytest.param(
        graph(nodes=[node(properties=[prop(type=[])])]),
        FormatError, '$.nodes[0].properties[0].type: expected a string, got list',
        id='property-type-list',
    ),
    pytest.param(
        graph(edges=["e"]),
        FormatError, '$.edges[0]: expected an object, got str',
        id='edge-not-object',
    ),
    pytest.param(
        graph(edges="e"),
        FormatError, '$.edges: expected a list, got str',
        id='edges-not-list',
    ),
    pytest.param(
        graph(edges=[edge(weight=1)]),
        FormatError, '$.edges[0]: unknown field(s): weight',
        id='edge-unknown-field',
    ),
    pytest.param(
        graph(edges=[edge(id=...)]),
        FormatError, "$.edges[0]: missing required field 'id'",
        id='edge-id-missing',
    ),
    pytest.param(
        graph(edges=[edge(), edge(source=1)]),
        FormatError, "$.edges[1]: duplicate edge id 'e0'",
        id='edge-id-duplicate',
    ),
    pytest.param(
        graph(edges=[edge(source=1)]),
        FormatError, '$.edges[0].source: expected a string, got int',
        id='edge-source-int',
    ),
    pytest.param(
        graph(edges=[edge(target=...)]),
        FormatError, "$.edges[0]: missing required field 'target'",
        id='edge-target-missing',
    ),
    pytest.param(
        graph(edges=[edge(source="n9", label=...)]),
        DanglingEdgeEndpoint, '$.edges[0].source: edge e0 references unknown node id n9',
        id='edge-dangling-before-label',
    ),
    pytest.param(
        graph(edges=[edge(target="n9")]),
        DanglingEdgeEndpoint, '$.edges[0].target: edge e0 references unknown node id n9',
        id='edge-dangling-target',
    ),
    pytest.param(
        graph(edges=[edge(label=...)]),
        FormatError, "$.edges[0]: missing required field 'label'",
        id='edge-label-missing',
    ),
    pytest.param(
        graph(edges=[edge(properties=[prop(), prop(type="")])]),
        FormatError, '$.edges[0].properties[1].type: datatype may not be empty',
        id='edge-property-type-empty',
    ),
]

SCHEMA_ERRORS = [
    pytest.param(
        "[1,]",
        FormatError, '$: not valid JSON: Expecting value: line 1 column 4 (char 3)',
        id='not-json',
    ),
    pytest.param(
        "\"x\"",
        FormatError, '$: expected an object, got str',
        id='root-string',
    ),
    pytest.param(
        schema(nodes=[]),
        FormatError, '$: unknown field(s): nodes',
        id='root-unknown-field',
    ),
    pytest.param(
        schema(propertyTypes=...),
        FormatError, "$: missing required field 'propertyTypes'",
        id='property-types-missing',
    ),
    pytest.param(
        schema(propertyTypes=..., nodeTypes=1),
        FormatError, "$: missing required field 'propertyTypes'",
        id='property-types-missing-and-node-types-bad',
    ),
    pytest.param(
        schema(propertyTypes=[property_type(), 3]),
        FormatError, '$.propertyTypes[1]: expected an object, got int',
        id='property-type-not-object',
    ),
    pytest.param(
        schema(propertyTypes=[property_type(owner="nt0")]),
        FormatError, '$.propertyTypes[0]: unknown field(s): owner',
        id='property-type-unknown-field',
    ),
    pytest.param(
        schema(propertyTypes=[property_type(id=0)]),
        FormatError, '$.propertyTypes[0].id: expected a string, got int',
        id='property-type-id-int',
    ),
    pytest.param(
        schema(propertyTypes=[property_type(), property_type(key=1)]),
        FormatError, "$.propertyTypes[1]: duplicate property type id 'pt0'",
        id='property-type-id-duplicate',
    ),
    pytest.param(
        schema(propertyTypes=[property_type(key=...)]),
        FormatError, "$.propertyTypes[0]: missing required field 'key'",
        id='property-type-key-missing',
    ),
    pytest.param(
        schema(propertyTypes=[property_type(type="")]),
        FormatError, '$.propertyTypes[0].type: datatype may not be empty',
        id='property-type-type-empty',
    ),
    pytest.param(
        schema(nodeTypes=...),
        FormatError, "$: missing required field 'nodeTypes'",
        id='node-types-missing',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(x=1)]),
        FormatError, '$.nodeTypes[0]: unknown field(s): x',
        id='node-type-unknown-field',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(), node_type(label="B", propertyTypes=[])]),
        FormatError, "$.nodeTypes[1]: duplicate node type id 'nt0'",
        id='node-type-id-duplicate',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(), node_type(id="nt1", propertyTypes=[])]),
        FormatError, "$.nodeTypes[1]: duplicate node type label 'A'",
        id='node-type-label-duplicate',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(label=1)]),
        FormatError, '$.nodeTypes[0].label: expected a string, got int',
        id='node-type-label-int',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(propertyTypes=...)]),
        FormatError, "$.nodeTypes[0]: missing required field 'propertyTypes'",
        id='node-type-property-types-missing',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(propertyTypes="pt0")]),
        FormatError, '$.nodeTypes[0].propertyTypes: expected a list, got str',
        id='node-type-property-types-string',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(propertyTypes=[0])]),
        FormatError, '$.nodeTypes[0].propertyTypes[0]: expected a string, got int',
        id='node-type-ref-int',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(propertyTypes=["pt9"])]),
        FormatError, "$.nodeTypes[0].propertyTypes[0]: reference to unknown property type 'pt9'",
        id='node-type-ref-unknown',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(propertyTypes=["pt0", "pt0"])]),
        FormatError, "$.nodeTypes[0].propertyTypes[1]: property type 'pt0' is attached to more than one owner",
        id='node-type-ref-twice',
    ),
    pytest.param(
        schema(edgeTypes=...),
        FormatError, "$: missing required field 'edgeTypes'",
        id='edge-types-missing',
    ),
    pytest.param(
        schema(edgeTypes=[edge_type(x=1)]),
        FormatError, '$.edgeTypes[0]: unknown field(s): x',
        id='edge-type-unknown-field',
    ),
    pytest.param(
        schema(edgeTypes=[edge_type(), edge_type(label=2)]),
        FormatError, "$.edgeTypes[1]: duplicate edge type id 'et0'",
        id='edge-type-id-duplicate',
    ),
    pytest.param(
        schema(edgeTypes=[edge_type(source=0)]),
        FormatError, '$.edgeTypes[0].source: expected a string, got int',
        id='edge-type-source-int',
    ),
    pytest.param(
        schema(edgeTypes=[edge_type(target="nt9")]),
        FormatError, "$.edgeTypes[0]: reference to unknown node type 'nt9'",
        id='edge-type-target-unknown',
    ),
    pytest.param(
        schema(edgeTypes=[edge_type(source="nt9", label=...)]),
        FormatError, "$.edgeTypes[0]: reference to unknown node type 'nt9'",
        id='edge-type-unknown-ref-before-label',
    ),
    pytest.param(
        schema(edgeTypes=[edge_type(label=...)]),
        FormatError, "$.edgeTypes[0]: missing required field 'label'",
        id='edge-type-label-missing',
    ),
    pytest.param(
        schema(edgeTypes=[edge_type(propertyTypes=["pt0"])]),
        FormatError, "$.edgeTypes[0].propertyTypes[0]: property type 'pt0' is attached to more than one owner",
        id='edge-type-ref-shared',
    ),
    pytest.param(
        schema(nodeTypes=[node_type(propertyTypes=[])], propertyTypes=[property_type(), property_type(id="pt1"), property_type(id="pt10")]),
        FormatError, '$.propertyTypes: property types never referenced: pt0, pt1, pt10',
        id='property-types-unreferenced',
    ),
]


def _text(document) -> str:
    return document if isinstance(document, str) else json.dumps(document)


@pytest.mark.parametrize("document, error, message", GRAPH_ERRORS)
def test_graph_reader_errors(document, error, message):
    with pytest.raises(error) as caught:
        parse_pg(_text(document))
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("document, error, message", SCHEMA_ERRORS)
def test_schema_reader_errors(document, error, message):
    with pytest.raises(error) as caught:
        parse_pg_schema(_text(document))
    assert type(caught.value) is error
    assert str(caught.value) == message


# -- byte layout of the writers ----------------------------------------------

AWKWARD = [
    "",
    '"quoted" \\back\\slash\\',
    "".join(map(chr, range(0x20))),
    "del\x7f",
    "line\u2028para\u2029",
    "non-BMP \U0001f600 \U00010348",
    "caf\u00e9 \u00fc\u00df \u4e2d\u6587",
    "\ufeffbom",
]


def _oracle(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _awkward_graph():
    nodes = [
        Node(text, tuple(sorted([
            (text, PgValue(text, STRING)),
            (f"k{i}", PgValue(f"{i}", INTEGER)),
            ("dt", PgValue(text, f"urn:dt:{text}")),
        ])))
        for i, text in enumerate(AWKWARD)
    ]
    bare = len(nodes)
    nodes.append(Node("no properties", ()))
    edges = [
        Edge(text, i, (i - 1) % len(AWKWARD), ((text, PgValue(text, "http://ex.org/dt")),))
        for i, text in enumerate(AWKWARD)
    ]
    edges.append(Edge("bare edge", bare, bare, ()))
    return canonical_graph(nodes, edges)


def _awkward_schema():
    node_types = {
        text: [(text, STRING), (f"k{i}", f"urn:dt:{text}")] for i, text in enumerate(AWKWARD)
    }
    node_types["no property types"] = []
    edge_types = [
        EdgeType(text, text, AWKWARD[i - 1], ((text, DATE),)) for i, text in enumerate(AWKWARD)
    ]
    edge_types.append(EdgeType("bare edge type", "no property types", "no property types", ()))
    return canonical_schema(node_types, edge_types)


def test_graph_layout_matches_the_json_module():
    text = serialize_pg(_awkward_graph())
    assert text == _oracle(text)
    assert "\U0001f600" in text and "\\u0000" in text and "\u2028" in text


def test_schema_layout_matches_the_json_module():
    text = serialize_pg_schema(_awkward_schema())
    assert text == _oracle(text)


def test_empty_documents_layout():
    assert serialize_pg(canonical_graph([], [])) == '{\n  "edges": [],\n  "nodes": []\n}\n'
    assert serialize_pg_schema(canonical_schema({}, [])) == (
        '{\n  "edgeTypes": [],\n  "nodeTypes": [],\n  "propertyTypes": []\n}\n'
    )


def test_generated_documents_layout():
    for seed in range(20):
        config = GeneratorConfig(seed=seed)
        for text in (
            serialize_pg(gen_property_graph(config)),
            serialize_pg_schema(gen_pg_schema(config)),
        ):
            assert text == _oracle(text), f"seed {seed}"


_strings = st.text(
    st.one_of(
        st.characters(blacklist_categories=()),  # every category, surrogates included
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\U0001f600"]),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_strings, _strings, _strings, _strings), max_size=6))
def test_layout_holds_for_any_strings(rows):
    nodes = [
        Node(label, ((key, PgValue(value, "urn:" + datatype)),))
        for label, key, value, datatype in rows
    ]
    edges = [
        Edge(label, n - 1, n, ((value, PgValue(key, STRING)),))
        for n, (label, key, value, _) in enumerate(rows)
        if n
    ]
    text = serialize_pg(canonical_graph(nodes, edges))
    assert text == _oracle(text)


# -- lone surrogates -----------------------------------------------------------


@pytest.mark.parametrize(
    "document, path",
    [
        (graph(nodes=[node(properties=[prop(value="x\ud800y")])]), "$.nodes[0].properties[0].value"),
        (graph(nodes=[node(), node(id="n1", label="\udfff")]), "$.nodes[1].label"),
        (graph(edges=[edge(id="\udc00")]), "$.edges[0].id"),
        (graph(nodes=[node(**{"b\ud800d": 1})]), "$.nodes[0]"),
    ],
)
def test_graph_reader_rejects_lone_surrogate_escapes(document, path):
    with pytest.raises(FormatError) as caught:
        parse_pg(json.dumps(document))
    assert caught.value.path == path
    assert "lone surrogate U+D" in str(caught.value)


def test_schema_reader_rejects_lone_surrogate_escapes():
    text = json.dumps(schema(propertyTypes=[property_type(type="urn:\udbff")]))
    with pytest.raises(FormatError) as caught:
        parse_pg_schema(text)
    assert str(caught.value) == "$.propertyTypes[0].type: lone surrogate U+DBFF in a string"


def test_surrogate_pairs_and_escaped_backslashes_are_accepted():
    text = json.dumps(graph(nodes=[node(label="\U0001f600 \\ud800")]))
    assert "\\ud83d\\ude00" in text and "\\\\ud800" in text
    pg = parse_pg(text)
    assert [element.label for element in pg.nodes + pg.edges] == ["\U0001f600 \\ud800"]
