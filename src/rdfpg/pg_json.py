"""Canonical JSON serialization for property graphs and their schemas.

Graph documents list nodes and edges, each with an id, a label and a list of
{key, value, type} properties. Schema documents list node types, edge types
and a flat propertyTypes table that owners reference by id; every property
type must be referenced exactly once.

Output is canonical: elements are ordered by their id-free canonical keys
and ids are assigned in that order, so two equal graphs serialize to
byte-identical documents. Datatypes appear as their kind name ("String",
"Date", ...) while custom datatypes appear as their IRI. Values are always
JSON strings, preserving lexical forms exactly.

See docs/pg-json-format.md and the JSON-Schema files next to it.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import DanglingEdgeEndpoint, FormatError
from .pg_graph import (
    PgDatatype,
    PgValue,
    PropertyGraph,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    PropertyGraphSchemaBuilder,
)


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _properties_payload(items: list[tuple[str, PgValue]]) -> list[dict]:
    return [
        {"key": key, "value": value.lexical, "type": value.datatype.token()}
        for key, value in items
    ]


def serialize_pg(graph: PropertyGraph) -> str:
    node_order = graph.nodes_sorted()
    node_ids = {n: f"n{i}" for i, n in enumerate(node_order)}
    nodes = [
        {
            "id": node_ids[n],
            "label": graph.label[n],
            "properties": _properties_payload(graph.properties_of(n)),
        }
        for n in node_order
    ]
    edges = [
        {
            "id": f"e{i}",
            "label": graph.label[e],
            "source": node_ids[graph.ends[e][0]],
            "target": node_ids[graph.ends[e][1]],
            "properties": _properties_payload(graph.properties_of(e)),
        }
        for i, e in enumerate(graph.edges_sorted())
    ]
    return _dump({"nodes": nodes, "edges": edges})


class _Reader:
    """Walks a decoded JSON value, raising FormatError with a useful path."""

    def __init__(self, payload: Any, path: str):
        self.payload = payload
        self.path = path

    def require_object(self) -> "_Reader":
        if not isinstance(self.payload, dict):
            raise FormatError(self.path, f"expected an object, got {type(self.payload).__name__}")
        return self

    def field(self, name: str) -> "_Reader":
        self.require_object()
        if name not in self.payload:
            raise FormatError(self.path, f"missing required field {name!r}")
        return _Reader(self.payload[name], f"{self.path}.{name}")

    def string(self) -> str:
        if not isinstance(self.payload, str):
            raise FormatError(self.path, f"expected a string, got {type(self.payload).__name__}")
        return self.payload

    def items(self) -> list["_Reader"]:
        if not isinstance(self.payload, list):
            raise FormatError(self.path, f"expected a list, got {type(self.payload).__name__}")
        return [_Reader(item, f"{self.path}[{i}]") for i, item in enumerate(self.payload)]

    def only_fields(self, *names: str) -> None:
        self.require_object()
        unknown = sorted(set(self.payload) - set(names))
        if unknown:
            raise FormatError(self.path, f"unknown field(s): {', '.join(unknown)}")


def _load(text: str) -> _Reader:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("$", f"not valid JSON: {exc}") from None
    return _Reader(payload, "$").require_object()


def _read_datatype(reader: _Reader) -> PgDatatype:
    token = reader.string()
    if not token:
        raise FormatError(reader.path, "datatype may not be empty")
    return PgDatatype.from_token(token)


def _read_properties(element: _Reader) -> list[tuple[str, PgValue]]:
    result = []
    for prop in element.field("properties").items():
        prop.only_fields("key", "value", "type")
        key = prop.field("key").string()
        value = prop.field("value").string()
        datatype = _read_datatype(prop.field("type"))
        result.append((key, PgValue(value, datatype)))
    return result


def parse_pg(text: str) -> PropertyGraph:
    root = _load(text)
    root.only_fields("nodes", "edges")
    builder = PropertyGraphBuilder()
    node_by_id: dict[str, int] = {}
    for node in root.field("nodes").items():
        node.only_fields("id", "label", "properties")
        node_id = node.field("id").string()
        if node_id in node_by_id:
            raise FormatError(node.path, f"duplicate node id {node_id!r}")
        n = builder.add_node(node.field("label").string())
        node_by_id[node_id] = n
        for key, value in _read_properties(node):
            builder.add_property(n, key, value)
    edge_ids: set[str] = set()
    for edge in root.field("edges").items():
        edge.only_fields("id", "label", "source", "target", "properties")
        edge_id = edge.field("id").string()
        if edge_id in edge_ids:
            raise FormatError(edge.path, f"duplicate edge id {edge_id!r}")
        edge_ids.add(edge_id)
        source = edge.field("source").string()
        target = edge.field("target").string()
        for ref in (source, target):
            if ref not in node_by_id:
                raise DanglingEdgeEndpoint(edge_id, ref)
        e = builder.add_edge(edge.field("label").string(), node_by_id[source], node_by_id[target])
        for key, value in _read_properties(edge):
            builder.add_property(e, key, value)
    return builder.build()


def serialize_pg_schema(schema: PropertyGraphSchema) -> str:
    owners = schema.node_types_sorted() + schema.edge_types_sorted()
    pt_ids: dict[int, list[str]] = {}
    property_types = []
    counter = 0
    for owner in owners:
        refs = []
        for key, datatype in schema.property_types_of(owner):
            pt_id = f"pt{counter}"
            counter += 1
            property_types.append({"id": pt_id, "key": key, "type": datatype.token()})
            refs.append(pt_id)
        pt_ids[owner] = refs

    nt_ids = {nt: f"nt{i}" for i, nt in enumerate(schema.node_types_sorted())}
    node_types = [
        {"id": nt_ids[nt], "label": schema.label[nt], "propertyTypes": pt_ids[nt]}
        for nt in schema.node_types_sorted()
    ]
    edge_types = [
        {
            "id": f"et{i}",
            "label": schema.label[et],
            "source": nt_ids[schema.ends[et][0]],
            "target": nt_ids[schema.ends[et][1]],
            "propertyTypes": pt_ids[et],
        }
        for i, et in enumerate(schema.edge_types_sorted())
    ]
    return _dump(
        {
            "nodeTypes": node_types,
            "edgeTypes": edge_types,
            "propertyTypes": property_types,
        }
    )


def parse_pg_schema(text: str) -> PropertyGraphSchema:
    root = _load(text)
    root.only_fields("nodeTypes", "edgeTypes", "propertyTypes")
    ptypes: dict[str, tuple[str, PgDatatype]] = {}
    for pt in root.field("propertyTypes").items():
        pt.only_fields("id", "key", "type")
        pt_id = pt.field("id").string()
        if pt_id in ptypes:
            raise FormatError(pt.path, f"duplicate property type id {pt_id!r}")
        ptypes[pt_id] = (pt.field("key").string(), _read_datatype(pt.field("type")))

    builder = PropertyGraphSchemaBuilder()
    referenced: set[str] = set()

    def attach(owner: int, element: _Reader) -> None:
        for ref in element.field("propertyTypes").items():
            pt_id = ref.string()
            if pt_id not in ptypes:
                raise FormatError(ref.path, f"reference to unknown property type {pt_id!r}")
            if pt_id in referenced:
                raise FormatError(
                    ref.path, f"property type {pt_id!r} is attached to more than one owner"
                )
            referenced.add(pt_id)
            key, datatype = ptypes[pt_id]
            builder.add_property_type(owner, key, datatype)

    nt_by_id: dict[str, int] = {}
    for node_type in root.field("nodeTypes").items():
        node_type.only_fields("id", "label", "propertyTypes")
        nt_id = node_type.field("id").string()
        if nt_id in nt_by_id:
            raise FormatError(node_type.path, f"duplicate node type id {nt_id!r}")
        label = node_type.field("label").string()
        try:
            nt = builder.add_node_type(label)
        except ValueError as exc:
            raise FormatError(node_type.path, str(exc)) from None
        nt_by_id[nt_id] = nt
        attach(nt, node_type)

    et_ids: set[str] = set()
    for edge_type in root.field("edgeTypes").items():
        edge_type.only_fields("id", "label", "source", "target", "propertyTypes")
        et_id = edge_type.field("id").string()
        if et_id in et_ids:
            raise FormatError(edge_type.path, f"duplicate edge type id {et_id!r}")
        et_ids.add(et_id)
        source = edge_type.field("source").string()
        target = edge_type.field("target").string()
        for ref in (source, target):
            if ref not in nt_by_id:
                raise FormatError(edge_type.path, f"reference to unknown node type {ref!r}")
        et = builder.add_edge_type(
            edge_type.field("label").string(), nt_by_id[source], nt_by_id[target]
        )
        attach(et, edge_type)

    unreferenced = sorted(set(ptypes) - referenced)
    if unreferenced:
        raise FormatError(
            "$.propertyTypes", f"property types never referenced: {', '.join(unreferenced)}"
        )
    return builder.build()
