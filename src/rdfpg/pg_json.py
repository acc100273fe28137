"""Canonical JSON serialization for property graphs and their schemas.

Graph documents list nodes and edges, each with an id, a label and a list of
{key, value, type} properties. Schema documents list node types, edge types
and a flat propertyTypes table that owners reference by id; every property
type must be referenced exactly once.

Output is canonical: a graph's elements are already in canonical order and
ids are assigned in that order, so two equal graphs serialize to
byte-identical documents. A datatype is written as the string it is: a kind
name ("String", "Date", ...) or a custom datatype's IRI. Values are always
JSON strings, preserving lexical forms exactly.

`serialize_pg` writes a graph document to a text stream one node or edge at
a time, or returns it as a string when given no stream. `parse_pg` drops
each decoded element from the document once it has read it, so the builder
reuses that memory.

See docs/pg-json-format.md and the JSON-Schema files next to it.
"""

from __future__ import annotations

import io
import json
import re
from typing import Any, TextIO

from .errors import DanglingEdgeEndpoint, FormatError
from .pg_graph import (
    PgDatatype,
    PgValue,
    PropertyGraph,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    PropertyGraphSchemaBuilder,
)


# The writers emit text directly, laid out exactly as
# json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
# would lay it out: the same C string encoder, keys in sorted order.
_encode = json.encoder.encode_basestring


def _list_text(items: list[str], indent: str) -> str:
    """A JSON list of already-encoded items; `indent` is that of its closing bracket."""
    if not items:
        return "[]"
    inner = ",\n" + indent + "  "
    return "[\n" + indent + "  " + inner.join(items) + "\n" + indent + "]"


def _document(sections, out: TextIO | None = None) -> str | None:
    """The top-level object: (key, encoded element objects) pairs, in key order.

    Each element is written to `out` as soon as it is taken from its
    iterable. Without `out`, the document is returned as a string.
    """
    if out is None:
        buffer = io.StringIO()
        _document(sections, buffer)
        return buffer.getvalue()
    write = out.write
    write("{")
    for i, (key, items) in enumerate(sections):
        write(f'{"," if i else ""}\n  "{key}": ')
        separator = "[\n    "
        for item in items:
            write(separator)
            write(item)
            separator = ",\n    "
        write("[]" if separator.startswith("[") else "\n  ]")
    write("\n}\n")
    return None


def _properties_text(items) -> str:
    """The "properties" list of one node or edge."""
    entries = [
        f'{{\n          "key": {_encode(key)},'
        f'\n          "type": {_encode(value.datatype)},'
        f'\n          "value": {_encode(value.lexical)}\n        }}'
        for key, value in items
    ]
    return _list_text(entries, "      ")


def serialize_pg(graph: PropertyGraph, out: TextIO | None = None) -> str | None:
    """The canonical JSON document of `graph`, written to the text stream `out`.

    The document goes out one node or edge at a time and is never held
    whole. Without `out`, it is returned as a string.
    """
    nodes = (
        f'{{\n      "id": "n{i}",\n      "label": {_encode(node.label)},'
        f'\n      "properties": {_properties_text(node.properties)}\n    }}'
        for i, node in enumerate(graph.nodes)
    )
    edges = (
        f'{{\n      "id": "e{i}",\n      "label": {_encode(edge.label)},'
        f'\n      "properties": {_properties_text(edge.properties)},'
        f'\n      "source": "n{edge.source}",\n      "target": "n{edge.target}"\n    }}'
        for i, edge in enumerate(graph.edges)
    )
    return _document([("edges", edges), ("nodes", nodes)], out)


# The readers check the decoded JSON value by value. A position in the
# document is a tuple of field names and list indexes; it is spelled out as
# a JSON path ("$.nodes[0].id") only for an error.


def _path(where: tuple) -> str:
    return "$" + "".join(f"[{p}]" if type(p) is int else f".{p}" for p in where)


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _wrong_type(value: Any, expected: str, where: tuple) -> FormatError:
    return FormatError(_path(where), f"expected {expected}, got {type(value).__name__}")


def _object(value: Any, fields: frozenset[str], where: tuple) -> dict:
    """`value` as a JSON object that has no field outside `fields`."""
    if type(value) is not dict:
        raise _wrong_type(value, "an object", where)
    if not fields.issuperset(value):
        unknown = ", ".join(sorted(value.keys() - fields))
        raise FormatError(_path(where), f"unknown field(s): {unknown}")
    return value


def _field(obj: dict, name: str, kind: type, where: tuple) -> Any:
    """Field `name` of `obj`, which must be present and of type `kind`."""
    try:
        value = obj[name]
    except KeyError:
        raise FormatError(_path(where), f"missing required field {name!r}") from None
    if type(value) is not kind:
        raise _wrong_type(value, _KIND_NAMES[kind], (*where, name))
    return value


# json.loads turns a \u escape of an unpaired UTF-16 surrogate into a lone
# surrogate, which no UTF-8 output can hold. Documents are searched for such
# an escape first; only one that has it is walked string by string.
_surrogate_escape = re.compile(r"\\u[dD][89a-fA-F]").search


def _reject_surrogates(value: Any, where: tuple) -> None:
    """FormatError at the first string in `value`, in document order, with a lone surrogate."""
    if type(value) is str:
        if value.isascii():
            return
        for c in value:
            if "\ud800" <= c <= "\udfff":
                raise FormatError(_path(where), f"lone surrogate U+{ord(c):04X} in a string")
    elif type(value) is list:
        for i, item in enumerate(value):
            _reject_surrogates(item, (*where, i))
    elif type(value) is dict:
        for name, item in value.items():
            _reject_surrogates(name, where)
            _reject_surrogates(item, (*where, name))


def _load(text: str, fields: frozenset[str]) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("$", f"not valid JSON: {exc}") from None
    if _surrogate_escape(text):
        _reject_surrogates(payload, ())
    return _object(payload, fields, ())


_GRAPH_FIELDS = frozenset({"nodes", "edges"})
_NODE_FIELDS = frozenset({"id", "label", "properties"})
_EDGE_FIELDS = frozenset({"id", "label", "source", "target", "properties"})
_PROPERTY_FIELDS = frozenset({"key", "value", "type"})


def _read_properties(element: dict, where: tuple) -> list[tuple[str, PgValue]]:
    result = []
    for i, prop in enumerate(_field(element, "properties", list, where)):
        at = (*where, "properties", i)
        _object(prop, _PROPERTY_FIELDS, at)
        key = _field(prop, "key", str, at)
        value = _field(prop, "value", str, at)
        datatype = _field(prop, "type", str, at)
        if not datatype:
            raise FormatError(_path((*at, "type")), "datatype may not be empty")
        result.append((key, PgValue(value, datatype)))
    return result


def parse_pg(text: str) -> PropertyGraph:
    root = _load(text, _GRAPH_FIELDS)
    builder = PropertyGraphBuilder()
    node_by_id: dict[str, int] = {}
    # Each decoded element is dropped from its list once it is read, so the
    # builder's memory grows as the document's shrinks.
    nodes = _field(root, "nodes", list, ())
    for i, node in enumerate(nodes):
        nodes[i] = None
        where = ("nodes", i)
        _object(node, _NODE_FIELDS, where)
        node_id = _field(node, "id", str, where)
        if node_id in node_by_id:
            raise FormatError(_path(where), f"duplicate node id {node_id!r}")
        n = builder.add_node(_field(node, "label", str, where))
        node_by_id[node_id] = n
        for key, value in _read_properties(node, where):
            builder.add_property(n, key, value)
    edge_ids: set[str] = set()
    edges = _field(root, "edges", list, ())
    for i, edge in enumerate(edges):
        edges[i] = None
        where = ("edges", i)
        _object(edge, _EDGE_FIELDS, where)
        edge_id = _field(edge, "id", str, where)
        if edge_id in edge_ids:
            raise FormatError(_path(where), f"duplicate edge id {edge_id!r}")
        edge_ids.add(edge_id)
        source = _field(edge, "source", str, where)
        target = _field(edge, "target", str, where)
        for ref in (source, target):
            if ref not in node_by_id:
                raise DanglingEdgeEndpoint(edge_id, ref)
        label = _field(edge, "label", str, where)
        e = builder.add_edge(label, node_by_id[source], node_by_id[target])
        for key, value in _read_properties(edge, where):
            builder.add_property(e, key, value)
    del root  # the decoded document is not needed while build() sorts the graph
    return builder.build()


def serialize_pg_schema(schema: PropertyGraphSchema) -> str:
    property_types: list[str] = []

    def refs(pts) -> str:
        """Adds `pts` to the propertyTypes table and returns the JSON list of their ids."""
        ids = []
        for key, datatype in pts:
            pt_id = f'"pt{len(property_types)}"'
            property_types.append(
                f'{{\n      "id": {pt_id},\n      "key": {_encode(key)},'
                f'\n      "type": {_encode(datatype)}\n    }}'
            )
            ids.append(pt_id)
        return _list_text(ids, "      ")

    nt_ids = {label: f'"nt{i}"' for i, label in enumerate(schema.node_types)}
    node_types = [
        f'{{\n      "id": {nt_ids[label]},\n      "label": {_encode(label)},'
        f'\n      "propertyTypes": {refs(pts)}\n    }}'
        for label, pts in schema.node_types.items()
    ]
    edge_types = [
        f'{{\n      "id": "et{i}",\n      "label": {_encode(et.label)},'
        f'\n      "propertyTypes": {refs(et.property_types)},'
        f'\n      "source": {nt_ids[et.source]},\n      "target": {nt_ids[et.target]}\n    }}'
        for i, et in enumerate(schema.edge_types)
    ]
    return _document(
        [("edgeTypes", edge_types), ("nodeTypes", node_types), ("propertyTypes", property_types)]
    )


_SCHEMA_FIELDS = frozenset({"nodeTypes", "edgeTypes", "propertyTypes"})
_PROPERTY_TYPE_FIELDS = frozenset({"id", "key", "type"})
_NODE_TYPE_FIELDS = frozenset({"id", "label", "propertyTypes"})
_EDGE_TYPE_FIELDS = frozenset({"id", "label", "source", "target", "propertyTypes"})


def parse_pg_schema(text: str) -> PropertyGraphSchema:
    root = _load(text, _SCHEMA_FIELDS)
    ptypes: dict[str, tuple[str, PgDatatype]] = {}
    for i, pt in enumerate(_field(root, "propertyTypes", list, ())):
        where = ("propertyTypes", i)
        _object(pt, _PROPERTY_TYPE_FIELDS, where)
        pt_id = _field(pt, "id", str, where)
        if pt_id in ptypes:
            raise FormatError(_path(where), f"duplicate property type id {pt_id!r}")
        key = _field(pt, "key", str, where)
        datatype = _field(pt, "type", str, where)
        if not datatype:
            raise FormatError(_path((*where, "type")), "datatype may not be empty")
        ptypes[pt_id] = (key, datatype)

    builder = PropertyGraphSchemaBuilder()
    referenced: set[str] = set()

    def attach(owner: str | int, element: dict, where: tuple) -> None:
        for i, pt_id in enumerate(_field(element, "propertyTypes", list, where)):
            at = (*where, "propertyTypes", i)
            if type(pt_id) is not str:
                raise _wrong_type(pt_id, "a string", at)
            if pt_id not in ptypes:
                raise FormatError(_path(at), f"reference to unknown property type {pt_id!r}")
            if pt_id in referenced:
                raise FormatError(
                    _path(at), f"property type {pt_id!r} is attached to more than one owner"
                )
            referenced.add(pt_id)
            key, datatype = ptypes[pt_id]
            builder.add_property_type(owner, key, datatype)

    nt_by_id: dict[str, str] = {}
    for i, node_type in enumerate(_field(root, "nodeTypes", list, ())):
        where = ("nodeTypes", i)
        _object(node_type, _NODE_TYPE_FIELDS, where)
        nt_id = _field(node_type, "id", str, where)
        if nt_id in nt_by_id:
            raise FormatError(_path(where), f"duplicate node type id {nt_id!r}")
        label = _field(node_type, "label", str, where)
        try:
            nt = builder.add_node_type(label)
        except ValueError as exc:
            raise FormatError(_path(where), str(exc)) from None
        nt_by_id[nt_id] = nt
        attach(nt, node_type, where)

    et_ids: set[str] = set()
    for i, edge_type in enumerate(_field(root, "edgeTypes", list, ())):
        where = ("edgeTypes", i)
        _object(edge_type, _EDGE_TYPE_FIELDS, where)
        et_id = _field(edge_type, "id", str, where)
        if et_id in et_ids:
            raise FormatError(_path(where), f"duplicate edge type id {et_id!r}")
        et_ids.add(et_id)
        source = _field(edge_type, "source", str, where)
        target = _field(edge_type, "target", str, where)
        for ref in (source, target):
            if ref not in nt_by_id:
                raise FormatError(_path(where), f"reference to unknown node type {ref!r}")
        et = builder.add_edge_type(
            _field(edge_type, "label", str, where), nt_by_id[source], nt_by_id[target]
        )
        attach(et, edge_type, where)

    unreferenced = sorted(set(ptypes) - referenced)
    if unreferenced:
        raise FormatError(
            "$.propertyTypes", f"property types never referenced: {', '.join(unreferenced)}"
        )
    return builder.build()
