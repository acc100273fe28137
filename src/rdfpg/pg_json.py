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
a time, or returns it as a string when given no stream. `parse_pg` reads
each element in one step: it tests that the element is an object of exactly
its fields, takes them at once and tests their types, then builds its Node
or Edge tuple. An element that fails that test goes to the field helpers
(`_object`, `_field`, `_read_properties`), which check it one field at a
time and raise the error of the first failing check; they are the error
path, not a second reader. `parse_pg` drops each decoded element from the
document once it has read it, so the graph reuses that memory, and puts
the graph in canonical order with `canonical_graph`. `parse_pg_schema`
gathers each owner's property types in a plain list, refuses a node type
label given twice, and puts the schema in canonical order with
`canonical_schema`. Those two functions are the one way to build either
model, here as everywhere else.

See docs/pg-json-format.md and the JSON-Schema files next to it.
"""

from __future__ import annotations

import io
import json
import operator
import re
from typing import Any, NoReturn, TextIO

from .errors import DanglingEdgeEndpoint, FormatError
from .pg_graph import (
    canonical_graph,
    Edge,
    EdgeType,
    Node,
    PgValue,
    PropertyGraph,
    PropertyGraphSchema,
    PropertyType,
    canonical_schema,
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
    text = text[1:] if text.startswith("\ufeff") else text  # RFC 8259 lets a reader skip a BOM
    try:
        payload = json.loads(text)
        if _surrogate_escape(text):
            _reject_surrogates(payload, ())
    except json.JSONDecodeError as exc:
        raise FormatError("$", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("$", "arrays or objects nested too deeply to read") from None
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


# parse_pg reads an element in one step: an exact-size dict, its fields taken
# at once, their types tested. An element that fails that test is read again
# by the field helpers, one check at a time and in the order below, so its
# error is the one the first failing check gives. They always raise.


def _refuse_node(node: Any, where: tuple, node_by_id: dict) -> NoReturn:
    _object(node, _NODE_FIELDS, where)
    node_id = _field(node, "id", str, where)
    if node_id in node_by_id:
        raise FormatError(_path(where), f"duplicate node id {node_id!r}")
    _field(node, "label", str, where)
    _read_properties(node, where)
    raise AssertionError(f"{_path(where)} passed every check")


def _refuse_edge(edge: Any, where: tuple, edge_ids: set, node_by_id: dict) -> NoReturn:
    _object(edge, _EDGE_FIELDS, where)
    edge_id = _field(edge, "id", str, where)
    if edge_id in edge_ids:
        raise FormatError(_path(where), f"duplicate edge id {edge_id!r}")
    refs = {end: _field(edge, end, str, where) for end in ("source", "target")}
    for end, ref in refs.items():
        if ref not in node_by_id:
            raise DanglingEdgeEndpoint(_path((*where, end)), edge_id, ref)
    _field(edge, "label", str, where)
    _read_properties(edge, where)
    raise AssertionError(f"{_path(where)} passed every check")


_node_fields = operator.itemgetter("id", "label", "properties")
_edge_fields = operator.itemgetter("id", "label", "source", "target", "properties")
_property_fields = operator.itemgetter("key", "value", "type")
_new = tuple.__new__  # builds a named tuple without a call of its Python __new__


def _properties(items: Any, element: dict, where: tuple) -> tuple[tuple[str, PgValue], ...]:
    """An element's properties, sorted; `items` is its "properties" list."""
    result = []
    for prop in items:
        if type(prop) is dict and len(prop) == 3:
            try:
                key, value, datatype = _property_fields(prop)
            except KeyError:
                key = None
            if type(key) is str and type(value) is str and type(datatype) is str and datatype:
                result.append((key, _new(PgValue, (value, datatype))))
                continue
        _read_properties(element, where)
        raise AssertionError(f"{_path(where)} passed every check")
    result.sort()
    return tuple(result)


def parse_pg(text: str) -> PropertyGraph:
    root = _load(text, _GRAPH_FIELDS)
    node_by_id: dict[str, int] = {}  # id -> position in `nodes`
    nodes: list[Node] = []
    # Each decoded element is dropped from its list once it is read, so the
    # graph's memory grows as the document's shrinks.
    node_objects = _field(root, "nodes", list, ())
    for i, node in enumerate(node_objects):
        node_objects[i] = None
        if type(node) is dict and len(node) == 3:
            try:
                node_id, label, items = _node_fields(node)
            except KeyError:
                node_id = None
            if (
                type(node_id) is str and type(label) is str and type(items) is list
                and node_id not in node_by_id
            ):
                node_by_id[node_id] = len(nodes)
                nodes.append(_new(Node, (label, _properties(items, node, ("nodes", i)))))
                continue
        _refuse_node(node, ("nodes", i), node_by_id)
    edge_ids: set[str] = set()
    edges: list[Edge] = []
    edge_objects = _field(root, "edges", list, ())
    for i, edge in enumerate(edge_objects):
        edge_objects[i] = None
        if type(edge) is dict and len(edge) == 5:
            try:
                edge_id, label, source, target, items = _edge_fields(edge)
            except KeyError:
                edge_id = None
            if (
                type(edge_id) is str and type(label) is str and type(items) is list
                and type(source) is str and type(target) is str
                and edge_id not in edge_ids and source in node_by_id and target in node_by_id
            ):
                edge_ids.add(edge_id)
                properties = _properties(items, edge, ("edges", i)) if items else ()
                edges.append(
                    _new(Edge, (label, node_by_id[source], node_by_id[target], properties))
                )
                continue
        _refuse_edge(edge, ("edges", i), edge_ids, node_by_id)
    del root  # the decoded document is not needed while the graph is sorted
    return canonical_graph(nodes, edges)


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
    ptypes: dict[str, PropertyType] = {}  # id -> (key, datatype)
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

    referenced: set[str] = set()

    def attach(element: dict, where: tuple) -> list[PropertyType]:
        """The property types that `element` references; each id may be referenced once."""
        result = []
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
            result.append(ptypes[pt_id])
        return result

    node_types: dict[str, list[PropertyType]] = {}
    nt_by_id: dict[str, str] = {}
    for i, node_type in enumerate(_field(root, "nodeTypes", list, ())):
        where = ("nodeTypes", i)
        _object(node_type, _NODE_TYPE_FIELDS, where)
        nt_id = _field(node_type, "id", str, where)
        if nt_id in nt_by_id:
            raise FormatError(_path(where), f"duplicate node type id {nt_id!r}")
        label = _field(node_type, "label", str, where)
        if label in node_types:
            raise FormatError(_path(where), f"duplicate node type label {label!r}")
        nt_by_id[nt_id] = label
        node_types[label] = attach(node_type, where)

    edge_types: list[EdgeType] = []
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
        label = _field(edge_type, "label", str, where)
        edge_types.append(
            EdgeType(label, nt_by_id[source], nt_by_id[target], attach(edge_type, where))
        )

    unreferenced = sorted(set(ptypes) - referenced)
    if unreferenced:
        raise FormatError(
            "$.propertyTypes", f"property types never referenced: {', '.join(unreferenced)}"
        )
    return canonical_schema(node_types, edge_types)
