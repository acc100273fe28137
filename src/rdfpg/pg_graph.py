"""Property graphs and property graph schemas.

A property graph holds labeled nodes and directed labeled edges, each owning
a set of key-value properties. Values carry an explicit datatype so that a
string "46" and an integer "46" stay distinguishable; nothing is inferred
from lexical forms. A datatype is the string every document spells it with:
one of the eight kind names ("String", "Integer", ...) or a custom
datatype's IRI. Builders refuse an empty one.

A graph is built in canonical order once: nodes sorted by label and
properties, then edges sorted by source, label, properties and target, with
elements of equal keys in the order they were added. An element's id is its
position in that order, so every consumer (the validator, the serializers,
the inverse mappings) walks ids in order, and graphs compare with ==.

A schema is keyed by its own labels: a node type is its label and the
(key, datatype) property types it allows; an edge type adds its endpoint
labels. Built schemas are in canonical order and compare with ==. Property
types constrain what may appear, they do not make properties mandatory.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from .errors import AmbiguousCanonicalKey
from .report import ValidationReport, Violation

PgDatatype = str  # a kind name below, or a custom datatype's IRI

STRING = "String"
INTEGER = "Integer"
INT = "Int"
DECIMAL = "Decimal"
DOUBLE = "Double"
BOOLEAN = "Boolean"
DATE = "Date"
DATETIME = "DateTime"

DATATYPE_KINDS = (STRING, INTEGER, INT, DECIMAL, DOUBLE, BOOLEAN, DATE, DATETIME)

# Label of the node property that stores a converted resource's IRI. The
# label is reserved for the conversion machinery. The Turtle reader accepts
# relative IRIs, so an RDF property may be spelled "iri"; the
# schema-dependent mapping refuses such a datatype property.
IRI_PROPERTY_KEY = "iri"


@dataclass(frozen=True, slots=True)
class PgValue:
    lexical: str
    datatype: PgDatatype

    def __str__(self) -> str:
        return f"{self.lexical!r}:{self.datatype}"


def type_of_value(value: PgValue) -> PgDatatype:
    """Datatype of a value. Values carry their type, so this is an accessor."""
    return value.datatype


def _property_sort_key(item: tuple[str, PgValue]) -> tuple[str, str, str]:
    key, value = item
    return (key, value.lexical, value.datatype)


@dataclass(frozen=True)
class PropertyGraph:
    """A property graph in canonical order; compare with ==.

    Nodes have ids 0..N-1 in canonical order and edges the ids after them,
    so `nodes_sorted()` and `edges_sorted()` are id ranges. `label` maps each
    id to its label, `ends` each edge id to its (source, target) node ids, and
    `properties_by_owner` each node or edge that has properties to its
    (key, value) pairs in canonical order. Graphs built from the same
    elements in any order are ==.
    """

    nodes: frozenset[int]
    edges: frozenset[int]
    label: Mapping[int, str]
    ends: Mapping[int, tuple[int, int]]
    properties_by_owner: Mapping[int, tuple[tuple[str, PgValue], ...]]
    property_count: int

    def is_empty(self) -> bool:
        return not (self.nodes or self.edges)

    def properties_of(self, owner: int) -> list[tuple[str, PgValue]]:
        return list(self.properties_by_owner.get(owner, ()))

    def nodes_sorted(self) -> range:
        return range(len(self.nodes))

    def edges_sorted(self) -> range:
        return range(len(self.nodes), len(self.nodes) + len(self.edges))

    def describe(self, element: int) -> str:
        if element in self.nodes:
            props = ", ".join(f"{k}={v}" for k, v in self.properties_of(element))
            return f"node {self.label[element]}{{{props}}}"
        src, dst = self.ends[element]
        return (
            f"edge {self.label[src]} --{self.label[element]}--> {self.label[dst]}"
        )


PropertyType = tuple[str, PgDatatype]  # (key, datatype)


@dataclass(frozen=True)
class EdgeType:
    """An edge type: its label, its source and target node type labels, and
    the property types it allows, in canonical order."""

    label: str
    source: str
    target: str
    property_types: tuple[PropertyType, ...]


def _edge_type_key(et: EdgeType) -> tuple:
    return et.label, et.source, et.target, et.property_types


@dataclass(frozen=True)
class PropertyGraphSchema:
    """A property graph schema keyed by its own labels; compare with ==.

    `node_types` maps each node type label to its property types. It, the
    `edge_types` tuple and each owner's property types are in canonical
    order. Tuples keep duplicates (two edge types may share a label and
    endpoints), so == compares them as multisets.
    """

    node_types: Mapping[str, tuple[PropertyType, ...]]
    edge_types: tuple[EdgeType, ...]

    def is_empty(self) -> bool:
        return not (self.node_types or self.edge_types)


class PropertyGraphBuilder:
    """Accumulates elements with their checks. Handles are builder-local:
    build() numbers the elements afresh, by canonical position."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._nodes: dict[int, str] = {}
        self._edges: dict[int, tuple[str, int, int]] = {}
        self._props: dict[int, list[tuple[str, PgValue]]] = defaultdict(list)

    def add_node(self, label: str) -> int:
        n = next(self._ids)
        self._nodes[n] = label
        return n

    def add_edge(self, label: str, src: int, dst: int) -> int:
        if src not in self._nodes or dst not in self._nodes:
            raise ValueError("edge endpoints must be existing nodes")
        e = next(self._ids)
        self._edges[e] = (label, src, dst)
        return e

    def add_property(self, owner: int, key: str, value: PgValue) -> None:
        if owner not in self._nodes and owner not in self._edges:
            raise ValueError("property owner must be an existing node or edge")
        if not value.datatype:
            raise ValueError("datatype may not be empty")
        self._props[owner].append((key, value))

    def build(self) -> PropertyGraph:
        props = {o: tuple(sorted(ps, key=_property_sort_key)) for o, ps in self._props.items()}

        def property_keys(owner: int) -> tuple:
            return tuple(map(_property_sort_key, props.get(owner, ())))

        node_key = {n: (label, property_keys(n)) for n, label in self._nodes.items()}
        edge_key = {
            e: (node_key[src], label, property_keys(e), node_key[dst])
            for e, (label, src, dst) in self._edges.items()
        }
        # Handles grow in insertion order and sorted() is stable, so elements
        # with equal keys keep the order they were added in.
        order = sorted(self._nodes, key=node_key.__getitem__)
        order += sorted(self._edges, key=edge_key.__getitem__)
        del node_key, edge_key  # free the keys before the graph's maps are made
        position = {handle: i for i, handle in enumerate(order)}
        n_nodes = len(self._nodes)
        labels = {i: self._nodes[n] for i, n in enumerate(order[:n_nodes])}
        ends: dict[int, tuple[int, int]] = {}
        for i in range(n_nodes, len(order)):
            labels[i], src, dst = self._edges[order[i]]
            ends[i] = (position[src], position[dst])
        return PropertyGraph(
            nodes=frozenset(range(n_nodes)),
            edges=frozenset(range(n_nodes, len(order))),
            label=labels,
            ends=ends,
            properties_by_owner={position[o]: props[o] for o in order if o in props},
            property_count=sum(map(len, props.values())),
        )


class PropertyGraphSchemaBuilder:
    """Accumulates types with their checks. Handles are builder-local: a node
    type's handle is its label, an edge type's is its position."""

    def __init__(self) -> None:
        self._node_types: dict[str, list[PropertyType]] = {}
        self._edge_types: list[tuple[str, str, str, list[PropertyType]]] = []

    def add_node_type(self, label: str) -> str:
        if label in self._node_types:
            raise ValueError(f"duplicate node type label {label!r}")
        self._node_types[label] = []
        return label

    def add_edge_type(self, label: str, src: str, dst: str) -> int:
        if src not in self._node_types or dst not in self._node_types:
            raise ValueError("edge type endpoints must be existing node types")
        self._edge_types.append((label, src, dst, []))
        return len(self._edge_types) - 1

    def add_property_type(self, owner: str | int, key: str, datatype: PgDatatype) -> None:
        if not datatype:
            raise ValueError("datatype may not be empty")
        if owner in self._node_types:
            self._node_types[owner].append((key, datatype))
        elif type(owner) is int and 0 <= owner < len(self._edge_types):
            self._edge_types[owner][3].append((key, datatype))
        else:
            raise ValueError("property type owner must be a node or edge type")

    def build(self) -> PropertyGraphSchema:
        edge_types = [
            EdgeType(label, src, dst, tuple(sorted(pts)))
            for label, src, dst, pts in self._edge_types
        ]
        return PropertyGraphSchema(
            node_types={
                label: tuple(sorted(self._node_types[label]))
                for label in sorted(self._node_types)
            },
            edge_types=tuple(sorted(edge_types, key=_edge_type_key)),
        )


def validate_pg(graph: PropertyGraph, schema: PropertyGraphSchema) -> ValidationReport:
    """Check a property graph against a schema. Reports, never raises.

    P1a: node label names a node type. P1b: each node property matches an
    allowed property type by key and datatype. P2a: edge label plus endpoint
    labels name an edge type. P2b: each edge property matches the edge type.
    Violations come in canonical element order, nodes then edges, each
    element's in property order.

    The reserved string-typed "iri" node property is always allowed: the
    conversion machinery stamps it on every node it creates, and schemas
    derived from RDF schemas have no place to declare it.
    """
    allowed_by_node_type = {label: frozenset(pts) for label, pts in schema.node_types.items()}
    # Edge types that share a (label, source, target) signature, in canonical order.
    allowed_by_signature: dict[tuple[str, str, str], list[frozenset]] = defaultdict(list)
    for et in schema.edge_types:
        allowed_by_signature[(et.label, et.source, et.target)].append(frozenset(et.property_types))

    properties = graph.properties_by_owner
    violations: list[Violation] = []
    for n in graph.nodes_sorted():
        label = graph.label[n]
        allowed = allowed_by_node_type.get(label)
        if allowed is None:
            message = f"no node type labeled {label!r}"
            violations.append(Violation("P1a", graph.describe(n), message))
            continue
        violations += [
            Violation(
                "P1b",
                graph.describe(n),
                f"property {key!r} with type {value.datatype} is not declared "
                f"for node type {label!r}",
            )
            for key, value in properties.get(n, ())
            if (key, value.datatype) not in allowed
            and not (key == IRI_PROPERTY_KEY and value.datatype == STRING)
        ]

    for e in graph.edges_sorted():
        src, dst = graph.ends[e]
        signature = (graph.label[e], graph.label[src], graph.label[dst])
        candidates = allowed_by_signature.get(signature)
        if not candidates:
            violations.append(
                Violation(
                    "P2a",
                    graph.describe(e),
                    f"no edge type labeled {signature[0]!r} from {signature[1]!r} "
                    f"to {signature[2]!r}",
                )
            )
            continue
        props = properties.get(e, ())
        # Report against the first edge type that leaves the fewest unmatched.
        best_unmatched = min(
            ([(k, v) for k, v in props if (k, v.datatype) not in allowed]
             for allowed in candidates),
            key=len,
        )
        violations += [
            Violation(
                "P2b",
                graph.describe(e),
                f"property {key!r} with type {value.datatype} is not declared "
                f"for edge type {signature[0]!r}",
            )
            for key, value in best_unmatched
        ]
    return ValidationReport(tuple(violations))


def pg_equal(a: PropertyGraph, b: PropertyGraph) -> bool:
    """Identity-free equality of property graphs: a == b, once both are known
    to have distinguishable nodes.

    Nodes must be distinguishable by (label, properties); graphs produced by
    the mappings always are, since every node carries an identifying
    property. Raises AmbiguousCanonicalKey otherwise. Equal nodes are
    adjacent in canonical order.
    """
    for graph in (a, b):
        props, previous = graph.properties_by_owner, None
        for n in graph.nodes_sorted():
            key = (graph.label[n], tuple(map(_property_sort_key, props.get(n, ()))))
            if key == previous:
                raise AmbiguousCanonicalKey(repr(key))
            previous = key
    return a == b
