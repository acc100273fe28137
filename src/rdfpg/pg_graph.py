"""Property graphs and property graph schemas.

A property graph holds labeled nodes and directed labeled edges, each owning
a set of key-value properties. Values carry an explicit datatype so that a
string "46" and an integer "46" stay distinguishable; nothing is inferred
from lexical forms. A datatype is the string every document spells it with:
one of the eight kind names ("String", "Integer", ...) or a custom
datatype's IRI. Builders refuse an empty one.

A graph is two tuples: its nodes, each a label and properties, and its
edges, each a label, the positions of its source and target nodes and
properties. Values, properties, nodes and edge types are named tuples or
plain tuples, so they compare and sort in C, field by field. A graph is
built in canonical order once: nodes sorted, then edges sorted by source
node, label, properties and target node, with elements of equal keys in the
order they were added. An element's id is its position, so every consumer
(the validator, the serializers, the inverse mappings) walks the tuples in
order, and graphs compare with ==.

A schema is keyed by its own labels: a node type is its label and the
(key, datatype) property types it allows; an edge type adds its endpoint
labels. Built schemas are in canonical order and compare with ==. Property
types constrain what may appear, they do not make properties mandatory.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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


class PgValue(NamedTuple):
    """A property value. It sorts by lexical form, then datatype, and equals
    the plain tuple (lexical, datatype) but never a str."""

    lexical: str
    datatype: PgDatatype

    def __str__(self) -> str:
        return f"{self.lexical!r}:{self.datatype}"


Property = tuple[str, PgValue]  # (key, value); properties sort by key, then value


class Node(NamedTuple):
    """A node: its label and its properties in canonical order. Nodes sort by
    label, then properties."""

    label: str
    properties: tuple[Property, ...]


class Edge(NamedTuple):
    """An edge: its label, the positions of its source and target nodes in
    the graph's `nodes`, and its properties in canonical order."""

    label: str
    source: int
    target: int
    properties: tuple[Property, ...]


@dataclass(frozen=True)
class PropertyGraph:
    """A property graph in canonical order; compare with ==.

    `nodes` is sorted, and `edges` is sorted by source node, label,
    properties and target node, so graphs built from the same elements in
    any order are ==. An element's position is its id.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def nodes_sorted(self) -> tuple[Node, ...]:
        return self.nodes  # kept only because bench/tracing.py wraps it by name

    def edges_sorted(self) -> tuple[Edge, ...]:
        return self.edges  # kept only because bench/tracing.py wraps it by name

    def properties_of(self, element: Node | Edge) -> list[Property]:
        return list(element.properties)  # kept only because bench/tracing.py wraps it by name

    def describe(self, element: Node | Edge) -> str:
        """`element` in error and violation texts: a node with its properties,
        an edge with its label and its endpoints' labels."""
        if type(element) is Node:
            props = ", ".join(f"{k}={v}" for k, v in element.properties)
            return f"node {element.label}{{{props}}}"
        src, dst = self.nodes[element.source], self.nodes[element.target]
        return f"edge {src.label} --{element.label}--> {dst.label}"


PropertyType = tuple[str, PgDatatype]  # (key, datatype)


class EdgeType(NamedTuple):
    """An edge type: its label, its source and target node type labels, and
    the property types it allows, in canonical order. Edge types sort by
    these fields in this order."""

    label: str
    source: str
    target: str
    property_types: tuple[PropertyType, ...]


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


class PropertyGraphBuilder:
    """Accumulates elements with their checks. Handles are builder-local:
    build() puts the elements in canonical order."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._nodes: dict[int, str] = {}
        self._edges: dict[int, tuple[str, int, int]] = {}
        self._props: dict[int, list[Property]] = defaultdict(list)

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
        props = {o: tuple(sorted(ps)) for o, ps in self._props.items()}
        nodes = {n: Node(label, props.get(n, ())) for n, label in self._nodes.items()}

        def edge_key(e: int) -> tuple:
            # Endpoints compare as nodes, not positions, so edges between
            # equal nodes tie.
            label, src, dst = self._edges[e]
            return nodes[src], label, props.get(e, ()), nodes[dst]

        # Handles grow in insertion order and sorted() is stable, so elements
        # with equal keys keep the order they were added in.
        node_order = sorted(nodes, key=nodes.__getitem__)
        position = {n: i for i, n in enumerate(node_order)}
        edges = []
        for e in sorted(self._edges, key=edge_key):
            label, src, dst = self._edges[e]
            edges.append(Edge(label, position[src], position[dst], props.get(e, ())))
        return PropertyGraph(tuple(map(nodes.__getitem__, node_order)), tuple(edges))


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
            edge_types=tuple(sorted(edge_types)),
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

    nodes = graph.nodes
    violations: list[Violation] = []
    for node in nodes:
        allowed = allowed_by_node_type.get(node.label)
        if allowed is None:
            message = f"no node type labeled {node.label!r}"
            violations.append(Violation("P1a", graph.describe(node), message))
            continue
        violations += [
            Violation(
                "P1b",
                graph.describe(node),
                f"property {key!r} with type {value.datatype} is not declared "
                f"for node type {node.label!r}",
            )
            for key, value in node.properties
            if (key, value.datatype) not in allowed
            and not (key == IRI_PROPERTY_KEY and value.datatype == STRING)
        ]

    for edge in graph.edges:
        signature = (edge.label, nodes[edge.source].label, nodes[edge.target].label)
        candidates = allowed_by_signature.get(signature)
        if not candidates:
            violations.append(
                Violation(
                    "P2a",
                    graph.describe(edge),
                    f"no edge type labeled {signature[0]!r} from {signature[1]!r} "
                    f"to {signature[2]!r}",
                )
            )
            continue
        # Report against the first edge type that leaves the fewest unmatched.
        best_unmatched = min(
            ([(k, v) for k, v in edge.properties if (k, v.datatype) not in allowed]
             for allowed in candidates),
            key=len,
        )
        violations += [
            Violation(
                "P2b",
                graph.describe(edge),
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
        for previous, node in itertools.pairwise(graph.nodes):
            if node == previous:
                key = (node.label, tuple((k, *v) for k, v in node.properties))
                raise AmbiguousCanonicalKey(repr(key))
    return a == b
