"""Property graphs and property graph schemas.

A property graph holds labeled nodes and directed labeled edges, each owning
a set of key-value properties. Values carry an explicit datatype so that a
string "46" and an integer "46" stay distinguishable; nothing is inferred
from lexical forms. A datatype is the string every document spells it with:
one of the eight kind names ("String", "Integer", ...) or a custom
datatype's IRI. The readers refuse an empty one.

A graph is two tuples: its nodes, each a label and properties, and its
edges, each a label, the positions of its source and target nodes and
properties. Values, properties, nodes and edge types are named tuples or
plain tuples, so they compare and sort in C, field by field. One function,
`canonical_graph`, owns an element's canonical form and a graph's canonical
order: it sorts each element's properties, builds each Node and Edge, then
sorts the nodes, then the edges by source node, label, properties and
target node, with elements of equal keys in the order they came in. It is
the one way to build a graph: both mappings, `parse_pg` and the generator
pass it plain tuples, with properties in any order. An element's id is its
position, so every consumer (the validator, the serializers, the inverse
mappings) walks the tuples in order, and graphs compare with ==.

A schema is keyed by its own labels: a node type is its label and the
(key, datatype) property types it allows; an edge type adds its endpoint
labels. One function, `canonical_schema`, puts a schema in canonical order
and is the one way to build one; schemas compare with ==. Property types
constrain what may appear, they do not make properties mandatory. A graph
and a schema are named tuples too, each equal to the plain tuple of its
fields; a caller replaces a field with `_replace`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, NamedTuple

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


class PropertyGraph(NamedTuple):
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


class PropertyGraphSchema(NamedTuple):
    """A property graph schema keyed by its own labels; compare with ==.

    `node_types` maps each node type label to its property types. It, the
    `edge_types` tuple and each owner's property types are in canonical
    order. Tuples keep duplicates (two edge types may share a label and
    endpoints), so == compares them as multisets.
    """

    node_types: Mapping[str, tuple[PropertyType, ...]]
    edge_types: tuple[EdgeType, ...]


def canonical_graph(nodes: Iterable[tuple], edges: Iterable[tuple]) -> PropertyGraph:
    """The graph of `nodes` and `edges` in canonical order.

    Each node is a (label, properties) tuple and each edge a (label, source,
    target, properties) tuple, a Node or an Edge included; properties may
    come in any order, in any iterable, and each edge's `source` and
    `target` are positions in `nodes`. `nodes` and `edges` are read once, so
    generators spare the caller a second copy of the elements.

    Each element's properties are sorted, then the nodes, once; equal nodes
    ("twins") keep the order they came in. Edges are sorted by source node,
    label, properties and target node, an endpoint compared by its rank: the
    canonical position of the first node equal to it. Ranks order as the
    nodes do and twins share one, so this is the order of the nodes
    themselves, ties included, compared as ints. Edges of equal keys keep
    the order they came in.
    """
    new = tuple.__new__  # builds each Node and Edge without a call of its Python __new__
    nodes = [new(Node, (label, tuple(sorted(properties)))) for label, properties in nodes]
    order = sorted(range(len(nodes)), key=nodes.__getitem__)
    sorted_nodes = [nodes[i] for i in order]
    position = [0] * len(nodes)
    rank = [0] * len(nodes)
    first = 0
    for pos, i in enumerate(order):
        if sorted_nodes[pos] != sorted_nodes[first]:
            first = pos
        position[i] = pos
        rank[i] = first
    edges = sorted(
        ((label, source, target, tuple(sorted(properties)))
         for label, source, target, properties in edges),
        key=lambda e: (rank[e[1]], e[0], e[3], rank[e[2]]),
    )
    return PropertyGraph(
        tuple(sorted_nodes),
        tuple(
            new(Edge, (label, position[source], position[target], properties))
            for label, source, target, properties in edges
        ),
    )


def canonical_schema(
    node_types: Mapping[str, Iterable[PropertyType]], edge_types: Iterable[EdgeType]
) -> PropertyGraphSchema:
    """The schema of `node_types` and `edge_types` in canonical order.

    `node_types` maps each node type label to its property types, and each
    edge type names its endpoints by node type label; property types may
    come in any order. Node type labels are sorted, then each owner's
    property types, then the edge types. Duplicates are kept.
    """
    return PropertyGraphSchema(
        node_types={label: tuple(sorted(node_types[label])) for label in sorted(node_types)},
        edge_types=tuple(sorted(
            EdgeType(label, source, target, tuple(sorted(property_types)))
            for label, source, target, property_types in edge_types
        )),
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
    allowed_by_node_type = {
        label: frozenset((*pts, (IRI_PROPERTY_KEY, STRING)))
        for label, pts in schema.node_types.items()
    }
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
        # Report against the first edge type that leaves the fewest unmatched;
        # a signature almost always has one candidate, so no min() call.
        best_unmatched = None
        for allowed in candidates:
            unmatched = [(k, v) for k, v in edge.properties if (k, v.datatype) not in allowed]
            if best_unmatched is None or len(unmatched) < len(best_unmatched):
                best_unmatched = unmatched
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
