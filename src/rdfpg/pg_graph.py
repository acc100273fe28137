"""Property graphs and property graph schemas.

A property graph holds labeled nodes and directed labeled edges, each owning
a set of key-value properties. Values carry an explicit datatype so that a
string "46" and an integer "46" stay distinguishable; nothing is inferred
from lexical forms.

A built graph stores each owner's properties once, already in canonical
order. Its canonical keys and its canonical node and edge orders are
computed at most once per graph, on first use, and every consumer (the
validator, the serializers, the inverse mappings, pg_equal) reuses them.

A schema is keyed by its own labels: a node type is its label and the
(key, datatype) property types it allows; an edge type adds its endpoint
labels. Built schemas are in canonical order and compare with ==. Property
types constrain what may appear, they do not make properties mandatory.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import AmbiguousCanonicalKey
from .report import ValidationReport, Violation

DATATYPE_KINDS = (
    "String",
    "Integer",
    "Int",
    "Decimal",
    "Double",
    "Boolean",
    "Date",
    "DateTime",
)

# Label of the node property that stores a converted resource's IRI. The
# label is reserved for the conversion machinery: real RDF property IRIs are
# absolute and can never collide with it.
IRI_PROPERTY_KEY = "iri"


@dataclass(frozen=True)
class PgDatatype:
    """A property-graph datatype. Custom carries the IRI of an unmapped RDF datatype."""

    kind: str
    custom_iri: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "Custom":
            if not self.custom_iri:
                raise ValueError("Custom datatype requires an IRI")
        elif self.kind not in DATATYPE_KINDS:
            raise ValueError(f"unknown datatype kind {self.kind!r}")
        elif self.custom_iri is not None:
            raise ValueError("only Custom datatypes carry an IRI")

    def token(self) -> str:
        """Serialized form. Custom datatypes appear as their IRI."""
        return self.custom_iri if self.kind == "Custom" else self.kind

    @classmethod
    def from_token(cls, token: str) -> "PgDatatype":
        if token in DATATYPE_KINDS:
            return cls(token)
        return cls("Custom", token)

    def __str__(self) -> str:
        return self.token()


STRING = PgDatatype("String")
INTEGER = PgDatatype("Integer")
INT = PgDatatype("Int")
DECIMAL = PgDatatype("Decimal")
DOUBLE = PgDatatype("Double")
BOOLEAN = PgDatatype("Boolean")
DATE = PgDatatype("Date")
DATETIME = PgDatatype("DateTime")


def custom_datatype(iri: str) -> PgDatatype:
    return PgDatatype("Custom", iri)


@dataclass(frozen=True)
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
    return (key, value.lexical, value.datatype.token())


@dataclass(frozen=True, eq=False)
class PropertyGraph:
    """A property graph. Compare with pg_equal, not ==; internal ids are arbitrary.

    `properties_by_owner` maps each node or edge that has properties to its
    (key, value) pairs in canonical order. Canonical keys and orders are
    filled in on first use and cached on the instance. The fields never
    change, so a cache always holds the value they determine, and a graph
    stays safe to share across threads.
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

    def _property_keys(self, owner: int) -> tuple:
        return tuple(map(_property_sort_key, self.properties_by_owner.get(owner, ())))

    @cached_property
    def _node_keys(self) -> dict[int, tuple]:
        label = self.label
        return {n: (label[n], self._property_keys(n)) for n in self.nodes}

    @cached_property
    def _edge_keys(self) -> dict[int, tuple]:
        node_keys, label, ends = self._node_keys, self.label, self.ends
        keys = {}
        for e in self.edges:
            src, dst = ends[e]
            keys[e] = (node_keys[src], label[e], self._property_keys(e), node_keys[dst])
        return keys

    @cached_property
    def _node_order(self) -> tuple[int, ...]:
        keys = self._node_keys
        return tuple(sorted(self.nodes, key=lambda n: (keys[n], n)))

    @cached_property
    def _edge_order(self) -> tuple[int, ...]:
        keys = self._edge_keys
        return tuple(sorted(self.edges, key=lambda e: (keys[e], e)))

    def node_canonical_key(self, n: int) -> tuple:
        return self._node_keys[n]

    def edge_canonical_key(self, e: int) -> tuple:
        return self._edge_keys[e]

    def nodes_sorted(self) -> list[int]:
        return list(self._node_order)

    def edges_sorted(self) -> list[int]:
        return list(self._edge_order)

    def describe(self, element: int) -> str:
        if element in self.nodes:
            props = ", ".join(f"{k}={v}" for k, v in self.properties_of(element))
            return f"node {self.label[element]}{{{props}}}"
        src, dst = self.ends[element]
        return (
            f"edge {self.label[src]} --{self.label[element]}--> {self.label[dst]}"
        )


PropertyType = tuple[str, PgDatatype]  # (key, datatype)


def _property_type_key(pt: PropertyType) -> tuple[str, str]:
    key, datatype = pt
    return key, datatype.token()


@dataclass(frozen=True)
class EdgeType:
    """An edge type: its label, its source and target node type labels, and
    the property types it allows, in canonical order."""

    label: str
    source: str
    target: str
    property_types: tuple[PropertyType, ...]


def _edge_type_key(et: EdgeType) -> tuple:
    return et.label, et.source, et.target, tuple(map(_property_type_key, et.property_types))


@dataclass(frozen=True)
class PropertyGraphSchema:
    """A property graph schema keyed by its own labels; compare with ==.

    `node_types` maps each node type label to its property types. It, the
    `edge_types` tuple and each owner's property types are in canonical
    order. Tuples keep duplicates (two edge types may share a label and
    endpoints), so == compares them as multisets. The validation lookup
    tables are cached on first use; the fields never change.
    """

    node_types: Mapping[str, tuple[PropertyType, ...]]
    edge_types: tuple[EdgeType, ...]

    def is_empty(self) -> bool:
        return not (self.node_types or self.edge_types)

    @cached_property
    def _allowed_by_node_type(self) -> dict[str, frozenset[tuple[str, str]]]:
        """Allowed (key, datatype token) pairs of each node type, by label."""
        return {
            label: frozenset(map(_property_type_key, pts)) for label, pts in self.node_types.items()
        }

    @cached_property
    def _allowed_by_signature(self) -> dict[tuple[str, str, str], list[frozenset]]:
        """Allowed (key, datatype token) pairs of each edge type, grouped by
        (label, source, target) in canonical order."""
        by_signature: dict[tuple[str, str, str], list[frozenset]] = defaultdict(list)
        for et in self.edge_types:
            allowed = frozenset(map(_property_type_key, et.property_types))
            by_signature[(et.label, et.source, et.target)].append(allowed)
        return dict(by_signature)


class PropertyGraphBuilder:
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
        self._props[owner].append((key, value))

    def build(self) -> PropertyGraph:
        labels: dict[int, str] = dict(self._nodes)
        ends: dict[int, tuple[int, int]] = {}
        for e, (label, src, dst) in self._edges.items():
            labels[e] = label
            ends[e] = (src, dst)
        return PropertyGraph(
            nodes=frozenset(self._nodes),
            edges=frozenset(self._edges),
            label=labels,
            ends=ends,
            properties_by_owner={
                o: tuple(sorted(ps, key=_property_sort_key)) for o, ps in self._props.items()
            },
            property_count=sum(map(len, self._props.values())),
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
        if owner in self._node_types:
            self._node_types[owner].append((key, datatype))
        elif type(owner) is int and 0 <= owner < len(self._edge_types):
            self._edge_types[owner][3].append((key, datatype))
        else:
            raise ValueError("property type owner must be a node or edge type")

    def build(self) -> PropertyGraphSchema:
        edge_types = [
            EdgeType(label, src, dst, tuple(sorted(pts, key=_property_type_key)))
            for label, src, dst, pts in self._edge_types
        ]
        return PropertyGraphSchema(
            node_types={
                label: tuple(sorted(self._node_types[label], key=_property_type_key))
                for label in sorted(self._node_types)
            },
            edge_types=tuple(sorted(edge_types, key=_edge_type_key)),
        )


def validate_pg(graph: PropertyGraph, schema: PropertyGraphSchema) -> ValidationReport:
    """Check a property graph against a schema. Reports, never raises.

    P1a: node label names a node type. P1b: each node property matches an
    allowed property type by key and datatype. P2a: edge label plus endpoint
    labels name an edge type. P2b: each edge property matches the edge type.

    The reserved string-typed "iri" node property is always allowed: the
    conversion machinery stamps it on every node it creates, and schemas
    derived from RDF schemas have no place to declare it.
    """
    allowed_by_node_type = schema._allowed_by_node_type
    allowed_by_signature = schema._allowed_by_signature

    properties = graph.properties_by_owner
    node_violations: dict[int, list[Violation]] = {}
    for n in graph.nodes:
        label = graph.label[n]
        allowed = allowed_by_node_type.get(label)
        if allowed is None:
            node_violations[n] = [
                Violation("P1a", graph.describe(n), f"no node type labeled {label!r}")
            ]
            continue
        found = [
            Violation(
                "P1b",
                graph.describe(n),
                f"property {key!r} with type {value.datatype} is not declared "
                f"for node type {label!r}",
            )
            for key, value in properties.get(n, ())
            if (key, value.datatype.token()) not in allowed
            and not (key == IRI_PROPERTY_KEY and value.datatype == STRING)
        ]
        if found:
            node_violations[n] = found

    edge_violations: dict[int, list[Violation]] = {}
    for e in graph.edges:
        src, dst = graph.ends[e]
        signature = (graph.label[e], graph.label[src], graph.label[dst])
        candidates = allowed_by_signature.get(signature)
        if not candidates:
            edge_violations[e] = [
                Violation(
                    "P2a",
                    graph.describe(e),
                    f"no edge type labeled {signature[0]!r} from {signature[1]!r} "
                    f"to {signature[2]!r}",
                )
            ]
            continue
        props = properties.get(e, ())
        # Report against the first edge type that leaves the fewest unmatched.
        best_unmatched = min(
            ([(k, v) for k, v in props if (k, v.datatype.token()) not in allowed]
             for allowed in candidates),
            key=len,
        )
        if best_unmatched:
            edge_violations[e] = [
                Violation(
                    "P2b",
                    graph.describe(e),
                    f"property {key!r} with type {value.datatype} is not declared "
                    f"for edge type {signature[0]!r}",
                )
                for key, value in best_unmatched
            ]

    # Report in canonical element order: nodes, then edges, each element's
    # violations in property order. Only the violators are sorted.
    violations = [
        v
        for n in sorted(node_violations, key=lambda n: (graph.node_canonical_key(n), n))
        for v in node_violations[n]
    ]
    violations += [
        v
        for e in sorted(edge_violations, key=lambda e: (graph.edge_canonical_key(e), e))
        for v in edge_violations[e]
    ]
    return ValidationReport(tuple(violations))


def pg_equal(a: PropertyGraph, b: PropertyGraph) -> bool:
    """Identity-free equality of property graphs.

    Nodes must be distinguishable by (label, properties); graphs produced by
    the mappings always are, since every node carries an identifying
    property. Raises AmbiguousCanonicalKey otherwise.
    """

    def canonical(graph: PropertyGraph):
        node_keys = graph._node_keys.values()
        dupes = [k for k, c in Counter(node_keys).items() if c > 1]
        if dupes:
            raise AmbiguousCanonicalKey(repr(dupes[0]))
        return frozenset(node_keys), Counter(graph._edge_keys.values())

    return canonical(a) == canonical(b)
