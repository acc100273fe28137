"""Property graphs and property graph schemas.

A property graph holds labeled nodes and directed labeled edges, each owning
a set of key-value properties. Values carry an explicit datatype so that a
string "46" and an integer "46" stay distinguishable; nothing is inferred
from lexical forms.

A built graph stores each owner's properties once, already in canonical
order. Its canonical keys and its canonical node and edge orders are
computed at most once per graph, on first use, and every consumer (the
validator, the serializers, the inverse mappings, pg_equal) reuses them.

Schemas declare node types, edge types (with fixed endpoint node types) and
the property types allowed on each. Property types constrain what may appear,
they do not make properties mandatory.
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


@dataclass(frozen=True, eq=False)
class PropertyGraphSchema:
    """Compare with pg_schema_equal, not ==.

    Like PropertyGraph, a schema fills in its sorted property types, type
    keys, canonical orders and validation lookup tables on first use and
    caches them on the instance; the fields they derive from never change.
    """

    node_types: frozenset[int]
    edge_types: frozenset[int]
    property_types: frozenset[int]
    label: Mapping[int, str]
    ptype: Mapping[int, tuple[str, PgDatatype]]
    ends: Mapping[int, tuple[int, int]]
    attach: Mapping[int, frozenset[int]]

    def is_empty(self) -> bool:
        return not (self.node_types or self.edge_types)

    @cached_property
    def _property_types(self) -> dict[int, tuple[tuple[str, PgDatatype], ...]]:
        ptype = self.ptype
        return {
            owner: tuple(sorted((ptype[pt] for pt in pts), key=lambda kv: (kv[0], kv[1].token())))
            for owner, pts in self.attach.items()
        }

    def property_types_of(self, owner: int) -> list[tuple[str, PgDatatype]]:
        return list(self._property_types.get(owner, ()))

    def _property_type_keys(self, owner: int) -> tuple:
        return tuple((k, dt.token()) for k, dt in self._property_types.get(owner, ()))

    @cached_property
    def _type_keys(self) -> dict[int, tuple]:
        label, ends = self.label, self.ends
        keys = {nt: (label[nt], self._property_type_keys(nt)) for nt in self.node_types}
        for et in self.edge_types:
            src, dst = ends[et]
            keys[et] = (label[et], label[src], label[dst], self._property_type_keys(et))
        return keys

    @cached_property
    def _node_type_order(self) -> tuple[int, ...]:
        keys = self._type_keys
        return tuple(sorted(self.node_types, key=lambda nt: (keys[nt], nt)))

    @cached_property
    def _edge_type_order(self) -> tuple[int, ...]:
        keys = self._type_keys
        return tuple(sorted(self.edge_types, key=lambda et: (keys[et], et)))

    def node_type_key(self, nt: int) -> tuple:
        return self._type_keys[nt]

    def edge_type_key(self, et: int) -> tuple:
        return self._type_keys[et]

    def node_types_sorted(self) -> list[int]:
        return list(self._node_type_order)

    def edge_types_sorted(self) -> list[int]:
        return list(self._edge_type_order)

    @cached_property
    def _node_type_by_label(self) -> dict[str, int]:
        return {self.label[nt]: nt for nt in self.node_types}

    @cached_property
    def _allowed(self) -> dict[int, frozenset[tuple[str, str]]]:
        """(key, datatype token) pairs each node or edge type allows."""
        return {
            owner: frozenset(self._property_type_keys(owner))
            for owner in itertools.chain(self.node_types, self.edge_types)
        }

    @cached_property
    def _edge_types_by_signature(self) -> dict[tuple[str, str, str], list[int]]:
        """Edge types by (label, source label, target label), in canonical order."""
        label = self.label
        by_signature: dict[tuple[str, str, str], list[int]] = defaultdict(list)
        for et in self._edge_type_order:
            src, dst = self.ends[et]
            by_signature[(label[et], label[src], label[dst])].append(et)
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
    def __init__(self) -> None:
        self._ids = itertools.count()
        self._node_types: dict[int, str] = {}
        self._edge_types: dict[int, tuple[str, int, int]] = {}
        self._ptypes: dict[int, tuple[str, PgDatatype]] = {}
        self._attach: dict[int, list[int]] = defaultdict(list)

    def add_node_type(self, label: str) -> int:
        if label in self._node_types.values():
            raise ValueError(f"duplicate node type label {label!r}")
        nt = next(self._ids)
        self._node_types[nt] = label
        return nt

    def add_edge_type(self, label: str, src: int, dst: int) -> int:
        if src not in self._node_types or dst not in self._node_types:
            raise ValueError("edge type endpoints must be existing node types")
        et = next(self._ids)
        self._edge_types[et] = (label, src, dst)
        return et

    def add_property_type(self, owner: int, key: str, datatype: PgDatatype) -> int:
        if owner not in self._node_types and owner not in self._edge_types:
            raise ValueError("property type owner must be a node or edge type")
        pt = next(self._ids)
        self._ptypes[pt] = (key, datatype)
        self._attach[owner].append(pt)
        return pt

    def build(self) -> PropertyGraphSchema:
        labels: dict[int, str] = dict(self._node_types)
        ends: dict[int, tuple[int, int]] = {}
        for et, (label, src, dst) in self._edge_types.items():
            labels[et] = label
            ends[et] = (src, dst)
        return PropertyGraphSchema(
            node_types=frozenset(self._node_types),
            edge_types=frozenset(self._edge_types),
            property_types=frozenset(self._ptypes),
            label=labels,
            ptype=dict(self._ptypes),
            ends=ends,
            attach={o: frozenset(ps) for o, ps in self._attach.items() if ps},
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
    nt_by_label = schema._node_type_by_label
    allowed = schema._allowed
    et_by_signature = schema._edge_types_by_signature

    properties = graph.properties_by_owner
    node_violations: dict[int, list[Violation]] = {}
    for n in graph.nodes:
        label = graph.label[n]
        nt = nt_by_label.get(label)
        if nt is None:
            node_violations[n] = [
                Violation("P1a", graph.describe(n), f"no node type labeled {label!r}")
            ]
            continue
        allowed_nt = allowed[nt]
        found = [
            Violation(
                "P1b",
                graph.describe(n),
                f"property {key!r} with type {value.datatype} is not declared "
                f"for node type {label!r}",
            )
            for key, value in properties.get(n, ())
            if (key, value.datatype.token()) not in allowed_nt
            and not (key == IRI_PROPERTY_KEY and value.datatype == STRING)
        ]
        if found:
            node_violations[n] = found

    edge_violations: dict[int, list[Violation]] = {}
    for e in graph.edges:
        src, dst = graph.ends[e]
        signature = (graph.label[e], graph.label[src], graph.label[dst])
        candidates = et_by_signature.get(signature)
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
        best_unmatched: list[tuple[str, PgValue]] | None = None
        for et in candidates:
            unmatched = [
                (k, v) for k, v in props if (k, v.datatype.token()) not in allowed[et]
            ]
            if best_unmatched is None or len(unmatched) < len(best_unmatched):
                best_unmatched = unmatched
            if not unmatched:
                break
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


def pg_schema_equal(a: PropertyGraphSchema, b: PropertyGraphSchema) -> bool:
    """Identity-free equality of property graph schemas."""

    def canonical(schema: PropertyGraphSchema):
        node_keys = frozenset(schema.node_type_key(nt) for nt in schema.node_types)
        edge_keys = Counter(schema.edge_type_key(et) for et in schema.edge_types)
        return node_keys, edge_keys

    return canonical(a) == canonical(b)
