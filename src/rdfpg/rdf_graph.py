"""Formal RDF graphs and RDF graph schemas.

An RDF graph separates resource nodes from literal nodes and object edges
from datatype edges, and gives every node and edge a class label. The label
is total here: untyped resources default to rdfs:Resource and plain literals
to xsd:string, which is what the triple-to-graph construction produces.

Identity rules:
  * one resource node per IRI,
  * one literal node per (lexical form, datatype) pair,
  * edges deduplicated by (source, label, target).

Instances are immutable once built; use the builders to assemble them.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    ConflictingDomain,
    ConflictingRange,
    MultipleTypes,
    ReservedVocabularyTerm,
)
from .report import ValidationReport, Violation
from .terms import (
    COMMON_PREFIXES,
    Iri,
    Literal,
    PrefixMap,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_RESOURCE,
    SUPPORTED_DATATYPES,
    Triple,
    TripleSet,
    VOCABULARY_TERMS,
)


@dataclass(frozen=True, eq=False)
class RdfGraph:
    """Graph form of an RDF instance. Compare with rdf_equal, not ==."""

    resource_nodes: Mapping[int, Iri]
    literal_nodes: Mapping[int, str]
    object_edges: Mapping[int, tuple[int, int]]
    datatype_edges: Mapping[int, tuple[int, int]]
    class_label: Mapping[int, Iri]

    def is_empty(self) -> bool:
        return not (self.resource_nodes or self.literal_nodes
                    or self.object_edges or self.datatype_edges)

    def resources_sorted(self) -> list[int]:
        return sorted(self.resource_nodes, key=lambda n: self.resource_nodes[n].value)

    def literals_sorted(self) -> list[int]:
        return sorted(
            self.literal_nodes,
            key=lambda n: (self.literal_nodes[n], self.class_label[n].value),
        )

    def node_key(self, n: int) -> tuple:
        if n in self.resource_nodes:
            return ("resource", self.resource_nodes[n].value, self.class_label[n].value)
        return ("literal", self.literal_nodes[n], self.class_label[n].value)

    def _edges_sorted(self, edges: Mapping[int, tuple[int, int]]) -> list[int]:
        return sorted(
            edges,
            key=lambda e: (
                self.node_key(edges[e][0]),
                self.class_label[e].value,
                self.node_key(edges[e][1]),
            ),
        )

    def object_edges_sorted(self) -> list[int]:
        return self._edges_sorted(self.object_edges)

    def datatype_edges_sorted(self) -> list[int]:
        return self._edges_sorted(self.datatype_edges)

    def describe(self, element: int) -> str:
        """Human-readable handle for diagnostics."""
        if element in self.resource_nodes:
            return str(self.resource_nodes[element])
        if element in self.literal_nodes:
            return f'"{self.literal_nodes[element]}"^^{self.class_label[element]}'
        edges = self.object_edges if element in self.object_edges else self.datatype_edges
        src, dst = edges[element]
        return f"{self.describe(src)} --{self.class_label[element]}--> {self.describe(dst)}"


@dataclass(frozen=True, eq=False)
class RdfGraphSchema:
    """Graph form of an RDF schema: class nodes and property edges."""

    class_nodes: Mapping[int, Iri]
    property_edges: Mapping[int, Iri]
    endpoints: Mapping[int, tuple[int, int]]

    def is_empty(self) -> bool:
        return not (self.class_nodes or self.property_edges)

    def classes_sorted(self) -> list[int]:
        return sorted(self.class_nodes, key=lambda n: self.class_nodes[n].value)

    def properties_sorted(self) -> list[int]:
        return sorted(
            self.property_edges,
            key=lambda e: (
                self.property_edges[e].value,
                self.class_nodes[self.endpoints[e][0]].value,
                self.class_nodes[self.endpoints[e][1]].value,
            ),
        )

    def class_iris(self) -> set[Iri]:
        return set(self.class_nodes.values())


class RdfGraphBuilder:
    """Accumulates nodes and edges, enforcing the graph identity rules."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._resources: dict[Iri, int] = {}
        self._literals: dict[tuple[str, Iri], int] = {}
        self._object_edges: dict[tuple[int, Iri, int], int] = {}
        self._datatype_edges: dict[tuple[int, Iri, int], int] = {}
        self._labels: dict[int, Iri] = {}

    def add_resource(self, iri: Iri, label: Iri = RDFS_RESOURCE) -> int:
        existing = self._resources.get(iri)
        if existing is not None:
            if self._labels[existing] != label:
                raise ValueError(
                    f"resource {iri} already present with class {self._labels[existing]}, "
                    f"cannot relabel to {label}"
                )
            return existing
        n = next(self._ids)
        self._resources[iri] = n
        self._labels[n] = label
        return n

    def add_literal(self, lexical: str, datatype: Iri) -> int:
        key = (lexical, datatype)
        existing = self._literals.get(key)
        if existing is not None:
            return existing
        n = next(self._ids)
        self._literals[key] = n
        self._labels[n] = datatype
        return n

    def add_object_edge(self, src: int, dst: int, label: Iri) -> int:
        key = (src, label, dst)
        existing = self._object_edges.get(key)
        if existing is not None:
            return existing
        e = next(self._ids)
        self._object_edges[key] = e
        self._labels[e] = label
        return e

    def add_datatype_edge(self, src: int, lit: int, label: Iri) -> int:
        key = (src, label, lit)
        existing = self._datatype_edges.get(key)
        if existing is not None:
            return existing
        e = next(self._ids)
        self._datatype_edges[key] = e
        self._labels[e] = label
        return e

    def build(self) -> RdfGraph:
        resource_ids = set(self._resources.values())
        literal_ids = set(self._literals.values())
        for (src, _, dst), _e in self._object_edges.items():
            if src not in resource_ids or dst not in resource_ids:
                raise ValueError("object edge endpoints must be resource nodes")
        for (src, _, lit), _e in self._datatype_edges.items():
            if src not in resource_ids or lit not in literal_ids:
                raise ValueError("datatype edge must run from a resource to a literal")
        return RdfGraph(
            resource_nodes={n: iri for iri, n in self._resources.items()},
            literal_nodes={n: lex for (lex, _dt), n in self._literals.items()},
            object_edges={e: (src, dst) for (src, _, dst), e in self._object_edges.items()},
            datatype_edges={e: (src, lit) for (src, _, lit), e in self._datatype_edges.items()},
            class_label=dict(self._labels),
        )


class RdfGraphSchemaBuilder:
    """Accumulates class nodes and property edges; reserved terms are rejected."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._classes: dict[Iri, int] = {}
        self._properties: dict[tuple[Iri, int, int], int] = {}

    def add_class(self, iri: Iri) -> int:
        if iri in VOCABULARY_TERMS:
            raise ReservedVocabularyTerm(iri.value, "class")
        existing = self._classes.get(iri)
        if existing is not None:
            return existing
        n = next(self._ids)
        self._classes[iri] = n
        return n

    def add_property(self, iri: Iri, domain: int, range_: int) -> int:
        if iri in VOCABULARY_TERMS:
            raise ReservedVocabularyTerm(iri.value, "property")
        key = (iri, domain, range_)
        existing = self._properties.get(key)
        if existing is not None:
            return existing
        e = next(self._ids)
        self._properties[key] = e
        return e

    def build(self) -> RdfGraphSchema:
        class_ids = set(self._classes.values())
        for (_, dom, rng) in self._properties:
            if dom not in class_ids or rng not in class_ids:
                raise ValueError("property endpoints must be declared class nodes")
        return RdfGraphSchema(
            class_nodes={n: iri for iri, n in self._classes.items()},
            property_edges={e: iri for (iri, _, _), e in self._properties.items()},
            endpoints={e: (dom, rng) for (_, dom, rng), e in self._properties.items()},
        )


def build_rdf_graph(triples: TripleSet, first_type: str | None = None) -> RdfGraph:
    """Turn a triple set into a formal RDF graph.

    Type triples become node class labels and are not kept as edges.
    Subjects without a type triple get class rdfs:Resource; plain literals
    get xsd:string. A subject with several type triples is an error unless
    first_type='lexicographic' asks for the smallest class IRI.
    """
    if first_type not in (None, "lexicographic"):
        raise ValueError(f"unknown first_type policy {first_type!r}")
    types: dict[Iri, list[Iri]] = defaultdict(list)
    for t in triples:
        if t.p == RDF_TYPE and isinstance(t.o, Iri):
            types[t.s].append(t.o)

    chosen_type: dict[Iri, Iri] = {}
    for subject in sorted(types, key=lambda i: i.value):
        classes = sorted({c.value for c in types[subject]})
        if len(classes) > 1 and first_type != "lexicographic":
            raise MultipleTypes(subject.value, tuple(classes))
        chosen_type[subject] = Iri(classes[0])

    resource_iris: set[Iri] = set()
    for t in triples:
        resource_iris.add(t.s)
        if isinstance(t.o, Iri) and t.p != RDF_TYPE:
            resource_iris.add(t.o)

    builder = RdfGraphBuilder()
    for iri in sorted(resource_iris, key=lambda i: i.value):
        builder.add_resource(iri, chosen_type.get(iri, RDFS_RESOURCE))
    for t in triples:
        if isinstance(t.o, Literal):
            builder.add_literal(t.o.lexical, t.o.datatype)
    for t in triples:
        if t.p == RDF_TYPE and isinstance(t.o, Iri):
            continue
        src = builder.add_resource(t.s, chosen_type.get(t.s, RDFS_RESOURCE))
        if isinstance(t.o, Iri):
            dst = builder.add_resource(t.o, chosen_type.get(t.o, RDFS_RESOURCE))
            builder.add_object_edge(src, dst, t.p)
        else:
            lit = builder.add_literal(t.o.lexical, t.o.datatype)
            builder.add_datatype_edge(src, lit, t.p)
    return builder.build()


def complete_partial_schema(triples: TripleSet) -> TripleSet:
    """Give every declared property a domain and a range.

    Properties lacking either declaration are completed with rdfs:Resource.
    The result is a superset of the input; already-complete inputs come back
    unchanged.
    """
    declared = {t.s for t in triples if t.p == RDF_TYPE and t.o == RDF_PROPERTY}
    with_domain = {t.s for t in triples if t.p == RDFS_DOMAIN}
    with_range = {t.s for t in triples if t.p == RDFS_RANGE}
    additions = []
    for pc in sorted(declared, key=lambda i: i.value):
        if pc not in with_domain:
            additions.append(Triple(pc, RDFS_DOMAIN, RDFS_RESOURCE))
        if pc not in with_range:
            additions.append(Triple(pc, RDFS_RANGE, RDFS_RESOURCE))
    if not additions:
        return triples
    return triples.with_triples(additions)


def build_rdf_schema(triples: TripleSet) -> RdfGraphSchema:
    """Turn a schema description into a formal RDF graph schema.

    Classes are everything declared rdfs:Class plus every domain or range
    object. A property edge appears for each property with both a domain and
    a range; double declarations of either are rejected.
    """
    classes: set[Iri] = set()
    domains: dict[Iri, list[Iri]] = defaultdict(list)
    ranges: dict[Iri, list[Iri]] = defaultdict(list)
    for t in triples:
        if t.p == RDF_TYPE and t.o == RDFS_CLASS:
            classes.add(t.s)
        elif t.p == RDFS_DOMAIN and isinstance(t.o, Iri):
            classes.add(t.o)
            domains[t.s].append(t.o)
        elif t.p == RDFS_RANGE and isinstance(t.o, Iri):
            classes.add(t.o)
            ranges[t.s].append(t.o)

    builder = RdfGraphSchemaBuilder()
    node_of: dict[Iri, int] = {}
    for c in sorted(classes, key=lambda i: i.value):
        node_of[c] = builder.add_class(c)

    for pc in sorted(set(domains) | set(ranges), key=lambda i: i.value):
        pc_domains = sorted({d.value for d in domains.get(pc, [])})
        pc_ranges = sorted({r.value for r in ranges.get(pc, [])})
        if len(pc_domains) > 1:
            raise ConflictingDomain(pc.value, tuple(pc_domains))
        if len(pc_ranges) > 1:
            raise ConflictingRange(pc.value, tuple(pc_ranges))
        if pc_domains and pc_ranges:
            builder.add_property(pc, node_of[Iri(pc_domains[0])], node_of[Iri(pc_ranges[0])])
    return builder.build()


def validate_rdf(graph: RdfGraph, schema: RdfGraphSchema) -> ValidationReport:
    """Check a graph against a schema; every failure is reported, none raised."""
    declared_classes = {iri.value for iri in schema.class_nodes.values()}
    declared_properties: set[tuple[str, str, str]] = set()
    for e, iri in schema.property_edges.items():
        dom, rng = schema.endpoints[e]
        declared_properties.add(
            (iri.value, schema.class_nodes[dom].value, schema.class_nodes[rng].value)
        )

    violations: list[Violation] = []
    for n in graph.resources_sorted() + graph.literals_sorted():
        label = graph.class_label[n].value
        if label not in declared_classes:
            violations.append(
                Violation("R1", graph.describe(n), f"class {label} is not declared")
            )

    def check_edges(edge_ids: list[int], edges: Mapping[int, tuple[int, int]], rule: str) -> None:
        for e in edge_ids:
            src, dst = edges[e]
            key = (
                graph.class_label[e].value,
                graph.class_label[src].value,
                graph.class_label[dst].value,
            )
            if key not in declared_properties:
                violations.append(
                    Violation(
                        rule,
                        graph.describe(e),
                        f"no declared property {key[0]} from {key[1]} to {key[2]}",
                    )
                )

    check_edges(graph.object_edges_sorted(), graph.object_edges, "R2")
    check_edges(graph.datatype_edges_sorted(), graph.datatype_edges, "R3")
    return ValidationReport(tuple(violations))


def rdf_graph_to_triples(graph: RdfGraph, prefixes: PrefixMap | None = None) -> TripleSet:
    """Inverse of build_rdf_graph. Nodes classed rdfs:Resource emit no type triple."""
    triples: list[Triple] = []
    for n in graph.resources_sorted():
        label = graph.class_label[n]
        if label != RDFS_RESOURCE:
            triples.append(Triple(graph.resource_nodes[n], RDF_TYPE, label))
    for e in graph.object_edges_sorted():
        src, dst = graph.object_edges[e]
        triples.append(
            Triple(graph.resource_nodes[src], graph.class_label[e], graph.resource_nodes[dst])
        )
    for e in graph.datatype_edges_sorted():
        src, lit = graph.datatype_edges[e]
        triples.append(
            Triple(
                graph.resource_nodes[src],
                graph.class_label[e],
                Literal(graph.literal_nodes[lit], graph.class_label[lit]),
            )
        )
    return TripleSet(triples, prefixes or COMMON_PREFIXES)


def rdf_schema_to_triples(schema: RdfGraphSchema, prefixes: PrefixMap | None = None) -> TripleSet:
    """Inverse of build_rdf_schema.

    Datatype classes are left implicit: they reappear as range objects, so a
    rebuilt schema matches the original.
    """
    triples: list[Triple] = []
    for n in schema.classes_sorted():
        iri = schema.class_nodes[n]
        if iri not in SUPPORTED_DATATYPES:
            triples.append(Triple(iri, RDF_TYPE, RDFS_CLASS))
    for e in schema.properties_sorted():
        iri = schema.property_edges[e]
        dom, rng = schema.endpoints[e]
        triples.append(Triple(iri, RDF_TYPE, RDF_PROPERTY))
        triples.append(Triple(iri, RDFS_DOMAIN, schema.class_nodes[dom]))
        triples.append(Triple(iri, RDFS_RANGE, schema.class_nodes[rng]))
    return TripleSet(triples, prefixes or COMMON_PREFIXES)


def _graph_canonical(graph: RdfGraph):
    resources = frozenset(
        (graph.resource_nodes[n].value, graph.class_label[n].value)
        for n in graph.resource_nodes
    )
    literals = frozenset(
        (graph.literal_nodes[n], graph.class_label[n].value) for n in graph.literal_nodes
    )

    def edge_set(edges: Mapping[int, tuple[int, int]]) -> frozenset:
        return frozenset(
            (graph.node_key(src), graph.class_label[e].value, graph.node_key(dst))
            for e, (src, dst) in edges.items()
        )

    return resources, literals, edge_set(graph.object_edges), edge_set(graph.datatype_edges)


def _schema_canonical(schema: RdfGraphSchema):
    classes = frozenset(iri.value for iri in schema.class_nodes.values())
    edges = frozenset(
        (
            schema.class_nodes[schema.endpoints[e][0]].value,
            schema.property_edges[e].value,
            schema.class_nodes[schema.endpoints[e][1]].value,
        )
        for e in schema.property_edges
    )
    return classes, edges


def rdf_equal(a, b) -> bool:
    """Identity-free equality for RDF graphs or RDF graph schemas."""
    if isinstance(a, RdfGraph) and isinstance(b, RdfGraph):
        return _graph_canonical(a) == _graph_canonical(b)
    if isinstance(a, RdfGraphSchema) and isinstance(b, RdfGraphSchema):
        return _schema_canonical(a) == _schema_canonical(b)
    raise TypeError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}"
    )
