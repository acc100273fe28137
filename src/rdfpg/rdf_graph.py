"""Formal RDF graphs and RDF graph schemas, keyed by their own terms.

An RDF graph separates resource nodes from literal nodes and object edges
from datatype edges, and gives every node and edge a class label. Here each
element is the term that identifies it:

  * a resource node is its IRI, mapped to its class; untyped resources get
    rdfs:Resource, which is what the triple-to-graph construction produces,
  * a literal node is its Literal, (lexical form, datatype), and its class
    is its datatype, so plain literals are classed xsd:string,
  * an edge is its triple, and its class is the predicate.

A schema holds its class IRIs and its property edges as (property, domain,
range) IRI triples. Both are immutable values that compare with ==; use the
builders to assemble them with the endpoint checks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping

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

PropertyEdge = tuple[Iri, Iri, Iri]  # (property, domain, range)


def _values(iris: Iterable[Iri]) -> tuple[str, ...]:
    return tuple(sorted(iri.value for iri in iris))


@dataclass(frozen=True)
class RdfGraph:
    """Graph form of an RDF instance: resource IRIs with their classes,
    literals, and the non-type triples split into object and datatype edges."""

    resource_nodes: Mapping[Iri, Iri]
    literal_nodes: frozenset[Literal]
    object_edges: frozenset[Triple]
    datatype_edges: frozenset[Triple]


@dataclass(frozen=True)
class RdfGraphSchema:
    """Graph form of an RDF schema: class nodes and property edges."""

    class_nodes: frozenset[Iri]
    property_edges: frozenset[PropertyEdge]


class RdfGraphBuilder:
    """Accumulates nodes and edges; each add returns the element's term."""

    def __init__(self) -> None:
        self._resources: dict[Iri, Iri] = {}
        self._literals: set[Literal] = set()
        self._object_edges: set[Triple] = set()
        self._datatype_edges: set[Triple] = set()

    def add_resource(self, iri: Iri, label: Iri = RDFS_RESOURCE) -> Iri:
        existing = self._resources.setdefault(iri, label)
        if existing != label:
            raise ValueError(
                f"resource {iri} already present with class {existing}, "
                f"cannot relabel to {label}"
            )
        return iri

    def add_literal(self, lexical: str, datatype: Iri) -> Literal:
        lit = Literal(lexical, datatype)
        self._literals.add(lit)
        return lit

    def add_object_edge(self, src: Iri, dst: Iri, label: Iri) -> Triple:
        edge = Triple(src, label, dst)
        self._object_edges.add(edge)
        return edge

    def add_datatype_edge(self, src: Iri, lit: Literal, label: Iri) -> Triple:
        edge = Triple(src, label, lit)
        self._datatype_edges.add(edge)
        return edge

    def build(self) -> RdfGraph:
        resources = self._resources
        for t in self._object_edges:
            if t.s not in resources or t.o not in resources:
                raise ValueError("object edge endpoints must be resource nodes")
        for t in self._datatype_edges:
            if t.s not in resources or t.o not in self._literals:
                raise ValueError("datatype edge must run from a resource to a literal")
        return RdfGraph(
            dict(resources),
            frozenset(self._literals),
            frozenset(self._object_edges),
            frozenset(self._datatype_edges),
        )


class RdfGraphSchemaBuilder:
    """Accumulates class nodes and property edges; reserved terms are rejected."""

    def __init__(self) -> None:
        self._classes: set[Iri] = set()
        self._properties: set[PropertyEdge] = set()

    def add_class(self, iri: Iri) -> Iri:
        if iri in VOCABULARY_TERMS:
            raise ReservedVocabularyTerm(iri.value, "class")
        self._classes.add(iri)
        return iri

    def add_property(self, iri: Iri, domain: Iri, range_: Iri) -> PropertyEdge:
        if iri in VOCABULARY_TERMS:
            raise ReservedVocabularyTerm(iri.value, "property")
        edge = (iri, domain, range_)
        self._properties.add(edge)
        return edge

    def build(self) -> RdfGraphSchema:
        for (_, dom, rng) in self._properties:
            if dom not in self._classes or rng not in self._classes:
                raise ValueError("property endpoints must be declared class nodes")
        return RdfGraphSchema(frozenset(self._classes), frozenset(self._properties))


def build_rdf_graph(triples: TripleSet, first_type: str | None = None) -> RdfGraph:
    """Turn a triple set into a formal RDF graph.

    Type triples become node class labels and are not kept as edges.
    Subjects without a type triple get class rdfs:Resource; plain literals
    get xsd:string. A subject with several type triples is an error unless
    first_type='lexicographic' asks for the smallest class IRI.
    """
    if first_type not in (None, "lexicographic"):
        raise ValueError(f"unknown first_type policy {first_type!r}")
    resources: dict[Iri, Iri] = {}
    types: dict[Iri, list[Iri]] = defaultdict(list)
    literals: set[Literal] = set()
    object_edges: list[Triple] = []
    datatype_edges: list[Triple] = []
    for t in triples.triples:
        resources[t.s] = RDFS_RESOURCE
        o = t.o
        if isinstance(o, Iri):
            if t.p == RDF_TYPE:
                types[t.s].append(o)
                continue
            resources[o] = RDFS_RESOURCE
            object_edges.append(t)
        else:
            literals.add(o)
            datatype_edges.append(t)

    for subject in sorted(types):
        classes = types[subject]
        if len(classes) > 1 and first_type != "lexicographic":
            raise MultipleTypes(subject.value, _values(classes))
        resources[subject] = min(classes)
    return RdfGraph(resources, frozenset(literals), frozenset(object_edges),
                    frozenset(datatype_edges))


def complete_partial_schema(triples: TripleSet) -> TripleSet:
    """Give every declared property a domain and a range.

    Properties lacking either declaration are completed with rdfs:Resource.
    The result is a superset of the input; already-complete inputs come back
    unchanged.
    """
    declared: set[Iri] = set()
    with_domain: set[Iri] = set()
    with_range: set[Iri] = set()
    for t in triples.triples:
        if t.p == RDF_TYPE and t.o == RDF_PROPERTY:
            declared.add(t.s)
        elif t.p == RDFS_DOMAIN:
            with_domain.add(t.s)
        elif t.p == RDFS_RANGE:
            with_range.add(t.s)
    additions = [Triple(pc, RDFS_DOMAIN, RDFS_RESOURCE) for pc in declared - with_domain]
    additions += [Triple(pc, RDFS_RANGE, RDFS_RESOURCE) for pc in declared - with_range]
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
    for t in triples.triples:
        if t.p == RDF_TYPE and t.o == RDFS_CLASS:
            classes.add(t.s)
        elif t.p == RDFS_DOMAIN and isinstance(t.o, Iri):
            classes.add(t.o)
            domains[t.s].append(t.o)
        elif t.p == RDFS_RANGE and isinstance(t.o, Iri):
            classes.add(t.o)
            ranges[t.s].append(t.o)

    builder = RdfGraphSchemaBuilder()
    for c in sorted(classes):
        builder.add_class(c)
    for pc in sorted(domains.keys() | ranges.keys()):
        pc_domains = domains.get(pc, ())
        pc_ranges = ranges.get(pc, ())
        if len(pc_domains) > 1:
            raise ConflictingDomain(pc.value, _values(pc_domains))
        if len(pc_ranges) > 1:
            raise ConflictingRange(pc.value, _values(pc_ranges))
        if pc_domains and pc_ranges:
            builder.add_property(pc, pc_domains[0], pc_ranges[0])
    return builder.build()


def validate_rdf(graph: RdfGraph, schema: RdfGraphSchema) -> ValidationReport:
    """Check a graph against a schema; every failure is reported, none raised.

    Violations come grouped and each group sorted in natural order:
    resources, then literals, then object edges, then datatype edges.
    """
    declared_classes = schema.class_nodes
    declared_properties = schema.property_edges
    class_of = graph.resource_nodes

    violations = [
        Violation("R1", str(iri), f"class {class_of[iri]} is not declared")
        for iri in sorted(iri for iri, cls in class_of.items() if cls not in declared_classes)
    ]
    violations += [
        Violation("R1", str(lit), f"class {lit.datatype} is not declared")
        for lit in sorted(
            lit for lit in graph.literal_nodes if lit.datatype not in declared_classes
        )
    ]

    def edge_violations(rule: str, edges: frozenset[Triple], object_class) -> list[Violation]:
        def key(t: Triple) -> PropertyEdge:
            return t.p, class_of[t.s], object_class(t.o)

        bad = sorted(t for t in edges if key(t) not in declared_properties)
        return [
            Violation(rule, f"{t.s} --{t.p}--> {t.o}",
                      "no declared property {} from {} to {}".format(*key(t)))
            for t in bad
        ]

    violations += edge_violations("R2", graph.object_edges, class_of.__getitem__)
    violations += edge_violations("R3", graph.datatype_edges, attrgetter("datatype"))
    return ValidationReport(tuple(violations))


def rdf_graph_to_triples(graph: RdfGraph, prefixes: PrefixMap | None = None) -> TripleSet:
    """Inverse of build_rdf_graph. Nodes classed rdfs:Resource emit no type triple."""
    types = [
        Triple(iri, RDF_TYPE, cls)
        for iri, cls in graph.resource_nodes.items()
        if cls != RDFS_RESOURCE
    ]
    return TripleSet(graph.object_edges.union(graph.datatype_edges, types),
                     prefixes or COMMON_PREFIXES)


def rdf_schema_to_triples(schema: RdfGraphSchema, prefixes: PrefixMap | None = None) -> TripleSet:
    """Inverse of build_rdf_schema.

    Datatype classes are left implicit: they reappear as range objects, so a
    rebuilt schema matches the original.
    """
    triples = [Triple(c, RDF_TYPE, RDFS_CLASS)
               for c in schema.class_nodes if c not in SUPPORTED_DATATYPES]
    for prop, dom, rng in schema.property_edges:
        triples.append(Triple(prop, RDF_TYPE, RDF_PROPERTY))
        triples.append(Triple(prop, RDFS_DOMAIN, dom))
        triples.append(Triple(prop, RDFS_RANGE, rng))
    return TripleSet(triples, prefixes or COMMON_PREFIXES)


def rdf_equal(a, b) -> bool:
    """Equality for RDF graphs or RDF graph schemas; the same as a == b."""
    if (isinstance(a, RdfGraph) and isinstance(b, RdfGraph)
            or isinstance(a, RdfGraphSchema) and isinstance(b, RdfGraphSchema)):
        return a == b
    raise TypeError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}"
    )
