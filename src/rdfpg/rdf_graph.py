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
range) IRI triples. Both are immutable named tuples that compare with ==;
each equals the plain tuple of its fields, and a caller replaces a field
with `_replace`. A graph holds a dict, so it does not hash. Each is built
in one pass by whoever reads its source: `build_rdf_graph` and
`build_rdf_schema` from triples, the inverse mappings from a property graph
or its schema. Every schema maker refuses reserved vocabulary terms as
classes or properties with `refuse_vocabulary_terms`.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

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


class RdfGraph(NamedTuple):
    """Graph form of an RDF instance: resource IRIs with their classes,
    literals, and the non-type triples split into object and datatype edges."""

    resource_nodes: Mapping[Iri, Iri]
    literal_nodes: frozenset[Literal]
    object_edges: frozenset[Triple]
    datatype_edges: frozenset[Triple]


class RdfGraphSchema(NamedTuple):
    """Graph form of an RDF schema: class nodes and property edges."""

    class_nodes: frozenset[Iri]
    property_edges: frozenset[PropertyEdge]


def refuse_vocabulary_terms(classes: Iterable[Iri], properties: Iterable[PropertyEdge]) -> None:
    """ReservedVocabularyTerm for the smallest vocabulary class, else for the
    smallest vocabulary property."""
    for terms, where in ((classes, "class"), ((p for p, _, _ in properties), "property")):
        reserved = VOCABULARY_TERMS.intersection(terms)
        if reserved:
            raise ReservedVocabularyTerm(min(reserved).value, where)


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
    return TripleSet(triples.triples.union(additions), triples.prefixes)


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

    properties: list[PropertyEdge] = []
    for pc in sorted(domains.keys() | ranges.keys()):
        pc_domains = domains.get(pc, ())
        pc_ranges = ranges.get(pc, ())
        if len(pc_domains) > 1:
            raise ConflictingDomain(pc.value, _values(pc_domains))
        if len(pc_ranges) > 1:
            raise ConflictingRange(pc.value, _values(pc_ranges))
        if pc_domains and pc_ranges:
            properties.append((pc, pc_domains[0], pc_ranges[0]))
    refuse_vocabulary_terms(classes, properties)
    return RdfGraphSchema(frozenset(classes), frozenset(properties))


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


def rdf_graph_to_triples(graph: RdfGraph) -> TripleSet:
    """Inverse of build_rdf_graph, for every resource node.

    A node classed rdfs:Resource emits no type triple when an edge mentions
    it, since build_rdf_graph gives that class to every untyped subject and
    object; one that no edge mentions emits `x rdf:type rdfs:Resource`, the
    only triple that can carry it. Every other node emits its type triple.
    A literal that no datatype edge holds is in no triple, so it is lost:
    `rdfpg invert` refuses such a graph.
    """
    edges = graph.object_edges.union(graph.datatype_edges)
    mentioned = {t.s for t in edges}.union(t.o for t in graph.object_edges)
    types = [
        Triple(iri, RDF_TYPE, cls)
        for iri, cls in graph.resource_nodes.items()
        if cls != RDFS_RESOURCE or iri not in mentioned
    ]
    return TripleSet(edges.union(types), COMMON_PREFIXES)


def rdf_schema_to_triples(schema: RdfGraphSchema) -> TripleSet:
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
    return TripleSet(triples, COMMON_PREFIXES)


def rdf_equal(a, b) -> bool:
    """Equality for RDF graphs or RDF graph schemas; the same as a == b."""
    if (isinstance(a, RdfGraph) and isinstance(b, RdfGraph)
            or isinstance(a, RdfGraphSchema) and isinstance(b, RdfGraphSchema)):
        return a == b
    raise TypeError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}"
    )
