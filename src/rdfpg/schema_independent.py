"""Schema-independent conversion: any RDF graph into a property graph.

Instead of deriving a schema, this route targets one fixed generic schema:
Resource and Literal node types, ObjectProperty and DatatypeProperty edge
types, each carrying string-typed bookkeeping properties ("iri", "type",
"value"). Every RDF node and edge becomes its own PG element, so inputs the
schema-dependent route rejects (multi-valued properties, untyped resources,
odd datatypes) all pass through losslessly.

The output always conforms to the generic schema, and the inverse mapping
recovers the original RDF graph exactly.

Validation policy: any RDF graph is valid input, so `map_database` only
self-checks its output. `invert_graph` reads each element in the exact
shape `map_graph` writes it in, in one pass; that shape implies conformance
to the generic schema, so the read is the semantics check. At the first
element out of shape, or one that cannot be inverted, it validates the
graph once, and a graph that does not conform is refused with
`SchemaViolation` before any other error: with no other schema there is no
mapping to invert. A conforming graph that no conversion produces, with
twin elements or a Literal node carrying "iri", is refused with
`NotProducedByConversion`. A PG schema offered alongside such a graph must
be the generic schema itself (`require_generic_schema`). The generic
schema is built once, at import, through `canonical_schema` like every
other PG schema, and `map_graph` builds its graph through `canonical_graph`.
"""

from __future__ import annotations

from .errors import (
    ConflictingResourceClass,
    MissingRequiredProperty,
    NotGenericSchema,
    NotProducedByConversion,
    RdfPgError,
    SchemaViolation,
)
from .pg_graph import (
    canonical_graph,
    canonical_schema,
    Edge,
    EdgeType,
    IRI_PROPERTY_KEY,
    Node,
    PgValue,
    PropertyGraph,
    PropertyGraphSchema,
    STRING,
    validate_pg,
)
from .rdf_graph import RdfGraph
from .terms import Iri, Literal, Triple, iri_cache, iri_for

RESOURCE_LABEL = "Resource"
LITERAL_LABEL = "Literal"
OBJECT_PROPERTY_LABEL = "ObjectProperty"
DATATYPE_PROPERTY_LABEL = "DatatypeProperty"

TYPE_KEY = "type"
VALUE_KEY = "value"

# What a string that invert_graph turns into an IRI is to its element.
_IRI_VALUE = f"{IRI_PROPERTY_KEY!r} value"
_TYPE_VALUE = f"{TYPE_KEY!r} value"

# The exact shape map_graph writes each element in: a node's label, then
# its two properties' keys and datatypes; an edge's label, its one
# property's key and datatype, then the kinds of term its ends invert to.
_RESOURCE_SHAPE = (RESOURCE_LABEL, IRI_PROPERTY_KEY, STRING, TYPE_KEY, STRING)
_LITERAL_SHAPE = (LITERAL_LABEL, TYPE_KEY, STRING, VALUE_KEY, STRING)
_OBJECT_EDGE_SHAPE = (OBJECT_PROPERTY_LABEL, TYPE_KEY, STRING, Iri, Iri)
_DATATYPE_EDGE_SHAPE = (DATATYPE_PROPERTY_LABEL, TYPE_KEY, STRING, Iri, Literal)


_GENERIC_SCHEMA = canonical_schema(
    {
        RESOURCE_LABEL: [(IRI_PROPERTY_KEY, STRING), (TYPE_KEY, STRING)],
        LITERAL_LABEL: [(TYPE_KEY, STRING), (VALUE_KEY, STRING)],
    },
    [
        EdgeType(OBJECT_PROPERTY_LABEL, RESOURCE_LABEL, RESOURCE_LABEL, ((TYPE_KEY, STRING),)),
        EdgeType(DATATYPE_PROPERTY_LABEL, RESOURCE_LABEL, LITERAL_LABEL, ((TYPE_KEY, STRING),)),
    ],
)


def generic_schema() -> PropertyGraphSchema:
    """The fixed schema every converted graph conforms to.

    Schemas are immutable, so every call returns the same instance.
    """
    return _GENERIC_SCHEMA


def require_generic_schema(pg_schema: PropertyGraphSchema) -> None:
    """Raise NotGenericSchema, naming the first differing node or edge type
    in canonical order, unless `pg_schema` is the generic schema."""
    generic = _GENERIC_SCHEMA
    if pg_schema == generic:
        return
    for label in sorted(pg_schema.node_types.keys() | generic.node_types.keys()):
        if pg_schema.node_types.get(label) != generic.node_types.get(label):
            raise NotGenericSchema(f"node type {label!r}")

    def edge_types(schema: PropertyGraphSchema, label: str) -> list[EdgeType]:
        return [et for et in schema.edge_types if et.label == label]

    for label in sorted({et.label for et in pg_schema.edge_types + generic.edge_types}):
        if edge_types(pg_schema, label) != edge_types(generic, label):
            raise NotGenericSchema(f"edge type {label!r}")


def map_graph(graph: RdfGraph) -> PropertyGraph:
    """RDF graph to a property graph over the generic schema.

    Class labels and datatypes are preserved in "type" properties; all
    property values are plain strings.
    """
    # Distinct terms give distinct nodes and distinct edge keys, so
    # canonical_graph fixes the order whatever order they come in.
    resources = list(graph.resource_nodes)
    literals = list(graph.literal_nodes)
    node_of = {element: n for n, element in enumerate(resources + literals)}
    edges_by_label = (
        (DATATYPE_PROPERTY_LABEL, graph.datatype_edges),
        (OBJECT_PROPERTY_LABEL, graph.object_edges),
    )
    # Classes, datatypes and predicates repeat across elements; each gets
    # one "type" property, shared by its elements.
    type_iris = {
        *graph.resource_nodes.values(),
        *(lit.datatype for lit in literals),
        *(t.p for _, triples in edges_by_label for t in triples),
    }
    type_of = {iri: (TYPE_KEY, PgValue(iri.value, STRING)) for iri in type_iris}
    # Each element's properties are written out in key order.
    nodes = [
        Node(
            RESOURCE_LABEL,
            ((IRI_PROPERTY_KEY, PgValue(iri.value, STRING)), type_of[graph.resource_nodes[iri]]),
        )
        for iri in resources
    ]
    nodes += [
        Node(LITERAL_LABEL, (type_of[lit.datatype], (VALUE_KEY, PgValue(lit.lexical, STRING))))
        for lit in literals
    ]
    edges = [
        Edge(label, node_of[t.s], node_of[t.o], (type_of[t.p],))
        for label, triples in edges_by_label
        for t in triples
    ]
    return canonical_graph(nodes, edges)


def map_database(graph: RdfGraph) -> tuple[PropertyGraphSchema, PropertyGraph]:
    """Pair the generic schema with the converted graph.

    Conformance holds for every input by construction; it is asserted here
    because a failure would be a bug in the mapping.
    """
    schema = generic_schema()
    pg = map_graph(graph)
    report = validate_pg(pg, schema)
    if not report.valid:
        raise AssertionError("generic-schema conformance broken:\n" + report.summary())
    return schema, pg


def _shape_error(graph: PropertyGraph, element: Node | Edge) -> RdfPgError:
    """The error of a conforming `element` that `map_graph` would not write:
    a bookkeeping property missing or repeated, in the order the keys are
    read, or else a Literal node's reserved "iri" property."""
    if type(element) is Edge:
        keys = (TYPE_KEY,)
    elif element.label == RESOURCE_LABEL:
        keys = (IRI_PROPERTY_KEY, TYPE_KEY)
    else:
        keys = (VALUE_KEY, TYPE_KEY)
    for key in keys:
        count = sum(k == key for k, _ in element.properties)
        if count != 1:
            return MissingRequiredProperty(graph.describe(element), key, count)
    return NotProducedByConversion(
        graph.describe(element), f"carries the reserved property {IRI_PROPERTY_KEY!r}"
    )


def invert_graph(pg: PropertyGraph) -> RdfGraph:
    """Property graph over the generic schema back to an RDF graph.

    One pass reads each element in the exact shape `map_graph` writes,
    which implies conformance to the generic schema. At the first element
    that is not in that shape, or that cannot be inverted, the graph is
    validated once: SchemaViolation if it does not conform, else that
    element's own error, MissingRequiredProperty, NonIriLabel,
    ConflictingResourceClass or NotProducedByConversion.
    """
    try:
        return _read(pg)
    except RdfPgError:
        report = validate_pg(pg, generic_schema())
        if not report.valid:
            raise SchemaViolation(report.summary()) from None
        raise


def _read(pg: PropertyGraph) -> RdfGraph:
    """The RDF graph of `pg`, read in one pass; raises at the first element
    out of `map_graph`'s shape, or one that cannot be inverted."""
    iri = iri_cache()  # "type" strings repeat across elements
    resources: dict[Iri, Iri] = {}
    literals: list[Literal] = []
    term_of: list[Iri | Literal] = []  # by node position

    # Error texts name the element being read. These read the loop variables
    # when they are called, which is only on the way to raising, so nothing
    # is built per element for an error that does not happen.
    def describe_node() -> str:
        return pg.describe(node)

    def describe_edge() -> str:
        return pg.describe(edge)

    previous = None
    for node in pg.nodes:
        if node == previous:  # twins are adjacent in canonical order
            raise NotProducedByConversion(describe_node(), "repeats the node before it")
        previous = node
        label, properties = node
        if len(properties) == 2:
            (key1, (value1, datatype1)), (key2, (value2, datatype2)) = properties
            shape = (label, key1, datatype1, key2, datatype2)
            if shape == _RESOURCE_SHAPE:
                resource = iri_for(value1, describe_node, _IRI_VALUE)
                cls = iri(value2, describe_node, _TYPE_VALUE)
                if resources.setdefault(resource, cls) != cls:
                    first = pg.nodes[term_of.index(resource)]
                    raise ConflictingResourceClass(value1, pg.describe(first), describe_node())
                term_of.append(resource)
                continue
            if shape == _LITERAL_SHAPE:
                literal = Literal(value2, iri(value1, describe_node, _TYPE_VALUE))
                literals.append(literal)
                term_of.append(literal)
                continue
        raise _shape_error(pg, node)

    object_edges: list[Triple] = []
    datatype_edges: list[Triple] = []
    previous = None
    for edge in pg.edges:
        if edge == previous:
            raise NotProducedByConversion(describe_edge(), "repeats the edge before it")
        previous = edge
        label, source, target, properties = edge
        if len(properties) == 1:
            ((key, (value, datatype)),) = properties
            s, o = term_of[source], term_of[target]
            shape = (label, key, datatype, type(s), type(o))
            if shape == _OBJECT_EDGE_SHAPE:
                object_edges.append(Triple(s, iri(value, describe_edge, _TYPE_VALUE), o))
                continue
            if shape == _DATATYPE_EDGE_SHAPE:
                datatype_edges.append(Triple(s, iri(value, describe_edge, _TYPE_VALUE), o))
                continue
        raise _shape_error(pg, edge)
    return RdfGraph(
        resources, frozenset(literals), frozenset(object_edges), frozenset(datatype_edges)
    )
