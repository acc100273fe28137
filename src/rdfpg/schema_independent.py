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
self-checks its output. `invert_graph` checks its input against the generic
schema and refuses a graph that does not conform (`SchemaViolation`): with
no other schema there is no mapping to invert. A PG schema offered
alongside such a graph must be the generic schema itself
(`require_generic_schema`).
"""

from __future__ import annotations

from functools import partial

from .errors import (
    ConflictingResourceClass,
    MissingRequiredProperty,
    NotGenericSchema,
    SchemaViolation,
)
from .pg_graph import (
    EdgeType,
    IRI_PROPERTY_KEY,
    PgValue,
    PropertyGraph,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    STRING,
    validate_pg,
)
from .rdf_graph import RdfGraph, RdfGraphBuilder
from .terms import Iri, Literal, iri_for

RESOURCE_LABEL = "Resource"
LITERAL_LABEL = "Literal"
OBJECT_PROPERTY_LABEL = "ObjectProperty"
DATATYPE_PROPERTY_LABEL = "DatatypeProperty"

TYPE_KEY = "type"
VALUE_KEY = "value"

# What a string that invert_graph turns into an IRI is to its element.
_IRI_VALUE = f"{IRI_PROPERTY_KEY!r} value"
_TYPE_VALUE = f"{TYPE_KEY!r} value"


# Written out in canonical order, as PropertyGraphSchemaBuilder.build() would.
_GENERIC_SCHEMA = PropertyGraphSchema(
    node_types={
        LITERAL_LABEL: ((TYPE_KEY, STRING), (VALUE_KEY, STRING)),
        RESOURCE_LABEL: ((IRI_PROPERTY_KEY, STRING), (TYPE_KEY, STRING)),
    },
    edge_types=(
        EdgeType(DATATYPE_PROPERTY_LABEL, RESOURCE_LABEL, LITERAL_LABEL, ((TYPE_KEY, STRING),)),
        EdgeType(OBJECT_PROPERTY_LABEL, RESOURCE_LABEL, RESOURCE_LABEL, ((TYPE_KEY, STRING),)),
    ),
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
    builder = PropertyGraphBuilder()
    node_of: dict[Iri | Literal, int] = {}

    for iri in graph.resources_sorted():
        n = builder.add_node(RESOURCE_LABEL)
        builder.add_property(n, IRI_PROPERTY_KEY, PgValue(iri.value, STRING))
        builder.add_property(n, TYPE_KEY, PgValue(graph.resource_nodes[iri].value, STRING))
        node_of[iri] = n
    for lit in graph.literals_sorted():
        n = builder.add_node(LITERAL_LABEL)
        builder.add_property(n, TYPE_KEY, PgValue(lit.datatype.value, STRING))
        builder.add_property(n, VALUE_KEY, PgValue(lit.lexical, STRING))
        node_of[lit] = n

    for t in graph.datatype_edges_sorted():
        e = builder.add_edge(DATATYPE_PROPERTY_LABEL, node_of[t.s], node_of[t.o])
        builder.add_property(e, TYPE_KEY, PgValue(t.p.value, STRING))
    for t in graph.object_edges_sorted():
        e = builder.add_edge(OBJECT_PROPERTY_LABEL, node_of[t.s], node_of[t.o])
        builder.add_property(e, TYPE_KEY, PgValue(t.p.value, STRING))
    return builder.build()


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


def _single(graph: PropertyGraph, element: int, key: str) -> str:
    values = [v.lexical for k, v in graph.properties_by_owner.get(element, ()) if k == key]
    if len(values) != 1:
        raise MissingRequiredProperty(graph.describe(element), key, len(values))
    return values[0]


def invert_graph(pg: PropertyGraph) -> RdfGraph:
    """Property graph over the generic schema back to an RDF graph.

    Raises SchemaViolation if `pg` does not conform to the generic schema.
    """
    report = validate_pg(pg, generic_schema())
    if not report.valid:
        raise SchemaViolation(report.summary())

    builder = RdfGraphBuilder()
    element_of: dict[int, Iri | Literal] = {}
    for n in pg.nodes_sorted():
        describe = partial(pg.describe, n)
        if pg.label[n] == RESOURCE_LABEL:
            iri = _single(pg, n, IRI_PROPERTY_KEY)
            type_iri = _single(pg, n, TYPE_KEY)
            resource = iri_for(iri, describe, _IRI_VALUE)
            label = iri_for(type_iri, describe, _TYPE_VALUE)
            try:
                element_of[n] = builder.add_resource(resource, label)
            except ValueError:
                first = next(m for m, element in element_of.items() if element == resource)
                raise ConflictingResourceClass(iri, pg.describe(first), pg.describe(n)) from None
        else:
            value = _single(pg, n, VALUE_KEY)
            type_iri = _single(pg, n, TYPE_KEY)
            element_of[n] = builder.add_literal(value, iri_for(type_iri, describe, _TYPE_VALUE))

    for e in pg.edges_sorted():
        src, dst = pg.ends[e]
        type_iri = iri_for(_single(pg, e, TYPE_KEY), partial(pg.describe, e), _TYPE_VALUE)
        if pg.label[e] == OBJECT_PROPERTY_LABEL:
            builder.add_object_edge(element_of[src], element_of[dst], type_iri)
        else:
            builder.add_datatype_edge(element_of[src], element_of[dst], type_iri)
    return builder.build()
