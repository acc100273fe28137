"""Schema-dependent conversion between RDF databases and PG databases.

The forward direction turns an RDF graph schema into a property graph schema
and an RDF graph into a property graph:

  * every user class becomes a node type (datatype classes and reserved
    vocabulary terms are excluded),
  * a property whose range is a datatype becomes a property type on the
    domain's node type,
  * any other property becomes an edge type,
  * every resource becomes a node labeled with its class, holding an "iri"
    property plus one property per datatype edge,
  * every object edge becomes a PG edge.

The inverse direction reverses each rule, recovering the original database
exactly. A PG datatype is its token string. The eight supported XSD
datatypes cross the boundary through a fixed one-to-one table to the eight
kind names; any other RDF datatype rides along as a custom PG datatype, its
IRI, so nothing is lost. Three spellings would not come back and are refused
with ReservedVocabularyTerm: a custom datatype IRI spelled like a kind name
("Integer"), and a datatype property spelled "iri", the key of the node
property that holds a resource's IRI, on the way to a PG (the Turtle reader
accepts relative IRIs, so both can be written); and, on the way back, a
custom PG datatype spelled as one of the eight supported XSD IRIs.

Validation policy: each direction's entry point (`map_database`,
`invert_database`) checks its input database against its schema once. An
invalid input is still converted, with a `ValidityWarning` whose `report`
holds the failed check; the guarantees are stated only for valid input.
The pieces (`map_schema`, `map_graph`, `invert_schema`, `invert_graph`)
check nothing.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Callable

from .errors import (
    ConflictingResourceClass,
    DuplicatePropertyLabel,
    MissingEndpointType,
    MissingIriProperty,
    ReservedVocabularyTerm,
    ValidityWarning,
)
from .pg_graph import (
    BOOLEAN,
    DATATYPE_KINDS,
    DATE,
    DATETIME,
    DECIMAL,
    DOUBLE,
    INT,
    INTEGER,
    IRI_PROPERTY_KEY,
    PgDatatype,
    PgValue,
    PropertyGraph,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    PropertyGraphSchemaBuilder,
    STRING,
    validate_pg,
)
from .rdf_graph import (
    RdfGraph,
    RdfGraphBuilder,
    RdfGraphSchema,
    RdfGraphSchemaBuilder,
    validate_rdf,
)
from .terms import (
    Iri,
    SUPPORTED_DATATYPES,
    VOCABULARY_TERMS,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INT,
    XSD_INTEGER,
    XSD_STRING,
    iri_for,
)

# Class IRIs that never become node types: datatype classes turn into
# property types instead, and vocabulary terms never name classes at all.
EXCLUDED_CLASS_IRIS = frozenset(SUPPORTED_DATATYPES | VOCABULARY_TERMS)


# The one-to-one correspondence between the supported RDF datatypes and the
# PG kind names, both ways. Any other datatype IRI is its own PG datatype.
PG_DATATYPE_OF: dict[Iri, PgDatatype] = {
    XSD_STRING: STRING,
    XSD_INTEGER: INTEGER,
    XSD_INT: INT,
    XSD_DECIMAL: DECIMAL,
    XSD_DOUBLE: DOUBLE,
    XSD_BOOLEAN: BOOLEAN,
    XSD_DATE: DATE,
    XSD_DATETIME: DATETIME,
}
RDF_DATATYPE_OF: dict[PgDatatype, Iri] = {dt: iri for iri, dt in PG_DATATYPE_OF.items()}

assert set(PG_DATATYPE_OF) == SUPPORTED_DATATYPES
assert sorted(RDF_DATATYPE_OF) == sorted(DATATYPE_KINDS)


def map_schema(schema: RdfGraphSchema) -> PropertyGraphSchema:
    """RDF graph schema to property graph schema."""
    builder = PropertyGraphSchemaBuilder()
    node_types = schema.class_nodes - EXCLUDED_CLASS_IRIS
    for iri in node_types:
        builder.add_node_type(iri.value)

    for prop_iri, domain, range_ in sorted(schema.property_edges):
        if domain not in node_types:
            raise MissingEndpointType(prop_iri.value, domain.value, "domain")
        if range_ in SUPPORTED_DATATYPES:
            if prop_iri.value == IRI_PROPERTY_KEY:
                raise ReservedVocabularyTerm(IRI_PROPERTY_KEY, "datatype property")
            builder.add_property_type(domain.value, prop_iri.value, PG_DATATYPE_OF[range_])
        else:
            if range_ not in node_types:
                raise MissingEndpointType(prop_iri.value, range_.value, "range")
            builder.add_edge_type(prop_iri.value, domain.value, range_.value)
    return builder.build()


def map_graph(graph: RdfGraph) -> PropertyGraph:
    """RDF graph to property graph.

    Node properties are keyed by label, so a resource holding two values for
    the same datatype property cannot be represented here; that case needs
    the schema-independent mapping.
    """
    builder = PropertyGraphBuilder()
    node_of: dict[Iri, int] = {}
    for iri in sorted(graph.resource_nodes):
        n = builder.add_node(graph.resource_nodes[iri].value)
        builder.add_property(n, IRI_PROPERTY_KEY, PgValue(iri.value, STRING))
        node_of[iri] = n

    seen: set[tuple[int, str]] = set()
    for t in sorted(graph.datatype_edges):
        n = node_of[t.s]
        key = t.p.value
        if key == IRI_PROPERTY_KEY:
            raise ReservedVocabularyTerm(IRI_PROPERTY_KEY, "datatype property")
        if (n, key) in seen:
            raise DuplicatePropertyLabel(t.s.value, key)
        seen.add((n, key))
        datatype = PG_DATATYPE_OF.get(t.o.datatype)
        if datatype is None:
            datatype = t.o.datatype.value
            if datatype in RDF_DATATYPE_OF:
                raise ReservedVocabularyTerm(datatype, "custom datatype")
        builder.add_property(n, key, PgValue(t.o.lexical, datatype))

    for t in sorted(graph.object_edges):
        builder.add_edge(t.p.value, node_of[t.s], node_of[t.o])
    return builder.build()


def map_database(
    schema: RdfGraphSchema, graph: RdfGraph
) -> tuple[PropertyGraphSchema, PropertyGraph]:
    """Convert a whole RDF database.

    An invalid input database is still converted, with a warning. For valid
    input within the mapping's domain, the produced graph is checked against
    the produced schema; a failure there would be a bug in the mapping, so
    it raises. Two kinds of element are formally valid but have no place in
    the produced schema: resources whose class is a datatype or vocabulary
    IRI (no node type), and datatype edges whose literal datatype is not a
    supported datatype (the property is an edge type, so the node property
    is undeclared). Each converts, with a ValidityWarning that has no
    report, and the output check is skipped.
    """
    input_report = validate_rdf(graph, schema)
    if not input_report.valid:
        warnings.warn(
            ValidityWarning(
                f"input RDF database is invalid ({len(input_report.violations)} violation(s)); "
                "converting anyway",
                input_report,
            ),
            stacklevel=2,
        )
    excluded_classed = sorted(
        iri.value for iri, cls in graph.resource_nodes.items() if cls in EXCLUDED_CLASS_IRIS
    )
    if excluded_classed:
        warnings.warn(
            f"{len(excluded_classed)} resource(s) are classed with datatype or "
            f"vocabulary IRIs (e.g. {excluded_classed[0]}) and will not match any "
            "node type",
            ValidityWarning,
            stacklevel=2,
        )
    unsupported = sorted(
        {t.p.value for t in graph.datatype_edges if t.o.datatype not in SUPPORTED_DATATYPES}
    )
    if unsupported:
        warnings.warn(
            f"{len(unsupported)} propert{'y has' if len(unsupported) == 1 else 'ies have'} "
            f"values of a datatype that is not supported (e.g. {unsupported[0]}) and will "
            "not match any property type",
            ValidityWarning,
            stacklevel=2,
        )
    pg_schema = map_schema(schema)
    pg = map_graph(graph)
    if input_report.valid and not excluded_classed and not unsupported:
        output_report = validate_pg(pg, pg_schema)
        if not output_report.valid:
            raise AssertionError(
                "mapping broke validity:\n" + output_report.summary()
            )
    return pg_schema, pg


def _iri_cache() -> Callable[..., Iri]:
    """`iri_for` keeping one Iri per distinct string, as labels and property
    keys repeat across elements. Only successes are kept, so NonIriLabel
    names the first element that holds a bad string."""
    iris: dict[str, Iri] = {}

    def iri(value: str, element: Callable[[], str], role: str = "label") -> Iri:
        found = iris.get(value)
        if found is None:
            found = iris[value] = iri_for(value, element, role)
        return found

    return iri


def _datatype_iri(
    datatype: PgDatatype, element: Callable[[], str], iri: Callable[..., Iri]
) -> Iri:
    """The RDF datatype of `datatype`, its IRI made by `iri`; NonIriLabel
    naming `element` if that IRI is unusable.

    A custom datatype spelled as a supported XSD IRI would invert to the
    same literal as its kind name, so it is refused.
    """
    found = RDF_DATATYPE_OF.get(datatype)
    if found is not None:
        return found
    found = iri(datatype, element, "datatype")
    if found in PG_DATATYPE_OF:
        raise ReservedVocabularyTerm(datatype, "custom datatype")
    return found


def invert_schema(pg_schema: PropertyGraphSchema) -> RdfGraphSchema:
    """Property graph schema back to an RDF graph schema."""
    builder = RdfGraphSchemaBuilder()
    iri = _iri_cache()

    def describe(kind: str, label: str) -> Callable[[], str]:
        return lambda: f"{kind} {label!r}"

    class_of: dict[str, Iri] = {}
    for label in pg_schema.node_types:
        class_of[label] = builder.add_class(iri(label, describe("node type", label)))
    datatype_iris: dict[PgDatatype, Iri] = {}
    property_types = [pt for pts in pg_schema.node_types.values() for pt in pts]
    property_types += [pt for et in pg_schema.edge_types for pt in et.property_types]
    for key, dt in property_types:
        if dt not in datatype_iris:
            datatype_iris[dt] = _datatype_iri(dt, describe("property type", key), iri)
    for dt in sorted(datatype_iris):
        builder.add_class(datatype_iris[dt])

    for et in pg_schema.edge_types:
        prop_iri = iri(et.label, describe("edge type", et.label))
        builder.add_property(prop_iri, class_of[et.source], class_of[et.target])
    for label, pts in pg_schema.node_types.items():
        for key, dt in pts:
            builder.add_property(
                iri(key, describe("node type", label), "property key"),
                class_of[label],
                datatype_iris[dt],
            )
    return builder.build()


def invert_graph(pg: PropertyGraph) -> RdfGraph:
    """Property graph back to an RDF graph.

    Every node must hold exactly one "iri" property; node labels, edge labels,
    property keys, "iri" values and custom datatypes must be usable as IRIs.
    Edge properties have no RDF counterpart under this mapping and are
    dropped with a warning.
    """
    builder = RdfGraphBuilder()
    iri = _iri_cache()
    resource_of: list[Iri] = []  # by node position
    for node in pg.nodes:
        describe = partial(pg.describe, node)
        iri_values = [v for k, v in node.properties if k == IRI_PROPERTY_KEY]
        if len(iri_values) != 1:
            raise MissingIriProperty(describe())
        label = iri(node.label, describe)
        resource = iri_for(iri_values[0].lexical, describe, f"{IRI_PROPERTY_KEY!r} value")
        try:
            resource_of.append(builder.add_resource(resource, label))
        except ValueError:
            first = pg.nodes[resource_of.index(resource)]
            raise ConflictingResourceClass(resource.value, pg.describe(first), describe()) from None
        for key, value in node.properties:
            if key == IRI_PROPERTY_KEY:
                continue
            prop_iri = iri(key, describe, "property key")
            datatype = _datatype_iri(value.datatype, describe, iri)
            lit = builder.add_literal(value.lexical, datatype)
            builder.add_datatype_edge(resource, lit, prop_iri)

    dropped = 0
    for edge in pg.edges:
        label = iri(edge.label, partial(pg.describe, edge))
        builder.add_object_edge(resource_of[edge.source], resource_of[edge.target], label)
        dropped += len(edge.properties)
    if dropped:
        warnings.warn(
            f"{dropped} edge propert{'y' if dropped == 1 else 'ies'} have no RDF "
            "counterpart and were dropped",
            stacklevel=2,
        )
    return builder.build()


def invert_database(
    pg_schema: PropertyGraphSchema, pg: PropertyGraph
) -> tuple[RdfGraphSchema, RdfGraph]:
    """Convert a whole PG database back.

    An input graph that does not conform to its schema is still inverted,
    with a warning, as `map_database` converts an invalid RDF database.
    """
    report = validate_pg(pg, pg_schema)
    if not report.valid:
        warnings.warn(
            ValidityWarning(
                f"input PG database is invalid ({len(report.violations)} violation(s)); "
                "inverting anyway",
                report,
            ),
            stacklevel=2,
        )
    return invert_schema(pg_schema), invert_graph(pg)
