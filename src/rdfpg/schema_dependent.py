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
exactly. Each inverse reads its input in one pass straight into the RDF
model, and refuses with NotProducedByConversion what no conversion writes
and it would merge or drop silently; `invert_schema` takes back exactly
the PG schemas that `map_schema` writes. A PG datatype is its token
string. The eight supported XSD datatypes cross the boundary through a
fixed one-to-one table to the eight kind names; any other RDF datatype of
a literal rides along as a custom PG datatype, its IRI. Three spellings
would not come back and are refused with ReservedVocabularyTerm: a custom
datatype IRI spelled like a kind name ("Integer"), and a datatype property
spelled "iri", the key of the node property that holds a resource's IRI, on
the way to a PG (the Turtle reader accepts relative IRIs, so both can be
written); and, on the way back, a custom PG datatype spelled as one of the
eight supported XSD IRIs.

Validation policy: each direction's entry point (`map_database`,
`invert_database`) checks its input database against its schema once. An
invalid input is still converted, with a `ValidityWarning` whose `report`
holds the failed check; the guarantees are stated only for valid input.
The pieces (`map_schema`, `map_graph`, `invert_schema`, `invert_graph`)
check no schema.
"""

from __future__ import annotations

import warnings
from typing import Callable, NoReturn

from .errors import (
    ConflictingResourceClass,
    DuplicatePropertyLabel,
    MissingEndpointType,
    MissingIriProperty,
    NotProducedByConversion,
    ReservedVocabularyTerm,
    ValidityWarning,
)
from .pg_graph import (
    BOOLEAN,
    canonical_graph,
    canonical_schema,
    DATATYPE_KINDS,
    DATE,
    DATETIME,
    DECIMAL,
    DOUBLE,
    Edge,
    EdgeType,
    INT,
    INTEGER,
    IRI_PROPERTY_KEY,
    Node,
    PgDatatype,
    PgValue,
    PropertyGraph,
    PropertyGraphSchema,
    PropertyType,
    STRING,
    validate_pg,
)
from .rdf_graph import (
    PropertyEdge,
    RdfGraph,
    RdfGraphSchema,
    refuse_vocabulary_terms,
    validate_rdf,
)
from .report import ValidationReport
from .terms import (
    Iri,
    Literal,
    SUPPORTED_DATATYPES,
    Triple,
    VOCABULARY_TERMS,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INT,
    XSD_INTEGER,
    XSD_STRING,
    iri_cache,
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
    node_types: dict[str, list[PropertyType]] = {
        iri.value: [] for iri in schema.class_nodes - EXCLUDED_CLASS_IRIS
    }
    edge_types: list[EdgeType] = []
    for prop_iri, domain, range_ in sorted(schema.property_edges):
        if domain.value not in node_types:
            raise MissingEndpointType(prop_iri.value, domain.value, "domain")
        if range_ in SUPPORTED_DATATYPES:
            if prop_iri.value == IRI_PROPERTY_KEY:
                raise ReservedVocabularyTerm(IRI_PROPERTY_KEY, "datatype property")
            node_types[domain.value].append((prop_iri.value, PG_DATATYPE_OF[range_]))
        else:
            if range_.value not in node_types:
                raise MissingEndpointType(prop_iri.value, range_.value, "range")
            edge_types.append(EdgeType(prop_iri.value, domain.value, range_.value, ()))
    return canonical_schema(node_types, edge_types)


def map_graph(graph: RdfGraph) -> PropertyGraph:
    """RDF graph to property graph.

    Node properties are keyed by label, so a resource holding two values for
    the same datatype property cannot be represented here; that case needs
    the schema-independent mapping. Nodes and edges are built in the
    graph's own order; `canonical_graph` puts them in canonical order.
    """
    resources = graph.resource_nodes
    node_of = {iri: n for n, iri in enumerate(resources)}
    # Each node's properties by key, so a repeated key, "iri" included, is
    # found as it is added.
    props = [{IRI_PROPERTY_KEY: PgValue(iri.value, STRING)} for iri in resources]
    for t in graph.datatype_edges:
        node_props = props[node_of[t.s]]
        key = t.p.value
        datatype = PG_DATATYPE_OF.get(t.o.datatype)
        if datatype is None:
            datatype = t.o.datatype.value
            if datatype in RDF_DATATYPE_OF:
                _refuse_datatype_edges(graph)
        if key in node_props:
            _refuse_datatype_edges(graph)
        node_props[key] = PgValue(t.o.lexical, datatype)

    nodes = [
        Node(cls.value, tuple(sorted(node_props.items())))
        for cls, node_props in zip(resources.values(), props)
    ]
    edges = [Edge(t.p.value, node_of[t.s], node_of[t.o], ()) for t in graph.object_edges]
    return canonical_graph(nodes, edges)


def _refuse_datatype_edges(graph: RdfGraph) -> NoReturn:
    """The refusal of the first datatype edge that `map_graph` cannot map.

    The edges are read in triple order, so the refusal is the same whatever
    order the graph holds them in: a repeated key names the smallest
    (subject, key) that repeats.
    """
    seen: set[tuple[Iri, str]] = set()
    for t in sorted(graph.datatype_edges):
        key = t.p.value
        if key == IRI_PROPERTY_KEY:
            raise ReservedVocabularyTerm(IRI_PROPERTY_KEY, "datatype property")
        if (t.s, key) in seen:
            raise DuplicatePropertyLabel(t.s.value, key)
        seen.add((t.s, key))
        if t.o.datatype not in PG_DATATYPE_OF and t.o.datatype.value in RDF_DATATYPE_OF:
            raise ReservedVocabularyTerm(t.o.datatype.value, "custom datatype")
    raise AssertionError("every datatype edge can be mapped")


def _warn_if_invalid(report: ValidationReport, model: str, doing: str) -> None:
    """Warn the caller of an entry point that its input database failed `report`."""
    if not report.valid:
        message = f"input {model} database is invalid ({len(report.violations)} violation(s))"
        warnings.warn(ValidityWarning(f"{message}; {doing} anyway", report), stacklevel=3)


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
    _warn_if_invalid(input_report, "RDF", "converting")
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
    """Property graph schema back to an RDF graph schema, read in one pass:
    node types, then their property types, then edge types.

    Only what `map_schema` writes comes back. NotProducedByConversion,
    naming the type, refuses a node type labeled with a supported XSD IRI,
    a property type whose datatype is not a kind name, an edge type with
    property types, and a key or edge label naming a property IRI a second
    time. A key "iri" is refused as `map_schema` refuses it.
    """
    iri = iri_cache()

    def describe(kind: str, label: str) -> Callable[[], str]:
        return lambda: f"{kind} {label!r}"

    class_of: dict[str, Iri] = {}
    for label in pg_schema.node_types:
        class_of[label] = iri(label, describe("node type", label))
        if class_of[label] in PG_DATATYPE_OF:
            raise NotProducedByConversion(f"node type {label!r}", "is labeled with a datatype IRI")
    properties: dict[Iri, PropertyEdge] = {}

    def add_property(prop: Iri, domain: Iri, range_: Iri, element: Callable[[], str]) -> None:
        if prop in properties:
            raise NotProducedByConversion(element(), "reuses the IRI of an earlier type")
        properties[prop] = (prop, domain, range_)

    for label, pts in pg_schema.node_types.items():
        for key, dt in pts:
            element = describe("property type", key)
            if dt not in RDF_DATATYPE_OF:
                _datatype_iri(dt, element, iri)  # raises for an unusable or XSD spelling
                raise NotProducedByConversion(element(), f"has the custom datatype {dt!r}")
            if key == IRI_PROPERTY_KEY:
                raise ReservedVocabularyTerm(IRI_PROPERTY_KEY, "datatype property")
            prop = iri(key, describe("node type", label), "property key")
            add_property(prop, class_of[label], RDF_DATATYPE_OF[dt], element)
    for et in pg_schema.edge_types:
        element = describe("edge type", et.label)
        if et.property_types:
            raise NotProducedByConversion(element(), "has property types")
        add_property(iri(et.label, element), class_of[et.source], class_of[et.target], element)
    classes = {*class_of.values(), *(range_ for _, _, range_ in properties.values())}
    refuse_vocabulary_terms(classes, properties.values())
    return RdfGraphSchema(frozenset(classes), frozenset(properties.values()))


def invert_graph(pg: PropertyGraph) -> RdfGraph:
    """Property graph back to an RDF graph, read in one pass.

    Every node must hold exactly one "iri" property; node labels, edge labels,
    property keys, "iri" values and custom datatypes must be usable as IRIs.
    A graph that no conversion produces is refused with
    NotProducedByConversion: a node whose IRI an earlier node holds with
    the same class (another class is ConflictingResourceClass), a node with
    two values for one key, an "iri" value that is not a String, and an
    edge equal to the one before it. Edge properties have no RDF
    counterpart under this mapping and are dropped with a warning.
    """
    iri = iri_cache()
    resources: dict[Iri, Iri] = {}
    literals: set[Literal] = set()
    datatype_edges: list[Triple] = []
    resource_of: list[Iri] = []  # by node position

    # Error texts name the element being read. These read the loop variables
    # when they are called, which is only on the way to raising, so nothing
    # is built per element for an error that does not happen.
    def describe_node() -> str:
        return pg.describe(node)

    def describe_edge() -> str:
        return pg.describe(edge)

    for node in pg.nodes:
        iri_values = [v for k, v in node.properties if k == IRI_PROPERTY_KEY]
        if len(iri_values) != 1:
            raise MissingIriProperty(describe_node())
        ((lexical, datatype),) = iri_values
        if datatype != STRING:
            raise NotProducedByConversion(
                describe_node(),
                f"holds its {IRI_PROPERTY_KEY!r} value as {datatype}, not {STRING}",
            )
        label = iri(node.label, describe_node)
        resource = iri_for(lexical, describe_node, f"{IRI_PROPERTY_KEY!r} value")
        if resource in resources:
            first = pg.nodes[resource_of.index(resource)]
            if resources[resource] != label:
                raise ConflictingResourceClass(resource.value, pg.describe(first), describe_node())
            if first == node:  # twins are adjacent in canonical order
                raise NotProducedByConversion(describe_node(), "repeats the node before it")
            raise NotProducedByConversion(
                describe_node(), f"holds the IRI of {pg.describe(first)}"
            )
        resources[resource] = label
        resource_of.append(resource)
        previous = None
        for key, value in node.properties:
            if key == previous:  # properties are sorted by key
                raise NotProducedByConversion(describe_node(), f"holds two values for {key!r}")
            previous = key
            if key == IRI_PROPERTY_KEY:
                continue
            prop_iri = iri(key, describe_node, "property key")
            lit = Literal(value.lexical, _datatype_iri(value.datatype, describe_node, iri))
            literals.add(lit)
            datatype_edges.append(Triple(resource, prop_iri, lit))

    object_edges: list[Triple] = []
    dropped = 0
    previous = None
    for edge in pg.edges:
        if edge == previous:  # twins are adjacent in canonical order
            raise NotProducedByConversion(describe_edge(), "repeats the edge before it")
        previous = edge
        label = iri(edge.label, describe_edge)
        object_edges.append(Triple(resource_of[edge.source], label, resource_of[edge.target]))
        dropped += len(edge.properties)
    if dropped:
        warnings.warn(
            f"{dropped} edge propert{'y' if dropped == 1 else 'ies'} have no RDF "
            "counterpart and were dropped",
            stacklevel=2,
        )
    return RdfGraph(
        resources, frozenset(literals), frozenset(object_edges), frozenset(datatype_edges)
    )


def invert_database(
    pg_schema: PropertyGraphSchema, pg: PropertyGraph
) -> tuple[RdfGraphSchema, RdfGraph]:
    """Convert a whole PG database back.

    An input graph that does not conform to its schema is still inverted,
    with a warning, as `map_database` converts an invalid RDF database.
    """
    _warn_if_invalid(validate_pg(pg, pg_schema), "PG", "inverting")
    return invert_schema(pg_schema), invert_graph(pg)
