"""Deterministic random generators for conformance testing.

Everything here is a pure function of its GeneratorConfig: the same seed
always produces the same database, graph or document, so any failing case
can be reproduced from its seed alone.

gen_rdf_database builds valid-by-construction databases compatible with the
schema-dependent mapping (one type per subject, one value per datatype
property per subject). gen_rdf_graph drops those restrictions and produces
arbitrary well-formed RDF graphs, including multi-valued properties, shared
and isolated literals, untyped resources and custom datatypes, for
exercising the schema-independent route.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

from .pg_graph import (
    DATATYPE_KINDS,
    EdgeType,
    PgDatatype,
    PgValue,
    PropertyGraph,
    PropertyGraphSchema,
    PropertyType,
    STRING,
    canonical_graph,
    canonical_schema,
)
from .rdf_graph import (
    RdfGraph,
    RdfGraphSchema,
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
)
from .terms import (
    Iri,
    Literal,
    PrefixMap,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_NS,
    RDFS_RANGE,
    RDFS_RESOURCE,
    RDF_NS,
    SUPPORTED_DATATYPES,
    Triple,
    TripleSet,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INT,
    XSD_INTEGER,
    XSD_NS,
    XSD_STRING,
)

VOC_NS = "http://www.example.org/voc/"
DATA_NS = "http://www.example.org/data/"
CUSTOM_DT_NS = "http://www.example.org/datatype/"

GENERATOR_PREFIXES = PrefixMap(
    {
        "rdf": RDF_NS,
        "rdfs": RDFS_NS,
        "xsd": XSD_NS,
        "voc": VOC_NS,
        "ex": DATA_NS,
    }
)

_STRING_POOL = (
    "",
    "alpha",
    "beta gamma",
    'quote " inside',
    "back\\slash",
    "line\nbreak",
    "tab\tstop",
    "Tesla, Inc.",
    "ünïcødé ✓",
    "46",
)
_DATATYPE_POOL = tuple(sorted(SUPPORTED_DATATYPES))


def _rng(label: str, seed: int) -> random.Random:
    """Independent stream per (label, seed). Derived via sha256, not hash(),
    so results are identical across processes regardless of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _GeneratorBounds(NamedTuple):
    seed: int = 0
    max_classes: int = 10
    max_properties: int = 15
    max_resources: int = 30
    max_triples: int = 100


class GeneratorConfig(_GeneratorBounds):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GeneratorConfig":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("max_classes", "max_properties", "max_resources", "max_triples"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        return self

    @classmethod
    def _make(cls, iterable) -> "GeneratorConfig":  # so that _replace checks the bounds too
        return cls(*iterable)

    def with_seed(self, seed: int) -> "GeneratorConfig":
        return self._replace(seed=seed)


def _lexical_for(rng: random.Random, datatype: Iri) -> str:
    if datatype == XSD_STRING:
        return rng.choice(_STRING_POOL)
    if datatype in (XSD_INTEGER, XSD_INT):
        return str(rng.randint(-1000, 1000))
    if datatype == XSD_DECIMAL:
        return f"{rng.randint(-99, 99)}.{rng.randrange(100):02d}"
    if datatype == XSD_DOUBLE:
        return f"{rng.randint(-9, 9)}.{rng.randrange(10)}E{rng.randint(-5, 5)}"
    if datatype == XSD_BOOLEAN:
        return rng.choice(("true", "false"))
    if datatype == XSD_DATE:
        return f"{2000 + rng.randrange(30):04d}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
    if datatype == XSD_DATETIME:
        return (
            f"{2000 + rng.randrange(30):04d}-{rng.randrange(1, 13):02d}-"
            f"{rng.randrange(1, 29):02d}T{rng.randrange(24):02d}:"
            f"{rng.randrange(60):02d}:{rng.randrange(60):02d}"
        )
    return f"value{rng.randrange(100)}"


def gen_schema_triples(config: GeneratorConfig) -> TripleSet:
    """Random schema description. Domains and ranges are sometimes omitted,
    so completion has real work to do."""
    rng = _rng("schema", config.seed)
    classes = [Iri(VOC_NS + f"Class{i}") for i in range(rng.randint(0, config.max_classes))]
    triples: list[Triple] = [Triple(c, RDF_TYPE, RDFS_CLASS) for c in classes]
    for i in range(rng.randint(0, config.max_properties)):
        prop = Iri(VOC_NS + f"prop{i}")
        triples.append(Triple(prop, RDF_TYPE, RDF_PROPERTY))
        if classes and rng.random() < 0.85:
            triples.append(Triple(prop, RDFS_DOMAIN, rng.choice(classes)))
        if not classes or rng.random() < 0.5:
            triples.append(Triple(prop, RDFS_RANGE, rng.choice(_DATATYPE_POOL)))
        elif classes and rng.random() < 0.85:
            triples.append(Triple(prop, RDFS_RANGE, rng.choice(classes)))
        # else: no range triple; completion fills in rdfs:Resource
    return TripleSet(triples, GENERATOR_PREFIXES)


def gen_instance_triples(config: GeneratorConfig, schema: RdfGraphSchema) -> TripleSet:
    """Random instance conforming to `schema`, restricted to what the
    schema-dependent mapping accepts: one type per subject, one value per
    (subject, datatype property)."""
    rng = _rng("instance", config.seed)
    class_iris = sorted(c for c in schema.class_nodes if c not in SUPPORTED_DATATYPES)
    if not class_iris:
        return TripleSet((), GENERATOR_PREFIXES)

    by_class: dict[Iri, list[Iri]] = {c: [] for c in class_iris}
    triples: list[Triple] = []
    for i in range(rng.randint(0, config.max_resources)):
        resource = Iri(DATA_NS + f"res{i}")
        cls = rng.choice(class_iris)
        by_class[cls].append(resource)
        if cls != RDFS_RESOURCE:
            triples.append(Triple(resource, RDF_TYPE, cls))

    properties = sorted(schema.property_edges)
    if not properties:
        return TripleSet(triples, GENERATOR_PREFIXES)

    taken: set[tuple[Iri, Iri]] = set()
    for _ in range(rng.randint(0, config.max_triples)):
        prop, domain, range_ = rng.choice(properties)
        subjects = by_class.get(domain, [])
        if not subjects:
            continue
        subject = rng.choice(subjects)
        if range_ in SUPPORTED_DATATYPES:
            if (subject, prop) in taken:
                continue
            taken.add((subject, prop))
            triples.append(
                Triple(subject, prop, Literal(_lexical_for(rng, range_), range_))
            )
        else:
            targets = by_class.get(range_, [])
            if not targets:
                continue
            triples.append(Triple(subject, prop, rng.choice(targets)))
    return TripleSet(triples, GENERATOR_PREFIXES)


def gen_rdf_database(config: GeneratorConfig) -> tuple[RdfGraphSchema, RdfGraph]:
    """A valid RDF database: random schema, then an instance that conforms.

    Validity is by construction; tests assert it with the validator as an
    independent check.
    """
    schema = build_rdf_schema(complete_partial_schema(gen_schema_triples(config)))
    graph = build_rdf_graph(gen_instance_triples(config, schema))
    return schema, graph


def gen_rdf_graph(config: GeneratorConfig) -> RdfGraph:
    """An arbitrary well-formed RDF graph, unconstrained by any schema."""
    rng = _rng("graph", config.seed)

    class_pool = [Iri(VOC_NS + f"Class{i}") for i in range(max(1, config.max_classes))]
    class_pool.append(RDFS_RESOURCE)
    prop_pool = [Iri(VOC_NS + f"prop{i}") for i in range(max(1, config.max_properties))]
    datatype_pool = list(_DATATYPE_POOL)
    datatype_pool += [Iri(CUSTOM_DT_NS + name) for name in ("temperature", "colour")]

    resources = {
        Iri(DATA_NS + f"res{i}"): rng.choice(class_pool)
        for i in range(rng.randint(0, config.max_resources))
    }
    subjects = list(resources)
    literals = []
    for _ in range(rng.randint(0, config.max_resources)):
        datatype = rng.choice(datatype_pool)
        literals.append(Literal(_lexical_for(rng, datatype), datatype))

    object_edges: set[Triple] = set()
    datatype_edges: set[Triple] = set()
    if subjects:
        for _ in range(rng.randint(0, config.max_triples)):
            prop = rng.choice(prop_pool)
            if literals and rng.random() < 0.5:
                datatype_edges.add(Triple(rng.choice(subjects), prop, rng.choice(literals)))
            else:
                object_edges.add(Triple(rng.choice(subjects), prop, rng.choice(subjects)))
    return RdfGraph(resources, frozenset(literals), frozenset(object_edges),
                    frozenset(datatype_edges))


def gen_triple_set(config: GeneratorConfig) -> TripleSet:
    """Random triple set for Turtle round-trip testing, with awkward lexical
    forms and IRIs that cannot be prefix-compressed."""
    rng = _rng("triples", config.seed)
    subjects = [Iri(DATA_NS + f"sub{i}") for i in range(max(1, config.max_resources))]
    predicates = [Iri(VOC_NS + f"p{i}") for i in range(max(1, config.max_properties))]
    predicates.append(RDF_TYPE)
    other_iris = [
        Iri(f"http://other.example.net/items#x{i}") for i in range(3)
    ] + [Iri(VOC_NS + "versioned/v1.2")]
    datatypes = [*_DATATYPE_POOL, Iri(CUSTOM_DT_NS + "blend")]

    triples: list[Triple] = []
    for _ in range(rng.randint(0, config.max_triples)):
        subject = rng.choice(subjects)
        predicate = rng.choice(predicates)
        roll = rng.random()
        if roll < 0.4:
            obj: Iri | Literal = rng.choice(subjects + other_iris)
        elif roll < 0.7:
            obj = Literal.plain(rng.choice(_STRING_POOL))
        else:
            datatype = rng.choice(datatypes)
            obj = Literal(_lexical_for(rng, datatype), datatype)
        triples.append(Triple(subject, predicate, obj))
    return TripleSet(triples, GENERATOR_PREFIXES)


def _gen_pg_datatype(rng: random.Random) -> PgDatatype:
    if rng.random() < 0.15:
        return CUSTOM_DT_NS + rng.choice(("temperature", "colour"))
    return rng.choice(DATATYPE_KINDS)


def gen_property_graph(config: GeneratorConfig) -> PropertyGraph:
    """Random property graph for JSON round-trip testing.

    Every node gets a distinguishing "uid" property so canonical comparison
    stays well-defined regardless of the rest.
    """
    rng = _rng("pg", config.seed)
    labels = ["Thing", "Item with spaces", "voc:Entity", "größe"]
    keys = ["name", "weird key!", "multi\nline", "n"]

    nodes: list[tuple] = []
    for i in range(rng.randint(0, config.max_resources)):
        label = rng.choice(labels)
        properties = [("uid", PgValue(str(i), STRING))]
        for _ in range(rng.randrange(3)):
            datatype = _gen_pg_datatype(rng)
            properties.append((rng.choice(keys), PgValue(rng.choice(_STRING_POOL), datatype)))
        nodes.append((label, properties))
    edges: list[tuple] = []
    if nodes:
        for _ in range(rng.randint(0, config.max_triples)):
            label = rng.choice(labels)
            source, target = rng.randrange(len(nodes)), rng.randrange(len(nodes))
            properties = ()
            if rng.random() < 0.5:
                key = rng.choice(keys)
                properties = ((key, PgValue(rng.choice(_STRING_POOL), _gen_pg_datatype(rng))),)
            edges.append((label, source, target, properties))
    return canonical_graph(nodes, edges)


def gen_pg_schema(config: GeneratorConfig) -> PropertyGraphSchema:
    """Random property graph schema for JSON round-trip testing."""
    rng = _rng("pgs", config.seed)
    node_types: dict[str, list[PropertyType]] = {}
    for i in range(rng.randint(0, max(1, config.max_classes))):
        node_types[f"Type{i}"] = [
            (f"key{j}", _gen_pg_datatype(rng)) for j in range(rng.randrange(3))
        ]
    labels = list(node_types)
    edge_types: list[EdgeType] = []
    if labels:
        for i in range(rng.randint(0, max(1, config.max_properties))):
            source, target = rng.choice(labels), rng.choice(labels)
            property_types = ()
            if rng.random() < 0.5:
                property_types = (("since", _gen_pg_datatype(rng)),)
            edge_types.append(EdgeType(f"rel{i}", source, target, property_types))
    return canonical_schema(node_types, edge_types)
