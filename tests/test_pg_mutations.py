"""Inverses refuse what no conversion produces: a PG-side property test.

Each case converts a generated database, applies one mutation to the
property graph or, on the dep route, to the PG schema, and inverts it. The
inverse must either raise an RdfPgError, or return a database that converts
back to the mutated graph or schema exactly. A mutation the inverse
accepted but could not give back would be information lost silently.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.errors import RdfPgError
from rdfpg.generator import GeneratorConfig, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_graph import (
    DATATYPE_KINDS,
    Edge,
    EdgeType,
    IRI_PROPERTY_KEY,
    PgValue,
    PropertyGraphSchema,
    STRING,
    canonical_graph,
)
from rdfpg.rdf_graph import build_rdf_schema, complete_partial_schema, rdf_schema_to_triples
from rdfpg.terms import RDFS_RESOURCE, SUPPORTED_DATATYPES, VOCABULARY_TERMS
from rdfpg.turtle import parse_turtle, serialize_turtle

CASES_PER_ROUTE = 1000
CONFIG = GeneratorConfig(max_classes=4, max_properties=6, max_resources=8, max_triples=16)

# Strings a mutation writes as a label or a datatype: ones the graph may
# already hold, the other route's labels, reserved and unusable spellings.
LABELS = ("http://www.example.org/voc/Class0", "http://www.example.org/voc/prop0",
          "Resource", "Literal", "ObjectProperty", "DatatypeProperty", IRI_PROPERTY_KEY,
          "http://www.w3.org/2000/01/rdf-schema#Resource",
          "http://www.w3.org/2001/XMLSchema#string", "not an iri")
DATATYPES = DATATYPE_KINDS + ("http://www.w3.org/2001/XMLSchema#integer",
                              "http://www.example.org/datatype/colour", "urn:dt", "Dat e")
IRIS = ("http://www.example.org/data/res0", "http://www.example.org/data/other", "a b")


def _duplicate_node(rng, nodes, edges):
    nodes.append(rng.choice(nodes))


def _duplicate_edge(rng, nodes, edges):
    edges.append(rng.choice(edges))


def _move_edge_onto_twin(rng, nodes, edges):
    """Copy one end of an edge and move that end onto the copy."""
    at = rng.randrange(len(edges))
    label, source, target, properties = edges[at]
    if rng.random() < 0.5:
        nodes.append(nodes[source])
        source = len(nodes) - 1
    else:
        nodes.append(nodes[target])
        target = len(nodes) - 1
    edges[at] = Edge(label, source, target, properties)


def _relabel(rng, nodes, edges):
    elements = nodes if not edges or rng.random() < 0.5 else edges
    at = rng.randrange(len(elements))
    label = rng.choice(LABELS + tuple(sorted({e.label for e in nodes + edges})))
    elements[at] = elements[at]._replace(label=label)


def _drop_or_repeat_iri(rng, nodes, edges):
    at = rng.randrange(len(nodes))
    properties = list(nodes[at].properties)
    held = [p for p in properties if p[0] == IRI_PROPERTY_KEY]
    if held and rng.random() < 0.5:
        properties = [p for p in properties if p[0] != IRI_PROPERTY_KEY]
    elif held and rng.random() < 0.5:
        properties.append(rng.choice(held))
    else:
        properties.append((IRI_PROPERTY_KEY, PgValue(rng.choice(IRIS), STRING)))
    nodes[at] = nodes[at]._replace(properties=tuple(sorted(properties)))


def _respell_datatype(rng, nodes, edges):
    owners = [(elements, at) for elements in (nodes, edges)
              for at, e in enumerate(elements) if e.properties]
    elements, at = rng.choice(owners)
    properties = list(elements[at].properties)
    which = rng.randrange(len(properties))
    key, value = properties[which]
    properties[which] = (key, PgValue(value.lexical, rng.choice(DATATYPES)))
    elements[at] = elements[at]._replace(properties=tuple(sorted(properties)))


MUTATIONS = {
    "duplicate-node": (_duplicate_node, lambda nodes, edges: nodes),
    "duplicate-edge": (_duplicate_edge, lambda nodes, edges: edges),
    "move-edge-onto-twin": (_move_edge_onto_twin, lambda nodes, edges: edges),
    "relabel": (_relabel, lambda nodes, edges: nodes),
    "drop-or-repeat-iri": (_drop_or_repeat_iri, lambda nodes, edges: nodes),
    "respell-datatype": (_respell_datatype,
                         lambda nodes, edges: any(e.properties for e in nodes + edges)),
}


def _convert(route: str, schema, graph):
    """(PG schema, PG) of a database; the indep route has no schema to map."""
    if route == "dep":
        return dep.map_schema(schema), dep.map_graph(graph)
    return None, indep.map_graph(graph)


def _invert(route: str, pg_schema, pg):
    """(RDF schema, RDF graph) that `pg` inverts to, or None if it is refused."""
    try:
        if route == "dep":
            return dep.invert_schema(pg_schema), dep.invert_graph(pg)
        return None, indep.invert_graph(pg)
    except RdfPgError:
        return None


@pytest.mark.parametrize("route", ["dep", "indep"])
def test_mutated_graph_is_refused_or_converts_back(route):
    rng = random.Random(f"pg-mutations:{route}")
    applied, refused = Counter(), Counter()
    seed = 0
    while sum(applied.values()) < CASES_PER_ROUTE:
        config = CONFIG.with_seed(seed)
        seed += 1
        database = gen_rdf_database(config) if route == "dep" else (None, gen_rdf_graph(config))
        pg_schema, pg = _convert(route, *database)
        nodes, edges = list(pg.nodes), list(pg.edges)
        usable = [name for name, (_, applies) in MUTATIONS.items() if applies(nodes, edges)]
        if not usable:
            continue
        name = rng.choice(usable)
        MUTATIONS[name][0](rng, nodes, edges)
        mutated = canonical_graph(nodes, edges)
        applied[name] += 1
        back = _invert(route, pg_schema, mutated)
        if back is None:
            refused[name] += 1
            continue
        assert _convert(route, *back) == (pg_schema, mutated), (
            f"seed {seed - 1}, {name}: the inverse accepted a graph that does not "
            f"convert back\n{mutated}"
        )
    assert set(applied) == set(MUTATIONS)
    # Twins are refused whatever else the graph holds.
    for name in ("duplicate-node", "duplicate-edge", "move-edge-onto-twin"):
        assert refused[name] == applied[name]


# -- the dep PG schema -----------------------------------------------------------
#
# A schema mutation edits `node_types` (label -> list of property types) and
# `edge_types` (a list of [label, source, target, property types]) in place,
# and returns whether the inverse must refuse the result: True for what
# `map_schema` never writes, False for what it does, None for no mutation.

SCHEMA_CASES = 1000
RESPELLED = ("http://www.example.org/datatype/colour", "urn:dt",
             "http://www.w3.org/2001/XMLSchema#integer", "Dat e")
XSD_AND_VOCABULARY = sorted(iri.value for iri in SUPPORTED_DATATYPES | VOCABULARY_TERMS)


def _keys(node_types):
    return [(label, pt) for label, pts in node_types.items() for pt in pts]


def _add_edge_property_type(rng, node_types, edge_types):
    rng.choice(edge_types)[3].append(("http://www.example.org/voc/since", rng.choice(DATATYPE_KINDS)))
    return True


def _respell_schema_datatype(rng, node_types, edge_types):
    label, pt = rng.choice(_keys(node_types))
    pts = node_types[label]
    pts[pts.index(pt)] = (pt[0], rng.choice(RESPELLED))
    return True


def _relabel_node_type(rng, node_types, edge_types):
    """Relabel a node type as an XSD IRI or a vocabulary term, refused, or as
    rdfs:Resource, which schema completion writes."""
    old = rng.choice(sorted(node_types))
    new = rng.choice([RDFS_RESOURCE.value, *XSD_AND_VOCABULARY])
    if new in node_types:
        return None
    node_types[new] = node_types.pop(old)
    for et in edge_types:
        et[1:3] = [new if end == old else end for end in et[1:3]]
    return new != RDFS_RESOURCE.value


def _duplicate_edge_type(rng, node_types, edge_types):
    label, source, target, pts = rng.choice(edge_types)
    edge_types.append([label, source, target, list(pts)])
    return True


def _duplicate_property_type(rng, node_types, edge_types):
    """Repeat a key on its node type, with its own datatype or another kind."""
    label, (key, datatype) = rng.choice(_keys(node_types))
    node_types[label].append((key, rng.choice([datatype, *DATATYPE_KINDS])))
    return True


def _reuse_key_as_edge_label(rng, node_types, edge_types):
    rng.choice(edge_types)[0] = rng.choice(_keys(node_types))[1][0]
    return True


def _reuse_key_on_another_node_type(rng, node_types, edge_types):
    label, pt = rng.choice(_keys(node_types))
    node_types[rng.choice([other for other in node_types if other != label])].append(pt)
    return True


def _add_iri_key(rng, node_types, edge_types):
    node_types[rng.choice(sorted(node_types))].append((IRI_PROPERTY_KEY, rng.choice(DATATYPE_KINDS)))
    return True


def _drop_unreferenced_type(rng, node_types, edge_types):
    """Drop an edge type, or a node type that no edge type references."""
    ends = {end for et in edge_types for end in et[1:3]}
    unreferenced = sorted(label for label in node_types if label not in ends)
    if edge_types and (not unreferenced or rng.random() < 0.5):
        edge_types.pop(rng.randrange(len(edge_types)))
    else:
        del node_types[rng.choice(unreferenced)]
    return False


SCHEMA_MUTATIONS = {
    "add-edge-property-type": (_add_edge_property_type, lambda nts, ets: ets),
    "respell-datatype": (_respell_schema_datatype, lambda nts, ets: _keys(nts)),
    "relabel-node-type": (_relabel_node_type, lambda nts, ets: nts),
    "duplicate-edge-type": (_duplicate_edge_type, lambda nts, ets: ets),
    "duplicate-property-type": (_duplicate_property_type, lambda nts, ets: _keys(nts)),
    "reuse-key-as-edge-label": (_reuse_key_as_edge_label, lambda nts, ets: ets and _keys(nts)),
    "reuse-key-on-another-node-type": (_reuse_key_on_another_node_type,
                                       lambda nts, ets: len(nts) > 1 and _keys(nts)),
    "add-iri-key": (_add_iri_key, lambda nts, ets: nts),
    "drop-unreferenced-type": (
        _drop_unreferenced_type,
        lambda nts, ets: ets or set(nts) - {end for et in ets for end in et[1:3]},
    ),
}


def _schema_of(node_types, edge_types) -> PropertyGraphSchema:
    """The schema in canonical order, as map_schema builds it."""
    return PropertyGraphSchema(
        {label: tuple(sorted(node_types[label])) for label in sorted(node_types)},
        tuple(sorted(EdgeType(label, source, target, tuple(sorted(pts)))
                     for label, source, target, pts in edge_types)),
    )


def _schema_through_turtle(pg_schema):
    """`pg_schema` inverted, written as Turtle, read back and converted, as
    `rdfpg invert` and then `rdfpg convert` do it; None if it is refused."""
    try:
        turtle = serialize_turtle(rdf_schema_to_triples(dep.invert_schema(pg_schema)))
        return dep.map_schema(build_rdf_schema(complete_partial_schema(parse_turtle(turtle))))
    except RdfPgError:
        return None


def test_mutated_schema_is_refused_or_converts_back():
    rng = random.Random("pg-schema-mutations")
    applied, refused = Counter(), Counter()
    seed = 0
    while sum(applied.values()) < SCHEMA_CASES:
        pg_schema = dep.map_schema(gen_rdf_database(CONFIG.with_seed(seed))[0])
        seed += 1
        node_types = {label: list(pts) for label, pts in pg_schema.node_types.items()}
        edge_types = [[*et[:3], list(et.property_types)] for et in pg_schema.edge_types]
        usable = [name for name, (_, applies) in SCHEMA_MUTATIONS.items()
                  if applies(node_types, edge_types)]
        if not usable:
            continue
        name = rng.choice(usable)
        must_refuse = SCHEMA_MUTATIONS[name][0](rng, node_types, edge_types)
        if must_refuse is None:
            continue
        mutated = _schema_of(node_types, edge_types)
        applied[name] += 1
        back = _schema_through_turtle(mutated)
        refused[name] += back is None
        assert (back is None) == must_refuse, f"seed {seed - 1}, {name}:\n{mutated}\n{back}"
        if back is not None:
            assert back == mutated, f"seed {seed - 1}, {name}: converts back to\n{back}"
    assert set(applied) == set(SCHEMA_MUTATIONS)
    assert refused["relabel-node-type"] < applied["relabel-node-type"]
