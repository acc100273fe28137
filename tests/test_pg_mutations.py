"""Inverses refuse what no conversion produces: a PG-side property test.

Each case converts a generated database, applies one mutation to the
property graph, and inverts it. The inverse must either raise an
RdfPgError, or return a database that converts back to the mutated graph
exactly (and, on the dep route, to the same PG schema). A mutation the
inverse accepted but could not give back would be information lost
silently.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.errors import RdfPgError
from rdfpg.generator import GeneratorConfig, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_graph import DATATYPE_KINDS, Edge, IRI_PROPERTY_KEY, PgValue, STRING, canonical_graph

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
