"""Seeded generators: determinism and validity by construction."""

from __future__ import annotations

import pytest

from conftest import EMPTY_RDF_GRAPH, EMPTY_RDF_SCHEMA

from rdfpg.generator import (
    GeneratorConfig,
    gen_pg_schema,
    gen_property_graph,
    gen_rdf_database,
    gen_rdf_graph,
    gen_triple_set,
)
from rdfpg.rdf_graph import rdf_equal, validate_rdf


def test_zero_bounds_give_empty_database():
    config = GeneratorConfig(seed=0, max_classes=0, max_properties=0,
                             max_resources=0, max_triples=0)
    schema, graph = gen_rdf_database(config)
    assert schema == EMPTY_RDF_SCHEMA
    assert graph == EMPTY_RDF_GRAPH


def test_same_seed_same_database():
    a_schema, a_graph = gen_rdf_database(GeneratorConfig(seed=99))
    b_schema, b_graph = gen_rdf_database(GeneratorConfig(seed=99))
    assert rdf_equal(a_schema, b_schema)
    assert rdf_equal(a_graph, b_graph)


def test_different_seeds_differ_somewhere():
    graphs = [gen_rdf_database(GeneratorConfig(seed=s))[1] for s in range(8)]
    assert any(
        not rdf_equal(graphs[i], graphs[j])
        for i in range(len(graphs))
        for j in range(i + 1, len(graphs))
    )


def test_generated_databases_are_valid():
    nonempty = 0
    for seed in range(100):
        schema, graph = gen_rdf_database(GeneratorConfig(seed=seed))
        assert validate_rdf(graph, schema).valid, seed
        if graph != EMPTY_RDF_GRAPH:
            nonempty += 1
    assert nonempty > 50  # the generator must actually produce content


def test_indep_generator_is_deterministic():
    assert rdf_equal(
        gen_rdf_graph(GeneratorConfig(seed=5)), gen_rdf_graph(GeneratorConfig(seed=5))
    )


def test_indep_generator_produces_hard_cases():
    saw_multivalued = saw_untyped = saw_isolated_literal = False
    for seed in range(60):
        graph = gen_rdf_graph(GeneratorConfig(seed=seed))
        pairs = set()
        for t in graph.datatype_edges:
            key = (t.s, t.p)
            if key in pairs:
                saw_multivalued = True
            pairs.add(key)
        for cls in graph.resource_nodes.values():
            if cls.value.endswith("Resource"):
                saw_untyped = True
        touched = {t.o for t in graph.datatype_edges}
        if graph.literal_nodes - touched:
            saw_isolated_literal = True
    assert saw_multivalued and saw_untyped and saw_isolated_literal


def test_triple_set_and_pg_generators_deterministic():
    cfg = GeneratorConfig(seed=3)
    assert gen_triple_set(cfg) == gen_triple_set(cfg)
    assert gen_property_graph(cfg) == gen_property_graph(cfg)
    assert gen_pg_schema(cfg) == gen_pg_schema(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(max_triples=-1)
