"""Every rdfpg record is a named tuple: immutable, equal to the plain tuple of
its fields, with the repr and hashing the package has always shown."""

from __future__ import annotations

import pytest

from rdfpg.cli import RoundtripResult
from rdfpg.generator import GeneratorConfig
from rdfpg.pg_graph import Node, PropertyGraph, PropertyGraphSchema
from rdfpg.rdf_graph import RdfGraph, RdfGraphSchema
from rdfpg.report import ValidationReport, Violation
from rdfpg.terms import Iri, PrefixMap
from rdfpg.turtle import BlankNode, RawTurtleDocument

A, C = Iri("urn:a"), Iri("urn:C")

# (record, its repr, whether it hashes): a record holding a dict does not.
RECORDS = [
    (RdfGraph({A: C}, frozenset(), frozenset(), frozenset()),
     "RdfGraph(resource_nodes={Iri(value='urn:a'): Iri(value='urn:C')}, "
     "literal_nodes=frozenset(), object_edges=frozenset(), datatype_edges=frozenset())",
     False),
    (RdfGraphSchema(frozenset({C}), frozenset()),
     "RdfGraphSchema(class_nodes=frozenset({Iri(value='urn:C')}), property_edges=frozenset())",
     True),
    (PropertyGraph((Node("A", ()),), ()),
     "PropertyGraph(nodes=(Node(label='A', properties=()),), edges=())", True),
    (PropertyGraphSchema({"A": ()}, ()),
     "PropertyGraphSchema(node_types={'A': ()}, edge_types=())", False),
    (Violation("P1a", "node A{}", "no node type labeled 'A'"),
     "Violation(rule='P1a', element='node A{}', message=\"no node type labeled 'A'\")", True),
    (ValidationReport(), "ValidationReport(violations=())", True),
    (PrefixMap({"ex": "urn:ex#"}), "PrefixMap(bindings={'ex': 'urn:ex#'})", False),
    (BlankNode("_:b"), "BlankNode(label='_:b')", True),
    (RawTurtleDocument((), PrefixMap()),
     "RawTurtleDocument(triples=(), prefixes=PrefixMap(bindings={}))", False),
    (GeneratorConfig(),
     "GeneratorConfig(seed=0, max_classes=10, max_properties=15, max_resources=30, "
     "max_triples=100)", True),
    (RoundtripResult(3, 1), "RoundtripResult(passed=3, failed=1, semantics_failures=0)", True),
]


@pytest.mark.parametrize("record, text, hashes", RECORDS,
                         ids=[type(record).__name__ for record, _, _ in RECORDS])
def test_records_are_named_tuples(record, text, hashes):
    assert isinstance(record, tuple) and record == tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert record._replace() == record and type(record._replace()) is type(record)
    assert repr(record) == text
    if hashes:
        assert hash(record) == hash(tuple(record))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_each_default_prefix_map_has_its_own_bindings():
    assert PrefixMap() == PrefixMap({}) and PrefixMap().bindings is not PrefixMap().bindings


def test_generator_config_checks_its_bounds_however_it_is_built():
    with pytest.raises(ValueError, match="max_classes must be >= 0"):
        GeneratorConfig(0, -1)
    with pytest.raises(ValueError, match="max_triples must be >= 0"):
        GeneratorConfig()._replace(max_triples=-1)
    assert GeneratorConfig(5).with_seed(7) == GeneratorConfig(seed=7)
