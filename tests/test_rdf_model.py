"""Formal RDF graph and schema: construction, validation, round-trips."""

from __future__ import annotations

import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMPTY_RDF_GRAPH, EMPTY_RDF_SCHEMA

from rdfpg.errors import (
    ConflictingDomain,
    ConflictingRange,
    MultipleTypes,
    ReservedVocabularyTerm,
)
from rdfpg.generator import (
    GENERATOR_PREFIXES,
    GeneratorConfig,
    gen_instance_triples,
    gen_rdf_database,
    gen_schema_triples,
    gen_triple_set,
)
from rdfpg.rdf_graph import (
    RdfGraph,
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_equal,
    rdf_graph_to_triples,
    rdf_schema_to_triples,
    validate_rdf,
)
from rdfpg.terms import (
    COMMON_PREFIXES,
    Iri,
    Literal,
    PrefixMap,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_RESOURCE,
    Triple,
    TripleSet,
)
from rdfpg.turtle import parse_turtle

VOC = "http://www.example.org/voc/"
EX = "http://www.example.org/data/"
XSD = "http://www.w3.org/2001/XMLSchema#"


def _iri_labels(graph):
    return {iri.value: cls.value for iri, cls in graph.resource_nodes.items()}


def _literal_labels(graph):
    return {(lit.lexical, lit.datatype.value) for lit in graph.literal_nodes}


# -- build_rdf_graph ---------------------------------------------------------


def test_build_graph_org_example(org_graph):
    assert _iri_labels(org_graph) == {
        EX + "Tesla_Inc": VOC + "Organisation",
        EX + "Elon_Musk": VOC + "Person",
    }
    assert _literal_labels(org_graph) == {
        ("Tesla, Inc.", XSD + "string"),
        ("2003-07-01", XSD + "date"),
        ("Elon Musk", XSD + "string"),
        ("46", XSD + "int"),
    }
    assert len(org_graph.object_edges) == 1
    assert len(org_graph.datatype_edges) == 4
    (ceo_edge,) = org_graph.object_edges
    assert ceo_edge == Triple(Iri(EX + "Tesla_Inc"), Iri(VOC + "ceo"), Iri(EX + "Elon_Musk"))
    assert {(t.s.value, t.p.value) for t in org_graph.datatype_edges} == {
        (EX + "Tesla_Inc", VOC + "name"),
        (EX + "Tesla_Inc", VOC + "creation"),
        (EX + "Elon_Musk", VOC + "birthName"),
        (EX + "Elon_Musk", VOC + "age"),
    }
    assert {t.o for t in org_graph.datatype_edges} == org_graph.literal_nodes


def test_build_graph_empty():
    graph = build_rdf_graph(TripleSet())
    assert graph == EMPTY_RDF_GRAPH


def test_build_graph_untyped_resources_default():
    graph = build_rdf_graph(parse_turtle(f"<{EX}a> <{VOC}p> <{EX}b> ."))
    assert _iri_labels(graph) == {
        EX + "a": RDFS_RESOURCE.value,
        EX + "b": RDFS_RESOURCE.value,
    }
    (edge,) = graph.object_edges
    assert edge == Triple(Iri(EX + "a"), Iri(VOC + "p"), Iri(EX + "b"))


def test_build_graph_multiple_types_rejected():
    ts = parse_turtle(f"<{EX}a> a <{VOC}B> , <{VOC}A> .")
    with pytest.raises(MultipleTypes):
        build_rdf_graph(ts)
    graph = build_rdf_graph(ts, first_type="lexicographic")
    assert _iri_labels(graph) == {EX + "a": VOC + "A"}


def test_multiple_types_names_the_smallest_subject_at_fault():
    # Subjects in reverse order, each with two types: the error names the
    # smallest, whatever order the triples come in.
    triples = [Triple(Iri(EX + "c"), RDF_TYPE, Iri(VOC + "B"))] + [
        Triple(Iri(EX + name), RDF_TYPE, Iri(VOC + cls)) for name in "ba" for cls in "BA"
    ]
    with pytest.raises(MultipleTypes) as caught:
        build_rdf_graph(triples)
    assert str(caught.value) == (
        f"subject {EX}a has 2 type declarations ({VOC}A, {VOC}B); "
        "pass first_type='lexicographic' to tie-break"
    )
    assert _iri_labels(build_rdf_graph(triples, first_type="lexicographic")) == {
        EX + "a": VOC + "A", EX + "b": VOC + "A", EX + "c": VOC + "B",
    }


def test_prefix_maps_are_read_only(org_graph):
    given = {"ex": EX}
    own = PrefixMap(given)
    given["zz"] = "urn:zz:"  # the map keeps its own copy
    for prefixes in (own, own._replace(bindings=given),
                     rdf_graph_to_triples(org_graph).prefixes,
                     gen_triple_set(GeneratorConfig(seed=1)).prefixes,
                     parse_turtle(f"@prefix ex: <{EX}> .").prefixes):
        with pytest.raises(TypeError):
            prefixes.bindings["zz"] = "urn:zz:"
    assert "zz" not in own.bindings
    assert "zz" not in COMMON_PREFIXES.bindings and "zz" not in GENERATOR_PREFIXES.bindings


def test_build_graph_same_lexical_different_datatype():
    ts = parse_turtle(
        f'<{EX}a> <{VOC}p> "46"^^<{XSD}int> ; <{VOC}q> "46" .'
    )
    graph = build_rdf_graph(ts)
    assert _literal_labels(graph) == {("46", XSD + "int"), ("46", XSD + "string")}
    assert len(graph.literal_nodes) == 2


def test_build_graph_shared_literal_node():
    ts = parse_turtle(f'<{EX}a> <{VOC}p> "x" . <{EX}b> <{VOC}p> "x" .')
    graph = build_rdf_graph(ts)
    assert len(graph.literal_nodes) == 1
    assert len(graph.datatype_edges) == 2


def test_build_graph_type_with_literal_object_is_data():
    # rdf:type only acts as a class assignment for IRI objects
    ts = parse_turtle(f'<{EX}a> a "weird" .')
    graph = build_rdf_graph(ts)
    assert _iri_labels(graph) == {EX + "a": RDFS_RESOURCE.value}
    assert len(graph.datatype_edges) == 1


# -- build_rdf_schema --------------------------------------------------------


def test_build_schema_org_example(org_rdf_schema):
    classes = {iri.value for iri in org_rdf_schema.class_nodes}
    assert classes == {
        VOC + "Organisation",
        VOC + "Person",
        XSD + "date",
        XSD + "string",
        XSD + "int",
    }
    assert len(org_rdf_schema.property_edges) == 5
    by_iri = {prop.value: (dom, rng) for prop, dom, rng in org_rdf_schema.property_edges}
    assert len(by_iri) == 5
    dom, rng = by_iri[VOC + "ceo"]
    assert dom.value == VOC + "Organisation"
    assert rng.value == VOC + "Person"


def test_build_schema_empty():
    assert build_rdf_schema(TripleSet()) == EMPTY_RDF_SCHEMA


def test_build_schema_from_domain_range_only():
    ts = TripleSet(
        [
            Triple(Iri(VOC + "p"), RDFS_DOMAIN, Iri(VOC + "A")),
            Triple(Iri(VOC + "p"), RDFS_RANGE, Iri(VOC + "B")),
        ]
    )
    schema = build_rdf_schema(ts)
    assert {iri.value for iri in schema.class_nodes} == {VOC + "A", VOC + "B"}
    assert schema.property_edges == {(Iri(VOC + "p"), Iri(VOC + "A"), Iri(VOC + "B"))}


def test_build_schema_conflicting_declarations():
    base = [
        Triple(Iri(VOC + "p"), RDFS_DOMAIN, Iri(VOC + "A")),
        Triple(Iri(VOC + "p"), RDFS_RANGE, Iri(VOC + "B")),
    ]
    with pytest.raises(ConflictingDomain):
        build_rdf_schema(TripleSet(base + [Triple(Iri(VOC + "p"), RDFS_DOMAIN, Iri(VOC + "B"))]))
    with pytest.raises(ConflictingRange):
        build_rdf_schema(TripleSet(base + [Triple(Iri(VOC + "p"), RDFS_RANGE, Iri(VOC + "A"))]))


def test_schema_rejects_vocabulary_terms_as_classes():
    ts = TripleSet([Triple(RDF_TYPE, RDF_TYPE, RDFS_CLASS)])
    with pytest.raises(ReservedVocabularyTerm):
        build_rdf_schema(ts)
    ts = TripleSet([Triple(Iri(VOC + "p"), RDFS_DOMAIN, RDFS_DOMAIN),
                    Triple(Iri(VOC + "p"), RDFS_RANGE, Iri(VOC + "B"))])
    with pytest.raises(ReservedVocabularyTerm):
        build_rdf_schema(ts)


# -- complete_partial_schema -------------------------------------------------


def test_completion_adds_missing_range(org_schema_triples):
    removed = Triple(Iri(VOC + "ceo"), RDFS_RANGE, Iri(VOC + "Person"))
    partial = TripleSet(org_schema_triples - {removed}, org_schema_triples.prefixes)
    completed = complete_partial_schema(partial)
    assert Triple(Iri(VOC + "ceo"), RDFS_RANGE, RDFS_RESOURCE) in completed
    assert partial < completed


def test_completion_is_fixpoint_on_complete_schema(org_schema_triples):
    assert complete_partial_schema(org_schema_triples) == org_schema_triples


def test_completion_fills_both_sides():
    ts = TripleSet([Triple(Iri(VOC + "p"), RDF_TYPE, RDF_PROPERTY)])
    completed = complete_partial_schema(ts)
    assert Triple(Iri(VOC + "p"), RDFS_DOMAIN, RDFS_RESOURCE) in completed
    assert Triple(Iri(VOC + "p"), RDFS_RANGE, RDFS_RESOURCE) in completed


# -- validate_rdf -------------------------------------------------------------


def test_validate_org_example(org_graph, org_rdf_schema):
    assert validate_rdf(org_graph, org_rdf_schema).valid


def test_validate_empty_graph_is_vacuously_valid(org_rdf_schema):
    assert validate_rdf(build_rdf_graph(TripleSet()), org_rdf_schema).valid


def test_validate_relabeled_edge_violates_r2(org_instance, org_rdf_schema):
    ceo = Triple(Iri(EX + "Tesla_Inc"), Iri(VOC + "ceo"), Iri(EX + "Elon_Musk"))
    mutated = TripleSet(
        (org_instance - {ceo})
        | {Triple(Iri(EX + "Tesla_Inc"), Iri(VOC + "creation"), Iri(EX + "Elon_Musk"))},
        org_instance.prefixes,
    )
    report = validate_rdf(build_rdf_graph(mutated), org_rdf_schema)
    assert not report.valid
    assert "R2" in report.rules_violated()


def test_validate_unknown_class_violates_r1(org_instance, org_rdf_schema):
    typed = Triple(Iri(EX + "Tesla_Inc"), RDF_TYPE, Iri(VOC + "Organisation"))
    mutated = TripleSet(
        (org_instance - {typed})
        | {Triple(Iri(EX + "Tesla_Inc"), RDF_TYPE, Iri(VOC + "Company"))},
        org_instance.prefixes,
    )
    report = validate_rdf(build_rdf_graph(mutated), org_rdf_schema)
    assert "R1" in report.rules_violated()


def test_validate_retyped_literal_violates_r3(org_instance, org_rdf_schema):
    aged = Triple(Iri(EX + "Elon_Musk"), Iri(VOC + "age"), Literal("46", Iri(XSD + "int")))
    mutated = TripleSet(
        (org_instance - {aged})
        | {Triple(Iri(EX + "Elon_Musk"), Iri(VOC + "age"), Literal("46", Iri(XSD + "string")))},
        org_instance.prefixes,
    )
    report = validate_rdf(build_rdf_graph(mutated), org_rdf_schema)
    assert "R3" in report.rules_violated()


def test_validate_is_deterministic(org_graph, org_rdf_schema):
    first = validate_rdf(org_graph, org_rdf_schema)
    second = validate_rdf(org_graph, org_rdf_schema)
    assert first.violations == second.violations


# -- conversion back to triples ----------------------------------------------


def test_graph_to_triples_org_roundtrip(org_instance, org_graph):
    assert rdf_graph_to_triples(org_graph) == org_instance


def test_graph_to_triples_empty():
    assert len(rdf_graph_to_triples(build_rdf_graph(TripleSet()))) == 0


def test_graph_to_triples_drops_default_type():
    ts = parse_turtle(f"<{EX}a> <{VOC}p> <{EX}b> .")
    out = rdf_graph_to_triples(build_rdf_graph(ts))
    assert out == ts
    assert all(t.p != RDF_TYPE for t in out)


def test_explicit_resource_type_normalizes_away():
    ts = parse_turtle(f"<{EX}a> a <http://www.w3.org/2000/01/rdf-schema#Resource> ; <{VOC}p> <{EX}b> .")
    graph = build_rdf_graph(ts)
    out = rdf_graph_to_triples(graph)
    assert all(t.p != RDF_TYPE for t in out)
    assert rdf_equal(build_rdf_graph(out), graph)


def test_schema_to_triples_org_roundtrip(org_schema_triples, org_rdf_schema):
    assert rdf_schema_to_triples(org_rdf_schema) == org_schema_triples


def test_schema_to_triples_no_class_triple_for_datatypes(org_rdf_schema):
    out = rdf_schema_to_triples(org_rdf_schema)
    assert Triple(Iri(XSD + "int"), RDF_TYPE, RDFS_CLASS) not in out
    assert rdf_equal(build_rdf_schema(out), org_rdf_schema)


def test_schema_to_triples_empty():
    assert len(rdf_schema_to_triples(build_rdf_schema(TripleSet()))) == 0


# -- rdf_equal -----------------------------------------------------------------


def test_rdf_equal_ignores_internal_ids(org_graph):
    person, org = Iri(EX + "Elon_Musk"), Iri(EX + "Tesla_Inc")
    values = (
        (person, "age", Literal("46", Iri(XSD + "int"))),
        (person, "birthName", Literal("Elon Musk", Iri(XSD + "string"))),
        (org, "creation", Literal("2003-07-01", Iri(XSD + "date"))),
        (org, "name", Literal("Tesla, Inc.", Iri(XSD + "string"))),
    )
    graph = RdfGraph(
        {org: Iri(VOC + "Organisation"), person: Iri(VOC + "Person")},
        frozenset(lit for _, _, lit in values),
        frozenset({Triple(org, Iri(VOC + "ceo"), person)}),
        frozenset(Triple(s, Iri(VOC + key), lit) for s, key, lit in values),
    )
    assert rdf_equal(org_graph, graph)


def test_rdf_equal_detects_missing_edge(org_instance, org_graph):
    smaller = TripleSet(
        org_instance
        - {Triple(Iri(EX + "Elon_Musk"), Iri(VOC + "age"), Literal("46", Iri(XSD + "int")))},
        org_instance.prefixes,
    )
    assert not rdf_equal(org_graph, build_rdf_graph(smaller))


def test_rdf_equal_type_mismatch_raises(org_graph, org_rdf_schema):
    with pytest.raises(TypeError):
        rdf_equal(org_graph, org_rdf_schema)


def test_rebuild_from_triples_is_identity_on_generated_graphs():
    for seed in range(50):
        schema, graph = gen_rdf_database(GeneratorConfig(seed=seed))
        assert rdf_equal(build_rdf_graph(rdf_graph_to_triples(graph)), graph), seed
        assert rdf_equal(build_rdf_schema(rdf_schema_to_triples(schema)), schema), seed


def test_generated_graph_elements_are_the_input_terms():
    """Nodes are the distinct terms of the input and edges its non-type triples."""
    for seed in range(30):
        config = GeneratorConfig(seed=seed)
        schema_triples = complete_partial_schema(gen_schema_triples(config))
        schema = build_rdf_schema(schema_triples)
        triples = gen_instance_triples(config, schema)
        graph = build_rdf_graph(triples)
        assert (schema, graph) == gen_rdf_database(config), seed

        typed = {t for t in triples if t.p == RDF_TYPE and isinstance(t.o, Iri)}
        data = triples - typed
        assert graph.object_edges == {t for t in data if isinstance(t.o, Iri)}, seed
        assert graph.datatype_edges == {t for t in data if isinstance(t.o, Literal)}, seed
        assert graph.literal_nodes == {t.o for t in graph.datatype_edges}, seed
        expected_classes = {t.s: RDFS_RESOURCE for t in triples}
        expected_classes.update((t.o, RDFS_RESOURCE) for t in graph.object_edges)
        expected_classes.update((t.s, t.o) for t in typed)
        assert graph.resource_nodes == expected_classes, seed

        declared = {t.s for t in schema_triples if t.p == RDF_TYPE and t.o == RDFS_CLASS}
        ends = {t.o for t in schema_triples if t.p in (RDFS_DOMAIN, RDFS_RANGE)}
        assert schema.class_nodes == declared | ends, seed
        domain = {t.s: t.o for t in schema_triples if t.p == RDFS_DOMAIN}
        range_ = {t.s: t.o for t in schema_triples if t.p == RDFS_RANGE}
        assert schema.property_edges == {
            (p, domain[p], range_[p]) for p in domain.keys() & range_.keys()
        }, seed

# -- terms ---------------------------------------------------------------------


def test_equal_terms_hash_equal():
    pairs = [
        (Iri(EX + "a"), Iri(EX + "a")),
        (Literal("46", Iri(XSD + "int")), Literal("46", Iri(XSD + "int"))),
        (Triple(Iri(EX + "a"), Iri(VOC + "p"), Iri(EX + "b")),
         Triple(Iri(EX + "a"), Iri(VOC + "p"), Iri(EX + "b"))),
        (Triple(Iri(EX + "a"), Iri(VOC + "p"), Literal("x", Iri(XSD + "string"))),
         Triple(Iri(EX + "a"), Iri(VOC + "p"), Literal.plain("x"))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)


def test_iri_never_equals_literal():
    iri = Iri(EX + "a")
    literal = Literal(EX + "a", Iri(XSD + "string"))
    assert iri != literal and literal != iri
    assert iri != EX + "a"
    assert len({iri, literal}) == 2
    assert Triple(iri, Iri(VOC + "p"), iri) != Triple(iri, Iri(VOC + "p"), literal)
    assert Literal("46", Iri(XSD + "int")) != Literal("46", Iri(XSD + "integer"))


@pytest.mark.parametrize("char", list(' \t\n\u00a0<>"{}|^`\\'))
def test_iri_rejects_characters_rfc3987_excludes(char):
    with pytest.raises(ValueError, match="IRI may not contain"):
        Iri(f"{EX}a{char}b")


def test_iri_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        Iri("")


def test_iri_has_no_unvalidated_constructor():
    for bad in ("a b", ""):
        with pytest.raises(ValueError):
            Iri(bad)
    assert not hasattr(Iri, "_make") and not hasattr(Iri, "_replace")
    iri = Iri(EX + "a")
    pickled = [pickle.dumps(iri, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [copy.copy(iri), copy.deepcopy(iri), *map(pickle.loads, pickled)]:
        assert type(copied) is Iri and copied == iri and copied.value == EX + "a"
    # Unpickling goes through Iri(...), so a tampered value is refused.
    for data in pickled:
        assert b"data/a" in data
        with pytest.raises(ValueError, match="IRI may not contain ' '"):
            pickle.loads(data.replace(b"data/a", b"data/ "))


def test_triple_set_is_a_frozenset_that_copies_and_pickles_with_its_prefixes(org_instance):
    assert org_instance.prefixes.namespace("voc") == VOC
    pickled = [pickle.dumps(org_instance, protocol)
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [copy.copy(org_instance), copy.deepcopy(org_instance),
                   *map(pickle.loads, pickled)]:
        assert type(copied) is TripleSet and copied == org_instance
        assert copied.prefixes == org_instance.prefixes
    with pytest.raises(AttributeError, match="TripleSet is immutable"):
        org_instance.prefixes = PrefixMap()
    assert hash(org_instance) == hash(frozenset(org_instance))
    # It equals any set of the same triples; set operators give a plain frozenset.
    assert org_instance == set(org_instance) and org_instance == TripleSet(org_instance)
    assert type(org_instance - set()) is frozenset


def test_terms_are_tuples_that_never_equal_strings():
    iri = Iri(EX + "a")
    literal = Literal("46", Iri(XSD + "int"))
    assert iri == (EX + "a",) and hash(iri) == hash((EX + "a",))
    assert literal == ("46", (XSD + "int",))
    assert Triple(iri, iri, literal) == (iri, iri, literal)
    assert iri != EX + "a" and str(iri) == iri.value == EX + "a"
    assert repr(iri) == f"Iri(value={EX + 'a'!r})"
    assert repr(literal) == f"Literal(lexical='46', datatype=Iri(value={XSD + 'int'!r}))"


# IRI strings from a small alphabet are often prefixes of each other; the
# wider strategy adds arbitrary non-ASCII text.
_iri_values = st.one_of(
    st.text(st.sampled_from("a/:\u00e9\u00ff\u4e2d\U0001f600"), min_size=1, max_size=4),
    st.text(min_size=1, max_size=8).filter(
        lambda v: not re.search(r'[\x00-\x20\s<>"{}|^`\\]', v)
    ),
)
_iris = _iri_values.map(Iri)
_literals = st.builds(Literal, st.text(st.sampled_from("0a\u00e9\U0001f600\n"), max_size=3)
                      | st.text(max_size=8), _iris)


def _string_key(term):
    """The order terms had when they sorted by their strings: IRIs before literals."""
    if isinstance(term, Iri):
        return (0, term.value, "")
    if isinstance(term, Literal):
        return (1, term.lexical, term.datatype.value)
    return (term.s.value, term.p.value, _string_key(term.o))


@settings(max_examples=200, deadline=None)
@given(
    iris=st.lists(_iris, unique=True),
    literals=st.lists(_literals, unique=True),
    edges=st.lists(st.tuples(_iris, _iris, _iris | _literals), unique=True),
)
def test_natural_order_is_the_string_order(iris, literals, edges):
    assert sorted(iris) == sorted(iris, key=_string_key)
    assert sorted(literals) == sorted(literals, key=_string_key)
    triples = [Triple(*edge) for edge in edges]
    for same_kind in (Iri, Literal):
        homogeneous = [t for t in triples if isinstance(t.o, same_kind)]
        assert sorted(homogeneous) == sorted(homogeneous, key=_string_key)
