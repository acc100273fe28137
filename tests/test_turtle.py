"""Turtle parsing, serialization and skolemization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfpg.errors import BlankNodeUnsupported, TurtleSyntaxError, UnknownPrefix
from rdfpg.generator import GeneratorConfig, gen_triple_set
from rdfpg.terms import (
    Iri,
    Literal,
    PrefixMap,
    RDF_TYPE,
    Triple,
    TripleSet,
    XSD_STRING,
)
from rdfpg.turtle import (
    parse_turtle,
    parse_turtle_raw,
    serialize_turtle,
    skolemize,
)

VOC = "http://www.example.org/voc/"
EX = "http://www.example.org/data/"
XSD = "http://www.w3.org/2001/XMLSchema#"


def test_parse_org_instance(org_instance):
    assert len(org_instance) == 7
    assert Triple(
        Iri(EX + "Tesla_Inc"), Iri(VOC + "creation"), Literal("2003-07-01", Iri(XSD + "date"))
    ) in org_instance
    assert Triple(Iri(EX + "Tesla_Inc"), RDF_TYPE, Iri(VOC + "Organisation")) in org_instance


def test_parse_org_schema_statement_count(org_schema_triples):
    assert len(org_schema_triples) == 17


def test_parse_empty():
    assert len(parse_turtle("")) == 0
    assert len(parse_turtle("   # only a comment\n")) == 0


def test_plain_literal_is_string_typed():
    ts = parse_turtle(f'<{EX}a> <{VOC}p> "hello" .')
    (t,) = list(ts)
    assert t.o == Literal("hello", XSD_STRING)


def test_escapes_roundtrip_through_parse():
    text = f'<{EX}a> <{VOC}p> "line\\nbreak tab\\t quote\\" back\\\\ \\u0041\\U00000042" .'
    (t,) = list(parse_turtle(text))
    assert t.o.lexical == 'line\nbreak tab\t quote" back\\ AB'


def test_object_and_predicate_lists():
    ts = parse_turtle(
        f"@prefix ex: <{EX}> .\n"
        f"@prefix voc: <{VOC}> .\n"
        "ex:s voc:p ex:a , ex:b ;\n"
        "     voc:q ex:c ;\n"
        ".\n"
    )
    assert len(ts) == 3


def test_a_keyword_and_a_as_prefix():
    ts = parse_turtle("@prefix a: <http://x.example/> . a:b a a:c .")
    (t,) = list(ts)
    assert t.p == RDF_TYPE
    assert t.s == Iri("http://x.example/b")


def test_prefix_and_local_names_as_the_grammar_gives_them():
    # docs/turtle-grammar.md: PN_PART ::= [A-Za-z0-9_-]*, for prefix and local
    # name alike; the writer uses a prefixed name only for a PN_NAME.
    ts = parse_turtle("@prefix 9-: <http://x/> . 9-:1a 9-:-p 9-:2 .")
    assert ts == TripleSet([Triple(Iri("http://x/1a"), Iri("http://x/-p"), Iri("http://x/2"))])
    assert serialize_turtle(ts) == "<http://x/1a> <http://x/-p> <http://x/2> .\n"


def test_duplicate_triples_collapse():
    ts = parse_turtle(f"<{EX}a> <{VOC}p> <{EX}b> . <{EX}a> <{VOC}p> <{EX}b> .")
    assert len(ts) == 1


def test_syntax_error_carries_position():
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(f"<{EX}a> <{VOC}p>\n  %% .")
    assert err.value.line == 2
    assert err.value.column >= 1
    assert "expected" in str(err.value)


def test_missing_dot_is_reported():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle(f'<{EX}a> <{VOC}p> "x"')


def test_unknown_prefix():
    with pytest.raises(UnknownPrefix) as err:
        parse_turtle("foo:a foo:b foo:c .")
    assert err.value.prefix == "foo"


def test_unterminated_string():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle(f'<{EX}a> <{VOC}p> "oops .')


def test_newline_inside_string_rejected():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle(f'<{EX}a> <{VOC}p> "one\ntwo" .')


@pytest.mark.parametrize("escape", ["\\uD800", "\\udfff", "\\U0000DC00"])
def test_surrogate_escape_rejected_at_its_position(escape):
    text = f'<{EX}a> <{VOC}p>\n  "x{escape}y" .'
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(text)
    assert (err.value.line, err.value.column) == (2, 5)
    assert escape in str(err.value)


def test_escape_next_to_surrogate_range_accepted():
    ts = parse_turtle(f'<{EX}a> <{VOC}p> "\\uD7FF\\uE000\\U0001F600" .')
    (t,) = ts
    assert t.o.lexical == "\ud7ff\ue000\U0001f600"


@pytest.mark.parametrize("digits", ["+041", " 41 ", "4_41", "00g1"])
def test_escape_takes_hex_digits_only(digits):
    with pytest.raises(TurtleSyntaxError):
        parse_turtle(f'<{EX}a> <{VOC}p> "\\u{digits}" .')


def test_blank_nodes_rejected_in_strict_mode():
    with pytest.raises(BlankNodeUnsupported):
        parse_turtle(f"_:b0 <{VOC}p> <{EX}a> .")
    with pytest.raises(BlankNodeUnsupported):
        parse_turtle(f"<{EX}a> <{VOC}p> [] .")


def test_blank_property_list_rejected_even_raw():
    with pytest.raises(TurtleSyntaxError):
        parse_turtle_raw(f"<{EX}a> <{VOC}p> [ <{VOC}q> <{EX}b> ] .")


def test_prefix_redefinition_last_wins():
    with pytest.warns(UserWarning, match="redefined"):
        ts = parse_turtle(
            "@prefix p: <http://one.example/> .\n"
            "p:a p:b p:c .\n"
            "@prefix p: <http://two.example/> .\n"
            "p:a p:b p:c .\n"
        )
    subjects = {t.s.value for t in ts}
    assert subjects == {"http://one.example/a", "http://two.example/a"}
    assert ts.prefixes.namespace("p") == "http://two.example/"


# -- skolemization ---------------------------------------------------------


def test_skolemize_single_blank():
    doc = parse_turtle_raw(f"_:b0 <{VOC}p> <{EX}a> .")
    ts = skolemize(doc)
    (t,) = list(ts)
    assert t.s == Iri("urn:skolem:0")


def test_skolemize_blank_free_is_identity():
    doc = parse_turtle_raw(f"<{EX}a> <{VOC}p> <{EX}b> .")
    assert skolemize(doc) == parse_turtle(f"<{EX}a> <{VOC}p> <{EX}b> .")


def test_skolemize_shared_label_consistent():
    doc = parse_turtle_raw(
        f"_:b0 <{VOC}p> <{EX}a> .\n_:b0 <{VOC}q> _:b1 .\n<{EX}c> <{VOC}r> _:b0 ."
    )
    ts = skolemize(doc)
    by_pred = {t.p.value: t for t in ts}
    s0 = by_pred[VOC + "p"].s
    assert by_pred[VOC + "q"].s == s0
    assert by_pred[VOC + "r"].o == s0
    assert by_pred[VOC + "q"].o == Iri("urn:skolem:1")


def test_skolemize_anonymous_blanks_distinct():
    doc = parse_turtle_raw(f"<{EX}a> <{VOC}p> [] , [] .")
    ts = skolemize(doc)
    objects = {t.o for t in ts}
    assert objects == {Iri("urn:skolem:0"), Iri("urn:skolem:1")}


# -- serialization ----------------------------------------------------------


def test_serialize_reparses_to_same_set(org_instance):
    assert parse_turtle(serialize_turtle(org_instance)) == org_instance


def test_serialize_is_byte_stable(org_instance):
    assert serialize_turtle(org_instance) == serialize_turtle(org_instance)


def test_serialize_empty_is_empty():
    assert serialize_turtle(TripleSet()) == ""


def test_serialize_unprefixable_iri_uses_angle_brackets():
    ts = TripleSet(
        [Triple(Iri("http://nowhere.example/x"), Iri(VOC + "p"), Iri(EX + "b"))],
        PrefixMap({"voc": VOC, "ex": EX}),
    )
    out = serialize_turtle(ts)
    assert "<http://nowhere.example/x>" in out
    assert parse_turtle(out) == ts


def test_serialize_only_used_prefixes():
    ts = TripleSet(
        [Triple(Iri(EX + "a"), Iri(VOC + "p"), Iri(EX + "b"))],
        PrefixMap({"voc": VOC, "ex": EX, "unused": "http://unused.example/"}),
    )
    out = serialize_turtle(ts)
    assert "unused" not in out


def test_generated_triple_sets_roundtrip():
    for seed in range(100):
        ts = gen_triple_set(GeneratorConfig(seed=seed))
        assert parse_turtle(serialize_turtle(ts)) == ts, f"seed {seed}"


def test_leading_byte_order_mark_tolerated(org_instance_text):
    assert parse_turtle("﻿" + org_instance_text) == parse_turtle(org_instance_text)


def test_parsing_is_pure(org_instance_text):
    first = parse_turtle(org_instance_text)
    second = parse_turtle(org_instance_text)
    assert first == second
    assert first.prefixes.items() == second.prefixes.items()


# -- property-based round-trip ---------------------------------------------

_safe_name = st.text(
    alphabet=st.sampled_from("abcxyzXYZ012_-"), min_size=1, max_size=8
).filter(lambda s: s[0].isalpha() or s[0] == "_")

_iris = st.one_of(
    st.builds(lambda n: Iri(VOC + n), _safe_name),
    st.builds(lambda n: Iri(EX + n), _safe_name),
    st.builds(lambda n: Iri("http://elsewhere.example/ns#" + n), _safe_name),
)

_lexicals = st.text(max_size=30)

_literals = st.builds(
    Literal,
    _lexicals,
    st.one_of(st.just(XSD_STRING), st.just(Iri(XSD + "int")), _iris),
)

_triples = st.builds(Triple, _iris, _iris, st.one_of(_iris, _literals))


@settings(max_examples=300, deadline=None)
@given(st.lists(_triples, max_size=25))
def test_parse_serialize_identity(triples):
    ts = TripleSet(triples, PrefixMap({"voc": VOC, "ex": EX, "xsd": XSD}))
    assert parse_turtle(serialize_turtle(ts)) == ts
