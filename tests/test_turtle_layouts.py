"""Seeded layout fuzzing of the Turtle reader.

Each case draws random triples and writes them in a random valid layout of
the grammar in docs/turtle-grammar.md: comments, tabs and Unicode
whitespace between tokens (or none where none is needed), repeated and
trailing ';', ',' object lists, subjects split over several statements,
<full> and prefixed forms (an empty and a digit-first prefix among them),
escapes of every kind, whitespace and comments on both sides of '^^', 'a',
duplicate triples, and a prefix bound again to another namespace midway.
Reading the text must give back exactly the drawn triples. A share of the
cases also writes blank nodes, '_:label' and '[]', which skolemize must
turn into the IRIs that their order of first appearance gives.
"""

from __future__ import annotations

import random
import re
import warnings

import pytest

from rdfpg.terms import Iri, Literal, RDF_TYPE, Triple, TripleSet, XSD_STRING
from rdfpg.turtle import parse_turtle, parse_turtle_raw, skolemize

CASES = 1000
RAW_CASES = 250

NAMESPACES = [
    "http://ex.org/a/",
    "http://ex.org/b#",
    "urn:x:",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
]
PREFIXES = ["ex", "", "9-", "a", "_x", "p-q"]
LOCALS = ["s", "p", "o", "type", "Class", "_u", "9", "-d", "a", "x-y_z", "", "item.1", "\u00e9"]
LEXICAL_CHARS = 'ab x"\\\n\r\t#<>^@;,.\u00e9\u2028\u3000\U0001f600'
SPACES = [" ", "\t", "\n", "\r\n", "\u3000", "\x1c", "\u00a0", "\u2028", "  \t"]
NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-:")
_PN_LOCAL = re.compile(r"[A-Za-z0-9_-]*\Z").match
_ESCAPES = {"\t": "\\t", "\b": "\\b", "\n": "\\n", "\r": "\\r", "\f": "\\f", '"': '\\"', "\\": "\\\\"}


def _gap(rng: random.Random, prev: str, nxt: str) -> str:
    """Whitespace and comments between two tokens; empty only where they stay apart."""
    parts = []
    if prev[-1] in NAME_CHARS and nxt[0] in NAME_CHARS or rng.random() < 0.6:
        parts.append(rng.choice(SPACES))
    if rng.random() < 0.1:
        comment = "".join(rng.choice('x #<>"\\') for _ in range(rng.randrange(6)))
        parts.append(f"#{comment}\n")
        if rng.random() < 0.5:
            parts.append(rng.choice(SPACES))
    return "".join(parts)


def _string(rng: random.Random, lexical: str) -> str:
    out = []
    for c in lexical:
        code = ord(c)
        roll = rng.random()
        if c in "\"\\\n" or roll < 0.2:
            if c in _ESCAPES and roll < 0.1:
                out.append(_ESCAPES[c])
            elif code <= 0xFFFF and roll < 0.15:
                out.append(f"\\u{code:04x}" if rng.random() < 0.5 else f"\\u{code:04X}")
            else:
                out.append(f"\\U{code:08X}")
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


class _Writer:
    """Writes statements token by token, with a random gap between tokens."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.parts: list[str] = []
        self.bindings: dict[str, str] = {}
        self.redefinitions = 0
        self.blanks: dict[str, Iri] = {}  # blank node label -> its skolem IRI
        self.skolems = 0

    def token(self, text: str) -> None:
        if self.parts:
            self.parts.append(_gap(self.rng, self.parts[-1], text))
        self.parts.append(text)

    def bind(self, prefix: str, namespace: str) -> None:
        old = self.bindings.get(prefix)
        self.redefinitions += old is not None and old != namespace
        self.bindings[prefix] = namespace
        for text in ("@prefix", f"{prefix}:", f"<{namespace}>", "."):
            self.token(text)

    def iri(self, iri: Iri, verb: bool = False) -> str:
        """One spelling of `iri`: <full>, prefixed where a binding allows, or 'a'."""
        if verb and iri == RDF_TYPE and self.rng.random() < 0.6:
            return "a"
        forms = [f"<{iri.value}>"]
        for prefix, ns in self.bindings.items():
            local = iri.value[len(ns):]
            if iri.value.startswith(ns) and _PN_LOCAL(local):
                forms.append(f"{prefix}:{local}")
        return self.rng.choice(forms)

    def term(self, term) -> tuple[str, Iri]:
        """The text of a subject or object, and the IRI it reads as once skolemized."""
        if type(term) is Iri:
            return self.iri(term), term
        if term == "[]":
            return self.rng.choice(["[]", "[ ]", "[\t]"]), self._skolem()
        label = term[len("_:"):]
        if label not in self.blanks:
            self.blanks[label] = self._skolem()
        return term, self.blanks[label]

    def _skolem(self) -> Iri:
        self.skolems += 1
        return Iri(f"urn:skolem:{self.skolems - 1}")

    def obj(self, o) -> tuple[str, object]:
        if type(o) is not Literal:
            return self.term(o)
        text = _string(self.rng, o.lexical)
        if o.datatype == XSD_STRING and self.rng.random() < 0.7:
            return text, o
        caret = _gap(self.rng, '"', "^") + "^^" + _gap(self.rng, "^", "x")
        return text + caret + self.iri(o.datatype), o


def _draw_triples(rng: random.Random, blanks: bool) -> list[tuple]:
    def iri() -> Iri:
        return Iri(rng.choice(NAMESPACES) + rng.choice(LOCALS))

    def node():
        if blanks and rng.random() < 0.3:
            return "[]" if rng.random() < 0.3 else "_:" + rng.choice(["b", "b0", "", "x-1"])
        return iri()

    def obj():
        if rng.random() < 0.4:
            lexical = "".join(rng.choice(LEXICAL_CHARS) for _ in range(rng.randrange(6)))
            datatype = XSD_STRING if rng.random() < 0.5 else iri()
            return Literal(lexical, datatype)
        return node()

    subjects = [node() for _ in range(rng.randrange(1, 5))]
    verbs = [RDF_TYPE] + [iri() for _ in range(3)]
    return [(rng.choice(subjects), rng.choice(verbs), obj()) for _ in range(rng.randrange(1, 16))]


def _write(rng: random.Random, triples: list[tuple]) -> tuple[str, set[Triple], int]:
    """A layout of `triples`; returns the text, the triples it reads as
    once skolemized, and the number of prefix redefinitions in it."""
    w = _Writer(rng)
    if rng.random() < 0.5:
        w.parts.append(rng.choice(["# header\n", "\ufeff", "\n\t"]))
    for prefix in rng.sample(PREFIXES, rng.randrange(len(PREFIXES) + 1)):
        w.bind(prefix, rng.choice(NAMESPACES))
    # Statements in order: a subject's triples may be split over several,
    # and a '[]' subject always has one statement of its own.
    order = sorted(triples, key=lambda t: (str(t[0]), rng.random()))
    chunks: list[list[tuple]] = []
    for t in order:
        if chunks and chunks[-1][0][0] == t[0] != "[]" and rng.random() < 0.8:
            chunks[-1].append(t)
        else:
            chunks.append([t])
    rng.shuffle(chunks)
    expected: set[Triple] = set()
    redefine_at = rng.randrange(len(chunks) + 1)
    for i, chunk in enumerate(chunks):
        if i == redefine_at and w.bindings:
            w.bind(rng.choice(sorted(w.bindings)), rng.choice(NAMESPACES))
        subject, s_iri = w.term(chunk[0][0])
        w.token(subject)
        by_verb: dict[Iri, list] = {}
        for _, p, o in chunk:
            by_verb.setdefault(p, []).append(o)
        for j, (p, objects) in enumerate(by_verb.items()):
            if j:
                for _ in range(1 if rng.random() < 0.8 else rng.randrange(2, 4)):
                    w.token(";")
            w.token(w.iri(p, verb=True))
            if rng.random() < 0.1:  # the same triple written twice
                objects = objects + objects[:1]
            for k, o in enumerate(objects):
                if k:
                    w.token(",")
                text, o_iri = w.obj(o)
                w.token(text)
                expected.add(Triple(s_iri, p, o_iri))
        if rng.random() < 0.2:
            w.token(";")
        w.token(".")
    if rng.random() < 0.5:
        w.token(rng.choice(["# trailer", "\n"]))
    return "".join(w.parts), expected, w.redefinitions


def _read(parse, text: str) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = parse(text)
    return result, sum("redefined" in str(c.message) for c in caught)


@pytest.mark.parametrize("chunk", range(10))
def test_any_layout_reads_as_its_triples(chunk):
    for seed in range(chunk * CASES // 10, (chunk + 1) * CASES // 10):
        rng = random.Random(seed)
        text, expected, redefinitions = _write(rng, _draw_triples(rng, blanks=False))
        ts, warned = _read(parse_turtle, text)
        assert ts == TripleSet(expected), f"seed {seed}:\n{text}"
        assert warned == redefinitions, f"seed {seed}"


@pytest.mark.parametrize("chunk", range(5))
def test_any_layout_with_blank_nodes_skolemizes_in_order(chunk):
    for seed in range(chunk * RAW_CASES // 5, (chunk + 1) * RAW_CASES // 5):
        rng = random.Random(-1 - seed)
        text, expected, _ = _write(rng, _draw_triples(rng, blanks=True))
        doc, _ = _read(parse_turtle_raw, text)
        assert skolemize(doc) == TripleSet(expected), f"seed {-1 - seed}:\n{text}"
