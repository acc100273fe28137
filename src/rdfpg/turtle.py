"""Reading and writing the Turtle subset this package supports.

Supported syntax: @prefix directives, subject-predicate-object statements
with ';' predicate lists and ',' object lists, the 'a' keyword, IRIs in
<angle brackets> or prefixed form, plain and ^^-typed string literals, '#'
comments. Blank nodes ('_:label' or '[]') are recognized but rejected unless
parsed in raw mode for skolemization. See docs/turtle-grammar.md for the
exact grammar.

Serialization is canonical: prefixes sorted by name, subjects sorted by IRI,
one predicate per line. Parsing the output of serialize_turtle always yields
the original triple set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

from .errors import BlankNodeUnsupported, TurtleSyntaxError, UnknownPrefix
from .terms import (
    Iri,
    Literal,
    PrefixMap,
    RDF_TYPE,
    RdfObject,
    Triple,
    TripleSet,
    XSD_STRING,
    triple_sort_key,
)

DEFAULT_SKOLEM_BASE = "urn:skolem:"

_ESCAPE_IN = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "\\": "\\"}
_ESCAPE_OUT = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# Characters that may never appear inside <...> IRI references.
_IRI_FORBIDDEN = set('<>"{}|^`\\')


@dataclass(frozen=True)
class BlankNode:
    """A blank node label, only reachable through raw-mode parsing."""

    label: str


RawTerm = Union[Iri, Literal, BlankNode]


@dataclass(frozen=True)
class RawTriple:
    s: Union[Iri, BlankNode]
    p: Iri
    o: RawTerm


@dataclass(frozen=True)
class RawTurtleDocument:
    """Parse result that may still contain blank nodes, in document order."""

    triples: tuple[RawTriple, ...]
    prefixes: PrefixMap


def _is_name(text: str) -> bool:
    if not text:
        return False
    if not (text[0].isalpha() and text[0].isascii() or text[0] == "_"):
        return False
    return all(c.isalnum() and c.isascii() or c in "_-" for c in text)


def _local_ok(text: str) -> bool:
    return text == "" or _is_name(text)


class _Parser:
    """Single-pass recursive-descent parser over a character stream."""

    def __init__(self, text: str, allow_blanks: bool):
        # tolerate a UTF-8 byte order mark left by some editors
        self.text = text[1:] if text.startswith("﻿") else text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.allow_blanks = allow_blanks
        self.bindings: dict[str, str] = {}
        self.triples: list[RawTriple] = []
        self._anon = 0

    # -- character stream ------------------------------------------------

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _advance(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def _skip_ws(self) -> None:
        while self.pos < len(self.text):
            c = self._peek()
            if c == "#":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif c.isspace():
                self._advance()
            else:
                return

    def _error(self, expected: str, found: str = "") -> TurtleSyntaxError:
        if not found:
            found = repr(self._peek()) if self._peek() else "end of input"
        return TurtleSyntaxError(self.line, self.col, expected, found)

    def _expect(self, char: str, expected: str) -> None:
        self._skip_ws()
        if self._peek() != char:
            raise self._error(expected)
        self._advance()

    # -- tokens ----------------------------------------------------------

    def _read_iriref(self) -> Iri:
        self._advance()  # '<'
        start_line, start_col = self.line, self.col
        chars: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise TurtleSyntaxError(start_line, start_col, "'>' closing the IRI")
            c = self._advance()
            if c == ">":
                break
            if c.isspace() or c in _IRI_FORBIDDEN:
                raise TurtleSyntaxError(
                    self.line, self.col, "an IRI character", repr(c)
                )
            chars.append(c)
        value = "".join(chars)
        if not value:
            raise TurtleSyntaxError(start_line, start_col, "a non-empty IRI")
        return Iri(value)

    def _read_name(self) -> str:
        chars: list[str] = []
        while self.pos < len(self.text):
            c = self._peek()
            if (c.isalnum() and c.isascii()) or c in "_-":
                chars.append(self._advance())
            else:
                break
        return "".join(chars)

    def _read_prefixed_or_keyword(self, keyword_ok: bool):
        """Returns an Iri, a BlankNode, or the string 'a' for the type keyword."""
        line, col = self.line, self.col
        name = self._read_name()
        if self._peek() == ":":
            self._advance()
            local = self._read_name()
            if name == "_":
                if not self.allow_blanks:
                    raise BlankNodeUnsupported(line, col)
                return BlankNode("_:" + local)
            ns = self.bindings.get(name)
            if ns is None:
                raise UnknownPrefix(name, line, col)
            return Iri(ns + local)
        if keyword_ok and name == "a":
            return "a"
        if not name:
            raise self._error("an IRI, prefixed name or keyword")
        raise TurtleSyntaxError(line, col, "':' to complete the prefixed name", repr(name))

    def _read_string(self) -> str:
        self._advance()  # '"'
        chars: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error("'\"' closing the string")
            c = self._advance()
            if c == '"':
                return "".join(chars)
            if c == "\n":
                raise TurtleSyntaxError(
                    self.line, self.col, "'\"' before the end of the line"
                )
            if c == "\\":
                chars.append(self._read_escape())
            else:
                chars.append(c)

    def _read_escape(self) -> str:
        line, col = self.line, self.col - 1  # the backslash just read
        if self.pos >= len(self.text):
            raise self._error("an escape character")
        c = self._advance()
        if c in _ESCAPE_IN:
            return _ESCAPE_IN[c]
        if c in ("u", "U"):
            width = 4 if c == "u" else 8
            digits = ""
            for _ in range(width):
                if self.pos >= len(self.text):
                    raise self._error(f"{width} hex digits")
                digits += self._advance()
            # int() alone would also take a sign, spaces or underscores
            if not all(d in _HEX_DIGITS for d in digits):
                raise self._error(f"{width} hex digits", repr(digits))
            code = int(digits, 16)
            # XSD strings hold Unicode scalar values only, never surrogates.
            if 0xD800 <= code <= 0xDFFF:
                raise TurtleSyntaxError(
                    line, col, "an escape outside U+D800-U+DFFF", f"\\{c}{digits}"
                )
            try:
                return chr(code)
            except ValueError:
                raise self._error(f"{width} hex digits", repr(digits)) from None
        raise self._error("a valid escape (tbnrf\"\\ or u/U)", repr(c))

    # -- grammar ---------------------------------------------------------

    def _read_subject(self) -> Union[Iri, BlankNode]:
        self._skip_ws()
        c = self._peek()
        if c == "<":
            return self._read_iriref()
        if c == "[":
            return self._read_anon()
        term = self._read_prefixed_or_keyword(keyword_ok=False)
        return term

    def _read_anon(self) -> BlankNode:
        line, col = self.line, self.col
        if not self.allow_blanks:
            raise BlankNodeUnsupported(line, col)
        self._advance()  # '['
        self._skip_ws()
        if self._peek() != "]":
            raise self._error("']' (blank node property lists are not supported)")
        self._advance()
        self._anon += 1
        # '=' cannot occur in parsed labels, so generated labels never collide.
        return BlankNode(f"=anon{self._anon}")

    def _read_verb(self) -> Iri:
        self._skip_ws()
        if self._peek() == "<":
            return self._read_iriref()
        term = self._read_prefixed_or_keyword(keyword_ok=True)
        if term == "a":
            return RDF_TYPE
        if isinstance(term, BlankNode):
            raise self._error("a predicate IRI", "blank node")
        return term

    def _read_object(self) -> RawTerm:
        self._skip_ws()
        c = self._peek()
        if not c:
            raise self._error("an object")
        if c == "<":
            return self._read_iriref()
        if c == '"':
            lexical = self._read_string()
            if self._peek() == "^":
                self._advance()
                if self._peek() != "^":
                    raise self._error("'^^' introducing a datatype")
                self._advance()
                self._skip_ws()
                if self._peek() == "<":
                    datatype = self._read_iriref()
                else:
                    term = self._read_prefixed_or_keyword(keyword_ok=False)
                    if not isinstance(term, Iri):
                        raise self._error("a datatype IRI")
                    datatype = term
                return Literal(lexical, datatype)
            return Literal.plain(lexical)
        if c == "[":
            return self._read_anon()
        term = self._read_prefixed_or_keyword(keyword_ok=False)
        return term

    def _read_statement(self) -> None:
        subject = self._read_subject()
        while True:
            self._skip_ws()
            verb = self._read_verb()
            while True:
                obj = self._read_object()
                self.triples.append(RawTriple(subject, verb, obj))
                self._skip_ws()
                if self._peek() == ",":
                    self._advance()
                    continue
                break
            self._skip_ws()
            if self._peek() == ";":
                # Tolerate repeated or trailing semicolons.
                while self._peek() == ";":
                    self._advance()
                    self._skip_ws()
                if self._peek() == ".":
                    break
                continue
            break
        self._expect(".", "'.' ending the statement")

    def _read_prefix_directive(self) -> None:
        for expected in "@prefix":
            if self._peek() != expected:
                raise self._error("'@prefix'")
            self._advance()
        self._skip_ws()
        name = self._read_name()
        if self._peek() != ":":
            raise self._error("':' after the prefix name")
        self._advance()
        self._skip_ws()
        if self._peek() != "<":
            raise self._error("'<' opening the namespace IRI")
        ns = self._read_iriref()
        self._expect(".", "'.' ending the directive")
        if name in self.bindings and self.bindings[name] != ns.value:
            warnings.warn(
                f"prefix '{name}:' redefined from <{self.bindings[name]}> to <{ns.value}>",
                stacklevel=4,
            )
        self.bindings[name] = ns.value

    def parse(self) -> RawTurtleDocument:
        while True:
            self._skip_ws()
            if self.pos >= len(self.text):
                break
            if self._peek() == "@":
                self._read_prefix_directive()
            else:
                self._read_statement()
        return RawTurtleDocument(tuple(self.triples), PrefixMap(dict(self.bindings)))


def parse_turtle_raw(text: str) -> RawTurtleDocument:
    """Parse, tolerating blank nodes. Pair with skolemize()."""
    return _Parser(text, allow_blanks=True).parse()


def parse_turtle(text: str) -> TripleSet:
    """Parse a Turtle document into a TripleSet with all IRIs in full form."""
    doc = _Parser(text, allow_blanks=False).parse()
    triples = [Triple(t.s, t.p, t.o) for t in doc.triples]
    return TripleSet(triples, doc.prefixes)


def skolemize(doc: RawTurtleDocument, base: str = DEFAULT_SKOLEM_BASE) -> TripleSet:
    """Replace blank nodes with IRIs minted under `base`.

    Labels are numbered from zero in order of first appearance, so the result
    is deterministic for a given document. Blank-free documents pass through
    unchanged.
    """
    assignment: dict[str, Iri] = {}

    def resolve(term: RawTerm) -> RdfObject:
        if not isinstance(term, BlankNode):
            return term
        if term.label not in assignment:
            assignment[term.label] = Iri(f"{base}{len(assignment)}")
        return assignment[term.label]

    triples = []
    for t in doc.triples:
        s = resolve(t.s)
        o = resolve(t.o)
        assert isinstance(s, Iri)
        triples.append(Triple(s, t.p, o))
    return TripleSet(triples, doc.prefixes)


def _escape_lexical(lexical: str) -> str:
    return "".join(_ESCAPE_OUT.get(c, c) for c in lexical)


def _render_iri(iri: Iri, prefixes: PrefixMap, used: set[str]) -> str:
    compressed = prefixes.compress(iri.value, _local_ok)
    if compressed is not None:
        prefix, local = compressed
        used.add(prefix)
        return f"{prefix}:{local}"
    if any(c in _IRI_FORBIDDEN for c in iri.value):
        raise ValueError(f"IRI {iri.value!r} cannot be written in <> form")
    return f"<{iri.value}>"


def serialize_turtle(ts: TripleSet) -> str:
    """Canonical Turtle for a triple set.

    Statements are grouped by subject (sorted), with rdf:type first as 'a'
    and the remaining predicates sorted; objects within a predicate are
    sorted too. Only prefixes actually used appear in the output.
    """
    used: set[str] = set()
    by_subject: dict[Iri, dict[Iri, list[RdfObject]]] = {}
    for t in sorted(ts.triples, key=triple_sort_key):
        by_subject.setdefault(t.s, {}).setdefault(t.p, []).append(t.o)

    def render_object(o: RdfObject) -> str:
        if isinstance(o, Iri):
            return _render_iri(o, ts.prefixes, used)
        body = f'"{_escape_lexical(o.lexical)}"'
        if o.datatype == XSD_STRING:
            return body
        return f"{body}^^{_render_iri(o.datatype, ts.prefixes, used)}"

    statements: list[str] = []
    for subject in sorted(by_subject, key=lambda i: i.value):
        subject_text = _render_iri(subject, ts.prefixes, used)
        predicates = by_subject[subject]
        parts: list[str] = []
        ordered = sorted(predicates, key=lambda p: (p != RDF_TYPE, p.value))
        for predicate in ordered:
            verb = "a" if predicate == RDF_TYPE else _render_iri(predicate, ts.prefixes, used)
            objects = ", ".join(sorted(render_object(o) for o in predicates[predicate]))
            parts.append(f"{verb} {objects}")
        joined = " ;\n    ".join(parts)
        statements.append(f"{subject_text} {joined} .")

    lines: list[str] = []
    for prefix in sorted(used):
        lines.append(f"@prefix {prefix}: <{ts.prefixes.namespace(prefix)}> .")
    if lines and statements:
        lines.append("")
    lines.extend(statements)
    return "\n".join(lines) + ("\n" if lines else "")
