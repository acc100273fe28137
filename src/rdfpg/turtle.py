"""Reading and writing the Turtle subset this package supports.

Supported syntax: @prefix directives, subject-predicate-object statements
with ';' predicate lists and ',' object lists, the 'a' keyword, IRIs in
<angle brackets> or prefixed form, plain and ^^-typed string literals, '#'
comments. Blank nodes ('_:label' or '[]') are recognized but rejected unless
parsed in raw mode for skolemization. See docs/turtle-grammar.md for the
exact grammar.

Serialization is canonical: prefixes sorted by name, subjects sorted by IRI,
one predicate per line. Parsing the output of serialize_turtle always yields
the original triple set. serialize_turtle writes to a text stream, one
statement at a time, or returns the document as a string when given none.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from typing import TextIO, Union

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
)

DEFAULT_SKOLEM_BASE = "urn:skolem:"

_ESCAPE_IN = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "\\": "\\"}
_ESCAPE_OUT = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


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


# Token patterns, each matched at a position in the text. A position is a
# plain index; line and column are worked out from it only for an error.
_skip_ws = re.compile(r"\s*(?:#[^\n]*\s*)*").match  # \s is exactly str.isspace()
_iri_body = re.compile(r'[^\s<>"{}|^`\\]*').match
_pname = re.compile(r"([A-Za-z0-9_-]*)(?::([A-Za-z0-9_-]*))?").match
_string_chars = re.compile(r'[^"\\\n]*').match
_escape = re.compile(r'\\(?:([tbnrf"\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8}))').match
_local_name = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_-]*)?\Z").match  # "" or a PN_NAME


class _Parser:
    """Single-pass recursive-descent parser over token regexes.

    Each reader takes the position to start at and returns what it read
    together with the position after it.
    """

    def __init__(self, text: str, allow_blanks: bool):
        # tolerate a UTF-8 byte order mark left by some editors
        self.text = text[1:] if text.startswith("\ufeff") else text
        self.allow_blanks = allow_blanks
        self.bindings: dict[str, str] = {}
        # Without blank nodes every raw triple is already a Triple.
        self._triple = RawTriple if allow_blanks else Triple
        self.triples: list = []
        self._iris: dict[str, Iri] = {}  # one Iri per distinct string
        self._anon = 0

    # -- positions and errors --------------------------------------------

    def _line_col(self, pos: int) -> tuple[int, int]:
        """1-based line and column, counted in code points, of position `pos`."""
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def _fail(self, pos: int, expected: str, found: str = "") -> TurtleSyntaxError:
        return TurtleSyntaxError(*self._line_col(pos), expected, found)

    def _unexpected(self, pos: int, expected: str) -> TurtleSyntaxError:
        """Error at `pos` that names the character found there."""
        found = repr(self.text[pos]) if pos < len(self.text) else "end of input"
        return self._fail(pos, expected, found)

    def _expect(self, pos: int, char: str, expected: str) -> int:
        pos = _skip_ws(self.text, pos).end()
        if not self.text.startswith(char, pos):
            raise self._unexpected(pos, expected)
        return pos + 1

    def _iri(self, value: str) -> Iri:
        iri = self._iris.get(value)
        if iri is None:
            iri = self._iris[value] = Iri(value)
        return iri

    # -- tokens ----------------------------------------------------------

    def _read_iriref(self, pos: int) -> tuple[Iri, int]:
        text = self.text
        start = pos + 1  # after '<'
        end = _iri_body(text, start).end()
        if end == len(text):
            raise self._fail(start, "'>' closing the IRI")
        if text[end] != ">":
            raise self._fail(end + 1, "an IRI character", repr(text[end]))
        if end == start:
            raise self._fail(start, "a non-empty IRI")
        return self._iri(text[start:end]), end + 1

    def _read_prefixed_or_keyword(self, pos: int, keyword_ok: bool) -> tuple:
        """Reads an Iri, a BlankNode, or the string 'a' for the type keyword."""
        m = _pname(self.text, pos)
        name, local = m.groups()
        if local is not None:
            if name == "_":
                if not self.allow_blanks:
                    raise BlankNodeUnsupported(*self._line_col(pos))
                return BlankNode("_:" + local), m.end()
            ns = self.bindings.get(name)
            if ns is None:
                raise UnknownPrefix(name, *self._line_col(pos))
            return self._iri(ns + local), m.end()
        if keyword_ok and name == "a":
            return "a", m.end()
        if not name:
            raise self._unexpected(pos, "an IRI, prefixed name or keyword")
        raise self._fail(pos, "':' to complete the prefixed name", repr(name))

    def _read_string(self, pos: int) -> tuple[str, int]:
        text = self.text
        pos += 1  # after the opening '"'
        chunks: list[str] = []
        while True:
            end = _string_chars(text, pos).end()
            chunks.append(text[pos:end])
            c = text[end : end + 1]
            if c == '"':
                return "".join(chunks), end + 1
            if c == "\\":
                char, pos = self._read_escape(end)
                chunks.append(char)
            elif c == "\n":
                raise self._fail(end + 1, "'\"' before the end of the line")
            else:
                raise self._unexpected(end, "'\"' closing the string")

    def _read_escape(self, pos: int) -> tuple[str, int]:
        """Decodes the escape whose backslash is at `pos`."""
        text = self.text
        m = _escape(text, pos)
        if m is None:
            c = text[pos + 1 : pos + 2]
            if not c:
                raise self._unexpected(pos + 1, "an escape character")
            if c not in "uU":
                raise self._fail(pos + 2, "a valid escape (tbnrf\"\\ or u/U)", repr(c))
            width = 4 if c == "u" else 8
            digits = text[pos + 2 : pos + 2 + width]
            if len(digits) < width:
                raise self._unexpected(len(text), f"{width} hex digits")
            raise self._fail(pos + 2 + width, f"{width} hex digits", repr(digits))
        simple, short, long = m.groups()
        if simple:
            return _ESCAPE_IN[simple], m.end()
        digits = short or long
        code = int(digits, 16)
        # XSD strings hold Unicode scalar values only, never surrogates.
        if 0xD800 <= code <= 0xDFFF:
            raise self._fail(pos, "an escape outside U+D800-U+DFFF", m.group()[:2] + digits)
        if code > 0x10FFFF:
            raise self._fail(m.end(), f"{len(digits)} hex digits", repr(digits))
        return chr(code), m.end()

    # -- grammar ---------------------------------------------------------

    def _read_subject(self, pos: int) -> tuple:
        pos = _skip_ws(self.text, pos).end()
        c = self.text[pos : pos + 1]
        if c == "<":
            return self._read_iriref(pos)
        if c == "[":
            return self._read_anon(pos)
        return self._read_prefixed_or_keyword(pos, keyword_ok=False)

    def _read_anon(self, pos: int) -> tuple[BlankNode, int]:
        if not self.allow_blanks:
            raise BlankNodeUnsupported(*self._line_col(pos))
        pos = _skip_ws(self.text, pos + 1).end()
        if not self.text.startswith("]", pos):
            raise self._unexpected(pos, "']' (blank node property lists are not supported)")
        self._anon += 1
        # '=' cannot occur in parsed labels, so generated labels never collide.
        return BlankNode(f"=anon{self._anon}"), pos + 1

    def _read_verb(self, pos: int) -> tuple[Iri, int]:
        pos = _skip_ws(self.text, pos).end()
        if self.text.startswith("<", pos):
            return self._read_iriref(pos)
        term, pos = self._read_prefixed_or_keyword(pos, keyword_ok=True)
        if term == "a":
            return RDF_TYPE, pos
        if isinstance(term, BlankNode):
            raise self._fail(pos, "a predicate IRI", "blank node")
        return term, pos

    def _read_object(self, pos: int) -> tuple:
        text = self.text
        pos = _skip_ws(text, pos).end()
        c = text[pos : pos + 1]
        if c == "<":
            return self._read_iriref(pos)
        if c == '"':
            lexical, pos = self._read_string(pos)
            if not text.startswith("^", pos):
                return Literal(lexical, XSD_STRING), pos
            if not text.startswith("^", pos + 1):
                raise self._unexpected(pos + 1, "'^^' introducing a datatype")
            pos = _skip_ws(text, pos + 2).end()
            if text.startswith("<", pos):
                datatype, pos = self._read_iriref(pos)
            else:
                datatype, pos = self._read_prefixed_or_keyword(pos, keyword_ok=False)
                if not isinstance(datatype, Iri):
                    raise self._unexpected(pos, "a datatype IRI")
            return Literal(lexical, datatype), pos
        if c == "[":
            return self._read_anon(pos)
        if not c:
            raise self._unexpected(pos, "an object")
        return self._read_prefixed_or_keyword(pos, keyword_ok=False)

    def _read_statement(self, pos: int) -> int:
        text, append, triple = self.text, self.triples.append, self._triple
        subject, pos = self._read_subject(pos)
        while True:
            verb, pos = self._read_verb(pos)
            while True:
                obj, pos = self._read_object(pos)
                append(triple(subject, verb, obj))
                pos = _skip_ws(text, pos).end()
                if not text.startswith(",", pos):
                    break
                pos += 1
            if not text.startswith(";", pos):
                break
            # Tolerate repeated or trailing semicolons.
            while text.startswith(";", pos):
                pos = _skip_ws(text, pos + 1).end()
            if text.startswith(".", pos):
                break
        return self._expect(pos, ".", "'.' ending the statement")

    def _read_prefix_directive(self, pos: int) -> int:
        text = self.text
        for i, c in enumerate("@prefix"):
            if not text.startswith(c, pos + i):
                raise self._unexpected(pos + i, "'@prefix'")
        pos = _skip_ws(text, pos + len("@prefix")).end()
        m = _pname(text, pos)
        name = m.group(1)
        pos += len(name)
        if not text.startswith(":", pos):
            raise self._unexpected(pos, "':' after the prefix name")
        pos = _skip_ws(text, pos + 1).end()
        if not text.startswith("<", pos):
            raise self._unexpected(pos, "'<' opening the namespace IRI")
        ns, pos = self._read_iriref(pos)
        pos = self._expect(pos, ".", "'.' ending the directive")
        if name in self.bindings and self.bindings[name] != ns.value:
            warnings.warn(
                f"prefix '{name}:' redefined from <{self.bindings[name]}> to <{ns.value}>",
                stacklevel=4,
            )
        self.bindings[name] = ns.value
        return pos

    def parse(self) -> tuple[list, PrefixMap]:
        """The triples in document order and the final prefix bindings."""
        text = self.text
        pos = 0
        while True:
            pos = _skip_ws(text, pos).end()
            if pos == len(text):
                break
            if text[pos] == "@":
                pos = self._read_prefix_directive(pos)
            else:
                pos = self._read_statement(pos)
        return self.triples, PrefixMap(dict(self.bindings))


def parse_turtle_raw(text: str) -> RawTurtleDocument:
    """Parse, tolerating blank nodes. Pair with skolemize()."""
    triples, prefixes = _Parser(text, allow_blanks=True).parse()
    return RawTurtleDocument(tuple(triples), prefixes)


def parse_turtle(text: str) -> TripleSet:
    """Parse a Turtle document into a TripleSet with all IRIs in full form."""
    return TripleSet(*_Parser(text, allow_blanks=False).parse())


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


class _IriWriter:
    """Writes IRIs for one serialization, in prefixed form where possible.

    The namespaces are sorted once, longest first and ties on the smaller
    prefix, so the first one that fits is the best. The text of each IRI is
    worked out once.
    """

    def __init__(self, prefixes: PrefixMap):
        self.namespaces = sorted(prefixes.bindings.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        self.used: set[str] = set()
        self._text: dict[str, str] = {}

    def __call__(self, iri: Iri) -> str:
        text = self._text.get(iri.value)
        if text is None:
            text = self._text[iri.value] = self._render(iri.value)
        return text

    def _render(self, value: str) -> str:
        for prefix, ns in self.namespaces:
            local = value[len(ns):]
            if value.startswith(ns) and _local_name(local):
                self.used.add(prefix)
                return f"{prefix}:{local}"
        return f"<{value}>"  # Iri admits no character that <...> cannot hold


def serialize_turtle(ts: TripleSet, out: TextIO | None = None) -> str | None:
    """Canonical Turtle for a triple set, written to the text stream `out`.

    Statements are grouped by subject (sorted), with rdf:type first as 'a'
    and the remaining predicates sorted; objects within a predicate are
    sorted too. Only prefixes actually used appear in the output, so every
    statement is rendered before the prefix block is written; the text is
    then written one line or statement at a time and never joined whole.
    Without `out`, the document is returned as a string.
    """
    if out is None:
        buffer = io.StringIO()
        serialize_turtle(ts, buffer)
        return buffer.getvalue()
    iri_text = _IriWriter(ts.prefixes)
    by_subject: dict[Iri, dict[Iri, list[RdfObject]]] = {}
    for t in ts.triples:
        by_subject.setdefault(t.s, {}).setdefault(t.p, []).append(t.o)

    def render_object(o: RdfObject) -> str:
        if isinstance(o, Iri):
            return iri_text(o)
        body = f'"{o.lexical.translate(_ESCAPE_OUT)}"'
        if o.datatype == XSD_STRING:
            return body
        return f"{body}^^{iri_text(o.datatype)}"

    statements: list[str] = []
    for subject in sorted(by_subject, key=lambda i: i.value):
        subject_text = iri_text(subject)
        predicates = by_subject[subject]
        parts: list[str] = []
        ordered = sorted(predicates, key=lambda p: (p != RDF_TYPE, p.value))
        for predicate in ordered:
            verb = "a" if predicate == RDF_TYPE else iri_text(predicate)
            objects = ", ".join(sorted(render_object(o) for o in predicates[predicate]))
            parts.append(f"{verb} {objects}")
        joined = " ;\n    ".join(parts)
        statements.append(f"{subject_text} {joined} .")

    write = out.write
    for prefix in sorted(iri_text.used):
        write(f"@prefix {prefix}: <{ts.prefixes.namespace(prefix)}> .\n")
    if iri_text.used and statements:
        write("\n")
    for statement in statements:
        write(statement)
        write("\n")
    return None
