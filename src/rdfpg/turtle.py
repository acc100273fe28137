"""Reading and writing the Turtle subset this package supports.

Supported syntax: @prefix directives, subject-predicate-object statements
with ';' predicate lists and ',' object lists, the 'a' keyword, IRIs in
<angle brackets> or prefixed form, plain and ^^-typed string literals, '#'
comments. Blank nodes ('_:label' or '[]') are recognized but rejected unless
parsed in raw mode for skolemization. See docs/turtle-grammar.md for the
exact grammar.

The reader reads each predicate-object pair, with the whitespace and
comments before it and the '.', ';' or ',' after it, in one regular
expression match; one more match reads each object after ',', and one each
subject or @prefix directive. Each term is resolved once per distinct token
text. A step that does not match is read again token by token, only to name
its error: the per-token readers always raise there. A string holding a
backslash is decoded by the per-token string reader.

Serialization is canonical: prefixes sorted by name, subjects sorted by IRI,
one predicate per line. Parsing the output of serialize_turtle always yields
the original triple set. serialize_turtle groups the triples in one pass,
which also renders each IRI once and records the prefixes in use; it then
writes to a text stream, one statement at a time, or returns the document
as a string when given none. Literal texts are made as their statement is
written and are not held.
"""

from __future__ import annotations

import functools
import io
import re
import warnings
from typing import NamedTuple, NoReturn, TextIO, Union

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


class BlankNode(NamedTuple):
    """A blank node label, only reachable through raw-mode parsing. It equals
    (label,), and so an Iri of that string: `skolemize` tells them by type."""

    label: str


RawTerm = Union[Iri, Literal, BlankNode]


class RawTurtleDocument(NamedTuple):
    """Parse result in document order: a triple's subject and object may be
    BlankNodes here."""

    triples: tuple[Triple, ...]
    prefixes: PrefixMap


# Each step pattern matches one step of the grammar at a position in the
# text: the whitespace and comments before its tokens, the tokens, and what
# ends the step. A position is a plain index; line and column are worked out
# from it only for an error. A term is matched as its token text, which
# `_Parser._term` turns into the term once per distinct token.
#
# \s is exactly str.isspace(). A comment runs to its line end, so that a
# failed match does not go on to try it split at each '#' in it.
_WS = r"\s*(?:#[^\n]*(?![^\n])\s*)*"
_IRI_BODY = r'[^\s<>"{}|^`\\]+'  # IRIREF characters: no whitespace, <>"{}|^`\\
_IRIREF = "<" + _IRI_BODY + ">"
_PNAME = r"[A-Za-z0-9_-]*:[A-Za-z0-9_-]*"
_IRI = "(?:" + _IRIREF + "|(?!_:)" + _PNAME + ")"  # an IRI, never a blank node label
_TERM = _IRIREF + "|" + _PNAME + r"|\[" + _WS + r"\]"  # a subject or a non-literal object
_STRING = r'"([^"\\\n]*(?:\\(?:[tbnrf"\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^"\\\n]*)*)"'
# An object, then what follows it: ',' or '.', or a run of ';' with the
# whitespace and comments in it, then the '.' of a statement that ends there.
_OBJECT_PUNCT = (
    "(?:(" + _TERM + ")|" + _STRING + "(?:" + _WS + r"\^\^" + _WS + "(" + _IRI + "))?)"
    + _WS + r"(?:([,.])|;[\s;]*(?:#[^\n]*(?![^\n])[\s;]*)*(\.)?)"
)
# A statement's subject, an @prefix directive, or the end of the input.
_HEAD = (
    _WS + "(?:@prefix" + _WS + "([A-Za-z0-9_-]*):" + _WS + "<(" + _IRI_BODY + ")>" + _WS + r"\."
    + "|(" + _TERM + r")|\Z)"
)
# A predicate-object pair. Its groups are the verb, the IRI object, the
# string's text, its datatype, then ',' or '.' after the object, or the '.'
# after a run of ';'.
_PAIR = _WS + "(" + _IRI + "|a(?![A-Za-z0-9_:-]))" + _WS + _OBJECT_PUNCT
# An object after ','. The empty first group keeps the groups of `_PAIR`.
_OBJECT = _WS + "()" + _OBJECT_PUNCT


@functools.cache
def _steps():
    """The match methods of `_HEAD`, `_PAIR` and `_OBJECT`.

    They are compiled when first asked for, so that a process that reads no
    Turtle does not pay for them.
    """
    return tuple(re.compile(pattern).match for pattern in (_HEAD, _PAIR, _OBJECT))


# The token patterns of the per-token readers, each matched at a position.
_skip_ws = re.compile(_WS).match
_iri_body = re.compile(r'[^\s<>"{}|^`\\]*').match
_pname = re.compile(r"([A-Za-z0-9_-]*)(?::([A-Za-z0-9_-]*))?").match
_string_chars = re.compile(r'[^"\\\n]*').match
_escape = re.compile(r'\\(?:([tbnrf"\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8}))').match

_local_name = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_-]*)?\Z").match  # "" or a PN_NAME
_new = tuple.__new__  # builds an Iri, Literal or Triple without a call of its Python __new__


class _Parser:
    """Single-pass reader over the step patterns `_HEAD`, `_PAIR` and `_OBJECT`.

    Each step is one match. Where a step does not match, or names a term
    that does not resolve, `_refuse` reads it again with the per-token
    readers, only to raise the error of its first failing check. Each
    per-token reader takes the position to start at and returns what it
    read together with the position after it.
    """

    def __init__(self, text: str, allow_blanks: bool):
        # tolerate a UTF-8 byte order mark left by some editors
        self.text = text[1:] if text.startswith("\ufeff") else text
        self.allow_blanks = allow_blanks
        self.bindings: dict[str, str] = {}
        self.triples: list[Triple] = []  # in raw mode, they may hold blank nodes
        self._terms: dict[str, Union[Iri, BlankNode]] = {}  # token text -> term
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
            # The patterns of both readers admit only IRI characters: Iri's check would pass.
            iri = self._iris[value] = _new(Iri, (value,))
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
        return BlankNode("[]"), pos + 1  # only `_term` numbers the '[]' it reads

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
            caret = _skip_ws(text, pos).end()
            if not text.startswith("^", caret):
                return Literal(lexical, XSD_STRING), pos
            if not text.startswith("^", caret + 1):
                raise self._unexpected(caret + 1, "'^^' introducing a datatype")
            pos = _skip_ws(text, caret + 2).end()
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

    def _read_prefix_directive(self, pos: int) -> int:
        text = self.text
        for i, c in enumerate("@prefix"):
            if not text.startswith(c, pos + i):
                raise self._unexpected(pos + i, "'@prefix'")
        pos = _skip_ws(text, pos + len("@prefix")).end()
        pos += len(_pname(text, pos).group(1))
        if not text.startswith(":", pos):
            raise self._unexpected(pos, "':' after the prefix name")
        pos = _skip_ws(text, pos + 1).end()
        if not text.startswith("<", pos):
            raise self._unexpected(pos, "'<' opening the namespace IRI")
        _, pos = self._read_iriref(pos)
        return self._expect(pos, ".", "'.' ending the directive")

    def _refuse(self, step, pos: int) -> NoReturn:
        """Read the step that `step` failed from `pos` again, token by token.

        The per-token readers raise the error of the first failing check,
        at its position. They always raise: a step they read whole is one
        its pattern should have matched.
        """
        text, start = self.text, pos
        head, pair, _ = _steps()
        if step is head:
            pos = _skip_ws(text, pos).end()
            if text.startswith("@", pos):
                self._read_prefix_directive(pos)
            else:
                self._read_subject(pos)
        else:
            if step is pair:
                _, pos = self._read_verb(pos)
            _, pos = self._read_object(pos)
            pos = _skip_ws(text, pos).end()
            if not text.startswith((",", ";"), pos):
                self._expect(pos, ".", "'.' ending the statement")
        line, column = self._line_col(start)
        raise AssertionError(f"line {line}, column {column}: the step passed every check")

    def _term(self, token: str, step, pos: int) -> Union[Iri, BlankNode]:
        """The term that `token`, matched by `step` at `pos`, stands for.

        It is kept for the next time the token is read, except for '[]',
        which is a new blank node each time. A token that stands for no
        term here is refused.
        """
        c = token[0]
        if c == "<":
            term = self._iri(token[1:-1])
        elif c == "[":
            if not self.allow_blanks:
                self._refuse(step, pos)
            self._anon += 1
            # '=' cannot occur in parsed labels, so generated labels never collide.
            return BlankNode(f"=anon{self._anon}")
        elif token == "a":
            term = RDF_TYPE
        else:
            prefix, _, local = token.partition(":")
            if prefix == "_":
                if not self.allow_blanks:
                    self._refuse(step, pos)
                term = BlankNode(token)
            elif prefix in self.bindings:
                term = self._iri(self.bindings[prefix] + local)
            else:
                self._refuse(step, pos)
        self._terms[token] = term
        return term

    def _bind(self, name: str, namespace: str) -> None:
        old = self.bindings.get(name)
        if old is not None and old != namespace:
            warnings.warn(
                f"prefix '{name}:' redefined from <{old}> to <{namespace}>", stacklevel=4
            )
            self._terms.clear()  # prefixed names read so far may now mean other IRIs
        self.bindings[name] = namespace

    def parse(self) -> tuple[list[Triple], PrefixMap]:
        """The triples in document order and the final prefix bindings."""
        text, terms, term = self.text, self._terms, self._term
        append = self.triples.append
        head, pair, object_ = _steps()
        pos = 0
        while True:
            m = head(text, pos)
            if m is None:
                self._refuse(head, pos)
            name, namespace, token = m.groups()
            if token is None:
                if namespace is None:  # the end of the input
                    return self.triples, PrefixMap(dict(self.bindings))
                self._bind(name, namespace)
                pos = m.end()
                continue
            subject = terms.get(token) or term(token, head, pos)
            step, pos = pair, m.end()
            while True:
                m = step(text, pos)
                if m is None:
                    self._refuse(step, pos)
                token, obj, lexical, datatype, punct, dot = m.groups()
                if token:  # "" from object_
                    verb = terms.get(token) or term(token, step, pos)
                if obj is not None:
                    obj = terms.get(obj) or term(obj, step, pos)
                else:
                    if "\\" in lexical:
                        lexical, _ = self._read_string(m.start(3) - 1)
                    if datatype is not None:
                        datatype = terms.get(datatype) or term(datatype, step, pos)
                    obj = _new(Literal, (lexical, datatype or XSD_STRING))
                append(_new(Triple, (subject, verb, obj)))
                pos = m.end()
                if punct == ",":
                    step = object_
                elif punct or dot:
                    break
                else:
                    step = pair


def parse_turtle_raw(text: str) -> RawTurtleDocument:
    """Parse, tolerating blank nodes. Pair with skolemize()."""
    triples, prefixes = _Parser(text, allow_blanks=True).parse()
    return RawTurtleDocument(tuple(triples), prefixes)


def parse_turtle(text: str) -> TripleSet:
    """Parse a Turtle document into a TripleSet with all IRIs in full form."""
    return TripleSet(*_Parser(text, allow_blanks=False).parse())


def skolemize(doc: RawTurtleDocument) -> TripleSet:
    """Replace blank nodes with IRIs minted under DEFAULT_SKOLEM_BASE.

    Labels are numbered from zero in order of first appearance, so the result
    is deterministic for a given document. Blank-free documents pass through
    unchanged.
    """
    assignment: dict[str, Iri] = {}

    def resolve(term: RawTerm) -> RdfObject:
        if not isinstance(term, BlankNode):
            return term
        if term.label not in assignment:
            assignment[term.label] = Iri(f"{DEFAULT_SKOLEM_BASE}{len(assignment)}")
        return assignment[term.label]

    triples = []
    for t in doc.triples:
        s = resolve(t.s)
        o = resolve(t.o)
        assert isinstance(s, Iri)
        triples.append(Triple(s, t.p, o))
    return TripleSet(triples, doc.prefixes)


def serialize_turtle(ts: TripleSet, out: TextIO | None = None) -> str | None:
    """Canonical Turtle for a triple set, written to the text stream `out`.

    Statements are grouped by subject (sorted), with rdf:type first as 'a'
    and the remaining predicates sorted; objects within a predicate are
    sorted by their text. Only prefixes actually used appear in the output,
    so the one pass that groups the triples also renders each IRI, once,
    and records the prefixes it uses; the statements are then written from
    those texts, each as soon as it is complete. Literal texts are made as
    their statement is written and not kept, so the document is never held
    whole. Without `out`, the document is returned as a string.
    """
    if out is None:
        buffer = io.StringIO()
        serialize_turtle(ts, buffer)
        return buffer.getvalue()
    # Namespaces longest first, ties on the smaller prefix: the first that
    # fits an IRI gives its best prefixed form.
    namespaces = sorted(ts.prefixes.bindings.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    used: set[str] = set()

    def render(iri: Iri) -> str:
        value = iri.value
        for prefix, ns in namespaces:
            if value.startswith(ns) and _local_name(value, len(ns)):
                used.add(prefix)
                return f"{prefix}:{value[len(ns):]}"
        return f"<{value}>"  # Iri admits no character that <...> cannot hold

    # The grouping pass. An IRI object is kept as its text, a literal as
    # itself. rdf:type as a predicate is written 'a', so it is not rendered
    # there: its prefix counts as used only where it is a term.
    text: dict[Iri, str] = {}
    by_subject: dict[Iri, dict[Iri, list]] = {}
    for s, p, o in ts.triples:
        predicates = by_subject.get(s)
        if predicates is None:
            predicates = by_subject[s] = {}
            if s not in text:
                text[s] = render(s)
        objects = predicates.get(p)
        if objects is None:
            objects = predicates[p] = []
            if p not in text and p != RDF_TYPE:
                text[p] = render(p)
        if type(o) is Iri:
            o_text = text.get(o)
            if o_text is None:
                o_text = text[o] = render(o)
            objects.append(o_text)
        else:
            if o.datatype not in text and o.datatype != XSD_STRING:
                text[o.datatype] = render(o.datatype)
            objects.append(o)

    def object_list(objects: list) -> str:
        texts = [
            o if type(o) is str
            else f'"{o.lexical.translate(_ESCAPE_OUT)}"' if o.datatype == XSD_STRING
            else f'"{o.lexical.translate(_ESCAPE_OUT)}"^^{text[o.datatype]}'
            for o in objects
        ]
        if len(texts) > 1:
            texts.sort()
        return ", ".join(texts)

    write = out.write
    for prefix in sorted(used):
        write(f"@prefix {prefix}: <{ts.prefixes.namespace(prefix)}> .\n")
    if used and by_subject:
        write("\n")
    for subject in sorted(by_subject):
        predicates = by_subject[subject]
        parts = []
        types = predicates.pop(RDF_TYPE, None)
        if types is not None:
            parts.append(f"a {object_list(types)}")
        for predicate in sorted(predicates):
            parts.append(f"{text[predicate]} {object_list(predicates[predicate])}")
        joined = " ;\n    ".join(parts)
        write(f"{text[subject]} {joined} .\n")
    return None
