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
subject or @prefix directive. Each token class (an IRI body, a PN_PART, a
string's characters, an escape) is spelled once, and the IRI characters
are `terms.IRI_CHAR`, the set `Iri` checks with. One step, `_Parser._term`,
turns a token into its term, once per distinct token text, and refuses an
unknown prefix or a blank node at the token's own position. A step that
does not match is read again token by token, only to name its error: the
per-token readers always raise there. A string holding a backslash is
decoded by the per-token string reader.

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
    IRI_CHAR,
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
# `_Parser._term` turns into the term once per distinct token. Each token
# class is spelled once, below, and both the step patterns and the
# per-token patterns are built from these spellings.
#
# \s is exactly str.isspace(). A comment runs to its line end, so that a
# failed match does not go on to try it split at each '#' in it.
_COMMENT = r"#[^\n]*(?![^\n])"
_WS = r"\s*(?:" + _COMMENT + r"\s*)*"
_IRIREF = "<" + IRI_CHAR + "+>"
_PN_CHAR = "[A-Za-z0-9_-]"
_PN_PART = _PN_CHAR + "*"
_PNAME = _PN_PART + ":" + _PN_PART
_STRING_CHARS = r'[^"\\\n]*'
_ESCAPE = r'\\(?:[tbnrf"\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})'  # ECHAR or UCHAR

_IRI = "(?:" + _IRIREF + "|(?!_:)" + _PNAME + ")"  # an IRI, never a blank node label
_TERM = _IRIREF + "|" + _PNAME + r"|\[" + _WS + r"\]"  # a subject or a non-literal object
_STRING = '"(' + _STRING_CHARS + "(?:" + _ESCAPE + _STRING_CHARS + ')*)"'
# An object, then what follows it: ',' or '.', or a run of ';' with the
# whitespace and comments in it, then the '.' of a statement that ends there.
_OBJECT_PUNCT = (
    "(?:(" + _TERM + ")|" + _STRING + "(?:" + _WS + r"\^\^" + _WS + "(" + _IRI + "))?)"
    + _WS + r"(?:([,.])|;[\s;]*(?:" + _COMMENT + r"[\s;]*)*(\.)?)"
)
# A statement's subject, an @prefix directive, or the end of the input.
_HEAD = (
    _WS + "(?:@prefix" + _WS + "(" + _PN_PART + "):" + _WS + "<(" + IRI_CHAR + "+)>" + _WS
    + r"\.|(" + _TERM + r")|\Z)"
)
# A predicate-object pair. Its groups are the verb, the IRI object, the
# string's text, its datatype, then ',' or '.' after the object, or the '.'
# after a run of ';'.
_PAIR = _WS + "(" + _IRI + "|a(?!" + _PN_CHAR + "|:))" + _WS + _OBJECT_PUNCT
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
_iri_body = re.compile(IRI_CHAR + "*").match
_pname = re.compile("(" + _PN_PART + ")(?::(" + _PN_PART + "))?").match
_string_chars = re.compile(_STRING_CHARS).match
_escape = re.compile(_ESCAPE).match

_local_name = re.compile("(?:[A-Za-z_]" + _PN_PART + r")?\Z").match  # "" or a PN_NAME
_new = tuple.__new__  # builds an Iri, Literal or Triple without a call of its Python __new__


class _Parser:
    """Single-pass reader over the step patterns `_HEAD`, `_PAIR` and `_OBJECT`.

    Each step is one match, and `_term` turns each token it holds into its
    term, refusing an unknown prefix or a blank node outside raw mode at the
    token's own position. Where a step does not match, `_refuse` reads it
    again with the per-token readers, only to raise the error of its first
    failing check. Each per-token reader takes the position to start at and
    returns the position after what it read; it checks its terms through
    `_term` too. `_read_string` also returns the string it decoded, for the
    steps whose string holds an escape. An error names the first character
    of what it reports as found, or where nothing is found, the place where
    the expected text should start.
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

    def _term(self, token: str, pos: int) -> Union[Iri, BlankNode]:
        """The term that `token`, read at `pos`, stands for: `token` is an
        IRIREF, a prefixed name, a blank node label, 'a', or a '[]' ('[' is
        enough). The term is kept for the next time the token is read,
        except for '[]', which is a new blank node each time. An unknown
        prefix, or a blank node outside raw mode, is refused at `pos`.
        """
        c = token[0]
        if c == "[" or token.startswith("_:"):
            if not self.allow_blanks:
                raise BlankNodeUnsupported(*self._line_col(pos))
            if c == "[":
                self._anon += 1
                # '=' cannot occur in parsed labels, so generated labels never collide.
                return BlankNode(f"=anon{self._anon}")
            term = BlankNode(token)
        elif token == "a":
            term = RDF_TYPE
        else:
            if c == "<":
                value = token[1:-1]
            else:
                prefix, _, local = token.partition(":")
                namespace = self.bindings.get(prefix)
                if namespace is None:
                    raise UnknownPrefix(prefix, *self._line_col(pos))
                value = namespace + local
            term = self._iris.get(value)  # one Iri per distinct string
            if term is None:
                # IRI bodies and local names are read as IRI_CHARs: Iri's check would pass.
                term = self._iris[value] = _new(Iri, (value,))
        self._terms[token] = term
        return term

    # -- tokens ----------------------------------------------------------

    def _read_iriref(self, pos: int) -> int:
        text = self.text
        start = pos + 1  # after '<'
        end = _iri_body(text, start).end()
        if end == len(text):
            raise self._fail(start, "'>' closing the IRI")
        if text[end] != ">":
            raise self._unexpected(end, "an IRI character")
        if end == start:
            raise self._fail(start, "a non-empty IRI")
        self._term(text[pos : end + 1], pos)
        return end + 1

    def _read_name(self, pos: int, keyword_ok: bool = False) -> int:
        """Reads a prefixed name or a blank node label, or with `keyword_ok`
        the keyword 'a'."""
        m = _pname(self.text, pos)
        name, local = m.groups()
        if local is None and not (keyword_ok and name == "a"):
            if not name:
                raise self._unexpected(pos, "an IRI, prefixed name or keyword")
            raise self._fail(pos, "':' to complete the prefixed name", repr(name))
        self._term(m.group(), pos)
        return m.end()

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
        if m is None:  # pos + 1 is the escape letter, pos + 2 the first hex digit
            c = text[pos + 1 : pos + 2]
            if not c:
                raise self._unexpected(pos + 1, "an escape character")
            if c not in "uU":
                raise self._unexpected(pos + 1, "a valid escape (tbnrf\"\\ or u/U)")
            width = 4 if c == "u" else 8
            digits = text[pos + 2 : pos + 2 + width]
            if len(digits) < width:
                raise self._unexpected(len(text), f"{width} hex digits")
            raise self._fail(pos + 2, f"{width} hex digits", repr(digits))
        escape = m.group()
        if len(escape) == 2:
            return _ESCAPE_IN[escape[1]], m.end()
        digits = escape[2:]
        code = int(digits, 16)
        # XSD strings hold Unicode scalar values only, never surrogates.
        if 0xD800 <= code <= 0xDFFF:
            raise self._fail(pos, "an escape outside U+D800-U+DFFF", escape)
        if code > 0x10FFFF:
            raise self._fail(pos + 2, f"{len(digits)} hex digits", repr(digits))
        return chr(code), m.end()

    # -- grammar ---------------------------------------------------------

    def _read_node(self, pos: int) -> int:
        """Reads a subject, or an object that is not a literal: an IRI, a
        blank node label or a '[]'."""
        text = self.text
        if text.startswith("<", pos):
            return self._read_iriref(pos)
        if not text.startswith("[", pos):
            return self._read_name(pos)
        self._term("[", pos)
        pos = _skip_ws(text, pos + 1).end()
        if not text.startswith("]", pos):
            raise self._unexpected(pos, "']' (blank node property lists are not supported)")
        return pos + 1

    def _read_iri(self, pos: int, expected: str, keyword_ok: bool = False) -> int:
        """Reads a predicate or a datatype: an IRI, or with `keyword_ok` the
        keyword 'a'. A blank node label is refused, as not `expected`."""
        if self.text.startswith("<", pos):
            return self._read_iriref(pos)
        if self.text.startswith("_:", pos):
            raise self._fail(pos, expected, "blank node")
        return self._read_name(pos, keyword_ok)

    def _read_object(self, pos: int) -> int:
        text = self.text
        pos = _skip_ws(text, pos).end()
        if pos == len(text):
            raise self._unexpected(pos, "an object")
        if not text.startswith('"', pos):
            return self._read_node(pos)
        _, pos = self._read_string(pos)
        caret = _skip_ws(text, pos).end()
        if not text.startswith("^", caret):
            return pos
        if not text.startswith("^", caret + 1):
            raise self._unexpected(caret + 1, "'^^' introducing a datatype")
        return self._read_iri(_skip_ws(text, caret + 2).end(), "a datatype IRI")

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
        return self._expect(self._read_iriref(pos), ".", "'.' ending the directive")

    def _refuse(self, step, pos: int) -> NoReturn:
        """Read the step that `step` did not match at `pos` again, token by token.

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
                self._read_node(pos)
        else:
            if step is pair:
                pos = self._read_iri(_skip_ws(text, pos).end(), "a predicate IRI", keyword_ok=True)
            pos = _skip_ws(text, self._read_object(pos)).end()
            if not text.startswith((",", ";"), pos):
                self._expect(pos, ".", "'.' ending the statement")
        line, column = self._line_col(start)
        raise AssertionError(f"line {line}, column {column}: the step passed every check")

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
                    return self.triples, PrefixMap(self.bindings)
                self._bind(name, namespace)
                pos = m.end()
                continue
            subject = terms.get(token) or term(token, m.start(3))
            step, pos = pair, m.end()
            while True:
                m = step(text, pos)
                if m is None:
                    self._refuse(step, pos)
                token, obj, lexical, datatype, punct, dot = m.groups()
                if token:  # "" from object_
                    verb = terms.get(token) or term(token, m.start(1))
                if obj is not None:
                    obj = terms.get(obj) or term(obj, m.start(2))
                else:
                    if "\\" in lexical:
                        lexical, _ = self._read_string(m.start(3) - 1)
                    if datatype is not None:
                        datatype = terms.get(datatype) or term(datatype, m.start(4))
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
    for s, p, o in ts:
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
