"""Core RDF value types: IRIs, literals, triples, prefix maps and triple sets.

Everything here is immutable. IRIs are always stored in full form; prefixed
names exist only at the Turtle layer. `IRI_CHAR` is the one definition of
the characters an IRI may hold: `Iri` checks with it, and the Turtle reader
reads every IRI body with it. Literals, triples and prefix maps are named
tuples: each equals the plain tuple of its fields, and a caller replaces a
field with `_replace`. A prefix map holds a read-only copy of its bindings.
A TripleSet is a frozenset of triples.
"""

from __future__ import annotations

import re
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Union

from .errors import NonIriLabel

# The characters an IRI may hold, as a regular-expression class: those of
# W3C Turtle's IRIREF, which admits no U+0000-U+0020 and none of <>"{}|^`\,
# less the other characters that str.isspace() accepts, as the Turtle reader
# takes them for separators. For every code point, \s matches exactly what
# str.isspace() accepts.
IRI_CHAR = r'[^\x00-\x20\s<>"{}|^`\\]'
_iri_chars = re.compile(IRI_CHAR + "*").match


class Iri(tuple):
    """A full-form IRI: a validated one-element tuple holding its string.

    Hashing, equality and ordering are the tuple's, so they run in C and
    IRIs sort by their strings. An Iri equals the plain tuple (value,) and
    never a string.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not value:
            raise ValueError("IRI must be non-empty")
        end = _iri_chars(value).end()
        if end < len(value):
            raise ValueError(f"IRI may not contain {value[end]!r}: {value!r}")
        return tuple.__new__(cls, (value,))

    value = property(itemgetter(0))

    def __str__(self) -> str:
        return self[0]

    def __repr__(self) -> str:
        return f"Iri(value={self[0]!r})"

    # Pickle and copy rebuild through __new__, so they validate too.
    def __reduce__(self):
        return Iri, (self[0],)


def iri_for(value: str, element: Callable[[], str], role: str = "label") -> Iri:
    """`value` as an Iri, for a string read from a property graph.

    Raises NonIriLabel naming the element, described by calling `element`,
    when `value` is empty or holds a character that `IRI_CHAR` excludes:
    one of U+0000-U+0020, other whitespace, or one of <>"{}|^`\\.
    """
    try:
        return Iri(value)
    except ValueError:
        raise NonIriLabel(element(), value, role) from None


def iri_cache() -> Callable[..., Iri]:
    """`iri_for` keeping one Iri per distinct string, as labels, property
    keys and type strings repeat across elements. Only successes are kept,
    so NonIriLabel names the first element that holds a bad string."""
    iris: dict[str, Iri] = {}

    def iri(value: str, element: Callable[[], str], role: str = "label") -> Iri:
        found = iris.get(value)
        if found is None:
            found = iris[value] = iri_for(value, element, role)
        return found

    return iri


class Literal(NamedTuple):
    """A literal value: a lexical form paired with a datatype IRI.

    Plain literals are stored with datatype xsd:string, so '"x"' and
    '"x"^^xsd:string' denote the same literal. Literals sort by lexical
    form, then datatype.
    """

    lexical: str
    datatype: Iri

    @classmethod
    def plain(cls, lexical: str) -> "Literal":
        return cls(lexical, XSD_STRING)

    def __str__(self) -> str:
        return f'"{self.lexical}"^^{self.datatype}'


RdfObject = Union[Iri, Literal]


class Triple(NamedTuple):
    """One RDF statement. Subject and predicate are IRIs; the object may be a literal.

    Triples whose objects are all IRIs, or all literals, sort in their
    natural order.
    """

    s: Iri
    p: Iri
    o: RdfObject


# Namespaces used throughout.
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = Iri(RDF_NS + "type")
RDF_PROPERTY = Iri(RDF_NS + "Property")
RDFS_CLASS = Iri(RDFS_NS + "Class")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
RDFS_RANGE = Iri(RDFS_NS + "range")
RDFS_RESOURCE = Iri(RDFS_NS + "Resource")

XSD_STRING = Iri(XSD_NS + "string")
XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_INT = Iri(XSD_NS + "int")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_DOUBLE = Iri(XSD_NS + "double")
XSD_BOOLEAN = Iri(XSD_NS + "boolean")
XSD_DATE = Iri(XSD_NS + "date")
XSD_DATETIME = Iri(XSD_NS + "dateTime")

# The vocabulary terms that structure a schema description. These never name
# user classes or properties.
VOCABULARY_TERMS = frozenset(
    {RDF_TYPE, RDFS_CLASS, RDF_PROPERTY, RDFS_DOMAIN, RDFS_RANGE}
)

# Datatype IRIs with a first-class property-graph counterpart. Anything else
# is carried through as a custom datatype.
SUPPORTED_DATATYPES = frozenset(
    {
        XSD_STRING,
        XSD_INTEGER,
        XSD_INT,
        XSD_DECIMAL,
        XSD_DOUBLE,
        XSD_BOOLEAN,
        XSD_DATE,
        XSD_DATETIME,
    }
)

assert not (VOCABULARY_TERMS & SUPPORTED_DATATYPES)


class PrefixMap(NamedTuple("PrefixMap", [("bindings", Mapping[str, str])])):
    """Prefix-to-namespace bindings used when reading and writing Turtle.

    `bindings` is a read-only view of the map's own copy of the bindings it
    was given, so that no holder of a map can change it for the others.
    """

    __slots__ = ()

    def __new__(cls, bindings: Mapping[str, str] | None = None) -> "PrefixMap":
        return super().__new__(cls, MappingProxyType(dict(bindings or {})))

    @classmethod
    def _make(cls, iterable) -> "PrefixMap":  # so that `_replace` copies too
        return cls(*iterable)

    def __repr__(self) -> str:
        return f"PrefixMap(bindings={dict(self.bindings)!r})"

    def __reduce__(self):  # a mappingproxy does not pickle
        return PrefixMap, (dict(self.bindings),)

    def namespace(self, prefix: str) -> str | None:
        return self.bindings.get(prefix)

    def items(self) -> list[tuple[str, str]]:
        return sorted(self.bindings.items())


COMMON_PREFIXES = PrefixMap(
    {
        "rdf": RDF_NS,
        "rdfs": RDFS_NS,
        "xsd": XSD_NS,
    }
)


class TripleSet(frozenset):
    """A frozenset of triples, with `prefixes`, the prefix map they were read
    with. It equals any set of the same triples, iterates in set order, and
    gives a plain frozenset from a set operator."""

    __slots__ = ("prefixes",)

    def __new__(cls, triples=(), prefixes: PrefixMap | None = None) -> "TripleSet":
        self = frozenset.__new__(cls, triples)
        object.__setattr__(self, "prefixes", prefixes or PrefixMap())
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TripleSet is immutable")

    def __reduce__(self):
        return TripleSet, (frozenset(self), self.prefixes)

    __iter__ = frozenset.__iter__  # the set's own, named here for a tracer to wrap

    def __repr__(self) -> str:
        return f"TripleSet({len(self)} triples)"
