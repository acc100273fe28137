"""Core RDF value types: IRIs, literals, triples, prefix maps and triple sets.

Everything here is immutable. IRIs are always stored in full form; prefixed
names exist only at the Turtle layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Union

from .errors import NonIriLabel

# Characters RFC 3987 keeps out of IRIs: whitespace (for every code point, \s
# matches exactly what str.isspace() accepts) and <>"{}|^`\.
_forbidden_char = re.compile(r'[\s<>"{}|^`\\]').search


@dataclass(frozen=True, slots=True)
class Iri:
    """A full-form IRI. Equality is plain string equality."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI must be non-empty")
        m = _forbidden_char(self.value)
        if m:
            raise ValueError(f"IRI may not contain {m.group()!r}: {self.value!r}")

    # Terms are hashed once per set insertion or lookup; one call over their
    # strings keeps that cheap. Equality stays the dataclass one.
    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return self.value


def iri_for(value: str, element: Callable[[], str], role: str = "label") -> Iri:
    """`value` as an Iri, for a string read from a property graph.

    Raises NonIriLabel naming the element, described by calling `element`,
    when `value` is empty or holds whitespace or one of <>"{}|^`\\.
    """
    try:
        return Iri(value)
    except ValueError:
        raise NonIriLabel(element(), value, role) from None


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal value: a lexical form paired with a datatype IRI.

    Plain literals are stored with datatype xsd:string, so '"x"' and
    '"x"^^xsd:string' denote the same literal.
    """

    lexical: str
    datatype: Iri

    @classmethod
    def plain(cls, lexical: str) -> "Literal":
        return cls(lexical, XSD_STRING)

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype.value))

    def __str__(self) -> str:
        return f'"{self.lexical}"^^{self.datatype}'


RdfObject = Union[Iri, Literal]


@dataclass(frozen=True, slots=True)
class Triple:
    """One RDF statement. Subject and predicate are IRIs; the object may be a literal."""

    s: Iri
    p: Iri
    o: RdfObject

    def __hash__(self) -> int:
        o = self.o
        if type(o) is Iri:
            return hash((self.s.value, self.p.value, o.value))
        return hash((self.s.value, self.p.value, o.lexical, o.datatype.value))


def triple_sort_key(t: Triple) -> tuple:
    if isinstance(t.o, Iri):
        okey = (0, t.o.value, "")
    else:
        okey = (1, t.o.lexical, t.o.datatype.value)
    return (t.s.value, t.p.value, okey)


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


@dataclass(frozen=True)
class PrefixMap:
    """Prefix-to-namespace bindings used when reading and writing Turtle."""

    bindings: Mapping[str, str] = field(default_factory=dict)

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


class TripleSet:
    """An immutable set of triples plus the prefix map they were read with.

    Equality and hashing consider the triples only; prefixes are presentation
    metadata. Iteration is in sorted order so downstream behavior never
    depends on hash ordering; each pass sorts.
    """

    __slots__ = ("triples", "prefixes")

    def __init__(self, triples=(), prefixes: PrefixMap | None = None):
        object.__setattr__(self, "triples", frozenset(triples))
        object.__setattr__(self, "prefixes", prefixes or PrefixMap())

    def __setattr__(self, name, value):
        raise AttributeError("TripleSet is immutable")

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self.triples, key=triple_sort_key))

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triples

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"TripleSet({len(self.triples)} triples)"

    def with_triples(self, extra) -> "TripleSet":
        return TripleSet(self.triples | frozenset(extra), self.prefixes)
