"""Exception types raised across the package."""

from __future__ import annotations

from .report import ValidationReport


class RdfPgError(Exception):
    """Base class for every error this package raises deliberately."""


class TurtleSyntaxError(RdfPgError):
    """Malformed Turtle input, with position and an expectation hint."""

    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        detail = f"expected {expected}"
        if found:
            detail += f", found {found}"
        super().__init__(f"line {line}, column {column}: {detail}")


class UnknownPrefix(RdfPgError):
    """A prefixed name uses a prefix with no @prefix binding."""

    def __init__(self, prefix: str, line: int = 0, column: int = 0):
        self.prefix = prefix
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: unknown prefix '{prefix}:'")


class BlankNodeUnsupported(RdfPgError):
    """Blank node syntax encountered outside the raw (skolemizing) parse mode."""

    def __init__(self, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(
            f"line {line}, column {column}: blank nodes are not supported; "
            "re-parse in raw mode and skolemize to convert them to IRIs"
        )


class MultipleTypes(RdfPgError):
    """A subject carries more than one type triple and no tie-break was requested."""

    def __init__(self, subject: str, classes: tuple[str, ...]):
        self.subject = subject
        self.classes = classes
        super().__init__(
            f"subject {subject} has {len(classes)} type declarations "
            f"({', '.join(classes)}); pass first_type='lexicographic' to tie-break"
        )


class ConflictingDomain(RdfPgError):
    def __init__(self, prop: str, domains: tuple[str, ...]):
        self.prop = prop
        self.domains = domains
        super().__init__(f"property {prop} declares multiple domains: {', '.join(domains)}")


class ConflictingRange(RdfPgError):
    def __init__(self, prop: str, ranges: tuple[str, ...]):
        self.prop = prop
        self.ranges = ranges
        super().__init__(f"property {prop} declares multiple ranges: {', '.join(ranges)}")


class ReservedVocabularyTerm(RdfPgError):
    """A schema element tried to use one of the reserved vocabulary IRIs."""

    def __init__(self, iri: str, where: str):
        self.iri = iri
        self.where = where
        super().__init__(f"{iri} is a reserved vocabulary term and cannot name a {where}")


class MissingEndpointType(RdfPgError):
    """A schema property references an endpoint class that maps to no node type."""

    def __init__(self, prop: str, endpoint: str, side: str):
        self.prop = prop
        self.endpoint = endpoint
        self.side = side
        super().__init__(
            f"property {prop}: {side} class {endpoint} is excluded from node types, "
            "so the property cannot be placed"
        )


class DuplicatePropertyLabel(RdfPgError):
    """One resource holds two values for the same datatype property.

    The schema-dependent instance mapping keys node properties by label, so
    multi-valued properties cannot be represented; the schema-independent
    mapping handles them.
    """

    def __init__(self, subject: str, label: str):
        self.subject = subject
        self.label = label
        super().__init__(
            f"resource {subject} has more than one value for {label}; "
            "use the schema-independent mapping for multi-valued properties"
        )


class MissingIriProperty(RdfPgError):
    """A node, given by its `describe()` text, holds no "iri" property or more than one."""

    def __init__(self, node: str):
        self.node = node
        super().__init__(f"{node} has no single 'iri' property to recover its IRI from")


class NonIriLabel(RdfPgError):
    """A label, key or value that an inverse mapping must turn into an IRI cannot be one.

    `role` says what the string is to `element`: its label, a property key,
    the value of a property, or a datatype.
    """

    def __init__(self, element: str, label: str, role: str = "label"):
        self.element = element
        self.label = label
        self.role = role
        super().__init__(f"{element} carries {role} {label!r}, which is not usable as an IRI")


class ConflictingResourceClass(RdfPgError):
    """Two PG nodes carry the same IRI but give its resource different classes."""

    def __init__(self, iri: str, first: str, second: str):
        self.iri = iri
        self.first = first
        self.second = second
        super().__init__(f"{first} and {second} give resource {iri} different classes")


class NotProducedByConversion(RdfPgError):
    """A PG element that no conversion writes, so inverting would lose it.

    `element` is the element's `describe()` text; `reason` says what is
    wrong with it, such as repeating the element before it.
    """

    def __init__(self, element: str, reason: str):
        self.element = element
        self.reason = reason
        super().__init__(f"{element} {reason}, which no conversion produces")


class SchemaViolation(RdfPgError):
    """A property graph offered for inversion does not conform to the generic schema."""

    def __init__(self, summary: str):
        super().__init__(f"graph does not conform to the generic schema: {summary}")


class NotGenericSchema(RdfPgError):
    """A PG schema offered to the schema-independent inverse is not the generic schema.

    `element` names the first node or edge type, in canonical order, that differs.
    """

    def __init__(self, element: str):
        self.element = element
        super().__init__(f"PG schema is not the generic schema: its {element} differs")


class MissingRequiredProperty(RdfPgError):
    def __init__(self, element: str, label: str, count: int = 0):
        self.element = element
        self.label = label
        self.count = count
        what = "is missing" if count == 0 else f"has {count} copies of"
        super().__init__(f"{element} {what} required property {label!r}")


class FormatError(RdfPgError):
    """A JSON document does not match the expected layout."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DanglingEdgeEndpoint(RdfPgError):
    """An edge's `source` or `target`, at JSON path `path`, names no node id."""

    def __init__(self, path: str, edge_id: str, node_id: str):
        self.path = path
        self.edge_id = edge_id
        self.node_id = node_id
        super().__init__(f"{path}: edge {edge_id} references unknown node id {node_id}")


class ValidityWarning(UserWarning):
    """Emitted when a mapping is applied to a database outside its checked domain.

    `report` is the failed ValidationReport of the input database, or None
    when the database is valid but has elements the mapping cannot place.
    """

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report
