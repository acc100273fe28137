"""Textual openCypher import script for a property graph.

The export is a plain script, one statement per element: first a CREATE per
node, then a MATCH...CREATE per edge. Each node receives a synthetic
`_rdfpg_id` property (its canonical index) so edge statements can find their
endpoints without relying on data properties being unique; a node that
holds a property of that key is refused. An openCypher map holds one value
per key, so a node or edge with two values for one key is refused too.
Statement order follows the canonical element order used by the JSON
serializer, so the script is deterministic. A number is written bare only
where openCypher reads back the same value: a 64-bit integer, a finite
double, or a decimal that a double holds exactly to its digits. See
docs/cypher-export.md for the dialect notes.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal

from .errors import RdfPgError
from .pg_graph import BOOLEAN, DECIMAL, DOUBLE, INT, INTEGER, Edge, Node, PgValue, PropertyGraph

NODE_ID_KEY = "_rdfpg_id"

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# Lexical forms that openCypher reads back as the same number. A decimal
# point needs a digit after it ("1." is no literal), an exponent may carry
# only a "-" sign ("1E+5" is no literal), and an integer with a leading zero
# is octal ("010" is 8), so such forms are quoted instead.
_INT_LEXICAL = re.compile(r"^[+-]?(0|[1-9][0-9]*)$")
_FLOAT_LEXICAL = re.compile(r"^[+-]?(?!0[0-9]+$)([0-9]+|[0-9]*\.[0-9]+)([eE]-?[0-9]+)?$")


def _name(text: str) -> str:
    """Bare if it is a plain identifier, backtick-quoted otherwise."""
    if _IDENTIFIER.match(text):
        return text
    return "`" + text.replace("`", "``") + "`"


def _string(text: str) -> str:
    escaped = (
        text.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return f"'{escaped}'"


# openCypher integers are signed 64-bit and its floats are IEEE 754 doubles.
_INT_RANGE = range(-(2**63), 2**63)
# Any decimal of at most this many significant digits, in the double range,
# comes back from a double's shortest form with the same digits.
_DOUBLE_DIGITS = 15


def _significant_digits(lexical: str) -> int:
    mantissa = re.split("[eE]", lexical)[0]
    return len(mantissa.lstrip("+-").replace(".", "").strip("0"))


def _bare(datatype: str, lexical: str) -> bool:
    """Whether openCypher reads the number `lexical` back as the same value."""
    if datatype in (INTEGER, INT):
        # int() of a long string is slow or refused; 2**63 has 19 digits.
        return (
            _INT_LEXICAL.match(lexical) is not None
            and len(lexical.lstrip("+-")) <= 19
            and int(lexical) in _INT_RANGE
        )
    if not _FLOAT_LEXICAL.match(lexical):
        return False
    if datatype == DOUBLE:
        if _INT_LEXICAL.match(lexical):  # read as an integer: it must be the double's value
            return _bare(INTEGER, lexical) and float(lexical) == int(lexical)
        return math.isfinite(float(lexical))
    # A Decimal: the double's shortest form must be the same number, which
    # also refuses one that overflows or underflows.
    return (
        _significant_digits(lexical) <= _DOUBLE_DIGITS
        and Decimal(repr(float(lexical))) == Decimal(lexical)
    )


def _value(value: PgValue) -> str:
    datatype, lexical = value.datatype, value.lexical
    if datatype in (INTEGER, INT, DECIMAL, DOUBLE) and _bare(datatype, lexical):
        return lexical
    if datatype == BOOLEAN and lexical.lower() in ("true", "false"):
        return lexical.lower()
    return _string(lexical)


def _property_map(pairs: list[tuple[str, str]]) -> str:
    inner = ", ".join(f"{_name(key)}: {rendered}" for key, rendered in pairs)
    return "{" + inner + "}"


def _pairs(graph: PropertyGraph, element: Node | Edge) -> list[tuple[str, str]]:
    """Each property of `element` as its key and its rendered value.

    Raises RdfPgError for a key that holds two values: an openCypher map
    keeps one value per key, so the import would lose the others.
    """
    pairs: list[tuple[str, str]] = []
    for key, value in element.properties:
        if pairs and pairs[-1][0] == key:  # properties are sorted by key
            raise RdfPgError(
                f"{graph.describe(element)} holds two values for {key!r}, "
                "and an openCypher map keeps one value per key"
            )
        pairs.append((key, _value(value)))
    return pairs


def export_import_script(graph: PropertyGraph) -> str:
    """CREATE statements for every node, then every edge. Empty graph, empty script.

    Raises RdfPgError for a node that holds a property keyed `_rdfpg_id`,
    and for a node or edge that holds two values for one key.
    """
    statements: list[str] = []
    for i, node in enumerate(graph.nodes):
        if any(key == NODE_ID_KEY for key, _ in node.properties):
            raise RdfPgError(
                f"{graph.describe(node)} holds a property keyed {NODE_ID_KEY!r}, "
                "which the export reserves for its node ids"
            )
        pairs = [(NODE_ID_KEY, str(i)), *_pairs(graph, node)]
        statements.append(f"CREATE (:{_name(node.label)} {_property_map(pairs)});")
    for edge in graph.edges:
        pairs = _pairs(graph, edge)
        props = f" {_property_map(pairs)}" if pairs else ""
        statements.append(
            f"MATCH (a {{{_name(NODE_ID_KEY)}: {edge.source}}}), "
            f"(b {{{_name(NODE_ID_KEY)}: {edge.target}}}) "
            f"CREATE (a)-[:{_name(edge.label)}{props}]->(b);"
        )
    return "\n".join(statements) + ("\n" if statements else "")
