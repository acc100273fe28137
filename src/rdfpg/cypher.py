"""Textual openCypher import script for a property graph.

The export is a plain script, one statement per element: first a CREATE per
node, then a MATCH...CREATE per edge. Each node receives a synthetic
`_rdfpg_id` property (its canonical index) so edge statements can find their
endpoints without relying on data properties being unique. Statement order
follows the canonical element order used by the JSON serializer, so the
script is deterministic. See docs/cypher-export.md for the dialect notes.
"""

from __future__ import annotations

import re

from .pg_graph import BOOLEAN, DECIMAL, DOUBLE, INT, INTEGER, PgValue, PropertyGraph

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


def _value(value: PgValue) -> str:
    datatype, lexical = value.datatype, value.lexical
    if datatype in (INTEGER, INT) and _INT_LEXICAL.match(lexical):
        return lexical
    if datatype in (DECIMAL, DOUBLE) and _FLOAT_LEXICAL.match(lexical):
        return lexical
    if datatype == BOOLEAN and lexical.lower() in ("true", "false"):
        return lexical.lower()
    return _string(lexical)


def _property_map(pairs: list[tuple[str, str]]) -> str:
    inner = ", ".join(f"{_name(key)}: {rendered}" for key, rendered in pairs)
    return "{" + inner + "}"


def export_import_script(graph: PropertyGraph) -> str:
    """CREATE statements for every node, then every edge. Empty graph, empty script."""
    statements: list[str] = []
    for n in graph.nodes_sorted():
        pairs = [(NODE_ID_KEY, str(n))]
        pairs += [(k, _value(v)) for k, v in graph.properties_of(n)]
        statements.append(f"CREATE (:{_name(graph.label[n])} {_property_map(pairs)});")
    for e in graph.edges_sorted():
        src, dst = graph.ends[e]
        pairs = [(k, _value(v)) for k, v in graph.properties_of(e)]
        props = f" {_property_map(pairs)}" if pairs else ""
        statements.append(
            f"MATCH (a {{{_name(NODE_ID_KEY)}: {src}}}), "
            f"(b {{{_name(NODE_ID_KEY)}: {dst}}}) "
            f"CREATE (a)-[:{_name(graph.label[e])}{props}]->(b);"
        )
    return "\n".join(statements) + ("\n" if statements else "")
