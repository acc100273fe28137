"""Reading the openCypher export back.

`_read_script` reads exactly the subset that `export_import_script` writes
(docs/cypher-export.md): a `CREATE` statement per node and a `MATCH ...
CREATE` statement per edge, names bare or in backticks, single-quoted
strings with the five escapes `\\\\ \\' \\n \\r \\t`, and bare numbers and
booleans. Anything else is a `ValueError`. It reads a number as openCypher
does: an integer literal as a signed 64-bit integer (octal after a leading
zero), any other number as a double. A map's entries are kept as pairs in
script order, so a key written twice is read twice.

The seeded property test reads the script of every graph back: each node
and edge in order, each value equal to the graph's either as the quoted
string or as a number. A graph with a node or edge that holds two values
for one key must be refused instead: an openCypher map keeps one value per
key. About 3 in 5 `gen_property_graph` graphs have such an element; the
mappings never write one, so 1,191 of the 1,500 graphs read back.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal

import pytest

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.cypher import NODE_ID_KEY, export_import_script
from rdfpg.errors import RdfPgError
from rdfpg.generator import GeneratorConfig, gen_property_graph, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_graph import (
    BOOLEAN,
    DECIMAL,
    DOUBLE,
    INT,
    INTEGER,
    Node,
    PgValue,
    PropertyGraph,
    canonical_graph,
)

SEEDS = range(500)  # three graphs each: 1,500 cases

_TOKEN = re.compile(
    r"""[ \n]*(?:
        (?P<name>[A-Za-z_][A-Za-z0-9_]*|`(?:[^`]|``)*`)
      | (?P<string>'(?:[^'\\]|\\[\\'nrt])*')
      | (?P<int>[+-]?[0-9]+)(?![0-9A-Za-z_.])
      | (?P<float>[+-]?(?:[0-9]*\.[0-9]+(?:[eE]-?[0-9]+)?|[0-9]+[eE]-?[0-9]+))(?![0-9A-Za-z_.])
      | (?P<punct>->|[(){}\[\]:,;-])
    )""",
    re.VERBOSE,
)
_UNESCAPE = {"\\": "\\", "'": "'", "n": "\n", "r": "\r", "t": "\t"}
_INT64 = range(-(2**63), 2**63)


def _tokens(script: str) -> list[tuple[str, str]]:
    tokens = []
    pos, end = 0, len(script.rstrip(" \n"))
    while pos < end:
        m = _TOKEN.match(script, pos)
        if m is None:
            raise ValueError(f"no token at {script[pos:pos + 20]!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


def _number(kind: str, text: str) -> int | float:
    if kind == "float":
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{text} overflows a double")
        return value
    digits = text.lstrip("+-")
    value = int(digits, 8) if len(digits) > 1 and digits[0] == "0" else int(digits)
    value = -value if text[0] == "-" else value
    if value not in _INT64:
        raise ValueError(f"{text} is not a 64-bit integer")
    return value


def _read_script(script: str):
    """([(label, pairs)], [(label, source id, target id, pairs)]) of `script`,
    where a node's id is its `_rdfpg_id` and its pairs hold the rest."""
    tokens = _tokens(script)
    at = 0

    def peek() -> str:
        return tokens[at][1] if at < len(tokens) else ""

    def take(*expected: str) -> tuple[str, str]:
        nonlocal at
        if at == len(tokens):
            raise ValueError("unexpected end of script")
        kind, text = tokens[at]
        if expected and text not in expected:
            raise ValueError(f"expected {' or '.join(expected)}, found {text!r}")
        at += 1
        return kind, text

    def name() -> str:
        kind, text = take()
        if kind != "name":
            raise ValueError(f"expected a name, found {text!r}")
        return text[1:-1].replace("``", "`") if text[0] == "`" else text

    def value():
        kind, text = take()
        if kind == "string":
            return re.sub(r"\\(.)", lambda m: _UNESCAPE[m.group(1)], text[1:-1])
        if kind in ("int", "float"):
            return _number(kind, text)
        if text in ("true", "false"):
            return text == "true"
        raise ValueError(f"expected a value, found {text!r}")

    def pairs() -> list[tuple[str, object]]:
        take("{")
        result = []
        while peek() != "}":
            if result:
                take(",")
            key = name()
            take(":")
            result.append((key, value()))
        take("}")
        return result

    def node_id() -> int:
        ((key, value_),) = pairs()
        if key != NODE_ID_KEY or type(value_) is not int:
            raise ValueError(f"expected a {NODE_ID_KEY} of a node, found {key}: {value_!r}")
        return value_

    nodes, edges = [], []
    while at < len(tokens):
        keyword = name()
        if keyword == "CREATE":
            take("(")
            take(":")
            label = name()
            (key, id_), *rest = pairs()
            if (key, id_) != (NODE_ID_KEY, len(nodes)):
                raise ValueError(f"node {len(nodes)} has the id {key}: {id_!r}")
            nodes.append((label, rest))
            take(")")
        elif keyword == "MATCH":
            take("(")
            take("a")
            source = node_id()
            take(")")
            take(",")
            take("(")
            take("b")
            target = node_id()
            take(")")
            take("CREATE")
            for text in ("(", "a", ")", "-", "[", ":"):
                take(text)
            label = name()
            rest = pairs() if peek() == "{" else []
            for text in ("]", "->", "(", "b", ")"):
                take(text)
            edges.append((label, source, target, rest))
        else:
            raise ValueError(f"expected CREATE or MATCH, found {keyword!r}")
        take(";")
    return nodes, edges


def _same(value: PgValue, read) -> bool:
    """Whether `read` is `value`: its lexical form as a string, or its value
    as a boolean or number. A double stands for a decimal when its shortest
    form is the same number."""
    lexical, datatype = value
    if type(read) is str:
        return read == lexical
    if type(read) is bool:
        return datatype == BOOLEAN and lexical.lower() == str(read).lower()
    if datatype in (INTEGER, INT):
        return type(read) is int and read == int(lexical)
    if datatype == DOUBLE:
        return read == float(lexical)
    if datatype == DECIMAL:
        return Decimal(repr(read) if type(read) is float else read) == Decimal(lexical)
    return False


def _same_pairs(properties, read_pairs) -> bool:
    return len(properties) == len(read_pairs) and all(
        key == read_key and _same(value, read)
        for (key, value), (read_key, read) in zip(properties, read_pairs)
    )


def _assert_reads_back(graph: PropertyGraph) -> None:
    nodes, edges = _read_script(export_import_script(graph))
    assert len(nodes) == len(graph.nodes) and len(edges) == len(graph.edges)
    for node, (label, read) in zip(graph.nodes, nodes):
        assert node.label == label and _same_pairs(node.properties, read), (node, read)
    for edge, (label, source, target, read) in zip(graph.edges, edges):
        assert (edge.label, edge.source, edge.target) == (label, source, target)
        assert _same_pairs(edge.properties, read), (edge, read)


def _reads_back_or_is_refused(graph: PropertyGraph) -> bool:
    """Whether the script of `graph` reads back; False if it is refused for
    an element that holds two values for one key, as it must be."""
    if any(
        len({key for key, _ in element.properties}) < len(element.properties)
        for element in graph.nodes + graph.edges
    ):
        with pytest.raises(RdfPgError, match="holds two values for"):
            export_import_script(graph)
        return False
    _assert_reads_back(graph)
    return True


@pytest.mark.parametrize("chunk", range(4))
def test_every_script_reads_back_as_its_graph(chunk):
    read_back = 0
    for seed in SEEDS[chunk::4]:
        config = GeneratorConfig(seed=seed)
        read_back += _reads_back_or_is_refused(gen_property_graph(config))
        read_back += _reads_back_or_is_refused(dep.map_graph(gen_rdf_database(config)[1]))
        read_back += _reads_back_or_is_refused(indep.map_graph(gen_rdf_graph(config)))
    assert read_back >= 250  # at least 1,000 over the four chunks


# Each lexical form under each datatype, with the awkward cases of the range
# rule: 64-bit bounds, doubles past their range, decimals past 15 digits,
# integer forms under Double and Decimal, and strings the escapes cover.
_LEXICALS = [
    "0", "-0", "+5", "46", "010", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "12345678901234567", "99999999999999999999",
    "1.5E2", "-9.0E-5", ".5", "00.5", "1.", "1E+5", "010e3", "1e400", "1e-400",
    "3.14159265358979323846264338327950288", "1.23456789012345", "0.1",
    "true", "FALSE", "1", "", "it's", "back\\slash", "line\nbreak\r\ttab", "`tick`",
    " \x00\U0001f600",
]
_DATATYPES = [INTEGER, INT, DECIMAL, DOUBLE, BOOLEAN, "String", "http://dt.example/c"]


@pytest.mark.parametrize("datatype", _DATATYPES)
def test_awkward_values_read_back(datatype):
    nodes = [
        Node("T`x" if i % 2 else "Thing", ((f"k {i}", PgValue(lexical, datatype)),))
        for i, lexical in enumerate(_LEXICALS)
    ]
    _assert_reads_back(canonical_graph(nodes, []))


@pytest.mark.parametrize("script", [
    "CREATE (:T {_rdfpg_id: 0, v: 1.});\n",
    "CREATE (:T {_rdfpg_id: 0, v: 1E+5});\n",
    "CREATE (:T {_rdfpg_id: 0, v: 'a\\u0041'});\n",
    "CREATE (:T {_rdfpg_id: 0, v: 9223372036854775808});\n",
    "CREATE (:T {_rdfpg_id: 0, v: 1e400});\n",
    "CREATE (:T {_rdfpg_id: 1});\n",
    "CREATE (:T {_rdfpg_id: 0, v: nope});\n",
    "CREATE (:T {_rdfpg_id: 0})\n",
    "CREATE (:T {_rdfpg_id: 0, v: 1",
    "MATCH (a {_rdfpg_id: 0}), (b {v: 0}) CREATE (a)-[:r]->(b);\n",
], ids=["point-no-digit", "plus-exponent", "unicode-escape", "int-overflow", "double-overflow",
        "id-out-of-order", "bare-word", "no-semicolon", "unclosed-map", "edge-without-id"])
def test_the_reader_refuses_what_the_export_never_writes(script):
    with pytest.raises(ValueError):
        _read_script(script)


def test_the_reader_reads_octal_as_opencypher_does():
    nodes, _ = _read_script("CREATE (:T {_rdfpg_id: 0, v: 010, w: -007});\n")
    assert nodes == [("T", [("v", 8), ("w", -7)])]
