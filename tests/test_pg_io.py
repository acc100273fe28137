"""Property graph JSON documents and the openCypher export."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from conftest import build_company_pg

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.cypher import export_import_script
from rdfpg.errors import DanglingEdgeEndpoint, FormatError, RdfPgError
from rdfpg.generator import (
    GeneratorConfig,
    _lexical_for,
    gen_pg_schema,
    gen_property_graph,
    gen_rdf_database,
    gen_rdf_graph,
)
from rdfpg.pg_graph import (
    DECIMAL,
    DOUBLE,
    INT,
    INTEGER,
    Edge,
    Node,
    PgValue,
    STRING,
    canonical_graph,
)
from rdfpg.pg_json import (
    parse_pg,
    parse_pg_schema,
    serialize_pg,
    serialize_pg_schema,
)
from rdfpg.rdf_graph import build_rdf_graph
from rdfpg.schema_dependent import PG_DATATYPE_OF
from rdfpg.schema_independent import generic_schema
from rdfpg.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INT, XSD_INTEGER
from rdfpg.turtle import parse_turtle

GOLDEN_GENERIC_SCHEMA = Path(__file__).parent.parent / "docs" / "generic-pg-schema.json"


# -- instance documents -----------------------------------------------------------


def test_serialize_company_counts(company_pg):
    doc = json.loads(serialize_pg(company_pg))
    assert len(doc["nodes"]) == 2
    assert len(doc["edges"]) == 1
    n_properties = sum(len(r["properties"]) for r in doc["nodes"] + doc["edges"])
    assert n_properties == 5


def test_serialize_empty_graph():
    doc = json.loads(serialize_pg(canonical_graph([], [])))
    assert doc == {"nodes": [], "edges": []}


def test_serialize_is_byte_stable(company_pg):
    assert serialize_pg(company_pg) == serialize_pg(company_pg)


def test_serialize_is_canonical_across_construction_orders(company_pg):
    from rdfpg.pg_graph import DATE, INTEGER

    person = Node("Person", (
        ("age", PgValue("46", INTEGER)), ("birthName", PgValue("Elon Musk", STRING)),
    ))
    org = Node("Organisation", (
        ("creation", PgValue("2003-07-01", DATE)), ("name", PgValue("Tesla, Inc.", STRING)),
    ))
    scrambled = canonical_graph(
        [person, org], [Edge("ceo", 1, 0, (("since", PgValue("2003", DATE)),))]
    )
    assert company_pg == scrambled
    assert serialize_pg(company_pg) == serialize_pg(scrambled)


def test_values_stay_strings_in_json(company_pg):
    doc = json.loads(serialize_pg(company_pg))
    for record in doc["nodes"] + doc["edges"]:
        for prop in record["properties"]:
            assert isinstance(prop["value"], str)


def test_parse_roundtrip(company_pg):
    assert parse_pg(serialize_pg(company_pg)) == company_pg


def test_parse_rejects_missing_fields():
    with pytest.raises(FormatError) as err:
        parse_pg("{}")
    assert "nodes" in str(err.value)
    with pytest.raises(FormatError):
        parse_pg('{"nodes": [{"id": "n0"}], "edges": []}')
    with pytest.raises(FormatError):
        parse_pg("not json")


@pytest.mark.parametrize("reader", [parse_pg, parse_pg_schema])
@pytest.mark.parametrize("document", [
    "[" * 200_000,
    # a lone surrogate near the stack limit: the decoder or the surrogate walk gives out
    '{"nodes": ' + "[" * 990 + '"\\ud800"' + "]" * 990 + "}",
], ids=["deep-arrays", "deep-surrogate"])
def test_parse_refuses_deep_nesting_at_the_root(reader, document):
    with pytest.raises(FormatError) as err:
        reader(document)
    assert str(err.value) == "$: arrays or objects nested too deeply to read"


def test_parse_skips_one_leading_byte_order_mark(company_pg, company_pg_schema):
    for reader, model, text in [
        (parse_pg, company_pg, serialize_pg(company_pg)),
        (parse_pg_schema, company_pg_schema, serialize_pg_schema(company_pg_schema)),
    ]:
        assert reader("\ufeff" + text) == reader(text) == model
        # RFC 8259 lets a reader ignore the mark at the start only.
        for misplaced in ("\ufeff\ufeff" + text, " \ufeff" + text, text + "\ufeff"):
            with pytest.raises(FormatError, match=r"^\$: not valid JSON: "):
                reader(misplaced)


def test_parse_error_paths_point_at_offender():
    bad = {
        "nodes": [
            {"id": "n0", "label": "A", "properties": [{"key": "k", "value": 3, "type": "Int"}]}
        ],
        "edges": [],
    }
    with pytest.raises(FormatError) as err:
        parse_pg(json.dumps(bad))
    assert err.value.path == "$.nodes[0].properties[0].value"


def test_parse_rejects_dangling_endpoint():
    doc = {
        "nodes": [{"id": "n0", "label": "A", "properties": []}],
        "edges": [
            {"id": "e0", "label": "r", "source": "n0", "target": "nX", "properties": []}
        ],
    }
    with pytest.raises(DanglingEdgeEndpoint):
        parse_pg(json.dumps(doc))


def test_parse_rejects_unknown_fields():
    doc = {
        "nodes": [{"id": "n0", "label": "A", "properties": [], "color": "red"}],
        "edges": [],
    }
    with pytest.raises(FormatError) as err:
        parse_pg(json.dumps(doc))
    assert "color" in str(err.value)


def test_parse_rejects_duplicate_node_ids():
    doc = {
        "nodes": [
            {"id": "n0", "label": "A", "properties": []},
            {"id": "n0", "label": "B", "properties": []},
        ],
        "edges": [],
    }
    with pytest.raises(FormatError):
        parse_pg(json.dumps(doc))


def _document_with_last_edge(last_edge: dict) -> str:
    """Three nodes and three edges; only the last edge varies.

    The reader drops each element once it is read, so an error in the last
    edge is found after every node and every earlier edge is gone.
    """
    nodes = [
        {"id": f"n{i}", "label": "A", "properties": [{"key": "k", "value": str(i), "type": "Int"}]}
        for i in range(3)
    ]
    edges = [
        {"id": "e0", "label": "r", "source": "n0", "target": "n1", "properties": []},
        {"id": "e1", "label": "r", "source": "n1", "target": "n2",
         "properties": [{"key": "w", "value": "1", "type": "Int"}]},
        last_edge,
    ]
    return json.dumps({"edges": edges, "nodes": nodes})


def test_parse_dangling_endpoint_in_last_edge():
    text = _document_with_last_edge(
        {"id": "e2", "label": "r", "source": "n2", "target": "nX", "properties": []}
    )
    with pytest.raises(DanglingEdgeEndpoint) as err:
        parse_pg(text)
    assert (err.value.edge_id, err.value.node_id) == ("e2", "nX")
    assert str(err.value) == "$.edges[2].target: edge e2 references unknown node id nX"


def test_parse_duplicate_edge_id_in_last_edge():
    text = _document_with_last_edge(
        {"id": "e1", "label": "r", "source": "n2", "target": "n0", "properties": []}
    )
    with pytest.raises(FormatError) as err:
        parse_pg(text)
    assert err.value.path == "$.edges[2]"
    assert str(err.value) == "$.edges[2]: duplicate edge id 'e1'"


@pytest.mark.parametrize(
    "token, message",
    [(7, "expected a string, got int"), ("", "datatype may not be empty")],
)
def test_parse_bad_property_type_in_last_edge(token, message):
    text = _document_with_last_edge(
        {"id": "e2", "label": "r", "source": "n2", "target": "n0",
         "properties": [{"key": "w", "value": "1", "type": token}]}
    )
    with pytest.raises(FormatError) as err:
        parse_pg(text)
    assert err.value.path == "$.edges[2].properties[0].type"
    assert str(err.value) == f"$.edges[2].properties[0].type: {message}"


def _converted_document() -> dict:
    """The decoded document of an indep conversion: 41 nodes, 36 edges, each with properties."""
    return json.loads(serialize_pg(indep.map_graph(gen_rdf_graph(GeneratorConfig(seed=6)))))


def _breakages():
    """(id, break the document in place, error class, path or None, message) for parse_pg.

    The first, a middle and the last node, edge and property (counted over
    nodes, then edges) of the converted document are broken in each way the
    reader checks.
    """
    doc = _converted_document()
    fields = {"nodes": ("id", "label", "properties"),
              "edges": ("id", "label", "source", "target", "properties")}
    for section, kind in (("nodes", "node"), ("edges", "edge")):
        count = len(doc[section])
        for i in sorted({0, count // 2, count - 1}):
            at = f"$.{section}[{i}]"

            def put(value, section=section, i=i):
                return lambda d: d[section].__setitem__(i, value)

            def update(field, value=None, section=section, i=i):
                if value is None:
                    return lambda d: d[section][i].pop(field)
                return lambda d: d[section][i].__setitem__(field, value)

            yield f"{at}-not-an-object", put(7), FormatError, at, "expected an object, got int"
            yield (f"{at}-unknown-field", update("color", "red"), FormatError, at,
                   "unknown field(s): color")
            for field in fields[section]:
                yield (f"{at}-missing-{field}", update(field), FormatError, at,
                       f"missing required field {field!r}")
                expected = "a list" if field == "properties" else "a string"
                yield (f"{at}-{field}-not-{expected[2:]}", update(field, 7), FormatError,
                       f"{at}.{field}", f"expected {expected}, got int")
            # The repeat is found at the later of the two elements.
            other = 1 if i == 0 else 0
            other_id = doc[section][other]["id"]
            yield (f"{at}-duplicate-id", update("id", other_id), FormatError,
                   f"$.{section}[{max(i, other)}]", f"duplicate {kind} id {other_id!r}")
            if section == "edges":
                edge_id = doc[section][i]["id"]
                for end in ("source", "target"):
                    yield (f"{at}-dangling-{end}", update(end, "nowhere"), DanglingEdgeEndpoint,
                           f"{at}.{end}", f"edge {edge_id} references unknown node id nowhere")
    positions = [
        (section, i, j)
        for section in ("nodes", "edges")
        for i, element in enumerate(doc[section])
        for j in range(len(element["properties"]))
    ]
    for section, i, j in (positions[0], positions[len(positions) // 2], positions[-1]):
        at = f"$.{section}[{i}].properties[{j}]"

        def put(value, section=section, i=i, j=j):
            return lambda d: d[section][i]["properties"].__setitem__(j, value)

        def update(field, value=None, section=section, i=i, j=j):
            if value is None:
                return lambda d: d[section][i]["properties"][j].pop(field)
            return lambda d: d[section][i]["properties"][j].__setitem__(field, value)

        yield f"{at}-not-an-object", put("x"), FormatError, at, "expected an object, got str"
        yield (f"{at}-unknown-field", update("lang", "en"), FormatError, at,
               "unknown field(s): lang")
        for field in ("key", "value", "type"):
            yield (f"{at}-missing-{field}", update(field), FormatError, at,
                   f"missing required field {field!r}")
            yield (f"{at}-{field}-not-a-string", update(field, ["x"]), FormatError,
                   f"{at}.{field}", "expected a string, got list")
        yield (f"{at}-empty-type", update("type", ""), FormatError, f"{at}.type",
               "datatype may not be empty")
    for section in ("nodes", "edges"):
        yield (f"$.{section}-not-a-list", lambda d, section=section: d.__setitem__(section, {}),
               FormatError, f"$.{section}", "expected a list, got dict")


_BREAKAGES = list(_breakages())


@pytest.mark.parametrize(
    "mutate, error, path, message",
    [case[1:] for case in _BREAKAGES],
    ids=[case[0] for case in _BREAKAGES],
)
def test_parse_refuses_each_broken_element(mutate, error, path, message):
    doc = _converted_document()
    mutate(doc)
    with pytest.raises(error) as err:
        parse_pg(json.dumps(doc))
    assert type(err.value) is error
    assert getattr(err.value, "path", None) == path
    assert str(err.value) == (message if path is None else f"{path}: {message}")


def _relaid(doc: dict, rng: random.Random) -> str:
    """`doc` in another valid layout: elements and properties shuffled, every
    object's keys reversed, ids renamed, written compact."""
    def reversed_keys(obj: dict) -> dict:
        return dict(reversed(obj.items()))

    names = rng.sample(range(10**6), len(doc["nodes"]) + len(doc["edges"]))
    node_id = {n["id"]: f"v{names.pop()}" for n in doc["nodes"]}
    nodes, edges = [], []
    for section, out in (("nodes", nodes), ("edges", edges)):
        for element in doc[section]:
            element = dict(element, id=node_id[element["id"]] if section == "nodes"
                           else f"r{names.pop()}")
            if section == "edges":
                element["source"] = node_id[element["source"]]
                element["target"] = node_id[element["target"]]
            properties = [reversed_keys(p) for p in element["properties"]]
            rng.shuffle(properties)
            out.append(reversed_keys(dict(element, properties=properties)))
        rng.shuffle(out)
    return json.dumps({"nodes": nodes, "edges": edges}, separators=(",", ":"))


def test_any_valid_layout_reads_the_same():
    rng = random.Random(16)
    for seed in range(12):
        schema, graph = gen_rdf_database(GeneratorConfig(seed=seed))
        for pg in (dep.map_graph(graph), indep.map_graph(graph)):
            text = serialize_pg(pg)
            expected = parse_pg(text)
            assert parse_pg(_relaid(json.loads(text), rng)) == expected == pg, seed


def test_generated_graph_documents_roundtrip():
    for seed in range(60):
        graph = gen_property_graph(GeneratorConfig(seed=seed))
        text = serialize_pg(graph)
        parsed = parse_pg(text)
        assert parsed == graph, seed
        assert serialize_pg(parsed) == text, seed


# -- schema documents ---------------------------------------------------------------


def test_schema_roundtrip(company_pg_schema):
    text = serialize_pg_schema(company_pg_schema)
    assert parse_pg_schema(text) == company_pg_schema
    assert serialize_pg_schema(parse_pg_schema(text)) == text


def test_generic_schema_matches_golden_file():
    assert serialize_pg_schema(generic_schema()) == GOLDEN_GENERIC_SCHEMA.read_text()


def test_schema_rejects_unknown_property_type_reference():
    doc = {
        "nodeTypes": [{"id": "nt0", "label": "A", "propertyTypes": ["ptX"]}],
        "edgeTypes": [],
        "propertyTypes": [],
    }
    with pytest.raises(FormatError) as err:
        parse_pg_schema(json.dumps(doc))
    assert "ptX" in str(err.value)


def test_schema_rejects_shared_property_type():
    doc = {
        "nodeTypes": [
            {"id": "nt0", "label": "A", "propertyTypes": ["pt0"]},
            {"id": "nt1", "label": "B", "propertyTypes": ["pt0"]},
        ],
        "edgeTypes": [],
        "propertyTypes": [{"id": "pt0", "key": "k", "type": "String"}],
    }
    with pytest.raises(FormatError) as err:
        parse_pg_schema(json.dumps(doc))
    assert "more than one owner" in str(err.value)


def test_schema_rejects_orphan_property_type():
    doc = {
        "nodeTypes": [{"id": "nt0", "label": "A", "propertyTypes": []}],
        "edgeTypes": [],
        "propertyTypes": [{"id": "pt0", "key": "k", "type": "String"}],
    }
    with pytest.raises(FormatError) as err:
        parse_pg_schema(json.dumps(doc))
    assert "never referenced" in str(err.value)


def test_schema_rejects_duplicate_labels():
    doc = {
        "nodeTypes": [
            {"id": "nt0", "label": "A", "propertyTypes": []},
            {"id": "nt1", "label": "A", "propertyTypes": []},
        ],
        "edgeTypes": [],
        "propertyTypes": [],
    }
    with pytest.raises(FormatError):
        parse_pg_schema(json.dumps(doc))


def test_generated_schema_documents_roundtrip():
    for seed in range(60):
        schema = gen_pg_schema(GeneratorConfig(seed=seed))
        text = serialize_pg_schema(schema)
        parsed = parse_pg_schema(text)
        assert parsed == schema, seed
        assert serialize_pg_schema(parsed) == text, seed


# -- openCypher export ------------------------------------------------------------------


def test_export_company_statement_counts(company_pg):
    script = export_import_script(company_pg)
    lines = [line for line in script.splitlines() if line]
    creates = [line for line in lines if line.startswith("CREATE (")]
    matches = [line for line in lines if line.startswith("MATCH (")]
    assert len(creates) == 2
    assert len(matches) == 1
    assert all(line.endswith(";") for line in lines)


def test_export_empty_graph_is_empty():
    assert export_import_script(canonical_graph([], [])) == ""


def test_export_escapes_non_identifier_labels():
    node = Node("voc:Organisation Ltd.", (("weird key!", PgValue("it's", STRING)),))
    script = export_import_script(canonical_graph([node], []))
    assert "`voc:Organisation Ltd.`" in script
    assert "`weird key!`" in script
    assert "'it\\'s'" in script


def test_export_renders_numbers_and_booleans_bare(company_pg):
    script = export_import_script(company_pg)
    assert "age: 46" in script  # Integer lexical, unquoted
    assert "'2003-07-01'" in script  # Date stays quoted

    from rdfpg.pg_graph import BOOLEAN

    node = Node("T", (
        ("flag", PgValue("TRUE", BOOLEAN)),
        ("odd", PgValue("not a number", DOUBLE)),
        ("ratio", PgValue("1.5E2", DOUBLE)),
    ))
    script = export_import_script(canonical_graph([node], []))
    assert "flag: true" in script
    assert "ratio: 1.5E2" in script
    assert "odd: 'not a number'" in script


def _rendered(lexical, datatype):
    node = Node("T", (("v", PgValue(lexical, datatype)),))
    script = export_import_script(canonical_graph([node], []))
    prefix, suffix = "CREATE (:T {_rdfpg_id: 0, v: ", "});\n"
    assert script.startswith(prefix) and script.endswith(suffix), script
    return script[len(prefix):-len(suffix)]


@pytest.mark.parametrize("lexical, datatype, expected", [
    # No digit after the point: not an openCypher number literal.
    ("1.", DECIMAL, "'1.'"),
    ("1.", DOUBLE, "'1.'"),
    ("-1.e3", DOUBLE, "'-1.e3'"),
    ("+2.E-1", DECIMAL, "'+2.E-1'"),
    # An exponent may carry only a "-" sign.
    ("1E+5", DOUBLE, "'1E+5'"),
    ("1.5e+3", DECIMAL, "'1.5e+3'"),
    ("-2.0E+10", DOUBLE, "'-2.0E+10'"),
    # A leading zero makes an integer literal octal (010 is 8), so it is quoted.
    ("010", INTEGER, "'010'"),
    ("-007", INT, "'-007'"),
    ("00", INTEGER, "'00'"),
    ("010", DECIMAL, "'010'"),
    ("-007", DOUBLE, "'-007'"),
    ("00", DOUBLE, "'00'"),
    # Valid literals stay bare.
    ("0", INTEGER, "0"),
    ("-10", INT, "-10"),
    ("+5", INTEGER, "+5"),
    ("0", DOUBLE, "0"),
    ("10", DECIMAL, "10"),
    ("0.5", DECIMAL, "0.5"),
    ("-0.05", DECIMAL, "-0.05"),
    (".5", DOUBLE, ".5"),
    ("00.5", DECIMAL, "00.5"),
    ("1.5E2", DOUBLE, "1.5E2"),
    ("-9.0E-5", DOUBLE, "-9.0E-5"),
    ("010e3", DOUBLE, "010e3"),
    # Forms of no number at all are quoted, whatever the datatype says.
    ("1.5", INTEGER, "'1.5'"),
    ("", DECIMAL, "''"),
    ("1e", DOUBLE, "'1e'"),
], ids=str)
def test_export_numeric_literals(lexical, datatype, expected):
    assert _rendered(lexical, datatype) == expected


@pytest.mark.parametrize("lexical, datatype, expected", [
    # Integers: signed 64-bit.
    ("9223372036854775807", INTEGER, "9223372036854775807"),
    ("-9223372036854775808", INT, "-9223372036854775808"),
    ("9223372036854775808", INTEGER, "'9223372036854775808'"),
    ("-9223372036854775809", INT, "'-9223372036854775809'"),
    ("123456789012345678901234567890", INTEGER, "'123456789012345678901234567890'"),
    ("1" * 5000, INTEGER, "'" + "1" * 5000 + "'"),
    # Doubles: finite as a double.
    ("1e400", DOUBLE, "'1e400'"),
    ("-1.5E309", DOUBLE, "'-1.5E309'"),
    ("1.7976931348623157E308", DOUBLE, "1.7976931348623157E308"),
    # A Double written as an integer is read as one: it must fit and be exact.
    ("46", DOUBLE, "46"),
    ("9007199254740992", DOUBLE, "9007199254740992"),
    ("9007199254740993", DOUBLE, "'9007199254740993'"),
    ("9223372036854775807", DOUBLE, "'9223372036854775807'"),
    ("99999999999999999999", DOUBLE, "'99999999999999999999'"),
    ("3.14159265358979323846264338327950288", DOUBLE, "3.14159265358979323846264338327950288"),
    # Decimals: at most 15 significant digits, given back by a double.
    ("3.14159265358979323846264338327950288", DECIMAL,
     "'3.14159265358979323846264338327950288'"),
    ("1.23456789012345", DECIMAL, "1.23456789012345"),
    ("-0.001234567890123450", DECIMAL, "-0.001234567890123450"),
    ("1.234567890123456", DECIMAL, "'1.234567890123456'"),
    ("1e400", DECIMAL, "'1e400'"),
    ("1e-400", DECIMAL, "'1e-400'"),
], ids=str)
def test_export_numbers_keep_their_value(lexical, datatype, expected):
    assert _rendered(lexical, datatype) == expected


def test_export_pins_the_four_values_that_lost_their_meaning():
    properties = (
        ("big", PgValue("123456789012345678901234567890", INTEGER)),
        ("huge", PgValue("1e400", DOUBLE)),
        ("pi", PgValue("3.14159265358979323846264338327950288", DECIMAL)),
    )
    assert export_import_script(canonical_graph([Node("T", properties)], [])) == (
        "CREATE (:T {_rdfpg_id: 0, big: '123456789012345678901234567890', huge: '1e400', "
        "pi: '3.14159265358979323846264338327950288'});\n"
    )
    properties = (("_rdfpg_id", PgValue("7", INTEGER)), *properties)
    with pytest.raises(RdfPgError) as err:
        export_import_script(canonical_graph([Node("T", properties)], []))
    assert str(err.value) == (
        "node T{_rdfpg_id='7':Integer, big='123456789012345678901234567890':Integer, "
        "huge='1e400':Double, pi='3.14159265358979323846264338327950288':Decimal} "
        "holds a property keyed '_rdfpg_id', which the export reserves for its node ids"
    )


def test_export_refuses_the_dep_route_node_that_holds_the_id_key():
    pg = dep.map_graph(build_rdf_graph(parse_turtle('<http://ex.org/a> <_rdfpg_id> "7" .')))
    with pytest.raises(RdfPgError, match="holds a property keyed '_rdfpg_id'"):
        export_import_script(pg)


def test_export_refuses_an_element_with_two_values_for_one_key():
    twice = (("n", PgValue("46", STRING)), ("n", PgValue("47", INTEGER)))
    with pytest.raises(RdfPgError) as err:
        export_import_script(canonical_graph([Node("T", twice)], []))
    assert str(err.value) == (
        "node T{n='46':String, n='47':Integer} holds two values for 'n', "
        "and an openCypher map keeps one value per key"
    )
    nodes = [Node("A", ()), Node("B", ())]
    with pytest.raises(RdfPgError) as err:
        export_import_script(canonical_graph(nodes, [Edge("r", 0, 1, twice)]))
    assert str(err.value) == (
        "edge A --r--> B holds two values for 'n', "
        "and an openCypher map keeps one value per key"
    )
    once = (("m", PgValue("1", INTEGER)), ("n", PgValue("46", STRING)))
    assert export_import_script(canonical_graph(nodes, [Edge("r", 0, 1, once)])) == (
        "CREATE (:A {_rdfpg_id: 0});\nCREATE (:B {_rdfpg_id: 1});\n"
        "MATCH (a {_rdfpg_id: 0}), (b {_rdfpg_id: 1}) CREATE (a)-[:r {m: 1, n: '46'}]->(b);\n"
    )


def test_export_generated_numeric_lexicals_stay_bare():
    rng = random.Random(7)
    for xsd in (XSD_INTEGER, XSD_INT, XSD_DECIMAL, XSD_DOUBLE):
        datatype = PG_DATATYPE_OF[xsd]
        for _ in range(500):
            lexical = _lexical_for(rng, xsd)
            assert _rendered(lexical, datatype) == lexical


def test_export_is_deterministic(company_pg):
    assert export_import_script(company_pg) == export_import_script(build_company_pg())


def test_serialization_stable_across_processes():
    # hash-order bugs only show up across interpreter runs, so spawn two
    script = (
        "import hashlib\n"
        "from rdfpg.generator import GeneratorConfig, gen_property_graph, gen_pg_schema\n"
        "from rdfpg.pg_json import serialize_pg, serialize_pg_schema\n"
        "acc = hashlib.sha256()\n"
        "for seed in range(5):\n"
        "    acc.update(serialize_pg(gen_property_graph(GeneratorConfig(seed=seed))).encode())\n"
        "    acc.update(serialize_pg_schema(gen_pg_schema(GeneratorConfig(seed=seed))).encode())\n"
        "print(acc.hexdigest())\n"
    )
    import os
    import subprocess
    import sys

    digests = set()
    for hash_seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        digests.add(
            subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
        )
    assert len(digests) == 1
