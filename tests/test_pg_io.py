"""Property graph JSON documents and the openCypher export."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from conftest import build_company_pg

from rdfpg.cypher import export_import_script
from rdfpg.errors import DanglingEdgeEndpoint, FormatError
from rdfpg.generator import GeneratorConfig, _lexical_for, gen_pg_schema, gen_property_graph
from rdfpg.pg_graph import (
    DECIMAL,
    DOUBLE,
    INT,
    INTEGER,
    PgValue,
    PropertyGraphBuilder,
    STRING,
    pg_equal,
)
from rdfpg.pg_json import (
    parse_pg,
    parse_pg_schema,
    serialize_pg,
    serialize_pg_schema,
)
from rdfpg.schema_dependent import PG_DATATYPE_OF
from rdfpg.schema_independent import generic_schema
from rdfpg.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INT, XSD_INTEGER

GOLDEN_GENERIC_SCHEMA = Path(__file__).parent.parent / "docs" / "generic-pg-schema.json"


# -- instance documents -----------------------------------------------------------


def test_serialize_company_counts(company_pg):
    doc = json.loads(serialize_pg(company_pg))
    assert len(doc["nodes"]) == 2
    assert len(doc["edges"]) == 1
    n_properties = sum(len(r["properties"]) for r in doc["nodes"] + doc["edges"])
    assert n_properties == 5


def test_serialize_empty_graph():
    doc = json.loads(serialize_pg(PropertyGraphBuilder().build()))
    assert doc == {"nodes": [], "edges": []}


def test_serialize_is_byte_stable(company_pg):
    assert serialize_pg(company_pg) == serialize_pg(company_pg)


def test_serialize_is_canonical_across_construction_orders(company_pg):
    from rdfpg.pg_graph import DATE, INTEGER

    b = PropertyGraphBuilder()
    person = b.add_node("Person")
    b.add_property(person, "age", PgValue("46", INTEGER))
    b.add_property(person, "birthName", PgValue("Elon Musk", STRING))
    org = b.add_node("Organisation")
    b.add_property(org, "creation", PgValue("2003-07-01", DATE))
    b.add_property(org, "name", PgValue("Tesla, Inc.", STRING))
    e = b.add_edge("ceo", org, person)
    b.add_property(e, "since", PgValue("2003", DATE))
    scrambled = b.build()
    assert pg_equal(company_pg, scrambled)
    assert serialize_pg(company_pg) == serialize_pg(scrambled)


def test_values_stay_strings_in_json(company_pg):
    doc = json.loads(serialize_pg(company_pg))
    for record in doc["nodes"] + doc["edges"]:
        for prop in record["properties"]:
            assert isinstance(prop["value"], str)


def test_parse_roundtrip(company_pg):
    assert pg_equal(parse_pg(serialize_pg(company_pg)), company_pg)


def test_parse_rejects_missing_fields():
    with pytest.raises(FormatError) as err:
        parse_pg("{}")
    assert "nodes" in str(err.value)
    with pytest.raises(FormatError):
        parse_pg('{"nodes": [{"id": "n0"}], "edges": []}')
    with pytest.raises(FormatError):
        parse_pg("not json")


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
    assert str(err.value) == "edge e2 references unknown node id nX"


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


def test_generated_graph_documents_roundtrip():
    for seed in range(60):
        graph = gen_property_graph(GeneratorConfig(seed=seed))
        text = serialize_pg(graph)
        parsed = parse_pg(text)
        assert pg_equal(parsed, graph), seed
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
    assert export_import_script(PropertyGraphBuilder().build()) == ""


def test_export_escapes_non_identifier_labels():
    b = PropertyGraphBuilder()
    n = b.add_node("voc:Organisation Ltd.")
    b.add_property(n, "weird key!", PgValue("it's", STRING))
    script = export_import_script(b.build())
    assert "`voc:Organisation Ltd.`" in script
    assert "`weird key!`" in script
    assert "'it\\'s'" in script


def test_export_renders_numbers_and_booleans_bare(company_pg):
    script = export_import_script(company_pg)
    assert "age: 46" in script  # Integer lexical, unquoted
    assert "'2003-07-01'" in script  # Date stays quoted

    from rdfpg.pg_graph import BOOLEAN

    b = PropertyGraphBuilder()
    n = b.add_node("T")
    b.add_property(n, "flag", PgValue("TRUE", BOOLEAN))
    b.add_property(n, "ratio", PgValue("1.5E2", DOUBLE))
    b.add_property(n, "odd", PgValue("not a number", DOUBLE))
    script = export_import_script(b.build())
    assert "flag: true" in script
    assert "ratio: 1.5E2" in script
    assert "odd: 'not a number'" in script


def _rendered(lexical, datatype):
    b = PropertyGraphBuilder()
    b.add_property(b.add_node("T"), "v", PgValue(lexical, datatype))
    script = export_import_script(b.build())
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
