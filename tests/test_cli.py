"""Command-line interface: exit codes, file outputs, end-to-end trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rdfpg import cli
from rdfpg import schema_independent as indep
from rdfpg.cli import main
from rdfpg.pg_graph import PropertyGraphSchema
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import build_rdf_graph
from rdfpg.schema_independent import generic_schema
from rdfpg.terms import Iri, Literal, Triple, TripleSet, XSD_STRING
from rdfpg.turtle import parse_turtle

from conftest import DATA_DIR, build_company_pg, build_company_pg_schema

INSTANCE = str(DATA_DIR / "org-instance.ttl")
SCHEMA = str(DATA_DIR / "org-schema.ttl")


def test_convert_dep_writes_both_files(tmp_path, capsys):
    out_pg = tmp_path / "pg.json"
    out_pgs = tmp_path / "pgs.json"
    code = main([
        "convert", "--mode", "dep", "--rdf", INSTANCE, "--schema", SCHEMA,
        "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs),
    ])
    assert code == 0
    assert "valid" in capsys.readouterr().out
    pg = parse_pg(out_pg.read_text())
    pgs = parse_pg_schema(out_pgs.read_text())
    assert len(pg.nodes) == 2 and len(pg.edges) == 1
    assert len(pgs.node_types) == 2


def test_convert_indep_emits_generic_schema(tmp_path):
    out_pg = tmp_path / "pg.json"
    out_pgs = tmp_path / "pgs.json"
    code = main([
        "convert", "--mode", "indep", "--rdf", INSTANCE,
        "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs),
    ])
    assert code == 0
    assert parse_pg_schema(out_pgs.read_text()) == generic_schema()
    assert len(parse_pg(out_pg.read_text()).nodes) == 6


def test_convert_dep_requires_schema(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--mode", "dep", "--rdf", INSTANCE,
              "--out-pg", "x.json", "--out-pg-schema", "y.json"])
    assert exc.value.code == 2
    assert "requires --schema" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convert", "--mode", "indep", "--rdf", INSTANCE, "--schema", "absent.ttl",
          "--out-pg", "out.json", "--out-pg-schema", "outs.json"],
         "convert --mode indep takes no --schema"),
        (["invert", "--mode", "indep", "--pg", "pg.json",
          "--out-rdf", "back.ttl", "--out-rdf-schema", "back-schema.ttl"],
         "invert --mode indep takes no --out-rdf-schema"),
    ],
    ids=["convert-schema", "invert-out-rdf-schema"],
)
def test_indep_refuses_a_schema_option_it_would_ignore(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    main(["convert", "--mode", "indep", "--rdf", INSTANCE,
          "--out-pg", "pg.json", "--out-pg-schema", "pgs.json"])
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_convert_missing_file_exits_2(tmp_path, capsys):
    code = main([
        "convert", "--mode", "indep", "--rdf", str(tmp_path / "absent.ttl"),
        "--out-pg", str(tmp_path / "a.json"), "--out-pg-schema", str(tmp_path / "b.json"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_convert_invert_recovers_original_turtle(tmp_path):
    paths = {name: tmp_path / name for name in
             ("pg.json", "pgs.json", "back.ttl", "back-schema.ttl")}
    assert main([
        "convert", "--mode", "dep", "--rdf", INSTANCE, "--schema", SCHEMA,
        "--out-pg", str(paths["pg.json"]), "--out-pg-schema", str(paths["pgs.json"]),
    ]) == 0
    assert main([
        "invert", "--mode", "dep", "--pg", str(paths["pg.json"]),
        "--pg-schema", str(paths["pgs.json"]),
        "--out-rdf", str(paths["back.ttl"]),
        "--out-rdf-schema", str(paths["back-schema.ttl"]),
    ]) == 0
    original = parse_turtle(Path(INSTANCE).read_text(encoding="utf-8"))
    assert parse_turtle(paths["back.ttl"].read_text()) == original
    original_schema = parse_turtle(Path(SCHEMA).read_text(encoding="utf-8"))
    assert parse_turtle(paths["back-schema.ttl"].read_text()) == original_schema


def test_invert_indep_emits_instance_only(tmp_path):
    pg_path = tmp_path / "pg.json"
    pgs_path = tmp_path / "pgs.json"
    back = tmp_path / "back.ttl"
    main(["convert", "--mode", "indep", "--rdf", INSTANCE,
          "--out-pg", str(pg_path), "--out-pg-schema", str(pgs_path)])
    assert main(["invert", "--mode", "indep", "--pg", str(pg_path),
                 "--out-rdf", str(back)]) == 0
    original = parse_turtle(Path(INSTANCE).read_text(encoding="utf-8"))
    assert parse_turtle(back.read_text()) == original


def test_invert_empty_pg_gives_empty_turtle(tmp_path):
    pg_path = tmp_path / "pg.json"
    pg_path.write_text('{"nodes": [], "edges": []}\n')
    back = tmp_path / "back.ttl"
    assert main(["invert", "--mode", "indep", "--pg", str(pg_path),
                 "--out-rdf", str(back)]) == 0
    assert back.read_text() == ""


def test_invert_dep_missing_iri_property_exits_2(tmp_path, capsys):
    doc = {"nodes": [{"id": "n0", "label": "http://t.example/T", "properties": []}],
           "edges": []}
    pg_path = tmp_path / "pg.json"
    pg_path.write_text(json.dumps(doc))
    # The company schema as the dep route writes it: no edge property types.
    company = build_company_pg_schema()
    pg_schema = PropertyGraphSchema(
        company.node_types, tuple(et._replace(property_types=()) for et in company.edge_types)
    )
    pgs_path = tmp_path / "pgs.json"
    pgs_path.write_text(serialize_pg_schema(pg_schema))
    code = main(["invert", "--mode", "dep", "--pg", str(pg_path),
                 "--pg-schema", str(pgs_path),
                 "--out-rdf", str(tmp_path / "o.ttl"),
                 "--out-rdf-schema", str(tmp_path / "os.ttl")])
    assert code == 2
    assert "iri" in capsys.readouterr().err


def _invert_indep_with_iri(tmp_path, iri):
    """Runs `invert --mode indep` on one Resource node; returns (code, outputs)."""
    props = [{"key": "iri", "value": iri, "type": "String"},
             {"key": "type", "value": "http://ex.org/T", "type": "String"}]
    doc = {"nodes": [{"id": "n0", "label": "Resource", "properties": props}], "edges": []}
    pg_path = tmp_path / "pg.json"
    pg_path.write_text(json.dumps(doc))
    out = tmp_path / "o.ttl"
    code = main(["invert", "--mode", "indep", "--pg", str(pg_path), "--out-rdf", str(out)])
    return code, [out]


def _invert_dep_with(tmp_path, iri="http://ex.org/a", datatype="Date"):
    """Runs `invert --mode dep` on one node holding `iri` and a value of `datatype`."""
    props = [{"key": "iri", "value": iri, "type": "String"},
             {"key": "http://ex.org/when", "value": "2020", "type": datatype}]
    doc = {"nodes": [{"id": "n0", "label": "http://ex.org/T", "properties": props}],
           "edges": []}
    schema = {"nodeTypes": [{"id": "nt0", "label": "http://ex.org/T",
                             "propertyTypes": ["pt0"]}],
              "edgeTypes": [],
              "propertyTypes": [{"id": "pt0", "key": "http://ex.org/when", "type": datatype}]}
    pg_path = tmp_path / "pg.json"
    pg_path.write_text(json.dumps(doc))
    pgs_path = tmp_path / "pgs.json"
    pgs_path.write_text(json.dumps(schema))
    outs = [tmp_path / "o.ttl", tmp_path / "os.ttl"]
    code = main(["invert", "--mode", "dep", "--pg", str(pg_path), "--pg-schema", str(pgs_path),
                 "--out-rdf", str(outs[0]), "--out-rdf-schema", str(outs[1])])
    return code, outs


def test_invert_indep_whitespace_iri_exits_2(tmp_path, capsys):
    code, outs = _invert_indep_with_iri(tmp_path, "http://ex.org/a b")
    assert code == 2
    err = capsys.readouterr().err
    assert "node Resource{" in err and "'iri' value 'http://ex.org/a b'" in err
    assert not any(p.exists() for p in outs)


def test_invert_dep_whitespace_datatype_exits_2(tmp_path, capsys):
    code, outs = _invert_dep_with(tmp_path, datatype="Dat e")
    assert code == 2
    assert "carries datatype 'Dat e', which is not usable as an IRI" in capsys.readouterr().err
    assert not any(p.exists() for p in outs)


@pytest.mark.parametrize("kind", ["Integer", "String"])
def test_invert_dep_refuses_a_custom_datatype_spelled_as_an_xsd_iri(tmp_path, capsys, kind):
    # It would invert to the same literal as the kind name, which converts back to the kind.
    xsd = f"http://www.w3.org/2001/XMLSchema#{kind.lower()}"
    code, outs = _invert_dep_with(tmp_path, datatype=xsd)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {xsd} is a reserved vocabulary term and cannot name a custom datatype\n"
    )
    assert not any(p.exists() for p in outs)
    assert _invert_dep_with(tmp_path, datatype=kind)[0] == 0


# Characters RFC 3987 keeps out of IRIs besides whitespace.
FORBIDDEN_IRI_CHARS = list('<>"{}|^`\\')


@pytest.mark.parametrize("char", FORBIDDEN_IRI_CHARS)
def test_invert_indep_forbidden_iri_char_exits_2(tmp_path, capsys, char):
    value = f"http://ex.org/a{char}b"
    code, outs = _invert_indep_with_iri(tmp_path, value)
    assert code == 2
    err = capsys.readouterr().err
    assert "node Resource{" in err and f"carries 'iri' value {value!r}, which is not" in err
    assert not any(p.exists() for p in outs)


@pytest.mark.parametrize("char", FORBIDDEN_IRI_CHARS)
def test_invert_dep_forbidden_iri_char_exits_2(tmp_path, capsys, char):
    value = f"http://ex.org/a{char}b"
    code, outs = _invert_dep_with(tmp_path, iri=value)
    assert code == 2
    err = capsys.readouterr().err
    assert "node http://ex.org/T{" in err
    assert f"carries 'iri' value {value!r}, which is not usable as an IRI" in err
    assert not any(p.exists() for p in outs)

    code, outs = _invert_dep_with(tmp_path, datatype=value)
    assert code == 2
    # The schema is inverted first, so the property type is named.
    assert (f"property type 'http://ex.org/when' carries datatype {value!r}, "
            "which is not usable as an IRI") in capsys.readouterr().err
    assert not any(p.exists() for p in outs)


def test_invert_indep_class_conflict_exits_2(tmp_path, capsys):
    nodes = [
        {"id": f"n{i}", "label": "Resource",
         "properties": [{"key": "iri", "value": "http://ex.org/a", "type": "String"},
                        {"key": "type", "value": cls, "type": "String"}]}
        for i, cls in enumerate(("http://ex.org/T", "http://ex.org/U"))
    ]
    pg_path = tmp_path / "pg.json"
    pg_path.write_text(json.dumps({"nodes": nodes, "edges": []}))
    out = tmp_path / "o.ttl"
    code = main(["invert", "--mode", "indep", "--pg", str(pg_path), "--out-rdf", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert ("error: node Resource{iri='http://ex.org/a':String, type='http://ex.org/T':String} "
            "and node Resource{iri='http://ex.org/a':String, type='http://ex.org/U':String} "
            "give resource http://ex.org/a different classes") in err
    assert not out.exists()


def _indep_pg_doc(tmp_path):
    pg_path = tmp_path / "pg.json"
    assert main(["convert", "--mode", "indep", "--rdf", INSTANCE, "--out-pg", str(pg_path),
                 "--out-pg-schema", str(tmp_path / "generic.json")]) == 0
    return json.loads(pg_path.read_text())


def _duplicate_edge(doc):
    doc["edges"].append({**doc["edges"][0], "id": "e99"})


def _duplicate_resource_node(doc):
    node = next(n for n in doc["nodes"] if n["label"] == "Resource")
    doc["nodes"].append({**node, "id": "n99"})


def _drop_a_resource_type(doc):
    node = next(n for n in doc["nodes"] if n["label"] == "Resource")
    node["properties"] = [p for p in node["properties"] if p["key"] != "type"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_duplicate_edge, "--DatatypeProperty--> Literal repeats the edge before it"),
        (_duplicate_resource_node, "} repeats the node before it"),
        (_drop_a_resource_type, "is missing required property 'type'"),
    ],
    ids=["twin-edge", "twin-node", "no-type"],
)
def test_invert_indep_refuses_a_graph_no_conversion_produces(tmp_path, capsys, edit, message):
    doc = _indep_pg_doc(tmp_path)
    edit(doc)
    pg_path = tmp_path / "edited.json"
    pg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "o.ttl"
    code = main(["invert", "--mode", "indep", "--pg", str(pg_path), "--out-rdf", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _dep_pg_docs(tmp_path):
    pg_path, pgs_path = tmp_path / "pg.json", tmp_path / "pgs.json"
    assert main(["convert", "--mode", "dep", "--rdf", INSTANCE, "--schema", SCHEMA,
                 "--out-pg", str(pg_path), "--out-pg-schema", str(pgs_path)]) == 0
    return json.loads(pg_path.read_text()), pgs_path


def _duplicate_dep_node(doc):
    doc["nodes"].append({**doc["nodes"][0], "id": "n99"})


def _same_iri_fewer_properties(doc):
    node = doc["nodes"][0]
    iri = [p for p in node["properties"] if p["key"] == "iri"]
    doc["nodes"].append({**node, "id": "n99", "properties": iri})


def _second_creation_value(doc):
    doc["nodes"][0]["properties"].append(
        {"key": "http://www.example.org/voc/creation", "type": "Date", "value": "2004-01-01"})


@pytest.mark.parametrize(
    "edit, message",
    [
        (_duplicate_dep_node, "Tesla_Inc':String} repeats the node before it"),
        (_same_iri_fewer_properties,
         "node http://www.example.org/voc/Organisation{iri='http://www.example.org/data/Tesla_Inc'"
         ":String} holds the IRI of node http://www.example.org/voc/Organisation{"),
        (_duplicate_edge, "edge http://www.example.org/voc/Organisation "
                          "--http://www.example.org/voc/ceo--> http://www.example.org/voc/Person "
                          "repeats the edge before it"),
        (_second_creation_value, "holds two values for 'http://www.example.org/voc/creation'"),
    ],
    ids=["twin-node", "same-iri", "twin-edge", "second-value"],
)
def test_invert_dep_refuses_a_graph_no_conversion_produces(tmp_path, capsys, edit, message):
    doc, pgs_path = _dep_pg_docs(tmp_path)
    edit(doc)
    pg_path = tmp_path / "edited.json"
    pg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    outs = [tmp_path / "o.ttl", tmp_path / "os.ttl"]
    code = main(["invert", "--mode", "dep", "--pg", str(pg_path), "--pg-schema", str(pgs_path),
                 "--out-rdf", str(outs[0]), "--out-rdf-schema", str(outs[1])])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.rstrip().endswith(", which no conversion produces")
    assert not any(p.exists() for p in outs)


def test_invert_dep_class_conflict_exits_2(tmp_path, capsys):
    labels = ("http://ex.org/T", "http://ex.org/U")
    nodes = [
        {"id": f"n{i}", "label": label,
         "properties": [{"key": "iri", "value": "http://ex.org/a", "type": "String"}]}
        for i, label in enumerate(labels)
    ]
    schema = {"nodeTypes": [{"id": f"nt{i}", "label": label, "propertyTypes": []}
                            for i, label in enumerate(labels)],
              "edgeTypes": [], "propertyTypes": []}
    pg_path = tmp_path / "pg.json"
    pg_path.write_text(json.dumps({"nodes": nodes, "edges": []}))
    pgs_path = tmp_path / "pgs.json"
    pgs_path.write_text(json.dumps(schema))
    outs = [tmp_path / "o.ttl", tmp_path / "os.ttl"]
    code = main(["invert", "--mode", "dep", "--pg", str(pg_path), "--pg-schema", str(pgs_path),
                 "--out-rdf", str(outs[0]), "--out-rdf-schema", str(outs[1])])
    assert code == 2
    err = capsys.readouterr().err
    assert ("error: node http://ex.org/T{iri='http://ex.org/a':String} "
            "and node http://ex.org/U{iri='http://ex.org/a':String} "
            "give resource http://ex.org/a different classes") in err
    assert not any(p.exists() for p in outs)


VOC = "http://www.example.org/voc/"


def _since_on_ceo(schema):
    schema["propertyTypes"].append({"id": "pt-since", "key": VOC + "since", "type": "Date"})
    schema["edgeTypes"][0]["propertyTypes"] = ["pt-since"]


def _name_as_edge_label(schema):
    schema["edgeTypes"][0]["label"] = VOC + "name"


def _invert_dep_files(tmp_path, pg_path, pgs_path):
    """Runs `invert --mode dep`; returns (code, outputs)."""
    outs = [tmp_path / "o.ttl", tmp_path / "os.ttl"]
    code = main(["invert", "--mode", "dep", "--pg", str(pg_path), "--pg-schema", str(pgs_path),
                 "--out-rdf", str(outs[0]), "--out-rdf-schema", str(outs[1])])
    return code, outs


@pytest.mark.parametrize(
    "edit, message",
    [
        (_since_on_ceo, f"error: edge type '{VOC}ceo' has property types"),
        (_name_as_edge_label, f"error: edge type '{VOC}name' reuses the IRI of an earlier type"),
    ],
    ids=["edge-property-type", "key-as-edge-label"],
)
def test_invert_dep_refuses_a_schema_no_conversion_produces(tmp_path, capsys, edit, message):
    _, pgs_path = _dep_pg_docs(tmp_path)
    schema = json.loads(pgs_path.read_text())
    edit(schema)
    edited = tmp_path / "edited-schema.json"
    edited.write_text(json.dumps(schema))
    capsys.readouterr()
    code, outs = _invert_dep_files(tmp_path, tmp_path / "pg.json", edited)
    assert code == 2
    assert capsys.readouterr().err == f"{message}, which no conversion produces\n"
    assert not any(p.exists() for p in outs)


REDEFINED = "warning: {}: prefix 'p:' redefined from <http://one.example/> to <http://two.example/>\n"


@pytest.mark.parametrize("command, warned", [
    (["convert", "--mode", "indep", "--rdf", "{i}"], "i"),
    (["convert", "--mode", "dep", "--rdf", "{i}", "--schema", "{s}"], "is"),
    (["validate", "rdf", "--rdf", "{i}", "--schema", "{s}"], "si"),
], ids=["convert-indep", "convert-dep", "validate-rdf"])
def test_turtle_warnings_are_one_line_each(tmp_path, capsys, command, warned):
    # Each document binds p: twice; the reader's warning reaches stderr as a
    # "warning:" line that names the file, once per document, without
    # Python's source line.
    rebind = "@prefix p: <http://one.example/> .\n@prefix p: <http://two.example/> .\n"
    (tmp_path / "i.ttl").write_text(rebind + "p:a a p:C .\n")
    (tmp_path / "s.ttl").write_text(rebind + "p:C a <http://www.w3.org/2000/01/rdf-schema#Class> .\n")
    argv = [arg.format(i=tmp_path / "i.ttl", s=tmp_path / "s.ttl") for arg in command]
    if argv[0] == "convert":
        argv += ["--out-pg", str(tmp_path / "pg.json"), "--out-pg-schema", str(tmp_path / "pgs.json")]
    assert main(argv) == 0
    assert capsys.readouterr().err == "".join(
        REDEFINED.format(tmp_path / f"{name}.ttl") for name in warned
    )


@pytest.mark.parametrize("broken", ["rdf", "schema"])
def test_turtle_errors_name_their_file(tmp_path, capsys, broken):
    # convert --mode dep reads two Turtle files; the error names the broken one.
    paths = {"rdf": tmp_path / "i.ttl", "schema": tmp_path / "s.ttl"}
    paths["rdf"].write_text("<http://ex.org/a> a <http://ex.org/C> .\n")
    paths["schema"].write_text("<http://ex.org/C> a <http://www.w3.org/2000/01/rdf-schema#Class> .\n")
    paths[broken].write_text(paths[broken].read_text() + "%\n")
    outs = [tmp_path / "pg.json", tmp_path / "pgs.json"]
    code = main(["convert", "--mode", "dep", "--rdf", str(paths["rdf"]),
                 "--schema", str(paths["schema"]),
                 "--out-pg", str(outs[0]), "--out-pg-schema", str(outs[1])])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {paths[broken]}: line 2, column 1: expected an IRI, prefixed name or keyword, "
        "found '%'\n"
    )
    assert not any(p.exists() for p in outs)


@pytest.mark.parametrize("command, data, where", [
    (["convert", "--mode", "indep", "--rdf", "{bad}", "--out-pg", "{o}", "--out-pg-schema", "{os}"],
     b'@prefix ex: <http://ex.org/> .\r\nex:a ex:p "caf\xc3\xa9 \xff" .\n',
     "line 2, column 17: byte 0xff is not UTF-8"),
    (["invert", "--mode", "indep", "--pg", "{bad}", "--out-rdf", "{o}"],
     b'{"nodes": [],\r\n "edges": [{"id": "\xc3\xa9\xfe"}]}',
     "line 2, column 21: byte 0xfe is not UTF-8"),
], ids=["turtle", "pg"])
def test_undecodable_bytes_name_their_file_line_and_column(tmp_path, capsys, command, data, where):
    # The column counts code points, and a CRLF line ending is one line break.
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    paths = {"bad": bad, "o": tmp_path / "o", "os": tmp_path / "os"}
    assert main([arg.format(**paths) for arg in command]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {where}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bad"]


def test_invert_pg_errors_name_their_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": 1}')
    out = tmp_path / "o.ttl"
    assert main(["invert", "--mode", "indep", "--pg", str(bad), "--out-rdf", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: $.nodes: expected a list, got int\n"
    assert not out.exists()


@pytest.mark.parametrize("command, deep", [
    (["invert", "--mode", "dep", "--pg", "{deep}", "--pg-schema", "{pgs}",
      "--out-rdf", "{o}", "--out-rdf-schema", "{os}"], "pg"),
    (["invert", "--mode", "dep", "--pg", "{pg}", "--pg-schema", "{deep}",
      "--out-rdf", "{o}", "--out-rdf-schema", "{os}"], "pg-schema"),
    (["invert", "--mode", "indep", "--pg", "{deep}", "--out-rdf", "{o}"], "pg"),
    (["validate", "pg", "--pg", "{deep}", "--pg-schema", "{pgs}"], "pg"),
    (["validate", "pg", "--pg", "{pg}", "--pg-schema", "{deep}"], "pg-schema"),
], ids=["invert-dep-pg", "invert-dep-pg-schema", "invert-indep-pg", "validate-pg",
        "validate-pg-schema"])
def test_deeply_nested_pg_input_exits_2_naming_its_file(tmp_path, capsys, command, deep):
    doc, pgs_path = _dep_pg_docs(tmp_path)
    deep_path = tmp_path / "deep.json"
    deep_path.write_text("[" * 200_000)
    paths = {"deep": deep_path, "pg": tmp_path / "pg.json", "pgs": pgs_path,
             "o": tmp_path / "o.ttl", "os": tmp_path / "os.ttl"}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 2
    assert capsys.readouterr().err == (
        f"error: {deep_path}: $: arrays or objects nested too deeply to read\n"
    )
    assert not paths["o"].exists() and not paths["os"].exists()


def test_pg_inputs_may_start_with_a_byte_order_mark(tmp_path, capsys):
    _dep_pg_docs(tmp_path)
    assert main(["convert", "--mode", "indep", "--rdf", INSTANCE, "--out-pg",
                 str(tmp_path / "ipg.json"), "--out-pg-schema", str(tmp_path / "generic.json")]) == 0
    for name in ("pg.json", "pgs.json", "ipg.json"):
        (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
    for prefix in ("", "bom-"):
        pg, pgs, ipg, o, os_, i = (str(tmp_path / (prefix + name)) for name in (
            "pg.json", "pgs.json", "ipg.json", "o.ttl", "os.ttl", "i.ttl"))
        assert main(["invert", "--mode", "dep", "--pg", pg, "--pg-schema", pgs,
                     "--out-rdf", o, "--out-rdf-schema", os_]) == 0
        assert main(["invert", "--mode", "indep", "--pg", ipg, "--out-rdf", i]) == 0
        assert main(["validate", "pg", "--pg", pg, "--pg-schema", pgs]) == 0
    for name in ("o.ttl", "os.ttl", "i.ttl"):
        assert (tmp_path / f"bom-{name}").read_bytes() == (tmp_path / name).read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [
    ["convert", "--mode", "indep", "--rdf", "{blank}", "--out-pg", "{o}", "--out-pg-schema", "{os}"],
    ["validate", "rdf", "--rdf", "{blank}", "--schema", SCHEMA],
], ids=["convert", "validate-rdf"])
def test_blank_node_error_names_the_skolemize_flag(tmp_path, capsys, command):
    blank = tmp_path / "blank.ttl"
    blank.write_text('@prefix voc: <http://www.example.org/voc/> .\n_:b voc:p "x" .\n')
    paths = {"blank": blank, "o": tmp_path / "o.json", "os": tmp_path / "os.json"}
    assert main([arg.format(**paths) for arg in command]) == 2
    assert capsys.readouterr().err == (
        f"error: {blank}: line 2, column 1: blank nodes are not supported; "
        "rdfpg convert --skolemize replaces them with IRIs\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["blank.ttl"]


def test_invert_dep_edges_that_differ_only_in_properties(tmp_path, capsys):
    # Both edges become one triple: invalid against the produced schema, and
    # a schema that declares their property is one no conversion produces.
    doc, pgs_path = _dep_pg_docs(tmp_path)
    (edge,) = doc["edges"]
    doc["edges"] = [
        {**edge, "id": f"e{i}", "properties": [{"key": VOC + "since", "type": "Date",
                                                "value": value}]}
        for i, value in enumerate(("2008-10-01", "2009-01-01"))
    ]
    pg_path = tmp_path / "edited.json"
    pg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code, outs = _invert_dep_files(tmp_path, pg_path, pgs_path)
    assert code == 1
    out, err = capsys.readouterr()
    assert "input validation: invalid: 2 violation(s)\n  [P2b] " in out
    assert err == "warning: 2 edge properties have no RDF counterpart and were dropped\n"
    assert all(p.exists() for p in outs)

    schema = json.loads(pgs_path.read_text())
    _since_on_ceo(schema)
    pgs_path.write_text(json.dumps(schema))
    for p in outs:
        p.unlink()
    code, outs = _invert_dep_files(tmp_path, pg_path, pgs_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: edge type '{VOC}ceo' has property types, which no conversion produces\n"
    assert not any(p.exists() for p in outs)


def test_convert_dep_invalid_input_exits_1_with_outputs(tmp_path, capsys):
    mutated = tmp_path / "bad.ttl"
    mutated.write_text(
        Path(INSTANCE).read_text(encoding="utf-8").replace("voc:Organisation", "voc:Company")
    )
    outs = [tmp_path / "pg.json", tmp_path / "pgs.json"]
    assert main(["convert", "--mode", "dep", "--rdf", str(mutated), "--schema", SCHEMA,
                 "--out-pg", str(outs[0]), "--out-pg-schema", str(outs[1])]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"wrote {outs[0]} and {outs[1]}\n"
                          "input validation: invalid: 4 violation(s)\n  [R1] ")
    assert all(p.exists() for p in outs)


_RDFS = "<http://www.w3.org/2000/01/rdf-schema#"
_UNPLACED = {
    # A resource classed with a datatype: no node type can hold it.
    "excluded-class": (
        f"<http://ex.org/p> {_RDFS}domain> <http://ex.org/A> ;"
        f" {_RDFS}range> <http://www.w3.org/2001/XMLSchema#int> .\n",
        "<http://ex.org/a> a <http://www.w3.org/2001/XMLSchema#int> .\n",
        "warning: 1 resource(s) are classed with datatype or vocabulary IRIs"
        " (e.g. http://ex.org/a) and will not match any node type\n",
    ),
    # A literal of a datatype that is not supported: its property is an edge type.
    "unsupported-datatype": (
        f"<http://ex.org/p> {_RDFS}domain> <http://ex.org/A> ; {_RDFS}range> <http://ex.org/dt> .\n"
        f"<http://ex.org/dt> a {_RDFS}Class> .\n",
        '<http://ex.org/a> a <http://ex.org/A> ; <http://ex.org/p> "x"^^<http://ex.org/dt> .\n',
        "warning: 1 property has values of a datatype that is not supported"
        " (e.g. http://ex.org/p) and will not match any property type\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNPLACED))
def test_convert_dep_unplaced_elements_exit_1_with_outputs(tmp_path, capsys, case):
    schema_text, instance_text, warning = _UNPLACED[case]
    (tmp_path / "s.ttl").write_text(schema_text)
    (tmp_path / "i.ttl").write_text(instance_text)
    outs = [tmp_path / "pg.json", tmp_path / "pgs.json"]
    code = main(["convert", "--mode", "dep", "--rdf", str(tmp_path / "i.ttl"),
                 "--schema", str(tmp_path / "s.ttl"),
                 "--out-pg", str(outs[0]), "--out-pg-schema", str(outs[1])])
    assert code == 1
    assert capsys.readouterr().out == (
        f"wrote {outs[0]} and {outs[1]}\ninput validation: valid\n" + warning
    )
    assert all(p.exists() for p in outs)
    # the outputs fail their own schema, as the warning says
    assert main(["validate", "pg", "--pg", str(outs[0]), "--pg-schema", str(outs[1])]) == 1


_REFUSED = {
    # A custom datatype spelled like a kind name would invert to xsd:integer.
    "kind-named-datatype": (
        f"<http://ex.org/p> {_RDFS}domain> <http://ex.org/A> ; {_RDFS}range> <Integer> .\n"
        f"<Integer> a {_RDFS}Class> .\n",
        '<http://ex.org/a> a <http://ex.org/A> ; <http://ex.org/p> "5"^^<Integer> .\n',
        "error: Integer is a reserved vocabulary term and cannot name a custom datatype\n",
    ),
    # A datatype property spelled "iri" would give the node a second "iri" property.
    "iri-property": (
        f"<http://ex.org/C> a {_RDFS}Class> .\n"
        f"<iri> {_RDFS}domain> <http://ex.org/C> ;"
        f" {_RDFS}range> <http://www.w3.org/2001/XMLSchema#string> .\n",
        '<http://ex.org/a> a <http://ex.org/C> ; <iri> "http://ex.org/b" .\n',
        "error: iri is a reserved vocabulary term and cannot name a datatype property\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_convert_dep_refuses_reserved_spellings_without_output(tmp_path, capsys, case):
    schema_text, instance_text, error = _REFUSED[case]
    (tmp_path / "s.ttl").write_text(schema_text)
    (tmp_path / "i.ttl").write_text(instance_text)
    outs = [tmp_path / "pg.json", tmp_path / "pgs.json"]
    code = main(["convert", "--mode", "dep", "--rdf", str(tmp_path / "i.ttl"),
                 "--schema", str(tmp_path / "s.ttl"),
                 "--out-pg", str(outs[0]), "--out-pg-schema", str(outs[1])])
    assert code == 2
    assert capsys.readouterr().err == error
    assert not any(p.exists() for p in outs)


# One node whose label the schema does not declare, with an Integer property.
_OFF_SCHEMA_PG = {
    "nodes": [{"id": "n0", "label": "http://ex.org/X",
               "properties": [{"key": "iri", "value": "http://ex.org/a", "type": "String"},
                              {"key": "http://ex.org/p", "value": "5", "type": "Integer"}]}],
    "edges": [],
}
_T_SCHEMA = {
    "nodeTypes": [{"id": "nt0", "label": "http://ex.org/T", "propertyTypes": ["pt0"]}],
    "edgeTypes": [],
    "propertyTypes": [{"id": "pt0", "key": "http://ex.org/p", "type": "Integer"}],
}


def test_invert_dep_nonconforming_graph_exits_1_with_outputs(tmp_path, capsys):
    pg_path = tmp_path / "pg.json"
    pg_path.write_text(json.dumps(_OFF_SCHEMA_PG))
    pgs_path = tmp_path / "pgs.json"
    pgs_path.write_text(json.dumps(_T_SCHEMA))
    outs = [tmp_path / "o.ttl", tmp_path / "os.ttl"]
    code = main(["invert", "--mode", "dep", "--pg", str(pg_path), "--pg-schema", str(pgs_path),
                 "--out-rdf", str(outs[0]), "--out-rdf-schema", str(outs[1])])
    assert code == 1
    out = capsys.readouterr().out
    assert "input validation: invalid: 1 violation(s)\n" in out
    assert ("  [P1a] node http://ex.org/X{http://ex.org/p='5':Integer, "
            "iri='http://ex.org/a':String}: no node type labeled 'http://ex.org/X'\n") in out
    assert all(p.exists() for p in outs)


def test_invert_indep_rejects_a_pg_schema_other_than_the_generic_one(tmp_path, capsys):
    paths = {name: tmp_path / name for name in
             ("pg.json", "generic.json", "dep-pg.json", "dep-pgs.json", "back.ttl")}
    assert main(["convert", "--mode", "indep", "--rdf", INSTANCE, "--out-pg", str(paths["pg.json"]),
                 "--out-pg-schema", str(paths["generic.json"])]) == 0
    assert main(["convert", "--mode", "dep", "--rdf", INSTANCE, "--schema", SCHEMA,
                 "--out-pg", str(paths["dep-pg.json"]),
                 "--out-pg-schema", str(paths["dep-pgs.json"])]) == 0
    capsys.readouterr()
    invert = ["invert", "--mode", "indep", "--pg", str(paths["pg.json"]),
              "--out-rdf", str(paths["back.ttl"]), "--pg-schema"]
    assert main([*invert, str(paths["dep-pgs.json"])]) == 2
    assert ("error: PG schema is not the generic schema: its node type 'Literal' differs"
            in capsys.readouterr().err)
    assert not paths["back.ttl"].exists()
    assert main([*invert, str(paths["generic.json"])]) == 0
    assert paths["back.ttl"].exists()


def test_validate_rdf_valid_exit_0(capsys):
    assert main(["validate", "rdf", "--rdf", INSTANCE, "--schema", SCHEMA]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_rdf_invalid_exit_1(tmp_path, capsys):
    mutated = tmp_path / "bad.ttl"
    mutated.write_text(
        Path(INSTANCE).read_text(encoding="utf-8").replace("voc:Organisation", "voc:Company")
    )
    assert main(["validate", "rdf", "--rdf", str(mutated), "--schema", SCHEMA]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "R1" in out


def test_validate_pg_files(tmp_path):
    pg_path = tmp_path / "pg.json"
    pgs_path = tmp_path / "pgs.json"
    pg_path.write_text(serialize_pg(build_company_pg()))
    pgs_path.write_text(serialize_pg_schema(build_company_pg_schema()))
    assert main(["validate", "pg", "--pg", str(pg_path), "--pg-schema", str(pgs_path)]) == 0


def test_validate_requires_matching_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "rdf", "--rdf", INSTANCE])
    assert exc.value.code == 2


def test_roundtrip_dep_small(capsys):
    assert main(["roundtrip", "--mode", "dep", "--seed", "7", "--count", "25"]) == 0
    assert "25/25" in capsys.readouterr().out


def test_roundtrip_indep_single(capsys):
    assert main(["roundtrip", "--mode", "indep", "--count", "1"]) == 0
    assert "1/1" in capsys.readouterr().out


def test_roundtrip_zero_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roundtrip", "--mode", "dep", "--count", "0"])
    assert exc.value.code == 2


def test_convert_output_is_deterministic(tmp_path):
    outputs = []
    for run in ("one", "two"):
        out_pg = tmp_path / f"pg-{run}.json"
        out_pgs = tmp_path / f"pgs-{run}.json"
        assert main(["convert", "--mode", "dep", "--rdf", INSTANCE, "--schema", SCHEMA,
                     "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)]) == 0
        outputs.append((out_pg.read_bytes(), out_pgs.read_bytes()))
    assert outputs[0] == outputs[1]


def test_convert_skolemize_flag(tmp_path):
    blanky = tmp_path / "blank.ttl"
    blanky.write_text('@prefix voc: <http://www.example.org/voc/> .\n'
                      '_:b0 voc:p "x" .\n')
    out_pg = tmp_path / "pg.json"
    out_pgs = tmp_path / "pgs.json"
    code = main(["convert", "--mode", "indep", "--rdf", str(blanky), "--skolemize",
                 "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)])
    assert code == 0
    assert "urn:skolem:0" in out_pg.read_text()
    # without the flag the same file is rejected
    assert main(["convert", "--mode", "indep", "--rdf", str(blanky),
                 "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)]) == 2


def test_convert_first_type_flag(tmp_path):
    doubled = tmp_path / "two-types.ttl"
    doubled.write_text('@prefix voc: <http://www.example.org/voc/> .\n'
                       '@prefix ex: <http://www.example.org/data/> .\n'
                       'ex:a a voc:B , voc:A .\n')
    out_pg = tmp_path / "pg.json"
    out_pgs = tmp_path / "pgs.json"
    assert main(["convert", "--mode", "indep", "--rdf", str(doubled),
                 "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)]) == 2
    assert main(["convert", "--mode", "indep", "--rdf", str(doubled),
                 "--first-type", "lexicographic",
                 "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)]) == 0
    assert "voc/A" in out_pg.read_text()


# -- output files are all-or-nothing ---------------------------------------------


def _surrogate_pg_json() -> str:
    """PG JSON, ASCII-escaped, whose literal value holds a lone surrogate.

    The escape is valid JSON, but no UTF-8 output could hold the string, so
    the reader rejects it at its JSON path.
    """
    literal = Literal("x\ud800y", XSD_STRING)
    triple = Triple(Iri("http://ex.org/a"), Iri("http://ex.org/p"), literal)
    _, pg = indep.map_database(build_rdf_graph(TripleSet([triple])))
    return json.dumps(json.loads(serialize_pg(pg)))


def test_convert_surrogate_escape_exits_2_without_output(tmp_path, capsys):
    rdf = tmp_path / "in.ttl"
    rdf.write_text('<http://ex.org/a> <http://ex.org/p> "x\\uD800y" .\n')
    out_pg = tmp_path / "pg.json"
    out_pgs = tmp_path / "pgs.json"
    out_pgs.write_text("keep me")
    code = main(["convert", "--mode", "indep", "--rdf", str(rdf),
                 "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)])
    assert code == 2
    assert "line 1, column 39" in capsys.readouterr().err
    assert not out_pg.exists()
    assert out_pgs.read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ttl", "pgs.json"]


def test_convert_serialize_failure_writes_nothing(tmp_path, monkeypatch):
    def broken(_schema):
        raise ValueError("cannot serialize")

    monkeypatch.setattr(cli, "serialize_pg_schema", broken)
    out_pg = tmp_path / "pg.json"
    out_pgs = tmp_path / "pgs.json"
    out_pg.write_text("old graph")
    code = main(["convert", "--mode", "indep", "--rdf", INSTANCE,
                 "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)])
    assert code == 2
    assert out_pg.read_text() == "old graph"
    assert not out_pgs.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pg.json"]


def test_convert_failure_midway_through_a_write_keeps_outputs(tmp_path, monkeypatch):
    def fails_midway(graph, out):
        text = serialize_pg(graph)
        out.write(text[: len(text) // 2])
        raise ValueError("cannot serialize the rest")

    monkeypatch.setattr(cli, "serialize_pg", fails_midway)
    out_pg = tmp_path / "pg.json"
    out_pgs = tmp_path / "pgs.json"
    out_pg.write_text("old graph")
    code = main(["convert", "--mode", "indep", "--rdf", INSTANCE,
                 "--out-pg", str(out_pg), "--out-pg-schema", str(out_pgs)])
    assert code == 2
    assert out_pg.read_text() == "old graph"
    assert not out_pgs.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pg.json"]


def test_convert_unwritable_second_output_keeps_first(tmp_path):
    out_pg = tmp_path / "pg.json"
    out_pg.write_text("old graph")
    code = main(["convert", "--mode", "indep", "--rdf", INSTANCE,
                 "--out-pg", str(out_pg),
                 "--out-pg-schema", str(tmp_path / "missing-dir" / "pgs.json")])
    assert code == 2
    assert out_pg.read_text() == "old graph"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pg.json"]


@pytest.mark.parametrize("command", [
    ["convert", "--mode", "dep", "--rdf", INSTANCE, "--schema", SCHEMA,
     "--out-pg", "{same}", "--out-pg-schema", "{also}"],
    ["invert", "--mode", "dep", "--pg", "{pg}", "--pg-schema", "{pgs}",
     "--out-rdf", "{same}", "--out-rdf-schema", "{also}"],
], ids=["convert", "invert"])
def test_two_outputs_on_one_file_are_refused(tmp_path, capsys, command):
    _, pgs_path = _dep_pg_docs(tmp_path)
    same = tmp_path / "same.out"
    paths = {"pg": tmp_path / "pg.json", "pgs": pgs_path, "same": same}
    (tmp_path / "link").symlink_to(tmp_path)
    for also in (same, f"{tmp_path}/./same.out", tmp_path / "link" / "same.out"):
        capsys.readouterr()
        assert main([arg.format(also=also, **paths) for arg in command]) == 2
        assert capsys.readouterr().err == (
            f"error: {same}: given for two outputs; each output needs its own file\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "pg.json", "pgs.json"]


def test_an_output_may_replace_an_input(tmp_path):
    _, pgs_path = _dep_pg_docs(tmp_path)
    pg_path = tmp_path / "pg.json"
    back = tmp_path / "back.ttl"
    assert main(["invert", "--mode", "dep", "--pg", str(pg_path), "--pg-schema", str(pgs_path),
                 "--out-rdf", str(back), "--out-rdf-schema", str(tmp_path / "bs.ttl")]) == 0
    assert main(["invert", "--mode", "dep", "--pg", str(pg_path), "--pg-schema", str(pgs_path),
                 "--out-rdf", str(pg_path), "--out-rdf-schema", str(tmp_path / "bs.ttl")]) == 0
    assert pg_path.read_bytes() == back.read_bytes()


def test_invert_unencodable_output_writes_nothing(tmp_path, capsys):
    pg_path = tmp_path / "pg.json"
    pg_path.write_text(_surrogate_pg_json())
    fresh = tmp_path / "fresh.ttl"
    code = main(["invert", "--mode", "indep", "--pg", str(pg_path), "--out-rdf", str(fresh)])
    assert code == 2
    assert "$.nodes[0].properties[1].value: lone surrogate U+D800" in capsys.readouterr().err
    assert not fresh.exists()
    existing = tmp_path / "existing.ttl"
    existing.write_text("old turtle")
    code = main(["invert", "--mode", "indep", "--pg", str(pg_path), "--out-rdf", str(existing)])
    assert code == 2
    assert existing.read_text() == "old turtle"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.ttl", "pg.json"]


_RDFS_RESOURCE = "<http://www.w3.org/2000/01/rdf-schema#Resource>"


def _convert_then_invert(tmp_path, mode, instance, schema=None):
    """Write `instance` (and `schema`), convert and invert them; return the Turtle written back."""
    rdf = tmp_path / "in.ttl"
    rdf.write_text(instance)
    paths = {name: str(tmp_path / name) for name in ("pg.json", "pgs.json", "out.ttl", "outs.ttl")}
    convert = ["convert", "--mode", mode, "--rdf", str(rdf),
               "--out-pg", paths["pg.json"], "--out-pg-schema", paths["pgs.json"]]
    invert = ["invert", "--mode", mode, "--pg", paths["pg.json"], "--out-rdf", paths["out.ttl"]]
    if schema is not None:
        (tmp_path / "schema.ttl").write_text(schema)
        convert += ["--schema", str(tmp_path / "schema.ttl")]
        invert += ["--pg-schema", paths["pgs.json"], "--out-rdf-schema", paths["outs.ttl"]]
    assert main(convert) == 0
    assert main(invert) == 0
    return parse_turtle((tmp_path / "out.ttl").read_text())


def test_invert_indep_keeps_a_resource_that_no_edge_mentions(tmp_path):
    instance = (f"<http://e.x/b> a {_RDFS_RESOURCE} .\n"
                '<http://e.x/a> <http://e.x/p> "x" .\n')
    assert _convert_then_invert(tmp_path, "indep", instance) == parse_turtle(instance)


def test_invert_dep_keeps_a_resource_that_no_edge_mentions(tmp_path, capsys):
    instance = f"<http://e.x/b> a {_RDFS_RESOURCE} .\n"
    schema = "<http://e.x/p> a <http://www.w3.org/1999/02/22-rdf-syntax-ns#Property> .\n"
    assert _convert_then_invert(tmp_path, "dep", instance, schema) == parse_turtle(instance)
    assert capsys.readouterr().out.count("input validation: valid\n") == 2


def test_invert_refuses_a_literal_on_no_edge(tmp_path, capsys):
    doc = _indep_pg_doc(tmp_path)
    doc["nodes"].append({"id": "n99", "label": "Literal", "properties": [
        {"key": "type", "type": "String", "value": "http://www.w3.org/2001/XMLSchema#string"},
        {"key": "value", "type": "String", "value": "alone"},
    ]})
    pg_path = tmp_path / "edited.json"
    pg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "o.ttl"
    assert main(["invert", "--mode", "indep", "--pg", str(pg_path), "--out-rdf", str(out)]) == 2
    assert capsys.readouterr().err == (
        f'error: {pg_path}: literal "alone"^^http://www.w3.org/2001/XMLSchema#string '
        "is on no edge, so Turtle cannot hold it\n"
    )
    assert not out.exists()


def test_two_outputs_on_one_file_are_refused_before_any_input_is_read(tmp_path, capsys):
    same = tmp_path / "same.json"
    assert main(["convert", "--mode", "indep", "--rdf", str(tmp_path / "absent.ttl"),
                 "--out-pg", str(same), "--out-pg-schema", str(same)]) == 2
    assert capsys.readouterr().err == (
        f"error: {same}: given for two outputs; each output needs its own file\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["invert", "--mode", "dep", "--pg", "pg.json", "--out-rdf", "back.ttl"],
     "invert --mode dep requires --pg-schema and --out-rdf-schema"),
    (["validate", "pg", "--pg", "pg.json"], "validate pg requires --pg and --pg-schema"),
], ids=["invert-dep", "validate-pg"])
def test_usage_errors_name_the_options_a_command_requires(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"rdfpg: error: {message}\n")
