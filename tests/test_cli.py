"""Command-line interface: exit codes, file outputs, end-to-end trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rdfpg import cli
from rdfpg import schema_independent as indep
from rdfpg.cli import main
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import RdfGraphBuilder
from rdfpg.schema_independent import generic_schema
from rdfpg.terms import Iri
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
    pgs_path = tmp_path / "pgs.json"
    pgs_path.write_text(serialize_pg_schema(build_company_pg_schema()))
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


def test_color_env_var_controls_ansi(tmp_path, capsys, monkeypatch):
    mutated = tmp_path / "bad.ttl"
    mutated.write_text(
        Path(INSTANCE).read_text(encoding="utf-8").replace("voc:Organisation", "voc:Company")
    )
    monkeypatch.setenv("RDFPG_COLOR", "1")
    main(["validate", "rdf", "--rdf", str(mutated), "--schema", SCHEMA])
    assert "\x1b[31m" in capsys.readouterr().out
    monkeypatch.delenv("RDFPG_COLOR")
    main(["validate", "rdf", "--rdf", str(mutated), "--schema", SCHEMA])
    assert "\x1b[" not in capsys.readouterr().out


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
    builder = RdfGraphBuilder()
    subject = builder.add_resource(Iri("http://ex.org/a"))
    literal = builder.add_literal("x\ud800y", Iri("http://www.w3.org/2001/XMLSchema#string"))
    builder.add_datatype_edge(subject, literal, Iri("http://ex.org/p"))
    _, pg = indep.map_database(builder.build())
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
