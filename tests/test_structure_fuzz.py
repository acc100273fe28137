"""Structural fuzzing of the PG readers on converted documents.

Each case makes one structural change to a PG or PG schema document that a
conversion wrote, on either route: it repeats a name in one object, nests a
value deeply, inserts a byte that is not UTF-8, puts a NaN or Infinity
constant in place of a value, or re-lays the document. The case is read from
a file the way the CLI reads every input (`cli._load`). A re-laid document
must read back the same model. Every other case must raise an RdfPgError,
and a repeated name is named with the path of its object. The first refused
cases of each document also go through `rdfpg invert` and `rdfpg validate
pg`, which must exit 2 and write no file.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import DATA_DIR

from rdfpg import cli
from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.errors import RdfPgError
from rdfpg.generator import GeneratorConfig, gen_rdf_database
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import build_rdf_graph, build_rdf_schema, complete_partial_schema
from rdfpg.turtle import parse_turtle

CASES_PER_DOCUMENT = 150
CLI_CASES_PER_DOCUMENT = 8

DATABASES = {
    "org": (
        build_rdf_schema(complete_partial_schema(
            parse_turtle((DATA_DIR / "org-schema.ttl").read_text()))),
        build_rdf_graph(parse_turtle((DATA_DIR / "org-instance.ttl").read_text())),
    ),
    "generated": gen_rdf_database(GeneratorConfig(seed=7, max_resources=15, max_triples=50)),
}


def _documents() -> dict:
    """name -> (document text, reader, model, partner documents, CLI commands).

    In a command, {doc} is the fuzzed document, {pg} and {pgs} are the PG and
    PG schema documents of the same conversion (the partners), unfuzzed, and
    {out} is an empty directory.
    """
    documents = {}
    for db, (schema, graph) in DATABASES.items():
        dep_schema, dep_pg = dep.map_database(schema, graph)
        routes = {
            "dep": (dep_pg, dep_schema, "invert --mode dep --pg {pg} --pg-schema {pgs} "
                    "--out-rdf {out}/i.ttl --out-rdf-schema {out}/s.ttl"),
            "indep": (indep.map_database(graph)[1], indep.generic_schema(),
                      "invert --mode indep --pg {pg} --pg-schema {pgs} --out-rdf {out}/i.ttl"),
        }
        for route, (pg, pg_schema, invert) in routes.items():
            files = {"pg": serialize_pg(pg), "pgs": serialize_pg_schema(pg_schema)}
            commands = (invert, "validate pg --pg {pg} --pg-schema {pgs}")
            documents[f"{db}-{route}-pg"] = (
                files["pg"], parse_pg, pg, files,
                tuple(c.replace("{pg}", "{doc}") for c in commands))
            if route == "dep" or db == "org":  # the generic schema is the same for both
                documents[f"{db}-{route}-pg-schema"] = (
                    files["pgs"], parse_pg_schema, pg_schema, files,
                    tuple(c.replace("{pgs}", "{doc}") for c in commands))
    return documents


DOCUMENTS = _documents()


class _Object(list):
    """A JSON object as the list of its (name, value) pairs, so a name may repeat."""


class _Raw(str):
    """JSON text written as it stands: a non-finite constant or a deep nest."""


def _encode(value, layout: tuple) -> str:
    string, colon, comma = layout
    if type(value) is _Object:
        return "{" + comma.join(string(name) + colon + _encode(item, layout)
                                for name, item in value) + "}"
    if type(value) is list:
        return "[" + comma.join(_encode(item, layout) for item in value) + "]"
    return value if type(value) is _Raw else string(value)


def _positions(value, path: tuple = ()):
    """(container, index, path, value) of every value below `value`, in document order."""
    for i, item in enumerate(value):
        if type(value) is _Object:
            name, item = item
            at = (*path, name)
        else:
            at = (*path, i)
        yield value, i, at, item
        if type(item) in (_Object, list):
            yield from _positions(item, at)


def _path(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path)


def _put(container, index: int, value) -> None:
    container[index] = (container[index][0], value) if type(container) is _Object else value


def _relaid(rng: random.Random, value):
    if type(value) in (_Object, list):
        value = type(value)(value)
        rng.shuffle(value)
        for i, item in enumerate(value):
            _put(value, i, _relaid(rng, item[1] if type(value) is _Object else item))
    return value


# (string encoder, text between a name and its value, text between two items)
_raw_utf8, _ascii = json.encoder.encode_basestring, json.encoder.encode_basestring_ascii
LAYOUTS = ((_raw_utf8, ":", ","), (_ascii, ": ", ", "), (_raw_utf8, " :\n ", ",\n  "),
           (_ascii, "\t:", "\r\n,\t"))
# Bytes that are not UTF-8 wherever they stand: a stray continuation byte, two
# lead bytes of overlong forms, lead bytes past U+10FFFF, a truncated sequence.
NOT_UTF8 = (b"\x80", b"\xbf", b"\xc0", b"\xc1", b"\xf5", b"\xff", b"\xe2\x82")


def _fuzz(rng: random.Random, text: str) -> tuple[str, bytes, str | None]:
    """One case: (kind, document bytes, the error a repeated name must raise)."""
    doc = json.loads(text, object_pairs_hook=_Object)
    kind = rng.choice(("repeat", "nest", "not-utf8", "constant", "relay"))
    expected = None
    if kind == "repeat":
        objects = [((), doc)] + [(at, item) for _, _, at, item in _positions(doc)
                                 if type(item) is _Object]
        where, obj = rng.choice(objects)
        if not obj:
            kind = "relay"  # an empty object has no name to repeat
        else:
            name, value = rng.choice(obj)
            again = rng.choice((value, "Edison", [], _Object()))
            obj.insert(rng.randint(0, len(obj)), (name, again))
            expected = f"{_path(where)}: repeated name {name!r}"
    elif kind in ("nest", "constant"):
        container, i, _, _ = rng.choice(list(_positions(doc)))
        if kind == "nest":
            depth = rng.choice((2, 3, 50, 900, 5_000, 100_000))
            nested = rng.choice(("[" * depth + "]" * depth, '{"a":' * depth + "0" + "}" * depth))
        else:
            nested = rng.choice(("NaN", "Infinity", "-Infinity"))
        _put(container, i, _Raw(nested))
    if kind == "relay":
        layout = rng.choice(LAYOUTS)
        text = _encode(_relaid(rng, doc), layout)
        return kind, (rng.choice(("", "\ufeff", " \n")) + text).encode("utf-8"), None
    data = _encode(doc, rng.choice(LAYOUTS)).encode("utf-8")
    if kind == "not-utf8":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(NOT_UTF8) + data[at:]
    return kind, data, expected


@pytest.mark.parametrize("name", DOCUMENTS)
def test_fuzzed_document_reads_the_same_model_or_raises_rdfpg_error(name, tmp_path):
    text, reader, model, _, _ = DOCUMENTS[name]
    path = tmp_path / "doc.json"
    rng = random.Random(f"structure-fuzz:{name}")
    kinds = set()
    for case in range(CASES_PER_DOCUMENT):
        kind, data, expected = _fuzz(rng, text)
        kinds.add(kind)
        path.write_bytes(data)
        try:
            read = cli._load(str(path), reader)
        except RdfPgError as exc:
            assert kind != "relay", f"case {case}: {exc}\n{data!r}"
            if expected is not None:
                assert str(exc) == f"{path}: {expected}", f"case {case}\n{data!r}"
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}\n{data!r}")
        else:
            assert kind == "relay", f"case {case} ({kind}) was read\n{data!r}"
            assert read == model, f"case {case}: another model\n{data!r}"
    assert kinds == {"repeat", "nest", "not-utf8", "constant", "relay"}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_cli_exit_2_on_fuzzed_document_writes_no_file(name, tmp_path, capsys):
    text, _, _, partners, commands = DOCUMENTS[name]
    out = tmp_path / "out"
    out.mkdir()
    files = {"doc": tmp_path / "doc.json", "pg": tmp_path / "pg.json",
             "pgs": tmp_path / "pgs.json", "out": out}
    for partner, partner_text in partners.items():
        files[partner].write_text(partner_text, encoding="utf-8")
    rng = random.Random(f"structure-fuzz:{name}")  # the library test's first cases
    refused = 0
    while refused < CLI_CASES_PER_DOCUMENT:
        kind, data, _ = _fuzz(rng, text)
        if kind == "relay":
            continue
        refused += 1
        files["doc"].write_bytes(data)
        for command in commands:
            argv = [part.format(**files) for part in command.split()]
            assert cli.main(argv) == 2, f"{kind}: {command}\n{data!r}"
            assert list(out.iterdir()) == [], f"{kind}: {command}"
    capsys.readouterr()
