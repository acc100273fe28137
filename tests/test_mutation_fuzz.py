"""Mutation fuzzing of the bundled example's documents.

Each case applies one to three character edits to one document, then reads
and converts or inverts it the way the CLI does. Every case must either
succeed or raise an RdfPgError; any other exception fails the test. The
first cases of each document also go through the CLI itself, which must
leave no output file behind when it fails.
"""

from __future__ import annotations

import random
import warnings
from pathlib import Path

import pytest

from conftest import DATA_DIR

from rdfpg import cli
from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.errors import RdfPgError
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import (
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_graph_to_triples,
    rdf_schema_to_triples,
)
from rdfpg.turtle import parse_turtle, serialize_turtle

CASES_PER_DOCUMENT = 500
CLI_CASES_PER_DOCUMENT = 25

# Syntax characters of both formats, escape letters, digits and a few
# characters that need care on output: control, line separator, astral.
ALPHABET = list('{}[]":,.;<>@^_#\\/ \n\tabefnrtuxE0189-+\'é \U0001f600\x00')

RDF_SCHEMA = build_rdf_schema(complete_partial_schema(
    parse_turtle((DATA_DIR / "org-schema.ttl").read_text())
))
INSTANCE_TEXT = (DATA_DIR / "org-instance.ttl").read_text()
DEP_PG_SCHEMA, DEP_PG = dep.map_database(RDF_SCHEMA, build_rdf_graph(parse_turtle(INSTANCE_TEXT)))
_, INDEP_PG = indep.map_database(build_rdf_graph(parse_turtle(INSTANCE_TEXT)))


def _convert_turtle(text: str) -> None:
    graph = build_rdf_graph(parse_turtle(text))
    pg_schema, pg = dep.map_database(RDF_SCHEMA, graph)
    serialize_pg(pg), serialize_pg_schema(pg_schema)
    serialize_pg(indep.map_database(graph)[1])


def _invert_dep_pg(text: str) -> None:
    schema, graph = dep.invert_database(DEP_PG_SCHEMA, parse_pg(text))
    serialize_turtle(rdf_graph_to_triples(graph)), serialize_turtle(rdf_schema_to_triples(schema))


def _invert_dep_pg_schema(text: str) -> None:
    schema, graph = dep.invert_database(parse_pg_schema(text), DEP_PG)
    serialize_turtle(rdf_graph_to_triples(graph)), serialize_turtle(rdf_schema_to_triples(schema))


def _invert_indep_pg(text: str) -> None:
    serialize_turtle(rdf_graph_to_triples(indep.invert_graph(parse_pg(text))))


DOCUMENTS = {
    "instance-turtle": (INSTANCE_TEXT, _convert_turtle),
    "dep-pg": (serialize_pg(DEP_PG), _invert_dep_pg),
    "dep-pg-schema": (serialize_pg_schema(DEP_PG_SCHEMA), _invert_dep_pg_schema),
    "indep-pg": (serialize_pg(INDEP_PG), _invert_indep_pg),
}


# The CLI command that reads each document: {doc} is the mutated document,
# {pg}, {pgs} and {generic} hold the unmutated PG documents.
CLI_COMMANDS = {
    "instance-turtle": "convert --mode dep --rdf {doc} --schema {schema} "
                       "--out-pg {out}/pg.json --out-pg-schema {out}/pgs.json",
    "dep-pg": "invert --mode dep --pg {doc} --pg-schema {pgs} "
              "--out-rdf {out}/i.ttl --out-rdf-schema {out}/s.ttl",
    "dep-pg-schema": "invert --mode dep --pg {pg} --pg-schema {doc} "
                     "--out-rdf {out}/i.ttl --out-rdf-schema {out}/s.ttl",
    "indep-pg": "invert --mode indep --pg {doc} --pg-schema {generic} --out-rdf {out}/i.ttl",
}


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
    return text


@pytest.mark.parametrize("name", DOCUMENTS)
def test_mutated_document_succeeds_or_raises_rdfpg_error(name):
    text, run = DOCUMENTS[name]
    run(text)  # the unmutated document goes through
    rng = random.Random(f"mutation-fuzz:{name}")
    for case in range(CASES_PER_DOCUMENT):
        mutated = _mutate(rng, text)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run(mutated)
        except RdfPgError:
            pass
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{mutated!r}")


@pytest.mark.parametrize("name", DOCUMENTS)
def test_cli_exit_2_on_mutated_document_leaves_no_file(name, tmp_path, capsys):
    text, _ = DOCUMENTS[name]
    out = tmp_path / "out"
    out.mkdir()
    files = {"doc": tmp_path / "doc", "pg": tmp_path / "pg.json", "pgs": tmp_path / "pgs.json",
             "generic": tmp_path / "generic.json", "schema": DATA_DIR / "org-schema.ttl",
             "out": out}
    files["pg"].write_text(serialize_pg(DEP_PG), encoding="utf-8")
    files["pgs"].write_text(serialize_pg_schema(DEP_PG_SCHEMA), encoding="utf-8")
    files["generic"].write_text(serialize_pg_schema(indep.generic_schema()), encoding="utf-8")
    argv = [part.format(**files) for part in CLI_COMMANDS[name].split()]
    outputs = sorted(Path(value).name
                     for flag, value in zip(argv, argv[1:]) if flag.startswith("--out-"))
    rng = random.Random(f"mutation-fuzz:{name}")  # the library test's first cases
    for case in range(CLI_CASES_PER_DOCUMENT):
        mutated = _mutate(rng, text)
        files["doc"].write_text(mutated, encoding="utf-8")
        code = cli.main(argv)
        written = sorted(p.name for p in out.iterdir())
        assert written == ([] if code == 2 else outputs), f"case {case}: exit {code}\n{mutated!r}"
        for p in out.iterdir():
            p.unlink()
    capsys.readouterr()
