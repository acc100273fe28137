"""Golden outputs: the serializers must keep producing the same bytes.

The digests below were captured from the code before the property graph
model stored its properties in canonical order and cached its canonical
keys. Any change to PG JSON, PG-schema JSON, Turtle or Cypher output for
these inputs shows up here as a digest mismatch.

The two validation reports at the end pin the order and text of every
violation that validate_pg and validate_rdf give for a fixed bad input.
"""

from __future__ import annotations

import hashlib
import warnings

import pytest

from conftest import DATA_DIR

from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.cypher import export_import_script
from rdfpg.generator import (
    GeneratorConfig,
    gen_pg_schema,
    gen_property_graph,
    gen_rdf_database,
    gen_rdf_graph,
)
from rdfpg.pg_graph import (
    DATE,
    INTEGER,
    STRING,
    Edge,
    EdgeType,
    Node,
    PgValue,
    canonical_graph,
    canonical_schema,
    validate_pg,
)
from rdfpg.pg_json import serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import (
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_graph_to_triples,
    rdf_schema_to_triples,
    validate_rdf,
)
from rdfpg.turtle import parse_turtle, serialize_turtle

GOLDEN_CONFIG = GeneratorConfig(seed=17, max_classes=8, max_properties=12,
                                max_resources=60, max_triples=250)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _org_database():
    schema = build_rdf_schema(
        complete_partial_schema(parse_turtle((DATA_DIR / "org-schema.ttl").read_text()))
    )
    graph = build_rdf_graph(parse_turtle((DATA_DIR / "org-instance.ttl").read_text()))
    return schema, graph


def _dep_digests(schema, graph) -> dict[str, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pg_schema, pg = dep.map_database(schema, graph)
        schema_back, graph_back = dep.invert_database(pg_schema, pg)
    return {
        "pg": _sha(serialize_pg(pg)),
        "pg_schema": _sha(serialize_pg_schema(pg_schema)),
        "cypher": _sha(export_import_script(pg)),
        "turtle": _sha(serialize_turtle(rdf_graph_to_triples(graph_back))),
        "turtle_schema": _sha(serialize_turtle(rdf_schema_to_triples(schema_back))),
    }


def _indep_digests(graph) -> dict[str, str]:
    pg_schema, pg = indep.map_database(graph)
    graph_back = indep.invert_graph(pg)
    return {
        "pg": _sha(serialize_pg(pg)),
        "pg_schema": _sha(serialize_pg_schema(pg_schema)),
        "cypher": _sha(export_import_script(pg)),
        "turtle": _sha(serialize_turtle(rdf_graph_to_triples(graph_back))),
    }


def _pg_digests(pg) -> dict[str, str]:
    return {"pg": _sha(serialize_pg(pg)), "cypher": _sha(export_import_script(pg))}


def _pg_schema_digests() -> dict[str, str]:
    # GOLDEN_CONFIG's schema is small, so seeds 0-49 pin edge property types too.
    seeds = (gen_pg_schema(GOLDEN_CONFIG.with_seed(seed)) for seed in range(50))
    return {
        "pg_schema": _sha(serialize_pg_schema(gen_pg_schema(GOLDEN_CONFIG))),
        "pg_schema_seeds_0_49": _sha("".join(map(serialize_pg_schema, seeds))),
    }


CASES = {
    "org-dep": lambda: _dep_digests(*_org_database()),
    "org-indep": lambda: _indep_digests(_org_database()[1]),
    "gen-dep": lambda: _dep_digests(*gen_rdf_database(GOLDEN_CONFIG)),
    "gen-indep": lambda: _indep_digests(gen_rdf_graph(GOLDEN_CONFIG)),
    "gen-pg": lambda: _pg_digests(gen_property_graph(GOLDEN_CONFIG)),
    "gen-pg-schema": _pg_schema_digests,
}

GOLDEN: dict[str, dict[str, str]] = {
    "gen-dep": {
        "pg": "10d14bd97fb25747faef745726c011802a55defc7bb2d0c47bfef3f7d2ad0c18",
        "pg_schema": "abb8c50a737f911f62382b351f0435cbefbba3f5ec567e1f69283a629528b1e5",
        "cypher": "6b63884c92b6f795e98f6c3888492d88c1cd85bafa57e1446d4de7451f0ad7fd",
        "turtle": "1fe1e63bb629250d5ed9b9f1adf384c5c07f540fa0c42915603443f91d1ae780",
        "turtle_schema": "de32df45edf9e5861d38c94b6007e4d325f603429424f3f1b47a25b40504b2a0",
    },
    "gen-indep": {
        "pg": "5fc0c9c2f9312d9370db07fae2ca051b22a71cc915a012292ad38e40011a21b0",
        "pg_schema": "4c282582b3fd464faa6f9689c3fd662060d6fa99d01bab1b397840a44e00c4fc",
        "cypher": "03c4e045b03a6a759f9b3b6a4706f8ac77ad7b26d890e1f35e3411f603f23cd0",
        "turtle": "f819445b21097865a72341ffd027ba5ffa194fe21ce19ae87e8abcc0dd76ce47",
    },
    "gen-pg": {
        "pg": "ea350926b4947cbabee279d04588ca98e7e05cafd31a7875a80b1070fef3f7ba",
        "cypher": "5d22b5c94c82b181d7759e2b134cef14168c1aca9d6ddb1a2555dea0edad5650",
    },
    "gen-pg-schema": {
        "pg_schema": "98fa8677d2facefd77d7a7290507afb779c7c4e7e892dfc9a23fa3d429c1e3ac",
        "pg_schema_seeds_0_49": "98abf9b5a43bc3cfeda0fa709498664f237ace821639f4a0c65865841a16b98b",
    },
    "org-dep": {
        "pg": "7a0ca8e92e80e93e43195ad8b3e5e0418a6a675c35a8d6d1226e0ccb6dcf3797",
        "pg_schema": "ef3296acc35cc4d021ab152f84de80f7e8d39959a1113062b8f934aab04f63ff",
        "cypher": "4a8def2f1a7691b78918d5590cb72a091126365ddd92bcf6bce7205a2cebb5a4",
        "turtle": "f4c51660a6b76a22e23c976937ca70eb49a32f403f5db1b4fb06eeffec9eb396",
        "turtle_schema": "5aeca39f40671a540c1e88cb537ae8e400ae07229219341973eebf9b9e01fdc6",
    },
    "org-indep": {
        "pg": "e59ce8301c4b12313e35176f278b0c9b86591347919a9af1a38016e4dd47424f",
        "pg_schema": "4c282582b3fd464faa6f9689c3fd662060d6fa99d01bab1b397840a44e00c4fc",
        "cypher": "bf168cfda1cdd5482de9930ce55c61eb840f90ed3b5e084e3884a2e7b91ab7a1",
        "turtle": "f4c51660a6b76a22e23c976937ca70eb49a32f403f5db1b4fb06eeffec9eb396",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case):
    assert CASES[case]() == GOLDEN[case]


def _violation_fixture():
    """A schema and a graph breaking P1a, P1b, P2a and P2b on several elements."""
    schema = canonical_schema(
        {
            "Organisation": [("name", STRING)],
            "Person": [("age", INTEGER), ("name", STRING)],
        },
        [
            EdgeType("ceo", "Organisation", "Person", (("since", DATE),)),
            # Two edge types share a signature; P2b reports against the closer one.
            EdgeType("knows", "Person", "Person", (("since", DATE),)),
            EdgeType("knows", "Person", "Person", (("since", STRING), ("weight", INTEGER))),
        ],
    )

    acme, globex, ann, bob, robot = range(5)
    nodes = [
        Node("Organisation", (
            ("founded", PgValue("1999", INTEGER)),
            ("iri", PgValue("http://ex.org/acme", STRING)),
            ("name", PgValue("Acme", STRING)),
        )),
        Node("Organisation", (("name", PgValue("Globex", INTEGER)),)),
        Node("Person", (
            ("age", PgValue("41", STRING)),
            ("iri", PgValue("http://ex.org/ann", INTEGER)),
            ("name", PgValue("Ann", STRING)),
        )),
        Node("Person", (("age", PgValue("39", INTEGER)), ("name", PgValue("Bob", STRING)))),
        Node("Robot", (("name", PgValue("R2", STRING)),)),
        Node("Alien", ()),
    ]
    edges = [
        Edge("ceo", acme, ann, (
            ("since", PgValue("2001", INTEGER)), ("until", PgValue("2009", DATE)),
        )),
        Edge("ceo", globex, bob, (("since", PgValue("2004-01-01", DATE)),)),
        Edge("knows", ann, bob, (
            ("colour", PgValue("red", "http://dt.example/c")),
            ("since", PgValue("2010", INTEGER)),
            ("weight", PgValue("3", INTEGER)),
        )),
        Edge("knows", bob, robot, ()),
        Edge("ceo", ann, acme, ()),
        Edge("owns", acme, globex, ()),
        Edge("knows", bob, ann, (("since", PgValue("2011", DATE)),)),
    ]
    return canonical_graph(nodes, edges), schema


EXPECTED_VIOLATIONS: tuple[tuple[str, str, str], ...] = (
    (
        'P1a',
        'node Alien{}',
        "no node type labeled 'Alien'",
    ),
    (
        'P1b',
        "node Organisation{founded='1999':Integer, iri='http://ex.org/acme':String, name='Acme':String}",
        "property 'founded' with type Integer is not declared for node type 'Organisation'",
    ),
    (
        'P1b',
        "node Organisation{name='Globex':Integer}",
        "property 'name' with type Integer is not declared for node type 'Organisation'",
    ),
    (
        'P1b',
        "node Person{age='41':String, iri='http://ex.org/ann':Integer, name='Ann':String}",
        "property 'age' with type String is not declared for node type 'Person'",
    ),
    (
        'P1b',
        "node Person{age='41':String, iri='http://ex.org/ann':Integer, name='Ann':String}",
        "property 'iri' with type Integer is not declared for node type 'Person'",
    ),
    (
        'P1a',
        "node Robot{name='R2':String}",
        "no node type labeled 'Robot'",
    ),
    (
        'P2b',
        'edge Organisation --ceo--> Person',
        "property 'since' with type Integer is not declared for edge type 'ceo'",
    ),
    (
        'P2b',
        'edge Organisation --ceo--> Person',
        "property 'until' with type Date is not declared for edge type 'ceo'",
    ),
    (
        'P2a',
        'edge Organisation --owns--> Organisation',
        "no edge type labeled 'owns' from 'Organisation' to 'Organisation'",
    ),
    (
        'P2a',
        'edge Person --knows--> Robot',
        "no edge type labeled 'knows' from 'Person' to 'Robot'",
    ),
    (
        'P2a',
        'edge Person --ceo--> Organisation',
        "no edge type labeled 'ceo' from 'Person' to 'Organisation'",
    ),
    (
        'P2b',
        'edge Person --knows--> Person',
        "property 'colour' with type http://dt.example/c is not declared for edge type 'knows'",
    ),
    (
        'P2b',
        'edge Person --knows--> Person',
        "property 'since' with type Integer is not declared for edge type 'knows'",
    ),
)


def test_validate_pg_violation_order_and_text():
    graph, schema = _violation_fixture()
    report = validate_pg(graph, schema)
    got = tuple((v.rule, v.element, v.message) for v in report.violations)
    assert got == EXPECTED_VIOLATIONS


RDF_VIOLATION_SCHEMA = """\
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix voc: <http://voc.example/> .
voc:Organisation a rdfs:Class .
voc:Person a rdfs:Class .
voc:name a rdf:Property ; rdfs:domain voc:Person ; rdfs:range xsd:string .
voc:age a rdf:Property ; rdfs:domain voc:Person ; rdfs:range xsd:integer .
voc:ceo a rdf:Property ; rdfs:domain voc:Organisation ; rdfs:range voc:Person .
voc:knows a rdf:Property ; rdfs:domain voc:Person ; rdfs:range voc:Person .
"""

# R1 on resources and literals, R2 on object edges, R3 on datatype edges; the
# literal-object rdf:type triples are datatype edges, not class labels.
RDF_VIOLATION_INSTANCE = """\
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix voc: <http://voc.example/> .
@prefix ex: <http://ex.org/> .
ex:acme a voc:Organisation ; voc:name "Acme" ; voc:ceo ex:ann ; voc:owns ex:globex .
ex:globex a voc:Company ; voc:ceo ex:bob .
ex:ann a voc:Person, "Person" ; voc:name "Ann" ; voc:age "41" ;
    voc:born "2001-01-01"^^xsd:date ; voc:knows ex:bob, ex:robot .
ex:bob a voc:Person ; voc:age "39"^^xsd:integer ; voc:knows ex:ann ;
    voc:colour "red"^^<http://dt.example/c> .
ex:robot a voc:Robot ; voc:name "R2" ;
    voc:serial "7"^^<http://dt.example/c>, "7"^^<http://dt.example/b> .
ex:stray voc:knows ex:ann ; rdf:type "Thing"^^<http://dt.example/c> .
"""

EXPECTED_RDF_VIOLATIONS: tuple[tuple[str, str, str], ...] = (
    (
        'R1',
        'http://ex.org/globex',
        'class http://voc.example/Company is not declared',
    ),
    (
        'R1',
        'http://ex.org/robot',
        'class http://voc.example/Robot is not declared',
    ),
    (
        'R1',
        'http://ex.org/stray',
        'class http://www.w3.org/2000/01/rdf-schema#Resource is not declared',
    ),
    (
        'R1',
        '"2001-01-01"^^http://www.w3.org/2001/XMLSchema#date',
        'class http://www.w3.org/2001/XMLSchema#date is not declared',
    ),
    (
        'R1',
        '"7"^^http://dt.example/b',
        'class http://dt.example/b is not declared',
    ),
    (
        'R1',
        '"7"^^http://dt.example/c',
        'class http://dt.example/c is not declared',
    ),
    (
        'R1',
        '"Thing"^^http://dt.example/c',
        'class http://dt.example/c is not declared',
    ),
    (
        'R1',
        '"red"^^http://dt.example/c',
        'class http://dt.example/c is not declared',
    ),
    (
        'R2',
        'http://ex.org/acme --http://voc.example/owns--> http://ex.org/globex',
        'no declared property http://voc.example/owns from http://voc.example/Organisation to http://voc.example/Company',
    ),
    (
        'R2',
        'http://ex.org/ann --http://voc.example/knows--> http://ex.org/robot',
        'no declared property http://voc.example/knows from http://voc.example/Person to http://voc.example/Robot',
    ),
    (
        'R2',
        'http://ex.org/globex --http://voc.example/ceo--> http://ex.org/bob',
        'no declared property http://voc.example/ceo from http://voc.example/Company to http://voc.example/Person',
    ),
    (
        'R2',
        'http://ex.org/stray --http://voc.example/knows--> http://ex.org/ann',
        'no declared property http://voc.example/knows from http://www.w3.org/2000/01/rdf-schema#Resource to http://voc.example/Person',
    ),
    (
        'R3',
        'http://ex.org/acme --http://voc.example/name--> "Acme"^^http://www.w3.org/2001/XMLSchema#string',
        'no declared property http://voc.example/name from http://voc.example/Organisation to http://www.w3.org/2001/XMLSchema#string',
    ),
    (
        'R3',
        'http://ex.org/ann --http://voc.example/age--> "41"^^http://www.w3.org/2001/XMLSchema#string',
        'no declared property http://voc.example/age from http://voc.example/Person to http://www.w3.org/2001/XMLSchema#string',
    ),
    (
        'R3',
        'http://ex.org/ann --http://voc.example/born--> "2001-01-01"^^http://www.w3.org/2001/XMLSchema#date',
        'no declared property http://voc.example/born from http://voc.example/Person to http://www.w3.org/2001/XMLSchema#date',
    ),
    (
        'R3',
        'http://ex.org/ann --http://www.w3.org/1999/02/22-rdf-syntax-ns#type--> "Person"^^http://www.w3.org/2001/XMLSchema#string',
        'no declared property http://www.w3.org/1999/02/22-rdf-syntax-ns#type from http://voc.example/Person to http://www.w3.org/2001/XMLSchema#string',
    ),
    (
        'R3',
        'http://ex.org/bob --http://voc.example/colour--> "red"^^http://dt.example/c',
        'no declared property http://voc.example/colour from http://voc.example/Person to http://dt.example/c',
    ),
    (
        'R3',
        'http://ex.org/robot --http://voc.example/name--> "R2"^^http://www.w3.org/2001/XMLSchema#string',
        'no declared property http://voc.example/name from http://voc.example/Robot to http://www.w3.org/2001/XMLSchema#string',
    ),
    (
        'R3',
        'http://ex.org/robot --http://voc.example/serial--> "7"^^http://dt.example/b',
        'no declared property http://voc.example/serial from http://voc.example/Robot to http://dt.example/b',
    ),
    (
        'R3',
        'http://ex.org/robot --http://voc.example/serial--> "7"^^http://dt.example/c',
        'no declared property http://voc.example/serial from http://voc.example/Robot to http://dt.example/c',
    ),
    (
        'R3',
        'http://ex.org/stray --http://www.w3.org/1999/02/22-rdf-syntax-ns#type--> "Thing"^^http://dt.example/c',
        'no declared property http://www.w3.org/1999/02/22-rdf-syntax-ns#type from http://www.w3.org/2000/01/rdf-schema#Resource to http://dt.example/c',
    ),
)


def test_validate_rdf_violation_order_and_text():
    schema = build_rdf_schema(complete_partial_schema(parse_turtle(RDF_VIOLATION_SCHEMA)))
    graph = build_rdf_graph(parse_turtle(RDF_VIOLATION_INSTANCE))
    report = validate_rdf(graph, schema)
    got = tuple((v.rule, v.element, v.message) for v in report.violations)
    assert got == EXPECTED_RDF_VIOLATIONS
