"""rdfpg: convert RDF databases to property graph databases and back.

Two conversion routes are provided. The schema-dependent route
(`rdfpg.schema_dependent`) derives a property graph schema from an RDF
schema and maps instances onto it; the schema-independent route
(`rdfpg.schema_independent`) maps any RDF graph onto one fixed generic
schema. Both routes have exact inverses: converting and inverting recovers
the original database.

The generator and the openCypher export are imported on first use of the
names re-exported from them, so that `import rdfpg` does not load them.
"""

import importlib

from . import schema_dependent, schema_independent
from .errors import RdfPgError
from .pg_graph import (
    Edge,
    EdgeType,
    Node,
    PgDatatype,
    PgValue,
    PropertyGraph,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    PropertyGraphSchemaBuilder,
    pg_equal,
    validate_pg,
)
from .pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from .rdf_graph import (
    RdfGraph,
    RdfGraphBuilder,
    RdfGraphSchema,
    RdfGraphSchemaBuilder,
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_equal,
    rdf_graph_to_triples,
    rdf_schema_to_triples,
    validate_rdf,
)
from .report import ValidationReport, Violation
from .terms import Iri, Literal, PrefixMap, Triple, TripleSet
from .turtle import parse_turtle, parse_turtle_raw, serialize_turtle, skolemize

__version__ = "0.1.0"

# Re-exported names whose module is imported on first use: name -> module.
_LAZY = {
    "GeneratorConfig": "generator",
    "gen_rdf_database": "generator",
    "gen_rdf_graph": "generator",
    "export_import_script": "cypher",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "Edge",
    "EdgeType",
    "GeneratorConfig",
    "Iri",
    "Literal",
    "Node",
    "PgDatatype",
    "PgValue",
    "PrefixMap",
    "PropertyGraph",
    "PropertyGraphBuilder",
    "PropertyGraphSchema",
    "PropertyGraphSchemaBuilder",
    "RdfGraph",
    "RdfGraphBuilder",
    "RdfGraphSchema",
    "RdfGraphSchemaBuilder",
    "RdfPgError",
    "Triple",
    "TripleSet",
    "ValidationReport",
    "Violation",
    "build_rdf_graph",
    "build_rdf_schema",
    "complete_partial_schema",
    "export_import_script",
    "gen_rdf_database",
    "gen_rdf_graph",
    "parse_pg",
    "parse_pg_schema",
    "parse_turtle",
    "parse_turtle_raw",
    "pg_equal",
    "rdf_equal",
    "rdf_graph_to_triples",
    "rdf_schema_to_triples",
    "schema_dependent",
    "schema_independent",
    "serialize_pg",
    "serialize_pg_schema",
    "serialize_turtle",
    "skolemize",
    "validate_pg",
    "validate_rdf",
]
