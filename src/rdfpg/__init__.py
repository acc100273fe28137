"""rdfpg: convert RDF databases to property graph databases and back.

Two conversion routes are provided. The schema-dependent route
(`rdfpg.schema_dependent`) derives a property graph schema from an RDF
schema and maps instances onto it; the schema-independent route
(`rdfpg.schema_independent`) maps any RDF graph onto one fixed generic
schema. Both routes have exact inverses: converting and inverting recovers
the original database.
"""

from . import schema_dependent, schema_independent
from .errors import RdfPgError
from .generator import GeneratorConfig, gen_rdf_database, gen_rdf_graph
from .pg_graph import (
    EdgeType,
    PgDatatype,
    PgValue,
    PropertyGraph,
    PropertyGraphBuilder,
    PropertyGraphSchema,
    PropertyGraphSchemaBuilder,
    pg_equal,
    type_of_value,
    validate_pg,
)
from .pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from .cypher import export_import_script
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

__all__ = [
    "EdgeType",
    "GeneratorConfig",
    "Iri",
    "Literal",
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
    "type_of_value",
    "validate_pg",
    "validate_rdf",
]
