"""What the benchmark measures: workloads and metrics, with their units,
directions, layers, and the end-to-end metric and workload each per-layer
metric should move.

BENCHMARK.json at the repository root lists the same names, units and
directions; bench/test_bench.py checks that the two agree.
"""

from __future__ import annotations

# Each workload runs two CLI commands per repetition, "cli1" then "cli2"
# (run.Workload.commands).
WORKLOADS = {
    "dep-large": {
        "why": "schema-dependent convert then invert of 2,000 typed resources (8,140 triples): "
               "datatype values fold into node properties, so turtle, RDF graph building and "
               "validate_rdf dominate",
        "sizes": {"classes": 20, "properties": 40, "resources": 2_000, "triples": 8_140},
    },
    "indep-multi": {
        "why": "schema-independent convert then invert of 1,250 resources and 1,000 shared "
               "literals (5,000 triples): every literal is a node, so PG sorting, validate_pg and "
               "PG JSON dominate",
        "sizes": {"resources": 1_250, "literals": 1_000, "triples": 5_000},
    },
    "check-small": {
        "why": "the paper's machine check, roundtrip --count 250 per route on tiny generated "
               "graphs: fixed per-call costs dominate and turtle and PG JSON are bypassed",
        "sizes": {"cases_per_route": 250, "max_resources": 30, "max_triples": 100},
    },
}

CHECK_CASES = 250

CONVERSION = ("dep-large", "indep-multi")
ALL = tuple(WORKLOADS)

# name -> (unit, better, bound). Times are reference seconds (run._gauged):
# wall time scaled by a CPU-speed gauge read around every timed step.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "cli1_s": ("s", "lower", 0.25),
    "cli2_s": ("s", "lower", 0.25),
    "cli1_peak_rss_mb": ("MB", "lower", 0.1),
    "cli2_peak_rss_mb": ("MB", "lower", 0.1),
}

END_TO_END_MEANING = {
    "setup_s": "median time to generate and write the inputs and start the CLI once to import it",
    "cli1_s": "median time of the run's cli1 subprocesses: convert_s on "
              "dep-large and indep-multi, 250 / check_dep_cases_per_s on check-small",
    "cli2_s": "median time of the run's cli2 subprocesses: invert_s on "
              "dep-large and indep-multi, 250 / check_indep_cases_per_s on check-small",
    "cli1_peak_rss_mb": "median ru_maxrss of the cli1 child (convert_peak_rss_mb; "
                        "check_peak_rss_mb of the dep check)",
    "cli2_peak_rss_mb": "median ru_maxrss of the cli2 child (invert_peak_rss_mb; "
                        "check_peak_rss_mb of the indep check)",
}

# Per-layer metrics. name -> (unit, better, layer, moves, on)
# `moves` is the end-to-end metric the layer feeds; `on` the workloads where
# it should move. Other workloads bypass the layer and read 0. Every one is
# printed; the result line carries the counts, sizes and memory figures, and
# those self times that every workload exercises (a bypassed layer's time is
# a constant 0, which is no measurement).
_CONV = CONVERSION
_DEP = ("dep-large", "check-small")
_INDEP = ("indep-multi", "check-small")
PER_LAYER = {
    "turtle.parse_turtle_s": ("s", "lower", "turtle", "cli1_s", _CONV),
    "turtle.serialize_turtle_s": ("s", "lower", "turtle", "cli2_s", _CONV),
    "terms.tripleset_iter_calls": ("count", "lower", "terms", "cli1_s", ALL),
    "terms.tripleset_iter_s": ("s", "lower", "terms", "cli1_s", ALL),
    "rdf_graph.build_rdf_graph_s": ("s", "lower", "rdf_graph", "cli1_s", ALL),
    "rdf_graph.build_rdf_schema_s": ("s", "lower", "rdf_graph", "cli1_s", _DEP),
    "rdf_graph.validate_rdf_calls": ("count", "lower", "rdf_graph", "cli1_s", ("dep-large",)),
    "rdf_graph.validate_rdf_s": ("s", "lower", "rdf_graph", "cli1_s", ("dep-large",)),
    "rdf_graph.rdf_graph_to_triples_s": ("s", "lower", "rdf_graph", "cli2_s", _CONV),
    "rdf_graph.rdf_equal_s": ("s", "lower", "rdf_graph", "cli1_s", ("check-small",)),
    "schema_dependent.map_database_s": ("s", "lower", "schema_dependent", "cli1_s", _DEP),
    "schema_dependent.invert_database_s": ("s", "lower", "schema_dependent", "cli2_s", _DEP),
    "schema_independent.map_database_s": ("s", "lower", "schema_independent", "cli1_s", _INDEP),
    "schema_independent.invert_graph_s": ("s", "lower", "schema_independent", "cli2_s", _INDEP),
    "schema_independent.generic_schema_calls": ("count", "lower", "schema_independent", "cli2_s",
                                                _INDEP),
    "pg_graph.validate_pg_calls": ("count", "lower", "pg_graph", "cli1_s", ALL),
    "pg_graph.validate_pg_s": ("s", "lower", "pg_graph", "cli1_s", ALL),
    "pg_graph.nodes_sorted_calls": ("count", "lower", "pg_graph", "cli1_s", ALL),
    "pg_graph.edges_sorted_calls": ("count", "lower", "pg_graph", "cli1_s", ALL),
    "pg_graph.sorted_s": ("s", "lower", "pg_graph", "cli1_s", ALL),
    "pg_graph.properties_of_calls": ("count", "lower", "pg_graph", "cli1_s", ALL),
    "pg_json.serialize_pg_s": ("s", "lower", "pg_json", "cli1_s", _CONV),
    "pg_json.parse_pg_s": ("s", "lower", "pg_json", "cli2_s", _CONV),
    "pg_json.pg_bytes": ("bytes", "lower", "pg_json", "cli2_s", _CONV),
    "pg_json_bytes_per_ttl_byte": ("ratio", "lower", "pg_json", "cli2_s", _CONV),
    "generator.gen_s": ("s", "lower", "generator", "cli1_s", ("check-small",)),
    "cli.main_s": ("s", "lower", "cli", "cli1_s", ALL),
    "cli.run_roundtrip_s": ("s", "lower", "cli", "cli1_s", ("check-small",)),
    "cli.startup_s": ("s", "lower", "cli", "cli1_s", ALL),
    "trace.overhead_s": ("s", "lower", "bench", "none", ALL),
    "parse_turtle.peak_mb": ("MB", "lower", "turtle", "cli1_peak_rss_mb", _CONV),
    "build_rdf_graph.peak_mb": ("MB", "lower", "rdf_graph", "cli1_peak_rss_mb", _CONV),
    "map_database.peak_mb": ("MB", "lower", "schema_*", "cli1_peak_rss_mb", _CONV),
    "serialize_pg.peak_mb": ("MB", "lower", "pg_json", "cli1_peak_rss_mb", _CONV),
    "parse_pg.peak_mb": ("MB", "lower", "pg_json", "cli2_peak_rss_mb", _CONV),
    "invert.peak_mb": ("MB", "lower", "schema_*", "cli2_peak_rss_mb", _CONV),
    "serialize_turtle.peak_mb": ("MB", "lower", "turtle", "cli2_peak_rss_mb", _CONV),
    # Identity counts: exact, and they prove the workload did not change.
    "rdf_graph.triples": ("count", "lower", "rdf_graph", "none", _CONV),
    "pg_graph.nodes": ("count", "lower", "pg_graph", "none", _CONV),
    "pg_graph.edges": ("count", "lower", "pg_graph", "none", _CONV),
    "pg_graph.properties": ("count", "lower", "pg_graph", "none", _CONV),
    "turtle.input_bytes": ("bytes", "lower", "turtle", "none", _CONV),
}


def in_result(name: str) -> bool:
    unit, _, _, _, on = PER_LAYER[name]
    return unit != "s" or on == ALL


RESULT_PER_LAYER = tuple(name for name in PER_LAYER if in_result(name))
