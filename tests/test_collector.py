"""The cyclic garbage collector: the pipeline makes no cycles, and the CLI
turns the collector off for its command only.

Every model value is a tuple subclass that the collector keeps tracked, so
each full collection walks every value built so far. The CLI owns its
process and runs each command with the collector off; that is safe only
because no route leaves cyclic garbage behind, which the first test pins.
"""

from __future__ import annotations

import gc
import warnings

import pytest

from conftest import DATA_DIR

from rdfpg import cli
from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.generator import GeneratorConfig, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from rdfpg.rdf_graph import rdf_graph_to_triples, rdf_schema_to_triples
from rdfpg.turtle import serialize_turtle


@pytest.fixture()
def collector_off():
    """The collector off, with nothing left for it before the test starts."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _dep_pipeline(seed: int) -> None:
    schema, graph = gen_rdf_database(GeneratorConfig(seed=seed, max_triples=400))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pg_schema, pg = dep.map_database(schema, graph)
        pg_schema = parse_pg_schema(serialize_pg_schema(pg_schema))
        pg = parse_pg(serialize_pg(pg))
        schema_back, graph_back = dep.invert_database(pg_schema, pg)
    assert (schema_back, graph_back) == (schema, graph)
    serialize_turtle(rdf_graph_to_triples(graph_back))
    serialize_turtle(rdf_schema_to_triples(schema_back))


def _indep_pipeline(seed: int) -> None:
    graph = gen_rdf_graph(GeneratorConfig(seed=seed, max_triples=400))
    _, pg = indep.map_database(graph)
    graph_back = indep.invert_graph(parse_pg(serialize_pg(pg)))
    assert graph_back == graph
    serialize_turtle(rdf_graph_to_triples(graph_back))


@pytest.mark.parametrize("pipeline", [_dep_pipeline, _indep_pipeline], ids=["dep", "indep"])
def test_routes_leave_no_cyclic_garbage(collector_off, pipeline):
    for seed in range(8):
        pipeline(seed)
        assert gc.collect() == 0, seed


def _raising_handler(args) -> int:
    raise RuntimeError("handler failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("outcome", ["exit-0", "exit-2", "usage-exit-2", "raises"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled, outcome):
    """The command runs with the collector off; `main` puts the caller's state back
    when the command succeeds, fails, is refused by the parser or raises."""
    seen = []
    command = cli._cmd_convert

    def watched(args):
        seen.append(gc.isenabled())
        return command(args)

    monkeypatch.setattr(cli, "_cmd_convert", _raising_handler if outcome == "raises" else watched)
    rdf = tmp_path / "missing.ttl" if outcome == "exit-2" else DATA_DIR / "org-instance.ttl"
    args = ["convert", "--mode", "indep", "--rdf", str(rdf), "--out-pg", str(tmp_path / "pg.json"),
            "--out-pg-schema", str(tmp_path / "s.json")]
    if outcome == "usage-exit-2":
        args.append("--no-such-option")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(RuntimeError, match="handler failed"):
                cli.main(args)
        elif outcome == "usage-exit-2":
            with pytest.raises(SystemExit) as exit_:
                cli.main(args)
            assert exit_.value.code == 2
        else:
            assert cli.main(args) == (0 if outcome == "exit-0" else 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == ([False] if outcome.startswith("exit") else [])
