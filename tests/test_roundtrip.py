"""The roundtrip machine check: its failure path, and split runs equal to serial ones.

Failures are injected by patching a route's pieces with wrappers that fail
a case chosen by the size of its graphs, never by call order, so the same
cases fail whichever process runs them.
"""

from __future__ import annotations

import errno
import io
import os
import signal
import threading
import time

import pytest

from rdfpg import cli
from rdfpg import schema_dependent as dep
from rdfpg import schema_independent as indep
from rdfpg.cli import RoundtripResult, main, run_roundtrip
from rdfpg.errors import DuplicatePropertyLabel, SchemaViolation
from rdfpg.generator import GeneratorConfig, gen_rdf_database, gen_rdf_graph
from rdfpg.pg_graph import PropertyGraph
from rdfpg.report import ValidationReport, Violation
from rdfpg.terms import Literal

COUNT = 40
THREE_WORKERS = range(3)  # more than this machine may have, with shares of unequal size
INVALID = ValidationReport((Violation("injected", "case", "injected failure"),))


def _input_invalid(graph) -> bool:
    return len(graph.resource_nodes) % 7 == 4


def _breaks_semantics(pg) -> bool:
    return len(pg.nodes) % 5 == 3


def _loses_information(pg) -> bool:
    return len(pg.nodes) % 5 == 1


def _expected(mode: str, seed: int, count: int) -> list[tuple[bool, bool, bool]]:
    """Per case: (input invalid, semantics broken, information lost), from the unpatched route."""
    kinds = []
    for index in range(count):
        case = GeneratorConfig().with_seed(seed + index)
        if mode == "dep":
            _, graph = gen_rdf_database(case)
            pg = dep.map_graph(graph)
            kinds.append((_input_invalid(graph), _breaks_semantics(pg), _loses_information(pg)))
        else:
            pg = indep.map_graph(gen_rdf_graph(case))
            kinds.append((False, _breaks_semantics(pg), _loses_information(pg)))
    return kinds


def _inject_failures(monkeypatch, mode: str) -> None:
    route = dep if mode == "dep" else indep
    real_invert = route.invert_graph

    def invert_graph(pg):
        if mode == "indep" and _breaks_semantics(pg):
            raise SchemaViolation("injected failure")
        graph = real_invert(pg)
        if _loses_information(pg):  # one extra literal always makes the graphs differ
            return graph._replace(literal_nodes=graph.literal_nodes | {Literal.plain("injected")})
        return graph

    monkeypatch.setattr(route, "invert_graph", invert_graph)
    if mode == "dep":
        real_validate_rdf, real_validate_pg = cli.validate_rdf, cli.validate_pg
        monkeypatch.setattr(cli, "validate_rdf", lambda graph, schema: (
            INVALID if _input_invalid(graph) else real_validate_rdf(graph, schema)))
        monkeypatch.setattr(cli, "validate_pg", lambda pg, schema: (
            INVALID if _breaks_semantics(pg) else real_validate_pg(pg, schema)))


def _run(mode: str, seed: int, count: int, cpus=None):
    """Run the check, on the CPU set `cpus` when given; return (result, stdout text)."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if cpus is not None:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        result = run_roundtrip(mode, seed, count, out=out)
    return result, out.getvalue()


def _open_descriptors() -> int | None:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture(autouse=True)
def _no_child_or_descriptor_left():
    before = _open_descriptors()
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert _open_descriptors() == before


def _spy_on_fork(monkeypatch) -> list[int]:
    """Patch os.fork to record the pid of each child it starts."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


@pytest.mark.parametrize(("mode", "seed", "first_kind"), [
    ("dep", 35, "input"),
    ("dep", 3, "semantics"),
    ("dep", 11, "information"),
    ("indep", 10, "semantics"),
    ("indep", 3, "information"),
])
def test_injected_failures_are_counted_and_the_first_is_dumped(
        mode, seed, first_kind, monkeypatch, capsys):
    kinds = _expected(mode, seed, COUNT)
    failing = [index for index, kind in enumerate(kinds) if any(kind)]
    semantics = sum(kind[1] for kind in kinds)
    assert 0 < semantics < len(failing) < COUNT
    first = failing[0]
    bad_input, broken, lost = kinds[first]
    assert first_kind == ("input" if bad_input else "semantics" if broken else "information")

    _inject_failures(monkeypatch, mode)
    assert main(["roundtrip", "--mode", mode, "--seed", str(seed), "--count", str(COUNT)]) == 1
    text = capsys.readouterr().out
    result, library_text = _run(mode, seed, COUNT)

    passed = COUNT - len(failing)
    assert result == RoundtripResult(passed, len(failing), semantics)
    assert library_text == text
    lines = text.splitlines()
    assert lines[0] == f"case {first} (seed {seed + first}) failed; dumps follow"
    assert lines[-1] == f"{passed}/{COUNT} round-trips passed"
    assert text.count("dumps follow") == 1
    assert ("generated input does not validate against its schema" in lines) == bad_input
    assert ("produced graph does not validate against produced schema" in lines) == broken
    assert "--- original instance ---" in lines
    assert ("--- recovered instance ---" in lines) == (mode == "dep" or not broken)
    assert ("--- original schema ---" in lines) == (mode == "dep")
    assert ("--- recovered schema ---" in lines) == (mode == "dep")
    # Turtle cannot hold the injected literal, so a comment after the dump names it.
    injected = "# literal on no edge: 'injected'^^<http://www.w3.org/2001/XMLSchema#string>"
    original, _, recovered = text.partition("--- recovered instance ---")
    assert injected not in original.splitlines()
    assert (injected in recovered.splitlines()) == lost


@pytest.mark.parametrize("mode", ["dep", "indep"])
def test_error_from_an_inverse_fails_the_case_and_the_check_goes_on(mode, monkeypatch, capsys):
    route = dep if mode == "dep" else indep
    seed = 3
    with_edges = [
        index for index in range(COUNT)
        if (dep.map_graph(gen_rdf_database(GeneratorConfig().with_seed(seed + index))[1])
            if mode == "dep"
            else indep.map_graph(gen_rdf_graph(GeneratorConfig().with_seed(seed + index)))).edges
    ]
    assert 0 < len(with_edges) < COUNT
    real_map_graph = route.map_graph

    def map_graph(graph):  # repeats the first edge, which no conversion does
        pg = real_map_graph(graph)
        return PropertyGraph(pg.nodes, pg.edges[:1] + pg.edges)

    monkeypatch.setattr(route, "map_graph", map_graph)
    assert main(["roundtrip", "--mode", mode, "--seed", str(seed), "--count", str(COUNT)]) == 1
    text = capsys.readouterr().out
    passed = COUNT - len(with_edges)
    assert _run(mode, seed, COUNT, cpus={0}) == (RoundtripResult(passed, len(with_edges), 0), text)
    lines = text.splitlines()
    first = with_edges[0]
    assert lines[0] == f"case {first} (seed {seed + first}) failed; dumps follow"
    assert lines[1].startswith("inverse raised NotProducedByConversion: edge ")
    assert lines[1].endswith("repeats the edge before it, which no conversion produces")
    assert lines[2] == "--- original instance ---"
    assert "--- recovered instance ---" not in lines
    assert lines[-1] == f"{passed}/{COUNT} round-trips passed"
    assert text.count("dumps follow") == 1


@pytest.mark.parametrize("mode", ["dep", "indep"])
@pytest.mark.parametrize("inject", [False, True], ids=["passing", "failing"])
def test_split_run_equals_serial_run(mode, inject, monkeypatch):
    if inject:
        _inject_failures(monkeypatch, mode)
    serial = _run(mode, 3, COUNT, cpus={0})
    assert serial[0].failed > 0 if inject else serial[0].ok
    assert _run(mode, 3, COUNT) == serial
    forked = _spy_on_fork(monkeypatch)
    assert _run(mode, 3, COUNT, cpus=THREE_WORKERS) == serial
    assert len(forked) == 2


@pytest.mark.parametrize("count", [1, 2])
def test_no_more_workers_than_cases(count, monkeypatch):
    serial = _run("dep", 3, count, cpus={0})
    forked = _spy_on_fork(monkeypatch)
    assert _run("dep", 3, count, cpus=THREE_WORKERS) == serial
    assert len(forked) == count - 1


@pytest.mark.parametrize("index", [0, 1, 3, 5])  # with three workers: 0 and 3 run here
def test_exception_in_a_case_is_raised_as_in_a_serial_run(index, monkeypatch):
    _inject_failures(monkeypatch, "dep")  # case 1 fails, so later exceptions follow its dumps
    _, target = gen_rdf_database(GeneratorConfig().with_seed(11 + index))
    real_map_graph = dep.map_graph

    def map_graph(graph):
        if graph == target:
            raise DuplicatePropertyLabel(f"http://example.org/case{index}", "injected")
        return real_map_graph(graph)

    monkeypatch.setattr(dep, "map_graph", map_graph)
    outcomes = []
    for cpus in ({0}, THREE_WORKERS):
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
            with pytest.raises(DuplicatePropertyLabel) as caught:
                run_roundtrip("dep", 11, COUNT, out=out)
        outcomes.append((type(caught.value), str(caught.value), out.getvalue()))
    assert outcomes[0] == outcomes[1]
    assert ("dumps follow" in outcomes[0][2]) == (index > 1)


def test_worker_that_dies_is_replaced_by_this_process(monkeypatch):
    serial = _run("dep", 3, COUNT, cpus={0})
    parent = os.getpid()
    _, target = gen_rdf_database(GeneratorConfig().with_seed(3 + 4))  # worker 1's second case
    real_map_graph = dep.map_graph

    def map_graph(graph):
        if graph == target and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_map_graph(graph)

    monkeypatch.setattr(dep, "map_graph", map_graph)
    assert _run("dep", 3, COUNT, cpus=THREE_WORKERS) == serial


def test_interrupt_kills_and_reaps_the_workers(monkeypatch):
    class Interrupt(BaseException):
        pass

    parent = os.getpid()
    slept = []
    real_map_graph = dep.map_graph

    def map_graph(graph):
        if os.getpid() == parent:
            raise Interrupt()
        if not slept:  # once per worker: one left running holds up the reaping below
            slept.append(True)
            time.sleep(60)
        return real_map_graph(graph)

    monkeypatch.setattr(dep, "map_graph", map_graph)
    started = time.monotonic()
    with pytest.raises(Interrupt):
        _run("dep", 3, COUNT, cpus=THREE_WORKERS)
    assert time.monotonic() - started < 30


def test_failed_fork_leaves_the_cases_to_this_process(monkeypatch):
    serial = _run("indep", 3, COUNT, cpus={0})

    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    assert _run("indep", 3, COUNT, cpus=THREE_WORKERS) == serial


def test_no_fork_while_another_thread_runs(monkeypatch):
    serial = _run("indep", 3, COUNT, cpus={0})

    def fork():
        raise AssertionError("forked while another thread ran")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _run("indep", 3, COUNT, cpus=THREE_WORKERS) == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_every_fork_comes_before_this_process_computes_a_case(monkeypatch):
    serial = _run("dep", 3, COUNT, cpus={0})
    parent = os.getpid()
    events = []  # filled in this process only: each child appends to its own copy
    real_fork, real_case = os.fork, cli._roundtrip_case

    def fork():
        events.append("fork")
        return real_fork()

    def roundtrip_case(*args):
        if os.getpid() == parent:
            events.append("case")
        return real_case(*args)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_roundtrip_case", roundtrip_case)
    assert _run("dep", 3, COUNT, cpus=THREE_WORKERS) == serial
    assert events[:3] == ["fork", "fork", "case"]
    assert events.count("fork") == 2


def test_failed_map_leaves_the_cases_to_this_process_without_a_fork(monkeypatch):
    import mmap

    serial = _run("indep", 3, COUNT, cpus={0})

    def no_map(*args):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(mmap, "mmap", no_map)
    forked = _spy_on_fork(monkeypatch)
    assert _run("indep", 3, COUNT, cpus=THREE_WORKERS) == serial
    assert forked == []
