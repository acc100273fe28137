"""Command-line interface.

Subcommands:
  convert    Turtle RDF -> property graph JSON (dep or indep mode)
  invert     property graph JSON -> Turtle RDF
  validate   check an instance against a schema (rdf or pg)
  roundtrip  generate databases, convert, invert and compare

Exit codes: 0 success, 1 validation problems, 2 usage or processing errors.

Every input file is read by `_load`: an error or warning of its reader
starts with the file's path, and a byte that is not UTF-8 is named by its
line and column. A blank node in Turtle without `--skolemize` is refused
with the flag named.

The cyclic garbage collector is off while a command runs: no command makes
cyclic garbage, and every model value is a tuple the collector would walk
again at each collection. `main` puts the collector's state back when it
returns or raises; the forked `roundtrip` workers inherit the setting. The
library itself never touches the collector.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
import sys
import warnings
from typing import TYPE_CHECKING, Callable, NamedTuple, TextIO

from . import schema_dependent as dep
from . import schema_independent as indep
from .errors import BlankNodeUnsupported, RdfPgError, SchemaViolation, ValidityWarning
from .pg_graph import validate_pg
from .pg_json import parse_pg, parse_pg_schema, serialize_pg, serialize_pg_schema
from .rdf_graph import (
    build_rdf_graph,
    build_rdf_schema,
    complete_partial_schema,
    rdf_equal,
    rdf_graph_to_triples,
    rdf_schema_to_triples,
    validate_rdf,
)
from .report import ValidationReport
from .turtle import parse_turtle, parse_turtle_raw, serialize_turtle, skolemize

if TYPE_CHECKING:  # the generator is imported by the roundtrip command only
    from .generator import GeneratorConfig


def _write_outputs(outputs: list[tuple[str, Callable[[TextIO], object]]]) -> None:
    """Write each (path, write) pair so that a failure leaves no partial output.

    Each `write` is called with a UTF-8 text stream on a fresh file next to
    its `path`. The files are renamed over their targets only once all of
    them are written, so a failed run, an encoding error midway included,
    creates no file and keeps any existing one intact; then the paths are
    printed. `main` has refused an output that is not a regular file or
    whose directory does not exist, and two outputs on one file, before any
    input was read.
    """
    staged: list[tuple[str, str]] = []
    try:
        for path, write in outputs:
            directory, name = os.path.split(os.path.abspath(path))
            tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="") as handle:
                staged.append((tmp, path))
                write(handle)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:  # files already renamed are gone: nothing to remove
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    print("wrote", " and ".join(path for path, _ in outputs))


def _refuse_outputs(args) -> None:
    """Refuse a command's `--out-*` path that names something other than a
    regular file, or a file in a directory that does not exist, and two
    paths that name one file.

    `_write_outputs` renames a new file over each target, so it would turn
    a FIFO or a device into a regular file. Each path is resolved with
    `os.path.realpath`, so a link or a `.` does not hide a shared file; the
    first path at fault is named.
    """
    paths = [path for name, path in vars(args).items() if name.startswith("out_") and path]
    targets = [os.path.realpath(path) for path in paths]
    for path, target in zip(paths, targets):
        try:
            mode = os.stat(target).st_mode
        except (FileNotFoundError, NotADirectoryError):
            if not os.path.isdir(os.path.dirname(target)):
                raise RdfPgError(f"{path}: its directory does not exist") from None
        else:
            if stat.S_ISDIR(mode):
                raise RdfPgError(f"{path}: is a directory; each output needs a file")
            if not stat.S_ISREG(mode):
                raise RdfPgError(f"{path}: is not a regular file; each output needs a file")
        if targets.count(target) > 1:
            raise RdfPgError(f"{path}: given for two outputs; each output needs its own file")


def _show_warning(message, *_) -> None:
    """Print a warning to stderr as one "warning:" line.

    `main` shows every warning of a command with it, in place of Python's
    form with the source file, line and code.
    """
    print(f"warning: {message}", file=sys.stderr)


def _recorded(call, *args, path: str | None = None):
    """Return `call(*args)` and the ValidityWarnings it emitted.

    Each other warning is shown as one "warning:" line. With `path`, those
    lines and an RdfPgError raised again start with it, so that a command
    reading several files names the one at fault.
    """
    prefix = "" if path is None else f"{path}: "
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except BlankNodeUnsupported as exc:
            raise RdfPgError(
                f"{prefix}line {exc.line}, column {exc.column}: blank nodes are not "
                "supported; rdfpg convert --skolemize replaces them with IRIs"
            ) from exc
        except RdfPgError as exc:
            if path is None:
                raise
            raise RdfPgError(f"{prefix}{exc}") from exc
        finally:
            for w in caught:
                if not issubclass(w.category, ValidityWarning):
                    _show_warning(f"{prefix}{w.message}")
    return result, [w.message for w in caught if issubclass(w.category, ValidityWarning)]


def _load(path: str, parse: Callable[[str], object]):
    """`parse` of the UTF-8 text of the file at `path`, recorded with the path.

    Every command reads each of its input files here. Text mode reads with
    universal newlines, so `parse` sees each line ending as a line feed. A
    byte that is not UTF-8 is named by its line and column, counted in code
    points as the readers count them.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        # The whole file was decoded in one call, so exc.start is its offset.
        with open(path, "rb") as handle:
            data = handle.read()
        before = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise RdfPgError(
            f"{path}: line {line}, column {column}: byte 0x{data[exc.start]:02x} is not UTF-8"
        ) from None
    return _recorded(parse, text, path=path)[0]


def _print_input_validation(found: list[ValidityWarning]) -> int:
    """Print the input's report, then each ValidityWarning that has none.

    A warning without a report names input elements that the output schema
    cannot hold, so it fails the command as a violation does.
    """
    report = next((w.report for w in found if w.report is not None), ValidationReport())
    print("input validation:", report.summary())
    unplaced = [w for w in found if w.report is None]
    for w in unplaced:
        print(f"warning: {w}")
    return 0 if report.valid and not unplaced else 1


def _cmd_convert(args) -> int:
    read = (lambda text: skolemize(parse_turtle_raw(text))) if args.skolemize else parse_turtle
    instance_triples = _load(args.rdf, read)
    if args.mode == "dep":
        schema = build_rdf_schema(complete_partial_schema(_load(args.schema, read)))
        graph = build_rdf_graph(instance_triples, first_type=args.first_type)
        (pg_schema, pg), found = _recorded(dep.map_database, schema, graph)
    else:
        graph = build_rdf_graph(instance_triples, first_type=args.first_type)
        found = None
        pg_schema, pg = indep.map_database(graph)
    _write_outputs([
        (args.out_pg, lambda out: serialize_pg(pg, out)),
        (args.out_pg_schema, lambda out: out.write(serialize_pg_schema(pg_schema))),
    ])
    if found is None:
        print("input validation: skipped (no schema in this mode)")
        return 0
    return _print_input_validation(found)


def _literals_on_no_edge(graph) -> frozenset:
    """The literals of an RDF graph that no edge holds, which Turtle cannot."""
    return graph.literal_nodes.difference(t.o for t in graph.datatype_edges)


def _cmd_invert(args) -> int:
    pg = _load(args.pg, parse_pg)
    if args.mode == "dep":
        pg_schema = _load(args.pg_schema, parse_pg_schema)
        (schema, graph), found = _recorded(dep.invert_database, pg_schema, pg)
        schema_output = [(args.out_rdf_schema,
                          lambda out: serialize_turtle(rdf_schema_to_triples(schema), out))]
    else:
        if args.pg_schema:
            indep.require_generic_schema(_load(args.pg_schema, parse_pg_schema))
        graph, found, schema_output = indep.invert_graph(pg), None, []
    stray = _literals_on_no_edge(graph)
    if stray:
        raise RdfPgError(f"{args.pg}: literal {min(stray)} is on no edge, "
                         "so Turtle cannot hold it")
    _write_outputs([
        (args.out_rdf, lambda out: serialize_turtle(rdf_graph_to_triples(graph), out)),
        *schema_output,
    ])
    return 0 if found is None else _print_input_validation(found)


def _cmd_validate(args) -> int:
    if args.kind == "rdf":
        schema = build_rdf_schema(complete_partial_schema(_load(args.schema, parse_turtle)))
        graph = build_rdf_graph(_load(args.rdf, parse_turtle), first_type=args.first_type)
        report = validate_rdf(graph, schema)
    else:
        pg_schema = _load(args.pg_schema, parse_pg_schema)
        pg = _load(args.pg, parse_pg)
        report = validate_pg(pg, pg_schema)
    print(report.summary())
    return 0 if report.valid else 1


class RoundtripResult(NamedTuple):
    passed: int
    failed: int
    semantics_failures: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _roundtrip_case(mode: str, case: GeneratorConfig, out=None) -> tuple[bool, bool]:
    """Convert, invert and compare one generated case; return (ok, semantics ok).

    Every generated input must be valid, every produced property graph must
    validate against its produced schema, and the inverse mapping must
    recover the original exactly. Each distinct check runs once: the dep
    route calls the unchecked pieces and checks input and output itself; on
    the indep route, `invert_graph` reads every element in the exact shape
    `map_graph` writes, which implies conformance to the generic schema, so
    that read is the semantics check; a graph out of shape is validated and
    fails it with SchemaViolation. An RdfPgError from either inverse fails
    the case. With `out`, a failing case writes what failed, the error and
    both serializations there, for diffing; each instance's literals that
    no edge holds, which its Turtle cannot show, follow it as comments.
    """
    from .generator import gen_rdf_database, gen_rdf_graph

    error = schema_back = graph_back = None
    if mode == "dep":
        schema, graph = gen_rdf_database(case)
        input_ok = validate_rdf(graph, schema).valid
        pg_schema = dep.map_schema(schema)
        pg = dep.map_graph(graph)
        semantics_ok = validate_pg(pg, pg_schema).valid
        try:
            schema_back = dep.invert_schema(pg_schema)
            graph_back = dep.invert_graph(pg)
        except RdfPgError as exc:
            error = exc
        ok = (
            input_ok
            and semantics_ok
            and error is None
            and rdf_equal(schema, schema_back)
            and rdf_equal(graph, graph_back)
        )
    else:
        graph = gen_rdf_graph(case)
        input_ok = True  # every RDF graph is valid input to this route
        pg = indep.map_graph(graph)
        try:
            graph_back = indep.invert_graph(pg)
        except RdfPgError as exc:
            error = exc
        semantics_ok = not isinstance(error, SchemaViolation)
        ok = error is None and rdf_equal(graph, graph_back)
    if ok or out is None:
        return ok, semantics_ok
    if not input_ok:
        print("generated input does not validate against its schema", file=out)
    if not semantics_ok:
        print("produced graph does not validate against produced schema", file=out)
    if error is not None:
        print(f"inverse raised {type(error).__name__}: {error}", file=out)
    for title, instance in (("original", graph), ("recovered", graph_back)):
        if instance is None:
            continue
        print(f"--- {title} instance ---", file=out)
        print(serialize_turtle(rdf_graph_to_triples(instance)), file=out)
        # repr keeps a line break in a lexical form from ending its comment.
        for literal in sorted(_literals_on_no_edge(instance)):
            print(f"# literal on no edge: {literal.lexical!r}^^<{literal.datatype}>", file=out)
    if mode == "dep":
        print("--- original schema ---", file=out)
        print(serialize_turtle(rdf_schema_to_triples(schema)), file=out)
        if schema_back is not None:
            print("--- recovered schema ---", file=out)
            print(serialize_turtle(rdf_schema_to_triples(schema_back)), file=out)
    return ok, semantics_ok


_NO_STATUS = 255  # in the map of `_split_over_cpus`; a roundtrip status is 0 to 3


def _split_over_cpus(status: Callable[[int], int], count: int) -> list[int | None]:
    """`status(index)` for each index below `count`, as far as the workers got.

    Index i goes to worker i % k, with one worker per CPU this process may
    run on. Worker 0 is this process; it starts its share once the others
    are forked. Each worker writes each index's status into its byte of one
    shared anonymous map, and a forked child leaves through `os._exit`, so
    it never returns into the caller's stack nor flushes its buffers. An
    index whose worker raised, died or could not be started is None, for the
    caller to compute in index order, so that the first exception is the one
    a serial run raises. With one worker or no map, every index is None.
    """
    import mmap
    import threading  # loaded at interpreter startup already

    # One worker, so no fork, where the platform cannot fork or report its
    # CPU set, or where another thread runs: a forked child holds only the
    # calling thread, and the locks the others held stay locked in it.
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        k = min(count, len(os.sched_getaffinity(0)))
    if k <= 1:
        return [None] * count
    try:
        shared = mmap.mmap(-1, count)
    except OSError:  # no memory to spare: the caller runs every case
        return [None] * count
    with shared:
        shared[:] = bytes([_NO_STATUS]) * count

        def run(worker: int) -> None:
            for index in range(worker, count, k):
                shared[index] = status(index)

        children: list[int] = []
        try:
            for worker in range(1, k):
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: the caller runs the rest
                    break
                if pid == 0:
                    try:
                        run(worker)
                    finally:
                        os._exit(0)
                children.append(pid)
            with contextlib.suppress(Exception):  # the caller reruns what is not reported
                run(0)
        except BaseException:
            import signal

            for pid in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid in children:
                os.waitpid(pid, 0)
        return [None if byte == _NO_STATUS else byte for byte in shared[:]]


def run_roundtrip(mode: str, seed: int, count: int, out=None) -> RoundtripResult:
    """Generate `count` databases, convert, invert and compare each one.

    Case i is generated from seed `seed + i` and checked by `_roundtrip_case`.
    The first failure dumps both serializations for diffing; the seed and
    case index identify the case completely.

    The cases are split over the CPUs this process may run on (Linux: the
    `sched_getaffinity` set, which `taskset` limits), one forked worker
    each. Each case is a pure function of its seed, so counts, dumps, output
    and any exception raised are identical to a serial run; a single CPU, a
    platform without fork or a second running thread gives the serial run.
    """
    from .generator import GeneratorConfig

    out = out if out is not None else sys.stdout

    def status(index: int) -> int:
        ok, semantics_ok = _roundtrip_case(mode, GeneratorConfig(seed=seed + index))
        return ok | semantics_ok << 1

    passed = failed = semantics_failures = 0
    for index, verdict in enumerate(_split_over_cpus(status, count)):
        if verdict is None:
            verdict = status(index)
        if not verdict & 2:
            semantics_failures += 1
        if verdict & 1:
            passed += 1
            continue
        failed += 1
        if failed == 1:
            print(f"case {index} (seed {seed + index}) failed; dumps follow", file=out)
            _roundtrip_case(mode, GeneratorConfig(seed=seed + index), out)
    print(f"{passed}/{count} round-trips passed", file=out)
    return RoundtripResult(passed, failed, semantics_failures)


def _cmd_roundtrip(args) -> int:
    return 0 if run_roundtrip(args.mode, args.seed, args.count).ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdfpg",
        description="Convert RDF databases to property graph databases and back.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="Turtle RDF to property graph JSON")
    convert.add_argument("--mode", choices=("dep", "indep"), required=True,
                         help="dep: derive the PG schema from an RDF schema; "
                              "indep: use the built-in generic schema")
    convert.add_argument("--rdf", required=True, metavar="TTL", help="instance Turtle file")
    convert.add_argument("--schema", metavar="TTL", help="schema Turtle file (dep mode)")
    convert.add_argument("--out-pg", required=True, metavar="JSON")
    convert.add_argument("--out-pg-schema", required=True, metavar="JSON")
    convert.add_argument("--skolemize", action="store_true",
                         help="replace blank nodes with IRIs instead of rejecting them")
    convert.add_argument("--first-type", choices=("lexicographic",),
                         help="tie-break subjects with several type triples")
    convert.set_defaults(handler=_cmd_convert)

    invert = sub.add_parser("invert", help="property graph JSON back to Turtle RDF")
    invert.add_argument("--mode", choices=("dep", "indep"), required=True)
    invert.add_argument("--pg", required=True, metavar="JSON")
    invert.add_argument("--pg-schema", metavar="JSON")
    invert.add_argument("--out-rdf", required=True, metavar="TTL")
    invert.add_argument("--out-rdf-schema", metavar="TTL")
    invert.set_defaults(handler=_cmd_invert)

    validate = sub.add_parser("validate", help="check an instance against a schema")
    validate.add_argument("kind", choices=("rdf", "pg"))
    validate.add_argument("--rdf", metavar="TTL")
    validate.add_argument("--schema", metavar="TTL")
    validate.add_argument("--pg", metavar="JSON")
    validate.add_argument("--pg-schema", metavar="JSON")
    validate.add_argument("--first-type", choices=("lexicographic",))
    validate.set_defaults(handler=_cmd_validate)

    roundtrip = sub.add_parser("roundtrip", help="machine-check the conversion properties")
    roundtrip.add_argument("--mode", choices=("dep", "indep"), required=True)
    roundtrip.add_argument("--seed", type=int, default=0)
    roundtrip.add_argument("--count", type=int, required=True)
    roundtrip.set_defaults(handler=_cmd_roundtrip)
    return parser


def _check_usage(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "convert":
        if args.mode == "dep" and not args.schema:
            parser.error("convert --mode dep requires --schema")
        if args.mode == "indep" and args.schema:
            parser.error("convert --mode indep takes no --schema: it uses the generic schema")
    if args.command == "invert":
        if args.mode == "dep" and not (args.pg_schema and args.out_rdf_schema):
            parser.error("invert --mode dep requires --pg-schema and --out-rdf-schema")
        if args.mode == "indep" and args.out_rdf_schema:
            parser.error("invert --mode indep takes no --out-rdf-schema: it writes no schema")
    if args.command == "validate":
        if args.kind == "rdf" and not (args.rdf and args.schema):
            parser.error("validate rdf requires --rdf and --schema")
        if args.kind == "pg" and not (args.pg and args.pg_schema):
            parser.error("validate pg requires --pg and --pg-schema")
    if args.command == "roundtrip" and args.count < 1:
        parser.error("--count must be at least 1")


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic collector off, then put its state back.

    Each warning the command raises is shown, every time it is raised, as
    one "warning:" line. An output path that names anything but a regular
    file, or a file in a missing directory, and two outputs on one file,
    are refused before any input is read.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _check_usage(parser, args)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            try:
                _refuse_outputs(args)
                return args.handler(args)
            except (RdfPgError, OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
