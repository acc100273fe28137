"""Command-line interface.

Subcommands:
  convert    Turtle RDF -> property graph JSON (dep or indep mode)
  invert     property graph JSON -> Turtle RDF
  validate   check an instance against a schema (rdf or pg)
  roundtrip  generate databases, convert, invert and compare

Exit codes: 0 success, 1 validation problems, 2 usage or processing errors.
Set RDFPG_COLOR=1 to colorize diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TextIO

from . import schema_dependent as dep
from . import schema_independent as indep
from .errors import RdfPgError, SchemaViolation, ValidityWarning
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


def _color_enabled() -> bool:
    return os.environ.get("RDFPG_COLOR", "").lower() in ("1", "true", "yes", "always")


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _print_report(report: ValidationReport, out) -> None:
    if report.valid:
        print(_paint("valid", "32"), file=out)
    else:
        print(_paint(f"invalid: {len(report.violations)} violation(s)", "31"), file=out)
        for v in report.violations:
            print(f"  {_paint('[' + v.rule + ']', '31')} {v.element}: {v.message}", file=out)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_outputs(outputs: list[tuple[str, Callable[[TextIO], object]]]) -> None:
    """Write each (path, write) pair so that a failure leaves no partial output.

    Each `write` is called with a UTF-8 text stream on a fresh file next to
    its `path`. The files are renamed over their targets only once all of
    them are written, so a failed run, an encoding error midway included,
    creates no file and keeps any existing one intact.
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


def _load_turtle(path: str, skolemize_blanks: bool):
    text = _read_text(path)
    if skolemize_blanks:
        return skolemize(parse_turtle_raw(text))
    return parse_turtle(text)


def _checked(entry_point, *args):
    """Call a dep route entry point; return its result and the ValidityWarnings it emitted.

    The entry point checks its own input and reports a failure as a
    ValidityWarning carrying the report. Other warnings are shown as usual.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ValidityWarning)
        result = entry_point(*args)
    found = []
    for w in caught:
        if issubclass(w.category, ValidityWarning):
            found.append(w.message)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return result, found


def _print_input_validation(found: list[ValidityWarning]) -> int:
    """Print the input's report, then each ValidityWarning that has none.

    A warning without a report names input elements that the output schema
    cannot hold, so it fails the command as a violation does.
    """
    report = next((w.report for w in found if w.report is not None), ValidationReport())
    print("input validation:", end=" ")
    _print_report(report, sys.stdout)
    unplaced = [w for w in found if w.report is None]
    for w in unplaced:
        print(f"{_paint('warning:', '33')} {w}")
    return 0 if report.valid and not unplaced else 1


def _cmd_convert(args) -> int:
    instance_triples = _load_turtle(args.rdf, args.skolemize)
    if args.mode == "dep":
        schema_triples = _load_turtle(args.schema, args.skolemize)
        schema = build_rdf_schema(complete_partial_schema(schema_triples))
        graph = build_rdf_graph(instance_triples, first_type=args.first_type)
        (pg_schema, pg), found = _checked(dep.map_database, schema, graph)
    else:
        graph = build_rdf_graph(instance_triples, first_type=args.first_type)
        found = None
        pg_schema, pg = indep.map_database(graph)
    _write_outputs([
        (args.out_pg, lambda out: serialize_pg(pg, out)),
        (args.out_pg_schema, lambda out: out.write(serialize_pg_schema(pg_schema))),
    ])
    print(f"wrote {args.out_pg} and {args.out_pg_schema}")
    if found is None:
        print("input validation: skipped (no schema in this mode)")
        return 0
    return _print_input_validation(found)


def _cmd_invert(args) -> int:
    pg = parse_pg(_read_text(args.pg))
    if args.mode == "dep":
        pg_schema = parse_pg_schema(_read_text(args.pg_schema))
        (schema, graph), found = _checked(dep.invert_database, pg_schema, pg)
        _write_outputs([
            (args.out_rdf, lambda out: serialize_turtle(rdf_graph_to_triples(graph), out)),
            (args.out_rdf_schema,
             lambda out: serialize_turtle(rdf_schema_to_triples(schema), out)),
        ])
        print(f"wrote {args.out_rdf} and {args.out_rdf_schema}")
        return _print_input_validation(found)
    if args.pg_schema:
        indep.require_generic_schema(parse_pg_schema(_read_text(args.pg_schema)))
    graph = indep.invert_graph(pg)
    _write_outputs([
        (args.out_rdf, lambda out: serialize_turtle(rdf_graph_to_triples(graph), out)),
    ])
    print(f"wrote {args.out_rdf}")
    return 0


def _cmd_validate(args) -> int:
    if args.kind == "rdf":
        schema = build_rdf_schema(complete_partial_schema(parse_turtle(_read_text(args.schema))))
        graph = build_rdf_graph(parse_turtle(_read_text(args.rdf)), first_type=args.first_type)
        report = validate_rdf(graph, schema)
    else:
        pg_schema = parse_pg_schema(_read_text(args.pg_schema))
        pg = parse_pg(_read_text(args.pg))
        report = validate_pg(pg, pg_schema)
    _print_report(report, sys.stdout)
    return 0 if report.valid else 1


@dataclass
class RoundtripResult:
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
    the indep route, `invert_graph`'s own input check against the generic
    schema is the semantics check. With `out`, a failing case writes what
    failed and both serializations there, for diffing.
    """
    from .generator import gen_rdf_database, gen_rdf_graph

    if mode == "dep":
        schema, graph = gen_rdf_database(case)
        input_ok = validate_rdf(graph, schema).valid
        pg_schema = dep.map_schema(schema)
        pg = dep.map_graph(graph)
        semantics_ok = validate_pg(pg, pg_schema).valid
        schema_back = dep.invert_schema(pg_schema)
        graph_back = dep.invert_graph(pg)
        ok = (
            input_ok
            and semantics_ok
            and rdf_equal(schema, schema_back)
            and rdf_equal(graph, graph_back)
        )
    else:
        graph = gen_rdf_graph(case)
        input_ok = True  # every RDF graph is valid input to this route
        pg = indep.map_graph(graph)
        try:
            graph_back = indep.invert_graph(pg)
            semantics_ok = True
        except SchemaViolation:
            graph_back = None
            semantics_ok = False
        ok = semantics_ok and rdf_equal(graph, graph_back)
    if ok or out is None:
        return ok, semantics_ok
    if not input_ok:
        print("generated input does not validate against its schema", file=out)
    if not semantics_ok:
        print("produced graph does not validate against produced schema", file=out)
    print("--- original instance ---", file=out)
    print(serialize_turtle(rdf_graph_to_triples(graph)), file=out)
    if graph_back is not None:
        print("--- recovered instance ---", file=out)
        print(serialize_turtle(rdf_graph_to_triples(graph_back)), file=out)
    if mode == "dep":
        print("--- original schema ---", file=out)
        print(serialize_turtle(rdf_schema_to_triples(schema)), file=out)
        print("--- recovered schema ---", file=out)
        print(serialize_turtle(rdf_schema_to_triples(schema_back)), file=out)
    return ok, semantics_ok


def _fork_worker(status: Callable[[int], int], indices: range) -> tuple[int, int]:
    """Fork a child that computes `status` of each index; return (pid, read end).

    The child writes one status byte per index, in order, to a pipe, or
    nothing if an index raises, and leaves through `os._exit`: it never
    returns into the caller's stack nor flushes the caller's buffers. What
    arrives is a prefix of the share, short if the child died.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            report = bytes(status(index) for index in indices)
            while report:
                report = report[os.write(write_end, report):]
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, read_end


def _split_over_cpus(status: Callable[[int], int], count: int) -> list[int | None]:
    """`status(index)` for each index below `count`, as far as the workers got.

    Index i goes to worker i % k, with one worker per CPU this process may
    run on. Worker 0 is this process; the others are forked children that
    report over a pipe. An index whose worker raised, died or could not be
    started is None, for the caller to compute in index order, so that the
    first exception is the one a serial run raises. With one worker, every
    index is None: nothing runs here, and the caller's loop is the serial
    run.
    """
    import threading  # loaded at interpreter startup already

    # One worker, so no fork, where the platform cannot fork or report its
    # CPU set, or where another thread runs: a forked child holds only the
    # calling thread, and the locks the others held stay locked in it.
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        k = min(count, len(os.sched_getaffinity(0)))
    statuses: list[int | None] = [None] * count
    if k <= 1:
        return statuses
    children: dict[int, tuple[int, int]] = {}  # worker -> (pid, read end)
    try:
        for worker in range(1, k):
            try:
                children[worker] = _fork_worker(status, range(worker, count, k))
            except OSError:  # no process or pipe to spare: the caller runs the rest
                break
        own = []
        with contextlib.suppress(Exception):  # the caller reruns what is not reported
            for index in range(0, count, k):
                own.append(status(index))
        reports = {0: own}
        for worker, (_, fd) in children.items():
            with open(fd, "rb", closefd=False) as pipe:
                reports[worker] = pipe.read()
    except BaseException:
        import signal

        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children.values():
            os.close(fd)
            os.waitpid(pid, 0)
    for worker, report in reports.items():
        statuses[worker:worker + len(report) * k:k] = report
    return statuses


def run_roundtrip(
    mode: str,
    seed: int,
    count: int,
    config: GeneratorConfig | None = None,
    out=None,
) -> RoundtripResult:
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
    base = config or GeneratorConfig()

    def status(index: int) -> int:
        ok, semantics_ok = _roundtrip_case(mode, base.with_seed(seed + index))
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
            _roundtrip_case(mode, base.with_seed(seed + index), out)
    print(f"{passed}/{count} round-trips passed", file=out)
    return RoundtripResult(passed, failed, semantics_failures)


def _cmd_roundtrip(args) -> int:
    from .generator import GeneratorConfig

    config = GeneratorConfig(
        max_classes=args.max_classes,
        max_properties=args.max_properties,
        max_resources=args.max_resources,
        max_triples=args.max_triples,
    )
    result = run_roundtrip(args.mode, args.seed, args.count, config)
    return 0 if result.ok else 1


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
    roundtrip.add_argument("--max-classes", type=int, default=10)
    roundtrip.add_argument("--max-properties", type=int, default=15)
    roundtrip.add_argument("--max-resources", type=int, default=30)
    roundtrip.add_argument("--max-triples", type=int, default=100)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_usage(parser, args)
    try:
        return args.handler(args)
    except (RdfPgError, OSError, ValueError) as exc:
        print(_paint(f"error: {exc}", "31"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
