"""rdfpg benchmark: runs the rdfpg CLI the way a user does and checks every output.

    python3 bench/run.py --workload dep-large --seed 1 --seconds 30 --trace 0

Workloads (see bench/spec.py): dep-large and indep-multi run `rdfpg convert`
then `rdfpg invert` on an exact-shape corpus made from the seed
(bench/corpus.py); check-small runs `rdfpg roundtrip --count 250` for each
route with the seed. Each repetition runs both commands, one subprocess at a
time; repetitions go on until the commands have run for --seconds.

--trace 0 reports the end-to-end metrics: per command the median of
its times and of the child's ru_maxrss, and the median set-up time. Times
are in reference seconds: wall time scaled by a CPU-speed gauge read around
every timed step of the run (see _gauged); raw wall times are printed too.
--trace 1 reports the per-layer metrics instead: the same argv run in-process
through `rdfpg.cli.main`, untraced and traced (bench/tracing.py), then once
more under tracemalloc for the per-stage memory peaks.

Outputs are checked after every command, outside the timed region: exit
status, PG validity against the produced PG schema, the inverted Turtle
against the input, and exact element counts. An output byte-identical to
one already checked is not parsed again. Every failure counts in
`failed`; the command then exits 1. The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spec  # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
IMPORT_CLI = [sys.executable, "-c", "import rdfpg.cli"]
# What _gauge() reads when the CPU of a shared 2-vCPU VM (Python 3.11) runs
# at its fast speed; times scaled by it are "reference seconds".
GAUGE_REFERENCE_S = 0.008


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _run_child(argv: list[str], out: Path) -> tuple[float, int, float, str]:
    """Run one process; returns (wall seconds, exit code, peak RSS in MB, stdout)."""
    with open(out, "w+b") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=_child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sink.seek(0)
        text = sink.read().decode("utf-8", "replace")
    return wall, proc.returncode, usage.ru_maxrss / 1024, text


class Workload:
    """Inputs, commands and output checks of one workload in a work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.builder = corpus.BUILDERS.get(name)
        self.corpus: corpus.Corpus | None = None
        self.digests: dict[str, str] = {}
        self._checked: set[tuple] = set()
        self._input_triples = None
        self._input_schema = None

    def path(self, name: str) -> Path:
        return self.work / name

    def setup(self) -> float:
        """Generate and write the inputs, then start the CLI once; returns seconds."""
        start = time.perf_counter()
        self.work.mkdir(parents=True, exist_ok=True)
        digests = {}
        if self.builder is not None:
            self.corpus = self.builder(self.seed)
            for file_name, text in self.corpus.files.items():
                self.path(file_name).write_text(text, encoding="utf-8")
                digests[file_name] = corpus.digest(text)
        _, code, _, text = _run_child(IMPORT_CLI, self.path("warm.out"))
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"cannot import rdfpg.cli from {SRC}:\n{text}")
        if self.digests and digests != self.digests:
            raise RuntimeError("the same seed gave different inputs")
        self.digests = digests
        return elapsed

    def commands(self) -> dict[str, list[str]]:
        p = lambda name: str(self.path(name))  # noqa: E731
        if self.name == "check-small":
            common = ["--count", str(spec.CHECK_CASES), "--seed", str(self.seed)]
            return {"cli1": ["roundtrip", "--mode", "dep", *common],
                    "cli2": ["roundtrip", "--mode", "indep", *common]}
        mode = "dep" if self.name == "dep-large" else "indep"
        convert = ["convert", "--mode", mode, "--rdf", p("instance.ttl"),
                   "--out-pg", p("out.pg.json"), "--out-pg-schema", p("out.pgschema.json")]
        invert = ["invert", "--mode", mode, "--pg", p("out.pg.json"),
                  "--pg-schema", p("out.pgschema.json"), "--out-rdf", p("out.ttl")]
        if mode == "dep":
            convert += ["--schema", p("schema.ttl")]
            invert += ["--out-rdf-schema", p("out.schema.ttl")]
        return {"cli1": convert, "cli2": invert}

    def outputs(self, cli: str) -> list[Path]:
        if self.name == "check-small":
            return []
        if cli == "cli1":
            return [self.path("out.pg.json"), self.path("out.pgschema.json")]
        outs = [self.path("out.ttl")]
        if self.name == "dep-large":
            outs.append(self.path("out.schema.ttl"))
        return outs

    def clear_outputs(self, cli: str) -> None:
        for out in self.outputs(cli):
            out.unlink(missing_ok=True)

    # -- checks -------------------------------------------------------------
    def inputs(self):
        from rdfpg import build_rdf_schema, complete_partial_schema, parse_turtle

        if self._input_triples is None:
            text = self.path("instance.ttl").read_text(encoding="utf-8")
            self._input_triples = parse_turtle(text)
            if self.name == "dep-large":
                schema_triples = parse_turtle(self.path("schema.ttl").read_text(encoding="utf-8"))
                self._input_schema = build_rdf_schema(complete_partial_schema(schema_triples))
        return self._input_triples, self._input_schema

    def check(self, cli: str, code: int, stdout: str) -> list[str]:
        """Problems with the output of one command (empty when correct)."""
        if code != 0:
            return [f"{cli} exited with {code}: {stdout[-500:]}"]
        if self.name == "check-small":
            expected = f"{spec.CHECK_CASES}/{spec.CHECK_CASES} round-trips passed"
            return [] if expected in stdout else [f"{cli} did not print {expected!r}"]
        outs = self.outputs(cli)
        missing = [str(o) for o in outs if not o.is_file()]
        if missing:
            return [f"{cli} wrote no {', '.join(missing)}"]
        key = (cli, *(_sha256(o) for o in outs))
        if key in self._checked:
            return []
        try:
            problems = self._check_convert(*outs) if cli == "cli1" else self._check_invert(*outs)
        except Exception as exc:  # malformed output is a failed check, not a crash
            problems = [f"{cli} output could not be read back: {exc!r}"]
        if not problems:
            self._checked.add(key)
        return problems

    def _check_convert(self, pg_path: Path, pg_schema_path: Path) -> list[str]:
        from rdfpg import parse_pg, parse_pg_schema, validate_pg

        pg_text = pg_path.read_text(encoding="utf-8")
        report = validate_pg(parse_pg(pg_text),
                             parse_pg_schema(pg_schema_path.read_text(encoding="utf-8")))
        problems = [] if report.valid else [f"PG output is invalid: {report.summary()[:500]}"]
        counts = self.pg_counts(pg_text)
        expected = {k: self.corpus.counts[k] for k in counts}
        if counts != expected:
            problems.append(f"PG element counts {counts} differ from the corpus shape {expected}")
        return problems

    def _check_invert(self, rdf_path: Path, schema_path: Path | None = None) -> list[str]:
        from rdfpg import build_rdf_schema, complete_partial_schema, parse_turtle, rdf_equal

        triples, schema = self.inputs()
        problems = []
        if parse_turtle(rdf_path.read_text(encoding="utf-8")) != triples:
            problems.append("inverted instance differs from the input instance")
        if schema_path is not None:
            back = build_rdf_schema(complete_partial_schema(
                parse_turtle(schema_path.read_text(encoding="utf-8"))))
            if not rdf_equal(back, schema):
                problems.append("inverted schema differs from the input schema")
        return problems

    @staticmethod
    def pg_counts(pg_text: str) -> dict[str, int]:
        document = json.loads(pg_text)
        elements = document["nodes"] + document["edges"]
        return {
            "pg_nodes": len(document["nodes"]),
            "pg_edges": len(document["edges"]),
            "pg_properties": sum(len(e["properties"]) for e in elements),
        }

    def identity(self) -> dict[str, float]:
        """Exact counts that prove the workload did not change (0 on check-small,
        or when convert wrote no readable output, already counted as a failure)."""
        none = {"rdf_graph.triples": 0, "pg_graph.nodes": 0, "pg_graph.edges": 0,
                "pg_graph.properties": 0, "turtle.input_bytes": 0,
                "pg_json.pg_bytes": 0, "pg_json_bytes_per_ttl_byte": 0}
        if self.corpus is None or not self.path("out.pg.json").is_file():
            return none
        ttl_bytes = self.path("instance.ttl").stat().st_size
        pg_text = self.path("out.pg.json").read_text(encoding="utf-8")
        pg_bytes = len(pg_text.encode("utf-8"))
        try:
            counts = self.pg_counts(pg_text)
        except (ValueError, KeyError, TypeError):  # already counted as a failed check
            return none
        counts_in = self.corpus.counts
        return {
            "rdf_graph.triples": counts_in["instance_triples"] + counts_in.get("schema_triples", 0),
            "pg_graph.nodes": counts["pg_nodes"],
            "pg_graph.edges": counts["pg_edges"],
            "pg_graph.properties": counts["pg_properties"],
            "turtle.input_bytes": ttl_bytes,
            "pg_json.pg_bytes": pg_bytes,
            "pg_json_bytes_per_ttl_byte": pg_bytes / ttl_bytes,
        }


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED: {problem}", flush=True)


def _gauge() -> float:
    """Seconds a fixed pure-Python task takes now (median of three), as a
    reading of the CPU's current speed. The task does dict, sort and set work
    like rdfpg's and no rdfpg code, so changes to the program cannot move it."""
    readings = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict[str, list[int]] = {}
        for i in range(30_000):
            table.setdefault(f"k{i % 997}", []).append(i)
        sorted(table, key=lambda k: (len(table[k]), k))
        frozenset((k, len(v)) for k, v in table.items())
        readings.append(time.perf_counter() - start)
    return statistics.median(readings)


def _gauged(step, readings: list[float]):
    """Run `step()` with a gauge reading appended to `readings` before and after.

    Times are reported in reference seconds: the run's median wall time times
    GAUGE_REFERENCE_S / the mean of all the run's readings. On a shared 2-vCPU
    VM the CPU ran at one of two speeds, one about half the other, switching
    every second or so, and over tens of minutes the share of slow time
    drifted: the wall time of one command rose by half within an hour. A
    reading lasts ~30 ms and so catches one speed; their mean follows the share
    of slow time, which a command of a second or more averages over in the
    same way. The scaling takes the drift out; raw wall times are printed too.
    """
    readings.append(_gauge())
    try:
        return step()
    finally:
        readings.append(_gauge())


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"


def run_end_to_end(w: Workload, seconds: float, tally: Tally,
                   setups: list[float], readings: list[float]) -> dict[str, float]:
    commands = w.commands()
    walls: dict[str, list[float]] = {cli: [] for cli in commands}
    rss: dict[str, list[float]] = {cli: [] for cli in commands}
    measured = 0.0
    while not walls["cli1"] or measured < seconds:
        for cli, args in commands.items():
            w.clear_outputs(cli)
            wall, code, peak, text = _gauged(lambda: _run_child(
                [sys.executable, "-m", "rdfpg.cli", *args], w.path(f"{cli}.out")), readings)
            measured += wall
            walls[cli].append(wall)
            rss[cli].append(peak)
            tally.record(w.check(cli, code, text))
    for cli, args in commands.items():
        print(f"sample {cli} [rdfpg {' '.join(args[:3])}] wall_s "
              + " ".join(f"{v:.4f}" for v in walls[cli]) + f" ({_quartiles(walls[cli])})")
        print(f"sample {cli} peak_rss_mb " + " ".join(f"{v:.1f}" for v in rss[cli]))
    gauge = statistics.mean(readings)
    scale = GAUGE_REFERENCE_S / gauge
    print(f"gauge_s mean {gauge:.5f} ({_quartiles(readings)}); "
          f"times below are wall times x {scale:.4f}")
    metrics = {"setup_s": statistics.median(setups) * scale}
    for cli in commands:
        metrics[f"{cli}_s"] = statistics.median(walls[cli]) * scale
        metrics[f"{cli}_peak_rss_mb"] = statistics.median(rss[cli])
    if w.name == "check-small":
        print(f"derived check_dep_cases_per_s {spec.CHECK_CASES / metrics['cli1_s']:.4f} 1/s")
        print(f"derived check_indep_cases_per_s {spec.CHECK_CASES / metrics['cli2_s']:.4f} 1/s")
        print(f"derived check_peak_rss_mb {max(rss['cli1'] + rss['cli2']):.1f} MB")
    else:
        print(f"derived convert_s {metrics['cli1_s']:.4f} s; invert_s {metrics['cli2_s']:.4f} s")
        print(f"derived convert_peak_rss_mb {metrics['cli1_peak_rss_mb']:.1f} MB; "
              f"invert_peak_rss_mb {metrics['cli2_peak_rss_mb']:.1f} MB")
        identity = w.identity()
        print(f"derived pg_json_bytes_per_ttl_byte {identity['pg_json_bytes_per_ttl_byte']:.6f}")
    return metrics


def _in_process(args: list[str]) -> tuple[int, str]:
    import rdfpg.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = rdfpg.cli.main(args)
        except Exception:  # a crash of the program under test is a failed operation
            traceback.print_exc(file=sink)
            code = 3
    return code, sink.getvalue()


def run_traced(w: Workload, seconds: float, tally: Tally) -> tuple[dict[str, float], list[dict]]:
    import tracing

    commands = w.commands()
    tracer = tracing.Tracer()
    tracer.install()
    if tracer.missing:
        print("trace: not found, not traced: " + ", ".join(tracer.missing))
    reps: list[dict[str, float]] = []
    spans: list[dict] = []
    measured = 0.0
    try:
        while not reps or measured < seconds:
            untraced = traced = 0.0
            tracer.reset()
            for cli, args in commands.items():
                for active in (False, True):
                    w.clear_outputs(cli)
                    gc.collect()
                    before = dict(tracer.counts)
                    tracer.run_id += 1
                    tracer.active = active
                    start = time.perf_counter()
                    try:
                        code, text = _in_process(args)
                    finally:
                        tracer.active = False
                    elapsed = time.perf_counter() - start
                    measured += elapsed
                    if active:
                        traced += elapsed
                        if not reps:
                            diff = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
                            print(f"trace {cli} [rdfpg {' '.join(args[:3])}] calls "
                                  + " ".join(f"{k}={v}" for k, v in sorted(diff.items())))
                    else:
                        untraced += elapsed
                    tally.record(w.check(cli, code, text))
            rep = tracer.layer_metrics()
            rep["trace.overhead_s"] = traced - untraced
            print(f"trace rep {len(reps) + 1}: untraced {untraced:.4f} s, traced {traced:.4f} s, "
                  f"self times sum {sum(tracer.self_times().values()):.4f} s")
            reps.append(rep)
            spans.extend(tracer.dump())
    finally:
        tracer.uninstall()

    metrics = {}
    for name in reps[0]:
        values = [rep[name] for rep in reps]
        if name.endswith("_calls"):
            tally.record([] if len(set(values)) == 1 else
                         [f"trace count {name} differs between repetitions: {values}"])
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)

    peaks: dict[str, float] = {}
    if w.corpus is not None:
        for cli, args in commands.items():
            w.clear_outputs(cli)
            gc.collect()
            result = {}
            peaks.update(tracing.memory_pass(lambda: result.update(out=_in_process(args))))
            tally.record(w.check(cli, *result["out"]))
    for stage in ("parse_turtle", "build_rdf_graph", "map_database", "serialize_pg",
                  "parse_pg", "invert", "serialize_turtle"):
        metrics[f"{stage}.peak_mb"] = peaks.get(stage, 0.0)

    startups = []
    for _ in range(STARTUP_REPEATS):
        wall, code, _, text = _run_child(IMPORT_CLI, w.path("startup.out"))
        tally.record([] if code == 0 else [f"import rdfpg.cli failed: {text[-500:]}"])
        startups.append(wall)
    metrics["cli.startup_s"] = statistics.median(startups)
    metrics.update(w.identity())
    return metrics, spans


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rdfpg" / "cli.py").is_file():
        print(f"error: no rdfpg sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    w = Workload(args.workload, args.seed, work)
    tally = Tally()
    try:
        readings: list[float] = []
        setups = [_gauged(w.setup, readings) for _ in range(SETUP_REPEATS)]
        print(f"env python {sys.version.split()[0]} nproc {os.cpu_count()} "
              f"git {_git_sha()} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}")
        info = spec.WORKLOADS[args.workload]
        print(f"workload {args.workload} seed {args.seed} sizes {info['sizes']}: {info['why']}")
        for file_name, digest in sorted(w.digests.items()):
            print(f"input {file_name} sha256 {digest}")
        if w.corpus is not None:
            print("input counts " + " ".join(f"{k}={v}" for k, v in w.corpus.counts.items()))
            triples, _ = w.inputs()
            expected = w.corpus.counts["instance_triples"]
            tally.record([] if len(triples) == expected else
                         [f"input parses to {len(triples)} triples, built with {expected}"])
        print("sample setup wall_s " + " ".join(f"{v:.4f}" for v in setups))

        if args.trace:
            metrics, spans = run_traced(w, args.seconds, tally)
            work_root.joinpath(f"spans-{args.workload}-s{args.seed}.json").write_text(
                json.dumps(spans), encoding="utf-8")
            for name, (unit, _, layer, moves, on) in spec.PER_LAYER.items():
                print(f"metric {name} {metrics[name]} {unit} (layer {layer}; moves {moves} "
                      f"on {', '.join(on)})")
            result = {name: {"value": metrics[name], "unit": spec.PER_LAYER[name][0]}
                      for name in spec.RESULT_PER_LAYER}
        else:
            metrics = run_end_to_end(w, args.seconds, tally, setups, readings)
            for name, (unit, _, _) in spec.END_TO_END.items():
                print(f"metric {name} {metrics[name]} {unit} ({spec.END_TO_END_MEANING[name]})")
            result = {name: {"value": metrics[name], "unit": unit}
                      for name, (unit, _, _) in spec.END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"failed_ratio {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} of {tally.attempted} operations)")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
