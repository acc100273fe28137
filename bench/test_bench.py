"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
# Scratch directories stay inside the checkout, like the benchmark's own files.
SCRATCH = ROOT / ".bench_work"

import corpus  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
from rdfpg import build_rdf_graph, parse_turtle  # noqa: E402


def _scratch():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_digests_and_exact_counts(self):
        for name, build in corpus.BUILDERS.items():
            with self.subTest(workload=name):
                first, again, other = build(7), build(7), build(8)
                digests = {f: corpus.digest(t) for f, t in first.files.items()}
                self.assertEqual(digests, {f: corpus.digest(t) for f, t in again.files.items()})
                self.assertNotEqual(digests, {f: corpus.digest(t) for f, t in other.files.items()})
                self.assertEqual(first.counts, other.counts)
                for built in (first, other):
                    triples = parse_turtle(built.files["instance.ttl"])
                    self.assertEqual(len(triples), built.counts["instance_triples"])
                    graph = build_rdf_graph(triples)
                    self.assertEqual(len(graph.resource_nodes), built.counts["resources"])
                    if "schema.ttl" in built.files:
                        schema = parse_turtle(built.files["schema.ttl"])
                        self.assertEqual(len(schema), built.counts["schema_triples"])
                    else:
                        self.assertEqual(len(graph.literal_nodes), built.counts["literals"])

    def test_turtle_writer_keeps_awkward_literals_and_iris(self):
        subject = corpus.DATA_NS + "item.1"
        objects = [(word, corpus.XSD_NS + "string") for word in corpus._WORDS]
        objects += [("v1", dt) for dt in corpus.CUSTOM_DATATYPES]
        objects.append(corpus.DATA_NS + "r2")
        text = corpus.write_turtle([(subject, corpus.VOC_NS + "p", o) for o in objects], "test")
        self.assertIn("<http://bench.example.org/data/item.1>", text)
        self.assertIn(" , ", text)
        parsed = {(t.o.lexical, t.o.datatype.value) if hasattr(t.o, "lexical") else t.o.value
                  for t in parse_turtle(text)}
        self.assertEqual(parsed, set(objects))


class ContractTest(unittest.TestCase):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_benchmark_json_matches_spec(self):
        b = self.benchmark
        self.assertEqual([w["name"] for w in b["workloads"]], list(spec.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"]) for m in b["end_to_end"]},
                         spec.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in b["per_layer"]},
                         {n: spec.PER_LAYER[n][:2] for n in spec.RESULT_PER_LAYER})

    def _result(self, trace: int) -> tuple[int, dict, str]:
        out = io.StringIO()
        cases, spec.CHECK_CASES = spec.CHECK_CASES, 5
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "check-small", "--seed", "3",
                                 "--seconds", "0.01", "--trace", str(trace)])
        finally:
            spec.CHECK_CASES = cases
        text = out.getvalue()
        return code, json.loads(text.strip().splitlines()[-1]), text

    def test_printed_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                code, result, text = self._result(trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                expected = {m["name"]: m["unit"] for m in self.benchmark[key]}
                self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, expected)
                if trace:
                    for name in spec.PER_LAYER:
                        self.assertIn(f"metric {name} ", text)

    def test_malformed_output_is_a_failed_check(self):
        with _scratch() as tmp:
            w = run.Workload("indep-multi", 1, Path(tmp) / "work")
            w.setup()
            for out in w.outputs("cli1"):
                out.write_text("{not json", encoding="utf-8")
            self.assertTrue(w.check("cli1", 0, ""))
            self.assertEqual(w.identity()["pg_graph.nodes"], 0)

    def test_fails_without_sources(self):
        with _scratch() as tmp:
            shutil.copytree(HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "check-small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
