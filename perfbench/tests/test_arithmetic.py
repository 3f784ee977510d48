"""Self-tests of the benchmark's arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402
from loadgen import open_loop  # noqa: E402


class TestTailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.tail_percentile(values, 99), 990)
        with self.assertRaises(stats.InsufficientSamples):
            stats.tail_percentile(values[:-1], 99)

    def test_nearest_rank_is_exact_at_boundaries(self):
        # 0.99 * 1000 is 989.9999999999999 in floating point.
        self.assertEqual(stats.nearest_rank(1000, 99), 990)
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([]), 0.0)


class TestSelfTime(unittest.TestCase):
    def span(self, span_id, parent, start, end):
        return {"pid": 1, "id": span_id, "parent": parent,
                "start": start, "end": end}

    def test_overlapping_children_count_once(self):
        spans = [
            self.span(1, None, 0, 100),
            self.span(2, 1, 10, 40),
            self.span(3, 1, 30, 60),    # overlaps span 2 by 10
            self.span(4, 1, 90, 120),   # runs past its parent's end
            self.span(5, 2, 15, 20),    # grandchild of span 1
        ]
        selfs = stats.self_times(spans)
        # Children cover [10, 60] and [90, 100] of the parent: 60.
        self.assertEqual(selfs[(1, 1)], 40)
        self.assertEqual(selfs[(1, 2)], 25)
        self.assertEqual(selfs[(1, 3)], 30)
        self.assertEqual(selfs[(1, 5)], 5)

    def test_same_ids_in_other_processes_do_not_mix(self):
        spans = [self.span(1, None, 0, 10),
                 dict(self.span(2, 1, 0, 10), pid=2)]
        self.assertEqual(stats.self_times(spans)[(1, 1)], 10)


class TestPss(unittest.TestCase):
    ROLLUP = (
        "55d0c8a8e000-7ffd5e7f6000 ---p 00000000 00:00 0   [rollup]\n"
        "Rss:               38112 kB\n"
        "Pss:               21377 kB\n"
        "Pss_Anon:          12004 kB\n"
        "Pss_File:           9373 kB\n"
        "Pss_Shmem:             0 kB\n"
        "Shared_Clean:      17500 kB\n"
    )

    def test_reads_total_not_breakdown(self):
        self.assertEqual(stats.parse_pss_kb(self.ROLLUP), 21377)

    def test_missing_line_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.parse_pss_kb("Rss: 10 kB\nPss_Anon: 5 kB\n")

    def test_own_process_tree(self):
        self.assertIn(os.getpid(), stats.process_tree(os.getpid()))
        self.assertGreater(stats.process_tree_pss_kb(os.getpid()), 0)


class TestOpenLoop(unittest.TestCase):
    def test_latency_of_a_loop_that_falls_behind(self):
        """Each request takes 3 ms but one is due every 1 ms on one
        connection: request i waits for the i before it, and its
        due-time latency grows by ~2 ms per request, although its own
        service time stays ~3 ms and the generator is never late."""
        def make_sender():
            def send(request, request_id):
                time.sleep(0.003)
                return 200, b"{}"
            return send

        records = open_loop(make_sender, [("GET", "/", None)] * 30,
                            rate=1000.0, connections=1)
        latency = [stats.due_latency(r.due, r.done) for r in records]
        service = [r.done - r.sent for r in records]
        self.assertTrue(all(lat >= s for lat, s in zip(latency, service)))
        self.assertGreater(latency[-1] - latency[0], 0.040)
        self.assertLess(max(service), latency[-1] / 5)
        late = [stats.generator_lateness(r.due, r.picked, r.sent)
                for r in records]
        self.assertLess(stats.median(late), 0.002)

    def test_lateness_arithmetic(self):
        # Connection freed after the due time: the wait is backlog,
        # only the 0.5 past 'picked' is the generator's.
        self.assertEqual(stats.generator_lateness(10.0, 12.0, 12.5), 0.5)
        self.assertEqual(stats.generator_lateness(10.0, 9.0, 10.25), 0.25)
        self.assertEqual(stats.due_latency(10.0, 13.0), 3.0)


class TestBenchmarkJson(unittest.TestCase):
    def test_declares_what_the_run_reports(self):
        import run
        from workloads import WORKLOADS

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))


class TestShim(unittest.TestCase):
    def test_wraps_functions_where_callers_look_them_up(self):
        """A traced query records spans for each layer it crosses,
        including functions its module imported by name."""
        code = (
            "import sys, shim\n"
            "shim.install(sys.argv[1])\n"
            "from repro.datasets import load_dataset\n"
            "from repro.core import TTLPlanner\n"
            "from repro.query import QueryRequest\n"
            "p = TTLPlanner(load_dataset('Austin', scale=0.4))\n"
            "p.preprocess()\n"
            "p.plan(QueryRequest('eap', 0, 5, t=8 * 3600))\n"
            "shim.TRACER.dump()\n"
        )
        with tempfile.TemporaryDirectory() as out:
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [BENCH_DIR, os.path.join(ROOT, "src")]))
            subprocess.run([sys.executable, "-c", code, out], env=env,
                           check=True, timeout=120)
            from layers import load_spans

            spans, _ = load_spans(out)
        names = {s["name"] for s in spans}
        for name in ("datasets.load", "build.index", "queries.plan",
                     "sketch.best"):
            self.assertIn(name, names)
        plan = next(s for s in spans if s["name"] == "queries.plan")
        self.assertEqual(plan["attrs"], {"kind": "eap"})
        sketch = next(s for s in spans if s["name"] == "sketch.best")
        self.assertEqual(sketch["parent"], plan["id"])


if __name__ == "__main__":
    unittest.main()
