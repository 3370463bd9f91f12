#!/usr/bin/env python3
"""Self-tests of the benchmark's own helpers.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, seed determinism of the replay log, the
trace JSON and its self-time derivation, and agreement between the metric
names the benchmark prints and those BENCHMARK.json declares. Builds
perfbench first and runs two short serve_replay measurements (~20 s).
"""
import collections
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import metrics  # noqa: E402
import run  # noqa: E402

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("perfbench did not build")


class TailRule(unittest.TestCase):
    def test_known_counts(self):
        cases = {39: None, 40: 75.0, 99: 75.0, 100: 90.0, 199: 90.0, 200: 95.0,
                 999: 95.0, 1000: 99.0, 9999: 99.0, 10000: 99.9}
        for n, p in cases.items():
            self.assertEqual(metrics.tail_percentile(n), p, n)

    def test_ten_samples_beyond_and_highest(self):
        for n in range(40, 3000, 7):
            p = metrics.tail_percentile(n)
            values = list(range(n))
            cut = metrics.percentile(values, p)
            self.assertGreaterEqual(sum(1 for v in values if v > cut), 10, n)
            higher = [q for q in metrics.TAIL_LADDER if q > p]
            if higher:
                cut = metrics.percentile(values, higher[0])
                self.assertLess(sum(1 for v in values if v > cut), 10, n)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(metrics.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertEqual(metrics.percentile(list(range(1, 101)), 90), 90)


class ReplayLog(unittest.TestCase):
    def log(self, seed):
        out = subprocess.run([BINARY, "--print-log", "--workload", "serve_replay",
                              "--seed", str(seed)], capture_output=True, text=True,
                             check=True)
        return out.stdout.split()

    def test_seed_determinism(self):
        a, b, c = self.log(7), self.log(7), self.log(8)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), len(c))
        distinct = len(set(a))
        self.assertGreater(distinct, 16 * 2)  # more than max_cache_entries problems
        self.assertEqual(a[:distinct], c[:distinct])  # the fixed opening
        self.assertEqual(sorted(a), sorted(c))  # the same mix, in another order
        counts = sorted(collections.Counter(a).values(), reverse=True)
        self.assertGreaterEqual(counts[0], 5 * counts[distinct // 2])  # skewed


class Trace(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        ev = lambda name, ts, dur, tid=0: {"name": name, "cat": "layer", "ph": "X",
                                           "pid": 1, "tid": tid, "ts": ts, "dur": dur,
                                           "args": {}}
        trace = {"traceEvents": [ev("probe", 0, 1000), ev("a", 100, 200),
                                 ev("b", 400, 300), ev("c", 450, 100),
                                 ev("a", 0, 500, tid=1)]}
        selfs = {}
        for ev, ms in metrics.self_times(trace):
            selfs.setdefault(ev["name"], []).append(ms)
        self.assertEqual(sorted(selfs["a"]), [0.2, 0.5])
        self.assertAlmostEqual(selfs["probe"][0], 0.5)
        self.assertAlmostEqual(selfs["b"][0], 0.2)
        self.assertAlmostEqual(selfs["c"][0], 0.1)

    def test_check_trace_rejects_malformed(self):
        self.assertTrue(metrics.check_trace({}))
        bad = {"traceEvents": [{"name": "x", "ph": "B", "ts": 0, "dur": -1}]}
        self.assertTrue(metrics.check_trace(bad))


class EndToEnd(unittest.TestCase):
    """Short real runs: the trace is well formed and the printed metric
    names and units are exactly those BENCHMARK.json declares."""

    def test_declared_names_match_tables(self):
        spec = metrics.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(declared, table)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def check_run(self, trace):
        result, lines = run.measure(BINARY, "serve_replay", 1, 1.0, trace)
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        names = run.declared_names(trace)
        self.assertEqual(set(result["metrics"]), names)
        table = metrics.PER_LAYER if trace else metrics.END_TO_END
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], table[name][0])
            self.assertTrue(math.isfinite(m["value"]), name)
        return result

    def test_untraced_run(self):
        self.check_run(0)

    def test_traced_run_and_trace_json(self):
        self.check_run(1)
        path = os.path.join(run.RUNS_DIR, "serve_replay-s1-t1", "trace.json")
        trace = metrics.load_json(path)
        self.assertEqual(metrics.check_trace(trace), [])
        names = {e["name"] for e in trace["traceEvents"]}
        for layer in ("service.plan_robust", "core.ilp_builder.build", "milp.presolve",
                      "lp.root", "core.rounding", "core.simulator", "store.load",
                      "store.lookup", "store.put"):
            self.assertIn(layer, names)
        ids = {}
        for e in trace["traceEvents"]:
            if e["cat"] == "query":
                ids.setdefault(e["args"]["query"], set()).add(e["name"])
        self.assertTrue(all(v == {"service.plan_robust", "bench.check"}
                            for v in ids.values()))
        for ev, ms in metrics.self_times(trace):
            self.assertGreaterEqual(ms, -1e-9, ev["name"])
            self.assertLessEqual(ms, ev["dur"] / 1000.0 + 1e-9, ev["name"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
