"""Tests of the traced run's reduction and its Chrome trace-event file.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def span(i, name, parent, start, end, rank=-1, work=None, pid=100):
    s = {"id": i, "name": name, "parent": parent, "pid": pid, "rank": rank,
         "start_ns": start, "end_ns": end}
    if work is not None:
        s["work"] = work
    return s


def fake_raw():
    spans = [
        span(1, "api.run", 0, 0, 1_000_000_000),
        span(2, "api.epoch", 1, 100_000_000, 400_000_000, rank=0, pid=101),
        span(3, "tensor.gemm_nn", 0, 0, 2_000_000, work=4e6),
        span(4, "tensor.gemm_nn", 0, 0, 4_000_000, work=4e6),
        span(5, "tensor.gemm_nn", 0, 0, 3_000_000, work=4e6),
    ]
    return {"workload": "train-bns", "seed": 1, "spans": spans,
            "counters": {"partition.edge_cut": 42, "api.report.compute_s": 0.25}}


class PerLayer(unittest.TestCase):
    def test_span_medians_rates_and_counters(self):
        m = run.per_layer(fake_raw())
        self.assertAlmostEqual(m["tensor.gemm_nn_s"][0], 0.003)
        # Median of per-call rates 2, 1 and 4/3 GFLOP/s.
        self.assertAlmostEqual(m["tensor.gemm_nn_gflops"][0], 4e6 / 0.003 * 1e-9)
        self.assertEqual(m["tensor.gemm_nn_gflops"][1], "GFLOP/s")
        self.assertEqual(m["partition.edge_cut"], (42, "count"))
        self.assertEqual(m["api.report.compute_s"], (0.25, "s"))


class TraceFile(unittest.TestCase):
    def test_trace_event_format(self):
        raw = fake_raw()
        metrics = run.per_layer(raw)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.trace.json")
            run.write_trace(path, raw, metrics, {"nproc": 4}, {})
            with open(path) as f:
                doc = json.load(f)
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        self.assertEqual(len(complete), 5)
        for e in complete:
            for key in ("name", "ts", "dur", "pid", "tid"):
                self.assertIn(key, e)
            self.assertGreaterEqual(e["dur"], 0)
        by_name = {e["name"]: e for e in complete}
        # api.run lasts 1000 ms; its epoch child covers 300 ms of it.
        self.assertAlmostEqual(by_name["api.run"]["args"]["self_ms"], 700.0)
        self.assertEqual(by_name["api.epoch"]["args"]["parent"], "api.run")
        counters = {e["name"] for e in events if e["ph"] == "C"}
        self.assertEqual(counters, set(metrics))
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        self.assertIn("rank 0", names)
        self.assertEqual(doc["otherData"]["provenance"], {"nproc": 4})


class ResultLine(unittest.TestCase):
    def test_exact_keys(self):
        line = json.loads(run.result_line(True, 5, 0, {"epoch_s": (0.3, "s")}))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["epoch_s"], {"value": 0.3, "unit": "s"})


if __name__ == "__main__":
    unittest.main()
