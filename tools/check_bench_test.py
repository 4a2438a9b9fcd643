#!/usr/bin/env python3
"""Fixtures for tools/check_bench.py: one passing and one failing case per
rule, plus the files that leave nothing to compare.

Run: python3 tools/check_bench_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


def envelope(benchmark, results, cores=None, config=None):
    return {"benchmark": benchmark, "machine": {"cores": cores},
            "config": config or {}, "results": results}


def snapshot(open_s, inflate_s=1.0, sessions=1000000):
    return envelope("dataset_snapshot", [
        {"phase": "load_mmap", "sessions": sessions, "seconds": open_s},
        {"phase": "load_mmap_inflate", "sessions": sessions,
         "seconds": inflate_s},
    ])


def analysis(serial_s, parallel_s, cores, threads=4, digests=("a", "a"),
             items=(10, 10), case="demographics"):
    return envelope("analysis_parallel", [
        {"case": "identity", "sessions": 1000000, "threads": 1,
         "seconds": 0.2, "items": 5, "digest": "i"},
        {"case": case, "sessions": 1000000, "threads": 1,
         "seconds": serial_s, "items": items[0], "digest": digests[0]},
        {"case": case, "sessions": 1000000, "threads": threads,
         "seconds": parallel_s, "items": items[1], "digest": digests[1]},
    ], cores=cores, config={"seed": 42, "threads": threads})


def net(ratio=0.27, errors=0, timeouts=0, sent=100000, transport="udp"):
    return envelope("net_serve", [
        {"transport": "inprocess", "threads": 1, "sent": 400000,
         "received": 400000, "errors": 0, "timeouts": 0,
         "wire_vs_inprocess": 1.0},
        {"transport": transport, "threads": 1, "sent": sent,
         "received": sent - timeouts, "errors": errors, "timeouts": timeouts,
         "wire_vs_inprocess": ratio},
    ], cores=1)


class CheckBenchTest(unittest.TestCase):
    def gate(self, baseline, fresh):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base.json", baseline), ("fresh.json", fresh)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as fh:
                    json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                return check_bench.main(["check_bench.py"] + paths)

    def test_snapshot(self):
        self.assertEqual(self.gate(snapshot(0.02), snapshot(0.10)), 0)
        self.assertEqual(self.gate(snapshot(0.02), snapshot(0.11)), 1)

    def test_analysis_digest_and_items_must_match(self):
        base = analysis(1.0, 0.3, cores=4)
        self.assertEqual(self.gate(base, analysis(1.0, 0.3, cores=4)), 0)
        self.assertEqual(
            self.gate(base, analysis(1.0, 0.3, cores=4, digests=("a", "b"))), 1)
        self.assertEqual(
            self.gate(base, analysis(1.0, 0.3, cores=4, items=(10, 11))), 1)

    def test_analysis_efficiency_drop_on_multicore_baseline(self):
        # Baseline efficiency 1.0/0.3/4 = 0.833: limit min(0.75, 0.783).
        base = analysis(1.0, 0.3, cores=4)
        self.assertEqual(self.gate(base, analysis(1.0, 0.33, cores=4)), 0)
        self.assertEqual(self.gate(base, analysis(1.0, 0.34, cores=4)), 1)

    def test_analysis_speedup_floor_on_one_core_baseline(self):
        base = analysis(1.0, 1.0, cores=1)
        self.assertEqual(self.gate(base, analysis(1.0, 1 / 0.80, cores=4)), 0)
        self.assertEqual(self.gate(base, analysis(1.0, 1 / 0.70, cores=4)), 1)
        # A serial run under 100 ms is skipped, leaving nothing to compare.
        self.assertEqual(self.gate(base, analysis(0.05, 0.5, cores=4)), 1)

    def test_net(self):
        self.assertEqual(self.gate(net(), net(ratio=0.26)), 0)
        self.assertEqual(self.gate(net(), net(errors=1)), 1)
        self.assertEqual(self.gate(net(), net(timeouts=1000)), 0)
        self.assertEqual(self.gate(net(), net(timeouts=1001)), 1)
        # Baseline 0.27: limit min(0.243, 0.25).
        self.assertEqual(self.gate(net(), net(ratio=0.245)), 0)
        self.assertEqual(self.gate(net(), net(ratio=0.24)), 1)

    def test_no_comparable_cases(self):
        self.assertEqual(
            self.gate(snapshot(0.02), envelope("dataset_snapshot", [])), 1)
        # Only the serial identity rows are shared: no efficiency pair.
        self.assertEqual(
            self.gate(analysis(1.0, 0.3, cores=4),
                      analysis(1.0, 0.3, cores=4, case="other")), 1)
        self.assertEqual(
            self.gate(envelope("analysis_parallel", [], cores=4),
                      analysis(1.0, 0.3, cores=4)), 1)
        self.assertEqual(self.gate(net(), net(transport="http")), 1)

    def test_mismatched_or_ungated_benchmarks(self):
        self.assertEqual(self.gate(snapshot(0.02), net()), 1)
        ungated = envelope("dht_iterative_get_peers", [])
        self.assertEqual(self.gate(ungated, ungated), 1)


if __name__ == "__main__":
    unittest.main()
