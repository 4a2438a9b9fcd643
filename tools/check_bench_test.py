#!/usr/bin/env python3
"""Fixtures for tools/check_bench.py: one passing and one failing case per
rule, plus the files that leave nothing to compare and a file of the
retired dht_iterative_get_peers rule.

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


def snapshot(open_s, control_s=1.0, sessions=1000000):
    return envelope("dataset_snapshot", [
        {"phase": "compact_build", "sessions": sessions,
         "seconds": control_s},
        {"phase": "load_mmap", "sessions": sessions, "seconds": open_s},
    ])


def analysis(identity_s=0.2, scan_s=0.01, digest="d", items=10,
             format_version=1):
    return envelope("analysis_passes", [
        {"case": "scan", "sessions": 1000000, "seconds": scan_s,
         "items": 1000, "digest": "s"},
        {"case": "identity", "sessions": 1000000, "seconds": identity_s,
         "items": items, "digest": digest},
        {"case": "sessions", "sessions": 1000000, "seconds": 0.005,
         "items": 5, "digest": "p"},
    ], cores=4, config={"seed": 42, "format_version": format_version})


def net(ratio=0.27, errors=0, timeouts=0, sent=100000, transport="udp"):
    return envelope("net_serve", [
        {"transport": "inprocess", "threads": 1, "sent": 400000,
         "received": 400000, "errors": 0, "timeouts": 0,
         "wire_vs_inprocess": 1.0},
        {"transport": transport, "threads": 1, "sent": sent,
         "received": sent - timeouts, "errors": errors, "timeouts": timeouts,
         "wire_vs_inprocess": ratio},
    ], cores=1)


def dht():
    """A file in the shape the retired dht_perf driver wrote."""
    return envelope("dht_iterative_get_peers", [
        {"nodes": 100, "lookups": 300, "avg_hops": 4.19,
         "lookups_per_sec": 22500.0, "digest": "7530568f820f6b66"},
        {"nodes": 1000, "lookups": 300, "avg_hops": 5.26,
         "lookups_per_sec": 15000.0, "digest": "27e4d2ec025968d6"},
    ], cores=4, config={"lookups": 300, "torrents": 64,
                        "peers_per_torrent": 20})


class CheckBenchTest(unittest.TestCase):
    def gate(self, baseline, fresh):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base.json", baseline), ("fresh.json", fresh)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as fh:
                    json.dump(doc, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = check_bench.main(["check_bench.py"] + paths)
            self.output = out.getvalue()
            return code

    def test_snapshot(self):
        self.assertEqual(self.gate(snapshot(0.009), snapshot(0.025)), 0)
        self.assertEqual(self.gate(snapshot(0.009), snapshot(0.026)), 1)
        # The ratio is per session count, over that count's control.
        self.assertEqual(
            self.gate(snapshot(0.009), snapshot(0.05, control_s=2.0)), 0)
        # A run without the control row has nothing to gate.
        no_control = envelope("dataset_snapshot", [
            {"phase": "load_mmap", "sessions": 1000000, "seconds": 0.001}])
        self.assertEqual(self.gate(snapshot(0.009), no_control), 1)

    def test_analysis_digest_drift_fails(self):
        base = analysis()
        self.assertEqual(self.gate(base, analysis()), 0)
        self.assertEqual(self.gate(base, analysis(digest="e")), 1)
        self.assertEqual(self.gate(base, analysis(items=11)), 1)

    def test_analysis_pass_twice_as_slow_relative_to_scan_fails(self):
        base = analysis()
        self.assertEqual(self.gate(base, analysis(identity_s=0.4)), 1)
        # The same 2x on the control is a slower machine, not a regression.
        self.assertEqual(
            self.gate(base, analysis(identity_s=0.4, scan_s=0.02)), 0)

    def test_analysis_run_inside_the_band_passes(self):
        band = check_bench.ANALYSIS_BAND
        base = analysis()
        self.assertEqual(
            self.gate(base, analysis(identity_s=0.2 * band * 0.99)), 0)
        self.assertEqual(
            self.gate(base, analysis(identity_s=0.2 / band * 1.01)), 0)
        self.assertEqual(
            self.gate(base, analysis(identity_s=0.2 * band * 1.01)), 1)
        # Faster than the band is reported, not failed: it is a gain.
        self.assertEqual(
            self.gate(base, analysis(identity_s=0.2 / band * 0.99)), 0)

    def test_analysis_noise_floor_is_reported_not_gated(self):
        # "sessions" runs 5 ms in the baseline. 9 ms is outside the band
        # but under the floor, so it is reported only; 20 ms is gated.
        floor = check_bench.ANALYSIS_MIN_SECONDS
        fresh = analysis()
        fresh["results"][2]["seconds"] = floor * 0.9
        self.assertEqual(self.gate(analysis(), fresh), 0)
        fresh["results"][2]["seconds"] = floor * 2
        self.assertEqual(self.gate(analysis(), fresh), 1)

    def test_analysis_other_format_version_is_not_comparable(self):
        self.assertEqual(self.gate(analysis(), analysis(format_version=2)), 1)
        self.assertIn("not comparable", self.output)

    def test_analysis_missing_control_fails(self):
        fresh = analysis()
        del fresh["results"][0]
        self.assertEqual(self.gate(analysis(), fresh), 1)

    def test_net(self):
        self.assertEqual(self.gate(net(), net(ratio=0.26)), 0)
        self.assertEqual(self.gate(net(), net(errors=1)), 1)
        self.assertEqual(self.gate(net(), net(timeouts=1000)), 0)
        self.assertEqual(self.gate(net(), net(timeouts=1001)), 1)
        # Baseline 0.27: limit min(0.243, 0.25).
        self.assertEqual(self.gate(net(), net(ratio=0.245)), 0)
        self.assertEqual(self.gate(net(), net(ratio=0.24)), 1)

    def test_retired_dht_rule_is_refused(self):
        # The lookup digests are pinned by dht_golden_test now; a stale CI
        # step that still gates a dht_perf file must fail, not pass.
        self.assertEqual(self.gate(dht(), dht()), 1)
        self.assertIn("cannot gate", self.output)

    def test_no_comparable_cases(self):
        self.assertEqual(
            self.gate(snapshot(0.02), envelope("dataset_snapshot", [])), 1)
        self.assertEqual(
            self.gate(envelope("analysis_passes", [],
                               config={"seed": 42, "format_version": 1}),
                      analysis()), 1)
        self.assertEqual(self.gate(net(), net(transport="http")), 1)

    def test_mismatched_or_ungated_benchmarks(self):
        self.assertEqual(self.gate(snapshot(0.02), net()), 1)
        ungated = envelope("announce_round_trip", [])
        self.assertEqual(self.gate(ungated, ungated), 1)
        self.assertEqual(self.gate(dht(), net()), 1)


if __name__ == "__main__":
    unittest.main()
