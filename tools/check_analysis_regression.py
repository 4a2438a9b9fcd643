#!/usr/bin/env python3
"""Gate on parallel batch-analysis performance.

Compares a freshly generated BENCH_analysis.json against the committed
baseline at the repo root. Only downloader demographics is measured at
1 vs N threads (the other passes run serially and have 1-thread rows
only), so the demographics pair is the one the efficiency comparison
sees; single-thread rows have no parallel partner and are skipped. Raw
seconds are machine-dependent and raw speedups are core-count-dependent
(a single-core container legitimately measures ~1x at any thread count),
so the gate compares *parallel efficiency* per (case, sessions): measured
speedup divided by the ideal speedup min(threads, cores) recorded in the
same file. Efficiency is a machine-normalised number in (0, ~1]; a >10%
drop against baseline fails the build.

Also fails on correctness signals that need no baseline: within one file,
the 1-thread and N-thread rows of a case must report the same digest and
item count (analysis_perf enforces this too; the gate keeps a hand-edited
JSON from slipping through).

Usage: check_analysis_regression.py BASELINE.json FRESH.json
                                    [--tolerance 0.10]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    config = doc.get("config", {})
    ideal = max(1, min(config.get("threads", 1), config.get("cores", 1)))
    rows = {}
    for row in doc.get("results", []):
        rows[(row["case"], row["sessions"], row["threads"])] = row
    return ideal, rows


def efficiency(rows, case, sessions, threads, ideal):
    serial = rows.get((case, sessions, 1))
    parallel = rows.get((case, sessions, threads))
    if serial is None or parallel is None or parallel["seconds"] <= 0.0:
        return None
    return (serial["seconds"] / parallel["seconds"]) / ideal


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.10)
    args = parser.parse_args()

    base_ideal, base = load(args.baseline)
    fresh_ideal, fresh = load(args.fresh)

    failed = False

    # Digest / item-count consistency inside the fresh file.
    threads_seen = sorted({t for (_, _, t) in fresh})
    for (case, sessions, threads), row in sorted(fresh.items()):
        serial = fresh.get((case, sessions, 1))
        if serial is None or threads == 1:
            continue
        if row.get("digest") != serial.get("digest"):
            print(f"{case}@{sessions}: digest differs between 1 and "
                  f"{threads} threads FAIL")
            failed = True
        if row.get("items") != serial.get("items"):
            print(f"{case}@{sessions}: item count differs between 1 and "
                  f"{threads} threads FAIL")
            failed = True

    # Efficiency comparison over cases both files measured.
    base_keys = {(c, s) for (c, s, _) in base}
    fresh_keys = {(c, s) for (c, s, _) in fresh}
    common = sorted(base_keys & fresh_keys)
    if not common:
        print("check_analysis_regression: no comparable cases "
              f"(baseline has {sorted(base_keys)}, "
              f"fresh has {sorted(fresh_keys)})")
        return 1

    base_threads = max((t for (_, _, t) in base), default=1)
    fresh_threads = max((t for (_, _, t) in fresh), default=1)
    compared = 0
    if base_ideal == 1 and fresh_ideal > 1:
        # The committed baseline was measured on a single-core box, where
        # "efficiency" degenerates to ~1 regardless of parallel quality
        # (speedup / 1, and no real parallelism was possible). Comparing
        # that against a multi-core runner would demand near-linear
        # scaling. Until a multi-core baseline is committed, gate only on
        # an absolute floor: the parallel run must not be catastrophically
        # slower than serial (locks serialising everything would show
        # speedup << 1 even with real cores available).
        print(f"baseline measured on 1 core; skipping efficiency "
              f"comparison, enforcing speedup >= 0.75 floor on "
              f"{fresh_ideal}-core fresh run")
        for case, sessions in common:
            serial = fresh.get((case, sessions, 1))
            if serial is None or serial["seconds"] < 0.1:
                # Sub-100ms cases measure pool spin-up, not scaling.
                continue
            f = efficiency(fresh, case, sessions, fresh_threads, 1)
            if f is None:
                continue
            compared += 1
            verdict = "OK" if f >= 0.75 else "REGRESSION"
            if verdict == "REGRESSION":
                failed = True
            print(f"{case}@{sessions}: raw speedup {f:.3f} "
                  f"(floor 0.750) {verdict}")
    else:
        for case, sessions in common:
            b = efficiency(base, case, sessions, base_threads, base_ideal)
            f = efficiency(fresh, case, sessions, fresh_threads, fresh_ideal)
            if b is None or f is None:
                continue
            compared += 1
            # Absolute slack floor: the fast cases measure tens of ms per
            # rep, where a few points of efficiency are scheduler noise.
            limit = min(b * (1.0 - args.tolerance), b - 0.05)
            verdict = "OK" if f >= limit else "REGRESSION"
            if verdict == "REGRESSION":
                failed = True
            print(f"{case}@{sessions}: efficiency {f:.3f} "
                  f"(speedup/{fresh_ideal}) vs baseline {b:.3f} "
                  f"(speedup/{base_ideal}, limit {limit:.3f}) {verdict}")

    if compared == 0:
        print("check_analysis_regression: no efficiency pairs to compare")
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
