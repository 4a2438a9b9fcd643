#!/usr/bin/env python3
"""Gate on mmap snapshot open performance.

Compares a freshly generated BENCH_snapshot.json against the committed
baseline at the repo root. Raw seconds are machine-dependent (CI runners
vary wildly), so the gate compares the *ratio* of snapshot open time
(load_mmap) to open-plus-inflate time (load_mmap_inflate) at each session
count present in both files: inflating every record into a Dataset is the
in-tree control workload, which normalises CPU and disk speed away. A >10%
worse ratio fails the build.

Usage: check_snapshot_regression.py BASELINE.json FRESH.json [--tolerance 0.10]
"""

import argparse
import json
import sys

CONTROL = "load_mmap_inflate"


def load_ratios(path):
    """Maps session count -> load_mmap seconds / load_mmap_inflate seconds."""
    with open(path) as fh:
        doc = json.load(fh)
    times = {}
    for row in doc.get("results", []):
        if row["phase"] in (CONTROL, "load_mmap"):
            times.setdefault(row["sessions"], {})[row["phase"]] = row["seconds"]
    ratios = {}
    for sessions, phases in times.items():
        if CONTROL in phases and "load_mmap" in phases:
            if phases[CONTROL] <= 0:
                continue
            ratios[sessions] = phases["load_mmap"] / phases[CONTROL]
    return ratios


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.10)
    args = parser.parse_args()

    base = load_ratios(args.baseline)
    fresh = load_ratios(args.fresh)
    common = sorted(set(base) & set(fresh))
    if not common:
        print("check_snapshot_regression: no comparable session counts "
              f"(baseline has {sorted(base)}, fresh has {sorted(fresh)})")
        return 1

    failed = False
    for sessions in common:
        # Absolute slack floor: at small scales the mmap open is a few
        # microseconds, so the ratio is ~0 and a pure relative bound would
        # flag timer noise as a regression.
        limit = max(base[sessions] * (1.0 + args.tolerance),
                    base[sessions] + 0.005)
        verdict = "OK" if fresh[sessions] <= limit else "REGRESSION"
        if verdict == "REGRESSION":
            failed = True
        print(f"{sessions} sessions: mmap open/inflate ratio "
              f"{fresh[sessions]:.4f} vs baseline {base[sessions]:.4f} "
              f"(limit {limit:.4f}) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
