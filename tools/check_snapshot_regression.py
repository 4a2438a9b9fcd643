#!/usr/bin/env python3
"""Gate on mmap snapshot open performance.

Opening a snapshot maps the file, fixes up the O(sections) header, then runs
validate(): one O(n) pass over every record's string references, spans and
enum bytes. The gate bounds that open (load_mmap) by the in-tree control
load_mmap_inflate (open plus inflating every record into a Dataset, which
reads the same records and also allocates). At every session count in the
fresh file the open must cost at most --max-ratio of the control.

Raw seconds are machine-dependent (CI runners vary wildly), so the gate uses
a ratio. It is a fixed ceiling rather than a band around the committed
baseline because the ratio of two such different timings is noisy: best of
five runs each, it spread from 0.023 to 0.049 at 1M sessions over 23 runs on
one 4-core x86 box, far wider than a 10% band. The ceiling still fails an
open that starts copying or parsing records the way inflate does, or a
validate() pass that gets several times slower. The committed baseline's
ratio is printed for context.

Usage: check_snapshot_regression.py BASELINE.json FRESH.json [--max-ratio 0.10]
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
    parser.add_argument("--max-ratio", type=float, default=0.10)
    args = parser.parse_args()

    base = load_ratios(args.baseline)
    fresh = load_ratios(args.fresh)
    if not fresh:
        print(f"check_snapshot_regression: {args.fresh} has no load_mmap and "
              f"{CONTROL} pair")
        return 1

    failed = False
    for sessions in sorted(fresh):
        verdict = "OK" if fresh[sessions] <= args.max_ratio else "REGRESSION"
        if verdict == "REGRESSION":
            failed = True
        context = (f", baseline {base[sessions]:.4f}" if sessions in base
                   else ", no baseline row")
        print(f"{sessions} sessions: mmap open/inflate ratio "
              f"{fresh[sessions]:.4f} (limit {args.max_ratio:.4f}{context}) "
              f"{verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
