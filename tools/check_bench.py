#!/usr/bin/env python3
"""Regression gate for the committed BENCH files.

Usage: check_bench.py BASELINE.json FRESH.json

Both files carry the bench/*_perf envelope {"benchmark", "machine":
{"cores"}, "config", "results"}; "benchmark" picks the rule. Each rule
compares a machine-normalised number, since raw seconds and packets/sec
vary wildly across runners, and the analysis rule also a digest of
deterministic results. Exits 1 on a regression, when nothing is comparable
or when no rule gates the file, 2 on a usage error.
"""

import json
import sys

# dataset_snapshot (build_perf): at every session count the mmap
# open (load_mmap, which runs the O(n) validate()) may cost at most this
# share of the control, compact_build (Dataset to CompactDataset, O(n)
# per-record work of the same kind). A fixed ceiling, not a band around
# the baseline: best of five runs each, the ratio spread 0.0065-0.0146
# (median 0.0091) at 1M sessions over 45 runs on one 4-core x86 box
# (Release). An open that also copied every row and its downloader entries
# read 0.16-0.23 over 10 runs; one that copied only the 136-byte rows (a
# 2x slower open) read 0.019-0.025, inside the run-to-run spread.
SNAPSHOT_MAX_RATIO = 0.025
SNAPSHOT_CONTROL = "compact_build"

# analysis_passes (analysis_perf): every case's digest and item count must
# equal the baseline's when both runs used the same seed and snapshot
# format_version. Every case's seconds over the same run's "scan" control
# (one decode of every downloader entry) may exceed the baseline's ratio by
# at most a factor of ANALYSIS_BAND; a run faster than the baseline by that
# factor is reported, so a real gain gets a regenerated baseline. Over 30
# fresh 1M-session runs on one 4-core x86 box (Release) the gated cases
# stayed within 0.79-1.29x of their median ratio; taking each of the 870
# ordered pairs of those runs as baseline and fresh, a 1.5 band failed 0.5%
# of pairs and caught a 2x slowdown of a pass in 98.4%. Cases whose fresh
# run is under ANALYSIS_MIN_SECONDS (sessions, ~5 ms) are reported, not
# gated.
ANALYSIS_BAND = 1.5
ANALYSIS_MIN_SECONDS = 0.01
ANALYSIS_CONTROL = "scan"

# net_serve (net_perf): every wire case must be error-free, time out on at
# most this share of requests sent, and keep its wire_vs_inprocess ratio
# (over the "inprocess" control row) at min(b * KEEP, b - SLACK) or above.
NET_MAX_TIMEOUT_SHARE = 0.01
NET_KEEP = 0.9
NET_SLACK = 0.02
NET_CONTROL = "inprocess"



def verdict(ok):
    return "OK" if ok else "REGRESSION"


def check_snapshot(base_doc, fresh_doc):
    def ratios(doc):
        times = {}
        for r in doc["results"]:
            if r["phase"] in ("load_mmap", SNAPSHOT_CONTROL):
                times.setdefault(r["sessions"], {})[r["phase"]] = r["seconds"]
        return {n: t["load_mmap"] / t[SNAPSHOT_CONTROL]
                for n, t in times.items()
                if "load_mmap" in t and t.get(SNAPSHOT_CONTROL, 0) > 0}

    base, fresh = ratios(base_doc), ratios(fresh_doc)
    if not fresh:
        print(f"snapshot: no load_mmap and {SNAPSHOT_CONTROL} pair")
        return 1
    failed = False
    for n in sorted(fresh):
        ok = fresh[n] <= SNAPSHOT_MAX_RATIO
        failed |= not ok
        context = f"baseline {base[n]:.4f}" if n in base else "no baseline row"
        print(f"{n} sessions: mmap open/compact build ratio {fresh[n]:.4f} "
              f"(limit {SNAPSHOT_MAX_RATIO:.4f}, {context}) {verdict(ok)}")
    return int(failed)


def check_analysis(base_doc, fresh_doc):
    def world(doc):
        return {k: doc["config"].get(k) for k in ("seed", "format_version")}

    if world(base_doc) != world(fresh_doc):
        print(f"analysis: not comparable: baseline {world(base_doc)} vs "
              f"fresh {world(fresh_doc)}; regenerate the baseline")
        return 1
    base = {(r["case"], r["sessions"]): r for r in base_doc["results"]}
    fresh = {(r["case"], r["sessions"]): r for r in fresh_doc["results"]}
    common = sorted(set(base) & set(fresh))
    if not common:
        print("analysis: no comparable cases")
        return 1
    failed = False
    for case, sessions in common:
        name = f"{case}@{sessions}"
        b, f = base[(case, sessions)], fresh[(case, sessions)]
        for key, what in (("digest", "digest"), ("items", "item count")):
            if f.get(key) != b.get(key):
                print(f"{name}: {what} {f.get(key)} differs from baseline "
                      f"{b.get(key)} FAIL")
                failed = True
        if case == ANALYSIS_CONTROL:
            continue
        controls = (base.get((ANALYSIS_CONTROL, sessions)),
                    fresh.get((ANALYSIS_CONTROL, sessions)))
        if any(c is None or c["seconds"] <= 0.0 for c in controls):
            print(f"{name}: no {ANALYSIS_CONTROL} control row FAIL")
            failed = True
            continue
        b_ratio = b["seconds"] / controls[0]["seconds"]
        f_ratio = f["seconds"] / controls[1]["seconds"]
        line = (f"{name}: {f_ratio:.2f}x {ANALYSIS_CONTROL} vs baseline "
                f"{b_ratio:.2f}x (limit {b_ratio * ANALYSIS_BAND:.2f})")
        if f["seconds"] < ANALYSIS_MIN_SECONDS:
            print(f"{line} under the {ANALYSIS_MIN_SECONDS}s noise floor, "
                  f"not gated")
            continue
        ok = f_ratio <= b_ratio * ANALYSIS_BAND
        failed |= not ok
        faster = f_ratio < b_ratio / ANALYSIS_BAND
        print(f"{line} {verdict(ok)}"
              + (", faster than the band: regenerate the baseline"
                 if faster else ""))
    return int(failed)


def check_net(base_doc, fresh_doc):
    def cases(doc):
        return {(r["transport"], r["threads"]): r for r in doc["results"]
                if r["transport"] != NET_CONTROL}

    base, fresh = cases(base_doc), cases(fresh_doc)
    common = sorted(set(base) & set(fresh))
    if not common:
        print("net: no comparable cases")
        return 1
    failed = False
    for key in common:
        name = f"{key[0]} x{key[1]}"
        b, f = base[key]["wire_vs_inprocess"], fresh[key]
        if f["errors"] > 0:
            print(f"{name}: {f['errors']} errors FAIL")
            failed = True
        if f["sent"] > 0 and f["timeouts"] > NET_MAX_TIMEOUT_SHARE * f["sent"]:
            print(f"{name}: {f['timeouts']} timeouts of {f['sent']} sent "
                  f"(>{NET_MAX_TIMEOUT_SHARE:.0%}) FAIL")
            failed = True
        if b <= 0.0:
            continue
        limit = min(b * NET_KEEP, b - NET_SLACK)
        ok = f["wire_vs_inprocess"] >= limit
        failed |= not ok
        print(f"{name}: wire/inprocess ratio {f['wire_vs_inprocess']:.4f} vs "
              f"baseline {b:.4f} (limit {limit:.4f}) {verdict(ok)}")
    return int(failed)


RULES = {"dataset_snapshot": check_snapshot,
         "analysis_passes": check_analysis,
         "net_serve": check_net}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 3:
        print("usage: check_bench.py BASELINE.json FRESH.json", file=sys.stderr)
        return 2
    base, fresh = (load(path) for path in argv[1:])
    name = fresh["benchmark"]
    if base["benchmark"] != name or name not in RULES:
        print(f"check_bench: cannot gate {name!r} against "
              f"{base['benchmark']!r} (rules: {', '.join(RULES)})")
        return 1
    return RULES[name](base, fresh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
