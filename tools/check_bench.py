#!/usr/bin/env python3
"""Regression gate for the committed BENCH files.

Usage: check_bench.py BASELINE.json FRESH.json

Both files carry the bench/*_perf envelope {"benchmark", "machine":
{"cores"}, "config", "results"}; "benchmark" picks the rule. Each rule
compares a machine-normalised number, since raw seconds and packets/sec
vary wildly across runners. Exits 1 on a regression or when nothing is
comparable, 2 on a usage error.
"""

import json
import sys

# dataset_snapshot (build_perf --snapshot): at every session count the mmap
# open (load_mmap, which runs the O(n) validate()) may cost at most this
# share of the control, open plus inflating every record. A fixed ceiling,
# not a band around the baseline: best of five runs each, the ratio spread
# 0.023-0.049 at 1M sessions over 23 runs on one 4-core x86 box.
SNAPSHOT_MAX_RATIO = 0.10
SNAPSHOT_CONTROL = "load_mmap_inflate"

# analysis_parallel (analysis_perf): parallel efficiency, speedup over the
# ideal min(threads, cores), may fall at most to min(b * KEEP, b - SLACK).
# Against a 1-core baseline efficiency is ~1 whatever the code does, so a
# multi-core fresh run is held to a raw speedup floor instead, skipping
# cases whose serial run is too short to show scaling.
ANALYSIS_KEEP = 0.9
ANALYSIS_SLACK = 0.05
ANALYSIS_FLOOR = 0.75
ANALYSIS_MIN_SERIAL_SECONDS = 0.1

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
        print(f"{n} sessions: mmap open/inflate ratio {fresh[n]:.4f} "
              f"(limit {SNAPSHOT_MAX_RATIO:.4f}, {context}) {verdict(ok)}")
    return int(failed)


def check_analysis(base_doc, fresh_doc):
    def load(doc):
        cores = doc["machine"].get("cores") or 1
        ideal = max(1, min(doc["config"].get("threads", 1), cores))
        rows = {(r["case"], r["sessions"], r["threads"]): r
                for r in doc["results"]}
        return ideal, rows, max((t for (_, _, t) in rows), default=1)

    def efficiency(rows, case, sessions, threads, ideal):
        serial = rows.get((case, sessions, 1))
        parallel = rows.get((case, sessions, threads))
        if serial is None or parallel is None or parallel["seconds"] <= 0.0:
            return None
        return serial["seconds"] / parallel["seconds"] / ideal

    base_ideal, base, base_threads = load(base_doc)
    fresh_ideal, fresh, fresh_threads = load(fresh_doc)
    failed = False
    for (case, sessions, threads), row in sorted(fresh.items()):
        serial = fresh.get((case, sessions, 1))
        if serial is None or threads == 1:
            continue
        for key, what in (("digest", "digest"), ("items", "item count")):
            if row.get(key) != serial.get(key):
                print(f"{case}@{sessions}: {what} differs between 1 and "
                      f"{threads} threads FAIL")
                failed = True

    common = sorted({k[:2] for k in base} & {k[:2] for k in fresh})
    if not common:
        print("analysis: no comparable cases")
        return 1
    floor_only = base_ideal == 1 and fresh_ideal > 1
    if floor_only:
        print(f"baseline measured on 1 core; enforcing speedup >= "
              f"{ANALYSIS_FLOOR:.2f} on the {fresh_ideal}-core fresh run")
    compared = 0
    for case, sessions in common:
        if floor_only:
            serial = fresh.get((case, sessions, 1))
            if serial is None or (
                    serial["seconds"] < ANALYSIS_MIN_SERIAL_SECONDS):
                continue
            f = efficiency(fresh, case, sessions, fresh_threads, 1)
            if f is None:
                continue
            ok = f >= ANALYSIS_FLOOR
            print(f"{case}@{sessions}: raw speedup {f:.3f} "
                  f"(floor {ANALYSIS_FLOOR:.3f}) {verdict(ok)}")
        else:
            b = efficiency(base, case, sessions, base_threads, base_ideal)
            f = efficiency(fresh, case, sessions, fresh_threads, fresh_ideal)
            if b is None or f is None:
                continue
            limit = min(b * ANALYSIS_KEEP, b - ANALYSIS_SLACK)
            ok = f >= limit
            print(f"{case}@{sessions}: efficiency {f:.3f} "
                  f"(speedup/{fresh_ideal}) vs baseline {b:.3f} "
                  f"(speedup/{base_ideal}, limit {limit:.3f}) {verdict(ok)}")
        compared += 1
        failed |= not ok
    if compared == 0:
        print("analysis: no efficiency pairs to compare")
        return 1
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
         "analysis_parallel": check_analysis,
         "net_serve": check_net}


def main(argv):
    if len(argv) != 3:
        print("usage: check_bench.py BASELINE.json FRESH.json", file=sys.stderr)
        return 2
    base, fresh = (json.load(open(path)) for path in argv[1:])
    name = fresh["benchmark"]
    if base["benchmark"] != name or name not in RULES:
        print(f"check_bench: cannot gate {name!r} against "
              f"{base['benchmark']!r} (rules: {', '.join(RULES)})")
        return 1
    return RULES[name](base, fresh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
