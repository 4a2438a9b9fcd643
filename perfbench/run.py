#!/usr/bin/env python3
"""btpub benchmark: builds the perfbench binary and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate_quick, analysis_1m, dht_spoofed, serve_udp (see
perfbench/README.md for what each one measures and why, and for why
BENCHMARK.json gates on all of them but analysis_1m).

The perfbench binary runs one repetition of a workload per process, so every
repetition's peak RSS is its own. This script spawns repetitions until the
run has lasted --seconds (at least MIN_REPS of them), checks that they all
agree on the result digest and the per-layer counts, and prints medians.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates traced and untraced repetitions and reports the per-layer
metrics from the traced ones, plus the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("simulate_quick", "analysis_1m", "dht_spoofed", "serve_udp")
MIN_REPS = 3
MAX_REPS = 40
REP_TIMEOUT_S = 120

END_TO_END = {
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "announce_p50_us": "us",
    "server_cpu_us_per_req": "us",
    "setup_s": "s",
}

# Per-layer metrics. Counts and ratios of counts must repeat exactly across
# the repetitions of one seed; times, latencies and timeouts may not.
PER_LAYER_TIMES = {
    "core.build_s": "s",
    "crawler.crawl_s": "s",
    "crawler.snapshot_save_s": "s",
    "crawler.snapshot_open_s": "s",
    "crawler.cross_check_s": "s",
    "streaming.finalize_s": "s",
    "analysis.identity_s": "s",
    "analysis.classify_s": "s",
    "analysis.sessions_s": "s",
    "analysis.demographics_s": "s",
    "analysis.consumption_s": "s",
    "analysis.tables_s": "s",
    "dht.overlay_build_s": "s",
    "dht.crawl_s": "s",
    "tracker.udp_decode_ns": "ns",
    "tracker.announce_into_ns": "ns",
    "tracker.scrape_ns": "ns",
    "tracker.udp_encode_ns": "ns",
    "netio.syscall_share": "ratio",
    "netio.rtt_p90_us": "us",
    "netio.rtt_p99_us": "us",
    "netio.generator_lag_us": "us",
    "netio.timeouts": "count",
}
PER_LAYER_COUNTS = {
    "torrent.pieces": "count",
    "crawler.torrents": "count",
    "crawler.ip_observations": "count",
    "crawler.identified_ratio": "ratio",
    "crawler.snapshot_bytes": "bytes",
    "crawler.flagged": "count",
    "crawler.flag_precision": "ratio",
    "streaming.updates": "count",
    "analysis.distinct_ips": "count",
    "geo.lookups": "count",
    "geo.located_ratio": "ratio",
    "dht.lookups": "count",
    "dht.messages": "count",
    "dht.reply_ratio": "ratio",
    "dht.hops_per_lookup": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary (incremental after the first run)."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise RuntimeError("btpub sources not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(3, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))


def run_rep(workload, seed, trace):
    """Runs one repetition in a fresh process; returns its report."""
    cmd = [BINARY, workload, "--seed", str(seed), "--dir", WORK_DIR,
           "--trace", "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} repetition timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    os.makedirs(WORK_DIR, exist_ok=True)
    attempted = 0
    failed = 0
    problems = []

    def gate(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(what)

    reps = []
    while True:
        # Traced runs alternate traced and untraced repetitions so the
        # tracing overhead is measured in the same run.
        traced = trace and len(reps) % 2 == 0
        report = run_rep(workload, seed, traced)
        report["traced"] = traced
        reps.append(report)
        enough = len(reps) >= (2 * MIN_REPS if trace else MIN_REPS)
        if (enough and time.monotonic() - started >= seconds) or len(reps) >= MAX_REPS:
            break

    for report in reps:
        attempted += report["attempted"]
        failed += report["failed"]
        problems.extend(report["failures"])
    digests = {r["digest"] for r in reps}
    gate(len(digests) == 1, "repetitions of one seed disagree on the result digest")
    digest = reps[0]["digest"]

    metrics = {}
    if not trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median([r[name] for r in reps]), "unit": unit}
    else:
        traced = [r for r in reps if r["traced"]]
        untraced = [r for r in reps if not r["traced"]]
        for name, unit in (PER_LAYER_TIMES | PER_LAYER_COUNTS).items():
            values = [r["layers"].get(name, 0.0) for r in traced]
            if name in PER_LAYER_COUNTS:
                gate(len(set(values)) == 1, f"{name} differs across repetitions")
            metrics[name] = {"value": median(values), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": median([r["job_s"] for r in traced]) -
                     median([r["job_s"] for r in untraced]),
            "unit": "s",
        }

    # Every repetition's report, for inspecting a run's spread afterwards.
    reps_path = os.path.join(WORK_DIR, f"reps-{workload}-{seed}-trace{int(trace)}.json")
    with open(reps_path, "w") as out:
        json.dump({"reps": reps}, out)

    for problem in problems:
        log(f"perfbench: {workload} seed {seed}: FAILED: {problem}")
    log(f"perfbench: {workload} seed {seed}: {len(reps)} repetitions, "
        f"{time.monotonic() - started:.1f} s")
    print(f"digest {workload} seed={seed} {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (RuntimeError, OSError, ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    finally:
        # Snapshots are per-run inputs; the span files stay for inspection.
        for name in os.listdir(WORK_DIR) if os.path.isdir(WORK_DIR) else ():
            if name.endswith(".mmap"):
                os.remove(os.path.join(WORK_DIR, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
