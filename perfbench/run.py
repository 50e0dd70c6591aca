#!/usr/bin/env python3
"""End-to-end benchmark of the paxi simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the paxi library plus the trial binary) into
.bench_build/, then runs trials of one workload for about S seconds of host
time, one process per trial so each trial's peak RSS is its own. Every
trial of one invocation uses the same seed, so the virtual (simulated)
results and the history digest must repeat exactly; host timings are
reported as medians over the trials.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced trials and prints the per-layer metrics, the span self-time table,
and the tracing overhead; spans go to .bench_out/spans-<workload>.csv.
--workload all runs every workload of BENCHMARK.json in turn.

The command fails (exit 1, "correct": false) when a linearizability anomaly
is found on any trial's full history, when trials of one seed disagree on
a virtual metric or the history digest, or when a traced trial disagrees
with an untraced one. Build or launch problems exit 2 with no result line.
See perfbench/METRICS.md for what each metric means and should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "paxi_perfbench")
MIN_TRIALS = 3          # per kind (untraced, traced) and invocation
TRIAL_TIMEOUT_S = 120
INVOCATION_BUDGET_S = 150  # stop starting trials past this, whatever S is


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no paxi sources at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "paxi_perfbench"])
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=env).returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(step))


def run_trial(workload, seed, traced):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    spans_path = os.path.join(OUT_DIR, "spans-%s.csv" % workload)
    if traced:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=TRIAL_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("trial failed (%d): %s" % (proc.returncode,
                                                    proc.stderr.strip()))
    trial = json.loads(proc.stdout.strip().splitlines()[-1])
    if traced:
        trial["spans"] = benchlib.read_spans(spans_path)
        trial["layers"].update(benchlib.span_metrics(
            trial["spans"], trial["virtual"]["history_ops"]))
        trial["layers"]["model.tput_ratio"] = trial["model"]["tput_ratio"]
        trial["layers"]["model.latency_ratio"] = (
            trial["model"]["latency_ratio"])
    return trial


def run_trials(workload, seed, seconds, trace):
    """Untraced trials (and, with trace, as many traced ones, alternating)
    until `seconds` of host time have passed and each kind has
    MIN_TRIALS."""
    start = time.monotonic()
    untraced, traced = [], []
    while True:
        elapsed = time.monotonic() - start
        enough = len(untraced) >= MIN_TRIALS and (
            not trace or len(traced) >= MIN_TRIALS)
        if (enough and elapsed >= seconds) or (
                untraced and elapsed >= INVOCATION_BUDGET_S):
            return untraced, traced
        untraced.append(run_trial(workload, seed, False))
        if trace:
            traced.append(run_trial(workload, seed, True))
            # Only the last traced trial's spans feed the self-time table.
            if len(traced) > 1:
                del traced[-2]["spans"]


def gates(untraced, traced):
    """Correctness problems across the trials of one seed."""
    problems = []
    for t in untraced + traced:
        if t["virtual"]["lin_anomalies"] != 0:
            problems.append("%d linearizability anomalies in the full history"
                            % t["virtual"]["lin_anomalies"])
    reference = untraced[0]["virtual"]
    for t in untraced[1:]:
        if t["virtual"] != reference:
            problems.append("virtual metrics or history digest differ "
                            "between repeats of one seed")
    for t in traced:
        if t["virtual"] != reference:
            problems.append("a traced trial's virtual metrics differ from "
                            "the untraced trial's")
    return sorted(set(problems))


def end_to_end(untraced):
    v = untraced[0]["virtual"]
    out = {}
    for name, (unit, side) in benchlib.END_TO_END.items():
        if side == "host":
            value = statistics.median([t["host"][name] for t in untraced])
        else:
            value = v[name]
        out[name] = (value, unit)
    return out


def per_layer(untraced, traced):
    samples = {name: [] for name in benchlib.PER_LAYER}
    for t in traced:
        for name, value in t["layers"].items():
            samples[name].append(value)
    overhead = (statistics.median([t["host"]["run_s"] for t in traced]) -
                statistics.median([t["host"]["run_s"] for t in untraced]))
    samples["bench.trace_overhead_s"] = [overhead]
    return {name: (statistics.median(vals), benchlib.PER_LAYER[name])
            for name, vals in samples.items()}


def report(workload, seed, untraced, traced, e2e, layers):
    """Human-readable lines; the result line follows them."""
    v = untraced[0]["virtual"]
    n = len(untraced)
    print("perfbench workload=%s seed=%d trials=%d untraced, %d traced "
          "(one process each)" % (workload, seed, n, len(traced)))
    # Host numbers are medians over trials; with fewer than 1000 trials no
    # host p99 has ten samples beyond it, so none is printed.
    print("  %-24s %-6s %14s  %s" % ("metric", "unit", "value", "samples"))
    for name, (value, unit) in e2e.items():
        if benchlib.END_TO_END[name][1] == "host":
            samples = "median of %d trials (host)" % n
        elif name.startswith("vlat"):
            samples = "%d ops, same every trial (virtual)" % v["vlat_samples"]
        else:
            samples = "%d ops over %g virtual s" % (v["ok"], v["window_s"])
        print("  %-24s %-6s %14.6g  %s" % (name, unit, value, samples))
    print("  %-24s %-6s %14.6g  %d failed of %d attempted (virtual)" % (
        "failed_ratio", "ratio", v["failed_ratio"], v["failed"],
        v["attempted"]))
    print("  %-24s %-6s %14d  full history of %d ops" % (
        "lin_anomalies", "count", v["lin_anomalies"], v["history_ops"]))
    print("  model: max %.0f ops/s, predicted mean %.3f ms, measured mean "
          "%.3f ms" % (untraced[0]["model"]["max_ops_s"],
                       untraced[0]["model"]["predicted_mean_ms"],
                       v["vlat_mean_ms"]))
    if not traced:
        return
    t = traced[-1]
    print("  per-layer (median of %d traced trials):" % len(traced))
    for name, (value, unit) in layers.items():
        print("  %-28s %-6s %14.6g" % (name, unit, value))
    spans = t["spans"]
    root = next(s for s in spans if s.parent == 0)
    table = benchlib.self_time_table(spans)
    total_self = sum(row[3] for row in table)
    print("  self time of the last traced trial (%d spans):" % len(spans))
    print("  %-16s %9s %12s %12s %7s" % ("span", "calls", "total_ms",
                                          "self_ms", "self%"))
    for name, calls, total, own in table:
        print("  %-16s %9d %12.3f %12.3f %6.1f%%" % (
            name, calls, total / 1e6, own / 1e6, 100.0 * own / total_self))
    print("  self times sum to %.6f s = root span %.6f s; traced run_s "
          "%.6f s" % (total_self / 1e9, (root.end_ns - root.start_ns) / 1e9,
                      t["host"]["run_s"]))
    print("  tracing overhead: traced run_s %.4f s - untraced run_s %.4f s "
          "= %.4f s (medians)" % (
              statistics.median([x["host"]["run_s"] for x in traced]),
              statistics.median([x["host"]["run_s"] for x in untraced]),
              layers["bench.trace_overhead_s"][0]))
    types = sorted(t["msg_types"].items(), key=lambda kv: -kv[1]["msgs"])
    ops = max(1, v["ok"])
    dests = sorted(t["msg_dests"].items(), key=lambda kv: -kv[1])
    print("  busiest destinations (msgs per committed op): " + ", ".join(
        "%s %.2f" % (d, n / ops) for d, n in dests[:4]))
    print("  messages per committed op in the window, by type:")
    for name, tally in types:
        print("    %-48s %8.3f msgs %9.1f B" % (
            name, tally["msgs"] / ops, tally["bytes"] / ops))


def bench_one(workload, seed, seconds, trace):
    untraced, traced = run_trials(workload, seed, seconds, trace)
    problems = gates(untraced, traced)
    e2e = end_to_end(untraced)
    layers = per_layer(untraced, traced) if trace else {}
    report(workload, seed, untraced, traced, e2e, layers)
    for p in problems:
        print("  FAIL: %s" % p)
    trials = untraced + traced
    attempted = sum(t["virtual"]["attempted"] for t in trials)
    failed = sum(t["virtual"]["failed"] for t in trials)
    print(benchlib.format_result(not problems, attempted, failed,
                                 layers if trace else e2e), flush=True)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        selected = [args.workload]
        if args.workload == "all":
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                selected = [w["name"] for w in json.load(f)["workloads"]]
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        ok = True
        for workload in selected:
            ok = bench_one(workload, args.seed, args.seconds,
                           bool(args.trace)) and ok
        return 0 if ok else 1
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
