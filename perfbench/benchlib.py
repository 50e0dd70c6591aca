"""Pure helpers of the benchmark runner (perfbench/run.py): the metric
catalogue, span self-time arithmetic, and the result line's format and
parse. Kept free of process and build logic so
perfbench/tests can exercise it directly."""

import csv
import json
import re
from collections import namedtuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

# End-to-end metrics printed with --trace 0: name -> (unit, side). "host"
# numbers are host time and memory of one trial process; "virtual" numbers
# are simulated time and repeat exactly for a seed.
END_TO_END = {
    "run_s": ("s", "host"),
    "setup_s": ("s", "host"),
    "sim_ops_per_s": ("1/s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "vtput_ops_s": ("1/s", "virtual"),
    "vlat_p50_ms": ("ms", "virtual"),
    "vlat_p99_ms": ("ms", "virtual"),
}

# Per-layer metrics printed with --trace 1: name -> unit. Flow counts are
# taken over the measured window and divided by the ops it committed.
PER_LAYER = {
    "sim.events_per_op": "count",
    "sim.self_ns_per_event": "ns",
    "sim.event_ns_p50": "ns",
    "sim.event_ns_p99": "ns",
    "pool.msgs_per_op": "count",
    "pool.fresh_allocs_per_op": "count",
    "pool.slab_mb": "MB",
    "net.msgs_per_op": "count",
    "net.bytes_per_op": "B",
    "net.busiest_node_share": "ratio",
    "core.issue_ns_per_op": "ns",
    "core.client_retries": "count",
    "core.log_entries_per_op": "count",
    "wal.syncs_per_write": "count",
    "wal.group_commit": "count",
    "wal.bytes_synced_per_write": "B",
    "lease.read_share": "ratio",
    "lease.degrades": "count",
    "workload.gen_ns_per_cmd": "ns",
    "checker.check_s": "s",
    "checker.ns_per_op": "ns",
    "checker.history_ops": "count",
    "model.tput_ratio": "ratio",
    "model.latency_ratio": "ratio",
    "bench.reply_ns_per_op": "ns",
    "bench.trace_overhead_s": "s",
}

# --- Spans ------------------------------------------------------------------

Span = namedtuple("Span", "id parent name op start_ns end_ns count")


def read_spans(path):
    """Reads a span CSV written by the trial binary (perfbench/trace.h)."""
    with open(path, newline="") as f:
        rows = [line for line in f if not line.startswith("#")]
    reader = csv.DictReader(rows)
    return [Span(int(r["id"]), int(r["parent"]), r["name"], int(r["op"]),
                 int(r["start_ns"]), int(r["end_ns"]), int(r["count"]))
            for r in reader]


def self_times(spans):
    """Span id -> self time in ns: its duration minus its direct children's.
    Children nest inside their parent, so the self times of a tree sum to
    the root's duration."""
    self_ns = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent:
            self_ns[s.parent] -= s.end_ns - s.start_ns
    return self_ns


def self_time_table(spans):
    """Rows (name, calls, total_ns, self_ns), largest self time first."""
    self_ns = self_times(spans)
    rows = {}
    for s in spans:
        calls, total, own = rows.get(s.name, (0, 0, 0))
        rows[s.name] = (calls + 1, total + s.end_ns - s.start_ns,
                        own + self_ns[s.id])
    return sorted(((n,) + v for n, v in rows.items()),
                  key=lambda r: (-r[3], r[0]))


def span_metrics(spans, history_ops):
    """The per-layer metrics that come from span timings."""
    self_ns = self_times(spans)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def durations(name):
        return [s.end_ns - s.start_ns for s in spans if s.name == name]

    window = [s for s in spans if s.name == "sim.window"]
    window_events = sum(s.count for s in window)
    check_ns = sum(durations("checker.check"))
    return {
        "sim.self_ns_per_event":
            sum(self_ns[s.id] for s in window) / window_events
            if window_events else 0.0,
        "core.issue_ns_per_op": mean(durations("core.issue")),
        "workload.gen_ns_per_cmd": mean(durations("workload.next")),
        "bench.reply_ns_per_op":
            mean([self_ns[s.id] for s in spans if s.name == "bench.reply"]),
        "checker.check_s": check_ns / 1e9,
        "checker.ns_per_op": check_ns / history_ops if history_ops else 0.0,
    }


# --- Result line ------------------------------------------------------------

def format_result(correct, attempted, failed, metrics):
    """The last line of the benchmark's output. `metrics` maps a name to a
    (value, unit) pair."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def parse_result(output):
    """Parses the last line of `output`; returns (correct, attempted,
    failed, metrics) with metrics as in format_result. Raises ValueError on
    any departure from the format."""
    lines = output.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    obj = json.loads(lines[-1])
    if not isinstance(obj, dict) or tuple(sorted(obj)) != tuple(
            sorted(RESULT_KEYS)):
        raise ValueError("result keys %r" % (obj,))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError("%s must be a whole number" % key)
    metrics = {}
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or not NAME_RE.match(name):
            raise ValueError("metric %r" % name)
        if not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool):
            raise ValueError("value of %s" % name)
        metrics[name] = (m["value"], m["unit"])
    return obj["correct"], obj["attempted"], obj["failed"], metrics
