"""Tests of the benchmark's own arithmetic and formats.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import benchlib  # noqa: E402
from benchlib import Span  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def validate_spec(spec):
    """Returns the ways a parsed BENCHMARK.json breaks the format rules."""
    errors = []
    if set(spec) != SPEC_KEYS:
        errors.append("top-level keys %s" % sorted(spec))
        return errors
    seen = set()

    def name_ok(name):
        if not isinstance(name, str) or not benchlib.NAME_RE.match(name):
            errors.append("bad name %r" % (name,))
        elif name in seen:
            errors.append("duplicate name %r" % name)
        seen.add(name)

    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("workload count")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append("workload keys %s" % sorted(w))
            continue
        name_ok(w["name"])
        if "\n" in w["why"] or len(w["why"]) > 200:
            errors.append("why of %s" % w["name"])
    for group, keys, lo, hi in (("end_to_end", {"name", "unit", "better",
                                                "bound"}, 1, 16),
                                ("per_layer", {"name", "unit", "better"},
                                 1, 128)):
        if not lo <= len(spec[group]) <= hi:
            errors.append("%s count" % group)
        for m in spec[group]:
            if set(m) != keys:
                errors.append("%s keys %s" % (group, sorted(m)))
                continue
            name_ok(m["name"])
            if not UNIT_RE.match(m["unit"]):
                errors.append("bad unit %r" % m["unit"])
            if m["better"] not in ("higher", "lower"):
                errors.append("better of %s" % m["name"])
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                errors.append("bound of %s" % m["name"])
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds")
    return errors


def tree():
    """run [0,100] > setup [0,30] > sim [5,25] > reply [10,14] > issue
    [11,13]; run > check [40,90]. Self: run 20, setup 10, sim 16, reply 2,
    issue 2, check 50."""
    return [
        Span(1, 0, "run", 0, 0, 100, 0),
        Span(2, 1, "setup", 0, 0, 30, 0),
        Span(3, 2, "sim.window", 0, 5, 25, 8),
        Span(4, 3, "bench.reply", 7, 10, 14, 0),
        Span(5, 4, "core.issue", 8, 11, 13, 0),
        Span(6, 1, "checker.check", 0, 40, 90, 0),
    ]


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_direct_children(self):
        self.assertEqual(benchlib.self_times(tree()),
                         {1: 20, 2: 10, 3: 16, 4: 2, 5: 2, 6: 50})

    def test_self_times_sum_to_root_duration(self):
        spans = tree()
        self.assertEqual(sum(benchlib.self_times(spans).values()), 100)
        table = benchlib.self_time_table(spans)
        self.assertEqual(sum(row[3] for row in table), 100)
        self.assertEqual(table[0], ("checker.check", 1, 50, 50))

    def test_table_groups_by_name(self):
        spans = tree() + [Span(7, 3, "bench.reply", 9, 20, 23, 0)]
        rows = {r[0]: r for r in benchlib.self_time_table(spans)}
        self.assertEqual(rows["bench.reply"], ("bench.reply", 2, 7, 5))
        self.assertEqual(rows["sim.window"][3], 13)

    def test_span_metrics(self):
        m = benchlib.span_metrics(tree(), history_ops=10)
        self.assertEqual(m["sim.self_ns_per_event"], 16 / 8)
        self.assertEqual(m["core.issue_ns_per_op"], 2)
        self.assertEqual(m["bench.reply_ns_per_op"], 2)
        self.assertEqual(m["checker.check_s"], 50 / 1e9)
        self.assertEqual(m["checker.ns_per_op"], 5)
        self.assertEqual(m["workload.gen_ns_per_cmd"], 0.0)

    def test_span_csv_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.csv")
            with open(path, "w") as f:
                f.write("# workload=x seed=1\n"
                        "id,parent,name,op,start_ns,end_ns,count\n")
                for s in tree():
                    f.write(",".join(str(v) for v in s) + "\n")
            self.assertEqual(benchlib.read_spans(path), tree())


class NameGrammarTest(unittest.TestCase):
    def test_names(self):
        for good in ("run_s", "sim.events_per_op", "lan-paxos", "9x",
                     "a" * 64):
            self.assertTrue(benchlib.NAME_RE.match(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, "ä"):
            self.assertFalse(benchlib.NAME_RE.match(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "MB", "ratio"):
            self.assertTrue(UNIT_RE.match(good), good)
        for bad in ("", "m s", "x" * 17, "ms!"):
            self.assertFalse(UNIT_RE.match(bad), bad)

    def test_spec_is_valid_and_matches_the_catalogue(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        self.assertEqual(validate_spec(spec), [])
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, {n: u for n, (u, _) in
                               benchlib.END_TO_END.items()})
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layers, benchlib.PER_LAYER)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_validate_spec_rejects(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        spec["end_to_end"][0]["bound"] = 0.3
        spec["per_layer"][0]["name"] = "bad name"
        errors = validate_spec(spec)
        self.assertEqual(len(errors), 2, errors)


class ResultLineTest(unittest.TestCase):
    METRICS = {"run_s": (1.2345678901, "s"), "vtput_ops_s": (9012, "1/s")}

    def test_round_trip(self):
        line = benchlib.format_result(True, 27030, 0, self.METRICS)
        out = "human readable table\n" + line + "\n"
        self.assertEqual(benchlib.parse_result(out),
                         (True, 27030, 0, self.METRICS))
        self.assertEqual(sorted(json.loads(line)), sorted(
            benchlib.RESULT_KEYS))

    def test_parse_rejects_malformed(self):
        good = json.loads(benchlib.format_result(False, 1, 1, self.METRICS))
        bad_lines = [
            "",
            json.dumps(dict(good, extra=1)),
            json.dumps(dict(good, correct="yes")),
            json.dumps(dict(good, attempted=1.5)),
            json.dumps(dict(good, metrics={"run_s": {"value": 1}})),
            json.dumps(dict(good, metrics={
                "run_s": {"value": "1", "unit": "s"}})),
        ]
        for line in bad_lines:
            with self.assertRaises(ValueError, msg=line):
                benchlib.parse_result(line)


if __name__ == "__main__":
    unittest.main()
