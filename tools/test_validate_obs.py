#!/usr/bin/env python3
"""Unit tests for tools/validate_obs.py — malformed-record coverage.

Run directly (python3 tools/test_validate_obs.py) or through ctest, which
registers it when a Python3 interpreter is found.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from validate_obs import validate_lines  # noqa: E402


def load_schema():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "obs_schema.json")
    with open(path) as f:
        return json.load(f)


def record(**overrides):
    """A valid replicate record, with per-test mutations applied on top."""
    base = {"schema": "bbb-obs-v1", "event": "replicate", "tool": "sim",
            "replicate": 0, "metrics": {"probes": 7}, "seq": 0}
    base.update(overrides)
    return base


class ValidTraces(unittest.TestCase):
    SCHEMA = load_schema()

    def errors_of(self, records):
        lines = [json.dumps(r) if isinstance(r, dict) else r for r in records]
        errors, _ = validate_lines(lines, self.SCHEMA)
        return errors

    def test_full_trace_valid(self):
        errors = self.errors_of([
            {"schema": "bbb-obs-v1", "event": "run_start", "tool": "sim",
             "config": {"m": 10}, "seq": 0},
            {"schema": "bbb-obs-v1", "event": "heartbeat", "tool": "sim",
             "replicate": 0, "done": 5, "total": 10, "seq": 1},
            record(seq=2),
            {"schema": "bbb-obs-v1", "event": "summary", "tool": "sim",
             "metrics": {"core.probe.count": 20}, "seq": 3},
        ])
        self.assertEqual(errors, [])


class MalformedRecords(unittest.TestCase):
    SCHEMA = load_schema()

    def assert_invalid(self, records, fragment):
        lines = [json.dumps(r) if isinstance(r, dict) else r for r in records]
        errors, _ = validate_lines(lines, self.SCHEMA)
        self.assertTrue(errors, "expected a violation, trace passed")
        self.assertTrue(any(fragment in e for e in errors),
                        f"no error mentions {fragment!r}: {errors}")

    def test_not_json(self):
        self.assert_invalid(["{not json"], "not JSON")

    def test_blank_line(self):
        self.assert_invalid([json.dumps(record()), "   \n"], "blank line")

    def test_wrong_schema_tag(self):
        self.assert_invalid([record(schema="bbb-obs-v99")], "'bbb-obs-v1'")

    def test_unknown_event(self):
        self.assert_invalid([record(event="shutdown")], "shutdown")

    def test_missing_seq(self):
        rec = record()
        del rec["seq"]
        self.assert_invalid([rec], "seq")

    def test_seq_must_strictly_increase(self):
        self.assert_invalid([record(seq=1), record(seq=1)],
                            "not greater than previous")

    def test_seq_regression(self):
        self.assert_invalid([record(seq=5), record(seq=2)],
                            "not greater than previous")

    def test_empty_tool(self):
        self.assert_invalid([record(tool="")], "length 0")

    def test_run_start_needs_config(self):
        self.assert_invalid(
            [{"schema": "bbb-obs-v1", "event": "run_start", "tool": "sim",
              "seq": 0}], "config")

    def test_replicate_needs_metrics(self):
        rec = record()
        del rec["metrics"]
        self.assert_invalid([rec], "metrics")

    def test_heartbeat_needs_total(self):
        self.assert_invalid(
            [{"schema": "bbb-obs-v1", "event": "heartbeat", "tool": "dyn",
              "replicate": 0, "done": 5, "seq": 0}], "total")

    def test_negative_seq(self):
        self.assert_invalid([record(seq=-1)], "minimum")

    def test_empty_trace(self):
        errors, counts = validate_lines([], load_schema())
        self.assertTrue(errors)
        self.assertEqual(sum(counts.values()), 0)


class SchemaKeywords(unittest.TestCase):
    def test_unimplemented_keyword_is_refused(self):
        # A schema keyword the checker does not implement must fail every
        # record, never pass it unchecked.
        schema = load_schema()
        schema["record"]["properties"]["tool"]["pattern"] = "^[a-z]+$"
        errors, _ = validate_lines([json.dumps(record())], schema)
        self.assertTrue(any("does not implement schema keywords ['pattern']"
                            in e for e in errors), errors)


if __name__ == "__main__":
    unittest.main()
