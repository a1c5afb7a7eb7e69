#!/usr/bin/env python3
"""Validate a bbb --obs-out JSON-lines trace against tools/obs_schema.json.

Stdlib only (CI runners have no jsonschema package): `check` implements
the subset of JSON Schema the schema file actually uses — required keys,
type checks, const/enum, numeric minimums, minLength/minProperties — and
fails loudly on any other keyword it finds in the schema, so the two files
cannot drift apart silently. Each line must parse as JSON, satisfy the
common record envelope (schema/event/tool/seq), and satisfy the per-event
payload schema for its `event`. On top of the per-line checks, `seq` must
be strictly increasing across the file — the one constraint a per-record
schema cannot express, and the one that catches interleaved or truncated
traces.

Usage: python3 tools/validate_obs.py TRACE.jsonl [SCHEMA.json]
Exit 0 = valid; 1 = invalid (every violation printed); 2 = usage/IO error.
"""

import collections
import json
import os
import sys

TYPE_MAP = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}

HANDLED = {
    "$schema", "$id", "title", "description", "type", "required",
    "properties", "const", "enum", "minimum", "minLength", "minProperties",
}


def check(value, schema, path, errors):
    """Append every violation of `schema` by `value` to `errors`."""
    unknown = set(schema) - HANDLED
    if unknown:
        errors.append(f"{path}: validator does not implement schema keywords "
                      f"{sorted(unknown)} — extend tools/validate_obs.py")
        return
    expected = schema.get("type")
    if expected is not None:
        py = TYPE_MAP[expected]
        ok = isinstance(value, py) and not (expected in ("integer", "number")
                                            and isinstance(value, bool))
        if not ok:
            errors.append(f"{path}: expected {expected}, got "
                          f"{type(value).__name__} ({value!r})")
            return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if "minLength" in schema and isinstance(value, str) \
            and len(value) < schema["minLength"]:
        errors.append(f"{path}: length {len(value)} < {schema['minLength']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        if "minProperties" in schema and len(value) < schema["minProperties"]:
            errors.append(f"{path}: needs >= {schema['minProperties']} properties")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                check(value[key], sub, f"{path}.{key}", errors)


def validate_lines(lines, schema):
    """Validate an iterable of raw trace lines; returns (errors, counts).

    `errors` is a list of human-readable violations ("line N: ..."), empty
    when the trace is valid; `counts` maps event name -> occurrences.
    """
    errors = []
    counts = collections.Counter()
    last_seq = None
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            errors.append(f"line {lineno}: blank line (not a JSON record)")
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: not JSON ({e})")
            continue
        line_errors = []
        check(record, schema["record"], f"line {lineno}", line_errors)
        event = record.get("event")
        if not line_errors and event in schema["events"]:
            check(record, schema["events"][event], f"line {lineno}", line_errors)
        errors.extend(line_errors)
        if line_errors:
            continue
        counts[event] += 1
        seq = record["seq"]
        if last_seq is not None and seq <= last_seq:
            errors.append(f"line {lineno}: seq {seq} not greater than "
                          f"previous seq {last_seq}")
        last_seq = seq
    if not counts and not errors:
        errors.append("trace is empty (no records)")
    return errors, counts


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    trace_path = argv[1]
    schema_path = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "obs_schema.json")
    try:
        with open(trace_path) as f:
            lines = f.readlines()
        with open(schema_path) as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"validate_obs: {e}", file=sys.stderr)
        return 2
    errors, counts = validate_lines(lines, schema)
    if errors:
        for e in errors:
            print(f"INVALID {e}")
        return 1
    breakdown = ", ".join(f"{n} {ev}" for ev, n in sorted(counts.items()))
    print(f"OK {trace_path}: {sum(counts.values())} records ({breakdown})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
