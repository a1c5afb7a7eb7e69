#!/usr/bin/env python3
"""Repo-contract linter: the invariants generic tools cannot check.

Stdlib only, like validate_obs.py. Each rule encodes a contract a past PR
established and the tree now relies on:

  obs-boundary        src/bbb/core/ never includes bbb/obs/ — the PR 7
                      harvest boundary (core keeps passive plain counters;
                      drivers fold them into the registry post-hoc, so
                      --obs=off runs the byte-identical hot loop).
  lemire-only         Engine draws in src/bbb/core/ go through
                      rng::uniform_below / rng::lemire_map (or the
                      ProbeLookahead built on them) — the PR 5 lookahead
                      prefetches the bin a buffered word WILL map to, which
                      is only sound if exactly one word->bin mapping exists.
                      Raw `gen()` draws and std::<random> mappers are
                      banned outside core/probe.hpp.
  golden-pin-coverage Every protocol family registered in
                      core/protocols/registry.cpp is named in at least one
                      GoldenPins test suite — a family without a
                      bit-for-bit pin can drift silently. Prefix families
                      dispatched on SpecPrefix fields (shards[t]:) count
                      as families and need pins too.
  no-wild-randomness  std::rand / srand / time( / std::random_device appear
                      nowhere outside src/bbb/rng/ — every random bit flows
                      from the seeded, pinned engines (SeedSequence), or
                      replicate reproducibility is fiction.
  header-hygiene      Every .hpp opens with #pragma once (first
                      non-comment line) and headers never say
                      `using namespace`.

Suppression: append `// bbb-lint: allow(rule-id)` to the offending line.
Use sparingly and say why on the same line or the one above.

Usage: python3 tools/bbb_lint.py [ROOT]
       python3 tools/bbb_lint.py --list-rules
Exit 0 = clean; 1 = violations (each printed as path:line: [rule] msg);
2 = usage/IO error.
"""

import os
import re
import sys

CPP_DIRS = ("src", "tests", "bench", "tools", "examples")
CPP_EXTS = (".cpp", ".hpp")

ALLOW_RE = re.compile(r"//\s*bbb-lint:\s*allow\(([a-z0-9-]+)\)")

# lemire-only: raw word draws and std::<random> samplers. `gen()` is the
# repo-wide spelling for "draw one raw 64-bit word" (see rng/engine.hpp's
# Engine64 concept); the std types would each introduce a second
# word->value mapping beside rng::lemire_map.
RAW_DRAW_RE = re.compile(r"\bgen\(\)")
STD_RANDOM_RE = re.compile(
    r"std::(uniform_int_distribution|uniform_real_distribution|mt19937(?:_64)?|"
    r"default_random_engine|minstd_rand0?|bernoulli_distribution|discrete_distribution)")

# no-wild-randomness: `time(` must not match identifiers like
# coupon_collector_time( — hence the no-word-char lookbehind.
WILD_RES = (
    ("std::rand", re.compile(r"std::rand\b")),
    ("srand(", re.compile(r"(?<![A-Za-z0-9_])srand\s*\(")),
    ("time(", re.compile(r"(?<![A-Za-z0-9_:])time\s*\(")),
    ("std::random_device", re.compile(r"(?:std::)?random_device\b")),
)

OBS_INCLUDE_RE = re.compile(r'#\s*include\s*[<"]bbb/obs/')
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
REGISTRY_FAMILY_RE = re.compile(r'\bs\.name\s*==\s*"([a-z0-9-]+)"')
# Prefix-modifier families are dispatched on SpecPrefix fields rather than
# s.name (e.g. `prefix.shards != 0` builds the sharded engine). They need
# pins too — a pin text covers one when it names "<family>[".
PREFIX_FAMILY_RE = re.compile(r"\bprefix\.(shards)\b")


def iter_cpp_files(root):
    for top in CPP_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTS):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def rel(root, path):
    return os.path.relpath(path, root)


def suppressed(line, rule):
    m = ALLOW_RE.search(line)
    return m is not None and m.group(1) == rule


STRING_OR_COMMENT_RE = re.compile(
    r'"(?:\\.|[^"\\])*"'     # string literal (keeps the quotes)
    r"|'(?:\\.|[^'\\])*'"    # char literal
    r"|//.*$"                # line comment to EOL
    r"|/\*.*?\*/")           # block comment closed on the same line


def code_lines(lines):
    """Yield each line with strings and comments blanked out.

    Token rules (time(, gen(), random_device...) must not fire on prose in
    comments — "allocation time (Theorem 3.1)" is not a time() call. The
    original line still carries any `// bbb-lint: allow(...)` marker, so
    suppression checks keep using the raw line.
    """
    in_block = False
    for line in lines:
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield ""
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        line = STRING_OR_COMMENT_RE.sub('""', line)
        start = line.find("/*")
        if start >= 0:
            line = line[:start]
            in_block = True
        yield line


def check_obs_boundary(root):
    """core/ must not include bbb/obs/ (PR 7 harvest boundary)."""
    violations = []
    core = os.path.join(root, "src", "bbb", "core")
    for path in iter_cpp_files(root):
        if not path.startswith(core + os.sep):
            continue
        for i, line in enumerate(read_lines(path), 1):
            if OBS_INCLUDE_RE.search(line) and not suppressed(line, "obs-boundary"):
                violations.append((rel(root, path), i, "obs-boundary",
                                   "core/ includes bbb/obs/ — the hot core stays "
                                   "obs-free; harvest counters post-hoc instead "
                                   "(see obs/harvest.hpp)"))
    return violations


def check_lemire_only(root):
    """Raw engine draws / std samplers banned in core/ outside probe.hpp."""
    violations = []
    core = os.path.join(root, "src", "bbb", "core")
    exempt = os.path.join(core, "probe.hpp")  # the sanctioned raw-word consumer
    for path in iter_cpp_files(root):
        if not path.startswith(core + os.sep):
            continue
        raw = read_lines(path)
        for i, (line, code) in enumerate(zip(raw, code_lines(raw)), 1):
            if STD_RANDOM_RE.search(code) and not suppressed(line, "lemire-only"):
                violations.append((rel(root, path), i, "lemire-only",
                                   "std::<random> sampler in core/ — draw through "
                                   "rng::uniform_below / rng::lemire_map so the "
                                   "lookahead prefetch mapping stays unique"))
            elif path != exempt and RAW_DRAW_RE.search(code) \
                    and not suppressed(line, "lemire-only"):
                violations.append((rel(root, path), i, "lemire-only",
                                   "raw engine draw `gen()` in core/ — only "
                                   "probe.hpp touches raw words; route bounded "
                                   "draws through rng::uniform_below"))
    return violations


def registry_families(root):
    path = os.path.join(root, "src", "bbb", "core", "protocols", "registry.cpp")
    families = []
    for line in read_lines(path):
        for name in REGISTRY_FAMILY_RE.findall(line):
            if name not in families:
                families.append(name)
        for name in PREFIX_FAMILY_RE.findall(line):
            # Search pins for "shards[" — matches any "shards[t]:" spec.
            if name + "[" not in families:
                families.append(name + "[")
    return families


def check_golden_pin_coverage(root):
    """Every registry family appears in a GoldenPins test suite."""
    registry = os.path.join(root, "src", "bbb", "core", "protocols", "registry.cpp")
    if not os.path.exists(registry):
        return [("src/bbb/core/protocols/registry.cpp", 1, "golden-pin-coverage",
                 "registry.cpp not found — cannot enumerate protocol families")]
    pin_texts = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "tests")):
        for name in sorted(filenames):
            if name.endswith("_test.cpp"):
                path = os.path.join(dirpath, name)
                text = "\n".join(read_lines(path))
                if "GoldenPins" in text:
                    pin_texts.append(text)
    violations = []
    for family in registry_families(root):
        if not any(family in text for text in pin_texts):
            violations.append(("src/bbb/core/protocols/registry.cpp", 1,
                               "golden-pin-coverage",
                               f"protocol family '{family}' has no GoldenPins "
                               "test — add a bit-for-bit pin (see "
                               "tests/protocols/golden_pins_test.cpp)"))
    return violations


def check_no_wild_randomness(root):
    """Unseeded/system randomness banned outside src/bbb/rng/."""
    violations = []
    rng_dir = os.path.join(root, "src", "bbb", "rng")
    for path in iter_cpp_files(root):
        if path.startswith(rng_dir + os.sep):
            continue
        raw = read_lines(path)
        for i, (line, code) in enumerate(zip(raw, code_lines(raw)), 1):
            for label, pattern in WILD_RES:
                if pattern.search(code) and not suppressed(line, "no-wild-randomness"):
                    violations.append((rel(root, path), i, "no-wild-randomness",
                                       f"{label} outside rng/ — all randomness "
                                       "flows from seeded engines "
                                       "(rng::SeedSequence) so runs replay"))
    return violations


def check_header_hygiene(root):
    """.hpp files open with #pragma once and never `using namespace`."""
    violations = []
    for path in iter_cpp_files(root):
        if not path.endswith(".hpp"):
            continue
        lines = read_lines(path)
        in_block_comment = False
        guard_seen = False
        for i, line in enumerate(lines, 1):
            stripped = line.strip()
            if in_block_comment:
                if "*/" in stripped:
                    in_block_comment = False
                continue
            if not stripped or stripped.startswith("//"):
                continue
            if stripped.startswith("/*"):
                in_block_comment = "*/" not in stripped
                continue
            guard_seen = stripped == "#pragma once"
            if not guard_seen and not suppressed(line, "header-hygiene"):
                violations.append((rel(root, path), i, "header-hygiene",
                                   "first non-comment line must be #pragma once"))
            break
        for i, line in enumerate(lines, 1):
            if USING_NAMESPACE_RE.search(line) \
                    and not suppressed(line, "header-hygiene"):
                violations.append((rel(root, path), i, "header-hygiene",
                                   "`using namespace` in a header leaks into "
                                   "every includer"))
    return violations


RULES = (
    ("obs-boundary", check_obs_boundary),
    ("lemire-only", check_lemire_only),
    ("golden-pin-coverage", check_golden_pin_coverage),
    ("no-wild-randomness", check_no_wild_randomness),
    ("header-hygiene", check_header_hygiene),
)


def run_all(root):
    violations = []
    for _name, check in RULES:
        violations.extend(check(root))
    return violations


def main(argv):
    if "--list-rules" in argv:
        for name, check in RULES:
            print(f"{name}: {check.__doc__}")
        return 0
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.abspath(argv[1]) if len(argv) == 2 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"bbb_lint: '{root}' has no src/ — not a repo root", file=sys.stderr)
        return 2
    violations = run_all(root)
    for path, line, rule, msg in sorted(violations):
        print(f"{path}:{line}: [{rule}] {msg}")
    if violations:
        print(f"bbb_lint: {len(violations)} violation(s)")
        return 1
    print(f"bbb_lint: clean ({len(RULES)} rules over "
          f"{sum(1 for _ in iter_cpp_files(root))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
