#!/usr/bin/env python3
"""Run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark and the bbb library from source in Release (CMake +
Ninja) into the directory named by CARGO_TARGET_DIR when it is a relative
path inside the checkout, else `.bench_build`. It then runs the benchmark
binary and relays its output. The binary's last line is one JSON object with
the keys correct, attempted, failed and metrics. `--workload all` runs every
workload BENCHMARK.json lists, one after another. Build output goes to stderr.
Spans of the run are written to <build dir>/spans/. Exits non-zero without a
result when the checkout lacks the library sources, the build fails, or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def build_dir(root: Path) -> Path:
    name = os.environ.get("CARGO_TARGET_DIR", "")
    candidate = Path(name) if name else None
    if candidate is None or candidate.is_absolute() or ".." in candidate.parts:
        candidate = Path(".bench_build")
    return root / candidate


def run(cmd, **kwargs):
    """Run a command to completion with its stdout sent to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False, **kwargs)


def build(root: Path, out: Path) -> Path:
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no bbb sources next to perfbench/ (run from the repository root)")
    if not (out / "build.ninja").is_file():
        if run(["cmake", "-S", str(root / "perfbench"), "-B", str(out), "-G", "Ninja",
                "-DCMAKE_BUILD_TYPE=Release"]).returncode != 0:
            sys.exit("perfbench: configure failed")
    if run(["cmake", "--build", str(out), "--target", "perfbench", "-j", "4"]).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "perfbench"


def run_workload(binary: Path, spans: Path, workload: str, args) -> bool:
    """Run one workload and relay its output; False when it failed."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--spans", str(spans / f"{workload}-seed{args.seed}-trace{args.trace}.json")]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return False
    # The binary prints its result line only on success.
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    out = build_dir(root)
    binary = build(root, out)
    spans = out / "spans"
    spans.mkdir(exist_ok=True)
    workloads = [args.workload]
    if args.workload == "all":
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in bench["workloads"]]
    ok = [run_workload(binary, spans, w, args) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
