#!/usr/bin/env python3
"""A/B a revision against the working tree on the repository benchmark.

    python3 tools/perf_ab.py --base <rev> --workdir <dir> [--pairs 4]
        [--results <file>]
    python3 tools/perf_ab.py --summarize <file>

Exports the committed files of `--base` (with `git archive`) and the
working tree's tracked files (so uncommitted edits to them are measured)
into `<workdir>/base` and `<workdir>/head`, each a fresh directory like
the ones the benchmark is judged in. It then runs N alternating pairs of
`perfbench/run.py --trace 0` for every BENCHMARK.json workload at its
`run_seconds`, odd pairs base first, pair i at `--seed i`; each side's
first run builds its checkout. `--results` receives one JSON record per
run (the file is rewritten), and `--summarize` re-prints the verdicts
from such a file.

For every end-to-end metric of BENCHMARK.json (read, never written) it
prints both medians, the ratio head / base, each side's spread (IQR over
median) and a verdict:

  FAIL        a run of either side failed or printed no result line
  REGRESSION  the head median is worse than the base median by more than
              the metric's bound, or head fails a larger share of checks
  NOISY       a side's spread exceeds the metric's bound, too wide to tell,
              unless every head run reads better than every base run
  GAIN        head is better in at least 9 of 10 pairs and its median
              beats the base median by more than the base IQR
  flat        none of the above

Exits 1 when any workload has a FAIL or REGRESSION verdict, else 0.
Stdlib only.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STAMP = ".perf_ab"  # marks an export directory this script may replace


def load_bench(root=REPO):
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_result(stdout):
    """The result object of one run.py stdout: its last non-empty line,
    when that is a JSON object with `metrics`; None otherwise."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return None
    return result


def spread(values):
    """(IQR, IQR over median) of a sample; IQR is 0 below two values."""
    if len(values) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q3 - q1, (q3 - q1) / abs(med) if med else math.inf


def worse_by(better, base, head):
    """The fraction by which head is worse than base (negative: better)."""
    if base == 0:
        return 0.0 if head == base else math.inf
    delta = (base - head) if better == "higher" else (head - base)
    return delta / abs(base)


def fail_share(results):
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return failed / attempted if attempted else 0.0


def metric_verdict(spec, base_values, head_values):
    """Verdict row for one metric over paired values (pair i of each list
    ran at the same seed)."""
    better, bound = spec["better"], spec["bound"]
    base_med = statistics.median(base_values)
    head_med = statistics.median(head_values)
    base_iqr, base_spread = spread(base_values)
    _, head_spread = spread(head_values)
    wins = sum(1 for b, h in zip(base_values, head_values) if worse_by(better, b, h) < 0)
    worse = worse_by(better, base_med, head_med)
    separated = all(worse_by(better, b, h) < 0 for b in base_values for h in head_values)
    if worse > bound:
        verdict = "REGRESSION"
    elif (base_spread > bound or head_spread > bound) and not separated:
        verdict = "NOISY"
    elif wins >= math.ceil(0.9 * len(base_values)) and -worse * abs(base_med) > base_iqr:
        verdict = "GAIN"
    else:
        verdict = "flat"
    return {
        "metric": spec["name"],
        "base": base_med,
        "head": head_med,
        "ratio": head_med / base_med if base_med else math.inf,
        "base_spread": base_spread,
        "head_spread": head_spread,
        "wins": wins,
        "pairs": len(base_values),
        "verdict": verdict,
    }


def workload_verdicts(bench, records):
    """{workload: (status, rows)} from result records, each a dict with
    workload, pair, side ('base' or 'head') and result (None = failed)."""
    out = {}
    names = [w["name"] for w in bench["workloads"]]
    for workload in names + sorted({r["workload"] for r in records} - set(names)):
        mine = [r for r in records if r["workload"] == workload]
        if not mine:
            continue
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r["result"] for r in mine}
        if any(side.get((p, s)) is None for p in pairs for s in ("base", "head")):
            out[workload] = ("FAIL", [])
            continue
        base = [side[(p, "base")] for p in pairs]
        head = [side[(p, "head")] for p in pairs]
        rows = []
        for spec in bench["end_to_end"]:
            name = spec["name"]
            if not all(name in r["metrics"] for r in base + head):
                rows.append({"metric": name, "verdict": "FAIL"})
                continue
            rows.append(metric_verdict(
                spec,
                [r["metrics"][name]["value"] for r in base],
                [r["metrics"][name]["value"] for r in head]))
        status = "ok"
        if any(row["verdict"] == "FAIL" for row in rows):
            status = "FAIL"
        elif (any(row["verdict"] == "REGRESSION" for row in rows)
              or fail_share(head) > fail_share(base)):
            status = "REGRESSION"
        out[workload] = (status, rows)
    return out


def report(bench, records, stream=sys.stdout):
    """Print the verdict tables; True when no workload failed or regressed."""
    clean = True
    for workload, (status, rows) in workload_verdicts(bench, records).items():
        print(f"## {workload}: {status}", file=stream)
        if rows:
            print(f"{'metric':<16} {'base':>12} {'head':>12} {'ratio':>7} "
                  f"{'spread b/h':>13} {'wins':>6}  verdict", file=stream)
        for row in rows:
            if row["verdict"] == "FAIL":
                print(f"{row['metric']:<16} {'(missing)':>12}  FAIL", file=stream)
                continue
            print(f"{row['metric']:<16} {row['base']:>12.5g} {row['head']:>12.5g} "
                  f"{row['ratio']:>7.3f} {row['base_spread']:>6.3f}/{row['head_spread']:<6.3f} "
                  f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}", file=stream)
        clean = clean and status not in ("FAIL", "REGRESSION")
    return clean


def export(rev, dest, repo=REPO):
    """Fresh export of `rev` (None: the working tree's tracked files) of
    git checkout `repo` into `dest`."""
    if dest.exists():
        if not (dest / STAMP).is_file():
            sys.exit(f"perf_ab: {dest} exists and was not made by perf_ab; refusing to replace it")
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        files = subprocess.run(["git", "-C", str(repo), "ls-files", "-z", "-c"],
                               capture_output=True, check=True).stdout
        for rel in filter(None, files.decode().split("\0")):
            src = repo / rel
            if src.is_file():  # a tracked file deleted in the working tree is left out
                (dest / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / rel)
    else:
        archive = subprocess.run(["git", "-C", str(repo), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    (dest / STAMP).write_text(f"{rev or 'working tree'}\n", encoding="utf-8")


def run_one(root, workload, seed, seconds):
    """One perfbench run in checkout `root`; its result object, or None."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    result = parse_result(proc.stdout)
    return result if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base revision")
    parser.add_argument("--workdir", type=Path, help="where the two exports are built")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--results", type=Path,
                        help="write every result record to this JSON-lines file")
    parser.add_argument("--summarize", type=Path,
                        help="print the verdicts of a --results file and exit")
    args = parser.parse_args()
    bench = load_bench()

    if args.summarize:
        lines = args.summarize.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
        return 0 if report(bench, records) else 1
    if not args.base or not args.workdir or args.pairs < 1:
        parser.error("--base, --workdir and --pairs >= 1 are required to run pairs")

    roots = {"base": args.workdir.resolve() / "base", "head": args.workdir.resolve() / "head"}
    export(args.base, roots["base"])
    export(None, roots["head"])
    if args.results:
        args.results.write_text("", encoding="utf-8")
    records = []
    for workload in (w["name"] for w in bench["workloads"]):
        for pair in range(1, args.pairs + 1):
            order = ("base", "head") if pair % 2 == 1 else ("head", "base")
            for side in order:
                result = run_one(roots[side], workload, pair, bench["run_seconds"])
                record = {"workload": workload, "pair": pair, "side": side,
                          "seed": pair, "result": result}
                records.append(record)
                if args.results:
                    with args.results.open("a", encoding="utf-8") as f:
                        f.write(json.dumps(record) + "\n")
                ops = result["metrics"]["ops_per_s"]["value"] if result else None
                print(f"# {workload} pair {pair} {side}: "
                      f"{'FAILED' if result is None else f'ops_per_s {ops:.4g}'}",
                      file=sys.stderr, flush=True)
    return 0 if report(bench, records) else 1


if __name__ == "__main__":
    sys.exit(main())
