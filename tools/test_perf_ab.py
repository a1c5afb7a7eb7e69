#!/usr/bin/env python3
"""Tests of perf_ab.py: its verdict logic on canned perfbench result
lines, its exports and its runs.

No benchmark runs here: the verdict cases feed run.py-shaped stdout or
result records to the parsing and verdict functions, against a two-metric
catalogue in BENCHMARK.json's shape, plus one pass over the real
catalogue through `--summarize`. The export cases use a tiny temporary
git repository, and the run cases a stub `perfbench/run.py`.

Stdlib only (unittest), like the other tool tests.
Run: python3 tools/test_perf_ab.py
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_ab  # noqa: E402  (path bootstrap above)

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
}


def result(ops, rss, failed=0, attempted=20):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def stdout_of(res):
    """run.py's stdout: a machine record and metric lines, then the result."""
    return ("# machine: nproc=4 build=Release\n# workload: w\nops_per_s 1 1/s\n"
            + json.dumps(res) + "\n")


def records(base, head, workload="w"):
    """Paired records from two lists of results (None = a failed run)."""
    out = []
    for pair, (b, h) in enumerate(zip(base, head), start=1):
        out.append({"workload": workload, "pair": pair, "side": "base", "result": b})
        out.append({"workload": workload, "pair": pair, "side": "head", "result": h})
    return out


def verdicts(base, head):
    status, rows = perf_ab.workload_verdicts(BENCH, records(base, head))["w"]
    return status, {row["metric"]: row["verdict"] for row in rows}


class ParseResult(unittest.TestCase):
    def test_last_line_is_the_result(self):
        res = result(5e7, 9.0)
        self.assertEqual(perf_ab.parse_result(stdout_of(res)), res)

    def test_no_result_line(self):
        self.assertIsNone(perf_ab.parse_result(""))
        self.assertIsNone(perf_ab.parse_result("# machine: nproc=4\nperfbench: build failed\n"))
        self.assertIsNone(perf_ab.parse_result('{"correct": true}\n'))


class Verdicts(unittest.TestCase):
    def test_equal_runs_are_flat(self):
        runs = [result(5.0e7, 24.5), result(5.2e7, 24.6), result(5.1e7, 24.5),
                result(4.9e7, 24.5)]
        status, rows = verdicts(runs, runs)
        self.assertEqual(status, "ok")
        self.assertEqual(rows, {"ops_per_s": "flat", "peak_rss_mib": "flat"})

    def test_regression_past_its_bound(self):
        base = [result(5.0e7, 24.5), result(5.2e7, 24.6), result(5.1e7, 24.5),
                result(4.9e7, 24.5)]
        head = [result(3.6e7, 24.5), result(3.7e7, 24.6), result(3.8e7, 24.5),
                result(3.6e7, 24.5)]  # about 0.72x: past the 0.25 bound
        status, rows = verdicts(base, head)
        self.assertEqual(status, "REGRESSION")
        self.assertEqual(rows["ops_per_s"], "REGRESSION")
        self.assertEqual(rows["peak_rss_mib"], "flat")
        self.assertFalse(perf_ab.report(BENCH, records(base, head), io.StringIO()))

    def test_slower_within_its_bound_is_not_a_regression(self):
        base = [result(5.0e7, 24.5)] * 4
        head = [result(4.0e7, 24.5)] * 4  # 0.8x: inside the 0.25 bound
        self.assertEqual(verdicts(base, head), ("ok", {"ops_per_s": "flat",
                                                       "peak_rss_mib": "flat"}))

    def test_lower_is_better_regresses_upward(self):
        base = [result(5e7, 24.5)] * 4
        head = [result(5e7, 27.5)] * 4  # +12%: past the 0.1 bound
        self.assertEqual(verdicts(base, head)[1]["peak_rss_mib"], "REGRESSION")

    def test_gain_needs_every_pair_and_more_than_the_base_iqr(self):
        base = [result(5e7, 24.5), result(5e7, 24.6), result(5e7, 24.5), result(5e7, 24.6)]
        head = [result(5e7, 9.0), result(5e7, 9.1), result(5e7, 9.0), result(5e7, 9.1)]
        status, rows = verdicts(base, head)
        self.assertEqual(status, "ok")
        self.assertEqual(rows["peak_rss_mib"], "GAIN")
        # One pair the other way round is no claimable gain at four pairs.
        head = [result(5e7, 24.0), result(5e7, 24.1), result(5e7, 24.7), result(5e7, 24.0)]
        self.assertEqual(verdicts(base, head)[1]["peak_rss_mib"], "flat")

    def test_wide_spread_is_noisy(self):
        base = [result(2e7, 24.5), result(5e7, 24.5), result(8e7, 24.5), result(5e7, 24.5)]
        self.assertEqual(verdicts(base, base)[1]["ops_per_s"], "NOISY")
        # Unless every head run beats every base run.
        head = [result(9e7, 24.5), result(12e7, 24.5), result(16e7, 24.5), result(9e7, 24.5)]
        self.assertEqual(verdicts(base, head)[1]["ops_per_s"], "GAIN")

    def test_a_failed_run_fails_the_workload(self):
        base = [result(5e7, 24.5)] * 4
        head = [result(5e7, 24.5), None, result(5e7, 24.5), result(5e7, 24.5)]
        status, rows = verdicts(base, head)
        self.assertEqual(status, "FAIL")
        self.assertEqual(rows, {})
        self.assertFalse(perf_ab.report(BENCH, records(base, head), io.StringIO()))

    def test_a_missing_metric_fails_the_workload(self):
        base = [result(5e7, 24.5)] * 2
        head = [result(5e7, 24.5), result(5e7, 24.5)]
        head[1] = json.loads(json.dumps(head[1]))
        del head[1]["metrics"]["peak_rss_mib"]
        status, rows = verdicts(base, head)
        self.assertEqual(status, "FAIL")
        self.assertEqual(rows["peak_rss_mib"], "FAIL")

    def test_more_failed_checks_is_a_regression(self):
        base = [result(5e7, 24.5)] * 4
        head = [result(5e7, 24.5), result(5e7, 24.5, failed=1), result(5e7, 24.5),
                result(5e7, 24.5)]
        self.assertEqual(verdicts(base, head)[0], "REGRESSION")


class Summarize(unittest.TestCase):
    def test_summarize_reads_a_results_file_against_the_real_catalogue(self):
        bench = perf_ab.load_bench()
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
        ok = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        name = bench["workloads"][0]["name"]
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_ab.py")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "results.jsonl")
            for head, code in ((ok, 0), (None, 1)):
                with open(path, "w", encoding="utf-8") as f:
                    for rec in records([ok, ok], [ok, head], workload=name):
                        f.write(json.dumps(rec) + "\n")
                proc = subprocess.run([sys.executable, script, "--summarize", path],
                                      capture_output=True, text=True, check=False)
                self.assertEqual(proc.returncode, code, proc.stdout + proc.stderr)
                self.assertIn(f"## {name}: {'ok' if code == 0 else 'FAIL'}", proc.stdout)


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], capture_output=True, check=True)


def tree(root):
    """{relative path: text} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in root.rglob("*") if p.is_file()}


class Export(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = Path(tmp.name)
        self.repo = self.tmp / "repo"
        self.repo.mkdir()
        git(self.repo, "init", "-q")
        (self.repo / ".gitignore").write_text("*.log\n", encoding="utf-8")
        (self.repo / "a.txt").write_text("committed\n", encoding="utf-8")
        (self.repo / "sub").mkdir()
        (self.repo / "sub" / "b.txt").write_text("b\n", encoding="utf-8")
        (self.repo / "gone.txt").write_text("g\n", encoding="utf-8")
        git(self.repo, "add", ".")
        git(self.repo, "commit", "-q", "-m", "c")
        (self.repo / "a.txt").write_text("edited\n", encoding="utf-8")
        (self.repo / "gone.txt").unlink()
        (self.repo / "stray.cpp").write_text("untracked\n", encoding="utf-8")
        (self.repo / "run.log").write_text("ignored\n", encoding="utf-8")

    def test_working_tree_export_holds_only_tracked_files(self):
        dest = self.tmp / "head"
        perf_ab.export(None, dest, self.repo)
        self.assertEqual(tree(dest), {".gitignore": "*.log\n", "a.txt": "edited\n",
                                      "sub/b.txt": "b\n", perf_ab.STAMP: "working tree\n"})

    def test_revision_export_holds_its_committed_files(self):
        dest = self.tmp / "base"
        perf_ab.export("HEAD", dest, self.repo)
        self.assertEqual(tree(dest), {".gitignore": "*.log\n", "a.txt": "committed\n",
                                      "sub/b.txt": "b\n", "gone.txt": "g\n",
                                      perf_ab.STAMP: "HEAD\n"})
        # A second export replaces the first one it made ...
        perf_ab.export(None, dest, self.repo)
        self.assertEqual(tree(dest)["a.txt"], "edited\n")
        # ... but never a directory it did not make.
        foreign = self.tmp / "foreign"
        foreign.mkdir()
        with self.assertRaises(SystemExit):
            perf_ab.export("HEAD", foreign, self.repo)
        self.assertEqual(tree(foreign), {})


class RunOne(unittest.TestCase):
    def checkout(self, tmp, body):
        (tmp / "perfbench").mkdir()
        (tmp / "perfbench" / "run.py").write_text(body, encoding="utf-8")
        return tmp

    def test_a_run_returns_its_result_line(self):
        res = result(5e7, 9.0)
        with tempfile.TemporaryDirectory() as tmp:
            # The stub fails unless it is called as a benchmark run of w at seed 3.
            want = ["--workload", "w", "--seed", "3", "--seconds", "45", "--trace", "0"]
            root = self.checkout(Path(tmp), "import json, sys\n"
                                 f"if sys.argv[1:] != {want!r}:\n    sys.exit(2)\n"
                                 f"print('# machine: nproc=4')\nprint(json.dumps({res!r}))\n")
            self.assertEqual(perf_ab.run_one(root, "w", 3, 45), res)

    def test_a_failed_run_has_no_result(self):
        res = result(5e7, 9.0)
        with tempfile.TemporaryDirectory() as tmp:
            root = self.checkout(Path(tmp), "import json, sys\n"
                                 f"print(json.dumps({res!r}))\nsys.exit(1)\n")
            self.assertIsNone(perf_ab.run_one(root, "w", 1, 45))


if __name__ == "__main__":
    unittest.main()
