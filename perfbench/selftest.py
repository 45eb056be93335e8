"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that:

* every workload prints every metric BENCHMARK.json names, with its unit,
  untraced (end-to-end) and traced (per-layer), and no job fails;
* a corrupted expected value, or a wrong answer from the library, is
  reported as a failure rather than passed;
* the benchmark exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def report(ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}", flush=True)
    if not ok:
        failures.append(text)


def bench(argv: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def check_metrics(spec: dict) -> None:
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", name, "--seed", "1", "--seconds", "1",
                          "--trace", str(trace), "--tiny"])
            result = last_result(proc.stdout)
            if proc.returncode != 0 or result is None:
                report(False, f"{name} trace={trace}: exit {proc.returncode}, {proc.stderr[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            report(got == want, f"{name} trace={trace}: every {key} metric printed with its unit")
            report(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{name} trace={trace}: {result['failed']}/{result['attempted']} jobs failed",
            )
            if trace == 0:
                report("failed_frac = 0.000000 share" in proc.stdout,
                       f"{name}: failed_frac printed as 0")
                report(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{name}: every end-to-end value is positive")


@contextlib.contextmanager
def patched(obj, attr, value):
    """Set obj[attr] (dict) or obj.attr for the duration of the block."""
    is_dict = isinstance(obj, dict)
    old = obj[attr] if is_dict else getattr(obj, attr)
    if is_dict:
        obj[attr] = value
    else:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        if is_dict:
            obj[attr] = old
        else:
            setattr(obj, attr, old)


def check_corruption() -> None:
    sys.path.insert(0, BENCH_DIR)
    import run

    wl = run.import_workloads()
    naive = wl.chains.chain_count_naive
    cases = (
        ("ladder-tensor", "expected one-digit quad count 97 -> 98",
         patched(wl.DIGIT_COUNTS["example-two"], "quads", 98)),
        ("search", "expected K=3 node count 4953 -> 4954",
         patched(wl.SEARCH_JOBS[0], "nodes", 4954)),
        ("lemma", "library naive count off by one",
         patched(wl.chains, "chain_count_naive", lambda *a, **k: naive(*a, **k) + 1)),
    )
    for name, what, patch in cases:
        with patch, contextlib.redirect_stdout(io.StringIO()):
            result = run.run(run.parse_args(
                ["--workload", name, "--seed", "1", "--seconds", "0", "--tiny"]))
        report(
            not result["correct"] and result["failed"] > 0,
            f"{name}: {what} reported as {result['failed']} failed jobs",
        )


def check_refuses_without_source() -> None:
    empty = os.path.join(BENCH_DIR, "out", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        shutil.copytree(BENCH_DIR, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(["--workload", "search", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=empty)
        report(proc.returncode != 0 and last_result(proc.stdout) is None,
               f"no package source: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_corruption()
    check_refuses_without_source()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
