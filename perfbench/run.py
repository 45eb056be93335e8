"""Benchmark for arithproj: time to a correct verdict on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload's job list is made from the seed, then run
as a closed loop, one job at a time in this process, in whole cycles over
the list until the time is spent.  Every job's verdict is checked against an
oracle outside the timed region, and the equivalent CLI command is run once
for parity.  The last line of output is one JSON object.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs half its time untraced and half with spans around every layer, and
reports the per-layer metrics and the tracing overhead.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 5
DEFAULT_SEED = 1
# Spans must cover all but this share of the traced jobs' time; the rest is
# the benchmark's own glue inside a job (budgets, verdict tuples).
UNACCOUNTED_LIMIT = 0.1
_TAIL_PERMILLE = (999, 990, 900, 500)
# Host speed is sampled at most this often (seconds) between jobs.
REFERENCE_INTERVAL = 0.5
# About the reference kernel's time on the 2-vCPU x86-64 host (CPython
# 3.11.7) where the bounds were set; every time is reported at that speed.
REFERENCE_NOMINAL_S = 0.0018


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, failed set-up)."""


def import_workloads():
    """Import the benchmark's workloads against the checkout's own package."""
    if not os.path.isfile(os.path.join(SRC, "arithproj", "__init__.py")):
        raise SetupError(f"no arithproj package under {SRC}")
    sys.path.insert(0, SRC)
    import arithproj

    if os.path.dirname(os.path.abspath(arithproj.__file__)) != os.path.join(SRC, "arithproj"):
        raise SetupError(f"arithproj imported from {arithproj.__file__}, not {SRC}")
    import workloads

    return workloads


def _reference_kernel() -> int:
    """Fixed interpreter work (dict, tuple and int operations), no arithproj code."""
    counts: dict = {}
    acc = 0
    for i in range(5000):
        k = (i * 7919) % 4093
        key = (k, i & 7)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) if i % 3 else k
    return acc


def reference_seconds() -> float:
    """Median of seven timings of the reference kernel: the host's current speed."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (inclusive definition)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(jobs: int) -> float | None:
    """Highest listed percentile with at least ten of ``jobs`` above it."""
    for permille in _TAIL_PERMILLE:
        if jobs * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return None


class Phase:
    """Whole cycles over the job list, timed one job at a time.

    The shared host this runs on changes speed by up to 2x for seconds to
    minutes at a time.  So the reference kernel is timed between jobs (at
    most every REFERENCE_INTERVAL seconds, and after each cycle), and each
    job's time is scaled by REFERENCE_NOMINAL_S over the mean of the two
    reference timings around it.  A job's time is then the median of its
    scaled times over the cycles.
    """

    def __init__(self, workload, jobs: list, seconds: float, tracer=None):
        self.results: list = [None] * len(jobs)
        self.attempted = 0
        self.failures: list[str] = []
        self.references = [reference_seconds()]
        runs = []  # (job index, cycle, seconds, index of the reference before it)
        clock = time.perf_counter
        started = last_reference = clock()
        cycle = job_id = 0
        while True:
            cycle_started = clock()
            for i, job in enumerate(jobs):
                if clock() - last_reference >= REFERENCE_INTERVAL:
                    self.references.append(reference_seconds())
                    last_reference = clock()
                if tracer is not None:
                    tracer.job = job_id
                job_id += 1
                t0 = clock()
                try:
                    result = workload.run(job)
                    error = None
                except Exception as exc:  # a failed job is counted, not fatal
                    result, error = None, exc
                runs.append((i, cycle, clock() - t0, len(self.references) - 1))
                self.attempted += 1
                if tracer is not None:
                    tracer.job = -1
                if error is None:
                    try:
                        problems = workload.check(job, result)
                    except Exception as exc:
                        problems = [f"oracle raised {exc!r}"]
                else:
                    problems = [f"job raised {error!r}"]
                if problems:
                    self.failures.append(f"job {i}: " + "; ".join(problems))
                self.results[i] = result
            self.references.append(reference_seconds())
            last_reference = clock()
            if cycle == 0:
                self.first_cycle_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            cycle += 1
            if clock() - started + (last_reference - cycle_started) > seconds:
                break
        self.job_ids = range(job_id)
        self.cycles = cycle
        self.raw_cycle_walls = [0.0] * cycle
        self.job_times: list[list[float]] = [[] for _ in jobs]
        self.run_scales: list[float] = []  # by job id
        for i, c, seconds_taken, k in runs:
            scale = 2 * REFERENCE_NOMINAL_S / (self.references[k] + self.references[k + 1])
            self.run_scales.append(scale)
            self.job_times[i].append(seconds_taken * scale)
            self.raw_cycle_walls[c] += seconds_taken

    def job_seconds(self) -> list[float]:
        return [statistics.median(times) for times in self.job_times]

    @property
    def wall_s(self) -> float:
        """Scaled seconds for the whole job list."""
        return sum(self.job_seconds())

    @property
    def scale(self) -> float:
        """REFERENCE_NOMINAL_S over the phase's median reference time."""
        return REFERENCE_NOMINAL_S / statistics.median(self.references)


def measure_setup(args) -> list[float]:
    """Scaled seconds from process start to ready-to-run, in fresh child processes."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--probe-setup",
    ]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe exited with {code}")
        speed = (before + reference_seconds()) / 2
        samples.append(elapsed * REFERENCE_NOMINAL_S / speed)
    return samples


def run_parity(workload, jobs, results) -> list[str]:
    workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return workload.parity(jobs, results, workdir)
    except Exception as exc:
        return [f"cli parity raised {exc!r}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(args, workload, jobs, setup_samples) -> tuple[dict, list[str], Phase, list[str]]:
    phase = Phase(workload, jobs, args.seconds)
    rss_mb = phase.first_cycle_rss_mb
    per_job = phase.job_seconds()
    pct = tail_percentile(len(jobs))
    tail = max(per_job) if pct is None else percentile(per_job, pct)
    failed_frac = len(phase.failures) / phase.attempted
    lines = [
        f"setup_s = {statistics.median(setup_samples):.6f} s "
        f"(median of {len(setup_samples)} fresh processes)",
        f"wall_s = {phase.wall_s:.6f} s ({len(jobs)} jobs, each the median of {phase.cycles} "
        f"cycles; unscaled median cycle {statistics.median(phase.raw_cycle_walls):.6f} s)",
        f"job_s.p50 = {statistics.median(per_job):.6f} s (n={len(jobs)} jobs)",
        f"job_s.tail = {tail:.6f} s ({'max' if pct is None else f'p{pct:g}'}, n={len(jobs)} jobs)",
        f"peak_rss_mb = {rss_mb:.3f} MB (after the first cycle)",
        f"host speed: reference kernel median {statistics.median(phase.references) * 1e3:.4f} ms "
        f"over {len(phase.references)} samples; times scaled to {REFERENCE_NOMINAL_S * 1e3:g} ms",
        f"failed_frac = {failed_frac:.6f} share ({len(phase.failures)}/{phase.attempted})",
    ]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (phase.wall_s, "s"),
        "job_s.p50": (statistics.median(per_job), "s"),
        "job_s.tail": (tail, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, lines, phase, run_parity(workload, jobs, phase.results)


def traced(args, workload, jobs, tracer, setup: dict) -> tuple[dict, list[str], Phase, list[str]]:
    untraced = Phase(workload, jobs, args.seconds / 2)
    tracer.install()
    try:
        phase = Phase(workload, jobs, args.seconds / 2, tracer)
    finally:
        tracer.restore()
    cycles = phase.cycles
    agg = tracer.summary(phase.job_ids, phase.run_scales)

    def span(name: str, field: str = "s") -> float:
        return agg.get(name, {}).get(field, 0) / cycles

    counters = {key: value / cycles for key, value in tracer.counters.items()}
    probe = workload.alloc_probe(jobs, phase.results)
    alloc_mb = 0.0
    if probe is not None:
        tracemalloc.start()
        try:
            probe()
            alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    naive_s = span("chains.chain_count_naive")
    search_s = span("search.search")
    canon_calls = span("search.canonicalize", "calls")
    bounds = span("chains.chain_lower_bound", "calls")
    traced_s = sum(phase.raw_cycle_walls)
    unaccounted = (traced_s - tracer.top_level_seconds(phase.job_ids)) / traced_s
    metrics = {
        "patterns.tensor_pattern.s": (span("patterns.tensor_pattern"), "s"),
        "patterns.tensor_pattern.pairs": (counters.get("patterns.tensor_pattern.pairs", 0), "count"),
        "instances.reduce_to_difference_injective.s": (span("instances.reduce_to_difference_injective"), "s"),
        "instances.project.s": (span("instances.project"), "s"),
        "instances.project.calls": (span("instances.project", "calls"), "count"),
        "instances.require_hypotheses.s": (span("instances.require_hypotheses"), "s"),
        "proofs.verify_three_slice_chain.s": (span("proofs.verify_three_slice_chain"), "s"),
        "proofs.verify_three_slice_chain.self_s": (span("proofs.verify_three_slice_chain", "self_s"), "s"),
        "proofs.verify_four_slice_chain.s": (span("proofs.verify_four_slice_chain"), "s"),
        "proofs.verify_four_slice_chain.self_s": (span("proofs.verify_four_slice_chain", "self_s"), "s"),
        "proofs.linked_quad_problem.s": (span("proofs.linked_quad_problem"), "s"),
        "proofs.skew_collision_problem.s": (span("proofs.skew_collision_problem"), "s"),
        "proofs.enumerate_wedges.s": (span("proofs.enumerate_wedges"), "s"),
        "proofs.verify_three_slice_chain.alloc_peak_mb": (alloc_mb, "MB"),
        "proofs.wedges": (counters.get("proofs.wedges", 0), "count"),
        "proofs.quads": (counters.get("proofs.quads", 0), "count"),
        "proofs.collisions": (counters.get("proofs.collisions", 0), "count"),
        "chains.chain_count_dp.s": (span("chains.chain_count_dp"), "s"),
        "chains.chain_count_dp.calls": (span("chains.chain_count_dp", "calls"), "count"),
        "chains.chain_count_dp.items": (counters.get("chains.chain_count_dp.items", 0), "count"),
        "chains.chain_count_naive.s": (naive_s, "s"),
        "chains.chain_count_naive.calls": (span("chains.chain_count_naive", "calls"), "count"),
        "chains.chain_count_naive.tuples": (counters.get("chains.chain_count_naive.tuples", 0), "count"),
        "chains.naive.tuples_per_s": (
            counters.get("chains.chain_count_naive.tuples", 0) / naive_s if naive_s else 0.0, "1/s"),
        "chains.naive.checked_frac": (
            span("chains.chain_count_naive", "calls") / bounds if bounds else 0.0, "share"),
        "search.search.s": (search_s, "s"),
        "search.nodes": (counters.get("search.nodes", 0), "count"),
        "search.nodes_per_s": (counters.get("search.nodes", 0) / search_s if search_s else 0.0, "1/s"),
        "search.canonicalize.s": (span("search.canonicalize"), "s"),
        "search.canonicalize.calls": (canon_calls, "count"),
        "search.canonicalize.distinct_frac": (
            counters.get("search.canonicalize.distinct", 0) / canon_calls if canon_calls else 0.0, "share"),
        "search.compare_scores.s": (span("search.compare_scores"), "s"),
        "search.compare_scores.calls": (span("search.compare_scores", "calls"), "count"),
        "search.certify.s": (span("search.certify"), "s"),
        "search.witnesses": (counters.get("search.witnesses", 0), "count"),
        "sampling.random_instance.s": (
            setup.get("sampling.random_instance", {}).get("s", 0.0) * untraced.scale, "s"),
        "sampling.random_chain_problem.s": (
            setup.get("sampling.random_chain_problem", {}).get("s", 0.0) * untraced.scale, "s"),
        "trace.overhead_s": (phase.wall_s - untraced.wall_s, "s"),
        "trace.unaccounted_frac": (unaccounted, "share"),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
    tracer.write_csv(spans_path, f"workload {args.workload} seed {args.seed}")
    lines = [
        f"traced cycles {cycles}, untraced cycles {untraced.cycles}; "
        f"per-layer values are per cycle of {len(jobs)} jobs",
        f"untraced wall_s = {untraced.wall_s:.6f} s, traced wall_s = {phase.wall_s:.6f} s",
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    if unaccounted > UNACCOUNTED_LIMIT:
        lines.append(
            f"warning: spans leave {unaccounted:.3f} of the job time unaccounted "
            f"(stated limit {UNACCOUNTED_LIMIT})"
        )
    failures = untraced.failures + phase.failures
    phase.attempted += untraced.attempted
    phase.failures = failures
    return metrics, lines, phase, run_parity(workload, jobs, phase.results)


def run(args) -> dict:
    """Run one workload and return the result object (also printed)."""
    wl = import_workloads()
    setup_samples = [] if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        wl.register_sites(tracer)
        tracer.install()
    try:
        workload = wl.WORKLOADS[args.workload]()
        jobs = workload.setup(args.seed, args.tiny)
    finally:
        if tracer is not None:
            tracer.restore()
    if args.trace:
        metrics, lines, phase, parity = traced(args, workload, jobs, tracer, tracer.summary())
    else:
        metrics, lines, phase, parity = end_to_end(args, workload, jobs, setup_samples)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "tiny": args.tiny}))
    for line in lines:
        print(line)
    for message in phase.failures[:10] + parity:
        print(f"FAILED {message}")
    result = {
        "correct": not phase.failures and not parity,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder-tensor", "ladder-random", "search", "lemma"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small job lists, for the self-test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            wl = import_workloads()
            wl.WORKLOADS[args.workload]().setup(args.seed, args.tiny)
            print("ready", flush=True)
            return 0
        run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
