#!/usr/bin/env python3
"""Benchmark harness for krom.

    python3 bench/run.py --workload {cli,closure_equiv,minimize} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke            # every workload once, tiny sizes
    python3 bench/run.py --baseline-report  # time the ROADMAP baseline rows once

Run from anywhere inside a checkout; krom is imported from the checkout's
``src`` (never an installed copy), and CLI jobs run ``python -m krom`` with
``PYTHONPATH`` set to that ``src``.

A timed run (``--trace 0``) builds the workload's inputs from the seed
several times (``setup_s`` is the median), then runs whole passes of the
workload's fixed job list in a closed loop with one client for about
``--seconds`` (to the pass end nearest to it), then checks every job's
output outside the timed region. Each job's time is its best over the
passes (see ``job_times``); the latency and throughput metrics are read
off those times. A traced run (``--trace 1``) runs one untraced and one traced
pass and reports the per-layer numbers of the traced one.

The last stdout line is the result object; the line before it carries the
stamp (commit, Python, nproc, load average) and the run's details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
# Set-up is timed in a slot before the first pass and in one after every
# pass, so its median samples the whole run, on every CPU the passes use. A
# slot repeats a fast set-up until it has taken SETUP_SLOT_S or
# SETUP_SLOT_RUNS runs. A few bursts of set-ups would give a median that
# jumps with the host's load at those few instants.
SETUP_SLOT_S, SETUP_SLOT_RUNS = 0.1, 5
TAIL_BEYOND = 10


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_krom():
    if not os.path.isfile(os.path.join(SRC, "krom", "__init__.py")):
        fail(f"no krom sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import krom

    if os.path.dirname(os.path.dirname(os.path.abspath(krom.__file__))) != SRC:
        fail(f"imported krom from {krom.__file__}, not from {SRC}")


# ---------------------------------------------------------------- stamp

def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "krom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def stamp() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------- running jobs

SAME = object()  # stands for an output equal to the job's first output


class Runner:
    """Runs the jobs of one workload and records (job index, seconds, output, error).

    Each job's first output is kept; a later output equal to it is recorded
    as ``SAME``, so memory does not grow with the number of passes.
    """

    def __init__(self, workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.records: list = []
        self.first: dict = {}

    def run_pass(self, tracer=None, child_walls=None) -> float:
        start = time.perf_counter()
        for index, job in enumerate(self.workload.jobs):
            if tracer is not None:
                tracer.job = job.name
            elapsed, output, error = self._run(job, tracer, child_walls)
            if error is None:
                first = self.first.setdefault(index, output)
                if first is not output and first == output:
                    output = SAME
            self.records.append((index, elapsed, output, error))
        return time.perf_counter() - start

    def _run(self, job, tracer, child_walls):
        limit = self.workload.limit_s
        output = error = None
        if job.call is not None:
            start = time.perf_counter()
            try:
                output = job.call()
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        else:
            if tracer is None:
                argv = [sys.executable, "-m", "krom", *job.argv]
            else:
                spans_file = os.path.join(self.workdir, "spans.json")
                argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_file, *job.argv]
            start = time.perf_counter()
            try:
                proc = subprocess.run(argv, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, timeout=limit)
                output = (proc.returncode, proc.stdout)
            except subprocess.TimeoutExpired:
                error = "timed out"
            elapsed = time.perf_counter() - start
            if tracer is not None and error is None:
                if os.path.exists(spans_file):
                    child_walls.append(elapsed)
                    _merge_spans(tracer, spans_file, job.name)
                else:
                    error = "the traced child wrote no spans"
        if error is None and elapsed > limit:
            error = f"took {elapsed:.1f} s, over the {limit} s limit"
        return elapsed, output, error

    def check(self) -> list:
        """Check every record's output; returns (job index, error message) for each failed record."""
        verdicts: dict = {}
        errors = []
        for index, _, output, error in self.records:
            job = self.workload.jobs[index]
            if error is None and output is SAME:
                if index not in verdicts:
                    verdicts[index] = job.check(self.first[index])
                error = verdicts[index]
            elif error is None:
                error = job.check(output)
                if output is self.first[index]:
                    verdicts[index] = error
            if error is not None:
                errors.append((index, f"{job.name}: {error}"))
        return errors


def _merge_spans(tracer, spans_file: str, job: str) -> None:
    with open(spans_file) as f:
        spans = json.load(f)
    os.remove(spans_file)
    base = len(tracer.spans)
    for name, start, end, parent, _, size_in, size_out in spans:
        tracer.spans.append((name, start, end, parent + base if parent >= 0 else -1, job, size_in, size_out))


# ---------------------------------------------------------------- metrics

def job_times(records, jobs: list, failed: set, limit_s: float) -> list:
    """One time per job of the pass: the least wall time over every run of
    that job in the run (all passes, and all copies of it within a pass). A
    job that failed anywhere takes the per-job limit instead.

    The jobs are deterministic and run alone, so what varies between runs
    of one job is the host: on a shared 2-vCPU cloud VM, other tenants
    slowed a fixed job by up to 1.8x for tens of seconds at a time. The
    least time is the job's cost under the least of that interference; it
    repeats from run to run, where a median over the passes moves with the
    host's load.
    """
    best: dict = {}
    for index, elapsed, _, _ in records:
        name = jobs[index].name
        best[name] = min(best.get(name, elapsed), elapsed)
    bad = {jobs[i].name for i in failed}
    return [limit_s if job.name in bad else best[job.name] for job in jobs]


def tail_latency(times: list) -> tuple:
    """The highest percentile with at least ten jobs beyond it, and its
    value, by nearest rank over one time per job."""
    kept = len(times) - TAIL_BEYOND
    ordered = sorted(times)
    return 100.0 * kept / len(times), ordered[max(kept, 1) - 1]


def build(name: str, seed: int, workdir: str, smoke: bool = False):
    import workloads

    return workloads.BUILDERS[name](seed, workdir, smoke)


def timed_run(name: str, seed: int, seconds: float, workdir: str):
    import workloads  # noqa: F401  (imported before any set-up is timed)

    setup_times: list = []

    def set_up():
        slot = []
        while not slot or (len(slot) < SETUP_SLOT_RUNS and sum(slot) < SETUP_SLOT_S):
            gc.collect()
            start = time.perf_counter()
            workload = build(name, seed, workdir)
            slot.append(time.perf_counter() - start)
        setup_times.extend(slot)
        return workload

    runner = Runner(set_up(), workdir)
    if name == "cli":
        # Fills the bytecode cache and the page cache before timing.
        runner._run(runner.workload.jobs[0], None, None)
    passes = 0
    elapsed = 0.0
    # Pass k runs on the k-th CPU this process may use (CLI children
    # inherit it): other tenants load each CPU of a shared host on its own,
    # so the least time of a job is not held up by one busy CPU.
    cpus = sorted(os.sched_getaffinity(0))
    # Whole passes, stopping at the pass end nearest to ``seconds``.
    while passes == 0 or elapsed + elapsed / passes / 2 < seconds:
        os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        gc.collect()
        elapsed += runner.run_pass()
        passes += 1
        set_up()
    os.sched_setaffinity(0, cpus)
    workload = runner.workload
    usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    errors = runner.check()
    attempted = len(runner.records)
    success = (attempted - len(errors)) / attempted
    jobs = workload.jobs
    times = job_times(runner.records, jobs, {i for i, _ in errors}, workload.limit_s)
    pct, tail = tail_latency(times)
    by_time = sorted(range(len(jobs)), key=times.__getitem__)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (success * len(jobs) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (success, "ratio"),
    }
    detail = {
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "measured_s": elapsed,
        "tail_percentile": pct,
        "samples": len(times),
        "median_jobs": [jobs[i].name for i in by_time[(len(jobs) - 1) // 2:len(jobs) // 2 + 1]],
        "tail_job": jobs[by_time[len(jobs) - TAIL_BEYOND - 1]].name,
        "error_rate": len(errors) / attempted,
        "setup_runs_s": setup_times,
        "job_best_ms": {job.name: t * 1000 for job, t in zip(jobs, times)},
        "limit_s": workload.limit_s,
        "shape": workload.shape,
    }
    return attempted, [e for _, e in errors], metrics, detail


def traced_run(name: str, seed: int, workdir: str, smoke: bool = False):
    import tracing

    tracer = tracing.Tracer()
    tracer.job = "setup"
    restore = tracing.install(tracer)
    try:
        workload = build(name, seed, workdir, smoke)
    finally:
        restore()
    runner = Runner(workload, workdir)
    gc.collect()
    untraced = runner.run_pass()
    child_walls: list = []
    gc.collect()
    if workload.jobs[0].call is not None:
        restore = tracing.install(tracer)
        try:
            traced = runner.run_pass(tracer)
        finally:
            restore()
    else:
        traced = runner.run_pass(tracer, child_walls)
    errors = [e for _, e in runner.check()]
    layers = tracing.layer_metrics(tracer.spans, child_walls)
    layers["trace.overhead_ratio"] = traced / untraced
    metrics = {key: (value, _unit(key)) for key, value in layers.items()}
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced, "spans": len(tracer.spans),
              "jobs_per_pass": len(workload.jobs), "shape": workload.shape}
    return len(runner.records), errors, metrics, detail


def _unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith((".calls", ".candidates", ".rules_out")):
        return "count"
    return "ratio"


def result_line(attempted: int, errors: list, metrics: dict) -> str:
    return json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# ---------------------------------------------------------------- modes

def smoke() -> int:
    """Every workload once at tiny sizes, with output checks and two traced
    passes whose call counts must agree; exit 1 on any error."""
    import workloads

    bad = []
    for name in workloads.BUILDERS:
        workdir = os.path.join(WORKDIR, "smoke", name)
        counts = []
        for _ in range(2):
            attempted, errors, metrics, _ = traced_run(name, 1, workdir, smoke=True)
            bad.extend(f"{name}: {e}" for e in errors)
            counts.append({k: v for k, (v, u) in metrics.items() if u == "count"})
        if counts[0] != counts[1]:
            bad.append(f"{name}: call counts differ between traced runs: {counts}")
        print(json.dumps({"workload": name, "attempted": attempted, "counts": counts[0]}))
    for message in bad:
        print(message, file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["cli", "closure_equiv", "minimize"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--baseline-report", action="store_true")
    args = parser.parse_args(argv)
    import_krom()
    if args.smoke:
        return smoke()
    if args.baseline_report:
        import baseline

        return baseline.report()
    if args.workload is None:
        parser.error("--workload is required")
    started = stamp()
    workdir = os.path.join(WORKDIR, args.workload)
    if args.trace:
        attempted, errors, metrics, detail = traced_run(args.workload, args.seed, workdir)
    else:
        attempted, errors, metrics, detail = timed_run(args.workload, args.seed, args.seconds, workdir)
    detail["errors"] = errors[:20]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "stamp": started, "detail": detail}))
    print(result_line(attempted, errors, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
