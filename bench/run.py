"""aggspec benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job runs in a fresh worker process
(``bench/worker.py``) that imports ``aggspec`` from this checkout's ``src``.

``--trace 0`` measures the end-to-end metrics: jobs are repeated back to back
while the next one is expected to finish within ``--seconds`` (at least one
job), and each metric is the median over the jobs; set-up is measured in at
least five processes.  ``--trace 1`` runs one untraced and one traced job and
reports the per-layer metrics of the traced one.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it list every metric with its unit, the failure ratio and the machine.

Exit codes: 0 result printed, 1 a worker failed or timed out, 2 usage error
or no program source in this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
MIN_SETUPS = 5
MAX_JOBS = 50
TIME_LIMIT_S = 170.0  # every worker has ended by then
SETUP_RESERVE_S = 15.0  # left for set-up-only workers after the last job


class WorkerError(RuntimeError):
    """A worker exited with an error, printed no result or ran out of time."""


def child_env():
    """This environment with the OpenBLAS pool limited to one thread.

    With one pool thread per CPU, every pseudomode dot product is split
    between two threads, and the second spins between calls.  On a shared
    2-vCPU VM this made the six-term job no faster, doubled its CPU time and
    spread its wall time over ten seeds by 22% of the median instead of 9%,
    so the benchmark's bound could not hold.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Runner:
    """Starts workers one at a time and waits for each to end."""

    def __init__(self, workload, seed, work_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def job(self, *flags):
        """Run one worker; returns (its report, its directory, seconds it took)."""
        out = self.work_dir / f"job{self.count}"
        self.count += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), *flags]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                  timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker did not finish within the time limit: {cmd}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker exited with code {proc.returncode}: {cmd}")
        return json.loads(lines[-1]), out, time.monotonic() - start


def measure(runner, seconds):
    """End-to-end metrics: medians over repeated jobs and set-ups."""
    start = time.monotonic()
    reports = []
    while True:
        report, out, took = runner.job()
        shutil.rmtree(out)
        reports.append(report)
        now = time.monotonic()
        if (len(reports) >= MAX_JOBS or now - start + took > seconds
                or now + took > runner.deadline - SETUP_RESERVE_S):
            break
    setups = [r["setup_s"] for r in reports]
    while len(setups) < MIN_SETUPS:
        report, out, _ = runner.job("--setup-only")
        shutil.rmtree(out)
        setups.append(report["setup_s"])
    metrics = {
        name: statistics.median(r[name] for r in reports)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    return metrics, reports


def trace(runner):
    """Per-layer metrics of one traced job, and the tracing overhead."""
    plain, out, _ = runner.job()
    shutil.rmtree(out)
    traced, out, _ = runner.job("--trace")
    spans = json.loads((out / "spans.json").read_text())
    shutil.rmtree(out)
    metrics = tracing.layer_metrics(spans)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return metrics, [plain, traced]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "aggspec" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'aggspec'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + TIME_LIMIT_S
    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work_dir, deadline)
    try:
        metrics, reports = trace(runner) if args.trace else measure(runner, args.seconds)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    ops = [op for r in reports for op in r["ops"]]
    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(f"workload {args.workload} seed {args.seed}: {len(reports)} job(s), "
          f"{len(ops)} operations, machine {json.dumps(reports[0]['machine'])}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {declared[name]}")
    print(f"fail_ratio {len(failed) / len(ops):.6g} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
