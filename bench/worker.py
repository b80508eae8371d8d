"""One benchmark job in a fresh process: set up, run, check, report.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Set-up is the import of ``aggspec`` from this checkout's ``src``, the
generation of the scenario file and ``load_scenario``.  The job is one call
of the workload's ``aggspec.cli`` entry point with ``threads = 1``; its wall
and CPU time run until the call returns, i.e. until its output files are
written.  The outputs are then checked (outside the timed interval).  The
last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The program under test could not be imported from this checkout."""


def setup(scenario, out_dir, tracer=None):
    """Import aggspec, write and load the scenario; returns (cli, cfg, seconds).

    ``tracer`` is installed before ``load_scenario`` so that the load is a span.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import aggspec.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SetupError(f"aggspec imported from {cli.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    path = Path(out_dir) / "scenario.cfg"
    path.write_text(scenario.text)
    cfg = cli.load_scenario(path)
    return cli, cfg, time.perf_counter() - start


def run(cli, scenario, cfg, run_dir):
    """Run the job; returns (wall_s, cpu_s, error message or None).

    A solver error (what ``aggspec.cli.main`` reports as exit code 2) ends the
    job early and fails every operation; any other exception propagates.
    """
    from aggspec.propagation import PropagationError

    entry = getattr(cli, scenario.entry)
    kwargs = {"threads": 1} if scenario.entry == "run_vscan" else {}
    error = None
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        entry(cfg, run_dir, **kwargs)
    except (PropagationError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return wall, cpu, error


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return {}
    threads = {}
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[Path(lib_path).name] = fn()
                break
    return threads


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for this job's files")
    parser.add_argument("--trace", action="store_true", help="record spans to OUT/spans.json")
    parser.add_argument("--setup-only", action="store_true", help="measure set-up and exit")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = workloads.scenario(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    try:
        cli, cfg, setup_s = setup(scenario, out, tracer)
    except (SetupError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 3
    report = {"setup_s": setup_s}
    if not args.setup_only:
        wall, cpu, error = run(cli, scenario, cfg, out / "run")
        import checks

        report.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            machine=machine_facts(),
        )
        reference = checks.load_reference(args.workload) if args.seed == 0 else None
        ops = checks.check_outputs(scenario, out / "run", reference)
        if error is not None:
            ops = [(name, False, error) for name, _, _ in ops]
        report["ops"] = ops
        if tracer is not None:
            tracer.dump(out / "spans.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
