"""Scenario files and the command-line front end.

A scenario is a single text file of named blocks with ``key = value`` lines
(``#`` starts a comment).  Unknown blocks or keys are rejected so that typos
cannot silently change a run.  Blocks:

  [aggregate]  n_monomers, epsilon, coupling_v, dipoles, polarization
  [bath]       huang_rhys or gamma_amp, omega, gamma   (parallel lists,
               replicated for every monomer; omit the block for no coupling)
  [run]        method, dt, t_max, eta, nu_min/nu_max/nu_step, pm_caps (the
               cap on the total occupation of all modes, or auto),
               pm_tolerance, v_values
  [scan]       v_min, v_max, v_steps, keep_spectra

Subcommands: ``spectrum`` writes spectrum_<method>.tsv and trace_<method>.tsv;
``vscan`` writes overlap.tsv over a coupling scan (method must be ``both``);
with ``pm_caps = auto`` and a pseudomode side both write converged_caps.tsv,
the V and caps of each point.  ``converge`` (no ``--method``) is ``spectrum``
with ``method = pm`` and ``pm_caps = auto``: it certifies the cap at each point.

Every subcommand runs one pipeline over its points (``_Point``: V, file
suffix, aggregate and bath): the scan grid, the ``v_values`` or the
configured aggregate.  Before ``--out`` is made, ``_points`` rejects points
that would share file names and explicit caps past the state budget.
``--threads`` splits the points into contiguous chunks, one per worker
process.  A chunk runs its ZOFE lanes as one batch, then the pseudomode side
point by point (the cap ladder at auto caps), each under its point's bath,
and returns one ``_Result`` per point without writing a file.  The parent
writes every file in point order and lists every failed point with a V;
outside a scan it then raises the first failure, so neither the files nor
the error depend on the split.  Only a pseudomode side imports scipy.sparse.

Exit codes: 0 ok, 1 config, usage or output error, 2 solver error, 3 partial scan.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import AggregateSpec, LorentzianBath, huang_rhys_to_gamma
from .propagation import PropagationConfig, PropagationError, default_time_step
from .spectra import TraceTailError, absorption_from_trace, default_nu_grid, overlap
from .zofe import propagate_zofe_lanes

__all__ = ["ConfigError", "ScenarioConfig", "load_scenario", "run_spectrum",
           "run_vscan", "run_converge", "main"]


class ConfigError(Exception):
    """Scenario file is malformed or inconsistent."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: model, method and numerical settings."""

    aggregate: AggregateSpec
    bath: LorentzianBath
    method: str
    propagation: PropagationConfig
    eta: float
    nu: np.ndarray
    pm_caps: int | None  # None means auto (converge_caps)
    pm_tolerance: float
    v_values: tuple | None
    scan: tuple | None  # (v_min, v_max, v_steps)
    keep_spectra: bool


_KNOWN_KEYS = {
    "aggregate": {"n_monomers", "epsilon", "coupling_v", "dipoles", "polarization"},
    "bath": {"huang_rhys", "gamma_amp", "omega", "gamma"},
    "run": {
        "method", "dt", "t_max", "eta", "nu_min", "nu_max", "nu_step",
        "pm_caps", "pm_tolerance", "v_values",
    },
    "scan": {"v_min", "v_max", "v_steps", "keep_spectra"},
}


def _read_blocks(text, source):
    blocks = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown block [{name}]")
            if name in blocks:
                raise ConfigError(f"{source}:{lineno}: duplicate block [{name}]")
            blocks[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside of any block")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}' in [{current}]")
        if key in blocks[current]:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        blocks[current][key] = value
    return blocks


def _floats(value, context):
    try:
        nums = [float(tok) for tok in value.split()]
        if all(map(math.isfinite, nums)):
            return nums
    except ValueError:
        pass
    raise ConfigError(f"{context}: expected finite numbers, got '{value}'")


def _float(value, context):
    nums = _floats(value, context)
    if len(nums) != 1:
        raise ConfigError(f"{context}: expected a single number")
    return nums[0]


def _int(value, context):
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{context}: expected an integer, got '{value}'") from exc


def _bool(value, context):
    lowered = value.strip().lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ConfigError(f"{context}: expected true/false, got '{value}'")


def _build_aggregate(block):
    if "n_monomers" not in block:
        raise ConfigError("[aggregate]: n_monomers is required")
    n = _int(block["n_monomers"], "n_monomers")
    epsilon = _floats(block.get("epsilon", "0"), "epsilon")
    coupling_v = _float(block.get("coupling_v", "0"), "coupling_v")
    polarization = _floats(block.get("polarization", "1 0 0"), "polarization")
    if len(polarization) != 3:
        raise ConfigError("polarization: expected three numbers")
    dip_spec = block.get("dipoles", "equal-parallel").strip()
    if dip_spec == "equal-parallel":
        pol = np.asarray(polarization)
        norm = np.linalg.norm(pol)
        if norm == 0:
            raise ConfigError("polarization must be nonzero")
        dipoles = np.tile(pol / norm, (n, 1))
    else:
        rows = [_floats(row, "dipoles") for row in dip_spec.split(";")]
        if len(rows) != n or any(len(r) != 3 for r in rows):
            raise ConfigError(f"dipoles: expected {n} rows of three numbers")
        dipoles = np.asarray(rows)
    try:
        return AggregateSpec(n, epsilon, coupling_v, dipoles, polarization)
    except ValueError as exc:
        raise ConfigError(f"[aggregate]: {exc}") from exc


def _build_bath(block, n_monomers):
    if not block:
        return LorentzianBath(tuple(() for _ in range(n_monomers)))
    has_x = "huang_rhys" in block
    has_g = "gamma_amp" in block
    if has_x == has_g:
        raise ConfigError("[bath]: give exactly one of huang_rhys or gamma_amp")
    if "omega" not in block or "gamma" not in block:
        raise ConfigError("[bath]: omega and gamma are required")
    omega = _floats(block["omega"], "omega")
    gamma = _floats(block["gamma"], "gamma")
    strengths = _floats(block["huang_rhys" if has_x else "gamma_amp"], "bath strengths")
    if not len(strengths) == len(omega) == len(gamma):
        raise ConfigError("[bath]: huang_rhys/gamma_amp, omega and gamma must have equal lengths")
    try:
        terms = [(huang_rhys_to_gamma(s, om) if has_x else s, om, gm)
                 for s, om, gm in zip(strengths, omega, gamma)]
        # zero-strength terms carry no coupling
        return LorentzianBath.uniform(n_monomers, [t for t in terms if t[0] != 0.0])
    except ValueError as exc:
        raise ConfigError(f"[bath]: {exc}") from exc


def load_scenario(path, method_override=None) -> ScenarioConfig:
    """Parse and validate a scenario file into a ScenarioConfig."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    blocks = _read_blocks(text, path.name)
    if "aggregate" not in blocks:
        raise ConfigError("missing [aggregate] block")
    agg = _build_aggregate(blocks["aggregate"])
    bath = _build_bath(blocks.get("bath", {}), agg.n_monomers)
    run = blocks.get("run", {})

    method = method_override or run.get("method", "both")
    if method not in ("zofe", "pm", "both"):
        raise ConfigError(f"method must be zofe, pm or both, got '{method}'")

    dt = _float(run["dt"], "dt") if "dt" in run else default_time_step(agg, bath)
    t_max = _float(run.get("t_max", "150"), "t_max")
    try:
        propagation = PropagationConfig(dt=dt, t_max=t_max)
    except ValueError as exc:
        raise ConfigError(f"[run]: {exc}") from exc
    eta = _float(run.get("eta", "0.01"), "eta")
    if eta < 0:
        raise ConfigError("eta must be >= 0")

    scan = None
    if "scan" in blocks:
        sblock = blocks["scan"]
        for key in ("v_min", "v_max", "v_steps"):
            if key not in sblock:
                raise ConfigError(f"[scan]: {key} is required")
        v_min = _float(sblock["v_min"], "v_min")
        v_max = _float(sblock["v_max"], "v_max")
        v_steps = _int(sblock["v_steps"], "v_steps")
        if v_steps < 1 or (v_steps > 1 and not v_max > v_min):
            raise ConfigError("[scan]: need v_max > v_min and v_steps >= 1")
        scan = (v_min, v_max, v_steps)
    keep_spectra = _bool(blocks.get("scan", {}).get("keep_spectra", "false"), "keep_spectra")

    v_values = None
    if "v_values" in run:
        v_values = tuple(_floats(run["v_values"], "v_values"))
        if not v_values:
            raise ConfigError("v_values must not be empty")

    # The frequency grid must cover every coupling the scenario will visit.
    v_extent = max(map(abs, (agg.coupling_v, *(scan[:2] if scan else ()), *(v_values or ()))))
    explicit_nu = [key for key in ("nu_min", "nu_max", "nu_step") if key in run]
    if explicit_nu and len(explicit_nu) != 3:
        raise ConfigError("give all of nu_min, nu_max, nu_step or none")
    if explicit_nu:
        nu_min = _float(run["nu_min"], "nu_min")
        nu_max = _float(run["nu_max"], "nu_max")
        nu_step = _float(run["nu_step"], "nu_step")
        if not (nu_step > 0 and nu_max > nu_min):
            raise ConfigError("need nu_max > nu_min and nu_step > 0")
        # a step that divides the range up to rounding (a quotient within a
        # relative 1e-9 below an integer) keeps nu_max on the grid
        count = int(np.floor((nu_max - nu_min) / nu_step * (1.0 + 1e-9))) + 1
        nu = nu_min + nu_step * np.arange(count)
    else:
        wide = dataclasses.replace(agg, coupling_v=v_extent)
        nu = default_nu_grid(wide, bath)

    caps_spec = run.get("pm_caps", "auto").strip()
    if caps_spec == "auto":
        pm_caps = None
    else:
        # one cap; a repeated one ("12 12", the retired per-mode form) is that cap
        caps = {_int(v, "pm_caps") for v in caps_spec.split()}
        if len(caps) != 1:
            raise ConfigError(f"pm_caps: expected 'auto' or one cap, got '{caps_spec}'")
        pm_caps = caps.pop()
        if pm_caps < 0:
            raise ConfigError("pm_caps must be >= 0")
    if method != "zofe":  # scipy.sparse loads with the scenario, not inside the run
        from . import pseudomode  # noqa: F401
    pm_tolerance = _float(run.get("pm_tolerance", "1e-3"), "pm_tolerance")
    if not 0 < pm_tolerance < 1:  # at 1 or more the first overlap would always pass
        raise ConfigError("pm_tolerance must lie in (0, 1)")

    return ScenarioConfig(
        aggregate=agg, bath=bath, method=method, propagation=propagation,
        eta=eta, nu=nu, pm_caps=pm_caps, pm_tolerance=pm_tolerance,
        v_values=v_values, scan=scan, keep_spectra=keep_spectra,
    )


# rows converted to Python floats at a time: bounded memory for long traces
_TSV_CHUNK = 4096


def _write_tsv(path, header, columns):
    """Space-separated column names in a comment header, then one row of
    tab-separated 17-significant-digit numbers per index of ``columns``."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    row = "\t".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as f:
        f.write("# " + " ".join(header) + "\n")
        for start in range(0, len(columns[0]), _TSV_CHUNK):
            # one % operation per chunk: the rows' values, row after row
            chunk = np.column_stack([c[start:start + _TSV_CHUNK] for c in columns])
            f.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
    return Path(path)


@dataclass(frozen=True)
class _Point:
    """One coupling of a run: V (None for the configured aggregate), suffix, aggregate, bath."""

    v: float | None
    suffix: str
    aggregate: AggregateSpec
    bath: LorentzianBath


@dataclass(frozen=True)
class _Result:
    """A point's caps, its sides' spectra and (outside a scan) traces by method,
    ``zofe`` or ``pm``, and the error that stopped a side (a failed lane skips pm)."""

    point: _Point
    caps: int | None
    spectra: dict
    traces: dict
    error: Exception | None


def _points(cfg: ScenarioConfig, scan=False):
    """The points of a run, in order, under the configured bath: the scan grid
    (``scan``), else the ``v_values`` or else the configured aggregate (V None,
    no suffix).  Clashing file names and explicit caps past the budget raise ConfigError."""
    couplings = cfg.v_values or (None,)
    if scan:
        v_min, v_max, v_steps = cfg.scan
        couplings = [v_min] if v_steps == 1 else \
            v_min + (v_max - v_min) * np.arange(v_steps) / (v_steps - 1)
    points = [_Point(None, "", cfg.aggregate, cfg.bath) if v is None else
              _Point(float(v), f"_V{v:g}", dataclasses.replace(cfg.aggregate, coupling_v=float(v)),
                     cfg.bath) for v in couplings]
    suffixes = [point.suffix for point in points]
    if (not scan or cfg.keep_spectra) and len(set(suffixes)) < len(suffixes):
        clash = [point.v for point in points if suffixes.count(point.suffix) > 1]
        raise ConfigError(f"couplings {clash} would write files of the same name")
    if cfg.pm_caps is not None and cfg.method != "zofe":
        from . import pseudomode

        try:  # the basis does not depend on V
            pseudomode.basis_states(cfg.aggregate, cfg.bath, cfg.pm_caps)
        except pseudomode.BasisSizeError as exc:
            raise ConfigError(f"pm_caps: {exc}") from exc
    return points


def _side(cfg: ScenarioConfig, method, trace, keep_trace, spectra, traces):
    """Store a side's spectrum and, if ``keep_trace``, its trace under its method, or
    return the error that stopped it (PropagationError or the transform's TraceTailError)."""
    if isinstance(trace, PropagationError):
        return trace
    try:
        spectra[method] = absorption_from_trace(trace, cfg.eta, cfg.nu)
    except TraceTailError as exc:
        return exc.with_traceback(None)  # the traceback would keep the trace alive
    if keep_trace:
        traces[method] = trace


def _pm_trace(cfg: ScenarioConfig, point):
    """(caps, trace or the error that stopped it) of a point's pseudomode side:
    ``krylov_correlation`` at explicit caps, else the cap ladder's accepted rung."""
    from . import pseudomode

    try:
        if cfg.pm_caps is None:
            return pseudomode.converge_caps(point.aggregate, point.bath, cfg.propagation,
                                            cfg.pm_tolerance, eta=cfg.eta, nu=cfg.nu)
        return cfg.pm_caps, pseudomode.krylov_correlation(
            point.aggregate, point.bath, cfg.propagation, caps=cfg.pm_caps)
    except PropagationError as exc:
        exc.__cause__ = exc.__context__ = None  # a chained error's frames hold rungs
        return cfg.pm_caps, exc.with_traceback(None)


def _run_chunk(payload):
    """A chunk of points, computed and not written: one ZOFE batch, each lane
    under its point's bath, then the pseudomode side point by point where the
    lane succeeded.  Returns one _Result per point; no failure is raised."""
    cfg, points, keep_traces = payload
    spectra, traces, errors = [{} for _ in points], [{} for _ in points], [None] * len(points)
    if cfg.method != "pm":  # the batch's sample block lives on only in kept traces
        errors = [_side(cfg, "zofe", trace, keep_traces, s, t) for trace, s, t in zip(
            propagate_zofe_lanes([p.aggregate for p in points], [p.bath for p in points],
                                 cfg.propagation), spectra, traces)]
    results = []
    for point, s, t, error in zip(points, spectra, traces, errors):
        caps = cfg.pm_caps
        if cfg.method != "zofe" and error is None:
            caps, trace = _pm_trace(cfg, point)
            error = _side(cfg, "pm", trace, keep_traces, s, t)
        results.append(_Result(point, caps, s, t, error))
    return results


def _run(cfg: ScenarioConfig, out_dir, threads=1, scan=False, points=None):
    """Compute the points of the run (or ``points``) in ``threads`` contiguous
    chunks, the first ones longer by one where the split is uneven, in one
    worker process each if two or more, then write every file here in point
    order.  Returns (files, one _Result per point); every failed point with a
    V is listed, and a run that is not a scan then raises the first failure."""
    points = points or _points(cfg, scan)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_chunks = max(1, min(threads, len(points)))
    size, longer = divmod(len(points), n_chunks)
    bounds = [k * size + min(k, longer) for k in range(n_chunks + 1)]
    payloads = [(cfg, points[start:end], not scan) for start, end in zip(bounds, bounds[1:])]
    if len(payloads) > 1:
        import concurrent.futures  # only a pool needs it; ZOFE-only runs skip its import

        with concurrent.futures.ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            results = [r for chunk in pool.map(_run_chunk, payloads) for r in chunk]
    else:
        results = _run_chunk(payloads[0])
    written = []
    if cfg.pm_caps is None and cfg.method != "zofe":
        # V and caps of every point, nan where it failed
        written.append(_write_tsv(out / "converged_caps.tsv", ("V", "caps"), (
            [r.point.aggregate.coupling_v for r in results],
            [math.nan if r.error is not None else r.caps for r in results])))
    for r in results:
        # outside a scan each side that succeeded; in a scan, kept spectra in pairs
        if not scan or (cfg.keep_spectra and r.error is None):
            for method, spectrum in r.spectra.items():
                name, trace = f"{method}{r.point.suffix}.tsv", r.traces.get(method)
                if trace is not None:
                    written.append(_write_tsv(out / f"trace_{name}", ("t", "ReM", "ImM"), (
                        trace.times, trace.samples.real, trace.samples.imag)))
                written.append(_write_tsv(out / f"spectrum_{name}", ("nu", "A"),
                                          (spectrum.nu, spectrum.values)))
        if r.error is not None and r.point.v is not None:
            print(f"point V = {r.point.v:g} failed: {r.error}", file=sys.stderr)
    errors = [r.error for r in results if r.error is not None]
    if errors and not scan:
        raise errors[0]
    return written, results


def run_spectrum(cfg: ScenarioConfig, out_dir, threads=1) -> list:
    """Write trace_<method>[_V..].tsv and spectrum_<method>[_V..].tsv files,
    after converged_caps.tsv with auto caps; returns their paths in order."""
    return _run(cfg, out_dir, threads)[0]


def run_vscan(cfg: ScenarioConfig, out_dir, threads=1):
    """Overlap of the two methods over the coupling scan: overlap.tsv (ascending V,
    failed points nan), then the files of ``_run``; returns (paths, n_failed)."""
    if cfg.scan is None or cfg.method != "both":
        raise ConfigError("vscan needs a [scan] block and method = both")
    written, results = _run(cfg, out_dir, threads, scan=True)
    written.insert(0, _write_tsv(Path(out_dir) / "overlap.tsv", ("V", "overlap_percent"), (
        [r.point.v for r in results],
        [math.nan if r.error is not None else overlap(r.spectra["zofe"], r.spectra["pm"])
         for r in results])))
    return written, sum(r.error is not None for r in results)


def run_converge(cfg: ScenarioConfig, out_dir, threads=1) -> list:
    """``run_spectrum`` on the pseudomode side alone with the cap ladder at
    every point, even where the scenario gives explicit caps."""
    # _run itself: bench/tracing.py sums the bytes of every traced cli.run_* call
    return _run(dataclasses.replace(cfg, method="pm", pm_caps=None), out_dir, threads)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aggspec",
        description="Absorption spectra of linear aggregates: reduced-space "
                    "(zofe) and exact pseudomode (pm) propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "compute spectra and traces for one scenario"),
        ("vscan", "overlap between the methods over a coupling scan"),
        ("converge", "certify pseudomode caps for a scenario"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default=".", help="output directory")
        if name != "converge":  # which runs method = pm
            p.add_argument("--method", choices=("zofe", "pm", "both"),
                           help="override the configured method")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes, one per chunk of the couplings; "
                            "never changes the files or the error")
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            sub.choices[args.command].error("argument --threads: must be 1 or more")
        cfg = load_scenario(args.config, method_override=getattr(args, "method", None))
        if args.command == "vscan":
            if run_vscan(cfg, args.out, threads=args.threads)[1]:
                return 3  # a partial scan
        else:
            run = run_spectrum if args.command == "spectrum" else run_converge
            run(cfg, args.out, threads=args.threads)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the code of a solver error
        return 1 if exc.code else 0  # 0 after --help
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PropagationError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
