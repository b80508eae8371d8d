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
``vscan`` writes overlap.tsv over a coupling scan (method must be ``both``),
and with ``pm_caps = auto`` converged_caps.tsv, the caps of each point;
``converge`` certifies the pseudomode cap, writes it to converged_caps.tsv
and writes the converged spectrum.
Output files are plain TSV with ``#`` headers and 17-significant-digit
numbers, byte-identical across reruns; ``--threads`` only changes wall time.

Every subcommand runs one pipeline over its points, one coupling each: the
scan grid, the ``v_values`` or the configured aggregate (``converge`` has
only that one).  ``--threads`` splits the points into contiguous chunks, one
per worker process.  Workers compute and the parent writes: a chunk
propagates its ZOFE side as one lane batch (``propagate_zofe_lanes``), then
runs the pseudomode side point by point, and returns one record per point
without writing a file.  A lane stopped by the norm guard restarts inside the
batch with a finer step over the part of its trace up to the trip (see
``aggspec.zofe``).  A point's record does not depend on the chunk it ran in,
and a failed point stops no other.  Once every chunk has ended, the parent
writes every file in point order from the records; a scan lists its failed
points, and the other subcommands then report the first failure.  So neither
the files nor the error depend on the split.  With ``pm_caps = auto`` every
point runs the cap ladder at its own coupling.
The pseudomode side takes every trace from the Lanczos recursion of
``krylov_correlation``: no time step, dt sets only its sample grid.
``pseudomode`` (and with it scipy.sparse) is imported only by runs using it.

Exit codes: 0 ok, 1 config or output error, 2 solver error, 3 partial scan.
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
    v_extent = abs(agg.coupling_v)
    if scan is not None:
        v_extent = max(v_extent, abs(scan[0]), abs(scan[1]))
    if v_values:
        v_extent = max(v_extent, max(abs(v) for v in v_values))
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
    if method != "zofe":
        from . import pseudomode

        if pm_caps is not None:
            # the states a lane builds; whether it folds does not depend on V
            try:
                pseudomode.count_states(agg.n_monomers, [len(t) for t in bath.terms], pm_caps,
                                        pseudomode._folds(agg, bath))
            except pseudomode.BasisSizeError as exc:
                raise ConfigError(f"pm_caps: {exc}") from exc
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


def _points(cfg: ScenarioConfig, command):
    """The points a subcommand runs, in order: (V, file suffix, aggregate);
    the scan grid of ``vscan``, the ``v_values`` of ``spectrum``, or else the
    configured aggregate alone (V None, no suffix).  Points that write files
    (all but those of a scan without kept spectra) must not share a suffix."""
    couplings = (None,)
    if command == "vscan":
        v_min, v_max, v_steps = cfg.scan
        couplings = [v_min] if v_steps == 1 else \
            v_min + (v_max - v_min) * np.arange(v_steps) / (v_steps - 1)
    elif command == "spectrum" and cfg.v_values:
        couplings = cfg.v_values
    points = [(None, "", cfg.aggregate) if v is None else
              (float(v), f"_V{v:g}", dataclasses.replace(cfg.aggregate, coupling_v=float(v)))
              for v in couplings]
    suffixes = [suffix for _, suffix, _ in points]
    if (command != "vscan" or cfg.keep_spectra) and len(set(suffixes)) < len(suffixes):
        clash = [v for v, suffix, _ in points if suffixes.count(suffix) > 1]
        raise ConfigError(f"couplings {clash} would write files of the same name")
    return points


def _write_point(out, method, suffix, side):
    """spectrum_<method><suffix>.tsv of a side (trace or None, spectrum),
    after trace_<method><suffix>.tsv if it kept its trace."""
    trace, spectrum = side
    written = [] if trace is None else [_write_tsv(
        out / f"trace_{method}{suffix}.tsv", ("t", "ReM", "ImM"),
        (trace.times, trace.samples.real, trace.samples.imag))]
    return written + [_write_tsv(out / f"spectrum_{method}{suffix}.tsv", ("nu", "A"),
                                 (spectrum.nu, spectrum.values))]


def _side(cfg: ScenarioConfig, trace, keep_trace):
    """(the trace if ``keep_trace`` else None, its spectrum), or the error
    that stopped the side: the solver's own PropagationError, or the
    TraceTailError of the transform."""
    if isinstance(trace, PropagationError):
        return trace
    try:
        return (trace if keep_trace else None), absorption_from_trace(trace, cfg.eta, cfg.nu)
    except TraceTailError as exc:
        return exc.with_traceback(None)  # the traceback would keep the trace alive


def _pm_trace(cfg: ScenarioConfig, agg):
    """(caps, trace or the error that stopped it) of the pseudomode side of
    one coupling.

    Every trace is the one ``krylov_correlation`` gives.  Explicit caps
    compute it once.  Auto caps run the cap ladder and return the trace of
    the rung it accepts, which the ladder resumes to full precision.
    """
    from . import pseudomode

    try:
        if cfg.pm_caps is None:
            return pseudomode.converge_caps(
                agg, cfg.bath, cfg.propagation, cfg.pm_tolerance, eta=cfg.eta, nu=cfg.nu)
        return cfg.pm_caps, pseudomode.krylov_correlation(
            agg, cfg.bath, cfg.propagation, caps=cfg.pm_caps)
    except PropagationError as exc:
        exc.__cause__ = exc.__context__ = None  # a chained error's frames hold rungs
        return cfg.pm_caps, exc.with_traceback(None)


def _run_chunk(payload):
    """A contiguous chunk of points, computed and not written: one ZOFE
    batch, then the pseudomode side point by point, skipped where the lane
    failed.  Returns one record per point, (caps, ZOFE side, pseudomode
    side); a side is None where the method does not run it, else what
    ``_side`` gives.  A failed point is recorded, not raised."""
    cfg, points, keep_traces = payload
    sides_z = [None] * len(points)
    if cfg.method != "pm":  # the batch's sample block lives on only in kept traces
        sides_z = [_side(cfg, trace, keep_traces) for trace in propagate_zofe_lanes(
            [agg for _, _, agg in points], cfg.bath, cfg.propagation)]
    records = []
    for (_, _, agg), side_z in zip(points, sides_z):
        caps, side_p = cfg.pm_caps, None
        if cfg.method != "zofe" and not isinstance(side_z, Exception):
            caps, trace = _pm_trace(cfg, agg)
            side_p = _side(cfg, trace, keep_traces)
        records.append((caps, side_z, side_p))
    return records


def _run(cfg: ScenarioConfig, points, out_dir, threads=1, scan=False):
    """Compute the points in ``threads`` contiguous chunks (the first ones one
    point longer where they do not divide evenly), in one worker process each
    if there are two or more, then write every file here, in point order.
    Returns (files written, [(V, caps, scan overlap or nan, error or None)]
    per point); a scan lists its failures on stderr, other runs raise the first."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_chunks = max(1, min(threads, len(points)))
    size, longer = divmod(len(points), n_chunks)
    bounds = [k * size + min(k, longer) for k in range(n_chunks + 1)]
    payloads = [(cfg, points[start:end], not scan) for start, end in zip(bounds, bounds[1:])]
    if len(payloads) > 1:
        import concurrent.futures  # only a pool needs it; ZOFE-only runs skip its import

        with concurrent.futures.ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            records = [r for chunk in pool.map(_run_chunk, payloads) for r in chunk]
    else:
        records = _run_chunk(payloads[0])
    written, rows = [], []
    for (v, suffix, _), (caps, side_z, side_p) in zip(points, records):
        error = next((side for side in (side_z, side_p) if isinstance(side, Exception)), None)
        # outside a scan each side that succeeded; in a scan, kept spectra in pairs
        if not scan or (cfg.keep_spectra and error is None):
            for method, side in (("zofe", side_z), ("pm", side_p)):
                if isinstance(side, tuple):
                    written += _write_point(out, method, suffix, side)
        if scan and error is not None:
            print(f"scan point V = {v:g} failed: {error}", file=sys.stderr)
        value = overlap(side_z[1], side_p[1]) if scan and error is None else math.nan
        rows.append((v, caps, value, error))
    errors = [error for *_, error in rows if error is not None]
    if errors and not scan:
        raise errors[0]
    return written, rows


def run_spectrum(cfg: ScenarioConfig, out_dir, threads=1) -> list:
    """Write spectrum_<method>[_V..].tsv and trace_<method>[_V..].tsv files;
    returns their paths in point order."""
    return _run(cfg, _points(cfg, "spectrum"), out_dir, threads)[0]


def run_vscan(cfg: ScenarioConfig, out_dir, threads=1):
    """Overlap between the two methods over the coupling scan: writes
    overlap.tsv (ascending V) and, with auto caps, converged_caps.tsv (the
    caps each point certified), failed points as nan; returns (paths, n_failed)."""
    if cfg.scan is None or cfg.method != "both":
        raise ConfigError("vscan needs a [scan] block and method = both")
    written, rows = _run(cfg, _points(cfg, "vscan"), out_dir, threads, scan=True)
    couplings = [row[0] for row in rows]
    written.insert(0, _write_tsv(Path(out_dir) / "overlap.tsv", ("V", "overlap_percent"),
                                 [couplings, [row[2] for row in rows]]))
    if cfg.pm_caps is None:
        certified = [math.nan if error is not None else caps for _, caps, _, error in rows]
        written.insert(1, _write_tsv(Path(out_dir) / "converged_caps.tsv", ("V", "caps"),
                                     [couplings, certified]))
    return written, sum(row[3] is not None for row in rows)


def run_converge(cfg: ScenarioConfig, out_dir):
    """Certify the pseudomode cap; write it, the converged spectrum and trace."""
    # the ladder runs on the pseudomode side alone, even with explicit caps
    cfg = dataclasses.replace(cfg, method="pm", pm_caps=None)
    written, [(_, caps, _, _)] = _run(cfg, _points(cfg, "converge"), out_dir)
    written.insert(0, _write_tsv(Path(out_dir) / "converged_caps.tsv", ("caps",), ([caps],)))
    print(f"converged caps: {caps}")
    return written


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
        p.add_argument("--method", choices=("zofe", "pm", "both"),
                       help="override the configured method")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes (the couplings of a run are split "
                            "into chunks; converge has one; never changes the "
                            "files or the error)")
    args = parser.parse_args(argv)

    try:
        cfg = load_scenario(args.config, method_override=args.method)
        if args.command == "vscan":
            _, n_failed = run_vscan(cfg, args.out, threads=args.threads)
            if n_failed:
                return 3
        elif args.command == "spectrum":
            run_spectrum(cfg, args.out, threads=args.threads)
        else:
            run_converge(cfg, args.out)  # one point: nothing for --threads to split
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
