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
``converge`` certifies the pseudomode cap, writes it to converged_caps.tsv
and writes the converged spectrum.
Output files are plain TSV with ``#`` headers and 17-significant-digit
numbers, byte-identical across reruns; ``--threads`` only changes wall time.

The ZOFE side of a run propagates all its couplings as one lane batch
(``propagate_zofe_lanes``).  A lane stopped by the norm guard restarts inside
the batch with a finer step over the part of its trace up to the trip (see
``aggspec.zofe``).  ``--threads`` splits a scan into contiguous chunks of
lanes, one per worker process.  A lane's result does not depend on the batch
it ran in, so the files do not depend on the split.
The pseudomode side takes every trace from the Lanczos recursion of
``krylov_correlation``: no time step, dt sets only its sample grid.
``pseudomode`` (and with it scipy.sparse) is imported only by runs using it.

Exit codes: 0 ok, 1 config error, 2 solver error, 3 partial scan.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import AggregateSpec, LorentzianBath, huang_rhys_to_gamma
from .propagation import PropagationConfig, PropagationError, default_time_step
from .spectra import (
    CorrelationTrace, TraceTailError, absorption_from_trace, default_nu_grid, overlap,
)
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
            dim = agg.n_monomers * pseudomode.count_occupation_vectors(
                sum(len(t) for t in bath.terms), pm_caps)
            if dim > pseudomode.DEFAULT_MAX_STATES:
                raise ConfigError(f"pm_caps: {pseudomode.BasisSizeError(dim)}")
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


def _pm_caps_and_trace(agg, cfg: ScenarioConfig):
    """(caps, trace) of the pseudomode side of one coupling.

    Every trace is the one ``krylov_correlation`` gives.  Explicit caps
    compute it once.  Auto caps run the cap ladder and return the trace of
    the rung it accepts, which the ladder resumes to full precision.
    """
    from . import pseudomode

    if cfg.pm_caps is not None:
        return cfg.pm_caps, pseudomode.krylov_correlation(agg, cfg.bath, cfg.propagation,
                                                          caps=cfg.pm_caps)
    return pseudomode.converge_caps(
        agg, cfg.bath, cfg.propagation, cfg.pm_tolerance, eta=cfg.eta, nu=cfg.nu,
    )


def _write_trace_and_spectrum(out, method, suffix, trace, cfg: ScenarioConfig):
    spectrum = absorption_from_trace(trace, cfg.eta, cfg.nu)
    return [
        _write_tsv(out / f"trace_{method}{suffix}.tsv", ("t", "ReM", "ImM"),
                   (trace.times, trace.samples.real, trace.samples.imag)),
        _write_tsv(out / f"spectrum_{method}{suffix}.tsv", ("nu", "A"),
                   (spectrum.nu, spectrum.values)),
    ]


def _write_zofe_lanes(out, aggs, suffixes, cfg: ScenarioConfig):
    """All couplings as one ZOFE batch; the first lane that fails is an error."""
    traces = propagate_zofe_lanes(aggs, cfg.bath, cfg.propagation)
    for trace in traces:
        if isinstance(trace, PropagationError):
            raise trace
    written = []
    for suffix, trace in zip(suffixes, traces):
        written += _write_trace_and_spectrum(out, "zofe", suffix, trace, cfg)
    return written


def run_spectrum(cfg: ScenarioConfig, out_dir) -> list:
    """Write spectrum_<method>[.V..].tsv and trace_<method>[.V..].tsv files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    couplings = cfg.v_values if cfg.v_values else (None,)
    aggs = [cfg.aggregate if v is None else dataclasses.replace(cfg.aggregate, coupling_v=v)
            for v in couplings]
    suffixes = ["" if v is None else f"_V{v:g}" for v in couplings]
    written = []
    if cfg.method in ("zofe", "both"):
        # returns before any pseudomode work, which frees the sample block
        written += _write_zofe_lanes(out, aggs, suffixes, cfg)
    if cfg.method in ("pm", "both"):
        for agg, suffix in zip(aggs, suffixes):
            _, trace = _pm_caps_and_trace(agg, cfg)
            written += _write_trace_and_spectrum(out, "pm", suffix, trace, cfg)
    return written


def _zofe_scan_spectra(aggs, cfg: ScenarioConfig):
    """One ZOFE batch; each lane's spectrum, or the error that stopped it.

    The traces are transformed as soon as the batch returns, so their shared
    sample block is freed when this function returns.
    """
    results = []
    for result in propagate_zofe_lanes(aggs, cfg.bath, cfg.propagation):
        if isinstance(result, CorrelationTrace):
            try:
                result = absorption_from_trace(result, cfg.eta, cfg.nu)
            except TraceTailError as exc:
                # without its traceback, which would keep the trace alive
                result = exc.with_traceback(None)
        results.append(result)
    return results


def _vscan_point(agg, cfg: ScenarioConfig, spec_z, trace=None):
    """Pseudomode side of one scan point, whose pseudomode ``trace`` may be
    known already; returns (overlap or nan, error, spectra)."""
    if isinstance(spec_z, Exception):
        return float("nan"), str(spec_z), None
    try:
        if trace is None:
            _, trace = _pm_caps_and_trace(agg, cfg)
        spec_p = absorption_from_trace(trace, cfg.eta, cfg.nu)
    except (PropagationError, TraceTailError) as exc:
        return float("nan"), str(exc), None
    kept = (spec_z.values, spec_p.values) if cfg.keep_spectra else None
    return overlap(spec_z, spec_p), None, kept


def _vscan_chunk(payload):
    """A contiguous chunk of scan points: one ZOFE batch, then the pseudomode
    side point by point, reusing the pseudomode traces in ``known`` (by V).
    Returns [(v, overlap or nan, error, spectra)]."""
    cfg, v_chunk, known = payload
    aggs = [dataclasses.replace(cfg.aggregate, coupling_v=v) for v in v_chunk]
    spectra_z = _zofe_scan_spectra(aggs, cfg)
    return [(v, *_vscan_point(agg, cfg, spec_z, known.get(v)))
            for v, agg, spec_z in zip(v_chunk, aggs, spectra_z)]


def run_vscan(cfg: ScenarioConfig, out_dir, threads=1):
    """Overlap between the two methods over the coupling scan.

    Writes overlap.tsv (ascending V); failed points are recorded as nan.
    Returns (paths, n_failed).
    """
    if cfg.scan is None:
        raise ConfigError("vscan needs a [scan] block")
    if cfg.method != "both":
        raise ConfigError("vscan requires method = both")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    v_min, v_max, v_steps = cfg.scan
    if v_steps == 1:
        v_grid = np.array([v_min])
    else:
        v_grid = v_min + (v_max - v_min) * np.arange(v_steps) / (v_steps - 1)
    known = {}  # pseudomode traces computed before the scan, by V
    if cfg.pm_caps is None:
        # Caps are certified once, at the strongest coupling visited, and
        # reused for every point so the scan is consistent and reproducible.
        # That point takes the trace of the rung the ladder accepted.
        v_caps = float(v_grid[np.argmax(np.abs(v_grid))])
        caps, known[v_caps] = _pm_caps_and_trace(
            dataclasses.replace(cfg.aggregate, coupling_v=v_caps), cfg)
        cfg = dataclasses.replace(cfg, pm_caps=caps)
    payloads = []
    for chunk in np.array_split(v_grid, max(1, min(threads, v_grid.size))):
        v_chunk = [float(v) for v in chunk]
        payloads.append((cfg, v_chunk, {v: known[v] for v in v_chunk if v in known}))
    if len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            results = [row for rows in pool.map(_vscan_chunk, payloads) for row in rows]
    else:
        results = _vscan_chunk(payloads[0])

    written = []
    n_failed = 0
    for v, _, error, kept in results:
        if error is not None:
            n_failed += 1
            print(f"scan point V = {v:g} failed: {error}", file=sys.stderr)
        elif kept is not None:
            written.append(_write_tsv(out / f"spectrum_zofe_V{v:g}.tsv",
                                      ("nu", "A"), (cfg.nu, kept[0])))
            written.append(_write_tsv(out / f"spectrum_pm_V{v:g}.tsv",
                                      ("nu", "A"), (cfg.nu, kept[1])))
    written.insert(0, _write_tsv(out / "overlap.tsv", ("V", "overlap_percent"),
                                 [[r[0] for r in results], [r[1] for r in results]]))
    return written, n_failed


def run_converge(cfg: ScenarioConfig, out_dir):
    """Certify the pseudomode cap; write it, the converged spectrum and trace."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the ladder runs even when the scenario gives explicit caps
    caps, trace = _pm_caps_and_trace(cfg.aggregate, dataclasses.replace(cfg, pm_caps=None))
    written = [
        _write_tsv(out / "converged_caps.tsv", ("caps",), ([caps],)),
        *_write_trace_and_spectrum(out, "pm", "", trace, cfg),
    ]
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
                       help="worker processes (a scan is split into chunks of "
                            "lanes; never changes file contents)")
    args = parser.parse_args(argv)

    try:
        cfg = load_scenario(args.config, method_override=args.method)
        if args.command == "spectrum":
            run_spectrum(cfg, args.out)
        elif args.command == "vscan":
            _, n_failed = run_vscan(cfg, args.out, threads=args.threads)
            if n_failed:
                return 3
        else:
            run_converge(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PropagationError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
