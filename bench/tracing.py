"""Spans around the public calls of the program's layers, and the per-layer
metrics derived from them.

``Tracer.install`` wraps every public function of ``aggspec.cli``,
``aggspec.zofe``, ``aggspec.pseudomode`` and ``aggspec.spectra`` in every
module namespace that binds it.  The modules import names from each other
directly (``cli`` calls its own ``pm_correlation`` binding, ``converge_caps``
calls ``pseudomode.pm_correlation``), so a function is wrapped where its
caller looks it up.  One wrapper is shared by all bindings of a function, so
a call records one span.  Spans stay in memory until ``dump``.

``layer_metrics`` turns a span list into the per-layer metrics of
BENCHMARK.json.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("cli", "zofe", "pseudomode", "spectra")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _zofe_facts(a, result):
    return {"steps": a["config"].n_steps}


def _propagate_pm_facts(a, result):
    matrix = a["generator"].matrix
    n_steps = a["config"].n_steps
    return {
        "steps": (n_steps + 1) // 2 if a["doubling"] else n_steps,
        "dim": matrix.shape[0],
        "nnz": matrix.nnz,
        "value_bytes": matrix.data.dtype.itemsize,
        "index_bytes": matrix.indices.dtype.itemsize,
        "indptr_bytes": matrix.indptr.dtype.itemsize,
    }


def _pm_correlation_facts(a, result):
    caps = a["caps"]
    b_tot = caps[0] if isinstance(caps, (tuple, list)) else caps
    return {"caps": None if b_tot is None else int(b_tot)}


def _converge_facts(a, result):
    return {"caps": int(result[0])}


def _written_facts(a, result):
    paths = result[0] if isinstance(result, tuple) else result  # run_vscan: (paths, n_failed)
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


def _transform_facts(a, result):
    return {"terms": int(a["trace"].samples.size) * len(a["nu"])}


# Facts recorded per span, read from the call's arguments and result after
# the call returns, outside the span's time.
_FACTS = {
    "cli.run_vscan": _written_facts,
    "cli.run_spectrum": _written_facts,
    "cli.run_converge": _written_facts,
    "zofe.propagate_zofe": _zofe_facts,
    "pseudomode.propagate_pm": _propagate_pm_facts,
    "pseudomode.pm_correlation": _pm_correlation_facts,
    "pseudomode.converge_caps": _converge_facts,
    "spectra.absorption_from_trace": _transform_facts,
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent, error, facts)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        facts = _FACTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "start": time.perf_counter(), "end": None, "error": None}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if facts is not None:
                span.update(facts(_bound(fn, args, kwargs), result))
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions in every aggspec namespace."""
        modules = [importlib.import_module(f"aggspec.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for module in modules + [importlib.import_module("aggspec")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans):
    """Per-layer metrics of one traced job (see BENCHMARK.json for units).

    A metric of a layer that did no work is 0.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_duration(s) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["cli.load_scenario_s"] = total("cli.load_scenario")
    runs = [i for i, s in enumerate(spans) if s["name"].startswith("cli.run_")]
    m["cli.self_s"] = sum(
        _duration(spans[i]) - sum(_duration(spans[c]) for c in children[i]) for i in runs
    )
    m["cli.bytes_written"] = sum(spans[i].get("bytes", 0) for i in runs)

    zofe = named("zofe.propagate_zofe")
    ok = [s for s in zofe if s["error"] is None]
    zofe_s = sum(map(_duration, zofe))
    ok_s = sum(map(_duration, ok))
    steps = sum(s["steps"] for s in ok)
    m["zofe.propagate_s"] = zofe_s
    m["zofe.calls"] = len(zofe)
    m["zofe.steps"] = steps
    m["zofe.step_us"] = 1e6 * ratio(ok_s, steps)
    m["zofe.guard_trips"] = sum(s["error"] == "PropagationError" for s in zofe)
    m["zofe.useful_time_ratio"] = ratio(ok_s, zofe_s)

    pm = [s for s in named("pseudomode.propagate_pm") if s["error"] is None]
    pm_s = total("pseudomode.propagate_pm")
    matvecs = sum(4 * s["steps"] for s in pm)
    # One CSR matvec: a complex multiply-add (8 flops) per stored entry; it
    # reads data, indices, indptr and the input vector and writes the output.
    flops = sum(4 * s["steps"] * 8 * s["nnz"] for s in pm)
    moved = sum(
        4 * s["steps"] * (s["nnz"] * (s["value_bytes"] + s["index_bytes"])
                          + (s["dim"] + 1) * s["indptr_bytes"]
                          + 2 * s["dim"] * s["value_bytes"])
        for s in pm
    )
    m["pseudomode.propagate_s"] = pm_s
    m["pseudomode.matvecs"] = matvecs
    m["pseudomode.matvec_us"] = 1e6 * ratio(pm_s, matvecs)
    m["pseudomode.enumerate_s"] = total("pseudomode.enumerate_basis")
    m["pseudomode.assemble_s"] = total("pseudomode.assemble_generator")
    m["pseudomode.embed_s"] = total("pseudomode.embed_initial_state")
    m["pseudomode.dim"] = max((s["dim"] for s in pm), default=0)
    m["pseudomode.nnz"] = max((s["nnz"] for s in pm), default=0)
    m["pseudomode.flops_computed"] = flops
    m["pseudomode.bytes_computed"] = moved
    m["pseudomode.flop_per_byte"] = ratio(flops, moved)

    converge = [(i, s) for i, s in enumerate(spans) if s["name"] == "pseudomode.converge_caps"]
    rungs = accepted = work = 0
    for i, s in converge:
        for c in children[i]:
            if spans[c]["name"] != "pseudomode.pm_correlation":
                continue
            rungs += 1
            rung = sum(spans[g].get("dim", 0) * spans[g].get("steps", 0) for g in children[c]
                       if spans[g]["name"] == "pseudomode.propagate_pm")
            work += rung
            if spans[c].get("caps") == s.get("caps"):
                accepted += rung
    m["pseudomode.converge_s"] = sum(_duration(s) for _, s in converge)
    m["pseudomode.ladder_rungs"] = rungs
    m["pseudomode.ladder_accepted_share"] = ratio(accepted, work)

    transforms = named("spectra.absorption_from_trace")
    transform_s = sum(map(_duration, transforms))
    m["spectra.transform_s"] = transform_s
    m["spectra.transforms"] = len(transforms)
    m["spectra.transform_ns_per_term"] = 1e9 * ratio(transform_s, sum(s.get("terms", 0) for s in transforms))
    m["spectra.overlap_s"] = total("spectra.overlap")
    m["spectra.overlaps"] = len(named("spectra.overlap"))
    return m
