"""Write bench/reference.json: the canonical (seed 0) outputs of every workload.

    python3 bench/make_reference.py

The reference pins the outputs of the code at the commit that wrote it; the
benchmark compares every canonical run against it (see checks.py).  Rewrite
it only in a change that is meant to alter results, and say so there.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import checks
import workloads
import worker


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        for name in workloads.WORKLOADS:
            scenario = workloads.scenario(name, 0)
            out = Path(tmp) / name
            out.mkdir()
            cli, cfg, _ = worker.setup(scenario, out)
            _, _, error = worker.run(cli, scenario, cfg, out / "run")
            if error is not None:
                raise SystemExit(f"{name}: {error}")
            run_dir = out / "run"
            if scenario.entry == "run_vscan":
                rows = checks.read_tsv(run_dir / "overlap.tsv")
                reference[name] = {"overlap": [[float(v), float(o)] for v, o in rows]}
            else:
                files = [f"spectrum_{scenario.method}{s}.tsv" for s in scenario.suffixes]
                reference[name] = {"spectra": {
                    f: [float(f"{x:.10g}") for x in checks.read_tsv(run_dir / f)[:, 1]]
                    for f in files
                }}
            ops = checks.check_outputs(scenario, run_dir)
            bad = [op for op in ops if not op[1]]
            if bad:
                raise SystemExit(f"{name}: outputs fail the physics checks: {bad}")
            shutil.rmtree(out)
            print(f"{name}: {len(ops)} operations recorded")
    checks.REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
