"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --dir DIR
       [--traced] [--probe]

Writes DIR/result.json (and DIR/spans.json when traced). gsle's outputs go
to DIR/out. The timed section starts before ``import gsle`` and ends when
the last gsle call returns; output checks, hashing and the span dump run
after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

import metrics  # noqa: E402  (perfbench/ is the script directory)
import workloads  # noqa: E402
from tracer import Recorder  # noqa: E402

GSLE_WARNINGS = ("StabilityWarning", "NormalizationWarning", "BoundaryContamination")


def run(name: str, seed: int, rep_dir: Path, traced: bool, probe: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed, probe=probe)
    out = rep_dir / "out"
    out.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))

    t_start = time.perf_counter()
    import gsle
    import gsle.cli

    t_import = time.perf_counter()
    rec = Recorder(traced)
    rec.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = wl.execute(gsle, inputs, out)
    t_end = time.perf_counter()

    # everything below is outside the timed section
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec.uninstall()
    cal_s = calibrate()
    errors = wl.check(gsle, inputs, out, result)
    warned = Counter(type(w.message).__name__ for w in caught)
    warned["BoundaryContamination"] += len(rec.boundary_warnings)
    if warned["StabilityWarning"]:
        errors.append("StabilityWarning raised: the workload config is a benchmark bug")
    bytes_written, files_written = workloads.tree_size(out)
    first = rec.first_step_t or rec.first_phase_t or t_end
    report = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "probe": probe,
        "errors": errors,
        "digest": wl.digest(out, result),
        "wall_s": t_end - t_start,
        "setup_s": first - t_start,
        "import_s": t_import - t_start,
        "peak_rss_mb": peak_rss_mb,
        "cal_s": cal_s,
        "phase_s": dict(rec.phase_s),
        "units": wl.units(inputs),
        "warnings": {k: warned[k] for k in GSLE_WARNINGS},
        "boundary_contamination": rec.boundary_warnings[:5],
        "missing": sorted(rec.missing),
        "versions": _versions(),
    }
    if probe:
        report["summary"] = wl.summary(gsle, inputs, out, result)
    if traced:
        data = {
            "stats": dict(rec.stats),
            "window": {k: dict(v) for k, v in rec.window.items()},
            "prestep": dict(rec.prestep_s),
            "gle_terms": rec.gle_terms,
            "missing": rec.missing,
            "n_points": wl.n_points,
            "import_s": report["import_s"],
            "bytes_written": bytes_written,
            "files_written": files_written,
        }
        report["layers"] = metrics.layer_values(data)
        with open(rep_dir / "spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "t0", "t1"], "spans": rec.spans}, fh)
    return report


def calibrate() -> float:
    """Seconds taken by a fixed numpy and Python loop that does not use gsle.

    It runs in the repetition's own process right after the timed section,
    so it sees the same CPU and host contention as the repetition did.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 512) + 0j
    t0 = time.perf_counter()
    for _ in range(3000):
        b = np.fft.ifft(np.fft.fft(a))
        r = np.abs(b) ** 2
        acc = 0.0
        for v in range(40):
            acc += v * 0.5
        a = b * np.exp(-1j * r * 1e-3)
    return time.perf_counter() - t0


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)
    rep_dir = Path(args.dir)
    report = run(args.workload, args.seed, rep_dir, args.traced, args.probe)
    (rep_dir / "result.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
