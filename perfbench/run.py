"""gsle benchmark: run one workload for a fixed time and report its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Each repetition runs in a fresh interpreter (perfbench/worker.py), one at a
time, with BLAS/OpenMP pinned to one thread, so that set-up time and peak
memory are per repetition. Before the timed repetitions a shortened run at
a fixed reference seed is compared with perfbench/reference.json (recorded
by ``--record-reference``); it also warms the bytecode and file caches.
Every repetition's outputs are checked and hashed; a repetition fails when
gsle exits non-zero, a check fails, or its hash differs from the first
repetition's (same code, config and seed).

With ``--trace 0`` the metrics are the end-to-end set, each the median over
the repetitions (timings in reference seconds, see metrics.CAL_REF_S). With ``--trace 1`` untraced and traced repetitions
alternate; the metrics are the per-layer set (medians over the traced
repetitions), the phase rates from the untraced ones, and the tracing
overhead (median traced wall_s minus median untraced wall_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it are a readable
report. Raw results and the last traced repetition's spans are kept under
.perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
# summary values must agree with the reference to this relative tolerance
# (absolute below 1e-9): exact up to reordered floating-point arithmetic
REF_RTOL, REF_ATOL = 1e-7, 1e-9
# a hung probe plus a hung first repetition still end within 180 s
REP_TIMEOUT_S = 80
MAX_RUN_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_rep(name: str, seed: int, rep_dir: Path, traced=False, probe=False) -> dict:
    """One repetition in a fresh interpreter; returns its report."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--dir", str(rep_dir)]
    cmd += ["--traced"] * traced + ["--probe"] * probe
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    result = rep_dir / "result.json"
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"worker exited {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(result.read_text())


def compare_reference(name: str, summary: dict) -> list:
    reference = json.loads(REFERENCE.read_text()).get(name)
    if reference is None:
        return [f"no reference summary for {name}"]
    errors = []
    for key, want in reference.items():
        got = summary.get(key)
        if got is None or not abs(got - want) <= max(REF_ATOL, REF_RTOL * abs(want)):
            errors.append(f"reference {key}: got {got!r}, recorded {want!r}")
    return errors


def median(values):
    return statistics.median(values) if values else 0.0


def phase_rates(reps) -> dict:
    """Median work units per second inside each phase; None where idle."""
    rates = {}
    for key, _, phase, unit in metrics.PHASE_RATES:
        vals = [r["units"][unit] / r["phase_s"][phase]
                for r in reps if unit in r["units"] and r["phase_s"].get(phase)]
        rates[key] = median(vals) if vals else None
    return rates


def environment(report: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = {"nproc": os.cpu_count(), "cpu": cpu, **report.get("versions", {})}
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, lines: list) -> dict:
    base = OUT / name
    if base.exists():
        shutil.rmtree(base)
    t_begin = time.perf_counter()

    probe = run_rep(name, REFERENCE_SEED, base / "probe", probe=True)
    probe_errors = probe["errors"] + (
        compare_reference(name, probe["summary"]) if "summary" in probe else [])

    reps, longest = [], 0.0
    while True:
        elapsed = time.perf_counter() - t_begin
        kinds = [r["traced"] for r in reps]
        enough = kinds.count(False) >= 3 - trace and kinds.count(True) >= 2 * trace
        if (enough and elapsed >= seconds) or (reps and elapsed + longest >= MAX_RUN_S):
            break
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep = run_rep(name, seed, base / ("traced" if traced else "untraced"), traced=traced)
        longest = max(longest, time.perf_counter() - t0)
        rep["traced"] = traced
        reps.append(rep)

    first_digest = next((r["digest"] for r in reps if "digest" in r), None)
    for r in reps:
        if "digest" in r and r["digest"] != first_digest:
            r["errors"].append("outputs differ from the first repetition (same seed)")
    ok = [r for r in reps if not r["errors"]]
    attempted = len(reps) + 1
    failed = len(reps) - len(ok) + bool(probe_errors)

    plain = [r for r in ok if not r["traced"]]
    traced_reps = [r for r in ok if r["traced"]]
    results = {}
    if trace:
        for key, _, _ in metrics.PER_LAYER:
            vals = [r["layers"][key] for r in traced_reps if r["layers"][key] is not None]
            results[key] = median(vals)
        results.update({k: v or 0.0 for k, v in phase_rates(plain).items()})
        wall = lambda reps: median([metrics.end_to_end_value(r, "wall_s") for r in reps])
        results["trace.overhead_s"] = wall(traced_reps) - wall(plain)
        units = metrics.per_layer_units()
    else:
        for key, _, _, _ in metrics.END_TO_END:
            results[key] = median([metrics.end_to_end_value(r, key) for r in plain])
        units = {key: unit for key, unit, _, _ in metrics.END_TO_END}

    env = environment(next((r for r in reps if "versions" in r), probe))
    missing_targets = sorted(set().union(*(r.get("missing", ()) for r in reps)))
    missing = sorted({k for r in traced_reps for k, v in r["layers"].items() if v is None})
    warned = {}
    for r in reps:
        for k, v in r.get("warnings", {}).items():
            warned[k] = warned.get(k, 0) + v
    _report(lines, name, seed, seconds, trace, reps, probe_errors, attempted, failed,
            results, units, missing, missing_targets, warned, env, plain)

    (base / "results.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "probe_errors": probe_errors,
        "repetitions": [{k: v for k, v in r.items() if k != "versions"} for r in reps],
        "metrics": results, "missing": missing, "missing_targets": missing_targets,
    }, indent=1))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in results.items()},
    }


def _report(lines, name, seed, seconds, trace, reps, probe_errors, attempted, failed,
            results, units, missing, missing_targets, warned, env, plain):
    add = lines.append
    add(f"== {name}  seed={seed} seconds={seconds:g} trace={int(trace)}")
    add("   environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    add(f"   repetitions: {len(reps)} ({sum(r['traced'] for r in reps)} traced) "
        f"+ 1 reference probe; failed {failed} of {attempted}, "
        f"failed_frac = {failed / attempted:.4g}")
    for msg in probe_errors:
        add(f"   FAILED reference probe: {msg}")
    for i, r in enumerate(reps):
        for msg in r["errors"]:
            add(f"   FAILED repetition {i}: {msg}")
    add("   warnings: " + " ".join(f"{k}={v}" for k, v in sorted(warned.items())))
    if missing_targets:
        add("   wrapper targets not found in gsle: " + ", ".join(missing_targets))
    for key, value in results.items():
        note = ""
        if key in missing:
            note = "  missing (wrapper target not found)"
        elif trace and value == 0:
            note = "  (not exercised by this workload)"
        elif not trace and plain:
            vals = sorted(metrics.end_to_end_value(r, key) for r in plain)
            note = f"  median of {len(vals)}, min {vals[0]:.4g}, max {vals[-1]:.4g}"
            if key in metrics.SPEED_SCALED:
                note += f"; measured {median([r[key] for r in plain]):.4g} s"
        add(f"   {key} = {value:.6g} {units[key]}{note}")
    if not trace:
        if plain:
            add(f"   calibration loop: median {median([r['cal_s'] for r in plain]):.4g} s, "
                f"reference {metrics.CAL_REF_S} s (wall_s and setup_s are scaled by their ratio)")
        for key, rate in phase_rates(plain).items():
            if rate is not None:
                phase, short = key.rsplit(".", 1)
                add(f"   {short} = {rate:.6g} 1/s  (inside {phase})")
    else:
        add("   waiting time: none; no layer queues for another in one process")
        add("   fields.fft_bytes_per_step is computed as pairs x 2 x N x 16 B")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite perfbench/reference.json from the current code")
    args = p.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps a
    # running repetition before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gsle" / "__init__.py").is_file():
        print(f"gsle sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.record_reference:
        reference = {}
        for name in workloads.WORKLOADS:
            rep = run_rep(name, REFERENCE_SEED, OUT / name / "probe", probe=True)
            if rep["errors"]:
                print(f"{name}: {rep['errors']}", file=sys.stderr)
                return 1
            reference[name] = rep["summary"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
        return 0

    if args.workload is None:
        p.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"{REFERENCE} is missing; run with --record-reference", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines = []
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), lines)
        print("\n".join(lines), flush=True)
    if any(not math.isfinite(m["value"]) for r in results.values()
           for m in r["metrics"].values()):
        print("non-finite metric", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
