"""Metric definitions: the end-to-end set and the per-layer set.

End-to-end metrics come from untraced repetitions. Every workload reports
every one of them and none of them can be zero, so the phase throughputs
(which exist only on the workloads that do that phase) are per-layer
metrics here, taken from the untraced repetitions of a traced run.

Per-layer metrics come from traced repetitions. A layer a workload does
not touch reads 0; a metric whose wrapper target no longer exists in gsle
reads 0 and is reported as ``missing``.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("wall_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# wall_s and setup_s are reported in reference seconds: measured seconds
# times CAL_REF_S / cal_s, where cal_s is the time worker.calibrate() took
# in the same process right after the timed section. On a shared 2-vCPU Xeon
# host the speed of a vCPU drifts by 20-35 % over minutes, for gsle and for
# the calibration loop alike; the ratio divides that drift out. CAL_REF_S is
# the loop's time on that host when it is quiet, so reference seconds read
# close to measured seconds there. Raw seconds are kept in the report.
CAL_REF_S = 0.125
SPEED_SCALED = ("wall_s", "setup_s")


def end_to_end_value(rep: dict, key: str) -> float:
    if key in SPEED_SCALED:
        return rep[key] * CAL_REF_S / rep["cal_s"]
    return rep[key]

# phase rates: name, unit, phase span, work unit counted from the inputs
PHASE_RATES = (
    ("evolve.run.steps_per_s", "1/s", "evolve.run", "wave_steps"),
    ("classical.langevin_ensemble.particle_steps_per_s", "1/s",
     "classical.langevin_ensemble", "particle_steps"),
    ("bohmian.propagate_trajectories.trajectory_steps_per_s", "1/s",
     "bohmian.propagate_trajectories", "trajectory_steps"),
)

QUANTUM_STEPS = ("evolve.step",)
CLASSICAL_STEPS = ("classical.langevin_step", "classical.GleIntegrator.step")


def _per_call_us(name):
    def f(d):
        calls, total, _ = d["stats"].get(name, (0, 0.0, 0.0))
        return 1e6 * total / calls if calls else 0.0

    return f, (name,)


def _self_s(name):
    return (lambda d: d["stats"].get(name, (0, 0.0, 0.0))[2]), (name,)


def _calls(name):
    return (lambda d: float(d["stats"].get(name, (0, 0.0, 0.0))[0])), (name,)


def _per_step(phase, names, steps, scale=1.0):
    """Calls of `names` per step of `phase`, counted after its first step."""

    def f(d):
        window = d["window"].get(phase, {})
        n_steps = sum(window.get(s, 0) for s in steps)
        calls = sum(window.get(n, 0) for n in names)
        return scale * calls / n_steps if n_steps else 0.0

    return f, tuple(names) + tuple(steps)


def _fft_bytes(d):
    pairs = _per_step("evolve.run", ("numpy.fft.fft", "numpy.fft.ifft"), QUANTUM_STEPS, 0.5)[0](d)
    return pairs * 2 * d["n_points"] * 16


# name, unit, (function of the traced repetition's data, targets it needs)
PER_LAYER = (
    ("evolve.step.us_per_call", "us", _per_call_us("evolve.step")),
    ("evolve.real_potential.calls_per_step", "calls/step",
     _per_step("evolve.run", ("evolve.real_potential",), QUANTUM_STEPS)),
    ("evolve.real_potential.self_s", "s", _self_s("evolve.real_potential")),
    ("evolve.apply_potential.self_s", "s", _self_s("evolve.apply_potential")),
    ("evolve.run.prestep_s", "s",
     (lambda d: d["prestep"].get("evolve.run", 0.0), ("evolve.run", "evolve.step"))),
    ("fields.observables.us_per_call", "us", _per_call_us("fields.observables")),
    ("fields.fft_pairs_per_step", "pairs/step",
     _per_step("evolve.run", ("numpy.fft.fft", "numpy.fft.ifft"), QUANTUM_STEPS, 0.5)),
    ("fields.fft_bytes_per_step", "B/step",
     (_fft_bytes, ("numpy.fft.fft", "numpy.fft.ifft", "evolve.step"))),
    ("bath.sample_bath_noise.self_s", "s", _self_s("bath.sample_bath_noise")),
    ("bath.sample_bath_noise.calls", "count", _calls("bath.sample_bath_noise")),
    ("bath.white_noise.self_s", "s", _self_s("bath.white_noise")),
    ("bath.memory_kernel.self_s", "s", _self_s("bath.memory_kernel")),
    ("coupling.CouplingFunction.__call__.calls_per_step", "calls/step",
     _per_step("classical.langevin_ensemble", ("coupling.CouplingFunction.__call__",),
               CLASSICAL_STEPS)),
    ("potentials.PotentialSpec.__call__.calls_per_step", "calls/step",
     _per_step("classical.langevin_ensemble", ("potentials.PotentialSpec.__call__",),
               CLASSICAL_STEPS)),
    ("classical.langevin_step.us_per_call", "us", _per_call_us("classical.langevin_step")),
    ("classical.langevin_ensemble.prestep_s", "s",
     (lambda d: d["prestep"].get("classical.langevin_ensemble", 0.0),
      ("classical.langevin_ensemble",))),
    ("classical.GleIntegrator.step.us_per_call", "us",
     _per_call_us("classical.GleIntegrator.step")),
    ("classical.gle_memory_terms", "count",
     (lambda d: float(d["gle_terms"]),
      ("classical.GleIntegrator.step", "classical.gle_memory_terms"))),
    ("bohmian.polar_decompose.us_per_call", "us", _per_call_us("bohmian.polar_decompose")),
    ("bohmian.polar_decompose.calls", "count", _calls("bohmian.polar_decompose")),
    ("bohmian.weak_value.self_s", "s", _self_s("bohmian.weak_value")),
    ("bohmian.propagate_trajectories.self_s", "s",
     _self_s("bohmian.propagate_trajectories")),
    ("cli.parse_config.self_s", "s", _self_s("cli.parse_config")),
    ("process.import_s", "s", (lambda d: d["import_s"], ())),
    ("cli.run_experiment.self_s", "s", _self_s("cli.run_experiment")),
    ("cli.post.self_s", "s", _self_s("cli.post")),
    ("cli.bytes_written", "B", (lambda d: float(d["bytes_written"]), ())),
    ("cli.files_written", "count", (lambda d: float(d["files_written"]), ())),
)

# computed by the parent from both kinds of repetition
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def layer_values(d) -> dict:
    """name -> value, or None when a target it needs is missing."""
    missing = set(d["missing"])
    return {
        name: None if missing.intersection(needs) else float(fn(d))
        for name, _, (fn, needs) in PER_LAYER
    }


def per_layer_units() -> dict:
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update({name: unit for name, unit, _, _ in PHASE_RATES})
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    return units
