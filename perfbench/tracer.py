"""Timing wrappers installed around gsle's functions from outside the package.

Two modes share one recorder:

* untraced: only the phase entry points (``evolve.run``,
  ``classical.langevin_ensemble``, ``bohmian.propagate_trajectories``) are
  wrapped, once per call, plus one-shot hooks that note the first
  propagation step and then put the original function back. This is at
  most one wrapper call per ensemble member, so it stays on for the
  end-to-end metrics.
* traced: every public function named in ``LAYER_SPANS`` records a span
  (name, start, end, parent) and the functions in ``LAYER_COUNTS`` are
  counted. Spans stay in memory and are written once by the caller.

A target that no longer exists is recorded in ``missing`` and skipped.
A function imported by name into another gsle module (``from .evolve import
run``) is patched under every such alias, so the wrapper sees every call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# phase entry points: one wrapper call per phase call
PHASES = {
    "evolve.run": ("gsle.evolve", "run"),
    "classical.langevin_ensemble": ("gsle.classical", "langevin_ensemble"),
    "bohmian.propagate_trajectories": ("gsle.bohmian", "propagate_trajectories"),
}

# step function -> the phase whose first step it marks
STEPS = {
    "evolve.step": ("gsle.evolve", "step", "evolve.run"),
    "classical.langevin_step": ("gsle.classical", "langevin_step", "classical.langevin_ensemble"),
    "classical.GleIntegrator.step": (
        "gsle.classical", "GleIntegrator.step", "classical.langevin_ensemble"),
}

LAYER_SPANS = {
    "cli.parse_config": ("gsle.cli", "parse_config"),
    "cli.run_experiment": ("gsle.cli", "run_experiment"),
    "cli.post": ("gsle.cli", "_run_post"),
    "evolve.real_potential": ("gsle.evolve", "_Workspace.real_potential"),
    "evolve.apply_potential": ("gsle.evolve", "_Workspace.apply_potential"),
    "fields.observables": ("gsle.fields", "observables"),
    "bath.sample_bath_noise": ("gsle.bath", "sample_bath_noise"),
    "bath.white_noise": ("gsle.bath", "white_noise"),
    "bath.memory_kernel": ("gsle.bath", "memory_kernel"),
    "bohmian.polar_decompose": ("gsle.bohmian", "polar_decompose"),
    "bohmian.weak_value": ("gsle.bohmian", "weak_value"),
}

LAYER_COUNTS = {
    "coupling.CouplingFunction.__call__": ("gsle.coupling", "CouplingFunction.__call__"),
    "potentials.PotentialSpec.__call__": ("gsle.potentials", "PotentialSpec.__call__"),
    "numpy.fft.fft": ("numpy.fft", "fft"),
    "numpy.fft.ifft": ("numpy.fft", "ifft"),
}


def _resolve(module: str, path: str):
    """(owner, attribute, function) or None when the target is gone."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def gle_memory_terms(n: int, max_lag: int) -> int:
    """History terms GleIntegrator.step(n) sums: its two trapezoid memory
    sums, over lags up to ``max_lag`` (at step n, then at n + 1 without the
    endpoint)."""
    return (min(n, max_lag) + 1 if n >= 1 else 0) + min(n + 1, max_lag)


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.now = time.perf_counter
        self.missing = []
        self.first_step_t = None
        self.first_phase_t = None
        self.phase_s = Counter()
        self.boundary_warnings = []
        # traced only
        self.counts = Counter()
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self.spans = []                                   # (id, parent, name, t0, t1)
        self.prestep_s = Counter()
        self.window = defaultdict(Counter)                # phase -> counts after 1st step
        self.gle_terms = 0
        self._stack = []                                  # [id, name, t0, child_s, parent]
        self._phases = []                                 # open phase frames
        self._patches = []

    # -- installation ------------------------------------------------------

    def _patch(self, module, path, name, make):
        found = _resolve(module, path)
        if found is None:
            self.missing.append(name)
            return
        owner, attr, fn = found
        wrapper = make(fn)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            # every gsle module that imported the function by name
            targets += [
                (mod, key)
                for mname, mod in list(sys.modules.items())
                if mname.startswith("gsle") and mod is not owner
                for key, val in vars(mod).items()
                if val is fn
            ]
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def install(self):
        for name, (module, path) in PHASES.items():
            self._patch(module, path, name, lambda fn, n=name: self._phase(n, fn))
        for name, (module, path, phase) in STEPS.items():
            make = self._step_span if self.traced else self._first_step
            self._patch(module, path, name, lambda fn, n=name, p=phase: make(n, p, fn))
        if not self.traced:
            return
        for name, (module, path) in LAYER_SPANS.items():
            self._patch(module, path, name, lambda fn, n=name: self._span(n, fn))
        for name, (module, path) in LAYER_COUNTS.items():
            self._patch(module, path, name, lambda fn, n=name: self._count(n, fn))

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _enter(self, name):
        self.counts[name] += 1
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [sid, name, 0.0, 0.0, parent]
        self._stack.append(frame)
        frame[2] = self.now()
        return frame

    def _exit(self, frame):
        t1 = self.now()
        self._stack.pop()
        sid, name, t0, child, parent = frame
        dur = t1 - t0
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self.spans[sid] = (sid, parent, name, t0, t1)

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _phase(self, name, fn):
        def wrapper(*args, **kwargs):
            phase = {"name": name, "first": None, "snap": None}
            self._phases.append(phase)
            frame = self._enter(name) if self.traced else None
            t0 = self.now()
            if self.first_phase_t is None:
                self.first_phase_t = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.now()
                if frame is not None:
                    self._exit(frame)
                self._phases.pop()
                self.phase_s[name] += t1 - t0
                self.prestep_s[name] += (phase["first"] or t1) - t0
                if phase["snap"] is not None:
                    self.window[name].update(self.counts - phase["snap"])
            for msg in getattr(result, "warnings", None) or ():
                if str(msg).startswith("BoundaryContamination"):
                    self.boundary_warnings.append(str(msg))
            return result

        return wrapper

    def _mark_step(self, phase_name):
        now = self.now()
        if self.first_step_t is None:
            self.first_step_t = now
        for phase in reversed(self._phases):
            if phase["name"] == phase_name:
                if phase["first"] is None:
                    phase["first"] = now
                    phase["snap"] = Counter(self.counts)
                return

    def _first_step(self, name, phase_name, fn):
        """Untraced: note the first step once, then restore the original."""

        def wrapper(*args, **kwargs):
            if self.first_step_t is None:
                self.first_step_t = self.now()
            for obj, key, original in self._patches:
                if getattr(obj, key) is wrapper:
                    setattr(obj, key, original)
            return fn(*args, **kwargs)

        return wrapper

    def _step_span(self, name, phase_name, fn):
        def wrapper(*args, **kwargs):
            self._mark_step(phase_name)
            if name == "classical.GleIntegrator.step":
                gle = args[0]
                if hasattr(gle, "max_lag") and hasattr(gle, "n"):
                    self.gle_terms += gle_memory_terms(gle.n, gle.max_lag)
                elif "classical.gle_memory_terms" not in self.missing:
                    self.missing.append("classical.gle_memory_terms")
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper
