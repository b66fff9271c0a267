"""Per-layer tracing of photonlat's public functions from outside the program.

Every traced function is replaced, under each name a ``photonlat`` module
binds it to, by a wrapper that records calls and self time (wall time
minus the time of traced calls nested inside it). Rebinding every name
catches nested calls such as ``fit_dip`` inside ``simulate_hom_dataset``,
because photonlat modules call each other through module globals.
Recording happens only while ``Tracer.active`` is set, so set-up and checks
are left out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# (module, function) pairs, grouped by photonlat's layers
TRACED = (
    ("evolution", "propagate"),
    ("haarstats", "device_submatrix_ensemble"),
    ("haarstats", "ensemble_moduli_phase_histograms"),
    ("haarstats", "pairwise_similarities"),
    ("haarstats", "haar_unitary"),
    ("interference", "distribution"),
    ("interference", "sample"),
    ("interference", "spdc_sample"),
    ("interference", "permanent"),
    ("interference", "output_probability"),
    ("validation", "run_uniform_test"),
    ("validation", "run_distinguishable_test"),
    ("validation", "wrong_unitary_slope_histogram"),
    ("reconstruction", "simulate_hom_dataset"),
    ("reconstruction", "fit_dip"),
    ("reconstruction", "reconstruct_moduli"),
    ("reconstruction", "reconstruct_phases"),
    ("reconstruction", "refine_chi2"),
    ("cli", "main"),
    ("cli", "read_samples"),
    ("cli", "read_unitary"),
    ("lattice", "build_lattice"),
    ("lattice", "default_heater_bank"),
)

COUNTS = (
    "interference.patterns",
    "validation.rescored_events",
    "reconstruction.fit_dip.fallbacks",
    "reconstruction.refine_chi2.stagnated",
)

_ENSEMBLE = "validation.wrong_unitary_slope_histogram"


def _count_patterns(tracer, bound, result):
    tracer.counts["interference.patterns"] += len(result.probs)


def _count_rescored_ensemble(tracer, bound, result):
    args = bound.arguments
    tracer.counts["validation.rescored_events"] += \
        len(args["events"]) * (args["ensemble_size"] + 1)


def _count_rescored_single(tracer, bound, result):
    # calls made by the ensemble rescoring are already counted there
    if _ENSEMBLE not in tracer.open_keys():
        tracer.counts["validation.rescored_events"] += len(bound.arguments["events"])


def _count_fit_fallback(tracer, bound, result):
    if not np.isfinite(result.cov[2:, 2:]).all():
        tracer.counts["reconstruction.fit_dip.fallbacks"] += 1


def _count_stagnated(tracer, bound, result):
    if not result.converged:
        tracer.counts["reconstruction.refine_chi2.stagnated"] += 1


_HOOKS = {
    "interference.distribution": _count_patterns,
    _ENSEMBLE: _count_rescored_ensemble,
    "validation.run_uniform_test": _count_rescored_single,
    "validation.run_distinguishable_test": _count_rescored_single,
    "reconstruction.fit_dip": _count_fit_fallback,
    "reconstruction.refine_chi2": _count_stagnated,
}


class Tracer:
    """Self time and call counts of the traced functions, plus counters."""

    def __init__(self):
        self.active = False
        self.self_s = {f"{mod}.{fn}": 0.0 for mod, fn in TRACED}
        self.calls = {f"{mod}.{fn}": 0 for mod, fn in TRACED}
        self.counts = {name: 0 for name in COUNTS}
        self._stack = []   # [key, child seconds] per open traced call

    def open_keys(self):
        return [frame[0] for frame in self._stack]

    def install(self, package: str = "photonlat") -> None:
        """Rebind every traced function wherever a package module names it."""
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, key, fn):
        hook = _HOOKS.get(key)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[key] += elapsed - frame[1]
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def metrics(self, n_ops: int) -> dict:
        """Per-op self seconds, calls and counters, named as in BENCHMARK.json."""
        out = {}
        for key in self.self_s:
            out[f"{key}.s"] = {"value": self.self_s[key] / n_ops, "unit": "s"}
            out[f"{key}.calls"] = {"value": self.calls[key] / n_ops, "unit": "count"}
        for key, total in self.counts.items():
            out[key] = {"value": total / n_ops, "unit": "count"}
        return out
