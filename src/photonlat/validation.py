"""Likelihood-ratio validation of sample streams.

Two counter tests, each stepping +1/-1 per accepted event:

* uniform-sampler test: the quantifier P = prod_i sum_j |U_ij|^2 over the
  detected outputs i and designated inputs j is compared to the uniform
  benchmark (n/m)^n; W steps up when P >= (n/m)^n.
* distinguishable-sampler test: the likelihood ratio L = q/d of the
  indistinguishable probability q = |Per U_(ij)|^2 against the
  distinguishable probability d = Per |U_(ij)|^2 (collision-free
  subspace); C steps up when L >= 1.

Positive counter slopes validate the data against the alternative
hypothesis. Rescoring one event stream against an ensemble of
Haar-random unitaries that do not match the circuit yields the
wrong-unitary slope histogram used to benchmark the reconstruction: a
faithful stream scores several standard deviations above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .haarstats import Histogram, haar_unitary
from .interference import (SPDC_BRANCHES, FockPattern, SourceWeights,
                           _occupation_factorial, _probabilities,
                           spdc_branch_pattern)


@dataclass
class ValidationTrace:
    """Counter trajectory of a likelihood-ratio test."""

    counters: np.ndarray
    test_kind: str
    slope: float
    intercept: float
    n_rejected: int = 0
    normalized_slope: float | None = None

    @property
    def n_events(self) -> int:
        return len(self.counters)


def _trace_from_steps(steps, test_kind, n_rejected) -> ValidationTrace:
    """Counter trajectory with the least-squares line of counter k against
    k = 1..K in closed form; a lone counter gives slope = counter."""
    counters = np.cumsum(np.asarray(steps, dtype=int))
    if len(counters) >= 2:
        k = np.arange(1, len(counters) + 1) - (len(counters) + 1) / 2
        slope = float(k @ counters / (k @ k))
        intercept = float(counters.mean() - slope * (len(counters) + 1) / 2)
    else:
        slope, intercept = float(counters.sum()), 0.0
    return ValidationTrace(counters, test_kind, slope, intercept, n_rejected)


def _group_by_input(events):
    groups = {}
    for idx, ev in enumerate(events):
        groups.setdefault(tuple(ev.input_modes), []).append(idx)
    return groups


def run_uniform_test(events, u, n: int, m: int) -> ValidationTrace:
    """Counter W of the uniform-sampler likelihood test.

    Events whose output does not carry exactly n photons are rejected and
    tallied. ``m`` is the number of modes entering the benchmark
    (n/m)^n, i.e. the detected modes of the run (31 when one output is
    sacrificed as the trigger).
    """
    u = np.asarray(u, dtype=complex)
    threshold = (n / m) ** n
    steps = np.zeros(len(events), dtype=int)
    keep = np.zeros(len(events), dtype=bool)
    for cols, idxs in _group_by_input(events).items():
        row_sum = (np.abs(u[:, list(cols)]) ** 2).sum(axis=1)
        outs = np.array([events[i].output for i in idxs
                         if len(events[i].output) == n], dtype=np.intp)
        ok = [i for i in idxs if len(events[i].output) == n]
        if len(ok) == 0:
            continue
        p = row_sum[outs].prod(axis=1)
        steps[ok] = np.where(p >= threshold, 1, -1)
        keep[ok] = True
    return _trace_from_steps(steps[keep], "uniform", int((~keep).sum()))


def _distinguishable_steps(events, u, mixture=None):
    """+1/-1 steps of the C counter; 0 flags a skipped (d = 0) event.

    ``mixture`` lists (weight, input columns) pairs that score every
    event; by default each event is scored with its own recorded input.
    """
    u = np.asarray(u, dtype=complex)
    steps = np.zeros(len(events), dtype=int)
    if mixture is None:
        groups = [(idxs, [(1.0, cols)]) for cols, idxs in _group_by_input(events).items()]
    else:
        groups = [(list(range(len(events))), mixture)] if events else []
    for idxs, inputs in groups:
        outs = np.array([events[i].output for i in idxs], dtype=np.intp)
        q = d = 0.0
        for w, cols in inputs:
            t_fact = _occupation_factorial(FockPattern.from_modes(cols, u.shape[0]))
            subs = u[outs[:, :, None], np.array(cols, dtype=np.intp)[None, None, :]]
            q = q + w * _probabilities(subs, "indistinguishable", 1.0, t_fact)
            d = d + w * _probabilities(subs, "distinguishable", 1.0, t_fact)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, q / np.where(d > 0, d, 1.0), np.nan)
        local = np.where(np.isnan(ratio), 0, np.where(ratio >= 1.0, 1, -1))
        steps[idxs] = local
    return steps


def run_distinguishable_test(events, u, input_pattern: FockPattern | None = None,
                             weights: SourceWeights | None = None,
                             input_modes=None) -> ValidationTrace:
    """Counter C of the distinguishable-sampler likelihood test.

    By default every event is scored with its own recorded input branch.
    Passing ``input_pattern`` overrides the inputs for all events. Passing
    ``weights`` together with the four designated ``input_modes`` scores
    each event against the branch-weighted SPDC mixture instead, which is
    what an experiment without per-event branch knowledge has to do.
    Events with d = 0 are skipped and tallied.
    """
    u = np.asarray(u, dtype=complex)
    mixture = None
    if weights is not None:
        if input_modes is None or len(input_modes) != 4:
            raise ConfigurationError(
                "mixture scoring needs the 4 designated input modes")
        mixture = [(w, spdc_branch_pattern(b, input_modes, u.shape[0]).modes())
                   for w, b in zip(weights.normalized, SPDC_BRANCHES)]
    elif input_pattern is not None:
        mixture = [(1.0, input_pattern.modes())]
    steps = _distinguishable_steps(events, u, mixture)
    return _trace_from_steps(steps[steps != 0], "distinguishable",
                             int((steps == 0).sum()))


def normalize_trace(trace: ValidationTrace, reference: ValidationTrace) -> ValidationTrace:
    """Attach the slope normalized to a distinguishable-data reference."""
    if reference.slope == 0:
        raise ConfigurationError("reference trace has zero slope")
    return ValidationTrace(trace.counters, trace.test_kind, trace.slope,
                           trace.intercept, trace.n_rejected,
                           trace.slope / abs(reference.slope))


@dataclass
class WrongUnitaryEnsemble:
    """Slopes of one event stream rescored against Haar-random unitaries."""

    test_kind: str
    true_slope: float
    slopes: np.ndarray
    histogram: Histogram
    mean: float
    stddev: float
    z_score: float


def wrong_unitary_slope_histogram(events, true_u, test_kind: str, n: int, m: int,
                                  ensemble_size: int, rng_seed,
                                  reference_slope: float | None = None,
                                  n_bins: int = 25) -> WrongUnitaryEnsemble:
    """Rescore one stream against an ensemble of Haar-random unitaries.

    Returns the slope histogram (normalized to ``reference_slope`` when
    given, as in a distinguishable-data normalization), the ensemble mean
    and standard deviation, and the z-score of the true-unitary slope
    against the ensemble.
    """
    if ensemble_size < 2:
        raise ConfigurationError(
            "z-score needs an ensemble of at least 2 unitaries")
    if test_kind not in ("uniform", "distinguishable"):
        raise ConfigurationError(f"unknown test kind {test_kind!r}")
    true_u = np.asarray(true_u, dtype=complex)
    m_full = true_u.shape[0]
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    seeds = rng_seed.spawn(ensemble_size)

    def score(u):
        if test_kind == "uniform":
            return run_uniform_test(events, u, n, m).slope
        steps = _distinguishable_steps(events, u)
        return _trace_from_steps(steps[steps != 0], test_kind, 0).slope

    true_slope = score(true_u)
    slopes = np.array([score(haar_unitary(m_full, s).entries) for s in seeds])
    scale = abs(reference_slope) if reference_slope else 1.0
    norm_slopes = slopes / scale
    mean = float(norm_slopes.mean())
    std = float(norm_slopes.std(ddof=1))
    if std == 0:
        raise ConfigurationError("degenerate ensemble: zero slope spread")
    z = float((true_slope / scale - mean) / std)
    lo, hi = norm_slopes.min(), norm_slopes.max()
    pad = max((hi - lo) * 0.05, 1e-9)
    edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
    hist = Histogram.from_samples(norm_slopes, edges)
    return WrongUnitaryEnsemble(test_kind, true_slope / scale, norm_slopes,
                                hist, mean, std, z)
