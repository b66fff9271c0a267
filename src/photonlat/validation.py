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

Both tests and the ensemble share one kernel, :func:`_counter_steps`. It
builds the event index once (the kept events of each input group and
their output array; an event whose output does not carry its input's
photon number is rejected and tallied) and scores an (E, m, m) stack of
unitaries: W as one row-sum array and one gather-and-product per input
group, C as one :func:`interference._probabilities` call per scored input
over the whole stack, whose permanent kernel sizes its own steps. Modes
that are not whole numbers in [0, m) and a non-square U raise
:class:`ConfigurationError`; an ensemble whose stack would exceed the
table limit raises :class:`CapacityError` (from
:func:`haarstats._haar_batch`) before it is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, is_whole
from .haarstats import Histogram, _haar_batch
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


def _square(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigurationError(f"U must be square, got shape {u.shape}")
    return u


def _check_sizes(n, m) -> None:
    """Raise unless the photon number n and mode count m of the W test's
    benchmark (n/m)^n are whole numbers >= 1."""
    if not all(is_whole(v) and v >= 1 for v in (n, m)):
        raise ConfigurationError(f"n = {n!r} and m = {m!r} must be whole numbers >= 1")


def _modes(modes, m: int, what: str) -> np.ndarray:
    modes = np.asarray(modes)
    if modes.size and (modes.dtype.kind not in "iu" or modes.min() < 0 or modes.max() >= m):
        raise ConfigurationError(f"{what} modes must be whole numbers in [0, {m})")
    return modes.astype(np.intp)


def _counter_steps(events, us, test_kind: str, n: int | None = None,
                   m: int | None = None, inputs=None) -> np.ndarray:
    """(E, K) counter steps of K events against an (E, m, m) unitary stack.

    The event index is built once: events are grouped by the inputs that
    score them, ``inputs`` as (weight, input columns) pairs for every event
    or by default each event's own recorded input, and an event whose
    output does not carry as many photons as those inputs (and, in the W
    test, n) is rejected. W steps +1 where P >= (n/m)^n, C steps +1 where
    L = q/d >= 1, both -1 otherwise; 0 marks an event that does not count,
    a rejected one or, in the C test, one with d <= 0. Each scored input
    is one kernel call over the whole stack.
    """
    m_u = us.shape[-1]
    steps = np.zeros((len(us), len(events)), dtype=int)
    by_input = {}
    for i, ev in enumerate(events):
        by_input.setdefault(tuple(ev.input_modes) if inputs is None else None, []).append(i)
    for key, idxs in by_input.items():
        scored = [(w, _modes(c, m_u, "input"))
                  for w, c in ([(1.0, key)] if inputs is None else inputs)]
        n_in = len(scored[0][1])
        idx = np.array([i for i in idxs if len(events[i].output) == n_in
                        and (test_kind != "uniform" or n == n_in)], dtype=np.intp)
        if n_in == 0 or len(idx) == 0:
            continue
        outs = _modes([events[i].output for i in idx], m_u, "output").reshape(len(idx), n_in)
        if test_kind == "uniform":
            p = (np.abs(us[:, :, scored[0][1]]) ** 2).sum(axis=2)[:, outs].prod(axis=2)
            steps[:, idx] = np.where(p >= (n / m) ** n, 1, -1)
            continue
        q, d = (sum(w * _probabilities(us, outs, cols, stats, 1.0,
                                       _occupation_factorial(FockPattern.from_modes(cols, m_u)))
                    for w, cols in scored)
                for stats in ("indistinguishable", "distinguishable"))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, q / np.where(d > 0, d, 1.0), np.nan)
        steps[:, idx] = np.where(np.isnan(ratio), 0, np.where(ratio >= 1.0, 1, -1))
    return steps


def _trace(steps, test_kind) -> ValidationTrace:
    return _trace_from_steps(steps[steps != 0], test_kind, int((steps == 0).sum()))


def run_uniform_test(events, u, n: int, m: int) -> ValidationTrace:
    """Counter W of the uniform-sampler likelihood test.

    Events whose output or recorded input does not carry exactly n
    photons are rejected and tallied. ``m`` is the number of modes
    entering the benchmark (n/m)^n, i.e. the detected modes of the run
    (31 when one output is sacrificed as the trigger). Both must be whole
    numbers >= 1.
    """
    _check_sizes(n, m)
    u = _square(u)
    return _trace(_counter_steps(events, u[None], "uniform", n, m)[0], "uniform")


def run_distinguishable_test(events, u, weights: SourceWeights | None = None,
                             input_modes=None) -> ValidationTrace:
    """Counter C of the distinguishable-sampler likelihood test.

    By default every event is scored with its own recorded input branch.
    Passing ``weights`` together with the four designated ``input_modes``
    scores each event against the branch-weighted SPDC mixture instead,
    which is what an experiment without per-event branch knowledge has
    to do.
    Events whose output does not carry the photon number of the inputs
    scoring them are rejected, and events with d = 0 skipped; both are
    tallied in ``n_rejected``.
    """
    u = _square(u)
    mixture = None
    if weights is not None:
        if input_modes is None or len(input_modes) != 4:
            raise ConfigurationError(
                "mixture scoring needs the 4 designated input modes")
        mixture = [(w, spdc_branch_pattern(b, input_modes, u.shape[0]).modes())
                   for w, b in zip(weights.normalized, SPDC_BRANCHES)]
    return _trace(_counter_steps(events, u[None], "distinguishable", inputs=mixture)[0],
                  "distinguishable")


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
    against the ensemble. The ensemble is drawn as one (E, m, m) stack
    from the spawned seeds of ``rng_seed`` and rescored, together with
    the true unitary, in one call of the scoring kernel. The uniform test
    checks n and m as :func:`run_uniform_test` does.
    """
    if ensemble_size < 2:
        raise ConfigurationError(
            "z-score needs an ensemble of at least 2 unitaries")
    if test_kind not in ("uniform", "distinguishable"):
        raise ConfigurationError(f"unknown test kind {test_kind!r}")
    if test_kind == "uniform":
        _check_sizes(n, m)
    true_u = _square(true_u)
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    us = np.concatenate([true_u[None],
                         _haar_batch(true_u.shape[0], rng_seed, ensemble_size)])
    true_slope, *slopes = (_trace(row, test_kind).slope
                           for row in _counter_steps(events, us, test_kind, n, m))
    scale = abs(reference_slope) if reference_slope else 1.0
    norm_slopes = np.array(slopes) / scale
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
