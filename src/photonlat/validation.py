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

Every function takes the events as one :class:`interference.EventStream`,
whose columns were checked when it was built. Both tests and the
ensemble share one kernel, :func:`_counter_steps`. It groups the events
by branch code and scores an (E, m, k) stack of unitary columns: all of
U, or the ensemble's draws of the input modes. The C test steps up
where q >= d, which for d > 0 is exactly where q / d >= 1, so no step
divides. One closed-form fit, :func:`_slopes`, takes the slopes of the
whole (E, K) stack of counter steps: one matrix-vector product when no
step is zero. The C test's permanents come from the row-signed kernel
:func:`interference._permanents`: each unitary's signed row sums are
formed once, and each event multiplies its n gathered rows of them.
The stream's modes are checked against U's m by their range, and
other arguments by the checkers of :mod:`errors`; an ensemble whose draw
and scoring arrays would exceed the table limit raises
:class:`CapacityError` before it is drawn.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, check_column, check_square, check_table_bytes,
                     check_whole)
from .haarstats import DEFAULT_BINS, Histogram, _draw_bytes, _haar_columns
from .interference import (SPDC_BRANCHES, EventStream, FockPattern, SourceWeights,
                           _occupation_factorial, _permanents, _probabilities,
                           spdc_branch_pattern)


@dataclass
class ValidationTrace:
    """Counter trajectory of a likelihood-ratio test."""

    counters: np.ndarray
    slope: float
    n_rejected: int = 0
    normalized_slope: float | None = None

    @property
    def n_events(self) -> int:
        return len(self.counters)


def _slopes(steps) -> np.ndarray:
    """(E,) least-squares slopes of an (E, K) stack of counter steps: each
    row's counter against the rank r = 1..K_e of its nonzero steps, zeros
    not counted; a row with one nonzero step gives slope = its counter,
    one with none 0.

    In closed form: the slope is num / den with num = sum_j s_j (r_j - 1)
    (K_e + 1 - r_j) / 2 over the steps s_j, which sums the centred ranks
    r - (K_e + 1)/2 from r_j to K_e, and den = K_e (K_e^2 - 1) / 12. Both
    are formed doubled, so every term is an integer: while K^3 < 2^53 each
    sum is exact and each slope one rounding. A stack with no zero step
    shares its weights: one matrix-vector product.
    """
    kept = steps != 0
    k = kept.sum(axis=1, dtype=float)
    if kept.all():
        before = np.arange(float(steps.shape[1]))                  # r - 1
        num = steps @ (before * (steps.shape[1] - before))
    else:
        before = np.cumsum(kept, axis=1, dtype=float)
        before -= 1
        weights = k[:, None] - before
        weights *= before
        num = np.einsum("ek,ek->e", steps, weights)
    den = k * (k * k - 1) / 6
    return np.divide(num, den, out=steps.sum(axis=1, dtype=float), where=den > 0)


def _counter_steps(events: EventStream, us, test_kind: str, n: int | None = None,
                   m: int | None = None, inputs=None, modes=None) -> np.ndarray:
    """(E, K) counter steps of the K events of a stream against an (E, m, k)
    stack of the columns ``modes`` (sorted, all m by default) of E unitaries.

    Events are grouped by the inputs that score them: ``inputs`` as
    (weight, input modes) pairs for every event or by default each branch's
    input modes, its events found by one argsort of the branch codes. Where
    those inputs (and, in the W test, n) need another photon number than
    the stream's, every event is rejected. W steps +1 where P >= (n/m)^n,
    C steps +1 where q >= d (for d > 0, exactly where the correctly rounded
    L = q/d >= 1), both -1 otherwise; 0 marks an event that does not
    count, a rejected one or, in the C test, one with d <= 0 or q or d NaN.
    Each scored input is one kernel call over the whole stack.
    """
    m_u = us.shape[1]
    modes = np.arange(m_u) if modes is None else modes
    steps = np.zeros((len(us), len(events)), dtype=int)
    outputs = check_column(events.outputs, "output modes", ("K", "n"), lo=0, hi=m_u)
    if inputs is None:
        check_column(events.input_modes, "input modes", ("B", "n"), lo=0, hi=m_u)
        order = np.argsort(events.branch, kind="stable")
        ends = np.cumsum(np.bincount(events.branch, minlength=len(events.branches)))
        groups = [([(1.0, row)], idx) for row, idx in
                  zip(events.input_modes, np.split(order, ends[:-1]))]
    else:
        groups = [(inputs, np.arange(len(events)))]
    if events.n == 0 or (test_kind == "uniform" and n != events.n):
        return steps
    for scored, idx in groups:
        if len(idx) == 0 or len(scored[0][1]) != events.n:
            continue
        outs = outputs[idx]
        if test_kind == "uniform":
            cols = np.searchsorted(modes, scored[0][1])
            p = (np.abs(us[:, :, cols]) ** 2).sum(axis=2)[:, outs].prod(axis=2)
            steps[:, idx] = np.where(p >= (n / m) ** n, 1, -1)
            continue
        q, d = (sum(w * _probabilities(
                        functools.partial(_permanents, rows=outs, cols=np.searchsorted(modes, c)),
                        us, stats, 1.0, _occupation_factorial(FockPattern.from_modes(c, m_u)))
                    for w, c in scored)
                for stats in ("indistinguishable", "distinguishable"))
        steps[:, idx] = np.where(q >= d, 1, -1) * ((d > 0) & ~np.isnan(q))
    return steps


def _trace(steps) -> ValidationTrace:
    """Counter trajectory of a row of counter steps, its zeros tallied as
    rejected, with the least-squares slope of counter k against k = 1..K
    over the nonzero steps: :func:`_slopes` of the one row."""
    kept = steps[steps != 0]
    return ValidationTrace(np.cumsum(kept), float(_slopes(kept[None])[0]),
                           len(steps) - len(kept))


def run_uniform_test(events: EventStream, u, n: int, m: int) -> ValidationTrace:
    """Counter W of the uniform-sampler likelihood test.

    A stream whose photon number is not n is rejected: every event is
    tallied in ``n_rejected``. ``m`` is the number of modes
    entering the benchmark (n/m)^n, i.e. the detected modes of the run
    (31 when one output is sacrificed as the trigger). Both must be whole
    numbers >= 1.
    """
    check_whole(n, "n", 1)
    check_whole(m, "m", 1)
    u = check_square(u, "U")
    return _trace(_counter_steps(events, u[None], "uniform", n, m)[0])


def run_distinguishable_test(events: EventStream, u, weights: SourceWeights | None = None,
                             input_modes=None) -> ValidationTrace:
    """Counter C of the distinguishable-sampler likelihood test.

    By default every event is scored with its own recorded input branch.
    Passing ``weights`` together with the four designated ``input_modes``
    scores each event against the branch-weighted SPDC mixture instead,
    which is what an experiment without per-event branch knowledge has
    to do.
    A stream whose photon number is not that of the inputs scoring it is
    rejected whole, and events with d = 0 skipped; both are tallied in
    ``n_rejected``.
    """
    u = check_square(u, "U")
    mixture = None
    if weights is not None:
        if input_modes is None or len(input_modes) != 4:
            raise ConfigurationError(
                "mixture scoring needs the 4 designated input modes")
        mixture = [(w, spdc_branch_pattern(b, input_modes, u.shape[0]).modes())
                   for w, b in zip(weights.normalized, SPDC_BRANCHES)]
    return _trace(_counter_steps(events, u[None], "distinguishable", inputs=mixture)[0])


def normalize_trace(trace: ValidationTrace, reference: ValidationTrace) -> ValidationTrace:
    """Attach the slope normalized to a distinguishable-data reference."""
    if reference.slope == 0:
        raise ConfigurationError("reference trace has zero slope")
    return replace(trace, normalized_slope=trace.slope / abs(reference.slope))


@dataclass
class WrongUnitaryEnsemble:
    """Slopes of one event stream rescored against Haar-random unitaries."""

    true_slope: float
    slopes: np.ndarray
    histogram: Histogram
    mean: float
    stddev: float
    z_score: float


def check_ensemble_bytes(events: EventStream, m: int, ensemble_size) -> None:
    """Raise :class:`ConfigurationError` for an ``ensemble_size`` that is no
    whole number >= 2, and :class:`CapacityError` when rescoring ``events``
    against that many Haar draws of m modes would exceed ``MAX_TABLE_BYTES``:
    the draws take what :func:`haarstats._draw_bytes` charges them, about
    64 bytes per (member, mode, input mode), and the scoring
    arrays 32 + 8 n per (member, event) for the stream's n (tracemalloc
    measured at most 40 beyond the draw at n = 3, where one group holds
    every event: the W test's gathered column sums, the C test 34; and 24
    at n = 4, split into three branches). Every
    branch's input modes are charged, used by an event or not, so the check
    needs no pass over the events."""
    check_whole(ensemble_size, "ensemble_size", 2)
    check_table_bytes(_draw_bytes(ensemble_size, m, len(np.unique(events.input_modes)))
                      + (ensemble_size + 1) * len(events) * (32 + 8 * events.n),
                      f"{ensemble_size} Haar draws scoring {len(events)} events")


def wrong_unitary_slope_histogram(events: EventStream, true_u, test_kind: str, n: int, m: int,
                                  ensemble_size: int, rng_seed,
                                  reference_slope: float | None = None) -> WrongUnitaryEnsemble:
    """Rescore one stream against an ensemble of Haar-random unitaries.

    Returns the slope histogram in ``DEFAULT_BINS`` bins (normalized to
    ``reference_slope`` when given, as in a distinguishable-data
    normalization), the ensemble mean and standard deviation, and the
    z-score of the true-unitary slope against the ensemble. Only the
    columns scored are drawn, the sorted union of the input modes of the
    branches the events use, from the spawned seeds of ``rng_seed``
    (:func:`haarstats._haar_columns`), and rescored with those of the true
    unitary in one call of the scoring kernel. ``ensemble_size`` and the
    memory are checked first, by :func:`check_ensemble_bytes`; the uniform
    test checks n and m as :func:`run_uniform_test` does.
    """
    true_u = check_square(true_u, "U")
    m_u = len(true_u)
    check_ensemble_bytes(events, m_u, ensemble_size)
    if test_kind not in ("uniform", "distinguishable"):
        raise ConfigurationError(f"unknown test kind {test_kind!r}")
    if test_kind == "uniform":
        check_whole(n, "n", 1)
        check_whole(m, "m", 1)
    check_column(events.input_modes, "input modes", ("B", "n"), lo=0, hi=m_u)
    used = np.bincount(events.branch, minlength=len(events.branches)) > 0
    modes = np.unique(events.input_modes[used])
    if not len(modes):
        raise ConfigurationError("the events name no input modes to score")
    us = np.concatenate([true_u[None, :, modes],
                         _haar_columns(m_u, len(modes), rng_seed, ensemble_size)])
    slopes = _slopes(_counter_steps(events, us, test_kind, n, m, modes=modes))
    true_slope = float(slopes[0])
    scale = abs(reference_slope) if reference_slope else 1.0
    norm_slopes = slopes[1:] / scale
    mean = float(norm_slopes.mean())
    std = float(norm_slopes.std(ddof=1))
    if std == 0:
        raise ConfigurationError("degenerate ensemble: zero slope spread")
    z = float((true_slope / scale - mean) / std)
    lo, hi = norm_slopes.min(), norm_slopes.max()
    pad = max((hi - lo) * 0.05, 1e-9)
    edges = np.linspace(lo - pad, hi + pad, DEFAULT_BINS + 1)
    hist = Histogram.from_samples(norm_slopes, edges)
    return WrongUnitaryEnsemble(true_slope / scale, norm_slopes, hist, mean, std, z)
