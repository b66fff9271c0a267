"""Haar-random unitaries and ensemble statistics for circuit benchmarking.

Covers the comparisons used to judge how Haar-like a reconfigurable
device is: pooled squared-moduli and phase histograms of submatrix
ensembles, column-similarity distributions, histogram overlap, and the
similarity measure used to quantify reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericalError, check_modes, check_seed,
                     check_table_bytes, check_whole)
from .evolution import MAX_UNITARITY_DEFECT, UnitaryMatrix, _Propagator, unitarity_defect

DEFAULT_BINS = 25


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram: strictly increasing edges, masses summing to 1."""

    bin_edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if len(edges) != len(masses) + 1:
            raise ConfigurationError("need len(edges) == len(masses) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ConfigurationError("bin edges must be strictly increasing")
        if np.any(masses < 0) or abs(masses.sum() - 1.0) > 1e-12:
            raise ConfigurationError("masses must be nonnegative and sum to 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def from_samples(cls, samples, bin_edges) -> "Histogram":
        counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=bin_edges)
        total = counts.sum()
        if total == 0:
            raise ConfigurationError("no samples fall inside the bin range")
        return cls(edges, counts / total)


def _draw_bytes(count: int, m: int, k: int) -> int:
    """Bytes charged for ``count`` Haar draws of k columns of m modes by
    :func:`_haar_columns`: the QR's four (E, m, k) complex stacks and two
    complex ufunc buffers of ``np.getbufsize()`` elements."""
    return 64 * count * m * k + 32 * np.getbufsize()


def _haar_columns(m: int, k: int, seed, count: int | None = None) -> np.ndarray:
    """(E, m, k): the first k columns of one Haar unitary per seed, ``seed``
    itself (E = 1) or, given ``count``, each of ``count`` children spawned
    from it; k is a whole number in 1..m.

    They are the Q of one stacked QR of m x k complex Ginibre matrices with
    the R-diagonal phases divided out (Mezzadri, Notices AMS 54, 592 (2007)).
    Each member's matrix comes from one ``standard_normal`` call, its real
    parts first, and the complex stack is formed once in place.
    ``CapacityError`` is raised before a seed is spawned when the QR's four
    stacks (Ginibre, its copy, Q and R) and numpy's ufunc buffers would
    exceed ``MAX_TABLE_BYTES``. The buffers are two complex operands of
    ``np.getbufsize()`` elements: ``triu`` reads R through a strided view
    of the QR's working copy when k < m, and the phase scaling of Q comes
    after it. They are what takes the peak past the four stacks at k near m.
    """
    check_whole(m, "m", 1)
    if not check_whole(k, "k", 1) <= m:
        raise ConfigurationError(f"k = {k} must be at most m = {m}")
    seed = check_seed(seed)
    n_draws = 1 if count is None else check_whole(count, "count", 1)
    check_table_bytes(_draw_bytes(n_draws, m, k),
                      f"{n_draws} Haar draws of {k} columns of {m} modes")
    if count is not None:
        seed = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seeds = [seed] if count is None else seed.spawn(count)
    parts = np.empty((n_draws, 2, m, k))
    for e, child in enumerate(seeds):
        np.random.default_rng(child).standard_normal(out=parts[e])
    z = 1j * parts[:, 1]
    z += parts[:, 0]
    z /= np.sqrt(2.0)
    del parts, seeds    # before the QR, whose four stacks are the charge
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= (d / np.abs(d))[:, None, :]
    return q


def haar_unitary(m: int, rng_seed) -> UnitaryMatrix:
    """Haar-distributed m x m unitary: :func:`_haar_columns` at k = m of ``rng_seed``."""
    q = _haar_columns(m, m, rng_seed)[0]
    return UnitaryMatrix(m, q, unitarity_defect(q))


def similarity(p, q) -> float:
    """Squared Bhattacharyya coefficient (sum_i sqrt(p_i q_i))^2 in [0, 1].

    Symmetric, equals 1 exactly when the distributions coincide, 0 on
    disjoint supports.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ConfigurationError("distributions must have the same length")
    return float(np.sqrt(p * q).sum() ** 2)


def _check_pair_bytes(n: int, size: int) -> None:
    """Raise ``CapacityError`` when the pair similarities of n columns of
    ``size`` entries in all would hold more than ``MAX_TABLE_BYTES`` at once:
    the columns and their roots, the Gram matrix, its two pair-index arrays
    and the pair values before and after squaring."""
    check_table_bytes(8 * (2 * size + n * n + 2 * n * (n - 1)),
                      f"the pair similarities of {n} columns")


def pairwise_similarities(columns) -> np.ndarray:
    """Similarities of all unordered pairs of probability vectors.

    Raises ``CapacityError`` before it allocates, by :func:`_check_pair_bytes`.
    """
    cols = np.asarray(columns, dtype=float)
    n = len(cols)
    _check_pair_bytes(n, cols.size)
    root = np.sqrt(cols)
    gram = root @ root.T
    iu, ju = np.triu_indices(n, k=1)
    return gram[iu, ju] ** 2


def similarity_histogram(columns, bin_edges) -> Histogram:
    """Histogram of the similarities of all unordered pairs of probability
    vectors, clipped to [0, 1] against roundoff."""
    return Histogram.from_samples(np.clip(pairwise_similarities(columns), 0.0, 1.0),
                                  bin_edges)


def column_similarity_distribution(m: int, ensemble_size: int, rng_seed,
                                   n_bins: int = DEFAULT_BINS) -> Histogram:
    """Similarity histogram over pairs of independent Haar columns.

    ``ensemble_size`` columns are drawn, :func:`_haar_columns` at k = 1 over
    as many children of ``rng_seed``, and all unordered pairs compared,
    binned uniformly on [0, 1]. ``CapacityError`` is raised before the draw
    when the pairs or the histogram's arrays would exceed ``MAX_TABLE_BYTES``.
    """
    check_whole(m, "m", 1)
    check_whole(ensemble_size, "ensemble_size", 2)
    check_whole(n_bins, "n_bins", 1)
    # five float arrays of n_bins + 1: tracemalloc measured 4.1 for this
    # histogram (edges, counts, masses and np.histogram's own), and 5.1
    # while a second histogram is binned on its edges
    check_table_bytes(40 * (n_bins + 1), f"{n_bins} similarity bins")
    _check_pair_bytes(ensemble_size, ensemble_size * m)
    columns = _haar_columns(m, 1, rng_seed, ensemble_size)[:, :, 0]
    return similarity_histogram(np.abs(columns) ** 2, np.linspace(0.0, 1.0, n_bins + 1))


def histogram_overlap(h1: Histogram, h2: Histogram) -> float:
    """Shared area sum_bins min(mass1, mass2); requires identical edges."""
    if len(h1.bin_edges) != len(h2.bin_edges) or \
            not np.allclose(h1.bin_edges, h2.bin_edges, rtol=0.0, atol=1e-12):
        raise ConfigurationError("histograms must share identical bin edges")
    return float(np.minimum(h1.masses, h2.masses).sum())


def gauge_fix_phases(sub) -> np.ndarray:
    """Phases with the first row and first column rotated to zero.

    Returns the (..., rows, cols) phase array of a submatrix or a stack of
    them after multiplying each row and column by the unit phases that null
    row 0 and column 0; only the remaining (rows-1) x (cols-1) block
    carries information.
    """
    theta = np.angle(np.asarray(sub, dtype=complex))
    fixed = theta - theta[..., 0:1, :] - theta[..., :, 0:1] + theta[..., 0:1, 0:1]
    return np.angle(np.exp(1j * fixed))


def random_heater_powers(bank, n: int, rng_seed,
                         power_range=(0.0, 500.0)) -> np.ndarray:
    """(n, n_heaters) heater settings drawn uniformly over ``power_range``,
    setting after setting from one generator seeded with ``rng_seed``."""
    check_whole(n, "n", 1)
    rng = np.random.default_rng(check_seed(rng_seed))
    return rng.uniform(power_range[0], power_range[1], (n, bank.n_heaters))


def device_submatrix_ensemble(layout, model, bank, inputs, powers,
                              n_steps: int = 512) -> list:
    """Input rows of the device under a stack of heater settings.

    ``powers`` holds one row of heater powers per setting, e.g. from
    :func:`random_heater_powers`, and ``inputs`` one list of distinct input
    modes per setting: the rows of U read under that setting. This is the
    reconfigurable-device ensemble the Haar histograms are compared
    against; a setting whose rows are pooled into a submatrix histogram
    names every input, one that only feeds a column statistic names one.
    Returns one (len(inputs[e]), m) array per setting.

    The chip is built once per call, and one pass of
    ``evolution._Propagator.columns`` carries exactly the (setting, input)
    pairs asked for: every heated slice is planned first, then its
    detunings are formed a block of slices at a time. Raises
    ``NumericalError`` when a row's squared norm is off 1 by more than
    ``MAX_UNITARITY_DEFECT``.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.ndim != 2 or len(powers) < 1 or powers.shape[1] != bank.n_heaters:
        raise ConfigurationError(
            f"powers must be an (E, {bank.n_heaters}) stack with E >= 1, "
            f"not {powers.shape}")
    if not np.all(np.isfinite(powers)) or np.any(powers < 0):
        raise ConfigurationError("heater powers must be finite and nonnegative")
    if not isinstance(inputs, (list, tuple, np.ndarray)) or len(inputs) != len(powers):
        raise ConfigurationError(
            f"inputs must hold one mode list per setting, {len(powers)} in all")
    inputs = [check_modes(modes, layout.m, "inputs", distinct=True) for modes in inputs]
    if not all(len(modes) for modes in inputs):
        raise ConfigurationError("inputs must name at least one mode per setting")
    pairs = [(e, mode) for e, modes in enumerate(inputs) for mode in modes]
    chip = _Propagator(layout, model, bank, n_steps)
    rows = chip.columns(powers, pairs).T
    defect = float(np.abs((np.abs(rows) ** 2).sum(axis=1) - 1.0).max())
    if defect > MAX_UNITARITY_DEFECT:
        raise NumericalError(
            f"device ensemble column-norm defect {defect:.3e} exceeds "
            f"{MAX_UNITARITY_DEFECT:g}")
    return np.split(rows, np.cumsum([len(modes) for modes in inputs])[:-1])


def ensemble_moduli_phase_histograms(submatrices):
    """Pooled squared-moduli and gauge-fixed phase histograms of an ensemble.

    ``submatrices`` is a (E, rows, cols) stack. Moduli pool every entry and
    are binned on [0, 1]; phases are pooled over the gauge-free block only
    (the reference row and column are zero by construction) and binned on
    (-pi, pi].
    """
    subs = np.asarray(submatrices, dtype=complex)
    return (Histogram.from_samples(np.clip(np.abs(subs) ** 2, 0.0, 1.0).ravel(),
                                   np.linspace(0.0, 1.0, DEFAULT_BINS + 1)),
            Histogram.from_samples(gauge_fix_phases(subs)[..., 1:, 1:].ravel(),
                                   np.linspace(-np.pi, np.pi, DEFAULT_BINS + 1)))
