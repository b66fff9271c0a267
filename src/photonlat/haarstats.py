"""Haar-random unitaries and ensemble statistics for circuit benchmarking.

Covers the comparisons used to judge how Haar-like a reconfigurable
device is: pooled squared-moduli and phase histograms of submatrix
ensembles, column-similarity distributions and histogram overlap, with
one similarity measure, :func:`pairwise_similarities`, over a stack of
probability vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericalError, check_modes, check_seed,
                     check_table_bytes, check_whole, is_finite)
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
        # written so that a NaN edge or mass fails them
        if not np.all(np.diff(edges) > 0):
            raise ConfigurationError("bin edges must be strictly increasing")
        if not (np.all(masses >= 0) and abs(masses.sum() - 1.0) <= 1e-12):
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


# the constants of numpy's SeedSequence hash and PCG64's 128-bit LCG multiplier
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(values, const: int, mult: int):
    """numpy's SeedSequence hash of uint32 ``values`` under the running
    constant ``const``, which steps by ``mult``: the hashed words, and the
    constant for the next hash."""
    hashed = values ^ np.uint32(const)
    const = const * mult & _MASK32
    hashed *= np.uint32(const)
    hashed ^= hashed >> 16
    return hashed, const


def _spawned_pools(seed: np.random.SeedSequence, count: int) -> np.ndarray:
    """(pool_size, count) uint32 entropy pools of the ``count`` children that
    ``seed.spawn(count)`` makes, with ``seed``'s spawn counter moved on by
    ``count`` as that call moves it, but no SeedSequence built per child.

    A child's entropy words are its parent's entropy zero-padded to the pool
    size, the parent's spawn key, then the child's index: one word, since
    numpy's spawn counter holds 32 bits. All words but the index give every
    child the same pool, that of a sequence seeded with those words alone,
    after pool_size hashes per word. The index is then mixed in as numpy's
    ``mix_entropy`` mixes a word past the pool, by :func:`_hashmix` over
    all children at once: uint32 array arithmetic, which wraps silently
    where numpy's scalars would warn.
    """
    start, size = seed.n_children_spawned, seed.pool_size
    if start + count > _MASK32:
        raise ConfigurationError(f"{count} more children overflow the 32-bit spawn "
                                 f"counter of a sequence that spawned {start}")
    coerce = np.random.bit_generator._coerce_to_uint32_array    # numpy's own word split
    entropy = coerce(seed.entropy)
    head = np.concatenate([entropy, np.zeros(max(size - len(entropy), 0), np.uint32),
                           coerce(seed.spawn_key)])
    pools = np.repeat(np.random.SeedSequence(head, pool_size=size).pool[:, None], count, 1)
    const = _INIT_A * pow(_MULT_A, size * len(head), 2**32) & _MASK32
    index = np.arange(start, start + count, dtype=np.uint32)
    for pool in pools:
        word, const = _hashmix(index, const, _MULT_A)
        pool *= _MIX_L
        pool -= word * _MIX_R
        pool ^= pool >> 16
    # the pickled state: (entropy, n_children_spawned, pool, pool_size, spawn_key)
    state = seed.__reduce__()[2]
    seed.__setstate__((state[0], start + count, *state[2:]))
    return pools


def _pcg64_seeds(pools) -> np.ndarray:
    """(E, 4) uint64 words that ``generate_state(4, np.uint64)`` gives each
    column of (pool_size, E) pools: PCG64's 128-bit seed and stream, high
    word first, each word two of numpy's uint32 output words, low one first."""
    const, words = _INIT_B, np.empty((pools.shape[1], 8), np.uint32)
    for i in range(8):
        words[:, i], const = _hashmix(pools[i % len(pools)], const, _MULT_B)
    return words.astype("<u4", copy=False).view("<u8")


def _pcg64_state(seed_hi: int, seed_lo: int, inc_hi: int, inc_lo: int) -> dict:
    """The state ``PCG64`` takes from one row of :func:`_pcg64_seeds`: an
    odd increment from the stream, then from state 0 one LCG step, the seed
    added and another step."""
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = (((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _haar_columns(m: int, k: int, seed, count: int | None = None) -> np.ndarray:
    """(E, m, k): the first k columns of one Haar unitary per seed, ``seed``
    itself (E = 1) or, given ``count``, each of ``count`` children spawned
    from it; k is a whole number in 1..m.

    They are the Q of one stacked QR of m x k complex Ginibre matrices with
    the R-diagonal phases divided out (Mezzadri, Notices AMS 54, 592 (2007)).
    Each member's matrix comes from one ``standard_normal`` call, its real
    parts first, and the complex stack is formed once in place. The members
    draw the bits ``np.random.default_rng`` of their seed would draw, from
    one reused generator: :func:`_spawned_pools` hashes the children's
    entropy pools in one pass and moves ``seed``'s spawn counter on by
    ``count``, as ``seed.spawn(count)`` would, and :func:`_pcg64_seeds` and
    :func:`_pcg64_state` give each member's PCG64 state from its pool.
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
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    seeds = _pcg64_seeds(seed.pool[:, None] if count is None else _spawned_pools(seed, count))
    bits = np.random.PCG64(0)    # each member sets its own state
    rng = np.random.Generator(bits)
    parts = np.empty((n_draws, 2, m, k))
    for e in range(n_draws):    # one row's Python ints at a time, not E lists
        bits.state = _pcg64_state(*seeds[e].tolist())
        rng.standard_normal(out=parts[e])
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


def _check_pair_bytes(n: int, size: int) -> None:
    """Raise ``CapacityError`` when the pair similarities of n columns of
    ``size`` entries in all would hold more than ``MAX_TABLE_BYTES`` at once:
    the columns and their roots, the Gram matrix, its two pair-index arrays
    and the pair values before and after squaring."""
    check_table_bytes(8 * (2 * size + n * n + 2 * n * (n - 1)),
                      f"the pair similarities of {n} columns")


def pairwise_similarities(columns) -> np.ndarray:
    """Squared Bhattacharyya coefficients (sum_i sqrt(p_i q_i))^2 of all
    unordered pairs (p, q) of the rows of ``columns``, probability vectors.

    Each lies in [0, 1] up to roundoff, is symmetric, and is 1 exactly
    when p = q and 0 on disjoint supports. ``columns`` must be a 2-D stack
    of finite numbers >= 0, else ``ConfigurationError``; ``CapacityError``
    is raised before it allocates, by :func:`_check_pair_bytes`.
    """
    try:
        cols = np.asarray(columns)
    except ValueError:    # a ragged stack
        cols = np.array(None)
    if cols.ndim != 2 or cols.dtype.kind not in "iuf" or \
            not (np.isfinite(cols) & (cols >= 0)).all():
        raise ConfigurationError("columns must form a 2-D stack of finite numbers >= 0")
    cols = cols.astype(float, copy=False)
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
    setting after setting from one generator seeded with ``rng_seed``;
    ``power_range`` is (lo, hi) with lo and hi finite and 0 <= lo <= hi."""
    check_whole(n, "n", 1)
    try:
        lo, hi = power_range
    except (TypeError, ValueError):    # no pair
        lo = hi = None
    if not (is_finite(lo) and is_finite(hi) and 0 <= lo <= hi):
        raise ConfigurationError(f"power_range must be finite (lo, hi) with 0 <= lo <= hi, "
                                 f"not {power_range!r}")
    rng = np.random.default_rng(check_seed(rng_seed))
    return rng.uniform(lo, hi, (n, bank.n_heaters))


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
