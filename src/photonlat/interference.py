"""Exact multi-photon statistics for a linear-optical circuit.

Probabilities follow the standard scattering construction: for input
occupations t and output occupations s the relevant submatrix of U takes
column j repeated t_j times and row i repeated s_i times, with U[i, j]
the amplitude from input mode j to output mode i. Indistinguishable
photons give |Per M|^2 / (prod_i s_i! prod_j t_j!); fully distinguishable
photons give Per(|M|^2) / prod_i s_i! (input factorials must not divide
the distinguishable law or the full distribution would no longer sum
to one for inputs with multiply occupied modes).

Every permanent comes from one kernel, :func:`_permanents`: Glynn's
formula as dense matrix products over the submatrices that output mode
lists gather from a stack of unitaries, gathered one block at a time
with each step's temporaries held to ``_STEP_BYTES`` (4 MB) for any table
size. It supports n <= ``MAX_PERMANENT_SIZE`` = 20. Output patterns
are counted before they are enumerated, and a table whose own arrays would
exceed ``errors.MAX_TABLE_BYTES`` (256 MB) raises :class:`CapacityError`, as does
any other stack over that limit, and a draw of more events than fit in it.

The four-photon source is a two-pair SPDC mixture over the branches
|1111>, |2002> and |0220> in the occupation order (n4, n1, n2, n3) with
branch weights (alpha, beta, gamma) = (R, R^2, 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, ConfigurationError, NumericalError, check_table_bytes,
                     is_finite, is_whole)
from .evolution import MAX_UNITARITY_DEFECT, unitarity_defect

MAX_PERMANENT_SIZE = 20
_STEP_BYTES = 4 * 2**20     # complex temporaries of one kernel step

SPDC_BRANCHES = ("1111", "2002", "0220")


@dataclass(frozen=True)
class FockPattern:
    """Occupation-number vector for m modes."""

    occupations: tuple

    def __post_init__(self):
        for o in self.occupations:
            if not (is_whole(o) and o >= 0):
                raise ConfigurationError(f"occupation {o!r} must be a whole number >= 0")
        object.__setattr__(self, "occupations", tuple(int(o) for o in self.occupations))

    @classmethod
    def from_modes(cls, modes, m) -> "FockPattern":
        occ = [0] * m
        for mode in modes:
            if not (is_whole(mode) and 0 <= mode < m):
                raise ConfigurationError(f"mode {mode!r} must be a whole number in [0, {m})")
            occ[mode] += 1
        return cls(tuple(occ))

    @property
    def m(self) -> int:
        return len(self.occupations)

    @property
    def n(self) -> int:
        return sum(self.occupations)

    def modes(self) -> tuple:
        """Sorted mode indices with multiplicity."""
        out = []
        for i, o in enumerate(self.occupations):
            out.extend([i] * o)
        return tuple(out)


@dataclass(frozen=True)
class SourceWeights:
    """Branch weights of the post-selected two-pair SPDC state."""

    r: float
    alpha: float
    beta: float
    gamma: float
    normalized: tuple


@dataclass(frozen=True)
class SampleEvent:
    """One detected multi-photon outcome."""

    index: int
    branch: str
    input_modes: tuple
    output: tuple
    distinguishable: bool


def spdc_weights(r: float) -> SourceWeights:
    """Weights (alpha, beta, gamma) = (R, R^2, 1) of the SPDC branch mixture
    for a finite pair-rate ratio R >= 0."""
    if not (is_finite(r) and r >= 0):
        raise ConfigurationError(f"pair-rate ratio R = {r!r} must be a finite number >= 0")
    alpha, beta, gamma = r, r * r, 1.0
    total = alpha + beta + gamma
    return SourceWeights(r, alpha, beta, gamma, (alpha / total, beta / total, gamma / total))


def spdc_branch_pattern(branch: str, input_modes, m: int) -> FockPattern:
    """Input Fock pattern of an SPDC branch on the designated waveguides.

    ``input_modes`` maps the four source modes, in the occupation order
    (n4, n1, n2, n3), to waveguide indices.
    """
    if len(input_modes) != 4:
        raise ConfigurationError("SPDC source needs 4 designated input modes")
    if branch not in SPDC_BRANCHES:
        raise ConfigurationError(f"unknown SPDC branch {branch!r}")
    if not all(0 <= mode < m for mode in input_modes):
        raise ConfigurationError(f"input modes {list(input_modes)} must lie in [0, {m})")
    occ = [0] * m
    for mode, count in zip(input_modes, (int(ch) for ch in branch)):
        occ[mode] += count
    return FockPattern(tuple(occ))


def permanent(a) -> complex:
    """Exact permanent of a square complex matrix via Glynn's formula.

    The cost is O(2^n n^2); matrices up to 20 x 20 are supported.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("permanent is defined for square matrices")
    if a.shape[0] < 1:
        raise ConfigurationError("permanent needs at least a 1 x 1 matrix")
    return complex(_permanent_batch(a[None])[0])


@functools.lru_cache(maxsize=None)
def _glynn_signs(n: int):
    """The 2^(n-1) sign vectors with delta_0 = +1, and their products."""
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    delta = np.ones((1 << (n - 1), n), dtype=np.int8)
    delta[:, 1:] -= 2 * bits.astype(np.int8)
    return delta, delta.prod(axis=1)


def _permanents(us, rows, cols) -> np.ndarray:
    """(E, P) permanents of ``us[e][rows[p]][:, cols]`` for an (E, m, m)
    stack ``us`` and (P, n) output mode lists ``rows``, by Glynn's formula
    Per(A) = 2^(1-n) sum_delta (prod_i delta_i) prod_j sum_i delta_i A_ij.

    For each column j the sums over all sign vectors are one matrix
    product. The input columns are taken once; each step gathers the rows
    of one block of unitaries x patterns and takes one block of signs, its
    (n, signs, submatrices) sums held to ``_STEP_BYTES``.
    """
    n = len(cols)
    if n > MAX_PERMANENT_SIZE:
        raise CapacityError(f"permanent limited to n <= {MAX_PERMANENT_SIZE}, got {n}")
    taken = np.asarray(us)[:, :, cols]                              # (E, m, n)
    delta, parity = _glynn_signs(n)
    pairs = max(1, _STEP_BYTES // (16 * n))     # (sign, submatrix) pairs per step
    s_step = min(len(delta), pairs)
    p_step = max(1, min(len(rows), pairs // s_step))
    e_step = max(1, pairs // (s_step * p_step))
    out = np.zeros((len(taken), len(rows)), dtype=complex)
    for e0 in range(0, len(taken), e_step):
        for p0 in range(0, len(rows), p_step):
            acc = out[e0:e0 + e_step, p0:p0 + p_step]              # a view into out
            subs = np.take(taken[e0:e0 + e_step], rows[p0:p0 + p_step], axis=1)
            subs = subs.reshape(-1, n, n).transpose(2, 1, 0)        # (n, n, Kc)
            for s0 in range(0, len(delta), s_step):
                sums = delta[s0:s0 + s_step] @ subs                 # (n, Sc, Kc)
                prod = sums[0]
                for col in sums[1:]:
                    prod *= col
                acc += (parity[s0:s0 + s_step] @ prod).reshape(acc.shape)
    return out / (1 << (n - 1))


def _permanent_batch(mats) -> np.ndarray:
    """Permanents of a (K, n, n) stack: :func:`_permanents` of each whole matrix."""
    whole = np.arange(np.shape(mats)[-1])
    return _permanents(mats, whole[None], whole)[:, 0]


def _occupation_factorial(pattern: FockPattern) -> float:
    return math.prod(math.factorial(o) for o in pattern.occupations if o > 1)


def _checked_unitary(u, *patterns) -> np.ndarray:
    """``u`` as a complex array, rejected with :class:`ConfigurationError`
    unless it is square, finite and unitary to ``MAX_UNITARITY_DEFECT``
    (1e-9) and each pattern has its m modes."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigurationError(f"U must be square, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= MAX_UNITARITY_DEFECT:
        raise ConfigurationError(
            f"U is not unitary: defect {defect:.3e} exceeds {MAX_UNITARITY_DEFECT:g}")
    for pattern in patterns:
        if pattern.m != len(u):
            raise ConfigurationError(f"pattern has {pattern.m} modes, U has {len(u)}")
    return u


def output_probability(u, input_pattern: FockPattern, output_pattern: FockPattern,
                       statistics: str = "indistinguishable") -> float:
    """Probability of one output pattern for the given photon statistics.

    U is checked as in :func:`distribution`.
    """
    u = _checked_unitary(u, input_pattern, output_pattern)
    if input_pattern.n != output_pattern.n or input_pattern.n == 0:
        raise ConfigurationError("input and output must carry the same nonzero photon number")
    return float(_probabilities(u[None], [output_pattern.modes()], input_pattern.modes(),
                                statistics, _occupation_factorial(output_pattern),
                                _occupation_factorial(input_pattern))[0, 0])


def _probabilities(us, rows, cols, statistics: str, s_facts, t_fact) -> np.ndarray:
    """(E, P) probabilities of the submatrices :func:`_permanents` gathers."""
    if statistics == "indistinguishable":
        return np.abs(_permanents(us, rows, cols)) ** 2 / (s_facts * t_fact)
    if statistics == "distinguishable":
        return _permanents(np.abs(us) ** 2, rows, cols).real / s_facts
    raise ConfigurationError(f"unknown statistics {statistics!r}")


def _mode_lists(n: int, outputs, collision_free: bool) -> np.ndarray:
    """(K, n) sorted mode index lists over ``outputs``, in lexicographic order.

    K is counted before anything is enumerated, and a table whose mode
    lists, probabilities and factorials would exceed ``MAX_TABLE_BYTES``
    raises :class:`CapacityError`.
    """
    k = math.comb(len(outputs) + (0 if collision_free else n - 1), n)
    check_table_bytes(k * (n + 2) * 8, f"{k} output patterns of {n} photons")
    combos = itertools.combinations if collision_free else itertools.combinations_with_replacement
    flat = np.fromiter(itertools.chain.from_iterable(combos(outputs, n)),
                       dtype=np.intp, count=k * n)
    return flat.reshape(k, n)


@dataclass
class ProbabilityTable:
    """Output-pattern probabilities for one input state and statistics.

    Collision-free tables are stored unnormalized; ``total_mass`` is the
    probability of landing anywhere in the enumerated set.
    """

    m: int
    n: int
    input: FockPattern
    statistics: str
    collision_free: bool
    outputs: tuple
    mode_lists: np.ndarray
    probs: np.ndarray
    total_mass: float
    branch_label: str = "fock"

    def pattern(self, k: int) -> FockPattern:
        return FockPattern.from_modes(self.mode_lists[k], self.m)


def distribution(u, input_pattern: FockPattern, statistics: str = "indistinguishable",
                 collision_free: bool = True, outputs=None,
                 branch_label: str = "fock") -> ProbabilityTable:
    """Exact probability table over enumerated output patterns.

    With collisions included the table sums to one; collision-free tables
    carry their raw probabilities plus the total enumerated mass. A U that
    is not unitary to ``MAX_UNITARITY_DEFECT`` (1e-9), or not finite, raises
    :class:`ConfigurationError`.
    """
    u = _checked_unitary(u, input_pattern)
    m = u.shape[0]
    n = input_pattern.n
    if n == 0:
        raise ConfigurationError("input pattern carries no photons")
    modes = tuple(range(m)) if outputs is None else tuple(sorted(int(o) for o in outputs))
    if len(set(modes)) != len(modes) or not all(0 <= o < m for o in modes):
        raise ConfigurationError(f"outputs must be distinct modes in 0..{m - 1}")
    if not modes or (collision_free and n > len(modes)):
        raise ConfigurationError(
            f"{n} photons do not fit collision-free into {len(modes)} outputs")
    lists = _mode_lists(n, modes, collision_free)
    if collision_free:
        s_facts = np.ones(len(lists))
    else:
        s_facts = np.array([
            math.prod(math.factorial(c) for c in np.bincount(row).tolist())
            for row in lists])
    probs = np.maximum(_probabilities(u[None], lists, input_pattern.modes(), statistics,
                                      s_facts, _occupation_factorial(input_pattern))[0], 0.0)
    return ProbabilityTable(m, n, input_pattern, statistics, collision_free,
                            modes, lists, probs, float(probs.sum()), branch_label)


def _invert(probs, uniforms) -> np.ndarray:
    """Indices drawn by inverting the CDF of ``probs`` at ``uniforms``."""
    probs = np.asarray(probs, dtype=float)
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        raise NumericalError(f"cannot sample a table of total mass {total}")
    cdf = np.cumsum(probs / total)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, uniforms, side="right")


def _draw_events(table: ProbabilityTable, uniforms, indices):
    """Events of the given indices, drawn from ``table`` at ``uniforms``."""
    in_modes = table.input.modes()
    flag = table.statistics == "distinguishable"
    return [SampleEvent(int(i), table.branch_label, in_modes,
                        tuple(int(x) for x in table.mode_lists[k]), flag)
            for i, k in zip(indices, _invert(table.probs, uniforms))]


def check_event_count(count, n: int) -> None:
    """Raise :class:`ConfigurationError` for a negative ``count``, and
    :class:`CapacityError` when ``count`` events of n photons would exceed
    ``MAX_TABLE_BYTES``: each holds a uniform, an index and a
    :class:`SampleEvent`, 224 + 8 n bytes at their peak (measured with
    tracemalloc at n = 3 and 4)."""
    if count < 0:
        raise ConfigurationError("count must be nonnegative")
    check_table_bytes(count * (224 + 8 * n), f"{count} events of {n} photons")


def sample(table: ProbabilityTable, rng_seed, count: int,
           index_offset: int = 0):
    """Draw ``count`` i.i.d. outcomes from a table by exact inversion.

    Deterministic per seed. Collision-free tables are sampled conditionally
    on their enumerated support. A table whose mass is zero or not finite
    raises :class:`NumericalError`; ``count`` is checked by
    :func:`check_event_count`.
    """
    check_event_count(count, table.n)
    rng = np.random.default_rng([int(rng_seed), 1])
    return _draw_events(table, rng.random(count),
                        range(index_offset, index_offset + count))


def spdc_branch_tables(u, input_modes, statistics: str = "indistinguishable",
                       outputs=None):
    """Collision-free output tables of the three SPDC branches."""
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    tables = {}
    for branch in SPDC_BRANCHES:
        pattern = spdc_branch_pattern(branch, input_modes, m)
        tables[branch] = distribution(u, pattern, statistics=statistics,
                                      collision_free=True, outputs=outputs,
                                      branch_label=branch)
    return tables


def spdc_sample(u, weights: SourceWeights, statistics: str, rng_seed, count: int,
                input_modes, outputs=None):
    """Sample the SPDC mixture: draw a branch, then that branch's output.

    The output stream consumes its own named substream of ``rng_seed``, so
    a degenerate weight vector reproduces plain :func:`sample` of the
    corresponding branch bit for bit. ``count`` is checked by
    :func:`check_event_count` before any table is built.
    """
    check_event_count(count, 4)
    tables = spdc_branch_tables(u, input_modes, statistics, outputs)
    rng_branch = np.random.default_rng([int(rng_seed), 0])
    rng_out = np.random.default_rng([int(rng_seed), 1])
    branch_ids = _invert(weights.normalized, rng_branch.random(count))
    uniforms = rng_out.random(count)
    events = []
    for bid, branch in enumerate(SPDC_BRANCHES):
        drawn = np.flatnonzero(branch_ids == bid)
        if len(drawn):
            events += _draw_events(tables[branch], uniforms[drawn], drawn)
    return sorted(events, key=lambda ev: ev.index)


def spdc_mixture_table(u, weights: SourceWeights, input_modes,
                       statistics: str = "indistinguishable", outputs=None) -> ProbabilityTable:
    """Branch-weighted mixture distribution over collision-free outputs."""
    tables = spdc_branch_tables(u, input_modes, statistics, outputs)
    w = dict(zip(SPDC_BRANCHES, weights.normalized))
    ref = tables["1111"]
    probs = sum(w[b] * tables[b].probs for b in SPDC_BRANCHES)
    return ProbabilityTable(ref.m, ref.n, ref.input, statistics, True,
                            ref.outputs, ref.mode_lists, probs,
                            float(probs.sum()), "mixture")
