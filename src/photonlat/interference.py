"""Exact multi-photon statistics for a linear-optical circuit.

Probabilities follow the standard scattering construction: for input
occupations t and output occupations s the relevant submatrix of U takes
column j repeated t_j times and row i repeated s_i times, with U[i, j]
the amplitude from input mode j to output mode i. Indistinguishable
photons give |Per M|^2 / (prod_i s_i! prod_j t_j!); fully distinguishable
photons give Per(|M|^2) / prod_i s_i! (input factorials must not divide
the distinguishable law or the full distribution would no longer sum
to one for inputs with multiply occupied modes).

Every permanent comes from one kernel, :func:`_permanent_batch`: Glynn's
formula evaluated as dense matrix products for a whole stack of
submatrices, with temporaries chunked to ``_CHUNK_BYTES`` (64 MB) for any
table size. It supports n <= ``MAX_PERMANENT_SIZE`` = 20.

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

from .errors import CapacityError, ConfigurationError, NumericalError

MAX_PERMANENT_SIZE = 20
_CHUNK_BYTES = 64 * 2**20   # complex temporaries of one kernel step

SPDC_BRANCHES = ("1111", "2002", "0220")


@dataclass(frozen=True)
class FockPattern:
    """Occupation-number vector for m modes."""

    occupations: tuple

    def __post_init__(self):
        if any(o < 0 for o in self.occupations):
            raise ConfigurationError("occupations must be nonnegative")
        object.__setattr__(self, "occupations", tuple(int(o) for o in self.occupations))

    @classmethod
    def from_modes(cls, modes, m) -> "FockPattern":
        occ = [0] * m
        for mode in modes:
            occ[mode] += 1
        return cls(tuple(occ))

    @property
    def m(self) -> int:
        return len(self.occupations)

    @property
    def n(self) -> int:
        return sum(self.occupations)

    @property
    def collision_free(self) -> bool:
        return all(o <= 1 for o in self.occupations)

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

    @classmethod
    def from_ratio(cls, r: float) -> "SourceWeights":
        if r < 0:
            raise ConfigurationError("pair-rate ratio R must be nonnegative")
        alpha, beta, gamma = r, r * r, 1.0
        total = alpha + beta + gamma
        return cls(r, alpha, beta, gamma,
                   (alpha / total, beta / total, gamma / total))


@dataclass(frozen=True)
class SampleEvent:
    """One detected multi-photon outcome."""

    index: int
    branch: str
    input_modes: tuple
    output: tuple
    distinguishable: bool


def spdc_weights(r: float) -> SourceWeights:
    """Weights (alpha, beta, gamma) = (R, R^2, 1) of the SPDC branch mixture."""
    return SourceWeights.from_ratio(r)


def spdc_branch_pattern(branch: str, input_modes, m: int) -> FockPattern:
    """Input Fock pattern of an SPDC branch on the designated waveguides.

    ``input_modes`` maps the four source modes, in the occupation order
    (n4, n1, n2, n3), to waveguide indices.
    """
    if len(input_modes) != 4:
        raise ConfigurationError("SPDC source needs 4 designated input modes")
    if branch not in SPDC_BRANCHES:
        raise ConfigurationError(f"unknown SPDC branch {branch!r}")
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
        raise ValueError("permanent is defined for square matrices")
    if a.shape[0] < 1:
        raise ValueError("permanent needs at least a 1 x 1 matrix")
    return complex(_permanent_batch(a[None])[0])


@functools.lru_cache(maxsize=None)
def _glynn_signs(n: int):
    """The 2^(n-1) sign vectors with delta_0 = +1, and their products."""
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    delta = np.ones((1 << (n - 1), n), dtype=np.int8)
    delta[:, 1:] -= 2 * bits.astype(np.int8)
    return delta, delta.prod(axis=1)


def _permanent_batch(mats) -> np.ndarray:
    """Permanents of a (K, n, n) stack via Glynn's formula.

    Per(A) = 2^(1-n) sum_delta (prod_i delta_i) prod_j sum_i delta_i A_ij.
    For each column j the sums over all sign vectors are one matrix
    product; their (n, S, K) array is chunked over signs and patterns.
    """
    mats = np.asarray(mats)
    k, n = mats.shape[0], mats.shape[-1]
    if n > MAX_PERMANENT_SIZE:
        raise CapacityError(f"permanent limited to n <= {MAX_PERMANENT_SIZE}, got {n}")
    delta, parity = _glynn_signs(n)
    pairs = max(1, _CHUNK_BYTES // (16 * n))     # (sign, pattern) pairs per step
    s_step = min(len(delta), pairs)
    k_step = max(1, pairs // s_step)
    out = np.zeros(k, dtype=complex)
    for k0 in range(0, k, k_step):
        cols = mats[k0:k0 + k_step].transpose(2, 1, 0)        # (n, n, Kc)
        for s0 in range(0, len(delta), s_step):
            sums = delta[s0:s0 + s_step] @ cols                 # (n, Sc, Kc)
            prod = sums[0]
            for col in sums[1:]:
                prod *= col
            out[k0:k0 + k_step] += parity[s0:s0 + s_step] @ prod
    return out / (1 << (n - 1))


def scattering_submatrix(u, input_pattern: FockPattern, output_pattern: FockPattern) -> np.ndarray:
    """n x n submatrix with rows from output occupations, columns from inputs."""
    u = np.asarray(u)
    if input_pattern.n != output_pattern.n:
        raise ValueError("input and output photon numbers differ")
    rows = output_pattern.modes()
    cols = input_pattern.modes()
    return u[np.ix_(rows, cols)]


def _occupation_factorial(pattern: FockPattern) -> float:
    return math.prod(math.factorial(o) for o in pattern.occupations if o > 1)


def output_probability(u, input_pattern: FockPattern, output_pattern: FockPattern,
                       statistics: str = "indistinguishable") -> float:
    """Probability of one output pattern for the given photon statistics."""
    sub = scattering_submatrix(u, input_pattern, output_pattern)
    return float(_probabilities(sub[None], statistics, _occupation_factorial(output_pattern),
                                _occupation_factorial(input_pattern))[0])


def _probabilities(subs, statistics: str, s_facts, t_fact) -> np.ndarray:
    """Probabilities of a (K, n, n) stack of scattering submatrices."""
    if statistics == "indistinguishable":
        return np.abs(_permanent_batch(subs)) ** 2 / (s_facts * t_fact)
    if statistics == "distinguishable":
        return _permanent_batch(np.abs(subs) ** 2).real / s_facts
    raise ConfigurationError(f"unknown statistics {statistics!r}")


def _enumerate_mode_lists(n: int, outputs) -> np.ndarray:
    """(K, n) sorted mode index lists over ``outputs``, collision-free."""
    return np.array(list(itertools.combinations(outputs, n)), dtype=np.intp)


def _enumerate_multisets(n: int, outputs) -> np.ndarray:
    return np.array(list(itertools.combinations_with_replacement(outputs, n)), dtype=np.intp)


def enumerate_patterns(m: int, n: int, collision_free: bool = True, outputs=None):
    """All output patterns in lexicographic order of their mode lists.

    Collision-free gives the C(m, n) subsets, otherwise all
    C(m + n - 1, n) multisets. ``outputs`` restricts the modes that can be
    occupied (used when one detector is sacrificed as a trigger).
    """
    modes = tuple(range(m)) if outputs is None else tuple(sorted(outputs))
    if collision_free:
        lists = _enumerate_mode_lists(n, modes)
    else:
        lists = _enumerate_multisets(n, modes)
    return [FockPattern.from_modes(row, m) for row in lists]


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

    def normalized_probs(self) -> np.ndarray:
        return self.probs / self.probs.sum()


def distribution(u, input_pattern: FockPattern, statistics: str = "indistinguishable",
                 collision_free: bool = True, outputs=None,
                 branch_label: str = "fock") -> ProbabilityTable:
    """Exact probability table over enumerated output patterns.

    With collisions included the table sums to one; collision-free tables
    carry their raw probabilities plus the total enumerated mass.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigurationError(f"U must be square, got shape {u.shape}")
    m = u.shape[0]
    n = input_pattern.n
    if input_pattern.m != m:
        raise ConfigurationError(f"input pattern has {input_pattern.m} modes, U has {m}")
    if n == 0:
        raise ConfigurationError("input pattern carries no photons")
    modes = tuple(range(m)) if outputs is None else tuple(sorted(int(o) for o in outputs))
    if len(set(modes)) != len(modes) or not all(0 <= o < m for o in modes):
        raise ConfigurationError(f"outputs must be distinct modes in 0..{m - 1}")
    if not modes or (collision_free and n > len(modes)):
        raise ConfigurationError(
            f"{n} photons do not fit collision-free into {len(modes)} outputs")
    in_cols = np.asarray(input_pattern.modes())
    t_fact = _occupation_factorial(input_pattern)
    if collision_free:
        lists = _enumerate_mode_lists(n, modes)
        s_facts = np.ones(len(lists))
    else:
        lists = _enumerate_multisets(n, modes)
        s_facts = np.array([
            math.prod(math.factorial(c) for c in np.bincount(row).tolist())
            for row in lists])
    probs = np.empty(len(lists))
    step = max(1, _CHUNK_BYTES // (16 * n * n))
    for k0 in range(0, len(lists), step):
        subs = u[lists[k0:k0 + step, :, None], in_cols[None, None, :]]  # (Kc, n, n)
        probs[k0:k0 + step] = _probabilities(subs, statistics, s_facts[k0:k0 + step], t_fact)
    probs = np.maximum(probs, 0.0)
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


def sample(table: ProbabilityTable, rng_seed, count: int,
           index_offset: int = 0):
    """Draw ``count`` i.i.d. outcomes from a table by exact inversion.

    Deterministic per seed. Collision-free tables are sampled conditionally
    on their enumerated support. A table whose mass is zero or not finite
    raises :class:`NumericalError`.
    """
    if count < 0:
        raise ConfigurationError("count must be nonnegative")
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
    corresponding branch bit for bit.
    """
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
