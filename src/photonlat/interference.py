"""Exact multi-photon statistics for a linear-optical circuit.

Probabilities follow the standard scattering construction: for input
occupations t and output occupations s the relevant submatrix of U takes
column j repeated t_j times and row i repeated s_i times, with U[i, j]
the amplitude from input mode j to output mode i. Indistinguishable
photons give |Per M|^2 / (prod_i s_i! prod_j t_j!); fully distinguishable
photons give Per(|M|^2) / prod_i s_i! (input factorials must not divide
the distinguishable law or the full distribution would no longer sum
to one for inputs with multiply occupied modes).

Every permanent comes from one row-signed Glynn kernel. Since
Per A = Per A^T, Glynn's formula needs the signed row sums of U's input
columns, formed once per unitary and block of sign vectors
(:func:`_row_sums`), and a list's permanent is the signed sum over the
vectors of the products of its n rows of them. Lists that come alone
(:func:`_permanents`: the validation stacks, :func:`output_probability`
and :func:`permanent`) multiply their gathered rows, in steps whose row
sums and product buffers fit ``_LIST_STEP_BYTES`` (1 MB). A table
(:func:`_table_permanents`) shares its products between lists along the
level recurrence :func:`_levels` by which :func:`_mode_lists` enumerates
it. Each table step takes the largest block of signs whose row sums and
level products fit in ``_STEP_BYTES`` (4 MB), but at least one sign, and
its last level adds one matrix-vector product. So a step holds at most
the larger of ``_STEP_BYTES`` and one sign's share (16 bytes per output and
per list of every level but the last), plus 16 bytes per list of the
largest such level. A table whose levels outgrow the budget takes more
than 4 MB a step: a 6-photon collision-allowed table over 31 outputs
holds its 324,632-list level, 5,194,112 bytes, in steps bounded by
11,226,464 bytes (traced, 10.4 MB above its permanents).
:func:`distribution` logs each table's levels, sign blocks and that step
bound at DEBUG level on the ``photonlat.interference`` logger. The
kernel supports n <= ``MAX_PERMANENT_SIZE`` = 20. Output patterns are
counted before they are enumerated, and a table whose own arrays would at
their peak exceed ``errors.MAX_TABLE_BYTES`` (256 MB) raises
:class:`CapacityError`, as does any other stack over that limit, and a
draw of more events than fit in it.
They are enumerated by numpy array operations, one photon more per level
(:func:`_mode_lists`), and a draw reads its events' outputs from the drawn
rows at once, as one :class:`EventStream`: columns of branch codes and
outputs and one flag for the statistics, checked once when the stream is
built. An event's number is its position in the stream.

The four-photon source is a two-pair SPDC mixture over the branches
|1111>, |2002> and |0220> in the occupation order (n4, n1, n2, n3) with
branch weights (alpha, beta, gamma) = (R, R^2, 1). Its three branch
tables (:func:`spdc_branch_tables`) share one check of U and one array of
output mode lists.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CapacityError, ConfigurationError, NumericalError, check_column,
                     check_modes, check_square, check_table_bytes, check_whole, is_finite)
from .evolution import MAX_UNITARITY_DEFECT, unitarity_defect

log = logging.getLogger(__name__)

MAX_PERMANENT_SIZE = 20
_STEP_BYTES = 4 * 2**20     # complex temporaries of one table kernel step
_LIST_STEP_BYTES = 2**20    # row sums and product buffers of one per-list step

SPDC_BRANCHES = ("1111", "2002", "0220")


@dataclass(frozen=True)
class FockPattern:
    """Occupation-number vector for m modes."""

    occupations: tuple

    def __post_init__(self):
        object.__setattr__(self, "occupations", tuple(
            int(check_whole(o, "occupation", 0)) for o in self.occupations))

    @classmethod
    def from_modes(cls, modes, m) -> "FockPattern":
        modes = check_modes(modes, check_whole(m, "m", 1), "modes")
        return cls(tuple(np.bincount(modes, minlength=m).tolist()))

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

    alpha: float
    beta: float
    gamma: float
    normalized: tuple


class SampleEvent(NamedTuple):
    """One row of an :class:`EventStream`: a detected multi-photon outcome,
    numbered by its position in the stream."""

    index: int
    branch: str
    input_modes: tuple
    output: tuple
    distinguishable: bool


@dataclass(frozen=True, eq=False)
class EventStream:
    """K detected events of one photon number n and one statistics, as columns.

    ``branch`` (K,) codes each event into the branch table: ``branches`` (B
    labels) and ``input_modes`` (B, n), the source's input modes in each
    branch. ``outputs`` (K, n) holds each event's output modes, and the one
    ``distinguishable`` flag the statistics that drew every event. An event
    is numbered by its position. Every column is checked once, here, by
    :func:`errors.check_column`, the flag must be a boolean, and events and
    input rows must carry the same n; anything else raises
    :class:`ConfigurationError`. A scoring U checks the modes against its
    m. ``len`` counts the events, iterating yields one :class:`SampleEvent`
    per event, and a slice or index array selects a sub-stream.
    """

    branch: np.ndarray
    outputs: np.ndarray
    branches: tuple
    input_modes: np.ndarray
    distinguishable: bool

    def __post_init__(self):
        if not isinstance(self.distinguishable, (bool, np.bool_)):
            raise ConfigurationError(f"the distinguishable flag must be a boolean, "
                                     f"got {self.distinguishable!r}")
        branches = tuple(self.branches)
        inputs = check_column(self.input_modes, "input modes", ("B", "n"), lo=0)
        columns = {"branches": branches, "input_modes": inputs,
                   "branch": check_column(self.branch, "branch codes", ("K",), lo=0),
                   "outputs": check_column(self.outputs, "output modes", ("K", "n"), lo=0),
                   "distinguishable": bool(self.distinguishable)}
        for name, value in columns.items():
            object.__setattr__(self, name, value)
        if len(self.branch) != len(self.outputs):
            raise ConfigurationError(f"event columns of unequal lengths: "
                                     f"{len(self.branch)} branch codes and "
                                     f"{len(self.outputs)} outputs")
        if len(inputs) != len(branches):
            raise ConfigurationError(f"{len(branches)} branches need as many input rows, "
                                     f"got {len(inputs)}")
        if len(self) and self.branch.max() >= len(branches):
            raise ConfigurationError(f"branch codes must index the {len(branches)} "
                                     f"branches, got {self.branch.max()}")
        if inputs.shape[1] != self.n:
            raise ConfigurationError(
                f"a stream holds one photon number: events of {self.n} photons, "
                f"input modes of {inputs.shape[1]}")

    @property
    def n(self) -> int:
        return self.outputs.shape[1]

    def __len__(self) -> int:
        return len(self.branch)

    def __iter__(self):
        inputs = list(map(tuple, self.input_modes.tolist()))
        for i, (b, out) in enumerate(zip(self.branch.tolist(),
                                         map(tuple, self.outputs.tolist()))):
            yield SampleEvent(i, self.branches[b], inputs[b], out, self.distinguishable)

    def __getitem__(self, rows) -> "EventStream":
        return EventStream(self.branch[rows], self.outputs[rows], self.branches,
                           self.input_modes, self.distinguishable)


def spdc_weights(r: float) -> SourceWeights:
    """Weights (alpha, beta, gamma) = (R, R^2, 1) of the SPDC branch mixture
    for a finite pair-rate ratio R >= 0."""
    if not (is_finite(r) and r >= 0):
        raise ConfigurationError(f"pair-rate ratio R = {r!r} must be a finite number >= 0")
    alpha, beta, gamma = r, r * r, 1.0
    total = alpha + beta + gamma
    return SourceWeights(alpha, beta, gamma, (alpha / total, beta / total, gamma / total))


def spdc_branch_pattern(branch: str, input_modes, m: int) -> FockPattern:
    """Input Fock pattern of an SPDC branch on the designated waveguides.

    ``input_modes`` maps the four source modes, in the occupation order
    (n4, n1, n2, n3), to four distinct waveguide indices.
    """
    input_modes = check_modes(input_modes, m, "SPDC input modes", distinct=True)
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

    The cost is O(2^n n); matrices up to 20 x 20 are supported.
    """
    a = check_square(a, "permanent argument")
    if a.shape[0] < 1:
        raise ConfigurationError("permanent needs at least a 1 x 1 matrix")
    return complex(_permanent_batch(a[None])[0])


def _signs(n: int, count: int):
    """Glynn's first ``count`` sign vectors of length n, as floats
    (count, n), and their products: delta_0 = +1, and delta_j = -1 where
    bit j-1 of the vector's number is set."""
    bits = (np.arange(count)[:, None] >> np.arange(n - 1)) & 1
    delta = np.ones((count, n))
    delta[:, 1:] -= 2 * bits
    return delta, delta.prod(axis=1)


def _sign_step(budget: int, n: int) -> int:
    """The sign vectors of one step: the largest power of two <= ``budget``
    (at least 1), at most all 2^(n-1)."""
    return 1 << min(n - 1, max(1, budget).bit_length() - 1)


def _row_sums(taken, step: int):
    """Glynn's signed row sums of an (..., m, n) stack, ``step`` sign
    vectors at a time (a power of two <= 2^(n-1)): yields (sums, parity),
    sums[..., r, s] = sum_j delta_j taken[..., r, j] over the block's sign
    vectors delta and parity their products.

    A block's vectors share their signs beyond the first log2(step) + 1, so
    its sums are the sums over those first columns, formed once, plus one
    vector of the block.
    """
    n = taken.shape[-1]
    low = step.bit_length()                 # the columns a block varies, 0 fixed at +1
    delta, parity = _signs(low, step)
    sums = taken[..., :low] @ delta.T                               # (..., m, step)
    high, high_parity = _signs(n - low + 1, 1 << (n - low))
    for signs, sign in zip(high[:, 1:], high_parity):
        yield sums + (taken[..., low:] @ signs)[..., None], parity * sign


def _check_size(n: int) -> int:
    if n > MAX_PERMANENT_SIZE:
        raise CapacityError(f"permanent limited to n <= {MAX_PERMANENT_SIZE}, got {n}")
    return n


def _permanents(us, rows, cols) -> np.ndarray:
    """(E, P) permanents of ``us[e][rows[p]][:, cols]`` for an (E, m, k)
    stack ``us`` and (P, n) output mode lists ``rows``, by Glynn's formula
    over rows, Per A = Per A^T = 2^(1-n) sum_delta (prod_j delta_j)
    prod_i sum_j delta_j A_ij.

    The signed row sums R[e, delta, r] = sum_j delta_j us[e, r, cols[j]]
    (:func:`_row_sums`) are formed once per unitary, shared by all its
    lists; a list's permanent multiplies its n gathered rows of R. Each
    step takes one block of Eb unitaries x S signs and one of Pb lists. It
    holds two (m, Eb, S) arrays of row sums, the block's and its first
    columns' own, and two (Pb, Eb, S) product buffers that every step
    reuses, at the result's itemsize: together within ``_LIST_STEP_BYTES``
    (1 MB, in a core's L2 cache), with room for Pb >= min(P, m), unless one
    sign of one unitary alone outgrows it. The callers check the rows
    against m.
    """
    n = _check_size(len(cols))
    taken = np.asarray(us)[:, :, cols].transpose(1, 0, 2)           # (m, E, n)
    rows = np.asarray(rows)
    m, n_us = taken.shape[:2]
    out = np.zeros((n_us, len(rows)), dtype=np.result_type(taken, float))
    entries = _LIST_STEP_BYTES // out.itemsize
    share = 2 * (m + min(len(rows), m))     # entries per unitary and sign
    s_step = _sign_step(entries // share, n)
    e_step = max(1, min(n_us, entries // (share * s_step)))
    p_step = max(1, min(len(rows), entries // (2 * e_step * s_step) - m))
    prod, factor = (np.empty((p_step, e_step, s_step), dtype=out.dtype) for _ in range(2))
    for e0 in range(0, n_us, e_step):
        for sums, parity in _row_sums(taken[:, e0:e0 + e_step], s_step):  # (m, Eb, Sc)
            for p0 in range(0, len(rows), p_step):
                block = rows[p0:p0 + p_step]
                held = prod[:len(block), :sums.shape[1]]
                np.take(sums, block[:, 0], axis=0, out=held, mode="clip")
                for i in range(1, n):
                    gathered = factor[:len(block), :sums.shape[1]]
                    np.take(sums, block[:, i], axis=0, out=gathered, mode="clip")
                    held *= gathered
                out[e0:e0 + e_step, p0:p0 + p_step] += (held @ parity).T
    out /= 1 << (n - 1)
    return out


def _levels(n: int, size: int, collision_free: bool):
    """The recurrence of the lexicographic tables of sorted j-lists over
    ``size`` positions, j = 1..n, each level holding only the lists that
    some n-list ends with: collision-free, those led by a position >= n - j.

    Returns the first position that level 1 holds and, for each further
    level, (tails, counts, starts): its lists led by position p are p
    followed by the ``counts[p]`` lists of the level before from
    ``tails[p]`` on, to its end, and sit at ``starts[p]:starts[p + 1]``.
    """
    first = min(n - 1, size) if collision_free else 0
    starts = np.maximum(np.arange(size + 1) - first, 0)
    after = 1 if collision_free else 0
    levels = []
    for j in range(1, n):
        tails = starts[after:size + after]
        counts = starts[-1] - tails
        if collision_free:
            counts[:n - j - 1] = 0
        starts = np.zeros(size + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        levels.append((tails, counts, starts))
    return first, levels


def _table_permanents(a, cols, collision_free: bool) -> np.ndarray:
    """(K,) permanents of ``a[rows][:, cols]`` for the K sorted n-lists
    ``rows`` of positions of the output rows ``a``, n = len(cols), in the
    order :func:`_mode_lists` enumerates them.

    Glynn's formula over rows as in :func:`_permanents`, with the row
    products shared: the (j+1)-lists led by position p are p followed by
    one contiguous block of j-lists (:func:`_levels`), so their products
    are R[p] times that block's, one broadcast multiply, and the last level
    is one matrix-vector product per block against R[p] times the sign
    products. Each step is bounded as the module docstring states.
    """
    n = _check_size(len(cols))
    taken = np.asarray(a)[:, cols]                                  # (size, n)
    size = len(taken)
    first, levels = _levels(n, size, collision_free)
    lengths = [size - first] + [int(starts[-1]) for _, _, starts in levels]
    one_sign = 16 * (size + sum(lengths[:-1]))      # row sums and level products
    s_step = _sign_step(_STEP_BYTES // one_sign, n)
    out = np.zeros(lengths[-1], dtype=np.result_type(taken, float))
    largest = max(lengths[:-1], default=0) * out.itemsize
    log.debug("%d patterns of %d photons over %d outputs: lists per level %s, "
              "%d sign blocks of %d signs, largest level held %d bytes, "
              "each step at most %d bytes", lengths[-1], n, size, lengths,
              (1 << (n - 1)) // s_step, s_step, largest * s_step,
              max(_STEP_BYTES, one_sign) + largest)
    for sums, parity in _row_sums(taken, s_step):                  # (size, Sc)
        prods = sums[first:].T
        for tails, counts, starts in levels[:-1]:
            longer = np.empty((s_step, starts[-1]), dtype=out.dtype)
            for p in np.flatnonzero(counts):
                np.multiply(prods[:, tails[p]:], sums[p, :, None],
                            out=longer[:, starts[p]:starts[p + 1]])
            prods = longer
        if not levels:
            out += parity @ prods
            continue
        tails, counts, starts = levels[-1]
        signed = sums * parity
        for p in np.flatnonzero(counts):
            out[starts[p]:starts[p + 1]] += signed[p] @ prods[:, tails[p]:]
    out /= 1 << (n - 1)
    return out


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
    u = check_square(u, "U")
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
    permanents = functools.partial(_permanents, rows=[output_pattern.modes()],
                                   cols=input_pattern.modes())
    return float(_probabilities(permanents, u[None], statistics,
                                _occupation_factorial(output_pattern),
                                _occupation_factorial(input_pattern))[0, 0])


def _probabilities(permanents, us, statistics: str, s_facts, t_fact) -> np.ndarray:
    """Probabilities from the ``permanents`` of the amplitudes ``us`` for
    indistinguishable photons, or of |us|^2 for distinguishable ones."""
    if statistics == "indistinguishable":
        return np.abs(permanents(us)) ** 2 / (s_facts * t_fact)
    if statistics == "distinguishable":
        return permanents(np.abs(us) ** 2).real / s_facts
    raise ConfigurationError(f"unknown statistics {statistics!r}")


def _mode_lists(n: int, outputs, collision_free: bool) -> np.ndarray:
    """(K, n) sorted mode index lists over the sorted ``outputs``, in
    lexicographic order.

    K is counted before anything is enumerated, and a table whose own
    arrays would exceed ``MAX_TABLE_BYTES`` at their peak raises
    :class:`CapacityError`: per pattern its n modes, its complex
    permanents and its probabilities and, with collisions, the output
    factorials and their product with the input's. The kernel's step,
    ``_STEP_BYTES``, comes on top. The lists are built level by level, by
    the recurrence :func:`_levels` that :func:`_table_permanents` follows:
    the (j+1)-lists led by a mode are that mode followed by a tail of the
    j-list table, one slice copy each. The table is built as its (n, K)
    transpose, whose rows a level fills in place, and returned as a view of
    it.
    """
    k = math.comb(len(outputs) + (0 if collision_free else n - 1), n)
    check_table_bytes(k * (8 * n + (24 if collision_free else 32)),
                      f"{k} output patterns of {n} photons")
    outs = np.asarray(outputs, dtype=np.intp)
    first, levels = _levels(n, len(outs), collision_free)
    lists = outs[None, first:]
    for tails, counts, starts in levels:
        longer = np.empty((len(lists) + 1, starts[-1]), dtype=np.intp)
        for p in np.flatnonzero(counts):
            block = longer[:, starts[p]:starts[p + 1]]
            block[0] = outs[p]
            block[1:] = lists[:, tails[p]:]
        lists = longer
    return lists.T


def _output_factorials(lists) -> np.ndarray:
    """(K,) products prod_i s_i! of the occupations of (K, n) sorted mode
    lists: the running product of each list's equal-run lengths, one
    column at a time, in int64 (exact up to n = 20)."""
    facts = np.ones(len(lists), dtype=np.int64)
    run = np.ones(len(lists), dtype=np.int64)
    for j in range(1, lists.shape[1]):
        run *= lists[:, j] == lists[:, j - 1]
        run += 1
        facts *= run
    return facts


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

    def pattern(self, k: int) -> FockPattern:
        return FockPattern.from_modes(self.mode_lists[k], self.m)


def _tables(u, patterns, statistics: str, collision_free: bool, outputs) -> list:
    """The tables of input ``patterns`` of one photon number on the
    checked unitary ``u``, as :func:`distribution` builds each, over one
    enumeration of the output mode lists, which the tables share."""
    n = patterns[0].n
    if n == 0:
        raise ConfigurationError("input pattern carries no photons")
    modes = tuple(range(len(u))) if outputs is None else tuple(
        sorted(check_modes(outputs, len(u), "outputs", distinct=True).tolist()))
    if not modes or (collision_free and n > len(modes)):
        raise ConfigurationError(
            f"{n} photons do not fit collision-free into {len(modes)} outputs")
    lists = _mode_lists(n, modes, collision_free)
    s_facts = 1 if collision_free else _output_factorials(lists)
    rows = u[list(modes)]
    tables = []
    for pattern in patterns:
        permanents = functools.partial(_table_permanents, cols=pattern.modes(),
                                       collision_free=collision_free)
        probs = _probabilities(permanents, rows, statistics, s_facts,
                               _occupation_factorial(pattern))
        np.maximum(probs, 0.0, out=probs)
        tables.append(ProbabilityTable(len(u), n, pattern, statistics, collision_free,
                                       modes, lists, probs, float(probs.sum())))
    return tables


def distribution(u, input_pattern: FockPattern, statistics: str = "indistinguishable",
                 collision_free: bool = True, outputs=None) -> ProbabilityTable:
    """Exact probability table over enumerated output patterns.

    With collisions included the table sums to one; collision-free tables
    carry their raw probabilities plus the total enumerated mass. A U that
    is not unitary to ``MAX_UNITARITY_DEFECT`` (1e-9), or not finite, raises
    :class:`ConfigurationError`.
    """
    return _tables(_checked_unitary(u, input_pattern), (input_pattern,), statistics,
                   collision_free, outputs)[0]


def _invert(probs, uniforms) -> np.ndarray:
    """Indices drawn by inverting the CDF of ``probs`` at ``uniforms``."""
    probs = np.asarray(probs, dtype=float)
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        raise NumericalError(f"cannot sample a table of total mass {total}")
    cdf = np.cumsum(probs / total)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, uniforms, side="right")


def check_event_count(count, n: int) -> None:
    """Raise :class:`ConfigurationError` for a ``count`` that is no whole
    number >= 0, and :class:`CapacityError` when ``count`` events of n
    photons would exceed ``MAX_TABLE_BYTES``: a draw holds 40 + 8 n bytes
    per event at its peak, its stream's columns and the uniforms and rows
    drawn (tracemalloc measured 32 for :func:`sample` at n = 3 and 64 for
    :func:`spdc_sample` at n = 4, whose peak comes before the stream is
    built)."""
    check_whole(count, "count", 0)
    check_table_bytes(count * (40 + 8 * n), f"{count} events of {n} photons")


def sample(table: ProbabilityTable, rng_seed, count: int) -> EventStream:
    """Draw ``count`` i.i.d. outcomes from a table by exact inversion.

    Deterministic per seed, a whole number >= 0. Collision-free tables are
    sampled conditionally on their enumerated support. A table whose mass
    is zero or not finite raises :class:`NumericalError`; ``count`` is
    checked by :func:`check_event_count`. The stream's one branch,
    labelled "fock", is the table's input.
    """
    check_event_count(count, table.n)
    rng = np.random.default_rng([check_whole(rng_seed, "rng_seed", 0), 1])
    outputs = table.mode_lists[_invert(table.probs, rng.random(count))]
    return EventStream(np.zeros(count, dtype=np.intp), outputs, ("fock",),
                       np.array([table.input.modes()], dtype=np.intp),
                       table.statistics == "distinguishable")


def spdc_branch_tables(u, input_modes, statistics: str = "indistinguishable",
                       outputs=None):
    """Collision-free output tables of the three SPDC branches, as
    :func:`distribution` builds each; they share one check of U and one
    array of mode lists."""
    u = _checked_unitary(u)
    patterns = [spdc_branch_pattern(branch, input_modes, len(u)) for branch in SPDC_BRANCHES]
    return dict(zip(SPDC_BRANCHES, _tables(u, patterns, statistics, True, outputs)))


def spdc_sample(u, weights: SourceWeights, statistics: str, rng_seed, count: int,
                input_modes, outputs=None) -> EventStream:
    """Sample the SPDC mixture: draw a branch, then that branch's output.

    The output stream consumes its own named substream of ``rng_seed``, so
    a degenerate weight vector reproduces plain :func:`sample` of the
    corresponding branch bit for bit. ``count`` and ``rng_seed`` are
    checked as in :func:`sample`, before any table is built.
    """
    check_event_count(count, 4)
    check_whole(rng_seed, "rng_seed", 0)
    tables = spdc_branch_tables(u, input_modes, statistics, outputs)
    rng_branch = np.random.default_rng([rng_seed, 0])
    rng_out = np.random.default_rng([rng_seed, 1])
    branch = _invert(weights.normalized, rng_branch.random(count))
    uniforms = rng_out.random(count)
    # each branch's outputs land in its events' rows, so the stream is in draw order
    outputs = np.empty((count, 4), dtype=np.intp)
    for code, label in enumerate(SPDC_BRANCHES):
        drawn = np.flatnonzero(branch == code)
        if len(drawn):
            table = tables[label]
            outputs[drawn] = table.mode_lists[_invert(table.probs, uniforms[drawn])]
    return EventStream(branch, outputs, SPDC_BRANCHES,
                       np.array([tables[label].input.modes() for label in SPDC_BRANCHES]),
                       statistics == "distinguishable")


def spdc_mixture_table(u, weights: SourceWeights, input_modes,
                       statistics: str = "indistinguishable", outputs=None) -> ProbabilityTable:
    """Branch-weighted mixture distribution over collision-free outputs.

    The table sums the raw collision-free tables, sum_b w_b p_b, so branch
    b's share of it is w_b M_b / sum_b' w_b' M_b', where M_b is that
    branch's collision-free mass. That is not the law :func:`spdc_sample`
    draws, which gives branch b the share w_b: on the default chip (config
    seed 12345, R = 1) the masses are 0.687, 0.697 and 0.732, and the two
    normalized laws lie 0.0075 apart in total variation.
    """
    tables = spdc_branch_tables(u, input_modes, statistics, outputs)
    w = dict(zip(SPDC_BRANCHES, weights.normalized))
    ref = tables["1111"]
    probs = sum(w[b] * tables[b].probs for b in SPDC_BRANCHES)
    return ProbabilityTable(ref.m, ref.n, ref.input, statistics, True,
                            ref.outputs, ref.mode_lists, probs,
                            float(probs.sum()))
