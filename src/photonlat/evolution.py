"""Coupled-mode propagation to the circuit unitary.

The mode amplitudes obey da/dz = i H(z) a with H(z) Hermitian: diagonal
entries are the propagation-constant detunings, off-diagonal entries the
distance-dependent couplings. The circuit unitary is the z-ordered product
of slice exponentials over [0, L].

Integration is split at every z where H is not smooth (modulation knots,
heater window edges). Within a smooth segment there is one integrator, the
fourth-order commutator-free Magnus scheme CF4 of Blanes & Moan (2006):
two slice exponentials per step, each a weighted sum of H at the two
Gauss-Legendre nodes. Its convergence check is the step-halving test of
acceptance criterion 2 (512 against 1024 steps).

Every slice exponential acts on the carried columns as a truncated Taylor
series, exp(i H dz) x = sum_{j<=p} (i H dz)^j x / j!, after Al-Mohy &
Higham, "Computing the action of the matrix exponential" (2011). With
theta = ||H dz||_1, a slice is split into s = ceil(theta) equal substeps,
and p is the least order with (theta/s)^p / p! <= 1e-16: p is 8 or 9
on the default chip at 1024 steps (theta at most 0.06, no substeps). The
series is not unitary by construction, so callers check the result
against ``MAX_UNITARITY_DEFECT`` (1e-9); the measured defect is 2e-14 to
3e-14 there. The cost grows with theta, so a slice that would need more
than ``MAX_SUBSTEPS`` (100) substeps raises ``CapacityError``: on the
default chip at 1024 steps, heater powers above about 1e6 mW, 2000 times
the calibrated 500 mW. So does a step plan whose G and K slices exceed
``errors.MAX_TABLE_BYTES``: about 10,900 steps on the default chip.

Every slice Hamiltonian is H = G + diag(K @ P): G holds the couplings, K
the detuning per unit heater power and P the heater powers. One private
integrator builds G dz, K and the step plan once per chip, and multiplies
each run of slices without an active heater window into one matrix, since
those slices do not depend on P. It then propagates a list of (setting,
column) pairs under a stack of power settings in one pass over the heated
slices, carrying exactly those J columns as one (m, J) array, with H never
formed as a stack: :func:`propagate` is the case of one setting with all
m columns, and heater-setting ensembles
(``haarstats.device_submatrix_ensemble``) carry only the input columns
each setting is read for. Every pass pays the fixed cost of each heated
slice once, so columns are never split over several passes.

The build is charged first, before any array grows with the step count.
It reads the layout's coupled pairs once, since G is zero off them (73
pairs, 146 of its 1,024 entries on the default chip), and then walks the
CF4 steps a block at a time: each block's node couplings of those pairs,
their CF4 sums and its heater kernels are formed once and held to
``_BLOCK_BYTES``. A step's two slices are heated when a heater window
covers one of its nodes. Their G dz is scattered from the pair couplings
into a zero-filled array allocated at its final size before the first
block, and their column norms and K are written into two more such
arrays. A column norm adds |G| over the column's partners in ascending
row order, the order of a dense sum over rows, so every entry is the one
dense arithmetic gives, to the bit. What the pass reads is kept and
nothing else. The fixed slices' G dz go to one more such array, which
only the run products read and which is freed with the build. Every
fixed slice is planned before any run product is built, so a fixed slice
beyond ``MAX_SUBSTEPS`` raises first. The build's peak is at most its
charge plus one block: traced on the default chip, 13.2, 23.1 and 88.5
MiB at 512, 1024 and 4096 steps, against charges of 12.1, 24.0 and 95.9
MiB.

Before any column moves, every heated slice is planned: the detunings of
a block of slices under all settings in use come from one product, and
theta, s and p of the whole block follow in one vectorised step, so a
slice beyond ``MAX_SUBSTEPS`` raises first. Each block's detunings are
held to ``_BLOCK_BYTES`` (4 MB), so memory stays flat however many
settings or columns a pass carries. Each Taylor term is one real product
of G with the float view of the columns plus four elementwise ufunc calls
into preallocated buffers. At m = 32 each call takes 0.5 to 2 us, so the
pass is bound by the cost per call; the unheated run products are built
by the same kernel. The integrator logs, at DEBUG level on the
``photonlat.evolution`` logger, for each build the heated and fixed slice
counts, the runs, the bytes kept and the largest block held (its node
heater kernels and its node and slice pair couplings: 763,808 bytes for
85 steps on the default chip at 1024 steps), and for each pass the
columns carried and settings used, the slice counts, the largest theta,
the range of p, the substeps, the real G products of the pass (one per
Taylor term of a heated slice) and the column-norm defect.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, check_square, check_table_bytes, check_whole
from .lattice import CouplingModel, HeaterBank, WaveguideLayout, coupling_coefficient

log = logging.getLogger(__name__)

MAX_UNITARITY_DEFECT = 1e-9   # largest defect accepted of a circuit unitary
MAX_SUBSTEPS = 100            # Taylor substeps allowed in one slice

# CF4: the Gauss-Legendre nodes as fractions of a step, and for each of the
# two slice exponentials of a step, in the order they act, its weights on
# the Hamiltonians at those nodes.
_R3 = math.sqrt(3.0) / 6.0
_CF4_NODES = np.array([0.5 - _R3, 0.5 + _R3])
_CF4_WEIGHTS = np.array([[0.25 + _R3, 0.25 - _R3], [0.25 - _R3, 0.25 + _R3]])


@dataclass(frozen=True)
class UnitaryMatrix:
    """An m x m unitary with its measured unitarity defect."""

    m: int
    entries: np.ndarray
    unitarity_defect: float


def unitarity_defect(u) -> float:
    """max |(U^dag U - I)_ij| for a square matrix."""
    u = check_square(u, "U")
    gram = u.conj().T @ u
    return float(np.abs(gram - np.eye(u.shape[0])).max())


def _segment_edges(layout: WaveguideLayout, bank: HeaterBank):
    edges = np.concatenate([layout.knot_z, bank.z_breakpoints(), [0.0, layout.length]])
    edges = np.unique(edges)
    return edges[(edges >= 0.0) & (edges <= layout.length)]


def _coupling_stack(layout, model, pairs, z_values) -> np.ndarray:
    """Power-independent part G of H at each z, as the real (nz, n_pairs)
    couplings at the instantaneous distances of ``pairs``, the (i, j) of
    ``layout.coupled_pairs(model)``: G_ij = G_ji is the coupling of pair
    (i, j), and every other entry of G is 0."""
    i_idx, j_idx = pairs
    pos = layout.positions_at(np.asarray(z_values, dtype=float))   # (nz, m, 2)
    d = np.hypot(pos[:, i_idx, 0] - pos[:, j_idx, 0],
                 pos[:, i_idx, 1] - pos[:, j_idx, 1])
    return coupling_coefficient(d, model)


def _partner_levels(pairs):
    """For k = 0, 1, ...: the columns of G with a k-th coupled partner, in
    ascending row order, and the pair coupling each to it. Adding |G|
    level by level sums each column in the order of a dense sum over rows,
    so the sums are the same to the bit."""
    i_idx, j_idx = pairs
    rows, cols = np.r_[i_idx, j_idx], np.r_[j_idx, i_idx]
    pair = np.tile(np.arange(len(i_idx)), 2)
    order = np.lexsort((rows, cols))
    cols, pair = cols[order], pair[order]
    rank = np.arange(len(cols)) - np.searchsorted(cols, cols)
    return [(cols[rank == k], pair[rank == k]) for k in range(rank.max(initial=-1) + 1)]


# t_p = (1e-16 p!)^(1/p) for p = 1, 2, ...: the largest theta with
# theta^p / p! <= 1e-16, increasing in p (t_19 > 1)
_ORDER_BOUNDS = np.array([(1e-16 * math.factorial(p)) ** (1.0 / p) for p in range(1, 31)])

# what one block holds at once: in the build, a block of steps' node
# heater kernels and node and slice couplings (sized as dense G); in a
# pass, the detunings of a block of heated slices and their copy for the
# float view
_BLOCK_BYTES = 4 * 2**20


def _substep_error(theta, cause) -> CapacityError:
    return CapacityError(f"a slice with ||H dz||_1 = {theta:.3g} needs {math.ceil(theta)} "
                         f"Taylor substeps, more than {MAX_SUBSTEPS}: {cause}")


def _orders(theta):
    """Substeps s = max(1, ceil(theta)) and Taylor orders p, the least with
    (theta/s)^p / p! <= 1e-16, of slices with norms ``theta``. More than
    ``MAX_SUBSTEPS`` substeps in any slice raise ``CapacityError``."""
    worst = theta.max(initial=0.0)
    if worst > MAX_SUBSTEPS:
        raise _substep_error(worst, "use more steps")
    s = np.maximum(1.0, np.ceil(theta))
    return s.astype(int), np.searchsorted(_ORDER_BOUNDS, theta / s) + 1


def _taylor(gdz, dh, s, p, x, term, y):
    """x <- exp(i (G + diag d) dz) x in place, by s substeps of the order-p
    Taylor series.

    ``gdz`` is the real (m, m) G dz and ``dh`` the real (m, 2 J) detunings
    d h of each carried column, each entry twice to match the float view of
    the columns (None where no heater is on), with h = dz / s.
    ``x``, ``term`` and ``y`` are complex (m, J) buffers; G is real, so its
    product runs as one real matrix product on their float views. A term
    costs that product and four elementwise ufunc calls into the buffers,
    each with its output given positionally; the first term of a substep
    reads x itself, so no call copies x. The product is ``ndarray.dot``,
    the same dgemm as ``np.matmul`` on these C-contiguous 2-D float64
    arrays with less cost per call where the columns are few: on a 2-core
    Xeon, 1.9 against 2.7 us at 40 float columns, but 21.6 against 19.0 us
    at 490.
    """
    gh = gdz if s == 1 else gdz / s
    product, multiply, add = gh.dot, np.multiply, np.add
    xf, tf, yf = x.view(float), term.view(float), y.view(float)
    for _ in range(s):
        last = xf                       # the previous term: x itself at first
        for j in range(1, p + 1):
            product(last, yf)
            if dh is not None:
                multiply(last, dh, tf)
                add(yf, tf, yf)
            multiply(y, 1j / j, term)
            add(xf, tf, xf)
            last = tf


class _Propagator:
    """What propagating one chip costs whatever the heater powers are.

    Holds the step plan and, for every heated slice in z order, G dz, the
    column sums of |G|, K and dz, plus the product of each run of unheated
    slices (K = 0 there, so those exponentials are the same for every
    power vector), built by the same Taylor kernel applied to the identity.
    :meth:`columns` propagates (setting, column) pairs in one pass.
    """

    def __init__(self, layout: WaveguideLayout, model: CouplingModel,
                 bank: HeaterBank, n_steps: int):
        check_whole(n_steps, "n_steps", 1)
        if bank.positions.ndim != 2 or bank.positions.shape[1] != 2:
            raise ConfigurationError("heater bank positions must be (n, 2)")
        if bank.z_spans.size and (bank.z_spans.min() < -1e-9 or
                                  bank.z_spans.max() > layout.length + 1e-9):
            raise ConfigurationError(
                "heater bank z-spans extend beyond the coupling region; the bank "
                "was built for a different layout")
        edges = _segment_edges(layout, bank)
        seg_len = np.diff(edges)
        seg_steps = np.maximum(1, np.rint(n_steps * seg_len / layout.length).astype(int))
        steps = int(seg_steps.sum())
        m, n_heaters = layout.m, len(bank.powers)
        # G (m, m) and K (m, n_heaters) of the two slices of every step
        check_table_bytes(16 * steps * m * (m + n_heaters),
                          f"the G and K slices of {steps} CF4 steps")
        seg_dz = seg_len / seg_steps
        starts = np.concatenate([z0 + dz * np.arange(ns)
                                 for z0, dz, ns in zip(edges[:-1], seg_dz, seg_steps)])
        step_dz = np.repeat(seg_dz, seg_steps)
        z = starts[:, None] + step_dz[:, None] * _CF4_NODES      # (steps, 2)
        # both slices of a step are heated when a heater window covers one of
        # its nodes, since each weighs the Hamiltonians at both
        hot_steps = bank.active(z.ravel()).reshape(steps, -1).any(axis=1)
        heated, dz = np.repeat(hot_steps, 2), np.repeat(step_dz, 2)
        hot = np.r_[0, np.cumsum(heated)]      # heated slices before each one
        # what the pass reads, at its final size before any block is formed:
        # G dz (zero off the coupled pairs), the column sums of |G|, K and dz
        # of every heated slice
        self.gdz = np.zeros((hot[-1], m, m))
        self.gnorm = np.empty((hot[-1], m))
        self.kern = np.empty((hot[-1], m, n_heaters))
        self.dz = dz[heated]
        # G dz and theta of every fixed slice, read once for the run products
        fixed_gdz = np.zeros((len(heated) - hot[-1], m, m))
        fixed_theta = np.empty(len(fixed_gdz))
        pairs = layout.coupled_pairs(model)
        n_pairs, levels = len(pairs[0]), _partner_levels(pairs)
        # slice exponentials a block of steps at a time, each a weighted sum
        # of node Hamiltonians. A block is sized as if it held dense node and
        # slice G besides its node K; it holds only their pair couplings.
        size = max(1, _BLOCK_BYTES // (32 * m * (m + n_heaters)))
        held = 0
        for a in range(0, steps, size):
            b = min(a + size, steps)
            i, j = 2 * a, 2 * b                 # the block's slices
            on, block_dz = heated[i:j], dz[i:j]
            hot_part, fixed_part = slice(hot[i], hot[j]), slice(i - hot[i], j - hot[j])
            nodes = _coupling_stack(layout, model, pairs, z[a:b].ravel())
            c = np.einsum("en,snp->sep", _CF4_WEIGHTS, nodes.reshape(b - a, 2, n_pairs))
            c = c.reshape(j - i, n_pairs)
            gnorm, mag = np.zeros((len(c), m)), np.abs(c)
            for cols, pair in levels:
                gnorm[:, cols] += mag[:, pair]
            self.gnorm[hot_part] = gnorm[on]
            fixed_theta[fixed_part] = block_dz[~on] * gnorm[~on].max(axis=1)
            c *= block_dz[:, None]
            hot_c, fixed_c = c[on], c[~on]
            for rows, cols in (pairs, pairs[::-1]):
                self.gdz[hot_part, rows, cols] = hot_c
                fixed_gdz[fixed_part, rows, cols] = fixed_c
            nodes = bank.kernels(layout, z[a:b][hot_steps[a:b]].ravel())
            np.einsum("en,snij->seij", _CF4_WEIGHTS, nodes.reshape(-1, 2, m, n_heaters),
                      out=self.kern[hot_part].reshape(-1, 2, m, n_heaters))
            held = max(held, 2 * c.nbytes + nodes.nbytes)
            del c, nodes        # before the next block is formed
        # every fixed slice is planned before any run product is built
        self.fixed_plan = (fixed_theta, *_orders(fixed_theta))
        orders = zip(*(a.tolist() for a in self.fixed_plan[1:]))   # (s, p) in z order
        cuts = np.r_[0, np.flatnonzero(np.diff(heated)) + 1, len(heated)]
        x, term, y = (np.empty((m, m), dtype=complex) for _ in range(3))
        self.runs = []          # slice of the heated stack, or a fixed product
        for a, b in zip(cuts[:-1], cuts[1:]):
            if heated[a]:
                self.runs.append(slice(hot[a], hot[b]))
                continue
            x[:] = np.eye(m)
            for k in range(a - hot[a], b - hot[b]):
                _taylor(fixed_gdz[k], None, *next(orders), x, term, y)
            self.runs.append(x.copy())
        self.m = m
        self.calibration = bank.alpha_t, bank.kernel_width
        log.debug("chip built from %d CF4 steps: %d heated and %d fixed slices, %d runs, "
                  "%d bytes kept (heated G and K), largest block %d steps holding %d bytes",
                  steps, hot[-1], len(fixed_gdz), len(self.runs),
                  self.gdz.nbytes + self.kern.nbytes, min(size, steps), held)

    def _blocks(self, n_cols):
        """Consecutive slices of the heated stack whose (B, m, n_cols)
        detunings and their (B, m, 2 n_cols) copy fit in ``_BLOCK_BYTES``."""
        size = max(1, _BLOCK_BYTES // (24 * self.m * n_cols))
        return [slice(a, a + size) for a in range(0, len(self.dz), size)]

    def _detunings(self, block, powers):
        """(B, m, S) detunings of a block of heated slices under S settings,
        as one product."""
        kern = self.kern[block]
        return (kern.reshape(-1, kern.shape[-1]) @ powers.T).reshape(len(kern), self.m, -1)

    def plan(self, powers):
        """(theta, s, p) of every heated slice under the settings ``powers``
        (S, n_heaters): theta = ||(G + diag d) dz||_1, maximised over the
        settings, s = max(1, ceil(theta)) substeps and p the least Taylor
        order with (theta/s)^p / p! <= 1e-16. Raises ``CapacityError``
        when a slice needs more than ``MAX_SUBSTEPS`` substeps; when the
        heater detunings are most of that slice's norm, the message names
        the heater calibration, alpha_t and the kernel width, and the
        largest power."""
        theta, heat = np.empty(len(self.dz)), np.empty(len(self.dz))
        for block in self._blocks(len(powers)):
            dmax = np.abs(self._detunings(block, powers)).max(axis=2)
            theta[block] = self.dz[block] * (self.gnorm[block] + dmax).max(axis=1)
            heat[block] = self.dz[block] * dmax.max(axis=1)
        worst = int(np.argmax(theta)) if len(theta) else 0
        if len(theta) and theta[worst] > MAX_SUBSTEPS and 2 * heat[worst] > theta[worst]:
            alpha_t, width = self.calibration
            raise _substep_error(theta[worst], (
                f"{heat[worst]:.3g} of it are heater detunings, from the calibration "
                f"alpha_t = {alpha_t:.3g} mm^-1 per mW of a {width:g} um heater kernel "
                f"at powers up to {powers.max():.3g} mW"))
        return (theta, *_orders(theta))

    def columns(self, powers, pairs) -> np.ndarray:
        """Column c of U under setting ``powers[e]`` for every (e, c) of
        ``pairs``, as one complex (m, J) array in the order of the pairs.

        ``powers`` is the (S, n_heaters) stack; a setting may appear in any
        number of pairs, in any order. Every slice is planned first, so a
        slice beyond ``MAX_SUBSTEPS`` raises before any column moves. Then
        one pass carries all J columns, with the detunings of each column's
        setting formed a block of slices at a time.
        """
        powers = np.asarray(powers, dtype=float)
        setting, column = np.asarray(pairs, dtype=int).reshape(-1, 2).T
        used = np.unique(setting)
        theta, s, p = self.plan(powers[used])
        on = powers[setting]                    # (J, n_heaters)
        h = self.dz / s
        x = np.zeros((self.m, len(column)), dtype=complex)
        x[column, np.arange(len(column))] = 1.0
        term, y = np.empty_like(x), np.empty_like(x)
        s_list, p_list = s.tolist(), p.tolist()

        def heated_detunings():
            for block in self._blocks(len(on)):
                d = self._detunings(block, on)
                d *= h[block, None, None]
                # each entry twice over, for the float view of the columns
                yield from np.repeat(d, 2, axis=2)

        dh = heated_detunings()
        for run in self.runs:
            if isinstance(run, slice):
                for i in range(run.start, run.stop):
                    _taylor(self.gdz[i], next(dh), s_list[i], p_list[i], x, term, y)
            else:
                np.matmul(run, x, out=y)
                x, y = y, x
        if log.isEnabledFor(logging.DEBUG):
            fixed_theta, fixed_s, fixed_p = self.fixed_plan
            all_p = np.r_[p, fixed_p]
            defect = np.abs((np.abs(x) ** 2).sum(axis=0) - 1.0).max()
            log.debug("%d columns carried under %d settings: %d heated and %d fixed "
                      "slices, max theta %.3g, Taylor order p %d..%d, %d substeps, "
                      "%d real G products, column-norm defect %.2e",
                      x.shape[1], len(used), len(s), len(fixed_s),
                      np.r_[theta, fixed_theta].max(), all_p.min(), all_p.max(),
                      s.sum() + fixed_s.sum(), (s * p).sum(), defect)
        return x


def propagate(layout: WaveguideLayout, model: CouplingModel, bank: HeaterBank,
              n_steps: int = 1024) -> UnitaryMatrix:
    """Integrate H(z) over the coupling region into the circuit unitary.

    ``n_steps`` is the total CF4 step budget, distributed over the smooth
    segments proportionally to their length (at least one step each).
    """
    chip = _Propagator(layout, model, bank, n_steps)
    u = chip.columns(bank.powers[None], [(0, c) for c in range(layout.m)])
    return UnitaryMatrix(layout.m, u, unitarity_defect(u))
