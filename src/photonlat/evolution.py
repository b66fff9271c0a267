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
integrator builds G, K and the step plan once per chip, and multiplies
each run of slices without an active heater window into one matrix, since
those slices do not depend on P. A stack of S power settings then costs
one pass over the heated slices that carries every setting's columns as
one (m, S * k) array, with H never formed as a stack: :func:`propagate`
carries all m columns under one setting, and heater-setting ensembles
(``haarstats.device_submatrix_ensemble``) carry only their input columns
under all settings at once. The integrator logs, at DEBUG level on the
``photonlat.evolution`` logger, the slice counts, the largest theta, the
range of p, the substeps and the column-norm defect of every pass.
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


def _coupling_stack(layout, model, z_values) -> np.ndarray:
    """Power-independent part G of H at each z: real (nz, m, m), the
    couplings at the instantaneous pair distances off the diagonal."""
    i_idx, j_idx = layout.coupled_pairs(model)
    pos = layout.positions_at(np.asarray(z_values, dtype=float))   # (nz, m, 2)
    d = np.hypot(pos[:, i_idx, 0] - pos[:, j_idx, 0],
                 pos[:, i_idx, 1] - pos[:, j_idx, 1])
    c = coupling_coefficient(d, model)                            # (nz, npairs)
    g = np.zeros((len(pos), layout.m, layout.m))
    g[:, i_idx, j_idx] = c
    g[:, j_idx, i_idx] = c
    return g


# t_p = (1e-16 p!)^(1/p) for p = 1, 2, ...: the largest theta with
# theta^p / p! <= 1e-16, increasing in p (t_19 > 1)
_ORDER_BOUNDS = np.array([(1e-16 * math.factorial(p)) ** (1.0 / p) for p in range(1, 31)])


def _slice_action(g, gnorm, d, dz, x):
    """exp(i (G + diag d) dz) x by a truncated Taylor series.

    ``g`` is one real (m, m) slice with ``gnorm`` its column sums of |G|,
    ``d`` the real (m, S) detunings of S power settings (None where no
    heater is on), and ``x`` the complex (m, S, k) columns carried under
    each setting. theta = ||(G + diag d) dz||_1 (G has a zero diagonal),
    maximised over the settings, splits the slice into s = ceil(theta)
    equal substeps, and each substep sums the series to the least order p
    with (theta/s)^p / p! <= 1e-16. More than ``MAX_SUBSTEPS`` substeps
    raise ``CapacityError``. G is real, so its products run as real matrix
    products on the float view of the columns.
    Returns the new columns and (theta, p, s).
    """
    radius = gnorm if d is None else gnorm[:, None] + np.abs(d)
    theta = dz * float(radius.max())
    s = max(1, math.ceil(theta))
    if s > MAX_SUBSTEPS:
        raise CapacityError(
            f"a slice with ||H dz||_1 = {theta:.3g} needs {s} Taylor substeps, more "
            f"than {MAX_SUBSTEPS}: use more steps or lower heater powers")
    p = int(np.searchsorted(_ORDER_BOUNDS, theta / s)) + 1
    h = dz / s
    gh = g * h
    dh = None if d is None else (d * h)[:, :, None]
    m, n = x.shape[0], x[0].size
    for _ in range(s):
        term, x = x, x.copy()
        for j in range(1, p + 1):
            y = (gh @ term.reshape(m, n).view(float)).view(complex).reshape(term.shape)
            if dh is not None:
                y += dh * term
            term = y * (1j / j)
            x += term
    return x, (theta, p, s)


class _Propagator:
    """What propagating one chip costs whatever the heater powers are.

    Holds the step plan, G, K and dz of every heated slice in z order, and
    the product of each run of unheated slices (K = 0 there, so those
    exponentials are the same for every power vector), built by the same
    Taylor action applied to the identity. :meth:`columns` propagates
    chosen input columns under a whole stack of power vectors at once.
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
        # G (m, m) and K (m, n_heaters) of the two slices of every step
        check_table_bytes(16 * steps * layout.m * (layout.m + len(bank.powers)),
                          f"the G and K slices of {steps} CF4 steps")
        seg_dz = seg_len / seg_steps
        starts = np.concatenate([z0 + dz * np.arange(ns)
                                 for z0, dz, ns in zip(edges[:-1], seg_dz, seg_steps)])
        dz = np.repeat(seg_dz, seg_steps)
        z = (starts[:, None] + dz[:, None] * _CF4_NODES).ravel()  # (steps * 2,)
        m, shape = layout.m, (len(starts), 2)
        # slice exponentials step by step, each a weighted sum of node
        # Hamiltonians; K first, as its temporaries are the largest
        kern = np.einsum("en,snij->seij", _CF4_WEIGHTS,
                         bank.kernels(layout, z).reshape(shape + (m, -1)))
        g = np.einsum("en,snij->seij", _CF4_WEIGHTS,
                      _coupling_stack(layout, model, z).reshape(shape + (m, m)))
        g = g.reshape(-1, m, m)
        kern = kern.reshape(len(g), m, -1)
        dz = np.repeat(dz, 2)
        gnorm = np.abs(g).sum(axis=1)           # column sums of |G|, (slices, m)
        heated = np.any(kern != 0, axis=(1, 2))
        hot = np.r_[0, np.cumsum(heated)]      # heated slices before each one
        cuts = np.r_[0, np.flatnonzero(np.diff(heated)) + 1, len(heated)]
        self.fixed_orders = []  # (theta, p, s) of every unheated slice
        self.runs = []          # slice of the heated stack, or a fixed product
        for a, b in zip(cuts[:-1], cuts[1:]):
            if heated[a]:
                self.runs.append(slice(hot[a], hot[b]))
                continue
            x = np.eye(m, dtype=complex)[:, None, :]
            for k in range(a, b):
                x, order = _slice_action(g[k], gnorm[k], None, dz[k], x)
                self.fixed_orders.append(order)
            self.runs.append(x[:, 0, :])
        self.g, self.kern = g[heated], kern[heated]
        self.gnorm, self.dz = gnorm[heated], dz[heated]

    def columns(self, powers, x) -> np.ndarray:
        """U x under each row of ``powers`` (S, n_heaters), x of shape (m, k).

        Returns the (S, m, k) stack. The S settings are carried as one
        (m, S * k) array; detunings are formed one slice at a time.
        """
        powers = np.asarray(powers, dtype=float)
        x = np.asarray(x, dtype=complex)
        (m, k), n_set = x.shape, len(powers)
        y = np.repeat(x[:, None, :], n_set, axis=1)
        orders = []
        for run in self.runs:
            if isinstance(run, slice):
                for i in range(run.start, run.stop):
                    y, order = _slice_action(self.g[i], self.gnorm[i],
                                             self.kern[i] @ powers.T, self.dz[i], y)
                    orders.append(order)
            else:
                y = (run @ y.reshape(m, -1)).reshape(y.shape)
        if log.isEnabledFor(logging.DEBUG):
            theta, p, s = np.array(orders + self.fixed_orders).reshape(-1, 3).T
            defect = np.abs((np.abs(y) ** 2).sum(axis=0) -
                            (np.abs(x) ** 2).sum(axis=0)).max()
            log.debug("%d settings x %d columns: %d heated and %d fixed slices, "
                      "max theta %.3g, Taylor order p %d..%d, %d substeps, "
                      "column-norm defect %.2e", n_set, k, len(orders),
                      len(self.fixed_orders), theta.max(),
                      p.min(), p.max(), s.sum(), defect)
        return y.transpose(1, 0, 2)


def propagate(layout: WaveguideLayout, model: CouplingModel, bank: HeaterBank,
              n_steps: int = 1024) -> UnitaryMatrix:
    """Integrate H(z) over the coupling region into the circuit unitary.

    ``n_steps`` is the total CF4 step budget, distributed over the smooth
    segments proportionally to their length (at least one step each).
    """
    chip = _Propagator(layout, model, bank, n_steps)
    u = chip.columns(bank.powers[None], np.eye(layout.m, dtype=complex))[0]
    return UnitaryMatrix(layout.m, u, unitarity_defect(u))
