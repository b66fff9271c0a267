"""Coupled-mode Hamiltonian assembly and propagation to the circuit unitary.

The mode amplitudes obey da/dz = i H(z) a with H(z) Hermitian: diagonal
entries are the propagation-constant detunings, off-diagonal entries the
distance-dependent couplings. The circuit unitary is the z-ordered product
of slice exponentials over [0, L].

Integration is split at every z where H is not smooth (modulation knots,
heater window edges). Within a smooth segment there is one integrator, the
fourth-order commutator-free Magnus scheme CF4 of Blanes & Moan (2006):
two slice exponentials per step, each a weighted sum of H at the two
Gauss-Legendre nodes. Its convergence check is the step-halving test of
acceptance criterion 2 (512 against 1024 steps). Every slice exponential
is built from an eigendecomposition of a real symmetric matrix, so
unitarity holds to roundoff regardless of step size.

Every slice Hamiltonian is H = G + diag(K @ P): G holds the couplings, K
the detuning per unit heater power and P the heater powers. One private
integrator builds G, K and the step plan once per chip, and multiplies
each run of slices without an active heater window into one matrix, since
those slices do not depend on P. Each power setting then costs one batched
``eigh`` over the heated slices, applied straight to the columns it needs:
:func:`propagate` carries all m columns, and heater-setting ensembles
(``haarstats.device_submatrix_ensemble``) carry only their input columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lattice import CouplingModel, HeaterBank, WaveguideLayout, coupling_coefficient

MAX_UNITARITY_DEFECT = 1e-9   # largest defect accepted of a circuit unitary

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
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitarity defect is defined for square matrices")
    gram = u.conj().T @ u
    return float(np.abs(gram - np.eye(u.shape[0])).max())


def _check_bank_matches_layout(layout: WaveguideLayout, bank: HeaterBank) -> None:
    if bank.z_spans.size and (bank.z_spans.min() < -1e-9 or
                              bank.z_spans.max() > layout.length + 1e-9):
        raise ConfigurationError(
            "heater bank z-spans extend beyond the coupling region; the bank "
            "was built for a different layout")


def assemble_hamiltonian(layout: WaveguideLayout, model: CouplingModel,
                         bank: HeaterBank, z) -> np.ndarray:
    """Hermitian coupled-mode matrix H(z) in mm^-1.

    H_ii = dk_i(z) from the heater bank, H_ij the coupling coefficient
    at the instantaneous pair distance for retained pairs. Real symmetric by
    construction, returned as a complex array.
    """
    _check_bank_matches_layout(layout, bank)
    z = [float(z)]
    h = _with_detunings(_coupling_stack(layout, model, z),
                        bank.kernels(layout, z), bank.powers)
    return h[0].astype(complex)


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


def _with_detunings(g, kern, powers) -> np.ndarray:
    """H = G + diag(K @ P) for a stack of G (n, m, m) and K (n, m, n_heaters)."""
    h = g.copy()
    diag = np.arange(g.shape[-1])
    h[:, diag, diag] += kern @ powers
    return h


def _apply_slices(vecs, phases, x):
    """x <- exp(i H_k dz_k) x for k in order, with H_k = V_k diag(w_k) V_k^T.

    ``phases`` holds exp(i w_k dz_k). V_k is real, so both products run as
    real matrix products on the float view of the complex columns.
    """
    for v, ph in zip(vecs, phases):
        y = (v.T @ x.view(float)).view(complex)
        y *= ph[:, None]
        x = (v @ y.view(float)).view(complex)
    return x


class _Propagator:
    """What propagating one chip costs whatever the heater powers are.

    Holds the step plan, G and K of every heated slice exponential in z
    order, and the product of each run of unheated slices (K = 0 there, so
    those exponentials are the same for every power vector).
    :meth:`columns` propagates chosen input columns under one power vector.
    """

    def __init__(self, layout: WaveguideLayout, model: CouplingModel,
                 bank: HeaterBank, n_steps: int):
        if n_steps < 1:
            raise ConfigurationError("n_steps must be at least 1")
        if bank.positions.ndim != 2 or bank.positions.shape[1] != 2:
            raise ConfigurationError("heater bank positions must be (n, 2)")
        _check_bank_matches_layout(layout, bank)
        edges = _segment_edges(layout, bank)
        seg_len = np.diff(edges)
        seg_steps = np.maximum(1, np.rint(n_steps * seg_len / layout.length).astype(int))
        seg_dz = seg_len / seg_steps
        starts = np.concatenate([z0 + dz * np.arange(ns)
                                 for z0, dz, ns in zip(edges[:-1], seg_dz, seg_steps)])
        dz = np.repeat(seg_dz, seg_steps)
        z = (starts[:, None] + dz[:, None] * _CF4_NODES).ravel()  # (steps * 2,)
        m, shape = layout.m, (len(starts), 2)
        # slice exponentials step by step, each a weighted sum of node Hamiltonians
        g = np.einsum("en,snij->seij", _CF4_WEIGHTS,
                      _coupling_stack(layout, model, z).reshape(shape + (m, m)))
        kern = np.einsum("en,snij->seij", _CF4_WEIGHTS,
                         bank.kernels(layout, z).reshape(shape + (m, -1)))
        g = g.reshape(-1, m, m)
        kern = kern.reshape(len(g), m, -1)
        dz = np.repeat(dz, 2)
        heated = np.any(kern != 0, axis=(1, 2))
        hot = np.r_[0, np.cumsum(heated)]      # heated exponentials before each one
        w, v = np.linalg.eigh(g[~heated])
        fixed_phases = np.exp(1j * w * dz[~heated, None])
        cuts = np.r_[0, np.flatnonzero(np.diff(heated)) + 1, len(heated)]
        self.runs = []          # slice of the heated stack, or a fixed product
        for a, b in zip(cuts[:-1], cuts[1:]):
            if heated[a]:
                self.runs.append(slice(hot[a], hot[b]))
            else:
                cold = slice(a - hot[a], b - hot[b])
                self.runs.append(_apply_slices(v[cold], fixed_phases[cold],
                                               np.eye(m, dtype=complex)))
        self.g, self.kern, self.dz = g[heated], kern[heated], dz[heated]

    def columns(self, powers, x) -> np.ndarray:
        """U x for the circuit under heater ``powers``, x of shape (m, k)."""
        w, v = np.linalg.eigh(_with_detunings(self.g, self.kern, powers))
        phases = np.exp(1j * w * self.dz[:, None])
        x = np.ascontiguousarray(x, dtype=complex)
        for run in self.runs:
            if isinstance(run, slice):
                x = _apply_slices(v[run], phases[run], x)
            else:
                x = run @ x
        return x


def propagate(layout: WaveguideLayout, model: CouplingModel, bank: HeaterBank,
              n_steps: int = 1024) -> UnitaryMatrix:
    """Integrate H(z) over the coupling region into the circuit unitary.

    ``n_steps`` is the total CF4 step budget, distributed over the smooth
    segments proportionally to their length (at least one step each).
    """
    chip = _Propagator(layout, model, bank, n_steps)
    u = chip.columns(bank.powers, np.eye(layout.m, dtype=complex))
    return UnitaryMatrix(layout.m, u, unitarity_defect(u))
