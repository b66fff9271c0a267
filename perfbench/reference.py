"""Reference computations the benchmark checks photonlat's outputs against.

None of these call photonlat's algorithms. Each follows the physical
definition directly and is tested against closed forms in
``test_reference.py``:

* the permanent as the plain n! permutation sum;
* the circuit unitary as an adaptive ODE integration of da/dz = i H(z) a,
  with H(z) rebuilt from the waveguide positions and the heater geometry;
* the W (uniform-sampler) and C (distinguishable-sampler) counter rules,
  including the branch-weighted SPDC mixture rule;
* the gauge-invariant phase-quadruple distance between two submatrices,
  minimised over per-row complex conjugation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp

# Relative distance from a counter threshold below which rounding can flip
# a step; such events are left out of the step-by-step comparison.
THRESHOLD_ROUNDING = 1e-9

SPDC_BRANCHES = ("1111", "2002", "0220")


def permanent(mats) -> np.ndarray:
    """Permanents of a (..., n, n) stack as the sum over all n! permutations."""
    mats = np.asarray(mats)
    n = mats.shape[-1]
    total = np.zeros(mats.shape[:-2], dtype=np.result_type(mats.dtype, float))
    for perm in itertools.permutations(range(n)):
        term = np.ones(mats.shape[:-2], dtype=total.dtype)
        for row, col in enumerate(perm):
            term = term * mats[..., row, col]
        total = total + term
    return total


# ---------------------------------------------------------------- unitary

def _hamiltonian(z, positions_at, pairs, coupling, heaters, active):
    pos = positions_at(z)
    m = pos.shape[0]
    h = np.zeros((m, m))
    i_idx, j_idx = pairs
    d = np.hypot(*(pos[i_idx] - pos[j_idx]).T)
    c = coupling["c0"] * np.exp(-(d - coupling["d0"]) / coupling["kappa"])
    h[i_idx, j_idx] = c
    h[j_idx, i_idx] = c
    if np.any(active):
        hp = heaters["positions"][active]
        dist2 = ((pos[:, None, :] - hp[None, :, :]) ** 2).sum(axis=-1)
        kern = np.exp(-dist2 / (2.0 * heaters["kernel_width"] ** 2))
        h[np.diag_indices(m)] = heaters["alpha_t"] * kern @ heaters["powers"][active]
    return h


def ode_unitary(positions_at, ideal_positions, breakpoints, length, coupling,
                heaters, rtol=1e-12, atol=1e-13) -> np.ndarray:
    """Circuit unitary from an adaptive integration of dU/dz = i H(z) U.

    ``positions_at(z)`` gives the (m, 2) waveguide positions in um at
    scalar z in mm. Pairs are coupled when their ideal distance is within
    ``coupling["max_distance"]`` and their ideal coupling is at least
    ``coupling["truncation"]``; the coupling rate is
    c0 exp(-(d - d0) / kappa). The detuning of waveguide i sums
    alpha_t P_r exp(-|p_i - h_r|^2 / (2 w^2)) over heaters r whose
    half-open window [z_on, z_off) covers z. The integration restarts at
    every z in ``breakpoints`` and at every heater window edge, where H(z)
    is not smooth.
    """
    ideal = np.asarray(ideal_positions, dtype=float)
    m = ideal.shape[0]
    iu, ju = np.triu_indices(m, k=1)
    d_ideal = np.hypot(*(ideal[iu] - ideal[ju]).T)
    c_ideal = coupling["c0"] * np.exp(-(d_ideal - coupling["d0"]) / coupling["kappa"])
    keep = (d_ideal <= coupling["max_distance"]) & (c_ideal >= coupling["truncation"])
    pairs = (iu[keep], ju[keep])

    spans = np.asarray(heaters["spans"], dtype=float).reshape(-1, 2)
    edges = np.unique(np.concatenate([[0.0, length], np.asarray(breakpoints, float),
                                      spans.ravel()]))
    edges = edges[(edges >= 0.0) & (edges <= length)]

    state = np.eye(m, dtype=complex).ravel()
    for z0, z1 in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (z0 + z1)
        active = (spans[:, 0] <= mid) & (mid < spans[:, 1])

        def rhs(z, y, active=active):
            h = _hamiltonian(z, positions_at, pairs, coupling, heaters, active)
            return (1j * h @ y.reshape(m, m)).ravel()

        sol = solve_ivp(rhs, (z0, z1), state, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"ODE reference failed on [{z0}, {z1}]: {sol.message}")
        state = sol.y[:, -1]
    return state.reshape(m, m)


def unitarity_defect(u) -> float:
    """max |(U^dag U - I)_ij|."""
    u = np.asarray(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


# ---------------------------------------------------------------- counters

def occupation_factorial(input_modes) -> float:
    """prod_j t_j! for an input given as a mode list with multiplicity."""
    _, counts = np.unique(np.asarray(input_modes), return_counts=True)
    return float(math.prod(math.factorial(int(c)) for c in counts))


def spdc_input_modes(branch: str, source_modes) -> tuple:
    """Input mode list of an SPDC branch: digit k of ``branch`` photons
    enter ``source_modes[k]``."""
    modes = []
    for mode, count in zip(source_modes, branch):
        modes.extend([int(mode)] * int(count))
    return tuple(sorted(modes))


def w_steps(u, input_modes, outputs, m_detected):
    """Uniform-sampler counter: steps and near-threshold mask.

    P = prod_i sum_j t_j |U_ij|^2 over the detected outputs i of each event
    (one row of ``outputs``) and the input occupations t; the step is +1
    when P >= (n / m_detected)^n, else -1.
    """
    u = np.asarray(u)
    outputs = np.asarray(outputs, dtype=np.intp)
    n = outputs.shape[1]
    mean_occupation = (np.abs(u[:, list(input_modes)]) ** 2).sum(axis=1)
    p = mean_occupation[outputs].prod(axis=1)
    threshold = (n / m_detected) ** n
    steps = np.where(p >= threshold, 1, -1)
    near = np.abs(p - threshold) <= THRESHOLD_ROUNDING * threshold
    return steps, near


def qd_probabilities(u, input_modes, outputs):
    """Indistinguishable q = |Per M|^2 / prod t! and distinguishable
    d = Per |M|^2 of collision-free outputs (rows of ``outputs``)."""
    u = np.asarray(u)
    outputs = np.asarray(outputs, dtype=np.intp)
    sub = u[outputs[:, :, None], np.asarray(input_modes, dtype=np.intp)[None, None, :]]
    q = np.abs(permanent(sub)) ** 2 / occupation_factorial(input_modes)
    d = permanent(np.abs(sub) ** 2).real
    return q, d


def c_steps_from_qd(q, d):
    """C counter from q and d: +1 when q / d >= 1, -1 otherwise, 0 when
    d = 0 (the event carries no likelihood ratio). Also the near-threshold
    mask."""
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    safe_d = np.where(d > 0, d, 1.0)
    ratio = q / safe_d
    steps = np.where(d > 0, np.where(ratio >= 1.0, 1, -1), 0)
    near = (d > 0) & (np.abs(ratio - 1.0) <= THRESHOLD_ROUNDING)
    return steps, near


def spdc_weights(r: float) -> dict:
    """Normalised branch weights (R, R^2, 1) / (R + R^2 + 1)."""
    raw = {"1111": r, "2002": r * r, "0220": 1.0}
    total = sum(raw.values())
    return {b: w / total for b, w in raw.items()}


def mixture_qd(u, source_modes, weights, outputs):
    """Branch-weighted q and d of the SPDC mixture for each event."""
    q_mix = d_mix = 0.0
    for branch in SPDC_BRANCHES:
        q, d = qd_probabilities(u, spdc_input_modes(branch, source_modes), outputs)
        q_mix = q_mix + weights[branch] * q
        d_mix = d_mix + weights[branch] * d
    return q_mix, d_mix


def ls_slope(counters) -> float:
    """Least-squares slope of counter k against k = 1..K."""
    y = np.asarray(counters, dtype=float)
    if len(y) < 2:
        return float(y[0]) if len(y) else 0.0
    k = np.arange(1, len(y) + 1, dtype=float)
    kc = k - k.mean()
    return float((kc * (y - y.mean())).sum() / (kc * kc).sum())


# ---------------------------------------------------------------- phases

def _quadruples(t) -> np.ndarray:
    """Unit phasors T_pi T_qj conj(T_pj T_qi) for all p < q, i < j."""
    t = np.asarray(t, dtype=complex)
    phasor = t / np.abs(t)
    iu, ju = np.triu_indices(t.shape[1], k=1)
    out = []
    for p, q in itertools.combinations(range(t.shape[0]), 2):
        out.append(phasor[p, iu] * phasor[q, ju] * np.conj(phasor[p, ju] * phasor[q, iu]))
    return np.concatenate(out)


def quadruple_rmse(phases, reference) -> float:
    """RMS phase-quadruple difference (rad) between a reconstruction's
    phases and a complex reference, minimised over conjugating any subset
    of rows, which two-photon data cannot resolve."""
    phases = np.asarray(phases, dtype=float)
    q_ref = _quadruples(reference)
    best = math.inf
    for signs in itertools.product((1.0, -1.0), repeat=phases.shape[0]):
        q = _quadruples(np.exp(1j * np.asarray(signs)[:, None] * phases))
        best = min(best, float(np.sqrt(np.mean(np.angle(q * np.conj(q_ref)) ** 2))))
    return best
