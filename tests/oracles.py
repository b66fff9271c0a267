"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: the permanent is the
plain n! permutation sum, multi-photon statistics come from
first-quantized state-vector evolution (symmetric tensors, no
permanents), distinguishable statistics from per-photon convolution,
circuit propagation from dense matrix exponentials, HOM dip fits from
one MINPACK ``curve_fit`` per scan, and Jacobians from central
differences.
"""

import itertools
import math
import warnings

import numpy as np
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, curve_fit


def naive_permanent(a):
    """Permutation-sum permanent, O(n! n)."""
    a = np.asarray(a)
    n = a.shape[0]
    rows = np.arange(n)
    perms = np.array(list(itertools.permutations(range(n))))
    return a[rows[None, :], perms].prod(axis=1).sum()


def _occupations_to_modes(occ):
    modes = []
    for i, o in enumerate(occ):
        modes.extend([i] * int(o))
    return tuple(modes)


def _symmetric_input_tensor(occ, m):
    """Normalized bosonic wavefunction of |occ> as an m^n tensor."""
    modes = _occupations_to_modes(occ)
    n = len(modes)
    psi = np.zeros((m,) * n, dtype=complex)
    perms = set(itertools.permutations(modes))
    for p in perms:
        psi[p] = 1.0
    # each distinct permutation appears prod(occ!) times in the full sum
    t_fact = math.prod(math.factorial(int(o)) for o in occ)
    psi *= t_fact / math.factorial(n)
    norm = math.sqrt(t_fact / math.factorial(n))
    return psi / norm


def statevector_distribution(u, input_occ):
    """Exact indistinguishable output distribution by tensor evolution.

    Returns a dict occupation-tuple -> probability over all multisets.
    """
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    n = int(sum(input_occ))
    psi = _symmetric_input_tensor(input_occ, m)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(u, psi, axes=(1, axis)), 0, axis)
    probs = {}
    for combo in itertools.combinations_with_replacement(range(m), n):
        occ = [0] * m
        for mode in combo:
            occ[mode] += 1
        s_fact = math.prod(math.factorial(o) for o in occ)
        amp = psi[combo] * math.sqrt(math.factorial(n) / s_fact)
        probs[tuple(occ)] = abs(amp) ** 2
    return probs


def distinguishable_distribution(u, input_occ):
    """Exact distinguishable output distribution by per-photon convolution."""
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    modes = _occupations_to_modes(input_occ)
    table = {tuple([0] * m): 1.0}
    for j in modes:
        p_one = np.abs(u[:, j]) ** 2
        new = {}
        for occ, p in table.items():
            for i in range(m):
                nxt = list(occ)
                nxt[i] += 1
                key = tuple(nxt)
                new[key] = new.get(key, 0.0) + p * p_one[i]
        table = new
    return table


def ordered_exponential(hamiltonians, steps):
    """expm(i H_K dz_K) ... expm(i H_1 dz_1): the z-ordered product of
    dense slice exponentials, the first slice acting first."""
    hamiltonians = [np.asarray(h, dtype=complex) for h in hamiltonians]
    u = np.eye(len(hamiltonians[0]), dtype=complex)
    for h, dz in zip(hamiltonians, steps):
        u = expm(1j * dz * h) @ u
    return u


def _gaussian_dip(x, a, v, x0, sigma):
    return a * (1.0 + v * np.exp(-((x - x0) ** 2) / (2.0 * sigma ** 2)))


def _dip_guess(x, y):
    mid = 0.5 * (x.min() + x.max())
    n_outer = max(2, len(x) // 4)
    outer = np.argsort(-np.abs(x - mid))[:n_outer]
    a0 = float(np.mean(y[outer]))
    if a0 <= 0:
        a0 = max(float(np.mean(y)), 1e-12)
    dev = y - a0
    ext = int(np.argmax(np.abs(dev)))
    v0 = float(dev[ext] / a0)
    x00 = float(x[ext])
    half = np.abs(dev) >= 0.5 * abs(dev[ext])
    if abs(dev[ext]) > 0 and half.sum() >= 2:
        s0 = max((x[half].max() - x[half].min()) / 2.355, (x.max() - x.min()) / 50.0)
    else:
        s0 = (x.max() - x.min()) / 6.0
    return a0, v0, x00, float(s0)


def curve_fit_dip(positions, counts, max_nfev=20000):
    """One dip scan fitted by ``curve_fit`` (MINPACK, finite-difference
    Jacobian), Poisson weights sqrt(max(counts, 1)): params (a, V, x0,
    |sigma|) and the 4x4 covariance.

    A fit that does not converge, puts x0 outside the scan, or its width
    below the point spacing or above half the range is redone for (a, V)
    alone with x0 and sigma frozen at the initial guess; the covariance is
    then NaN outside its (a, V) block. Returns None when that fails too.
    """
    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    sigma = np.sqrt(np.maximum(y, 1.0))
    p0 = _dip_guess(x, y)
    lo, hi = x.min(), x.max()
    spacing = (hi - lo) / (len(x) - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        try:
            popt, pcov = curve_fit(_gaussian_dip, x, y, p0=p0, sigma=sigma,
                                   absolute_sigma=True, maxfev=max_nfev)
        except RuntimeError:
            popt = None
        if popt is None or not (lo <= popt[2] <= hi
                                and spacing <= abs(popt[3]) <= (hi - lo) / 2):
            x00, s0 = p0[2], p0[3]
            try:
                popt2, pcov2 = curve_fit(
                    lambda xx, a, v: _gaussian_dip(xx, a, v, x00, s0),
                    x, y, p0=p0[:2], sigma=sigma, absolute_sigma=True,
                    maxfev=max_nfev)
            except RuntimeError:
                return None
            popt = np.array([popt2[0], popt2[1], x00, s0])
            pcov = np.full((4, 4), np.nan)
            pcov[:2, :2] = pcov2
    popt = np.array(popt, dtype=float)
    popt[3] = abs(popt[3])
    return popt, pcov


def finite_difference_jacobian(fun, x, step=1e-6):
    """Central-difference Jacobian of the vector function ``fun`` at ``x``:
    column c is (fun(x + step e_c) - fun(x - step e_c)) / (2 step)."""
    x = np.asarray(x, dtype=float)
    columns = []
    for c in range(len(x)):
        e = np.zeros_like(x)
        e[c] = step
        columns.append((np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * step))
    return np.column_stack(columns)
