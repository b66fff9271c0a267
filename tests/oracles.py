"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: the permanent is the
plain n! permutation sum, multi-photon statistics come from
first-quantized state-vector evolution (symmetric tensors, no
permanents), distinguishable statistics from per-photon convolution,
circuit propagation from dense matrix exponentials of an H(z) assembled
entry by entry from the lattice primitives, HOM plateaus and visibilities
from the four entries of U they read, HOM dip fits from
one finite-difference ``least_squares`` over every parameter of a
campaign (no elimination of the linear ones), the moduli and phase fits
from SciPy's trf on finite-difference Jacobians (the moduli as squared
moduli q >= 0 under a bound), and Jacobians from central differences.
The site symmetries of the ideal lattice, which tests of the propagator
use, are found by brute force over its isometries.
"""

import itertools
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares
from scipy.sparse import csr_matrix

from photonlat.lattice import LatticeSpec, _ideal_positions, coupling_coefficient
from photonlat.reconstruction import NORM_TOLERANCE


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


def scattering_submatrix(u, input_pattern, output_pattern):
    """n x n submatrix of U: rows from the output occupations, columns from
    the input occupations, each mode repeated as often as it is occupied."""
    return np.asarray(u)[np.ix_(output_pattern.modes(), input_pattern.modes())]


def hamiltonian(layout, model, bank, z):
    """Coupled-mode H(z) in mm^-1, entry by entry: the heater detunings
    ``bank.kernels(layout, [z])[0] @ bank.powers`` on the diagonal, and for
    each pair the coupling model retains the coupling coefficient at the
    pair's distance at z."""
    pos = layout.positions_at(float(z))
    h = np.diag(bank.kernels(layout, [float(z)])[0] @ bank.powers).astype(complex)
    for i, j in zip(*layout.coupled_pairs(model)):
        h[i, j] = h[j, i] = coupling_coefficient(math.dist(pos[i], pos[j]), model)
    return h


def ordered_exponential(hamiltonians, steps):
    """expm(i H_K dz_K) ... expm(i H_1 dz_1): the z-ordered product of
    dense slice exponentials, the first slice acting first."""
    hamiltonians = [np.asarray(h, dtype=complex) for h in hamiltonians]
    u = np.eye(len(hamiltonians[0]), dtype=complex)
    for h, dz in zip(hamiltonians, steps):
        u = expm(1j * dz * h) @ u
    return u


def hom_plateau(u, h, k, i, j):
    """Distinguishable two-photon coincidence probability of inputs h, k at
    outputs i, j: |U_ih|^2 |U_jk|^2 + |U_jh|^2 |U_ik|^2."""
    return abs(u[i, h]) ** 2 * abs(u[j, k]) ** 2 + abs(u[j, h]) ** 2 * abs(u[i, k]) ** 2


def hom_visibility(u, h, k, i, j):
    """HOM dip visibility V = (a - Q) / a of inputs h, k at outputs i, j, with
    a their plateau and Q = |U_ih U_jk + U_jh U_ik|^2 the indistinguishable
    coincidence probability: full suppression gives V = +1, the opposite
    sign of the scan parameter that datasets store."""
    a = hom_plateau(u, h, k, i, j)
    return (a - abs(u[i, h] * u[j, k] + u[j, h] * u[i, k]) ** 2) / a


def stacked_dip_fit(positions, counts, groups):
    """Every dip scan of a campaign in one ``least_squares`` fit of the full
    problem: (a, V) per dip and (x0, sigma) per label of ``groups``, with no
    elimination of the linear parameters and a finite-difference Jacobian
    (its columns grouped by their sparsity), Poisson weights
    sqrt(max(counts, 1)), x0 in the scan and sigma in [point spacing, half
    the range]. Returns (a, V) per dip (D, 2), (x0, sigma) per label in
    sorted order (G, 2), and each dip's (a, V) covariance from that
    Jacobian with (x0, sigma) held at the solution (D, 2, 2).
    """
    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    labels, group = np.unique(groups, return_inverse=True)
    n_dips, n_points = y.shape
    n_groups = len(labels)
    sigma_y = np.sqrt(np.maximum(y, 1.0))

    def residuals(p):
        a, v = p[:2 * n_dips].reshape(n_dips, 2, 1).transpose(1, 0, 2)
        x0, s = p[2 * n_dips:].reshape(n_groups, 2)[group].T[:, :, None]
        model = a * (1.0 + v * np.exp(-((x - x0) ** 2) / (2.0 * s ** 2)))
        return ((model - y) / sigma_y).ravel()

    row = np.arange(n_dips * n_points)
    dip = row // n_points
    cols = np.stack([2 * dip, 2 * dip + 1, 2 * (n_dips + group[dip]),
                     2 * (n_dips + group[dip]) + 1])
    n_params = 2 * (n_dips + n_groups)
    sparsity = csr_matrix((np.ones(cols.size), (np.tile(row, 4), cols.ravel())),
                          shape=(len(row), n_params))
    lo, hi = x.min(), x.max()
    outer = np.abs(x - 0.5 * (lo + hi)) >= 0.25 * (hi - lo)
    a0 = np.maximum(y[:, outer].mean(axis=1), 1e-12)
    v0 = y[:, np.abs(x - 0.5 * (lo + hi)).argmin()] / a0 - 1.0
    p0 = np.concatenate([np.column_stack([a0, v0]).ravel(),
                         np.tile([0.5 * (lo + hi), (hi - lo) / 6.0], n_groups)])
    lower = np.full(n_params, -np.inf)
    upper = np.full(n_params, np.inf)
    lower[2 * n_dips:], upper[2 * n_dips:] = \
        np.tile([lo, (hi - lo) / (n_points - 1)], n_groups), np.tile([hi, (hi - lo) / 2], n_groups)
    result = least_squares(residuals, p0, jac_sparsity=sparsity, bounds=(lower, upper),
                           x_scale="jac", ftol=1e-12, xtol=1e-12, gtol=None)
    jac = result.jac.tocsr()
    ja, jv = (np.asarray(jac[row, cols[c]]).reshape(n_dips, n_points) for c in (0, 1))
    jtj = np.stack([(ja * ja).sum(axis=1), (ja * jv).sum(axis=1),
                    (ja * jv).sum(axis=1), (jv * jv).sum(axis=1)], axis=-1)
    return (result.x[:2 * n_dips].reshape(n_dips, 2), result.x[2 * n_dips:].reshape(n_groups, 2),
            np.linalg.inv(jtj.reshape(n_dips, 2, 2)))


def trf_moduli(dataset):
    """Moduli of the plateau chi-square fit of ``dataset``: squared moduli
    q >= 0 fitted by SciPy's bounded trf with a three-point Jacobian at its
    default tolerances, starting from the clipped intensity rows, each
    row's sum of q held near 1 by a residual of weight 1 / NORM_TOLERANCE."""
    n_rows, n_out = dataset.n_rows, dataset.n_outputs
    h, k, i, j = dataset.dip_h, dataset.dip_k, dataset.dip_i, dataset.dip_j
    a, eps = dataset.plateaus[dataset.valid], dataset.plateau_errors[dataset.valid]

    def residuals(x):
        q = x.reshape(n_rows, n_out)
        model = q[h, i] * q[k, j] + q[h, j] * q[k, i]
        return np.concatenate([(model - a) / eps, (q.sum(axis=1) - 1.0) / NORM_TOLERANCE])

    q0 = np.clip(dataset.intensities, 0.0, None).ravel()
    result = least_squares(residuals, q0, jac="3-point", bounds=(0.0, np.inf), method="trf")
    return np.sqrt(result.x.reshape(n_rows, n_out))


def trf_phases(moduli, theta0, dataset):
    """Phases of the dip chi-square fit of ``dataset`` at fixed ``moduli``:
    every phase outside the first row and column fitted by SciPy's trf from
    ``theta0`` with a three-point Jacobian at its default tolerances; the
    first row and column stay 0."""
    h, k, i, j = dataset.dip_h, dataset.dip_k, dataset.dip_i, dataset.dip_j
    v = dataset.valid
    target = dataset.plateaus[v] * (1.0 + dataset.visibilities[v])

    def unpack(x):
        theta = np.zeros(moduli.shape)
        theta[1:, 1:] = x.reshape(theta[1:, 1:].shape)
        return theta

    def residuals(x):
        t = moduli * np.exp(1j * unpack(x))
        amp = t[h, i] * t[k, j] + t[h, j] * t[k, i]
        return (target - np.abs(amp) ** 2) / dataset.errors[v]

    result = least_squares(residuals, np.asarray(theta0)[1:, 1:].ravel(), jac="3-point",
                           method="trf")
    return unpack(result.x)


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


def symmetry_permutations(spec: LatticeSpec):
    """Site permutations induced by isometries of the ideal finite lattice.

    Candidate isometries are the left-right mirror, the up-down mirror and
    their composition (the 180-degree rotation); an isometry qualifies only
    if it maps every ideal site onto an ideal site. For the zigzag 8x4
    triangular strip only the rotation survives, which is the geometric
    mirror symmetry the strip actually possesses.
    """
    base = _ideal_positions(spec)
    cx = (base[:, 0].min() + base[:, 0].max()) / 2.0
    cy = (base[:, 1].min() + base[:, 1].max()) / 2.0
    candidates = {
        "mirror_x": np.column_stack([2 * cx - base[:, 0], base[:, 1]]),
        "mirror_y": np.column_stack([base[:, 0], 2 * cy - base[:, 1]]),
        "rotate_180": np.column_stack([2 * cx - base[:, 0], 2 * cy - base[:, 1]]),
    }
    found = {}
    for name, mapped in candidates.items():
        d = np.hypot(mapped[:, None, 0] - base[None, :, 0],
                     mapped[:, None, 1] - base[None, :, 1])
        perm = d.argmin(axis=1)
        if np.all(d[np.arange(spec.m), perm] < 1e-9 * max(spec.pitch, 1.0)) \
                and len(set(perm)) == spec.m:
            found[name] = perm
    return found
