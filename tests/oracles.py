"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: the permanent is the
plain n! permutation sum, multi-photon statistics come from
first-quantized state-vector evolution (symmetric tensors, no
permanents), distinguishable statistics from per-photon convolution, and
circuit propagation from dense matrix exponentials.
"""

import itertools
import math

import numpy as np
from scipy.linalg import expm


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
