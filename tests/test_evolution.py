import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonlat.errors import CapacityError, ConfigurationError
from photonlat.evolution import _coupling_stack, propagate, unitarity_defect
from photonlat.haarstats import (device_submatrix_ensemble, haar_unitary,
                                 random_heater_powers)
from photonlat.lattice import (CouplingModel, LatticeSpec, build_lattice,
                               default_heater_bank, symmetry_permutations)

from conftest import make_device
from oracles import hamiltonian, ordered_exponential


def two_mode_device(pitch=11.0, length=36.0):
    layout = build_lattice(LatticeSpec(rows=1, cols=2, pitch=pitch,
                                       max_shift=0.0, coupling_length=length,
                                       seed=0))
    bank = default_heater_bank(layout, np.zeros(16))
    return layout, CouplingModel(), bank


def test_unitarity_defect_identity():
    assert unitarity_defect(np.eye(4)) == 0.0


def test_unitarity_defect_scaled_identity():
    assert unitarity_defect(2.0 * np.eye(3)) == pytest.approx(3.0)


def test_unitarity_defect_haar_sample():
    u = haar_unitary(32, rng_seed=5)
    assert u.unitarity_defect < 1e-12


def test_unitarity_defect_rejects_nonsquare():
    with pytest.raises(ValueError):
        unitarity_defect(np.ones((2, 3)))


def slice_hamiltonian(layout, model, bank, z):
    """H(z) = G + diag(K @ P) from the two parts the integrator builds its
    slices from."""
    detunings = bank.kernels(layout, [z])[0] @ bank.powers
    return _coupling_stack(layout, model, [z])[0] + np.diag(detunings)


def test_hamiltonian_hermitian_and_sparse(device):
    layout, model, bank, _ = device
    h = slice_hamiltonian(layout, model, bank, 10.0)
    assert np.array_equal(h, h.conj().T)
    neighbours = (np.abs(h) > 0).sum(axis=1) - (np.abs(np.diag(h)) > 0)
    assert neighbours.max() <= 6     # triangular-lattice sparsity


def test_hamiltonian_constant_for_ideal_lattice_zero_power():
    layout = build_lattice(LatticeSpec(max_shift=0.0, seed=2))
    model = CouplingModel()
    bank = default_heater_bank(layout, np.zeros(16))
    h1 = slice_hamiltonian(layout, model, bank, 3.0)
    h2 = slice_hamiltonian(layout, model, bank, 29.0)
    assert np.allclose(h1, h2, atol=1e-15)
    off = h1[~np.eye(32, dtype=bool)]
    vals = off[np.abs(off) > 0]
    assert np.allclose(vals, vals[0])   # equal nearest-neighbour couplings


def test_two_mode_hamiltonian_off_diagonal():
    layout, model, bank = two_mode_device()
    h = slice_hamiltonian(layout, model, bank, 0.0)
    assert h[0, 1] == pytest.approx(model.c0)
    assert h[1, 0] == pytest.approx(model.c0)


def test_zero_coupling_gives_identity():
    layout = build_lattice(LatticeSpec(rows=1, cols=2, pitch=40.0,
                                       max_shift=0.0, seed=0))
    bank = default_heater_bank(layout, np.zeros(16))
    u = propagate(layout, CouplingModel(), bank, n_steps=16)
    assert np.array_equal(u.entries, np.eye(2))


def test_two_mode_directional_coupler_analytic():
    layout, model, bank = two_mode_device()
    u = propagate(layout, model, bank, n_steps=64)
    c = model.c0
    assert abs(abs(u.entries[0, 1]) ** 2 - np.sin(c * 36.0) ** 2) < 1e-10
    assert u.unitarity_defect < 1e-12


def test_device_unitarity(device):
    assert device[3].unitarity_defect <= 1e-9


def test_step_halving_at_default(device):
    layout, model, bank, u512 = device
    u1024 = propagate(layout, model, bank, n_steps=1024)
    assert np.abs(u512.entries - u1024.entries).max() <= 1e-8


def test_fine_step_reference(device):
    layout, model, bank, _ = device
    u = propagate(layout, model, bank, n_steps=512)
    ref = propagate(layout, model, bank, n_steps=4096)
    assert np.abs(u.entries - ref.entries).max() < 1e-8


def test_energy_conservation(device):
    u = device[3].entries
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert abs(np.linalg.norm(u @ a) - np.linalg.norm(a)) < 1e-9


def test_mirror_symmetry_commutes_without_detuning():
    spec = LatticeSpec(max_shift=0.0, seed=0)
    layout = build_lattice(spec)
    bank = default_heater_bank(layout, np.zeros(16))
    u = propagate(layout, CouplingModel(), bank, n_steps=64).entries
    perm = symmetry_permutations(spec)["rotate_180"]
    p = np.eye(32)[perm]
    assert np.abs(p @ u @ p.T - u).max() < 1e-9


def test_propagate_rejects_bad_arguments(device):
    layout, model, bank, _ = device
    with pytest.raises(ConfigurationError):
        propagate(layout, model, bank, n_steps=0)


def test_bank_layout_mismatch_rejected(device):
    layout, model, bank, _ = device
    short = build_lattice(LatticeSpec(coupling_length=20.0, seed=0))
    with pytest.raises(ConfigurationError):
        propagate(short, model, bank, n_steps=8)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 8),
       pitch=st.floats(8.0, 20.0), shift=st.floats(0.0, 0.49),
       length=st.floats(24.0, 60.0), knots=st.integers(2, 10),
       seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 64))
def test_propagate_unitary_over_random_lattices(rows, cols, pitch, shift, length,
                                                knots, seed, n_steps):
    assume(rows * cols >= 2)
    layout = build_lattice(LatticeSpec(rows=rows, cols=cols, pitch=pitch,
                                       max_shift=shift * pitch,
                                       coupling_length=length,
                                       n_modulation_knots=knots, seed=seed))
    powers = np.random.default_rng(seed).uniform(0.0, 500.0, 16)
    bank = default_heater_bank(layout, powers)
    u = propagate(layout, CouplingModel(), bank, n_steps=n_steps)
    assert u.entries.shape == (layout.m, layout.m)
    assert u.unitarity_defect <= 1e-9


def test_propagation_deterministic(device):
    layout, model, bank, u = device
    again = propagate(layout, model, bank, n_steps=512)
    assert np.array_equal(u.entries, again.entries)


# CF4 (Blanes & Moan 2006): Gauss-Legendre nodes as fractions of a step, and
# the node weights of each of the two slice exponentials in the order they act
R3 = np.sqrt(3.0) / 6.0
CF4_NODES = (0.5 - R3, 0.5 + R3)
CF4_WEIGHTS = ((0.25 + R3, 0.25 - R3), (0.25 - R3, 0.25 + R3))


def cf4_slices(layout, model, bank, n_steps):
    """Slice Hamiltonians and widths of CF4 with ``n_steps`` steps shared
    out over the smooth segments (at least one each), built from the
    oracle H(z)."""
    edges = np.unique(np.concatenate([layout.knot_z, bank.z_spans.ravel(),
                                      [0.0, layout.length]]))
    edges = edges[(edges >= 0.0) & (edges <= layout.length)]
    hamiltonians, steps = [], []
    for z0, z1 in zip(edges[:-1], edges[1:]):
        n = max(1, int(np.rint(n_steps * (z1 - z0) / layout.length)))
        dz = (z1 - z0) / n
        for k in range(n):
            h = [hamiltonian(layout, model, bank, z0 + dz * (k + c))
                 for c in CF4_NODES]
            for w in CF4_WEIGHTS:
                hamiltonians.append(w[0] * h[0] + w[1] * h[1])
                steps.append(dz)
    return hamiltonians, steps


def stress_device():
    """A dense, long 32-mode chip at full heater power, where one CF4 step
    per segment gives slices with ||H dz||_1 > 1."""
    layout = build_lattice(LatticeSpec(rows=4, cols=8, pitch=8.0,
                                       coupling_length=60.0, seed=3))
    return layout, CouplingModel(), default_heater_bank(layout, np.full(16, 500.0))


def evolution_log(caplog):
    """(heated, fixed, max theta, p min, p max, substeps, defect) of the one
    record the integrator logged."""
    [record] = [r for r in caplog.records if r.name == "photonlat.evolution"]
    caplog.clear()
    found = re.search(r"(\d+) heated and (\d+) fixed slices, max theta (\S+), "
                      r"Taylor order p (\d+)\.\.(\d+), (\d+) substeps, "
                      r"column-norm defect (\S+)", record.getMessage())
    return tuple(float(v) for v in found.groups())


@pytest.mark.parametrize("n_steps", [1, 2, 7, 64])
def test_propagate_and_ensemble_match_ordered_expm(device, n_steps):
    layout, model, bank, _ = device
    want = ordered_exponential(*cf4_slices(layout, model, bank, n_steps))
    u = propagate(layout, model, bank, n_steps=n_steps).entries
    assert np.abs(u - want).max() <= 1e-12
    inputs = [11, 12, 19]
    powers = random_heater_powers(bank, 2, rng_seed=n_steps)
    subs = device_submatrix_ensemble(layout, model, bank, inputs, powers, n_steps)
    for sub, setting in zip(subs, powers):
        want = ordered_exponential(*cf4_slices(layout, model,
                                               replace(bank, powers=setting), n_steps))
        assert np.abs(sub - want[:, inputs].T).max() <= 1e-12


def test_substepped_slices_match_ordered_expm(caplog):
    layout, model, bank = stress_device()
    with caplog.at_level(logging.DEBUG, logger="photonlat.evolution"):
        u = propagate(layout, model, bank, n_steps=1).entries
    heated, fixed, theta, _, _, substeps, _ = evolution_log(caplog)
    assert theta > 1.0 and substeps > heated + fixed
    want = ordered_exponential(*cf4_slices(layout, model, bank, 1))
    assert np.abs(u - want).max() <= 1e-12


def test_integrator_logs_what_it_did(device, caplog):
    layout, model, bank, u = device
    with caplog.at_level(logging.DEBUG, logger="photonlat.evolution"):
        propagate(layout, model, bank, n_steps=512)
        heated, fixed, theta, p_min, p_max, substeps, defect = evolution_log(caplog)
        device_submatrix_ensemble(layout, model, bank, [11, 12],
                                  random_heater_powers(bank, 3, rng_seed=1), 512)
        assert evolution_log(caplog)[:2] == (heated, fixed)
    assert heated > 0 and fixed > 0
    assert 0.0 < theta <= 1.0 and substeps == heated + fixed
    assert 1 <= p_min <= p_max <= 19
    assert defect <= 1e-12


def test_slice_beyond_the_substep_budget_raises(device):
    layout, model, bank, _ = device
    with pytest.raises(CapacityError):
        propagate(layout, model, replace(bank, powers=np.full(16, 1e7)), n_steps=1024)
