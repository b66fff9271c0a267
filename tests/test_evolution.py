import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonlat.errors import ConfigurationError
from photonlat.evolution import (assemble_hamiltonian, propagate,
                                 unitarity_defect)
from photonlat.haarstats import haar_unitary
from photonlat.lattice import (CouplingModel, LatticeSpec, build_lattice,
                               default_heater_bank, symmetry_permutations)

from conftest import make_device


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


def test_hamiltonian_hermitian_and_sparse(device):
    layout, model, bank, _ = device
    h = assemble_hamiltonian(layout, model, bank, z=10.0)
    assert np.array_equal(h, h.conj().T)
    neighbours = (np.abs(h) > 0).sum(axis=1) - (np.abs(np.diag(h)) > 0)
    assert neighbours.max() <= 6     # triangular-lattice sparsity


def test_hamiltonian_constant_for_ideal_lattice_zero_power():
    layout = build_lattice(LatticeSpec(max_shift=0.0, seed=2))
    model = CouplingModel()
    bank = default_heater_bank(layout, np.zeros(16))
    h1 = assemble_hamiltonian(layout, model, bank, z=3.0)
    h2 = assemble_hamiltonian(layout, model, bank, z=29.0)
    assert np.allclose(h1, h2, atol=1e-15)
    off = h1[~np.eye(32, dtype=bool)]
    vals = off[np.abs(off) > 0]
    assert np.allclose(vals, vals[0])   # equal nearest-neighbour couplings


def test_two_mode_hamiltonian_off_diagonal():
    layout, model, bank = two_mode_device()
    h = assemble_hamiltonian(layout, model, bank, z=0.0)
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
        assemble_hamiltonian(short, model, bank, z=5.0)
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
