from dataclasses import replace

import numpy as np
import pytest

from photonlat.errors import ConfigurationError
from photonlat.lattice import (N_HEATERS, CouplingModel, HeaterBank, LatticeSpec,
                               build_lattice, coupling_coefficient, default_heater_bank)

from oracles import symmetry_permutations


def pairwise_distances(layout, z):
    """(m, m) transverse distances between the waveguides at z, in um."""
    p = layout.positions_at(z)
    return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)


def heater_detunings(bank, layout, z):
    """Detunings dk_i(z) in mm^-1: the kernels at z times the powers."""
    return bank.kernels(layout, [z])[0] @ bank.powers


def test_ideal_lattice_nearest_neighbour_distance():
    layout = build_lattice(LatticeSpec(max_shift=0.0, seed=3))
    for z in (0.0, 9.0, 36.0):
        d = pairwise_distances(layout, z)
        d[np.diag_indices(32)] = np.inf
        assert d.min() == pytest.approx(11.0, abs=1e-12)


def test_zero_modulation_matches_ideal_everywhere():
    layout = build_lattice(LatticeSpec(max_shift=0.0, seed=5))
    base = layout.positions_at(0.0)
    for z in np.linspace(0.0, 36.0, 7):
        assert np.allclose(layout.positions_at(z), base)


def test_knot_displacements_within_max_shift():
    spec = LatticeSpec(seed=7)
    layout = build_lattice(spec)
    radii = np.hypot(layout.knot_offsets[..., 0], layout.knot_offsets[..., 1])
    assert radii.max() <= spec.max_shift
    assert radii.min() >= 0.0


def test_build_lattice_deterministic():
    a = build_lattice(LatticeSpec(seed=42))
    b = build_lattice(LatticeSpec(seed=42))
    assert np.array_equal(a.knot_offsets, b.knot_offsets)
    c = build_lattice(LatticeSpec(seed=43))
    assert not np.array_equal(a.knot_offsets, c.knot_offsets)


def test_no_collisions_along_z():
    spec = LatticeSpec(seed=13)
    layout = build_lattice(spec)
    for z in np.linspace(0.0, spec.coupling_length, 25):
        d = pairwise_distances(layout, z)
        d[np.diag_indices(32)] = np.inf
        assert d.min() > 2.0 * spec.max_shift


@pytest.mark.parametrize("bad", [
    dict(pitch=0.0),
    dict(pitch=-1.0),
    dict(max_shift=5.5),   # = pitch/2
    dict(max_shift=-0.1),
    dict(n_modulation_knots=1),
    dict(rows=1, cols=1),
])
def test_invalid_spec_rejected(bad):
    with pytest.raises(ConfigurationError):
        LatticeSpec(**bad)


@pytest.mark.parametrize("cls, bad", [
    (CouplingModel, dict(c0=np.nan)),
    (CouplingModel, dict(kappa=np.inf)),
    (CouplingModel, dict(d0=True)),
    (LatticeSpec, dict(coupling_length=np.inf)),
    (LatticeSpec, dict(rows=True, cols=2)),
    (LatticeSpec, dict(pitch=np.nan)),
    (LatticeSpec, dict(n_modulation_knots=2.5)),
], ids=["c0_nan", "kappa_inf", "d0_bool", "length_inf", "rows_bool", "pitch_nan",
        "knots_float"])
def test_non_finite_or_boolean_field_rejected(cls, bad):
    (field,) = set(bad) - {"cols"}
    with pytest.raises(ConfigurationError, match=rf"^{cls.__name__}\.{field} = "):
        cls(**bad)


def test_coupling_coefficient_definition():
    model = CouplingModel(c0=0.2, d0=11.0, kappa=3.0)
    assert coupling_coefficient(11.0, model) == pytest.approx(0.2)
    assert coupling_coefficient(14.0, model) == pytest.approx(0.2 / np.e)


def test_coupling_monotone_decreasing():
    model = CouplingModel()
    d = np.linspace(5.0, 30.0, 50)
    c = coupling_coefficient(d, model)
    assert np.all(np.diff(c) < 0)


def test_coupling_rejects_nonpositive_distance():
    model = CouplingModel()
    with pytest.raises(ValueError):
        coupling_coefficient(0.0, model)
    with pytest.raises(ValueError):
        coupling_coefficient(-2.0, model)


def test_heater_zero_powers_give_zero_detuning():
    layout = build_lattice(LatticeSpec(seed=1))
    bank = default_heater_bank(layout)
    assert np.allclose(heater_detunings(bank, layout, 5.0), 0.0)


def test_heater_linearity():
    layout = build_lattice(LatticeSpec(seed=1))
    powers = np.random.default_rng(0).uniform(0, 400, 16)
    bank = default_heater_bank(layout, powers)
    z = 7.3
    base = heater_detunings(bank, layout, z)
    doubled = heater_detunings(replace(bank, powers=2 * powers), layout, z)
    assert np.allclose(doubled, 2 * base, rtol=1e-13)
    scaled = heater_detunings(replace(bank, powers=0.3 * powers), layout, z)
    assert np.allclose(scaled, 0.3 * base, rtol=1e-13)


def test_single_heater_peaks_on_nearest_waveguide():
    layout = build_lattice(LatticeSpec(max_shift=0.0, seed=0))
    powers = np.zeros(16)
    powers[2] = 300.0
    bank = default_heater_bank(layout, powers)
    z0, z1 = bank.z_spans[2]
    z = 0.5 * (z0 + z1)
    det = heater_detunings(bank, layout, z)
    pos = layout.positions_at(z)
    dist = np.hypot(pos[:, 0] - bank.positions[2, 0],
                    pos[:, 1] - bank.positions[2, 1])
    assert det.argmax() == dist.argmin()
    assert det.max() > 0


def test_heater_inactive_outside_span():
    layout = build_lattice(LatticeSpec(seed=0))
    powers = np.zeros(16)
    powers[0] = 100.0
    bank = default_heater_bank(layout, powers)
    z0, z1 = bank.z_spans[0]
    assert heater_detunings(bank, layout, z1 + 0.1).max() == 0.0
    assert heater_detunings(bank, layout, 0.5 * (z0 + z1)).max() > 0.0


def test_heater_bank_validation():
    layout = build_lattice(LatticeSpec(seed=0))
    with pytest.raises(ConfigurationError):
        default_heater_bank(layout, powers=[-1.0] * 16)
    with pytest.raises(ConfigurationError):
        HeaterBank(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(2))


@pytest.mark.parametrize("field, value", [
    ("powers", [np.nan, 1.0]),
    ("powers", [np.nan, np.nan]),
    ("powers", [np.inf, 1.0]),
    ("positions", [[np.nan, 0.0], [10.0, 0.0]]),
    ("z_spans", [[0.0, np.inf], [1.0, 2.0]]),
    ("kernel_width", np.nan),
    ("alpha_t", np.inf),
])
def test_heater_bank_rejects_non_finite(field, value):
    args = {"positions": [[0.0, 0.0], [10.0, 0.0]],
            "z_spans": [[0.0, 1.0], [1.0, 2.0]], "powers": [1.0, 1.0]}
    args[field] = value
    with pytest.raises(ConfigurationError):
        HeaterBank(**args)


@pytest.mark.parametrize("width", [0.0, 1e-300, 1.0, 1e154, 1e300])
def test_kernel_width_without_a_finite_calibration_is_rejected(width):
    # 2 width^2 underflows or overflows, or the kernel vanishes at the
    # nearest waveguide, 42 um from the nearest heater
    layout = build_lattice(LatticeSpec(seed=0))
    with pytest.raises(ConfigurationError, match="kernel width"):
        default_heater_bank(layout, kernel_width=width)
    if width != 1.0:     # a bank built directly needs no calibration
        with pytest.raises(ConfigurationError, match="kernel width"):
            HeaterBank([[0.0, 0.0]], [[0.0, 1.0]], [1.0], kernel_width=width)


def test_heater_count_is_one_constant():
    bank = default_heater_bank(build_lattice(LatticeSpec(seed=0)))
    assert bank.n_heaters == N_HEATERS


def test_heater_bank_arrangement():
    layout = build_lattice(LatticeSpec(seed=0))
    bank = default_heater_bank(layout)
    assert bank.n_heaters == 16
    xs = sorted(set(bank.positions[:, 0]))
    assert len(xs) == 2          # two parallel rows at the sides
    left = bank.positions[:, 0] == xs[0]
    assert left.sum() == 8
    assert bank.z_spans.min() >= 0.0 and bank.z_spans.max() <= layout.length


def test_symmetry_permutation_exists_for_device_lattice():
    perms = symmetry_permutations(LatticeSpec())
    assert "rotate_180" in perms
    perm = perms["rotate_180"]
    assert sorted(perm) == list(range(32))
    assert np.all(perm[perm] == np.arange(32))   # involution
