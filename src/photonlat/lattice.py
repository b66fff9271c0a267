"""Randomly modulated triangular waveguide lattice and thermal detunings.

Geometry conventions: transverse coordinates (x, y) are in micrometres,
the propagation coordinate z is in millimetres, coupling rates and
detunings are in mm^-1, heater powers in mW.

The 32-mode device is an 8x4 (cols x rows) triangular arrangement with
11 um average pitch. Each waveguide is displaced from its ideal site at
a set of z-knots by a random radius in [0, max_shift] along a random
direction, with piecewise-linear interpolation in between, so coupling
coefficients vary continuously along z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_fields, check_whole

_SQRT3 = math.sqrt(3.0)

# geometry and calibration of the device's heater bank (default_heater_bank)
HEATERS_PER_SIDE = 8
N_HEATERS = 2 * HEATERS_PER_SIDE
HEATER_LENGTH = 3.0          # mm
HEATER_STANDOFF = 30.0       # um
SURFACE_HEIGHT = 30.0        # um
CALIBRATION_POWER = 500.0    # mW


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of the modulated triangular lattice."""

    rows: int = 4
    cols: int = 8
    pitch: float = 11.0            # um
    max_shift: float = 2.0         # um
    coupling_length: float = 36.0  # mm
    n_modulation_knots: int = 8
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ConfigurationError("lattice needs at least two waveguides")
        if self.pitch <= 0:
            raise ConfigurationError("pitch must be positive")
        if not 0 <= self.max_shift < self.pitch / 2:
            raise ConfigurationError(
                "max_shift must satisfy 0 <= max_shift < pitch/2 so waveguides "
                "never swap lattice sites")
        if self.coupling_length <= 0:
            raise ConfigurationError("coupling_length must be positive")
        check_whole(self.n_modulation_knots, "n_modulation_knots", 2)

    @property
    def m(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class CouplingModel:
    """Exponential evanescent-coupling law c(d) = c0 * exp(-(d - d0)/kappa).

    Defaults reproduce a nearest-neighbour coupling of 0.2 mm^-1 at the
    11 um device pitch. Pairs whose ideal (unmodulated) separation exceeds
    ``max_distance`` are not coupled at all, which keeps the Hamiltonian at
    triangular-lattice sparsity; couplings that evaluate below ``truncation``
    are treated as zero.
    """

    c0: float = 0.2        # mm^-1 at distance d0
    d0: float = 11.0       # um
    kappa: float = 3.0     # um
    max_distance: float = 15.0   # um, neighbour cutoff on the ideal geometry
    truncation: float = 1e-4     # mm^-1

    def __post_init__(self):
        check_fields(self)
        if self.c0 <= 0 or self.kappa <= 0:
            raise ConfigurationError("c0 and kappa must be positive")
        if self.max_distance <= 0:
            raise ConfigurationError("max_distance must be positive")


def coupling_coefficient(d, model: CouplingModel):
    """Coupling rate (mm^-1) between two waveguides at distance ``d`` um.

    Strictly decreasing in d; raises for non-positive distances.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    c = model.c0 * np.exp(-(d - model.d0) / model.kappa)
    return c if c.ndim else float(c)


class WaveguideLayout:
    """Piecewise-linear waveguide trajectories z -> (x, y) over [0, L].

    Built by :func:`build_lattice`; immutable after construction.
    """

    def __init__(self, base_positions, knot_z, knot_offsets):
        self.base_positions = np.asarray(base_positions, dtype=float)
        self.knot_z = np.asarray(knot_z, dtype=float)
        self.knot_offsets = np.asarray(knot_offsets, dtype=float)
        self.m = self.base_positions.shape[0]
        self.length = float(self.knot_z[-1])

    def positions_at(self, z):
        """Transverse positions at ``z`` (mm).

        Scalar z gives an (m, 2) array; a length-k vector gives (k, m, 2).
        """
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        if np.any((z_arr < 0) | (z_arr > self.length)):
            raise ConfigurationError("z outside [0, L]")
        idx = np.clip(np.searchsorted(self.knot_z, z_arr, side="right") - 1,
                      0, len(self.knot_z) - 2)
        z0 = self.knot_z[idx]
        z1 = self.knot_z[idx + 1]
        t = ((z_arr - z0) / (z1 - z0))[:, None, None]
        pos = (self.base_positions[None, :, :]
               + (1.0 - t) * self.knot_offsets[:, idx, :].transpose(1, 0, 2)
               + t * self.knot_offsets[:, idx + 1, :].transpose(1, 0, 2))
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return pos[0]
        return pos

    def coupled_pairs(self, model: CouplingModel):
        """Index arrays (i, j), i < j, of pairs retained by the coupling model.

        Retention is decided on the ideal geometry so the pair set, and hence
        the Hamiltonian sparsity pattern, does not flicker along z.
        """
        diff = self.base_positions[:, None, :] - self.base_positions[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        iu, ju = np.triu_indices(self.m, k=1)
        keep = d[iu, ju] <= model.max_distance
        keep &= coupling_coefficient(np.maximum(d[iu, ju], 1e-9), model) >= model.truncation
        return iu[keep], ju[keep]


def _ideal_positions(spec: LatticeSpec):
    r = np.arange(spec.rows)
    c = np.arange(spec.cols)
    cc, rr = np.meshgrid(c, r)
    x = cc * spec.pitch + (rr % 2) * spec.pitch / 2.0
    y = rr * spec.pitch * _SQRT3 / 2.0
    return np.column_stack([x.ravel(), y.ravel()])


def build_lattice(spec: LatticeSpec) -> WaveguideLayout:
    """Generate the modulated lattice for ``spec``; deterministic per seed.

    Each of the ``n_modulation_knots`` uniformly spaced z-knots displaces
    every waveguide by radius ~ U[0, max_shift] at angle ~ U[0, 2*pi).
    With max_shift = 0 the ideal lattice is returned at all z.
    """
    base = _ideal_positions(spec)
    knot_z = np.linspace(0.0, spec.coupling_length, spec.n_modulation_knots)
    rng = np.random.default_rng(spec.seed)
    radius = rng.uniform(0.0, spec.max_shift, size=(spec.m, spec.n_modulation_knots))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=(spec.m, spec.n_modulation_knots))
    offsets = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return WaveguideLayout(base, knot_z, offsets)


@dataclass
class HeaterBank:
    """Resistive heaters with hard z-windows and a Gaussian transverse kernel.

    ``positions`` holds one (x, y) um pair per heater, ``z_spans`` the
    half-open [z_on, z_off) activity window in mm, ``powers`` the dissipated
    power per heater in mW. The detuning of waveguide i at coordinate z is

        dk_i(z) = sum_r alpha_t * P_r * exp(-dist_i,r(z)^2 / (2 width^2))

    over heaters whose window covers z: linear in every power.
    """

    positions: np.ndarray          # (n_heaters, 2) um
    z_spans: np.ndarray            # (n_heaters, 2) mm
    powers: np.ndarray             # (n_heaters,) mW
    kernel_width: float = 50.0     # um
    alpha_t: float = 2.0 * math.pi / (500.0 * 0.70 * 3.0)  # mm^-1 per mW

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.z_spans = np.asarray(self.z_spans, dtype=float)
        self.powers = np.asarray(self.powers, dtype=float)
        if self.positions.shape[0] != self.z_spans.shape[0] or \
                self.positions.shape[0] != self.powers.shape[0]:
            raise ConfigurationError("heater arrays must have matching lengths")
        for name in ("positions", "z_spans", "powers", "kernel_width", "alpha_t"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"heater {name} must be finite")
        if np.any(self.powers < 0):
            raise ConfigurationError("heater powers must be nonnegative")
        if self.kernel_width <= 0 or self.alpha_t <= 0:
            raise ConfigurationError("kernel width and alpha_t must be positive")
        _kernel_spread(self.kernel_width)

    @property
    def n_heaters(self) -> int:
        return len(self.powers)

    def z_breakpoints(self):
        """Sorted unique z values where the active heater set changes."""
        return np.unique(self.z_spans.ravel())

    def active(self, z_values) -> np.ndarray:
        """(nz, n_heaters) bool: entry [k, r] tells whether heater r's window
        covers z_k."""
        z = np.asarray(z_values, dtype=float)[:, None]
        return (self.z_spans[:, 0] <= z) & (z < self.z_spans[:, 1])

    def kernels(self, layout: "WaveguideLayout", z_values) -> np.ndarray:
        """Detuning per unit power, shape (nz, m, n_heaters), in mm^-1 per mW.

        Entry [k, i, r] is alpha_t * exp(-dist_i,r(z_k)^2 / (2 width^2)) where
        heater r's window covers z_k and 0 elsewhere, so the detunings at
        z_k are ``kernels(...)[k] @ powers`` for any power vector.
        """
        z = np.asarray(z_values, dtype=float)
        pos = layout.positions_at(z)                                 # (nz, m, 2)
        k, r = np.nonzero(self.active(z))   # the exponential only where a window is on
        dx = pos[k, :, 0] - self.positions[r, None, 0]               # (n_active, m)
        dy = pos[k, :, 1] - self.positions[r, None, 1]
        kern = np.zeros((len(z), layout.m, self.n_heaters))
        kern[k, :, r] = self.alpha_t * np.exp(-(dx * dx + dy * dy) /
                                              _kernel_spread(self.kernel_width))
        return kern


def _kernel_spread(kernel_width) -> float:
    """2 width^2 of the Gaussian heater kernel, which must be a finite number
    > 0: a width whose square underflows or overflows raises
    :class:`ConfigurationError`."""
    try:
        spread = 2.0 * kernel_width ** 2
    except OverflowError:
        spread = math.inf
    if not (kernel_width > 0 and 0 < spread < math.inf):
        raise ConfigurationError(f"heater kernel width {kernel_width!r} um must be > 0 with "
                                 "2 width^2 a finite number > 0")
    return spread


def default_heater_bank(layout: WaveguideLayout, powers=None,
                        kernel_width: float = 50.0) -> HeaterBank:
    """``N_HEATERS`` heaters in two rows at the sides of the coupling region.

    Each side carries ``HEATERS_PER_SIDE`` resistors of ``HEATER_LENGTH`` mm
    whose windows tile [0, L] with even gaps. Heaters sit ``HEATER_STANDOFF``
    um outside the lattice in x and ``SURFACE_HEIGHT`` um above it in y (the
    chip surface). ``alpha_t`` is calibrated so a single heater driven at
    ``CALIBRATION_POWER`` mW imprints a phase of 2*pi on its nearest
    waveguide over one window; a kernel too narrow for that phase to be a
    finite calibration raises :class:`ConfigurationError`.
    """
    base = layout.base_positions
    x_left = base[:, 0].min() - HEATER_STANDOFF
    x_right = base[:, 0].max() + HEATER_STANDOFF
    y_surf = base[:, 1].max() + SURFACE_HEIGHT
    L = layout.length
    pitch_z = L / HEATERS_PER_SIDE
    gap = (pitch_z - HEATER_LENGTH) / 2.0
    if gap < 0:
        raise ConfigurationError("heaters do not fit in the coupling region")
    pos, spans = [], []
    for x_side in (x_left, x_right):
        for r in range(HEATERS_PER_SIDE):
            z0 = r * pitch_z + gap
            pos.append((x_side, y_surf))
            spans.append((z0, z0 + HEATER_LENGTH))
    pos = np.array(pos)
    spans = np.array(spans)
    if powers is None:
        powers = np.zeros(N_HEATERS)
    # nearest approach of any ideal waveguide to a heater fixes the calibration
    d2 = ((base[:, None, 0] - pos[None, :, 0]) ** 2
          + (base[:, None, 1] - pos[None, :, 1]) ** 2)
    # a Python float quotient: one that overflows is inf, with no numpy warning
    kernel_max = float(np.exp(-float(d2.min()) / _kernel_spread(kernel_width)))
    scale = CALIBRATION_POWER * kernel_max * HEATER_LENGTH
    alpha_t = 2.0 * math.pi / scale if scale > 0 else math.inf
    if not math.isfinite(alpha_t):
        raise ConfigurationError(
            f"heater kernel width {kernel_width!r} um is too narrow to calibrate: the "
            f"kernel vanishes at the nearest waveguide, {math.sqrt(d2.min()):.4g} um away")
    return HeaterBank(pos, spans, np.asarray(powers, dtype=float),
                      kernel_width, alpha_t)
