"""Footprint scaling laws for integrated-optics interferometer layouts.

All formulas are closed-form: sinusoidal S-bend lengths, directional
coupler dimensioning, the Clements-mesh length, coupled-mode dispersion
relations with their transverse group velocities, minimum spreading
lengths for planar / square / triangular arrays, and fan-in/out bounds
for linear and grid fiber arrays. Lengths in mm, coupling rates in mm^-1.

The triangular-lattice group velocity is implemented exactly as the
closed form -4 c sin(beta) with maximum 4c, twice the linear/square
maximum; note this is not the literal partial derivative of the
triangular dispersion relation, so the finite-difference identity
holds for the linear and square lattices only.

:func:`compare_layouts` raises :class:`NumericalError` where a length
overflows. Its tables are not checked against :func:`scaling_exponents`:
the affine offset of the Clements length moves that slope off 1 for
valid parameters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, check_fields, check_whole

FAN_ARRANGEMENTS = ("linear", "grid")
# the mode counts scaling_exponents fits over: 12 geometric steps from 8 to 1024
SCALING_MS = tuple(np.unique(np.geomspace(8, 1024, 12).astype(int)).tolist())


@dataclass(frozen=True)
class FootprintParams:
    """Geometry and coupling parameters entering the scaling comparison."""

    r_min: float = 30.0      # minimum bend radius, mm
    p: float = 0.06          # waveguide pitch in the mesh, mm
    p_f: float = 0.127       # fiber array pitch, mm
    c: float = 1.0           # coupling rate, mm^-1
    b: float = 2.0           # spreading constant of the 2D minimum length
    fan_arrangement: str = "linear"

    def __post_init__(self):
        check_fields(self)
        if min(self.r_min, self.p, self.p_f, self.c, self.b) <= 0:
            raise ConfigurationError("lengths, rates and B must be positive")
        if self.fan_arrangement not in FAN_ARRANGEMENTS:
            raise ConfigurationError(f"unknown fan arrangement {self.fan_arrangement!r}")


def sbend_length(r_min: float, h: float) -> float:
    """Length of a sinusoidal S-bend of elongation h at minimum radius r_min."""
    if r_min <= 0:
        raise ConfigurationError("r_min must be positive")
    if h < 0:
        raise ConfigurationError("elongation must be nonnegative")
    return (math.pi / 2.0) * math.sqrt(2.0 * r_min * h)


def coupler_reflectivity(c: float, l_c: float, phi0: float = 0.0) -> float:
    """Directional-coupler reflectivity sin^2(c L_C + phi0)."""
    if c <= 0 or l_c < 0:
        raise ConfigurationError("need c > 0 and L_C >= 0")
    return math.sin(c * l_c + phi0) ** 2


def coupler_length(c: float) -> float:
    """Interaction length pi / (2c) of a full-transfer coupler (phi0 = 0)."""
    if c <= 0:
        raise ConfigurationError("coupling rate must be positive")
    return math.pi / (2.0 * c)


def clements_length(m: int, r_min: float, p: float, c: float) -> float:
    """Length of the m-mode Clements mesh: (m-1) S-bends plus m couplers."""
    check_whole(m, "m", 2)
    return (m - 1) * sbend_length(r_min, p) + m * coupler_length(c)


def clements_increment(r_min: float, p: float, c: float) -> float:
    """Added length per extra mode, (pi/2)(sqrt(2 r_min p) + 1/c)."""
    return sbend_length(r_min, p) + coupler_length(c)


def dispersion(lattice_kind: str, c: float, beta_x, beta_y=0.0):
    """Longitudinal wavevector beta_z(beta_x, beta_y) of the infinite array."""
    beta_x = np.asarray(beta_x, dtype=float)
    beta_y = np.asarray(beta_y, dtype=float)
    if lattice_kind == "linear":
        out = 2.0 * c * np.cos(beta_x)
    elif lattice_kind == "square":
        out = 2.0 * c * (np.cos(beta_x) + np.cos(beta_y))
    elif lattice_kind == "triangular":
        out = 2.0 * c * (np.cos(beta_x) + np.cos(beta_y) + np.cos(beta_x + beta_y))
    else:
        raise ConfigurationError(f"unknown lattice kind {lattice_kind!r}")
    return float(out) if out.ndim == 0 else out


def group_velocity(lattice_kind: str, c: float, beta_x, beta_y=0.0):
    """Transverse group velocity (v_x, v_y) in waveguide indices per mm.

    Linear and square arrays: v = -2 c sin(beta), maximum 2c. Triangular
    arrays: v = -4 c sin(beta) along either Bravais direction, maximum 4c.
    """
    beta_x = np.asarray(beta_x, dtype=float)
    beta_y = np.asarray(beta_y, dtype=float)
    if lattice_kind == "linear":
        vx, vy = -2.0 * c * np.sin(beta_x), np.zeros_like(beta_y)
    elif lattice_kind == "square":
        vx, vy = -2.0 * c * np.sin(beta_x), -2.0 * c * np.sin(beta_y)
    elif lattice_kind == "triangular":
        vx, vy = -4.0 * c * np.sin(beta_x), -4.0 * c * np.sin(beta_y)
    else:
        raise ConfigurationError(f"unknown lattice kind {lattice_kind!r}")
    if vx.ndim == 0:
        return float(vx), float(vy)
    return vx, vy


def min_spread_length(lattice_kind: str, m: int, c: float, b: float = 2.0) -> float:
    """Minimum array length for light to spread over all m waveguides.

    Planar: m / (2c). Square lattice: B sqrt(m) / (2c). Triangular lattice:
    half the square value thanks to the doubled group velocity.
    """
    check_whole(m, "m", 2)
    if c <= 0 or b <= 0:
        raise ConfigurationError("need c > 0 and B > 0")
    if lattice_kind == "linear":
        return m / (2.0 * c)
    if lattice_kind == "square":
        return b * math.sqrt(m) / (2.0 * c)
    if lattice_kind == "triangular":
        return b * math.sqrt(m) / (4.0 * c)
    raise ConfigurationError(f"unknown lattice kind {lattice_kind!r}")


def fan_length(m: int, r_min: float, p_f: float, arrangement: str = "linear") -> float:
    """Length bound of a fan-in/out section matching an m-fiber array.

    Linear arrays bound the S-bend elongation by half the array width,
    giving (pi/2) sqrt((m-1) r_min p_f). A grid array of ceil(sqrt(m))
    columns caps the elongation at p_f (ceil(sqrt(m)) - 1) / 2, so the
    length grows only as the fourth root of m.
    """
    check_whole(m, "m", 2)
    if arrangement == "linear":
        return (math.pi / 2.0) * math.sqrt((m - 1) * r_min * p_f)
    if arrangement == "grid":
        h_max = p_f * (math.ceil(math.sqrt(m)) - 1) / 2.0
        return sbend_length(r_min, h_max)
    raise ConfigurationError(f"unknown fan arrangement {arrangement!r}")


def scaling_exponents(params: FootprintParams):
    """Log-log slopes of L_Clem and triangular L_m versus m over ``SCALING_MS``."""
    clem = [clements_length(m, params.r_min, params.p, params.c) for m in SCALING_MS]
    tri = [min_spread_length("triangular", m, params.c, params.b) for m in SCALING_MS]
    slope_clem = np.polyfit(np.log(SCALING_MS), np.log(clem), 1)[0]
    slope_tri = np.polyfit(np.log(SCALING_MS), np.log(tri), 1)[0]
    return float(slope_clem), float(slope_tri)


def compare_layouts(m_values, params: FootprintParams):
    """Scaling table (m, L_Clem, L_m planar, L_m triangular, L_F) in mm.

    A length that overflows to infinity, at extreme parameters, raises
    :class:`NumericalError` naming it and its m, and so does an m too large
    to convert to a float.
    """
    rows = []
    for m in m_values:
        if check_whole(m, "m", 2) > sys.float_info.max:
            raise NumericalError(f"m = 10**{math.log10(m):.2f} overflows a float")
        rows.append((int(m), clements_length(m, params.r_min, params.p, params.c),
                     min_spread_length("linear", m, params.c),
                     min_spread_length("triangular", m, params.c, params.b),
                     fan_length(m, params.r_min, params.p_f, params.fan_arrangement)))
    for m, *lengths in rows:
        for name, length in zip(("L_clements", "L_spread_planar", "L_spread_triangular",
                                 "L_fan"), lengths):
            if not math.isfinite(length):
                raise NumericalError(f"{name} at m = {m} overflows to {length}")
    return rows
