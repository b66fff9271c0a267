import math
import sys

import numpy as np
import pytest

from photonlat.errors import ConfigurationError, NumericalError
from photonlat.footprint import (FootprintParams, clements_increment,
                                 clements_length, compare_layouts,
                                 coupler_length, coupler_reflectivity,
                                 dispersion, fan_length, group_velocity,
                                 min_spread_length, sbend_length,
                                 scaling_exponents)


class TestSbend:
    def test_reference_value(self):
        assert sbend_length(30.0, 0.06) == pytest.approx(2.980, abs=2e-3)

    def test_zero_elongation(self):
        assert sbend_length(30.0, 0.0) == 0.0

    def test_square_root_scaling(self):
        assert sbend_length(30.0, 0.24) == pytest.approx(2 * sbend_length(30.0, 0.06))


class TestCoupler:
    def test_full_transfer_length(self):
        assert coupler_reflectivity(1.0, coupler_length(1.0)) == pytest.approx(1.0)

    def test_zero_length(self):
        assert coupler_reflectivity(0.7, 0.0) == 0.0

    def test_length_value(self):
        assert coupler_length(1.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_reflectivity_in_range(self):
        for lc in np.linspace(0, 5, 17):
            assert 0.0 <= coupler_reflectivity(0.8, lc, 0.3) <= 1.0


class TestClements:
    def test_per_mode_increment(self):
        inc = clements_increment(30.0, 0.06, 1.0)
        assert inc == pytest.approx(4.55, abs=0.01)

    def test_32_mode_length(self):
        val = clements_length(32, 30.0, 0.06, 1.0)
        assert val == pytest.approx(31 * 2.980 + 32 * math.pi / 2, abs=0.05)
        assert val == pytest.approx(142.6, abs=0.2)
        # reconfigurable Mach-Zehnder variant doubles the optical depth
        assert 2 * val == pytest.approx(300.0, rel=0.06)

    def test_two_modes(self):
        val = clements_length(2, 30.0, 0.06, 1.0)
        assert val == pytest.approx(sbend_length(30.0, 0.06) + 2 * coupler_length(1.0))

    def test_rejects_single_mode(self):
        with pytest.raises(ConfigurationError):
            clements_length(1, 30.0, 0.06, 1.0)


class TestDispersion:
    def test_linear_band_center(self):
        assert dispersion("linear", 0.3, 0.0) == pytest.approx(0.6)
        vx, vy = group_velocity("linear", 0.3, 0.0)
        assert vx == 0.0 and vy == 0.0

    def test_linear_max_velocity(self):
        vx, _ = group_velocity("linear", 0.3, math.pi / 2)
        assert abs(vx) == pytest.approx(2 * 0.3)

    def test_square_dispersion(self):
        assert dispersion("square", 0.5, 0.3, 0.8) == pytest.approx(
            2 * 0.5 * (math.cos(0.3) + math.cos(0.8)))

    def test_triangular_dispersion(self):
        assert dispersion("triangular", 0.5, 0.3, 0.8) == pytest.approx(
            2 * 0.5 * (math.cos(0.3) + math.cos(0.8) + math.cos(1.1)))

    def test_triangular_max_velocity_doubles_linear(self):
        c = 0.2
        v_tri = max(abs(group_velocity("triangular", c, b)[0])
                    for b in np.linspace(-math.pi, math.pi, 721))
        v_lin = max(abs(group_velocity("linear", c, b)[0])
                    for b in np.linspace(-math.pi, math.pi, 721))
        assert v_tri == pytest.approx(4 * c, rel=1e-4)
        assert v_tri == pytest.approx(2 * v_lin, rel=1e-4)

    @pytest.mark.parametrize("kind", ["linear", "square"])
    def test_group_velocity_is_dispersion_derivative(self, kind):
        c, eps = 0.37, 1e-5
        rng = np.random.default_rng(0)
        for _ in range(20):
            bx, by = rng.uniform(-math.pi, math.pi, 2)
            vx, vy = group_velocity(kind, c, bx, by)
            fd_x = (dispersion(kind, c, bx + eps, by)
                    - dispersion(kind, c, bx - eps, by)) / (2 * eps)
            assert abs(fd_x - vx) < 1e-6
            fd_y = (dispersion(kind, c, bx, by + eps)
                    - dispersion(kind, c, bx, by - eps)) / (2 * eps)
            assert abs(fd_y - vy) < 1e-6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            dispersion("hexagonal", 1.0, 0.0)


class TestMinSpread:
    def test_planar_device_value(self):
        assert min_spread_length("linear", 32, 0.2) == pytest.approx(80.0)

    def test_triangular_device_value(self):
        val = min_spread_length("triangular", 32, 0.2, b=2.0)
        assert val == pytest.approx(2 * math.sqrt(32) / 0.8, abs=1e-12)
        assert val == pytest.approx(14.1, abs=0.1)
        # order 15 mm at device parameters; the 36 mm array exceeds 2 L_m
        assert 7.5 < val < 22.5
        assert 36.0 > 2 * val

    def test_triangular_halves_square(self):
        sq = min_spread_length("square", 100, 0.3, b=1.7)
        tri = min_spread_length("triangular", 100, 0.3, b=1.7)
        assert tri == pytest.approx(sq / 2)

    def test_single_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            min_spread_length("linear", 1, 0.2)


class TestFanLength:
    def test_linear_device_value(self):
        assert fan_length(32, 30.0, 0.127) == pytest.approx(17.1, abs=0.1)

    def test_grid_device_value(self):
        assert fan_length(32, 30.0, 0.25, "grid") == pytest.approx(9.6, abs=0.1)

    def test_two_mode_linear(self):
        assert fan_length(2, 30.0, 0.127) == pytest.approx(
            (math.pi / 2) * math.sqrt(30.0 * 0.127))

    def test_grid_quartic_root_scaling(self):
        # doubling m twice (x4) should scale the grid fan by ~sqrt(2)
        l1 = fan_length(256, 30.0, 0.25, "grid")
        l2 = fan_length(1024, 30.0, 0.25, "grid")
        assert l2 / l1 == pytest.approx(math.sqrt(2), rel=0.05)


class TestCompareLayouts:
    def test_scaling_exponents(self):
        params = FootprintParams(c=1.0)
        slope_clem, slope_tri = scaling_exponents(params)
        assert abs(slope_clem - 1.0) <= 0.02
        assert abs(slope_tri - 0.5) <= 0.02

    def test_table_monotone_in_m(self):
        params = FootprintParams()
        rows = compare_layouts([8, 16, 32, 64, 128], params)
        arr = np.array([r[1:] for r in rows])
        assert np.all(np.diff(arr, axis=0) > 0)

    def test_triangular_beats_clements_at_device_scale(self):
        params = FootprintParams(c=0.2, fan_arrangement="grid", p_f=0.25)
        (row,) = compare_layouts([32], params)
        m, l_clem, _, l_tri, l_fan = row
        assert l_tri + 2 * l_fan < l_clem

    def test_dimensional_rescaling(self):
        # lengths scale linearly when all lengths (and 1/rates) are rescaled
        s = 2.5
        base = FootprintParams()
        scaled = FootprintParams(r_min=base.r_min * s, p=base.p * s,
                                 p_f=base.p_f * s, c=base.c / s, b=base.b)
        for m in (8, 32, 128):
            r0 = compare_layouts([m], base)[0]
            r1 = compare_layouts([m], scaled)[0]
            assert np.allclose(np.array(r1[1:]), s * np.array(r0[1:]), rtol=1e-12)

    @pytest.mark.parametrize("field, value, length", [
        ("r_min", sys.float_info.max, "L_clements"), ("p", sys.float_info.max, "L_clements"),
        ("p_f", sys.float_info.max, "L_fan"), ("b", sys.float_info.max, "L_spread_triangular"),
        ("c", 5e-324, "L_clements")])
    def test_overflowing_length_raises_numerical_error(self, field, value, length):
        with pytest.raises(NumericalError, match=rf"^{length} at m = 8 overflows to inf$"):
            compare_layouts([8, 16], FootprintParams(**{field: value}))

    @pytest.mark.parametrize("power", [400, 5000])
    def test_m_beyond_a_float_raises_numerical_error(self, power):
        # once an OverflowError from (m - 1) * sbend_length; 10**5000 has no str
        with pytest.raises(NumericalError, match=rf"^m = 10\*\*{power}\.00 overflows a float$"):
            compare_layouts([8, 10 ** power], FootprintParams())

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            FootprintParams(r_min=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("r_min", math.nan), ("p", math.inf), ("p_f", -math.inf), ("c", True),
        ("b", "2")])
    def test_non_finite_or_boolean_param_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=rf"^FootprintParams\.{field} = "):
            FootprintParams(**{field: value})
