import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlat import reconstruction
from photonlat.errors import (ConfigurationError, FitError, UndefinedVisibilityError,
                              UnderdeterminedError)
from photonlat.haarstats import haar_unitary
from photonlat.interference import FockPattern, output_probability
from photonlat.reconstruction import (DEFAULT_DIP_SIGMA, SCAN_POSITIONS,
                                      HomDataset, ReconstructedSubmatrix, _fit_dips,
                                      _phase_jacobian, dip_profile, dip_residuals,
                                      fit_dip, gauge_distance, hom_plateau,
                                      hom_visibility, reconstruct_moduli,
                                      reconstruct_phases, refine_chi2,
                                      simulate_hom_dataset, submatrix_rows)

from oracles import finite_difference_jacobian, stacked_dip_fit, trf_moduli, trf_phases

BS = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)


def poisson_scan(a, v, x0, sigma, positions, mean_counts, rng_seed):
    """Counts per delay position, Poisson around mean_counts * dip_profile."""
    f = dip_profile(positions, a, v, x0, sigma)
    return np.random.default_rng(rng_seed).poisson(mean_counts * f).astype(float)


def gauge_fixed_truth(u, inputs):
    t = submatrix_rows(u, inputs)
    theta = np.angle(t)
    fixed = theta - theta[0:1, :] - theta[:, 0:1] + theta[0, 0]
    return np.abs(t), np.angle(np.exp(1j * fixed))


class TestHomQuantities:
    def test_plateau_identity_cases(self):
        u = np.eye(6, dtype=complex)
        assert hom_plateau(u, 0, 1, 0, 1) == pytest.approx(1.0)
        assert hom_plateau(u, 0, 1, 2, 3) == pytest.approx(0.0)

    def test_plateau_equals_distinguishable_probability(self, device_unitary):
        u = device_unitary
        rng = np.random.default_rng(0)
        for _ in range(25):
            h, k = rng.choice(32, size=2, replace=False)
            i, j = rng.choice(32, size=2, replace=False)
            inp = FockPattern.from_modes((h, k), 32)
            out = FockPattern.from_modes((i, j), 32)
            d = output_probability(u, inp, out, "distinguishable")
            assert hom_plateau(u, h, k, min(i, j), max(i, j)) == pytest.approx(d, abs=1e-12)

    def test_visibility_full_dip_on_balanced_coupler(self):
        assert hom_visibility(BS, 0, 1, 0, 1) == pytest.approx(1.0)

    def test_visibility_expressions_agree(self, device_unitary):
        u = device_unitary
        rho = np.abs(u)
        theta = np.angle(u)
        iu, ju = np.triu_indices(32, k=1)
        h, k = 11, 19
        for i, j in zip(iu[::7], ju[::7]):
            a = hom_plateau(u, h, k, i, j)
            v1 = hom_visibility(u, h, k, i, j)
            quad = theta[i, h] + theta[j, k] - theta[j, h] - theta[i, k]
            v2 = -(2 * rho[i, h] * rho[j, k] * rho[j, h] * rho[i, k] / a) * math.cos(quad)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_visibility_undefined_for_zero_plateau(self):
        u = np.eye(4, dtype=complex)
        with pytest.raises(UndefinedVisibilityError):
            hom_visibility(u, 0, 1, 2, 3)


class TestDipScan:
    def test_flat_scan_at_zero_visibility(self):
        counts = poisson_scan(0.4, 0.0, 0.0, 30.0, SCAN_POSITIONS, mean_counts=5000,
                              rng_seed=1)
        assert counts.std() < 5 * math.sqrt(2000)
        assert counts.mean() == pytest.approx(5000 * 0.4, rel=0.05)

    def test_far_tail_reaches_plateau(self):
        x = np.array([-300.0, 300.0])   # beyond 6 sigma
        f = dip_profile(x, 0.5, -0.9, 0.0, 30.0)
        assert np.allclose(f, 0.5, atol=1e-7)

    def test_noiseless_mode_reproduces_profile_exactly(self):
        # the 4-mode Fourier matrix has entries +-1/2 and +-i/2, so every
        # plateau and visibility is exact in binary and rounds alike however
        # it is evaluated
        u = np.array([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]) / 2
        _, scans = simulate_hom_dataset(u, (0, 1, 2), keep_scans=True)
        assert len(scans) == 2 * 6
        for ((h, k), (i, j)), (x, f) in scans.items():
            a = hom_plateau(u, h, k, i, j)
            v = -hom_visibility(u, h, k, i, j)
            assert x is SCAN_POSITIONS
            assert np.array_equal(f, dip_profile(x, a, v, 0.0, DEFAULT_DIP_SIGMA))

    def test_poisson_scan_deterministic_per_seed(self, device_unitary):
        def scans(seed):
            return simulate_hom_dataset(device_unitary, (11, 12), rng_seed=seed,
                                        mean_plateau_counts=1e4, keep_scans=True)[1]
        a, b, c = scans(3), scans(3), scans(4)
        assert a.keys() == b.keys() == c.keys()
        assert all(np.array_equal(a[key][1], b[key][1]) for key in a)
        assert not all(np.array_equal(a[key][1], c[key][1]) for key in a)


class TestCampaignInputs:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_input_list_rejected(self, data):
        # unchecked, input -1 reconstructed mode m - 1 under the label -1,
        # and input 9 of a 6-mode U raised a raw IndexError
        m = 6
        u = haar_unitary(m, 0).entries
        inputs = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=4,
                                    unique=True))
        bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=m),
                                  st.sampled_from(inputs), st.booleans(), st.floats(),
                                  st.just("1")))
        inputs.insert(data.draw(st.integers(0, len(inputs))), bad)
        with pytest.raises(ConfigurationError, match="must be distinct whole numbers"):
            submatrix_rows(u, inputs)
        with pytest.raises(ConfigurationError, match="must be distinct whole numbers"):
            simulate_hom_dataset(u, inputs)

    @pytest.mark.parametrize("counts", [0, 0.0, -5, math.nan, math.inf, True, "1e4"])
    def test_bad_mean_plateau_counts_rejected(self, counts):
        # unchecked, 0 raised FitError and -5 or NaN numpy's raw ValueError
        with pytest.raises(ConfigurationError, match="mean_plateau_counts"):
            simulate_hom_dataset(haar_unitary(6, 0).entries, (0, 1),
                                 mean_plateau_counts=counts)


class TestFitDip:
    def test_noiseless_round_trip(self):
        x = SCAN_POSITIONS
        f = dip_profile(x, 0.5, -0.8, 0.0, 30.0)
        fit = fit_dip(x, f)
        assert fit.a == pytest.approx(0.5, abs=1e-6)
        assert fit.v == pytest.approx(-0.8, abs=1e-6)

    def test_flat_noiseless_scan_gives_zero_visibility(self):
        x = SCAN_POSITIONS
        fit = fit_dip(x, np.full_like(x, 0.25))
        assert fit.a == pytest.approx(0.25, abs=1e-9)
        assert fit.v == pytest.approx(0.0, abs=1e-6)

    def test_flat_noisy_scan_keeps_dip_inside_scan(self):
        # an unbounded fit of this scan collapses to a width below the
        # point spacing; the bounds must hold it inside the scan
        x = SCAN_POSITIONS
        counts = np.array([1684, 1666, 1580, 1702, 1629, 1655, 1674, 1616, 1573,
                           1627, 1562, 1655, 1602, 1651, 1692, 1637, 1703, 1676,
                           1666, 1651, 1593], dtype=float)
        fit = fit_dip(x, counts)
        assert x.min() <= fit.x0 <= x.max()
        assert fit.sigma >= (x.max() - x.min()) / (len(x) - 1)
        assert fit.sigma <= (x.max() - x.min()) / 2

    def test_scan_without_counts_is_a_fit_error(self):
        with pytest.raises(FitError, match="plateau that is not > 0"):
            fit_dip(SCAN_POSITIONS, np.zeros(len(SCAN_POSITIONS)))

    @pytest.mark.parametrize("mean_counts", [1, 0.01])
    def test_campaign_with_empty_scans_is_a_fit_error(self, mean_counts):
        # the plateau a = 0 of an empty scan leaves V = aV / a undefined;
        # that is a failed fit (exit 3), not a malformed dataset (exit 2)
        with pytest.raises(FitError):
            simulate_hom_dataset(haar_unitary(8, 0).entries, (0, 1, 2),
                                 mean_plateau_counts=mean_counts)

    def test_too_few_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_dip(np.arange(5.0), np.ones(5))

    def test_poisson_coverage(self):
        x = SCAN_POSITIONS
        rng = np.random.default_rng(8)
        hits = 0
        trials = 1000
        for _ in range(trials):
            counts = poisson_scan(1.0, -0.6, 0.0, 30.0, x, 1e4,
                                  rng_seed=rng.integers(2 ** 63))
            fit = fit_dip(x, counts)
            if abs(fit.v - (-0.6)) <= 3 * fit.v_err:
                hits += 1
        assert hits / trials >= 0.99

    @pytest.mark.parametrize("positions, counts", [
        (SCAN_POSITIONS, np.ones(10)),                                  # lengths differ
        (SCAN_POSITIONS, np.r_[np.nan, np.ones(20)]),                   # NaN count
        (SCAN_POSITIONS, np.r_[-1.0, np.ones(20)]),                     # negative count
        (np.r_[np.inf, SCAN_POSITIONS[1:]], np.ones(21)),               # infinite position
        (SCAN_POSITIONS[:, None], np.ones(21)),                         # 2-D positions
        (np.full(21, 5.0), np.ones(21)),                                # zero scan range
        (SCAN_POSITIONS, ["a"] * 21),                                   # not numbers
    ])
    def test_malformed_scan_rejected(self, positions, counts):
        with pytest.raises(ConfigurationError):
            fit_dip(positions, counts)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(1e-3, 1.0),
           v=st.one_of(st.floats(-1.0, -0.05), st.floats(0.05, 1.0)),
           x0=st.floats(-30.0, 30.0), sigma=st.floats(20.0, 45.0))
    def test_noiseless_round_trip_recovers_every_parameter(self, a, v, x0, sigma):
        x = SCAN_POSITIONS
        fit = fit_dip(x, dip_profile(x, a, v, x0, sigma))
        assert fit.a == pytest.approx(a, rel=1e-6)
        assert fit.v == pytest.approx(v, rel=1e-6)
        # x0 may be 0: relative to the width
        assert fit.x0 == pytest.approx(x0, rel=1e-6, abs=1e-6 * sigma)
        assert fit.sigma == pytest.approx(sigma, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=12),
           pick=st.integers(0, 11))
    def test_dip_fit_does_not_depend_on_its_stack(self, seeds, pick):
        x = SCAN_POSITIONS
        rngs = [np.random.default_rng(s) for s in seeds]
        counts = np.array([poisson_scan(rng.uniform(0.2, 1.0), rng.uniform(-1.0, 0.3),
                                        rng.uniform(-20.0, 20.0), rng.uniform(20.0, 40.0),
                                        x, 1e4, rng_seed=rng.integers(2 ** 63))
                           for rng in rngs])
        pick %= len(seeds)
        coef, shape, cov = _fit_dips(x, counts, np.arange(len(seeds)))
        alone = fit_dip(x, counts[pick])
        (a, b), (c00, c01), (_, c11) = coef[pick], *cov[pick]
        v_var = (b / a) ** 2 * c00 / a ** 2 - 2 * b * c01 / a ** 3 + c11 / a ** 2
        np.testing.assert_allclose([alone.a, alone.v, alone.x0, alone.sigma],
                                   [a, b / a, *shape[pick]], rtol=1e-12, atol=0)
        np.testing.assert_allclose([alone.a_err, alone.v_err], np.sqrt([c00, v_var]),
                                   rtol=1e-12, atol=0)

    def test_campaign_agrees_with_curve_fit(self, device_unitary):
        ds, scans = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=3,
                                        mean_plateau_counts=1e4, keep_scans=True)
        x = SCAN_POSITIONS
        counts = np.array([c for _, c in scans.values()])
        groups = np.repeat(np.arange(ds.n_pairs), ds.valid.sum(axis=1))
        assert counts.shape == (992, len(x))
        coef, shape, cov = _fit_dips(x, counts, groups)
        want, want_shape, want_cov = stacked_dip_fit(x, counts, groups)
        # the (a, aV) covariance carried to (a, V)
        a, b = coef.T
        jac = np.zeros((len(a), 2, 2))
        jac[:, 0, 0], jac[:, 1, 0], jac[:, 1, 1] = 1.0, -b / a ** 2, 1.0 / a
        err = np.sqrt(np.diagonal(jac @ cov @ jac.transpose(0, 2, 1), axis1=1, axis2=2))
        want_err = np.sqrt(np.diagonal(want_cov, axis1=1, axis2=2))
        shift = (np.abs(np.column_stack([a, b / a]) - want) / want_err).max(axis=1)
        assert (shift <= 1e-2).mean() >= 0.99
        assert (np.abs(err - want_err) / want_err <= 1e-3).all(axis=1).mean() >= 0.99
        np.testing.assert_allclose(shape, want_shape, rtol=1e-3)

    def test_noiseless_campaign_recovers_shared_centre_and_width(self, device_unitary):
        ds, scans = simulate_hom_dataset(device_unitary, (11, 12, 19), keep_scans=True)
        x = SCAN_POSITIONS
        groups = np.repeat(np.arange(ds.n_pairs), ds.valid.sum(axis=1))
        coef, shape, _ = _fit_dips(x, np.array([c for _, c in scans.values()]), groups)
        np.testing.assert_allclose(shape, [[0.0, DEFAULT_DIP_SIGMA]] * ds.n_pairs,
                                   rtol=0, atol=1e-9)
        v_true = [-hom_visibility(device_unitary, h, k, i, j) for (h, k), (i, j) in scans]
        np.testing.assert_allclose(coef[:, 1] / coef[:, 0], v_true, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ds.visibilities[ds.valid], v_true, rtol=0, atol=1e-9)

    def test_dip_fits_log_what_they_did(self, device_unitary, caplog):
        inputs = (11, 12, 19)
        with caplog.at_level(logging.DEBUG, logger="photonlat.reconstruction"):
            ds = simulate_hom_dataset(device_unitary, inputs, rng_seed=3,
                                      mean_plateau_counts=1e4)
            simulate_hom_dataset(device_unitary, inputs)
        fits = [re.fullmatch(r"dip group (\d+) fit: (\d+) evaluations, (\d+) Jacobians, "
                             r"status (-?\d+), chi2 (\S+) -> (\S+), x0 (\S+), sigma (\S+)",
                             r.getMessage()).groups()
                for r in caplog.records if r.name == "photonlat.reconstruction.fits"]
        # one fit per input pair in each campaign, labelled by pair index
        assert [int(fit[0]) for fit in fits] == [0, 1, 0, 1]
        for _, nfev, njev, status, before, after, x0, sigma in fits:
            assert 1 <= int(njev) <= int(nfev) and 1 <= int(status) <= 4
            assert float(after) <= float(before)
            assert abs(float(x0)) < 0.1 and abs(float(sigma) - DEFAULT_DIP_SIGMA) < 0.1
        # noisy chi2 near its n_points - 2 degrees of freedom per dip
        for (*_, after, _, _), n_dips in zip(fits[:2], ds.valid.sum(axis=1)):
            assert abs(float(after) / (n_dips * (len(SCAN_POSITIONS) - 2)) - 1.0) < 0.1
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "photonlat.reconstruction"]
        assert len(messages) == 2
        fits = 3 * ds.valid.sum()
        floored, total = map(int, re.search(r"(\d+) of (\d+) dip uncertainties raised "
                                            r"to the floor", messages[0]).groups())
        assert total == fits and floored < total
        # the noiseless campaign: 1e-6 of the mean plateau for every uncertainty
        assert re.search(rf"{fits} of {fits} dip uncertainties raised", messages[1])

    def test_campaign_scans_are_one_poisson_draw(self, device_unitary):
        # the scans of a campaign are one Poisson draw over the whole
        # (dips, positions) profile stack, in dip order, from the campaign seed
        ds, scans = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=3,
                                         mean_plateau_counts=1e4, keep_scans=True)
        assert len(scans) == ds.valid.sum()
        plateaus = np.array([hom_plateau(device_unitary, h, k, i, j)
                             for (h, k), (i, j) in scans])
        v = np.array([-hom_visibility(device_unitary, h, k, i, j) for (h, k), (i, j) in scans])
        exposure = 1e4 * len(plateaus) / plateaus.sum()
        want = np.random.default_rng(3).poisson(
            dip_profile(SCAN_POSITIONS, exposure * plateaus[:, None], v[:, None], 0.0,
                        DEFAULT_DIP_SIGMA))
        assert np.array_equal(np.array([row for _, row in scans.values()]), want)


class TestDipIndex:
    def test_index_and_residuals_match_per_dip_loop(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs,
                                  input_pairs=((11, 12), (19, 11), (12, 19)))
        truth = submatrix_rows(device_unitary, inputs)
        dips, expected = [], []
        for p, (h, k) in enumerate(ds.input_pairs):
            hr, kr = inputs.index(h), inputs.index(k)
            for d in np.nonzero(ds.valid[p])[0]:
                i, j = int(ds.out_i[d]), int(ds.out_j[d])
                dips.append((p, hr, kr, i, j))
                assert ds.plateaus[p, d] == pytest.approx(
                    hom_plateau(device_unitary, h, k, i, j), abs=1e-9)
                amp = truth[hr, i] * truth[kr, j] + truth[hr, j] * truth[kr, i]
                target = ds.plateaus[p, d] * (1 + ds.visibilities[p, d])
                expected.append((target - abs(amp) ** 2) / ds.errors[p, d])
        index = zip(ds.dip_pair, ds.dip_h, ds.dip_k, ds.dip_i, ds.dip_j)
        assert [tuple(map(int, dip)) for dip in index] == dips
        got = dip_residuals(np.angle(truth), np.abs(truth), ds)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-6)

    @pytest.mark.parametrize("change", [
        {"input_pairs": ((11, 99),)}, {"input_pairs": ((11, 11),)},
        {"input_pairs": ((11, 12, 19),)},
        {"n_outputs": 40}, {"plateaus": "short"}, {"plateaus": np.nan},
        {"visibilities": np.inf}, {"errors": 0.0}, {"va_errors": -1.0},
        {"intensities": "short"},
    ])
    def test_malformed_dataset_rejected(self, device_unitary, change):
        doc = simulate_hom_dataset(device_unitary, (11, 12)).to_dict()
        d = doc["valid"][0].index(1)
        for key, val in change.items():
            if val == "short":
                doc[key] = [row[:-1] for row in doc[key]]
            elif isinstance(val, float):
                doc[key][0][d] = val
            else:
                doc[key] = val
        with pytest.raises(ConfigurationError):
            HomDataset.from_dict(doc)


class TestModuli:
    def test_noiseless_round_trip(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs)
        moduli = reconstruct_moduli(ds)
        truth = np.abs(submatrix_rows(device_unitary, inputs))
        assert np.abs(moduli - truth).max() < 1e-6

    def test_underdetermined_dataset_rejected(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs,
                                  input_pairs=((11, 12),))
        with pytest.raises(UnderdeterminedError):
            reconstruct_moduli(ds)

    @pytest.mark.filterwarnings("error")
    def test_identity_like_unitary(self):
        # the cost reaches 0 here, where no damping update may overflow
        u = np.eye(8, dtype=complex)
        ds = simulate_hom_dataset(u, (0, 1, 2))
        assert ds.valid.sum() < ds.valid.size   # most dips undefined
        moduli = reconstruct_moduli(ds)
        truth = np.abs(submatrix_rows(u, (0, 1, 2)))
        # zero moduli are only pinned to sqrt(solver tolerance)
        assert np.abs(moduli - truth).max() < 1e-3
        assert np.array_equal(np.round(moduli), truth)

    def test_zero_intensity_does_not_pin_its_modulus(self, device_unitary):
        # a Poisson zero: at r = 0 the gradient in r vanishes, so the start
        # must lift the entry off 0 for the plateaus to move it
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs)
        truth = np.abs(submatrix_rows(device_unitary, inputs))
        row, col = np.unravel_index(truth.argmax(), truth.shape)
        intensities = ds.intensities.copy()
        intensities[row, col] = 0.0
        moduli = reconstruct_moduli(replace(ds, intensities=intensities))
        assert truth[row, col] > 0.3
        assert np.abs(moduli - truth).max() < 1e-6

    def test_multiplicative_noise_study(self, device_unitary):
        inputs = (11, 12, 19)
        clean = simulate_hom_dataset(device_unitary, inputs)
        rng = np.random.default_rng(5)
        noisy_a = clean.plateaus * (1 + 0.01 * rng.standard_normal(clean.plateaus.shape))
        eps = 0.01 * np.maximum(clean.plateaus, clean.plateaus[clean.valid].mean())
        q_true = np.abs(submatrix_rows(device_unitary, inputs)) ** 2
        ds = HomDataset(32, clean.rows, clean.input_pairs, noisy_a,
                        clean.visibilities, clean.errors, eps, clean.valid,
                        intensities=q_true * (1 + 0.01 * rng.standard_normal(q_true.shape)),
                        va_errors=clean.errors)
        moduli = reconstruct_moduli(ds)
        truth = np.abs(submatrix_rows(device_unitary, inputs))
        rel = np.abs(moduli - truth) / truth
        assert np.median(rel) < 0.03


class TestPhases:
    def test_noiseless_round_trip_quadruples(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs)
        moduli = reconstruct_moduli(ds)
        candidate = reconstruct_phases(ds, moduli)
        truth = submatrix_rows(device_unitary, inputs)
        _, phase_rmse = gauge_distance(candidate, truth)
        assert phase_rmse < 1e-6

    def test_real_valued_target_recovers_sign_pattern(self):
        # a real orthogonal circuit has phases 0 / pi only; the chi-square
        # is flat to first order exactly there, so the claim is the exact
        # sign pattern, not a phase tolerance
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        u = q.astype(complex)
        inputs = (0, 1, 2)
        ds = simulate_hom_dataset(u, inputs)
        moduli = reconstruct_moduli(ds)
        candidate = reconstruct_phases(ds, moduli)
        assert np.abs(np.sin(candidate.phases)).max() < 1e-3
        moduli_t, phases_t = gauge_fixed_truth(u, inputs)
        signs_got = np.sign(np.cos(candidate.phases))
        signs_true = np.sign(np.cos(phases_t))
        relevant = moduli_t > 1e-3
        assert np.array_equal(signs_got[relevant], signs_true[relevant])

    @pytest.mark.parametrize("missing", ["outputs_0_5", "random_30_percent"])
    def test_missing_dips_still_refine_to_truth(self, device_unitary, missing):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs)
        valid = ds.valid.copy()
        if missing == "outputs_0_5":
            valid[:, (ds.out_i == 0) & (ds.out_j == 5)] = False
        else:
            n_dips = len(ds.out_i)
            drop = np.random.default_rng(0).choice(n_dips, int(0.3 * n_dips),
                                                   replace=False)
            valid[:, drop] = False
        ds = replace(ds, valid=valid)
        refined = refine_chi2(reconstruct_phases(ds, reconstruct_moduli(ds)), ds)
        _, phase_rmse = gauge_distance(refined, submatrix_rows(device_unitary, inputs))
        assert phase_rmse < 1e-6

    def test_phases_do_not_depend_on_eigenvector_signs(self, device_unitary,
                                                       monkeypatch):
        # negating one eigenvector reflects the recovered phases; the
        # orientation rule must undo it bit for bit
        ds = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=3,
                                  mean_plateau_counts=1e4)
        moduli = reconstruct_moduli(ds)
        want = reconstruct_phases(ds, moduli).phases
        eigh = np.linalg.eigh

        def reflected_eigh(a):
            lam, vec = eigh(a)
            vec[..., -1] *= -1.0
            return lam, vec

        monkeypatch.setattr(np.linalg, "eigh", reflected_eigh)
        assert np.array_equal(reconstruct_phases(ds, moduli).phases, want)

    def test_phase_recovery_logs_what_it_did(self, device_unitary, caplog):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs, rng_seed=3,
                                  mean_plateau_counts=1e4)
        with caplog.at_level(logging.DEBUG, logger="photonlat.reconstruction"):
            candidate = reconstruct_phases(ds, reconstruct_moduli(ds))
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "photonlat.reconstruction"]
        assert len(messages) == 3
        n_dips = len(ds.out_i)
        for (h, k), message in zip(ds.input_pairs, messages):
            used, zero, clamped, ratio = re.search(
                rf"pair \({h}, {k}\): (\d+) dips used, (\d+) entered as 0, "
                r"(\d+) clamped to \|c\| <= 1, \|lambda_3\|/lambda_2 (\S+)",
                message).groups()
            assert int(used) + int(zero) == n_dips and int(used) > 0.9 * n_dips
            assert 0 < int(clamped) < int(used)      # 1e4 counts push some |c| past 1
            assert 0.0 <= float(ratio) < 0.5
        scored, chi2 = re.search(r"(\d+) sign candidates scored, best chi2 (\S+)",
                                 messages[2]).groups()
        assert int(scored) == 4
        assert float(chi2) == pytest.approx(candidate.chi2, rel=1e-5)

    def test_single_pair_for_three_rows_underdetermined(self, device_unitary):
        ds = simulate_hom_dataset(device_unitary, (11, 12, 19),
                                  input_pairs=((11, 12),))
        moduli = np.abs(submatrix_rows(device_unitary, (11, 12, 19)))
        with pytest.raises(UnderdeterminedError):
            reconstruct_phases(ds, moduli)


class TestRefine:
    def test_refine_from_truth_returns_unchanged(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs)
        moduli, phases = gauge_fixed_truth(device_unitary, inputs)
        start = ReconstructedSubmatrix(inputs, moduli, phases)
        refined = refine_chi2(start, ds)
        delta = np.abs(np.exp(1j * refined.phases) - np.exp(1j * phases)).max()
        assert delta < 1e-8

    def test_refine_never_increases_chi2(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs, rng_seed=4,
                                  mean_plateau_counts=1e4)
        moduli = reconstruct_moduli(ds)
        candidate = reconstruct_phases(ds, moduli)
        refined = refine_chi2(candidate, ds)
        assert refined.chi2 <= candidate.chi2 + 1e-12

    def test_conjugated_row_candidate_still_reaches_truth(self, device_unitary):
        # a per-row conjugation is invisible to the dip data; the refined
        # result must match the truth under the gauge-invariant comparison
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs)
        moduli = reconstruct_moduli(ds)
        candidate = reconstruct_phases(ds, moduli)
        flipped = ReconstructedSubmatrix(
            candidate.rows, candidate.moduli,
            candidate.phases * np.array([1.0, -1.0, 1.0])[:, None])
        refined = refine_chi2(flipped, ds)
        _, phase_rmse = gauge_distance(refined, submatrix_rows(device_unitary, inputs))
        assert phase_rmse < 1e-6


    @pytest.mark.parametrize("n_invalid", [0, 60])
    def test_phase_jacobian_matches_finite_differences(self, device_unitary, n_invalid):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs, rng_seed=5, mean_plateau_counts=1e4,
                                  input_pairs=((11, 12), (11, 19), (12, 19)))
        rng = np.random.default_rng(n_invalid)
        if n_invalid:
            doc = ds.to_dict()
            for flat in rng.choice(ds.valid.size, n_invalid, replace=False):
                doc["valid"][flat // ds.valid.shape[1]][flat % ds.valid.shape[1]] = 0
            ds = HomDataset.from_dict(doc)
            assert ds.valid.sum() == ds.valid.size - n_invalid
        # dips on the gauge row and the gauge column are in the index
        assert (ds.dip_h == 0).any() and (ds.dip_i == 0).any()
        moduli = reconstruct_moduli(ds)
        theta = rng.uniform(-np.pi, np.pi, moduli.shape)
        full = np.arange(moduli.size).reshape(moduli.shape)
        free = np.full(moduli.shape, -1)
        free[1:, 1:] = np.arange((moduli.shape[0] - 1) * (moduli.shape[1] - 1)).reshape(
            free[1:, 1:].shape)
        for columns in (full, free):
            mask = columns >= 0

            def residuals(x):
                th = theta.copy()
                th[mask] = x
                return dip_residuals(th, moduli, ds)

            want = finite_difference_jacobian(residuals, theta[mask])
            got = _phase_jacobian(theta, moduli, ds, columns)
            assert got.shape == want.shape == (ds.valid.sum(), mask.sum())
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_fits_take_analytic_jacobians_and_default_tolerances(self, device_unitary,
                                                                 monkeypatch):
        calls, solves = [], []
        least_squares, gauss_newton = reconstruction.least_squares, reconstruction._gauss_newton

        def spy(fun, x0, **kwargs):
            calls.append(kwargs)
            return least_squares(fun, x0, **kwargs)

        def solver_spy(fun, jac, x0, max_nfev):
            solves.append(jac)
            return gauss_newton(fun, jac, x0, max_nfev)

        monkeypatch.setattr(reconstruction, "least_squares", spy)
        monkeypatch.setattr(reconstruction, "_gauss_newton", solver_spy)
        ds = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=4,
                                  mean_plateau_counts=1e4)
        # one dip fit per input pair, stopped by the ftol and xtol rules alone
        assert len(calls) == ds.n_pairs and not solves
        for kwargs in calls:
            assert kwargs["gtol"] is None and not {"xtol", "ftol"} & kwargs.keys()
        calls.clear()
        refine_chi2(reconstruct_phases(ds, reconstruct_moduli(ds)), ds)
        # the moduli and the phases: the solver with an analytic Jacobian,
        # stopped at least_squares' default tolerances of 1e-8, not SciPy
        assert not calls and len(solves) == 2
        assert all(callable(jac) for jac in solves)
        assert reconstruction._TOL == 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_fits_agree_with_the_scipy_trf_oracle(self, device_unitary, seed):
        ds = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=seed,
                                  mean_plateau_counts=1e4)
        moduli = reconstruct_moduli(ds)
        want = trf_moduli(ds)
        assert (np.abs(moduli - want) / want).max() <= 1e-6
        candidate = reconstruct_phases(ds, moduli)
        refined = refine_chi2(candidate, ds)
        want = trf_phases(moduli, candidate.phases, ds)
        assert np.abs(np.angle(np.exp(1j * (refined.phases - want)))).max() <= 1e-6

    def test_evaluation_cap_reports_no_convergence(self, device_unitary, monkeypatch):
        gauss_newton = reconstruction._gauss_newton

        def capped(fun, jac, x0, max_nfev):
            return gauss_newton(fun, jac, x0, 2)

        ds = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=4,
                                  mean_plateau_counts=1e4)
        candidate = reconstruct_phases(ds, reconstruct_moduli(ds))
        monkeypatch.setattr(reconstruction, "_gauss_newton", capped)
        refined = refine_chi2(candidate, ds)
        assert not refined.converged
        assert refined.chi2 <= candidate.chi2

    def test_fits_log_what_they_did(self, device_unitary, caplog):
        ds = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=3,
                                  mean_plateau_counts=1e4)
        with caplog.at_level(logging.DEBUG, logger="photonlat.reconstruction"):
            candidate = reconstruct_phases(ds, reconstruct_moduli(ds))
            refined = refine_chi2(candidate, ds)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "photonlat.reconstruction.fits"]
        assert len(messages) == 2
        fits = [re.search(r"(\w+) fit: (\d+) evaluations, (\d+) Jacobians, status (-?\d+), "
                          r"chi2 (\S+) -> (\S+)", message).groups() for message in messages]
        assert [fit[0] for fit in fits] == ["moduli", "phase"]
        for _, nfev, njev, status, before, after in fits:
            assert 1 <= int(njev) <= int(nfev) and 1 <= int(status) <= 4
            assert float(after) <= float(before)
        assert float(fits[1][4]) == pytest.approx(candidate.chi2, rel=1e-5)
        assert float(fits[1][5]) == pytest.approx(refined.chi2, rel=1e-5)


class TestGaugeDistance:
    def test_invariant_under_regauging(self, device_unitary):
        inputs = (11, 12, 19)
        moduli, phases = gauge_fixed_truth(device_unitary, inputs)
        rec = ReconstructedSubmatrix(inputs, moduli, phases)
        truth = submatrix_rows(device_unitary, inputs)
        rng = np.random.default_rng(9)
        row_phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, 1)))
        col_phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(1, 32)))
        mr, pr = gauge_distance(rec, truth * row_phase * col_phase)
        assert mr < 1e-12
        assert pr < 1e-9

    def test_single_perturbed_modulus(self, device_unitary):
        inputs = (11, 12, 19)
        moduli, phases = gauge_fixed_truth(device_unitary, inputs)
        bumped = moduli.copy()
        bumped[1, 5] += 1e-3
        rec = ReconstructedSubmatrix(inputs, bumped, phases)
        mr, _ = gauge_distance(rec, submatrix_rows(device_unitary, inputs))
        assert mr == pytest.approx(1e-3 / math.sqrt(3 * 32), rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_cols=st.integers(2, 12),
           flips=st.integers(0, 3))
    def test_invariant_under_phases_and_row_conjugation(self, seed, n_cols, flips):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal((3, n_cols)) + 1j * rng.standard_normal((3, n_cols))
        moduli, phases = gauge_fixed_truth(ref.T, range(3))
        signs = np.array([1.0, -1.0 if flips & 1 else 1.0, -1.0 if flips & 2 else 1.0])
        rec = ReconstructedSubmatrix((0, 1, 2), moduli, signs[:, None] * phases)
        row_phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, 1)))
        col_phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(1, n_cols)))
        mr, pr = gauge_distance(rec, ref * row_phase * col_phase)
        assert mr < 1e-12
        assert pr <= 1e-9

    def test_shape_mismatch_rejected(self, device_unitary):
        moduli, phases = gauge_fixed_truth(device_unitary, (11, 12, 19))
        rec = ReconstructedSubmatrix((11, 12, 19), moduli, phases)
        with pytest.raises(ConfigurationError):
            gauge_distance(rec, submatrix_rows(device_unitary, (11, 12)))


class TestFullPipeline:
    def test_four_row_noiseless(self, device_unitary):
        inputs = (11, 12, 19, 20)
        ds = simulate_hom_dataset(device_unitary, inputs)
        moduli = reconstruct_moduli(ds)
        refined = refine_chi2(reconstruct_phases(ds, moduli), ds)
        mr, pr = gauge_distance(refined, submatrix_rows(device_unitary, inputs))
        assert mr < 1e-6
        assert pr < 1e-6

    def test_three_row_noisy(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs, rng_seed=21,
                                  mean_plateau_counts=1e4)
        moduli = reconstruct_moduli(ds)
        refined = refine_chi2(reconstruct_phases(ds, moduli), ds)
        truth = submatrix_rows(device_unitary, inputs)
        rel = np.abs(moduli - np.abs(truth)) / np.abs(truth)
        assert np.median(rel) < 0.03
        _, pr = gauge_distance(refined, truth)
        assert pr < 0.1

    def test_dataset_json_round_trip(self, device_unitary):
        inputs = (11, 12, 19)
        ds = simulate_hom_dataset(device_unitary, inputs, rng_seed=8,
                                  mean_plateau_counts=1e4)
        back = HomDataset.from_dict(ds.to_dict())
        assert back.rows == ds.rows
        assert back.input_pairs == ds.input_pairs
        assert np.allclose(back.plateaus, ds.plateaus)
        assert np.allclose(back.va_errors, ds.va_errors)
        assert np.array_equal(back.valid, ds.valid)
        m1 = reconstruct_moduli(ds)
        m2 = reconstruct_moduli(back)
        assert np.allclose(m1, m2)
