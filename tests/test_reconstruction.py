import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlat import reconstruction
from photonlat.errors import (ConfigurationError, UndefinedVisibilityError,
                              UnderdeterminedError)
from photonlat.haarstats import haar_unitary
from photonlat.interference import FockPattern, output_probability
from photonlat.reconstruction import (DEFAULT_DIP_SIGMA, MAX_LM_ITERATIONS, HomDataset,
                                      ReconstructedSubmatrix, _fit_dips, _phase_jacobian,
                                      default_scan_positions, dip_profile,
                                      dip_residuals, fit_dip, gauge_distance, hom_plateau,
                                      hom_visibility, reconstruct_moduli,
                                      reconstruct_phases, refine_chi2,
                                      simulate_dip_scan, simulate_hom_dataset,
                                      submatrix_rows)

from oracles import curve_fit_dip, finite_difference_jacobian

BS = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)


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
        x = default_scan_positions()
        counts = simulate_dip_scan(0.4, 0.0, 0.0, 30.0, x, mean_counts=5000,
                                   rng_seed=1)
        assert counts.std() < 5 * math.sqrt(2000)
        assert counts.mean() == pytest.approx(5000 * 0.4, rel=0.05)

    def test_far_tail_reaches_plateau(self):
        x = np.array([-300.0, 300.0])   # beyond 6 sigma
        f = simulate_dip_scan(0.5, -0.9, 0.0, 30.0, x, mean_counts=None)
        assert np.allclose(f, 0.5, atol=1e-7)

    def test_noiseless_mode_reproduces_profile_exactly(self):
        x = default_scan_positions()
        f = simulate_dip_scan(0.37, -0.62, 5.0, 25.0, x, mean_counts=math.inf)
        assert np.array_equal(f, dip_profile(x, 0.37, -0.62, 5.0, 25.0))

    def test_poisson_scan_deterministic_per_seed(self):
        x = default_scan_positions()
        a = simulate_dip_scan(0.4, -0.5, 0.0, 30.0, x, 1e4, rng_seed=3)
        b = simulate_dip_scan(0.4, -0.5, 0.0, 30.0, x, 1e4, rng_seed=3)
        assert np.array_equal(a, b)


class TestFitDip:
    def test_noiseless_round_trip(self):
        x = default_scan_positions()
        f = simulate_dip_scan(0.5, -0.8, 0.0, 30.0, x, mean_counts=None)
        fit = fit_dip(x, f)
        assert fit.a == pytest.approx(0.5, abs=1e-6)
        assert fit.v == pytest.approx(-0.8, abs=1e-6)

    def test_flat_noiseless_scan_gives_zero_visibility(self):
        x = default_scan_positions()
        fit = fit_dip(x, np.full_like(x, 0.25))
        assert fit.a == pytest.approx(0.25, abs=1e-9)
        assert fit.v == pytest.approx(0.0, abs=1e-6)

    def test_flat_noisy_scan_keeps_dip_inside_scan(self):
        # a full fit of this scan collapses to a width below the point
        # spacing; the frozen fallback must take over
        x = default_scan_positions()
        counts = np.array([1684, 1666, 1580, 1702, 1629, 1655, 1674, 1616, 1573,
                           1627, 1562, 1655, 1602, 1651, 1692, 1637, 1703, 1676,
                           1666, 1651, 1593], dtype=float)
        fit = fit_dip(x, counts)
        assert x.min() <= fit.x0 <= x.max()
        assert fit.sigma >= (x.max() - x.min()) / (len(x) - 1)
        assert fit.sigma <= (x.max() - x.min()) / 2
        assert not np.isfinite(fit.cov[2:, 2:]).any()

    def test_too_few_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_dip(np.arange(5.0), np.ones(5))

    def test_poisson_coverage(self):
        x = default_scan_positions()
        rng = np.random.default_rng(8)
        hits = 0
        trials = 1000
        for _ in range(trials):
            counts = simulate_dip_scan(1.0, -0.6, 0.0, 30.0, x, 1e4,
                                       rng_seed=rng.integers(2 ** 63))
            fit = fit_dip(x, counts)
            if abs(fit.v - (-0.6)) <= 3 * fit.v_err:
                hits += 1
        assert hits / trials >= 0.99

    @pytest.mark.parametrize("positions, counts", [
        (default_scan_positions(), np.ones(10)),                       # lengths differ
        (default_scan_positions(), np.r_[np.nan, np.ones(20)]),         # NaN count
        (default_scan_positions(), np.r_[-1.0, np.ones(20)]),           # negative count
        (np.r_[np.inf, default_scan_positions()[1:]], np.ones(21)),      # infinite position
        (default_scan_positions()[:, None], np.ones(21)),             # 2-D positions
        (np.full(21, 5.0), np.ones(21)),                                # zero scan range
        (default_scan_positions(), ["a"] * 21),                         # not numbers
    ])
    def test_malformed_scan_rejected(self, positions, counts):
        with pytest.raises(ConfigurationError):
            fit_dip(positions, counts)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(1e-3, 1.0),
           v=st.one_of(st.floats(-1.0, -0.05), st.floats(0.05, 1.0)),
           x0=st.floats(-30.0, 30.0), sigma=st.floats(20.0, 45.0))
    def test_noiseless_round_trip_recovers_every_parameter(self, a, v, x0, sigma):
        x = default_scan_positions()
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
        x = default_scan_positions()
        rngs = [np.random.default_rng(s) for s in seeds]
        counts = np.array([simulate_dip_scan(rng.uniform(0.2, 1.0), rng.uniform(-1.0, 0.3),
                                             rng.uniform(-20.0, 20.0), rng.uniform(20.0, 40.0),
                                             x, 1e4, rng_seed=rng.integers(2 ** 63))
                           for rng in rngs])
        pick %= len(seeds)
        params, cov = _fit_dips(x, counts)
        alone = fit_dip(x, counts[pick])
        errors = np.sqrt(np.abs(np.diag(cov[pick])))
        np.testing.assert_allclose([alone.a, alone.v, alone.x0, alone.sigma], params[pick],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose([alone.a_err, alone.v_err, alone.x0_err, alone.sigma_err],
                                   errors, rtol=1e-12, atol=0)

    def test_campaign_agrees_with_curve_fit(self, device_unitary):
        _, scans = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=3,
                                        mean_plateau_counts=1e4, keep_scans=True)
        x = default_scan_positions()
        counts = np.array([c for _, c in scans.values()])
        assert counts.shape == (992, len(x))
        params, cov = _fit_dips(x, counts)
        oracle = [curve_fit_dip(x, c) for c in counts]
        assert all(fit is not None for fit in oracle)
        want = np.array([p for p, _ in oracle])
        want_err = np.sqrt(np.abs(np.diagonal(np.array([c for _, c in oracle]),
                                              axis1=1, axis2=2)))
        err = np.sqrt(np.abs(np.diagonal(cov, axis1=1, axis2=2)))
        full, want_full = np.isfinite(err[:, 2]), np.isfinite(want_err[:, 2])
        assert (full == want_full).mean() >= 0.99
        both = full & want_full
        shift = (np.abs(params - want) / want_err)[both].max(axis=1)
        assert (shift <= 1e-2).mean() >= 0.99
        with np.errstate(invalid="ignore"):
            rel = np.abs(err - want_err) / want_err
        agree = (np.isnan(err) == np.isnan(want_err)).all(axis=1) & \
            (np.nan_to_num(rel) <= 1e-3).all(axis=1)
        assert agree.mean() >= 0.99

    def test_dip_fits_log_what_they_did(self, device_unitary, caplog):
        inputs = (11, 12, 19)
        with caplog.at_level(logging.DEBUG, logger="photonlat.reconstruction"):
            _, scans = simulate_hom_dataset(device_unitary, inputs, rng_seed=3,
                                            mean_plateau_counts=1e4, keep_scans=True)
            simulate_hom_dataset(device_unitary, inputs)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "photonlat.reconstruction"]
        assert len(messages) == 4
        fits, most, capped, cap, fallbacks, *triggers, singular = map(int, re.search(
            r"(\d+) dip fits, up to (\d+) LM iterations, (\d+) at the cap of (\d+); "
            r"(\d+) fallbacks \(not converged (\d+), x0 outside the scan (\d+), "
            r"sigma below the spacing (\d+), sigma above half the range (\d+)\); "
            r"(\d+) non-finite covariances", messages[0]).groups())
        x = default_scan_positions()
        _, cov = _fit_dips(x, np.array([c for _, c in scans.values()]))
        assert fits == 992 and cap == MAX_LM_ITERATIONS and 1 <= most <= cap
        assert triggers[0] <= capped
        assert fallbacks == np.isnan(cov[:, 2, 2]).sum()
        assert 0 < fallbacks <= sum(triggers) and fallbacks < 0.05 * fits
        assert singular == 0
        floored, total = map(int, re.search(r"(\d+) of (\d+) dip uncertainties raised "
                                            r"to the floor", messages[1]).groups())
        assert total == 3 * fits and floored < total
        # the noiseless campaign: 1e-6 of the mean plateau for every uncertainty
        assert re.search(rf"{3 * fits} of {3 * fits} dip uncertainties raised",
                         messages[3])


    def test_campaign_scans_are_per_dip_seeded_scans(self, device_unitary):
        # each dip draws its Poisson counts from its own seed, taken in dip
        # order from the campaign seed
        ds, scans = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=3,
                                         mean_plateau_counts=1e4, keep_scans=True)
        assert len(scans) == ds.valid.sum()
        seeds = np.random.default_rng(3).integers(2 ** 63, size=len(scans))
        plateaus = np.array([hom_plateau(device_unitary, h, k, i, j)
                             for (h, k), (i, j) in scans])
        exposure = 1e4 * len(plateaus) / plateaus.sum()
        for seed, a, ((h, k), (i, j)), (x, row) in zip(seeds, plateaus, scans,
                                                        scans.values()):
            v = -hom_visibility(device_unitary, h, k, i, j)
            want = simulate_dip_scan(1.0, v, 0.0, DEFAULT_DIP_SIGMA, x, exposure * a,
                                     rng_seed=seed)
            assert np.array_equal(row, want)


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

    def test_identity_like_unitary(self):
        u = np.eye(8, dtype=complex)
        ds = simulate_hom_dataset(u, (0, 1, 2))
        assert ds.valid.sum() < ds.valid.size   # most dips undefined
        moduli = reconstruct_moduli(ds)
        truth = np.abs(submatrix_rows(u, (0, 1, 2)))
        # zero moduli are only pinned to sqrt(solver tolerance)
        assert np.abs(moduli - truth).max() < 1e-3
        assert np.array_equal(np.round(moduli), truth)

    def test_multiplicative_noise_study(self, device_unitary):
        inputs = (11, 12, 19)
        clean = simulate_hom_dataset(device_unitary, inputs)
        rng = np.random.default_rng(5)
        noisy_a = clean.plateaus * (1 + 0.01 * rng.standard_normal(clean.plateaus.shape))
        eps = 0.01 * np.maximum(clean.plateaus, clean.plateaus[clean.valid].mean())
        q_true = np.abs(submatrix_rows(device_unitary, inputs)) ** 2
        ds = HomDataset(32, clean.rows, clean.input_pairs, noisy_a,
                        clean.visibilities, clean.errors, eps, clean.valid,
                        intensities=q_true * (1 + 0.01 * rng.standard_normal(q_true.shape)))
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
        calls = []
        least_squares = reconstruction.least_squares

        def spy(fun, x0, **kwargs):
            calls.append(kwargs)
            return least_squares(fun, x0, **kwargs)

        monkeypatch.setattr(reconstruction, "least_squares", spy)
        ds = simulate_hom_dataset(device_unitary, (11, 12, 19), rng_seed=4,
                                  mean_plateau_counts=1e4)
        refine_chi2(reconstruct_phases(ds, reconstruct_moduli(ds)), ds)
        assert len(calls) == 2
        for kwargs in calls:
            assert callable(kwargs["jac"])
            assert not {"xtol", "ftol", "gtol"} & kwargs.keys()

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

    def test_visibility_scale_damps_dips(self, device_unitary):
        inputs = (11, 12)
        full = simulate_hom_dataset(device_unitary, inputs)
        damped = simulate_hom_dataset(device_unitary, inputs, visibility_scale=0.5)
        sel = full.valid[0]
        assert np.allclose(damped.visibilities[0][sel],
                           0.5 * full.visibilities[0][sel], atol=1e-6)
