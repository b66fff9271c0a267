import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, kstest

from photonlat import errors
from photonlat.errors import CapacityError, ConfigurationError
from photonlat.evolution import propagate
from photonlat.haarstats import (Histogram, _haar_columns, column_similarity_distribution,
                                 device_submatrix_ensemble,
                                 ensemble_moduli_phase_histograms, gauge_fix_phases,
                                 haar_unitary, histogram_overlap,
                                 pairwise_similarities, random_heater_powers,
                                 similarity)
from photonlat.lattice import (CouplingModel, HeaterBank, LatticeSpec,
                               build_lattice, default_heater_bank)


class TestHistogram:
    def test_masses_normalized(self):
        h = Histogram(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.75]))
        assert h.masses.sum() == pytest.approx(1.0)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            Histogram(np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def test_from_samples(self):
        h = Histogram.from_samples([0.1, 0.2, 0.8], np.linspace(0, 1, 3))
        assert np.allclose(h.masses, [2 / 3, 1 / 3])


class TestHaarUnitary:
    def test_unitarity(self):
        for m in (1, 2, 8, 32):
            u = haar_unitary(m, rng_seed=m)
            assert u.unitarity_defect < 1e-12

    def test_single_mode_is_unit_phase(self):
        u = haar_unitary(1, rng_seed=4).entries
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_deterministic_per_seed(self):
        a = haar_unitary(6, rng_seed=11).entries
        b = haar_unitary(6, rng_seed=11).entries
        assert np.array_equal(a, b)

    def test_stacked_draw_matches_per_seed(self):
        stack = _haar_columns(12, 12, np.random.SeedSequence(9), 25)
        seeds = np.random.SeedSequence(9).spawn(25)
        assert np.array_equal(stack, [haar_unitary(12, s).entries for s in seeds])

    @pytest.mark.parametrize("k", [1, 3, 11])
    def test_column_draw_orthonormal(self, k):
        cols = _haar_columns(12, k, 9, 25)
        assert cols.shape == (25, 12, k)
        gram = np.conj(cols.transpose(0, 2, 1)) @ cols
        assert np.abs(gram - np.eye(k)).max() < 1e-12

    def test_one_call_draw_matches_two_calls_per_member(self):
        # the draw as two calls per member, real parts then imaginary parts
        z = []
        for child in np.random.SeedSequence(21).spawn(40):
            rng = np.random.default_rng(child)
            z.append((rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3)))
                     / np.sqrt(2.0))
        q, r = np.linalg.qr(np.array(z))
        d = np.diagonal(r, axis1=1, axis2=2)
        assert np.array_equal(_haar_columns(32, 3, 21, 40), q * (d / np.abs(d))[:, None, :])

    @pytest.mark.parametrize("k, count", [(3, 200), (4, 50), (3, 2000), (32, 100),
                                          (32, None), (31, 20), (31, 100)])
    def test_charge_covers_the_draw_peak(self, k, count, monkeypatch):
        _haar_columns(4, 4, 5, 2)     # numpy's lazy set-up is not the draw's
        tracemalloc.start()
        try:
            _haar_columns(32, k, 5, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # four (E, m, k) complex stacks and two ufunc buffers of complex numbers
        charge = 64 * (count or 1) * 32 * k + 32 * np.getbufsize()
        assert peak <= charge
        monkeypatch.setattr(errors, "MAX_TABLE_BYTES", charge - 1)
        with pytest.raises(CapacityError):
            _haar_columns(32, k, 5, count)

    def test_integer_seed_spawns_like_its_sequence(self):
        assert np.array_equal(_haar_columns(8, 2, 9, 5),
                              _haar_columns(8, 2, np.random.SeedSequence(9), 5))

    def test_mean_squared_modulus(self):
        m, n_samples = 32, 1000
        acc = 0.0
        for s in range(n_samples):
            acc += (np.abs(haar_unitary(m, rng_seed=s).entries) ** 2).mean()
        mean = acc / n_samples
        # stderr of the mean of m^2-entry averages
        stderr = 1.0 / m / np.sqrt(n_samples * m ** 2 / 2)
        assert abs(mean - 1.0 / m) < 3 * stderr

    def test_phases_uniform(self):
        phases = np.concatenate([
            np.angle(haar_unitary(32, rng_seed=s).entries).ravel()
            for s in range(30)])
        stat = kstest(phases, "uniform", args=(-np.pi, 2 * np.pi))
        assert stat.pvalue > 0.01

    def test_left_invariance_statistic(self):
        # fixed rotation applied on the left leaves column moduli statistics
        m = 8
        fixed = haar_unitary(m, rng_seed=123).entries
        raw, rot = [], []
        for s in range(400):
            u = haar_unitary(m, rng_seed=1000 + s).entries
            raw.append(np.abs(u[:, 0]) ** 2)
            rot.append(np.abs((fixed @ u)[:, 0]) ** 2)
        stat = kstest(np.ravel(raw), np.ravel(rot))
        assert stat.pvalue > 0.01


class TestSimilarity:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert similarity(p, p) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_half_overlap_case(self):
        assert similarity([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_symmetry_and_relabeling(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert similarity(p, q) == pytest.approx(similarity(q, p))
        perm = rng.permutation(6)
        assert similarity(p[perm], q[perm]) == pytest.approx(similarity(p, q))

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            similarity([1.0], [0.5, 0.5])


class TestColumnSimilarity:
    def test_single_mode_all_ones(self):
        h = column_similarity_distribution(1, ensemble_size=10, rng_seed=0)
        assert h.masses[-1] == pytest.approx(1.0)

    def test_too_many_pairs_rejected_before_drawing(self):
        # 40,000 columns: 800 million pairs, but not one column drawn
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="pair similarities of 40000 columns"):
                column_similarity_distribution(32, 40000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_too_many_bins_rejected_before_drawing(self):
        # 10^9 bins: 7.45 GiB of bin edges
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="1000000000 similarity bins"):
                column_similarity_distribution(32, 2, 1, n_bins=10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bins_charge_covers_the_histogram_peak(self):
        n_bins = 10 ** 6
        tracemalloc.start()
        try:
            column_similarity_distribution(32, 2, 1, n_bins=n_bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * (n_bins + 1)

    def test_single_column_draws_normalized(self):
        cols = np.abs(_haar_columns(32, 1, 1, 50)[:, :, 0]) ** 2
        assert np.abs(cols.sum(axis=1) - 1.0).max() < 1e-12

    def test_reproducible_mean_across_seeds(self):
        means = []
        for seed in (0, 1, 2):
            cols = np.abs(_haar_columns(32, 1, seed, 150)[:, :, 0]) ** 2
            means.append(pairwise_similarities(cols).mean())
        grand = np.mean(means)
        assert np.std(means) < 0.05 * grand
        assert 0.0 < grand < 1.0

    def test_device_vs_haar_overlap_is_reported(self, device_unitary):
        # device columns under a fixed unitary vs Haar theory: overlap in (0, 1]
        haar_hist = column_similarity_distribution(32, 120, rng_seed=7)
        cols = np.abs(device_unitary[:, :12].T) ** 2
        sims = pairwise_similarities(cols)
        dev_hist = Histogram.from_samples(np.clip(sims, 0, 1), haar_hist.bin_edges)
        overlap = histogram_overlap(dev_hist, haar_hist)
        assert 0.0 <= overlap <= 1.0


class TestDeviceEnsemble:
    def test_submatrices_from_random_settings(self, device):
        layout, model, bank, _ = device
        subs = device_submatrix_ensemble(layout, model, bank, [(11, 12, 19)] * 3,
                                         random_heater_powers(bank, 3, rng_seed=5),
                                         n_steps=96)
        assert len(subs) == 3
        for s in subs:
            assert s.shape == (3, 32)
            assert np.allclose((np.abs(s) ** 2).sum(axis=1), 1.0, atol=1e-9)
        assert not np.allclose(subs[0], subs[1])

    @pytest.mark.parametrize("inputs", [(0, 3, 5), (4,)])
    @settings(max_examples=25, deadline=None)
    @given(lattice_seed=st.integers(0, 2**32 - 1),
           heaters=st.sampled_from(["all", "zero", "one"]),
           on=st.integers(0, 15),
           power_range=st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 500.0)),
           n_steps=st.integers(1, 40), rng_seed=st.integers(0, 2**32 - 1))
    def test_matches_propagate(self, inputs, lattice_seed, heaters, on,
                               power_range, n_steps, rng_seed):
        layout = build_lattice(LatticeSpec(rows=2, cols=3, seed=lattice_seed))
        model = CouplingModel()
        bank = default_heater_bank(layout)
        lo, hi = sorted(power_range)
        if heaters == "zero":
            lo = hi = 0.0
        elif heaters == "one":       # a bank of one heater: only it is ever on
            bank = HeaterBank(bank.positions[on:on + 1], bank.z_spans[on:on + 1],
                              bank.powers[on:on + 1], bank.kernel_width, bank.alpha_t)
        subs = device_submatrix_ensemble(
            layout, model, bank, [inputs] * 3,
            random_heater_powers(bank, 3, rng_seed, power_range=(lo, hi)),
            n_steps=n_steps)
        rng = np.random.default_rng(rng_seed)
        for sub in subs:
            setting = replace(bank, powers=rng.uniform(lo, hi, bank.n_heaters))
            u = propagate(layout, model, setting, n_steps=n_steps).entries
            assert sub.shape == (len(inputs), layout.m)
            assert np.abs(sub - u[:, list(inputs)].T).max() <= 1e-12

    @pytest.mark.parametrize("inputs", [(7,), (-1,), (6,), (0, 2, 0)])
    def test_bad_inputs_rejected(self, inputs):
        layout = build_lattice(LatticeSpec(rows=2, cols=3, seed=1))
        bank = default_heater_bank(layout)
        with pytest.raises(ConfigurationError):
            device_submatrix_ensemble(layout, CouplingModel(), bank, [inputs],
                                      random_heater_powers(bank, 1, 0), n_steps=4)

    @pytest.mark.parametrize("powers", [np.zeros(16), np.zeros((0, 16)), np.zeros((2, 15)),
                                        np.full((2, 16), -1.0), np.full((2, 16), np.nan)],
                             ids=["one_setting_1d", "no_settings", "wrong_heater_count",
                                  "negative", "nan"])
    def test_bad_power_stack_rejected(self, powers):
        layout = build_lattice(LatticeSpec(rows=2, cols=3, seed=1))
        with pytest.raises(ConfigurationError):
            device_submatrix_ensemble(layout, CouplingModel(), default_heater_bank(layout),
                                      [(0, 1)] * 2, powers, n_steps=4)

    def test_each_setting_reads_its_own_rows(self):
        layout = build_lattice(LatticeSpec(rows=2, cols=3, seed=4))
        model, bank = CouplingModel(), default_heater_bank(layout)
        powers = random_heater_powers(bank, 3, rng_seed=2)
        inputs = [(0, 3, 5), (4,), (5, 0)]
        rows = device_submatrix_ensemble(layout, model, bank, inputs, powers, n_steps=12)
        for sub, modes, setting in zip(rows, inputs, powers):
            u = propagate(layout, model, replace(bank, powers=setting), n_steps=12).entries
            assert sub.shape == (len(modes), layout.m)
            assert np.abs(sub - u[:, list(modes)].T).max() <= 1e-13

    @pytest.mark.parametrize("inputs", [[(0, 1)], [(0, 1)] * 3, 5, "ab"],
                             ids=["too_few", "too_many", "not_a_list", "string"])
    def test_one_mode_list_per_setting(self, inputs):
        layout = build_lattice(LatticeSpec(rows=2, cols=3, seed=1))
        bank = default_heater_bank(layout)
        with pytest.raises(ConfigurationError):
            device_submatrix_ensemble(layout, CouplingModel(), bank, inputs,
                                      random_heater_powers(bank, 2, 0), n_steps=4)

    def test_no_inputs_rejected(self):
        layout = build_lattice(LatticeSpec(rows=2, cols=3, seed=1))
        bank = default_heater_bank(layout)
        with pytest.raises(ConfigurationError):
            device_submatrix_ensemble(layout, CouplingModel(), bank, [()],
                                      random_heater_powers(bank, 1, 0), n_steps=4)

    def test_random_heater_powers_draw_setting_after_setting(self):
        bank = default_heater_bank(build_lattice(LatticeSpec(rows=2, cols=3, seed=1)))
        rng = np.random.default_rng(9)
        want = [rng.uniform(10.0, 300.0, bank.n_heaters) for _ in range(4)]
        assert np.array_equal(random_heater_powers(bank, 4, 9, (10.0, 300.0)), want)
        with pytest.raises(ConfigurationError):
            random_heater_powers(bank, 0, 9)

    def test_reproducibility_similarity_scale(self, device_unitary):
        # repeated intensity measurements of one column at experimental
        # count rates agree at the few-per-mille level
        q = np.abs(device_unitary[:, 11]) ** 2
        rng = np.random.default_rng(0)
        n_counts = 3e4
        sims = []
        for _ in range(20):
            c1 = rng.poisson(q * n_counts) / n_counts
            c2 = rng.poisson(q * n_counts) / n_counts
            sims.append(similarity(c1 / c1.sum(), c2 / c2.sum()))
        assert np.mean(sims) > 0.99


class TestOverlap:
    def test_identical(self):
        h = column_similarity_distribution(8, 40, rng_seed=2)
        assert histogram_overlap(h, h) == pytest.approx(1.0)

    def test_disjoint(self):
        edges = np.linspace(0, 1, 5)
        h1 = Histogram(edges, np.array([1.0, 0, 0, 0]))
        h2 = Histogram(edges, np.array([0, 0, 0, 1.0]))
        assert histogram_overlap(h1, h2) == 0.0

    def test_half_overlap(self):
        edges = np.linspace(0, 1, 3)
        h1 = Histogram(edges, np.array([0.5, 0.5]))
        h2 = Histogram(edges, np.array([1.0, 0.0]))
        assert histogram_overlap(h1, h2) == pytest.approx(0.5)

    def test_mismatched_edges_rejected(self):
        h1 = Histogram(np.linspace(0, 1, 3), np.array([0.5, 0.5]))
        h2 = Histogram(np.linspace(0, 2, 3), np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            histogram_overlap(h1, h2)


class TestEnsembleHistograms:
    def test_gauge_fix_nulls_reference_row_and_column(self):
        u = haar_unitary(8, rng_seed=3).entries[:3]
        fixed = gauge_fix_phases(u)
        assert np.allclose(fixed[0, :], 0.0, atol=1e-12)
        assert np.allclose(fixed[:, 0], 0.0, atol=1e-12)

    def test_phase_histogram_flat_for_haar(self):
        subs = [haar_unitary(32, rng_seed=s).entries[:3] for s in range(15)]
        _, phase_hist = ensemble_moduli_phase_histograms(subs)
        n = 15 * 2 * 31
        expected = n / len(phase_hist.masses)
        counts = phase_hist.masses * n
        stat = chisquare(counts, np.full_like(counts, expected))
        assert stat.pvalue > 0.01

    def test_moduli_histogram_matches_haar_marginal(self):
        m = 32
        # rows of whole unitaries, and the k = 3 column draw as rows
        for subs in ([haar_unitary(m, rng_seed=100 + s).entries[:3] for s in range(60)],
                     _haar_columns(m, 3, 100, 60).transpose(0, 2, 1)):
            mod_hist, _ = ensemble_moduli_phase_histograms(subs)
            edges = mod_hist.bin_edges
            # |U_ij|^2 ~ Beta(1, m-1): CDF(x) = 1 - (1 - x)^(m-1)
            cdf = 1.0 - (1.0 - np.clip(edges, 0, 1)) ** (m - 1)
            expected = np.diff(cdf)
            n = 60 * 3 * m
            keep = expected * n >= 5
            f_obs = np.append(mod_hist.masses[keep] * n, mod_hist.masses[~keep].sum() * n)
            f_exp = np.append(expected[keep] * n, expected[~keep].sum() * n)
            stat = chisquare(f_obs, f_exp * f_obs.sum() / f_exp.sum())
            assert stat.pvalue > 0.01
