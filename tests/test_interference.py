import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from photonlat import interference as itf
from photonlat.errors import CapacityError, ConfigurationError, NumericalError
from photonlat.haarstats import haar_unitary
from photonlat.interference import (FockPattern, _mode_lists, _permanent_batch,
                                    _permanents, distribution, output_probability,
                                    permanent, sample, spdc_branch_pattern,
                                    spdc_mixture_table, spdc_sample, spdc_weights)

from oracles import (distinguishable_distribution, naive_permanent,
                     scattering_submatrix, statevector_distribution)

BS = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)


def rand_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(2)) == pytest.approx(1.0)

    def test_all_ones_3x3(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_matches_naive_oracle(self):
        for seed in range(20):
            n = 2 + seed % 6
            a = rand_complex(n, seed)
            got = permanent(a)
            want = naive_permanent(a)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_transpose_symmetry(self):
        a = rand_complex(5, 99)
        assert permanent(a.T) == pytest.approx(permanent(a), rel=1e-12)

    def test_row_permutation_invariance(self):
        a = rand_complex(5, 100)
        rng = np.random.default_rng(1)
        p = rng.permutation(5)
        assert permanent(a[p]) == pytest.approx(permanent(a), rel=1e-12)

    def test_row_scaling_multilinearity(self):
        a = rand_complex(4, 101)
        b = a.copy()
        b[2] *= 3.0 - 2.0j
        assert permanent(b) == pytest.approx((3.0 - 2.0j) * permanent(a), rel=1e-12)

    def test_rejects_nonsquare_and_oversize(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 3)))
        with pytest.raises(CapacityError):
            permanent(np.eye(21))

    def test_batch_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            mats = rng.normal(size=(10, n, n)) + 1j * rng.normal(size=(10, n, n))
            batch = _permanent_batch(mats)
            for k in range(10):
                want = naive_permanent(mats[k])
                assert abs(batch[k] - want) < 1e-10 * max(1.0, abs(want))


def _stack_scale(mats):
    """Per |A| bounds |Per A| and the rounding error of any of its terms."""
    return _permanent_batch(np.abs(mats)).real


@st.composite
def square_matrices(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestPermanentProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=square_matrices(), data=st.data())
    def test_row_column_permutation_and_transpose_invariance(self, a, data):
        n = a.shape[0]
        rows = np.array(data.draw(st.permutations(range(n))))
        cols = np.array(data.draw(st.permutations(range(n))))
        got = _permanent_batch(np.stack([a, a[rows], a[:, cols], a[rows][:, cols], a.T]))
        assert np.all(np.abs(got - got[0]) <= 1e-12 * _stack_scale(a[None])[0])

    @settings(max_examples=60, deadline=None)
    @given(a=square_matrices(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_linearity_in_one_row(self, a, seed, data):
        n = a.shape[0]
        r = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = a.copy()
        b[r] = rng.normal(size=n) + 1j * rng.normal(size=n)
        mixed = a.copy()
        mixed[r] = x * a[r] + y * b[r]
        per_a, per_b, per_mixed = _permanent_batch(np.stack([a, b, mixed]))
        scale = abs(x) * _stack_scale(a[None])[0] + abs(y) * _stack_scale(b[None])[0]
        assert abs(per_mixed - (x * per_a + y * per_b)) <= 1e-12 * scale


class TestGatheredPermanents:
    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(1, 6), p=st.integers(1, 6), n=st.integers(1, 6),
           extra_modes=st.integers(0, 3), step_bytes=st.integers(1, 2**12),
           seed=st.integers(0, 2**32 - 1))
    @example(e=1, p=6, n=4, extra_modes=2, step_bytes=200, seed=0)
    @example(e=6, p=1, n=6, extra_modes=0, step_bytes=1, seed=1)
    def test_equal_permanents_of_the_gathered_stack(self, e, p, n, extra_modes,
                                                    step_bytes, seed):
        # small steps end blocks of unitaries, patterns and signs mid-stack
        m = n + extra_modes
        rng = np.random.default_rng(seed)
        us = rng.normal(size=(e, m, m)) + 1j * rng.normal(size=(e, m, m))
        rows = rng.integers(0, m, size=(p, n))
        cols = rng.integers(0, m, size=n)
        stack = us[:, rows[:, :, None], cols].reshape(e * p, n, n)
        want = _permanent_batch(stack).reshape(e, p)
        with mock.patch.object(itf, "_STEP_BYTES", step_bytes):
            got = _permanents(us, rows, cols)
        assert got.shape == (e, p)
        assert np.all(np.abs(got - want) <= 1e-12 * _stack_scale(stack).reshape(e, p))


class TestTypedErrors:
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: FockPattern.from_modes((12, 19, -1), 32), id="negative-mode"),
        pytest.param(lambda: FockPattern.from_modes((12, 19, 32), 32), id="mode-beyond-m"),
        pytest.param(lambda: FockPattern.from_modes((True,), 32), id="boolean-mode"),
        pytest.param(lambda: FockPattern.from_modes((1.5,), 32), id="fractional-mode"),
        pytest.param(lambda: permanent(np.ones((2, 3))), id="nonsquare-permanent"),
        pytest.param(lambda: permanent(np.ones((0, 0))), id="empty-permanent"),
        pytest.param(lambda: output_probability(np.eye(3), FockPattern((1, 0, 0)),
                                                FockPattern((1, 1, 0))),
                     id="photon-number-mismatch"),
        pytest.param(lambda: output_probability(np.eye(3), FockPattern((0, 0, 0, 1)),
                                                FockPattern((0, 0, 0, 1))),
                     id="patterns-beyond-m"),
        pytest.param(lambda: output_probability(np.eye(3), FockPattern((0, 1)),
                                                FockPattern((1, 0))),
                     id="patterns-short-of-m"),
    ])
    def test_bad_input_raises_configuration_error(self, call):
        with pytest.raises(ConfigurationError):
            call()


@pytest.mark.parametrize("occupations", [(1.5, 0, 0), (True, 0, 0), (1, False, 0),
                                         (-1, 1, 0), (1, "1", 0), (np.float64(1.0), 0)])
def test_bad_occupation_rejected(occupations):
    with pytest.raises(ConfigurationError, match="must be a whole number >= 0"):
        FockPattern(occupations)


class TestDistributionProperties:
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           statistics=st.sampled_from(["indistinguishable", "distinguishable"]),
           data=st.data())
    def test_table_with_collisions_has_unit_mass(self, m, seed, statistics, data):
        modes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        table = distribution(haar_unitary(m, seed).entries, FockPattern.from_modes(modes, m),
                             statistics=statistics, collision_free=False)
        assert abs(table.total_mass - 1.0) <= 1e-10


def gathered_permanent(u, input_pattern, output_pattern):
    """The permanent kernel's value for rows from the output occupations
    and columns from the input occupations of U."""
    return _permanents(u[None], np.array([output_pattern.modes()]),
                       list(input_pattern.modes()))[0, 0]


class TestScatteringSubmatrix:
    """The kernel gathers the scattering submatrix that the oracle builds."""

    def test_single_photon_each_mode_is_u(self):
        u = rand_complex(2, 0)
        pat = FockPattern((1, 1))
        assert np.array_equal(scattering_submatrix(u, pat, pat), u)
        assert gathered_permanent(u, pat, pat) == pytest.approx(naive_permanent(u),
                                                                rel=1e-12)

    def test_input_collision_duplicates_column(self):
        u = rand_complex(2, 1)
        inp, out = FockPattern((2, 0)), FockPattern((1, 1))
        sub = scattering_submatrix(u, inp, out)
        expected = np.array([[u[0, 0], u[0, 0]], [u[1, 0], u[1, 0]]])
        assert np.array_equal(sub, expected)
        assert gathered_permanent(u, inp, out) == pytest.approx(
            naive_permanent(expected), rel=1e-12)

    def test_spdc_branch_columns(self):
        u = rand_complex(32, 2)
        inputs = (11, 12, 19, 20)
        pat = spdc_branch_pattern("2002", inputs, 32)
        out = FockPattern.from_modes((0, 1, 2, 3), 32)
        sub = scattering_submatrix(u, pat, out)
        # branch 2002 populates the n4 and n3 source modes: waveguides 11, 20
        expected = u[np.ix_((0, 1, 2, 3), (11, 11, 20, 20))]
        assert np.array_equal(sub, expected)
        assert gathered_permanent(u, pat, out) == pytest.approx(
            naive_permanent(expected), rel=1e-12)

    def test_photon_number_mismatch(self):
        u = haar_unitary(3, 3).entries
        with pytest.raises(ValueError):
            output_probability(u, FockPattern((1, 0, 0)), FockPattern((1, 1, 0)))


class TestOutputProbability:
    def test_single_photon(self):
        u = haar_unitary(4, 0).entries
        for i in range(4):
            p = output_probability(u, FockPattern((0, 1, 0, 0)),
                                   FockPattern.from_modes([i], 4))
            assert p == pytest.approx(abs(u[i, 1]) ** 2, rel=1e-12)

    def test_hom_suppression_on_balanced_coupler(self):
        inp = FockPattern((1, 1))
        assert output_probability(BS, inp, inp) == pytest.approx(0.0, abs=1e-15)
        assert output_probability(BS, inp, inp, "distinguishable") == pytest.approx(0.5)

    def test_bunching_on_balanced_coupler(self):
        inp = FockPattern((1, 1))
        for out in (FockPattern((2, 0)), FockPattern((0, 2))):
            assert output_probability(BS, inp, out) == pytest.approx(0.5)

    def test_statistics_coincide_for_one_photon(self):
        u = haar_unitary(5, 1).entries
        inp = FockPattern((0, 0, 1, 0, 0))
        for i in range(5):
            out = FockPattern.from_modes([i], 5)
            q = output_probability(u, inp, out, "indistinguishable")
            d = output_probability(u, inp, out, "distinguishable")
            assert q == pytest.approx(d, rel=1e-12)

    def test_matches_statevector_oracle_m6_n3(self):
        u = haar_unitary(6, 12).entries
        inp = FockPattern((1, 1, 1, 0, 0, 0))
        oracle = statevector_distribution(u, inp.occupations)
        for occ, want in oracle.items():
            p = output_probability(u, inp, FockPattern(occ))
            assert abs(p - want) < 1e-10

    def test_collision_input_matches_statevector_oracle(self):
        u = haar_unitary(6, 13).entries
        inp = FockPattern((2, 0, 0, 2, 0, 0))
        oracle = statevector_distribution(u, inp.occupations)
        for occ, want in itertools.islice(oracle.items(), 40):
            p = output_probability(u, inp, FockPattern(occ))
            assert abs(p - want) < 1e-10

    def test_distinguishable_matches_convolution_oracle(self):
        u = haar_unitary(5, 14).entries
        for occ in ((1, 1, 1, 0, 0), (2, 0, 1, 0, 0)):
            inp = FockPattern(occ)
            oracle = distinguishable_distribution(u, occ)
            for modes in itertools.combinations_with_replacement(range(5), 3):
                pat = FockPattern.from_modes(modes, 5)
                p = output_probability(u, inp, pat, "distinguishable")
                assert abs(p - oracle[pat.occupations]) < 1e-10

    @pytest.mark.parametrize("bad", ["ones", "nonsquare", "nan", "pattern-modes"])
    def test_rejects_what_distribution_rejects(self, bad):
        # unchecked, the all-ones matrix gives a "probability" of 4
        u = {"ones": np.ones((6, 6)), "nonsquare": haar_unitary(6, 2).entries[:, :5],
             "nan": np.full((6, 6), np.nan), "pattern-modes": np.eye(8)}[bad]
        pat = FockPattern((1, 1, 0, 0, 0, 0))
        with pytest.raises(ConfigurationError):
            distribution(u, pat)
        with pytest.raises(ConfigurationError):
            output_probability(u, pat, pat)

    def test_zero_transmission_law(self):
        u = np.eye(4, dtype=complex)
        inp = FockPattern((1, 1, 0, 0))
        out = FockPattern((1, 0, 1, 0))   # mode 2 unreachable from inputs 0, 1
        assert output_probability(u, inp, out) == 0.0


class TestEnumerate:
    def test_collision_free_counts(self):
        assert len(_mode_lists(3, range(32), collision_free=True)) == 4960
        assert len(_mode_lists(4, range(32), collision_free=True)) == 35960

    def test_multiset_small_case(self):
        lists = _mode_lists(2, range(2), collision_free=False)
        pats = [FockPattern.from_modes(row, 2) for row in lists]
        assert [p.occupations for p in pats] == [(2, 0), (1, 1), (0, 2)]

    def test_lexicographic_order(self):
        modes = _mode_lists(2, range(4), collision_free=True).tolist()
        assert modes == sorted(modes)
        assert modes == [list(c) for c in itertools.combinations(range(4), 2)]


class TestDistribution:
    def test_single_photon_row(self):
        u = haar_unitary(6, 3).entries
        table = distribution(u, FockPattern((0, 0, 1, 0, 0, 0)))
        assert table.total_mass == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.sort(table.probs), np.sort(np.abs(u[:, 2]) ** 2))

    def test_full_multiset_table_sums_to_one(self):
        u = haar_unitary(6, 4).entries
        for stats in ("indistinguishable", "distinguishable"):
            table = distribution(u, FockPattern((1, 1, 1, 0, 0, 0)),
                                 statistics=stats, collision_free=False)
            assert table.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_collision_input_normalization(self):
        u = haar_unitary(6, 8).entries
        for stats in ("indistinguishable", "distinguishable"):
            table = distribution(u, FockPattern((2, 0, 0, 2, 0, 0)),
                                 statistics=stats, collision_free=False)
            assert table.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_normalization_bound_m8_n4(self):
        u = haar_unitary(8, 44).entries
        for occ in ((1, 1, 1, 1, 0, 0, 0, 0), (2, 0, 1, 0, 1, 0, 0, 0)):
            for stats in ("indistinguishable", "distinguishable"):
                table = distribution(u, FockPattern(occ), statistics=stats,
                                     collision_free=False)
                assert abs(table.total_mass - 1.0) <= 1e-9

    def test_collision_free_mass_large_for_haar(self):
        u = haar_unitary(32, 5).entries
        table = distribution(u, FockPattern.from_modes((11, 12, 19), 32))
        assert 0.8 < table.total_mass < 1.0

    def test_matches_output_probability(self):
        u = haar_unitary(6, 6).entries
        inp = FockPattern((1, 1, 1, 0, 0, 0))
        table = distribution(u, inp)
        for k in range(len(table.probs)):
            assert table.probs[k] == pytest.approx(
                output_probability(u, inp, table.pattern(k)), abs=1e-12)

    @pytest.mark.parametrize("u_cols, modes, m, outputs", [
        pytest.param(8, (), 8, None, id="no-photons"),
        pytest.param(8, (0, 1, 2), 8, (4, 5), id="more-photons-than-outputs"),
        pytest.param(8, (0, 1), 8, (0, 1, 8), id="output-out-of-range"),
        pytest.param(8, (0, 1), 8, (-1, 0, 1), id="negative-output"),
        pytest.param(8, (0, 1), 8, (0, 1, 1, 2), id="duplicate-outputs"),
        pytest.param(8, (0, 1), 6, None, id="pattern-modes-differ-from-u"),
        pytest.param(6, (0, 1), 8, None, id="nonsquare-u"),
    ])
    def test_rejects_bad_input(self, u_cols, modes, m, outputs):
        u = haar_unitary(8, 0).entries[:, :u_cols]
        with pytest.raises(ConfigurationError):
            distribution(u, FockPattern.from_modes(modes, m), outputs=outputs)

    @pytest.mark.parametrize("bad", ["scaled", "nan"])
    def test_rejects_non_unitary(self, bad):
        # unchecked, 2U gives a table of mass 64 and a NaN entry one of mass NaN
        u = haar_unitary(8, 0).entries
        if bad == "scaled":
            u = 2 * u
        else:
            u[3, 1] = np.nan
        with pytest.raises(ConfigurationError):
            distribution(u, FockPattern.from_modes((0, 1, 2), 8), collision_free=False)

    def test_six_photons_on_31_outputs(self, device_unitary):
        outputs = [i for i in range(32) if i != 31]
        inp = FockPattern.from_modes((10, 11, 12, 19, 20, 21), 32)
        table = distribution(device_unitary, inp, outputs=outputs)
        assert len(table.probs) == math.comb(31, 6)
        assert 0.0 < table.total_mass <= 1.0
        for k in np.random.default_rng(3).choice(len(table.probs), 20, replace=False):
            sub = scattering_submatrix(device_unitary, inp, table.pattern(k))
            assert table.probs[k] == pytest.approx(abs(naive_permanent(sub)) ** 2,
                                                   rel=1e-9, abs=1e-18)

    @pytest.mark.parametrize("collision_free", [True, False])
    def test_table_too_large_rejected_before_enumeration(self, collision_free):
        # C(32, 16) = 6.0e8 patterns: counted, not enumerated
        inp = FockPattern.from_modes(range(16), 32)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                distribution(np.eye(32), inp, collision_free=collision_free)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_five_photon_table_peaks_near_its_own_arrays(self):
        inp = FockPattern.from_modes((10, 11, 12, 19, 20), 32)
        u = haar_unitary(32, 15).entries
        tracemalloc.start()
        try:
            table = distribution(u, inp, outputs=range(31))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.probs) == math.comb(31, 5)
        assert peak <= 4 * (table.mode_lists.nbytes + table.probs.nbytes)

    def test_reduced_outputs(self):
        u = haar_unitary(6, 7).entries
        table = distribution(u, FockPattern((1, 1, 1, 0, 0, 0)),
                             outputs=list(range(5)))
        assert len(table.probs) == math.comb(5, 3)
        assert all(5 not in table.pattern(k).modes() for k in range(3))


class TestSample:
    def test_degenerate_table(self):
        u = np.eye(3, dtype=complex)
        table = distribution(u, FockPattern((1, 0, 0)))
        events = sample(table, rng_seed=0, count=50)
        assert all(ev.output == (0,) for ev in events)
        assert [ev.index for ev in events] == list(range(50))

    def test_uniform_table_frequencies(self):
        h = np.linalg.qr(np.ones((4, 4)) + np.eye(4))[0]
        table = distribution(h, FockPattern((1, 0, 0, 0)))
        table.probs[:] = 0.25   # force an exactly uniform 4-outcome table
        table.total_mass = 1.0
        events = sample(table, rng_seed=1, count=100000)
        counts = np.bincount([ev.output[0] for ev in events], minlength=4)
        assert np.all(np.abs(counts / 1e5 - 0.25) < 0.01)

    @pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero-mass", "nan"])
    def test_bad_table_mass_raises(self, bad):
        table = distribution(haar_unitary(4, 2).entries, FockPattern((1, 1, 0, 0)))
        table.probs[:] = 0.0
        table.probs[0] = bad
        with pytest.raises(NumericalError):
            sample(table, rng_seed=0, count=10)

    def test_deterministic_per_seed(self):
        u = haar_unitary(8, 9).entries
        table = distribution(u, FockPattern.from_modes((1, 2), 8))
        a = sample(table, rng_seed=77, count=200)
        b = sample(table, rng_seed=77, count=200)
        assert [e.output for e in a] == [e.output for e in b]
        c = sample(table, rng_seed=78, count=200)
        assert [e.output for e in a] != [e.output for e in c]

    def test_total_variation_bound(self, device_unitary):
        table = distribution(device_unitary, FockPattern.from_modes((11, 12, 19), 32))
        count = 100000
        events = sample(table, rng_seed=17, count=count)
        keys = {tuple(ml): k for k, ml in enumerate(map(tuple, table.mode_lists))}
        counts = np.zeros(len(table.probs))
        for ev in events:
            counts[keys[ev.output]] += 1
        tv = 0.5 * np.abs(counts / count - table.probs / table.probs.sum()).sum()
        assert tv <= 3.0 * np.sqrt(len(table.probs) / count)

    def test_device_table_chi_square(self, device_unitary):
        table = distribution(device_unitary, FockPattern.from_modes((11, 12, 19), 32))
        events = sample(table, rng_seed=5, count=100000)
        keys = {tuple(ml): k for k, ml in enumerate(map(tuple, table.mode_lists))}
        counts = np.zeros(len(table.probs))
        for ev in events:
            counts[keys[ev.output]] += 1
        p = table.probs / table.probs.sum()
        # pool tail outcomes so expected counts stay reasonable
        mask = p * 1e5 >= 5
        f_obs = np.append(counts[mask], counts[~mask].sum())
        f_exp = np.append(p[mask] * 1e5, p[~mask].sum() * 1e5)
        stat = chisquare(f_obs, f_exp)
        assert stat.pvalue > 0.001


class TestSpdc:
    def test_weights_equation(self):
        w = spdc_weights(1.0)
        assert w.normalized == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        w = spdc_weights(2.0)
        assert (w.alpha, w.beta, w.gamma) == (2.0, 4.0, 1.0)
        assert w.normalized == pytest.approx((2 / 7, 4 / 7, 1 / 7))

    def test_r_zero_keeps_only_0220(self):
        w = spdc_weights(0.0)
        assert w.normalized == pytest.approx((0.0, 0.0, 1.0))

    def test_negative_r_rejected(self):
        with pytest.raises(ConfigurationError):
            spdc_weights(-0.5)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, True, "1.0"])
    def test_non_finite_or_non_number_r_rejected(self, r):
        # unchecked, NaN and inf gave NaN branch weights
        with pytest.raises(ConfigurationError, match="pair-rate ratio"):
            spdc_weights(r)

    def test_branch_patterns(self):
        inputs = (4, 5, 6, 7)
        assert spdc_branch_pattern("1111", inputs, 8).modes() == (4, 5, 6, 7)
        assert spdc_branch_pattern("2002", inputs, 8).modes() == (4, 4, 7, 7)
        assert spdc_branch_pattern("0220", inputs, 8).modes() == (5, 5, 6, 6)

    def test_degenerate_weights_match_fixed_input_sampling(self, device_unitary):
        inputs = (11, 12, 19, 20)
        w = spdc_weights(0.0)  # only |0220>
        events = spdc_sample(device_unitary, w, "indistinguishable", 31, 100, inputs)
        table = distribution(device_unitary,
                             spdc_branch_pattern("0220", inputs, 32))
        direct = sample(table, rng_seed=31, count=100)
        assert [e.output for e in events] == [e.output for e in direct]
        assert all(e.branch == "0220" for e in events)

    def test_branch_frequencies(self, device_unitary):
        inputs = (11, 12, 19, 20)
        w = spdc_weights(1.0)
        events = spdc_sample(device_unitary, w, "indistinguishable", 13, 30000, inputs)
        counts = {b: 0 for b in ("1111", "2002", "0220")}
        for ev in events:
            counts[ev.branch] += 1
        for b, frac in zip(("1111", "2002", "0220"), w.normalized):
            assert abs(counts[b] / 30000 - frac) < 0.01

    def test_mixture_equals_weighted_branch_sum_m6(self):
        u = haar_unitary(6, 21).entries
        inputs = (0, 1, 2, 3)
        w = spdc_weights(1.7)
        mix = spdc_mixture_table(u, w, inputs)
        oracle = np.zeros_like(mix.probs)
        for wt, branch in zip(w.normalized, ("1111", "2002", "0220")):
            pat = spdc_branch_pattern(branch, inputs, 6)
            dist = statevector_distribution(u, pat.occupations)
            for k in range(len(mix.probs)):
                occ = mix.pattern(k).occupations
                oracle[k] += wt * dist[occ]
        assert np.abs(mix.probs - oracle).max() < 1e-10

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError, match="count must be nonnegative"):
            spdc_sample(np.eye(32), spdc_weights(1.0), "indistinguishable",
                        0, -1, (11, 12, 19, 20))

    def test_spdc_requires_four_inputs(self, device_unitary):
        with pytest.raises(ConfigurationError):
            spdc_sample(device_unitary, spdc_weights(1.0), "indistinguishable",
                        0, 10, (1, 2, 3))
