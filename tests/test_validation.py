import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from photonlat import interference as itf
from photonlat import validation as val
from photonlat.errors import CapacityError, ConfigurationError
from photonlat.haarstats import haar_unitary

INPUTS4 = (11, 12, 19, 20)
INPUTS3 = INPUTS4[1:]
OUTPUTS31 = tuple(i for i in range(32) if i != 31)


@pytest.fixture(scope="module")
def streams(device_unitary):
    u = device_unitary
    pattern = itf.FockPattern.from_modes(INPUTS3, 32)
    bs_table = itf.distribution(u, pattern, outputs=OUTPUTS31)
    d_table = itf.distribution(u, pattern, statistics="distinguishable",
                               outputs=OUTPUTS31)
    return {
        "bs": itf.sample(bs_table, rng_seed=1, count=1000),
        "dist": itf.sample(d_table, rng_seed=2, count=1000),
    }


class TestUniformTest:
    def test_threshold_rule(self):
        # P = 1e-3 above the 3-photon benchmark (3/32)^3 = 8.24e-4 steps up
        u = np.zeros((32, 32), dtype=complex)
        u[:3, :3] = np.eye(3) * np.sqrt(0.1)   # row sums 0.1 over inputs
        ev = [itf.SampleEvent(0, "fock", (0, 1, 2), (0, 1, 2), False)]
        trace = val.run_uniform_test(ev, u, 3, 32)
        assert (3 / 32) ** 3 == pytest.approx(8.24e-4, abs=1e-6)
        assert trace.counters[0] == 1          # P = 1e-3 >= threshold

    def test_counter_steps_are_unit(self, device_unitary, streams):
        trace = val.run_uniform_test(streams["bs"], device_unitary, 3, 31)
        steps = np.diff(np.concatenate([[0], trace.counters]))
        assert set(steps.tolist()) <= {-1, 1}

    def test_bs_stream_positive_slope(self, device_unitary, streams):
        trace = val.run_uniform_test(streams["bs"], device_unitary, 3, 31)
        assert trace.slope > 0

    def test_uniform_random_events_nonpositive_slope(self, device_unitary):
        rng = np.random.default_rng(3)
        events = [itf.SampleEvent(i, "fock", INPUTS3,
                                  tuple(sorted(rng.choice(OUTPUTS31, 3, replace=False))),
                                  False)
                  for i in range(10000)]
        trace = val.run_uniform_test(events, device_unitary, 3, 31)
        assert trace.slope <= 0

    def test_wrong_photon_number_rejected(self, device_unitary, streams):
        stray = itf.SampleEvent(9999, "fock", INPUTS3, (1, 2), False)
        trace = val.run_uniform_test(streams["bs"][:50] + [stray],
                                     device_unitary, 3, 31)
        assert trace.n_rejected == 1
        assert trace.n_events == 50

    @pytest.mark.parametrize("n, m", [(3, 0), (3, -6), (0, 31), (3, 2.5), (True, 31),
                                      (3, float("nan"))],
                             ids=["m_zero", "m_negative", "n_zero", "m_fraction", "n_bool",
                                  "m_nan"])
    def test_sizes_must_be_whole_numbers_from_1(self, device_unitary, streams, n, m):
        # unchecked, m = 0 divided by zero and m = -6 gave slope 1.0
        events = streams["bs"][:20]
        with pytest.raises(ConfigurationError, match="whole numbers >= 1"):
            val.run_uniform_test(events, device_unitary, n, m)
        with pytest.raises(ConfigurationError, match="whole numbers >= 1"):
            val.wrong_unitary_slope_histogram(events, device_unitary, "uniform", n, m,
                                              ensemble_size=5, rng_seed=0)

    def test_determinism(self, device_unitary, streams):
        t1 = val.run_uniform_test(streams["bs"], device_unitary, 3, 31)
        t2 = val.run_uniform_test(streams["bs"], device_unitary, 3, 31)
        assert np.array_equal(t1.counters, t2.counters)


class TestDistinguishableTest:
    def test_single_photon_ties_step_up(self):
        u = haar_unitary(6, rng_seed=0).entries
        events = [itf.SampleEvent(i, "fock", (2,), (i % 6,), False)
                  for i in range(20)]
        trace = val.run_distinguishable_test(events, u)
        assert np.array_equal(trace.counters, np.arange(1, 21))

    def test_hom_suppressed_outcome_steps_down(self):
        bs = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
        ev = [itf.SampleEvent(0, "fock", (0, 1), (0, 1), False)]
        trace = val.run_distinguishable_test(ev, bs)
        assert trace.counters[0] == -1         # q = 0 < d

    def test_sign_separation(self, device_unitary, streams):
        c_bs = val.run_distinguishable_test(streams["bs"], device_unitary)
        c_d = val.run_distinguishable_test(streams["dist"], device_unitary)
        assert c_bs.slope > 0
        assert c_d.slope < 0
        for trace, alternative in ((c_bs, "greater"), (c_d, "less")):
            ups = int((np.diff(np.concatenate([[0], trace.counters])) == 1).sum())
            p = binomtest(ups, trace.n_events, 0.5, alternative=alternative).pvalue
            assert p < 1e-3

    def test_zero_d_event_skipped(self):
        u = np.eye(4, dtype=complex)
        ev = [itf.SampleEvent(0, "fock", (0, 1), (2, 3), False),
              itf.SampleEvent(1, "fock", (0, 1), (0, 1), False)]
        trace = val.run_distinguishable_test(ev, u)
        assert trace.n_rejected == 1
        assert trace.n_events == 1

    def test_mixture_scoring_needs_input_modes(self, device_unitary, streams):
        with pytest.raises(ConfigurationError):
            val.run_distinguishable_test(streams["bs"], device_unitary,
                                         weights=itf.spdc_weights(1.0))

    def test_spdc_branch_scoring(self, device_unitary):
        weights = itf.spdc_weights(1.0)
        events = itf.spdc_sample(device_unitary, weights, "indistinguishable",
                                 7, 400, INPUTS4)
        per_branch = val.run_distinguishable_test(events, device_unitary)
        marginal = val.run_distinguishable_test(events, device_unitary,
                                                weights=weights,
                                                input_modes=INPUTS4)
        assert per_branch.slope > 0
        assert marginal.n_events == 400

    @pytest.mark.parametrize("modes", [(11, 12, 19, 32), (11, 12, 19, -1)])
    def test_mixture_input_modes_out_of_range_rejected(self, device_unitary, streams, modes):
        with pytest.raises(ConfigurationError):
            val.run_distinguishable_test(streams["bs"], device_unitary,
                                         weights=itf.spdc_weights(1.0), input_modes=modes)

    def test_mixture_scoring_matches_per_event_probabilities(self, device_unitary):
        u = device_unitary
        weights = itf.spdc_weights(1.7)
        events = itf.spdc_sample(u, weights, "indistinguishable", 9, 60, INPUTS4)
        trace = val.run_distinguishable_test(events, u, weights=weights,
                                             input_modes=INPUTS4)
        patterns = [itf.spdc_branch_pattern(b, INPUTS4, 32) for b in itf.SPDC_BRANCHES]
        want = []
        for ev in events:
            out = itf.FockPattern.from_modes(ev.output, 32)
            q, d = (sum(w * itf.output_probability(u, pat, out, stats)
                        for w, pat in zip(weights.normalized, patterns))
                    for stats in ("indistinguishable", "distinguishable"))
            want.append(1 if q >= d else -1)
        assert np.array_equal(trace.counters, np.cumsum(want))


def score(test, events, u):
    if test == "uniform":
        return val.run_uniform_test(events, u, 3, 32)
    return val.run_distinguishable_test(events, u)


@pytest.mark.parametrize("test", ["uniform", "distinguishable"])
class TestInputChecks:
    @pytest.mark.parametrize("inp, out", [
        pytest.param((0, 1, 2), (0, 1, -1), id="negative-output"),
        pytest.param((0, 1, 2), (0, 1, 32), id="output-beyond-m"),
        pytest.param((0, 1, 2), (0, 1, 2.5), id="fractional-output"),
        pytest.param((0, 1, -1), (0, 1, 2), id="negative-input"),
        pytest.param((0, 1, 32), (0, 1, 2), id="input-beyond-m"),
    ])
    def test_out_of_range_modes_rejected(self, test, inp, out):
        u = haar_unitary(32, rng_seed=1).entries
        events = [itf.SampleEvent(0, "fock", (0, 1, 2), (3, 4, 5), False),
                  itf.SampleEvent(1, "fock", inp, out, False)]
        with pytest.raises(ConfigurationError):
            score(test, events, u)

    def test_nonsquare_u_rejected(self, test):
        u = haar_unitary(8, rng_seed=1).entries[:, :5]
        with pytest.raises(ConfigurationError):
            score(test, [itf.SampleEvent(0, "fock", (0, 1, 2), (0, 1, 2), False)], u)

    def test_wrong_photon_number_rejected(self, test, device_unitary, streams):
        events = streams["bs"][:50] + [
            itf.SampleEvent(9998, "fock", INPUTS3, (1, 2), False),
            itf.SampleEvent(9999, "fock", INPUTS3, (1, 2, 3, 4), False)]
        trace = score(test, events, device_unitary)
        assert trace.n_rejected - score(test, streams["bs"][:50], device_unitary).n_rejected == 2
        assert trace.n_events + trace.n_rejected == 52


class TestWrongUnitaryEnsemble:
    def test_zscore_above_three_for_faithful_stream(self, device_unitary, streams):
        events = streams["bs"][:300]
        for kind in ("uniform", "distinguishable"):
            ens = val.wrong_unitary_slope_histogram(events, device_unitary,
                                                    kind, 3, 31, 200, rng_seed=5)
            assert ens.z_score > 3
            assert ens.mean < 0      # wrong unitaries reject the data

    def test_normalized_slopes(self, device_unitary, streams):
        ref = val.run_distinguishable_test(streams["dist"], device_unitary)
        ens = val.wrong_unitary_slope_histogram(streams["bs"][:300], device_unitary,
                                                "distinguishable", 3, 31, 50,
                                                rng_seed=6,
                                                reference_slope=ref.slope)
        raw = val.wrong_unitary_slope_histogram(streams["bs"][:300], device_unitary,
                                                "distinguishable", 3, 31, 50,
                                                rng_seed=6)
        assert ens.true_slope == pytest.approx(raw.true_slope / abs(ref.slope))
        # z-score is scale invariant
        assert ens.z_score == pytest.approx(raw.z_score, rel=1e-9)

    def test_histogram_masses_sum_to_one(self, device_unitary, streams):
        ens = val.wrong_unitary_slope_histogram(streams["bs"][:200], device_unitary,
                                                "uniform", 3, 31, 60, rng_seed=8)
        assert ens.histogram.masses.sum() == pytest.approx(1.0)

    def test_degenerate_ensemble_rejected(self, device_unitary, streams):
        with pytest.raises(ConfigurationError):
            val.wrong_unitary_slope_histogram(streams["bs"][:50], device_unitary,
                                              "uniform", 3, 31, 1, rng_seed=0)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["uniform", "distinguishable"])
    def test_slopes_equal_per_unitary_rescoring(self, device_unitary, n, kind):
        u = device_unitary
        if n == 3:
            table = itf.distribution(u, itf.FockPattern.from_modes(INPUTS3, 32),
                                     outputs=OUTPUTS31)
            events, m = itf.sample(table, rng_seed=12, count=1000), 31
        else:
            events, m = itf.spdc_sample(u, itf.spdc_weights(1.0), "indistinguishable",
                                        12, 1000, INPUTS4), 32

        def slope(v):
            if kind == "uniform":
                return val.run_uniform_test(events, v, n, m).slope
            return val.run_distinguishable_test(events, v).slope

        # 40 unitaries span several C chunks of the stack at 1000 events
        ens = val.wrong_unitary_slope_histogram(events, u, kind, n, m, 40, rng_seed=13)
        seeds = np.random.SeedSequence(13).spawn(40)
        assert ens.true_slope == slope(u)
        assert np.array_equal(ens.slopes, [slope(haar_unitary(32, s).entries) for s in seeds])

    def test_nonsquare_u_rejected(self, streams):
        u = haar_unitary(8, rng_seed=1).entries[:, :5]
        with pytest.raises(ConfigurationError):
            val.wrong_unitary_slope_histogram(streams["bs"][:50], u, "uniform",
                                              3, 31, 10, rng_seed=0)

    def test_unknown_kind_rejected(self, device_unitary, streams):
        with pytest.raises(ConfigurationError):
            val.wrong_unitary_slope_histogram(streams["bs"][:50], device_unitary,
                                              "bayes", 3, 31, 10, rng_seed=0)

    def test_ensemble_too_large_rejected_before_drawing(self, device_unitary, streams):
        # 16,384 unitaries of 32 modes: the QR's four stacks would hold 1 GB
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                val.wrong_unitary_slope_histogram(streams["bs"][:50], device_unitary,
                                                  "distinguishable", 3, 31, 16384,
                                                  rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestNormalization:
    def test_trace_line_matches_polyfit(self):
        steps = np.random.default_rng(4).choice([-1, 1], size=777)
        trace = val._trace_from_steps(steps, "uniform", 0)
        slope, intercept = np.polyfit(np.arange(1, 778), np.cumsum(steps), 1)
        assert trace.slope == pytest.approx(slope, rel=1e-12)
        assert trace.intercept == pytest.approx(intercept, rel=1e-12)
        assert val._trace_from_steps([-1], "uniform", 0).slope == -1.0

    def test_normalize_trace(self, device_unitary, streams):
        bs = val.run_distinguishable_test(streams["bs"], device_unitary)
        ref = val.run_distinguishable_test(streams["dist"], device_unitary)
        normed = val.normalize_trace(bs, ref)
        assert normed.normalized_slope == pytest.approx(bs.slope / abs(ref.slope))

    def test_zero_reference_rejected(self, device_unitary, streams):
        bs = val.run_distinguishable_test(streams["bs"], device_unitary)
        flat = val.ValidationTrace(np.array([1]), "distinguishable", 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            val.normalize_trace(bs, flat)
