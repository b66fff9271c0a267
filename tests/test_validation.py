import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from photonlat import errors
from photonlat import interference as itf
from photonlat import validation as val
from photonlat.errors import CapacityError, ConfigurationError
from photonlat.haarstats import _haar_columns, haar_unitary

INPUTS4 = (11, 12, 19, 20)
INPUTS3 = INPUTS4[1:]
OUTPUTS31 = tuple(i for i in range(32) if i != 31)


def fock_stream(outputs, inputs):
    """A stream of the given output mode lists from one Fock input."""
    return itf.EventStream([0] * len(outputs), outputs, ("fock",), [inputs], False)


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
        trace = val.run_uniform_test(fock_stream([(0, 1, 2)], (0, 1, 2)), u, 32)
        assert (3 / 32) ** 3 == pytest.approx(8.24e-4, abs=1e-6)
        assert trace.counters[0] == 1          # P = 1e-3 >= threshold

    def test_counter_steps_are_unit(self, device_unitary, streams):
        trace = val.run_uniform_test(streams["bs"], device_unitary, 31)
        steps = np.diff(np.concatenate([[0], trace.counters]))
        assert set(steps.tolist()) <= {-1, 1}

    def test_bs_stream_positive_slope(self, device_unitary, streams):
        trace = val.run_uniform_test(streams["bs"], device_unitary, 31)
        assert trace.slope > 0

    def test_uniform_random_events_nonpositive_slope(self, device_unitary):
        rng = np.random.default_rng(3)
        events = fock_stream([sorted(rng.choice(OUTPUTS31, 3, replace=False))
                              for _ in range(10000)], INPUTS3)
        trace = val.run_uniform_test(events, device_unitary, 31)
        assert trace.slope <= 0

    def test_wrong_photon_number_rejected(self, device_unitary, streams):
        # a stream holds one photon number: a 2-photon event joins no 3-photon stream
        outputs = streams["bs"][:50].outputs.tolist()
        with pytest.raises(ConfigurationError, match="output modes"):
            fock_stream(outputs + [(1, 2)], INPUTS3)
        with pytest.raises(ConfigurationError, match="one photon number"):
            fock_stream([(1, 2)], INPUTS3)

    @pytest.mark.parametrize("m", [0, -6, 2.5, float("nan")],
                             ids=["m_zero", "m_negative", "m_fraction", "m_nan"])
    def test_sizes_must_be_whole_numbers_from_1(self, device_unitary, streams, m):
        # unchecked, m = 0 divided by zero and m = -6 gave slope 1.0
        events = streams["bs"][:20]
        with pytest.raises(ConfigurationError, match="must be a whole number >= 1"):
            val.run_uniform_test(events, device_unitary, m)
        with pytest.raises(ConfigurationError, match="must be a whole number >= 1"):
            val.wrong_unitary_slope_histogram(events, device_unitary, "uniform", m,
                                              ensemble_size=5, rng_seed=0)

    def test_boolean_output_rejected(self):
        # numpy would cast (True, 2, 3) into the integer array (1, 2, 3)
        u = haar_unitary(6, rng_seed=0).entries
        with pytest.raises(ConfigurationError, match="output modes"):
            val.run_uniform_test(fock_stream([(True, 2, 3)], (0, 1, 2)), u, 6)

    def test_determinism(self, device_unitary, streams):
        t1 = val.run_uniform_test(streams["bs"], device_unitary, 31)
        t2 = val.run_uniform_test(streams["bs"], device_unitary, 31)
        assert np.array_equal(t1.counters, t2.counters)


class TestDistinguishableTest:
    def test_single_photon_ties_step_up(self):
        u = haar_unitary(6, rng_seed=0).entries
        trace = val.run_distinguishable_test(fock_stream([(i % 6,) for i in range(20)], (2,)), u)
        assert np.array_equal(trace.counters, np.arange(1, 21))

    def test_hom_suppressed_outcome_steps_down(self):
        bs = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
        trace = val.run_distinguishable_test(fock_stream([(0, 1)], (0, 1)), bs)
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
        trace = val.run_distinguishable_test(fock_stream([(2, 3), (0, 1)], (0, 1)), u)
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


def two_branches(first, second, outputs):
    """A stream of two events, one from each of two Fock inputs."""
    return itf.EventStream([0, 1], outputs, ("fock", "fock"), [first, second], False)


def score(test, events, u):
    if test == "uniform":
        return val.run_uniform_test(events, u, 32)
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
        with pytest.raises(ConfigurationError):
            score(test, two_branches((0, 1, 2), inp, [(3, 4, 5), out]), u)

    def test_nonsquare_u_rejected(self, test):
        u = haar_unitary(8, rng_seed=1).entries[:, :5]
        with pytest.raises(ConfigurationError):
            score(test, fock_stream([(0, 1, 2)], (0, 1, 2)), u)

    @pytest.mark.parametrize("boolean_first", [False, True])
    def test_boolean_input_mode_rejected_in_either_order(self, test, boolean_first):
        # (True, 2, 3) == (1, 2, 3), so grouping by input would merge them
        # the stream that would carry them to a test is never built
        inputs = [(1, 2, 3), (True, 2, 3)]
        if boolean_first:
            inputs.reverse()
        with pytest.raises(ConfigurationError, match="input modes"):
            two_branches(*inputs, [(3, 4, 5)] * 2)

    def test_wrong_photon_number_rejected(self, test, device_unitary, streams):
        # a stream holds one n: events of 2 and of 4 photons join no 3-photon stream
        outputs = streams["bs"][:50].outputs.tolist()
        for stray in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ConfigurationError, match="output modes"):
                fock_stream(outputs + [stray], INPUTS3)
        if test == "distinguishable":
            # the 4-photon SPDC mixture scoring a 3-photon stream rejects it
            # whole, every event tallied
            trace = val.run_distinguishable_test(streams["bs"][:50], device_unitary,
                                                 itf.spdc_weights(1.0), INPUTS4)
            assert trace.n_rejected == 50
            assert trace.n_events == 0


class TestWrongUnitaryEnsemble:
    def test_zscore_above_three_for_faithful_stream(self, device_unitary, streams):
        events = streams["bs"][:300]
        for kind in ("uniform", "distinguishable"):
            ens = val.wrong_unitary_slope_histogram(events, device_unitary,
                                                    kind, 31, 200, rng_seed=5)
            assert ens.z_score > 3
            assert ens.mean < 0      # wrong unitaries reject the data

    def test_normalized_slopes(self, device_unitary, streams):
        ref = val.run_distinguishable_test(streams["dist"], device_unitary)
        ens = val.wrong_unitary_slope_histogram(streams["bs"][:300], device_unitary,
                                                "distinguishable", 31, 50,
                                                rng_seed=6,
                                                reference_slope=ref.slope)
        raw = val.wrong_unitary_slope_histogram(streams["bs"][:300], device_unitary,
                                                "distinguishable", 31, 50,
                                                rng_seed=6)
        assert raw.trace.normalized_slope is None
        assert ens.trace.slope == raw.trace.slope
        assert ens.trace.normalized_slope == raw.trace.slope / abs(ref.slope)
        # z-score is scale invariant
        assert ens.z_score == pytest.approx(raw.z_score, rel=1e-9)

    def test_histogram_masses_sum_to_one(self, device_unitary, streams):
        ens = val.wrong_unitary_slope_histogram(streams["bs"][:200], device_unitary,
                                                "uniform", 31, 60, rng_seed=8)
        assert ens.histogram.masses.sum() == pytest.approx(1.0)

    def test_degenerate_ensemble_rejected(self, device_unitary, streams):
        with pytest.raises(ConfigurationError):
            val.wrong_unitary_slope_histogram(streams["bs"][:50], device_unitary,
                                              "uniform", 31, 1, rng_seed=0)

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

        def trace(v):
            if kind == "uniform":
                return val.run_uniform_test(events, v, m)
            return val.run_distinguishable_test(events, v)

        # 40 unitaries span several C chunks of the stack at 1000 events
        ens = val.wrong_unitary_slope_histogram(events, u, kind, m, 40, rng_seed=13)
        # only the input modes' columns are drawn: 3 for the Fock input, 4 for SPDC
        modes = sorted({mode for ev in events for mode in ev.input_modes})
        assert len(modes) == n
        members = []
        for cols in _haar_columns(32, n, 13, 40):
            v = np.zeros((32, 32), dtype=complex)
            v[:, modes] = cols
            members.append(trace(v).slope)
        # row 0 of the one stack scored is the stream's own trace under U
        alone = trace(u)
        assert np.array_equal(ens.trace.counters, alone.counters)
        assert (ens.trace.slope, ens.trace.n_rejected) == (alone.slope, alone.n_rejected)
        assert np.array_equal(ens.slopes, members)

    def test_branches_without_events_draw_no_columns(self, device_unitary):
        # at R = 0 every event is |0220>, whose two source modes alone are drawn
        events = itf.spdc_sample(device_unitary, itf.spdc_weights(0.0), "indistinguishable",
                                 3, 200, INPUTS4)
        alone = itf.EventStream(np.zeros(200, dtype=np.intp), events.outputs, ("0220",),
                                events.input_modes[2:], events.distinguishable)
        got, want = (val.wrong_unitary_slope_histogram(ev, device_unitary, "distinguishable",
                                                       32, 20, rng_seed=1)
                     for ev in (events, alone))
        assert np.array_equal(got.slopes, want.slopes)

    def test_nonsquare_u_rejected(self, streams):
        u = haar_unitary(8, rng_seed=1).entries[:, :5]
        with pytest.raises(ConfigurationError):
            val.wrong_unitary_slope_histogram(streams["bs"][:50], u, "uniform",
                                              31, 10, rng_seed=0)

    def test_unknown_kind_rejected(self, device_unitary, streams):
        with pytest.raises(ConfigurationError):
            val.wrong_unitary_slope_histogram(streams["bs"][:50], device_unitary,
                                              "bayes", 31, 10, rng_seed=0)

    def test_ensemble_too_large_rejected_before_drawing(self, device_unitary, streams):
        # 131,072 draws of 3 columns of 32 modes: the QR's four stacks would hold 805 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="table limit"):
                val.wrong_unitary_slope_histogram(streams["bs"][:50], device_unitary,
                                                  "distinguishable", 31, 131072,
                                                  rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("kind", ["uniform", "distinguishable"])
    def test_scoring_arrays_over_table_limit_rejected_before_drawing(
            self, device_unitary, streams, kind):
        # a million events under 4,096 members: the draw is 25 MB, but the
        # steps alone would be 32.8 GB
        events = streams["bs"][np.arange(10 ** 6) % 50]
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="scoring 1000000 events"):
                val.wrong_unitary_slope_histogram(events, device_unitary, kind, 31,
                                                  4096, rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ensemble_check_covers_the_draws_own_check(self, device_unitary, streams,
                                                       monkeypatch):
        # a limit at the draw's stacks plus the scoring arrays, short of the
        # draw's ufunc buffers: the ensemble check, not the draw, rejects it
        events = streams["bs"][:5]
        size, k = 40, len(np.unique(events.input_modes))
        monkeypatch.setattr(errors, "MAX_TABLE_BYTES",
                            64 * size * 32 * k + (size + 1) * len(events) * (32 + 8 * 3))
        with pytest.raises(CapacityError, match="scoring 5 events"):
            val.wrong_unitary_slope_histogram(events, device_unitary, "distinguishable",
                                              31, size, rng_seed=0)

    @pytest.mark.parametrize("kind", ["uniform", "distinguishable"])
    def test_counted_bytes_cover_the_peak(self, device_unitary, streams, kind, monkeypatch):
        args = (streams["bs"][np.arange(4000) % 1000], device_unitary, kind, 31, 400, 0)
        tracemalloc.start()
        try:
            val.wrong_unitary_slope_histogram(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a limit just under the peak rejects the call: it counts at least the peak
        monkeypatch.setattr(errors, "MAX_TABLE_BYTES", peak - 1)
        with pytest.raises(CapacityError, match="scoring 4000 events"):
            val.wrong_unitary_slope_histogram(*args)

    @pytest.mark.parametrize("events", [fock_stream(np.empty((0, 3), dtype=np.intp), INPUTS3),
                                        fock_stream([()], ())],
                             ids=["no-events", "no-input-modes"])
    def test_nothing_to_score_rejected(self, device_unitary, events):
        with pytest.raises(ConfigurationError, match="no input modes"):
            val.wrong_unitary_slope_histogram(events, device_unitary, "distinguishable",
                                              31, 10, rng_seed=0)


def _reference_slope(row):
    """Least-squares slope of the counter over a row's nonzero steps, by the
    textbook closed form k @ counters / (k @ k) on centred ranks k."""
    counters = np.cumsum(row[row != 0])
    if len(counters) < 2:
        return float(counters.sum())
    k = np.arange(1, len(counters) + 1) - (len(counters) + 1) / 2
    return float(k @ counters / (k @ k))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 8), k=st.integers(0, 60), data=st.data())
@example(rows=3, k=5, data=None)
def test_stack_slopes_equal_per_row_fits(rows, k, data):
    """Rows with zeros, with one kept step and with none fit exactly as each
    row does alone."""
    if data is None:
        steps = np.array([[0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [-1, 0, 1, 1, -1]])
    else:
        steps = np.array(data.draw(st.lists(st.lists(st.sampled_from([-1, 0, 0, 1]),
                                                     min_size=k, max_size=k),
                                            min_size=rows, max_size=rows)),
                         dtype=int).reshape(rows, k)
    slopes = val._slopes(steps)
    assert np.array_equal(slopes, [val._trace(row).slope for row in steps])
    assert np.array_equal(slopes, [_reference_slope(row) for row in steps])


def _two_cumsum_slopes(steps):
    """The slopes as the centred ranks against the counters, two cumulative
    sums per stack: the form the closed form replaced."""
    kept = steps != 0
    centred = np.cumsum(kept, axis=1, dtype=float)
    centred -= (kept.sum(axis=1, keepdims=True) + 1) / 2
    centred *= kept
    num = np.einsum("ek,ek->e", centred, np.cumsum(steps, axis=1))
    den = np.einsum("ek,ek->e", centred, centred)
    return np.divide(num, den, out=steps.sum(axis=1, dtype=float), where=den > 0)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([0, 1, 2, 1000]), rows=st.integers(1, 6), zeros=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(k=1000, rows=201, zeros=False, seed=0)
@example(k=1000, rows=201, zeros=True, seed=1)
def test_closed_form_slopes_equal_the_two_cumsum_form(k, rows, zeros, seed):
    steps = np.random.default_rng(seed).choice([-1, 0, 1] if zeros else [-1, 1], size=(rows, k))
    assert np.array_equal(val._slopes(steps), _two_cumsum_slopes(steps))


_TIES = st.floats(1e-300, 1.0).flatmap(
    lambda d: st.sampled_from([d, np.nextafter(d, 0.0), np.nextafter(d, 1.0)]).map(
        lambda q: (q, d)))
_ANY = st.tuples(st.floats(allow_infinity=False), st.floats(allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(qd=st.lists(st.one_of(_TIES, _ANY), min_size=1, max_size=20))
@example(qd=[(np.nan, 0.5), (0.5, np.nan), (1.0, 1.0), (np.nextafter(1.0, 0.0), 1.0),
             (1.0, 0.0), (0.0, 0.0), (-1.0, -2.0), (1e308, 1e-308)])
def test_c_step_is_the_ratio_rule_without_a_division(qd):
    """+1 where the correctly rounded q / d >= 1, -1 below it, 0 where
    d <= 0 or either is NaN: at near-ties, zeros, signs and NaNs alike."""
    q, d = np.array(qd).T[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(d > 0, q / np.where(d > 0, d, 1.0), np.nan)
    want = np.where(np.isnan(ratio), 0, np.where(ratio >= 1.0, 1, -1))
    events = fock_stream([(0, 1, 2)] * len(qd), INPUTS3)
    laws = {"indistinguishable": q, "distinguishable": d}
    with mock.patch.object(val, "_probabilities",
                           lambda permanents, us, stats, *_: laws[stats]):
        got = val._counter_steps(events, np.zeros((1, 32, 32)), "distinguishable")
    assert np.array_equal(got, want)


class TestNormalization:
    def test_trace_line_matches_polyfit(self):
        steps = np.random.default_rng(4).choice([-1, 1], size=777)
        trace = val._trace(steps)
        slope, _ = np.polyfit(np.arange(1, 778), np.cumsum(steps), 1)
        assert trace.slope == pytest.approx(slope, rel=1e-12)
        assert val._trace(np.array([-1])).slope == -1.0

    def test_normalize_trace(self, device_unitary, streams):
        bs = val.run_distinguishable_test(streams["bs"], device_unitary)
        ref = val.run_distinguishable_test(streams["dist"], device_unitary)
        normed = val.wrong_unitary_slope_histogram(
            streams["bs"], device_unitary, "distinguishable", 31, 10, rng_seed=1,
            reference_slope=ref.slope).trace
        assert normed.slope == bs.slope
        assert normed.normalized_slope == pytest.approx(bs.slope / abs(ref.slope))

    def test_zero_reference_rejected(self, device_unitary, streams):
        with pytest.raises(ConfigurationError, match="zero reference slope"):
            val.wrong_unitary_slope_histogram(streams["bs"], device_unitary,
                                              "distinguishable", 31, 10, rng_seed=1,
                                              reference_slope=0.0)
