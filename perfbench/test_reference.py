"""Closed-form tests of the benchmark's reference computations.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import reference as ref

COUPLING = {"c0": 0.2, "d0": 11.0, "kappa": 3.0, "max_distance": 15.0, "truncation": 1e-4}
NO_HEATERS = {"positions": np.zeros((0, 2)), "spans": np.zeros((0, 2)),
              "powers": np.zeros(0), "kernel_width": 50.0, "alpha_t": 1.0}


@pytest.mark.parametrize("n", range(1, 7))
def test_permanent_of_all_ones_is_n_factorial(n):
    assert ref.permanent(np.ones((n, n))) == math.factorial(n)


def test_permanent_of_2x2_and_of_a_stack():
    a = np.array([[[1, 2], [3, 4]], [[1j, 1], [1, 1j]]])
    np.testing.assert_allclose(ref.permanent(a), [1 * 4 + 2 * 3, 1j * 1j + 1])


def test_ode_two_mode_coupler_transfers_sin_squared():
    length = 36.0
    pos = np.array([[0.0, 0.0], [11.0, 0.0]])
    u = ref.ode_unitary(lambda z: pos, pos, [0.0, length], length, COUPLING, NO_HEATERS)
    c = COUPLING["c0"]
    np.testing.assert_allclose(abs(u[1, 0]) ** 2, math.sin(c * length) ** 2, atol=1e-11)
    np.testing.assert_allclose(abs(u[0, 0]) ** 2, math.cos(c * length) ** 2, atol=1e-11)
    assert ref.unitarity_defect(u) < 1e-11


def test_ode_heater_imprints_gaussian_weighted_phase_over_its_window():
    pos = np.array([[0.0, 0.0]])
    heaters = {"positions": np.array([[0.0, 30.0]]), "spans": np.array([[2.0, 5.0]]),
               "powers": np.array([120.0]), "kernel_width": 50.0, "alpha_t": 0.01}
    u = ref.ode_unitary(lambda z: pos, pos, [0.0, 10.0], 10.0, COUPLING, heaters)
    phase = 0.01 * 120.0 * math.exp(-30.0 ** 2 / (2 * 50.0 ** 2)) * 3.0
    np.testing.assert_allclose(u[0, 0], np.exp(1j * phase), atol=1e-11)


def test_w_rule_steps_up_only_where_the_inputs_reach_the_outputs():
    u = np.eye(4)
    steps, near = ref.w_steps(u, (0, 1), [(0, 1), (2, 3), (1, 2)], m_detected=4)
    # P = 1, 0, 0 against the threshold (2/4)^2
    assert steps.tolist() == [1, -1, -1]
    assert not near.any()


def test_c_rule_on_a_beam_splitter():
    t = 0.3
    u = np.array([[math.cos(t), 1j * math.sin(t)], [1j * math.sin(t), math.cos(t)]])
    q, d = ref.qd_probabilities(u, (0, 1), [(0, 1)])
    np.testing.assert_allclose(q, math.cos(2 * t) ** 2)
    np.testing.assert_allclose(d, math.cos(t) ** 4 + math.sin(t) ** 4)
    steps, near = ref.c_steps_from_qd(q, d)
    assert steps.tolist() == [1 if math.cos(2 * t) ** 2 >= d[0] else -1]
    # the balanced splitter suppresses the coincidence (HOM): L = 0
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    steps, _ = ref.c_steps_from_qd(*ref.qd_probabilities(h, (0, 1), [(0, 1)]))
    assert steps.tolist() == [-1]


def test_c_rule_skips_events_without_likelihood_and_flags_ties():
    steps, near = ref.c_steps_from_qd([0.2, 0.3, 0.0], [0.2, 0.1, 0.0])
    assert steps.tolist() == [1, 1, 0]
    assert near.tolist() == [True, False, False]


def test_doubly_occupied_input_divides_q_by_two():
    # |2,0> on a coupler: q = |Per|^2 / 2! = 2 |U00 U10|^2 = d
    t = 0.4
    u = np.array([[math.cos(t), 1j * math.sin(t)], [1j * math.sin(t), math.cos(t)]])
    q, d = ref.qd_probabilities(u, (0, 0), [(0, 1)])
    expected = 2 * (math.cos(t) * math.sin(t)) ** 2
    np.testing.assert_allclose([q[0], d[0]], [expected, expected])


def test_spdc_weights_and_branch_inputs():
    w = ref.spdc_weights(2.0)
    np.testing.assert_allclose([w["1111"], w["2002"], w["0220"]], np.array([2, 4, 1]) / 7)
    assert ref.spdc_input_modes("2002", (11, 12, 19, 20)) == (11, 11, 20, 20)
    assert ref.spdc_input_modes("0220", (11, 12, 19, 20)) == (12, 12, 19, 19)


def test_mixture_is_the_weighted_sum_of_branch_laws():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u, _ = np.linalg.qr(z)
    source = (0, 1, 2, 3)
    outputs = [(0, 1, 4, 5), (1, 2, 3, 5)]
    w = ref.spdc_weights(1.0)
    q, d = ref.mixture_qd(u, source, w, outputs)
    q_b = {b: ref.qd_probabilities(u, ref.spdc_input_modes(b, source), outputs) for b in w}
    np.testing.assert_allclose(q, sum(w[b] * q_b[b][0] for b in w))
    np.testing.assert_allclose(d, sum(w[b] * q_b[b][1] for b in w))


def test_ls_slope_of_a_line():
    assert ref.ls_slope(3.0 * np.arange(1, 11) + 2.0) == pytest.approx(3.0)


def _random_rows(seed, rows=3, cols=6):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.0, (rows, cols)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (rows, cols)))


def test_quadruple_rmse_ignores_row_and_column_phases_and_row_conjugation():
    t = _random_rows(1)
    rng = np.random.default_rng(2)
    gauged = (np.exp(1j * rng.uniform(-np.pi, np.pi, 3))[:, None] * t
              * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))[None, :])
    phases = np.angle(gauged)
    phases[1] = -phases[1]
    assert ref.quadruple_rmse(phases, t) < 1e-12


def test_quadruple_rmse_of_a_single_shifted_phase():
    # 2 x 2 has one quadruple Q = th00 + th11 - th01 - th10; shifting th11
    # by delta shifts Q by delta, and conjugating rows only moves Q further
    t = np.exp(1j * np.array([[0.0, 0.0], [0.0, 1.0]]))
    phases = np.array([[0.0, 0.0], [0.0, 1.1]])
    assert ref.quadruple_rmse(phases, t) == pytest.approx(0.1)
