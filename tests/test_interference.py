import functools
import itertools
import logging
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from photonlat import (errors, evolution, footprint, haarstats, lattice, reconstruction,
                       validation)
from photonlat import interference as itf
from photonlat.errors import CapacityError, ConfigurationError, NumericalError
from photonlat.haarstats import haar_unitary
from photonlat.interference import (EventStream, FockPattern, _mode_lists,
                                    _output_factorials, _permanent_batch,
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
    # a step holds 2 (m + min(P, m)) complex entries per unitary and sign
    @example(e=5, p=3, n=6, extra_modes=3, step_bytes=16 * 24 * 4, seed=2)  # 4 of 32 signs
    @example(e=6, p=6, n=5, extra_modes=3, step_bytes=16 * 28 * 16 * 2,
             seed=3)                                          # all 16 signs, 2 unitaries
    @example(e=2, p=6, n=1, extra_modes=3, step_bytes=1, seed=4)
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
        with mock.patch.object(itf, "_LIST_STEP_BYTES", step_bytes):
            got = _permanents(us, rows, cols)
        assert got.shape == (e, p)
        assert np.all(np.abs(got - want) <= 1e-12 * _stack_scale(stack).reshape(e, p))


def test_twenty_by_twenty_permanent_in_sign_blocks():
    """Per of a block-diagonal matrix, rows and columns shuffled, is the
    product of its blocks' permanents; the 2^19 sign vectors run in steps
    of the step budget, which also bounds the peak."""
    rng = np.random.default_rng(20)
    blocks = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
    a = np.zeros((20, 20), dtype=complex)
    for k, block in enumerate(blocks):
        a[5 * k:5 * k + 5, 5 * k:5 * k + 5] = block
    a = a[rng.permutation(20)][:, rng.permutation(20)]
    want = math.prod(naive_permanent(block) for block in blocks)
    tracemalloc.start()
    try:
        got = permanent(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - want) <= 1e-10 * abs(want)
    assert peak <= 4 * itf._LIST_STEP_BYTES


@pytest.mark.parametrize("block_cols", [(0, 0, 1, 1, 2), (0, 0, 1, 1)],
                         ids=["odd-multiplicity", "every-multiplicity-even"])
def test_twenty_photons_on_repeated_columns_in_sign_blocks(block_cols):
    """Per of a block-diagonal matrix whose blocks repeat their columns,
    rows and columns shuffled, is the product of its blocks' permanents;
    the per-list step budget bounds the peak."""
    rng = np.random.default_rng(21)
    size, width = len(block_cols), max(block_cols) + 1
    shape = (20 // size, size, width)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u = np.zeros((20, width * len(blocks)), dtype=complex)
    for k, block in enumerate(blocks):
        u[size * k:size * k + size, width * k:width * k + width] = block
    cols = [width * k + c for k in range(len(blocks)) for c in block_cols]
    cols = [cols[i] for i in rng.permutation(20)]
    u = u[rng.permutation(20)]
    want = math.prod(naive_permanent(block[:, list(block_cols)]) for block in blocks)
    tracemalloc.start()
    try:
        got = _permanents(u[None], np.arange(20)[None], cols)[0, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - want) <= 1e-10 * abs(want)
    assert peak <= 4 * itf._LIST_STEP_BYTES


def _oracle_scale(sub):
    """Bound, over eps, on the rounding error of Glynn's sum plus that of
    the permutation sum for one n x n matrix: the mean modulus of Glynn's
    2^(n-1) terms plus Per |sub|. Glynn's terms cancel, so Per |sub| alone
    does not bound its error: a rank-one submatrix (every output on one
    mode) has terms of (sum_j |a_j|)^n against Per |sub| = n! prod_j |a_j|."""
    n = sub.shape[0]
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    delta = np.hstack([np.ones((len(bits), 1)), 1 - 2 * bits])
    terms = np.prod(sub @ delta.T, axis=0)
    return np.abs(terms).mean() + naive_permanent(np.abs(sub)).real


@st.composite
def repeated_columns(draw, max_n=6):
    """n <= ``max_n`` input columns, in any order, over at most n - 1 modes,
    so that some column repeats."""
    n = draw(st.integers(2, max_n))
    return draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))


class TestRepeatedColumns:
    """Inputs with repeated columns against the permutation sum, with steps
    small enough to split the sign blocks."""

    @settings(max_examples=60, deadline=None)
    @given(cols=repeated_columns(), e=st.integers(1, 3), p=st.integers(1, 4),
           extra_modes=st.integers(0, 2), step_bytes=st.integers(1, 2**12),
           seed=st.integers(0, 2**32 - 1))
    @example(cols=[1, 0, 2, 1, 0, 2], e=2, p=3, extra_modes=0, step_bytes=1, seed=0)
    @example(cols=[0, 0, 0, 1, 2, 2], e=1, p=2, extra_modes=1, step_bytes=1, seed=1)
    @example(cols=[3, 3, 1, 1], e=3, p=4, extra_modes=2, step_bytes=2**12, seed=2)
    def test_permanents_match_the_oracle(self, cols, e, p, extra_modes, step_bytes, seed):
        n, m = len(cols), len(cols) + extra_modes
        rng = np.random.default_rng(seed)
        us = rng.normal(size=(e, m, m)) + 1j * rng.normal(size=(e, m, m))
        rows = rng.integers(0, m, size=(p, n))
        with mock.patch.object(itf, "_LIST_STEP_BYTES", step_bytes):
            got = _permanents(us, rows, cols)
        subs = us[:, rows[:, :, None], cols]
        want = np.array([[naive_permanent(sub) for sub in row] for row in subs])
        scale = np.array([[_oracle_scale(sub) for sub in row] for row in subs])
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(cols=repeated_columns(), size=st.integers(1, 6), collision_free=st.booleans(),
           step_bytes=st.integers(1, 2**14), seed=st.integers(0, 2**32 - 1))
    @example(cols=[0, 0, 1, 1, 2, 2], size=6, collision_free=False, step_bytes=1, seed=0)
    @example(cols=[2, 0, 0, 0], size=5, collision_free=True, step_bytes=1, seed=1)
    @example(cols=[0, 0, 0, 0, 0, 1], size=3, collision_free=False, step_bytes=1,
             seed=8541752)  # rank-one submatrices: rows all on one mode
    def test_table_permanents_match_the_oracle(self, cols, size, collision_free,
                                               step_bytes, seed):
        n = len(cols)
        size = max(size, n) if collision_free else size
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))
        with mock.patch.object(itf, "_STEP_BYTES", step_bytes):
            got = itf._table_permanents(a, cols, collision_free)
        subs = [a[rows][:, cols] for rows in _mode_lists(n, tuple(range(size)), collision_free)]
        want = np.array([naive_permanent(sub) for sub in subs])
        scale = np.array([_oracle_scale(sub) for sub in subs])
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(cols=repeated_columns(), extra_modes=st.integers(0, 2),
           statistics=st.sampled_from(["indistinguishable", "distinguishable"]),
           step_bytes=st.integers(1, 2**12), seed=st.integers(0, 2**32 - 1))
    def test_output_probability_matches_the_oracle(self, cols, extra_modes, statistics,
                                                   step_bytes, seed):
        n, m = len(cols), len(cols) + extra_modes
        u = haar_unitary(m, seed).entries
        inp = FockPattern.from_modes(cols, m)
        out = FockPattern.from_modes(np.random.default_rng(seed).integers(0, m, size=n), m)
        with mock.patch.object(itf, "_LIST_STEP_BYTES", step_bytes):
            got = output_probability(u, inp, out, statistics)
        sub = scattering_submatrix(u, inp, out)
        s_fact = math.prod(map(math.factorial, out.occupations))
        t_fact = math.prod(map(math.factorial, inp.occupations))
        if statistics == "indistinguishable":
            want = abs(naive_permanent(sub)) ** 2 / (s_fact * t_fact)
            scale = 2 * naive_permanent(np.abs(sub)).real * _oracle_scale(sub) / (s_fact * t_fact)
        else:
            want = naive_permanent(np.abs(sub) ** 2).real / s_fact
            scale = _oracle_scale(np.abs(sub) ** 2) / s_fact
        assert abs(got - want) <= 1e-12 * scale


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


M = 6   # modes of the small chip and unitary the argument checks run on


@functools.cache
def _context():
    """A 6-mode Haar U with a 3-photon table and stream, a 2 x 3 chip and
    a HOM dataset document, each a valid value of an argument under test."""
    u = haar_unitary(M, 0).entries
    table = distribution(u, FockPattern.from_modes((0, 1, 2), M))
    layout = lattice.build_lattice(lattice.LatticeSpec(rows=2, cols=3, seed=1))
    return dict(u=u, table=table, events=sample(table, 1, 20), layout=layout,
                model=lattice.CouplingModel(), bank=lattice.default_heater_bank(layout),
                hom=reconstruction.simulate_hom_dataset(u, (0, 1, 2)).to_dict())


def _bad_whole(lo):
    """Values that are no whole number >= lo: floats (NaN and whole-valued
    ones included), booleans and integers below lo."""
    return st.one_of(st.floats(), st.booleans(), st.integers(max_value=lo - 1))


def _bad_modes(size, distinct):
    """``size`` modes of [0, M), one replaced by a float, a negative, a
    mode >= M, a boolean or, with ``distinct``, the first replaced by
    another of the modes."""
    bad = st.one_of(st.floats(), st.integers(max_value=-1), st.integers(min_value=M),
                    st.booleans())

    def corrupt(modes):
        lists = st.tuples(st.integers(0, size - 1), bad).map(
            lambda iv: modes[:iv[0]] + [iv[1]] + modes[iv[0] + 1:])
        if distinct:
            lists |= st.sampled_from(modes[1:]).map(lambda mode: [mode] + modes[1:])
        return lists
    return st.lists(st.integers(0, M - 1), min_size=size, max_size=size,
                    unique=True).flatmap(corrupt)


def _non_square():
    """Arrays of ones that are no square matrix: two unequal sides, or
    fewer or more than two."""
    shapes = st.one_of(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda s: s[0] != s[1]), st.lists(st.integers(1, 3), max_size=3).filter(
        lambda s: len(s) != 2))
    return shapes.map(np.ones)


def _with_event(field):
    """Score a one-event stream whose output or input modes are ``v``."""
    def call(c, v):
        columns = {"outputs": [c["events"].outputs[0].tolist()],
                   "input_modes": c["events"].input_modes.tolist(), field: [v]}
        return validation.run_distinguishable_test(
            EventStream([0], distinguishable=False, branches=("fock",), **columns),
            c["u"])
    return call


# (argument, its bad values, the call taking the bad value in its place). The
# inputs of submatrix_rows and simulate_hom_dataset and the uniform test's n
# and m have their own tests in test_reconstruction.py and test_validation.py.
ARGUMENT_CHECKS = {
    "FockPattern.from_modes/modes": (_bad_modes(3, False),
                                     lambda c, v: FockPattern.from_modes(v, M)),
    "FockPattern.from_modes/m": (_bad_whole(1), lambda c, v: FockPattern.from_modes((0,), v)),
    "spdc_branch_pattern/input_modes": (_bad_modes(4, True),
                                        lambda c, v: spdc_branch_pattern("1111", v, M)),
    "run_distinguishable_test/input_modes": (
        _bad_modes(4, True), lambda c, v: validation.run_distinguishable_test(
            c["events"], c["u"], spdc_weights(1.0), input_modes=v)),
    "distribution/outputs": (_bad_modes(4, True),
                             lambda c, v: distribution(c["u"], c["table"].input, outputs=v)),
    "device_submatrix_ensemble/inputs": (
        _bad_modes(2, True), lambda c, v: haarstats.device_submatrix_ensemble(
            c["layout"], c["model"], c["bank"], [v], c["bank"].powers[None])),
    "EventStream/input_modes": (_bad_modes(3, False), _with_event("input_modes")),
    "EventStream/outputs": (_bad_modes(3, False), _with_event("outputs")),
    "haar_unitary/m": (_bad_whole(1), lambda c, v: haar_unitary(v, 1)),
    "haar_unitary/rng_seed": (_bad_whole(0), lambda c, v: haar_unitary(M, v)),
    "column_similarity_distribution/rng_seed": (
        _bad_whole(0), lambda c, v: haarstats.column_similarity_distribution(M, 5, v)),
    "random_heater_powers/rng_seed": (
        _bad_whole(0), lambda c, v: haarstats.random_heater_powers(c["bank"], 2, v)),
    "simulate_hom_dataset/rng_seed": (
        _bad_whole(0), lambda c, v: reconstruction.simulate_hom_dataset(c["u"], (0, 1, 2),
                                                                        rng_seed=v)),
    "wrong_unitary_slope_histogram/rng_seed": (
        _bad_whole(0), lambda c, v: validation.wrong_unitary_slope_histogram(
            c["events"], c["u"], "distinguishable", 3, M, 5, v)),
    "column_similarity_distribution/m": (
        _bad_whole(1), lambda c, v: haarstats.column_similarity_distribution(v, 5, 1)),
    "_haar_columns/k": (_bad_whole(1) | st.integers(min_value=M + 1),
                        lambda c, v: haarstats._haar_columns(M, v, 1, 3)),
    "column_similarity_distribution/ensemble_size": (
        _bad_whole(2), lambda c, v: haarstats.column_similarity_distribution(M, v, 1)),
    "column_similarity_distribution/n_bins": (
        _bad_whole(1), lambda c, v: haarstats.column_similarity_distribution(M, 5, 1, v)),
    "random_heater_powers/n": (_bad_whole(1),
                               lambda c, v: haarstats.random_heater_powers(c["bank"], v, 1)),
    "propagate/n_steps": (_bad_whole(1), lambda c, v: evolution.propagate(
        c["layout"], c["model"], c["bank"], n_steps=v)),
    "sample/count": (_bad_whole(0), lambda c, v: sample(c["table"], 1, v)),
    "sample/rng_seed": (_bad_whole(0), lambda c, v: sample(c["table"], v, 5)),
    "spdc_sample/count": (_bad_whole(0), lambda c, v: spdc_sample(
        c["u"], spdc_weights(1.0), "indistinguishable", 1, v, (0, 1, 2, 3))),
    "spdc_sample/rng_seed": (_bad_whole(0), lambda c, v: spdc_sample(
        c["u"], spdc_weights(1.0), "indistinguishable", v, 5, (0, 1, 2, 3))),
    "wrong_unitary_slope_histogram/ensemble_size": (
        _bad_whole(2), lambda c, v: validation.wrong_unitary_slope_histogram(
            c["events"], c["u"], "distinguishable", 3, M, v, 0)),
    "clements_length/m": (_bad_whole(2),
                          lambda c, v: footprint.clements_length(v, 30.0, 0.06, 1.0)),
    "min_spread_length/m": (_bad_whole(2),
                            lambda c, v: footprint.min_spread_length("square", v, 1.0)),
    "fan_length/m": (_bad_whole(2), lambda c, v: footprint.fan_length(v, 30.0, 0.127)),
    "compare_layouts/m_values": (_bad_whole(2), lambda c, v: footprint.compare_layouts(
        [v], footprint.FootprintParams(), check_scaling=False)),
    "HomDataset.from_dict/n_outputs": (_bad_whole(2), lambda c, v:
                                       reconstruction.HomDataset.from_dict(
                                           {**c["hom"], "n_outputs": v})),
    "permanent/a": (_non_square(), lambda c, v: permanent(v)),
    "unitarity_defect/u": (_non_square(), lambda c, v: evolution.unitarity_defect(v)),
    "output_probability/u": (_non_square(), lambda c, v: output_probability(
        v, c["table"].input, c["table"].input)),
    "distribution/u": (_non_square(), lambda c, v: distribution(v, c["table"].input)),
    "spdc_sample/u": (_non_square(), lambda c, v: spdc_sample(
        v, spdc_weights(1.0), "indistinguishable", 1, 5, (0, 1, 2, 3))),
    "run_uniform_test/u": (_non_square(), lambda c, v: validation.run_uniform_test(
        c["events"], v, 3, M)),
    "run_distinguishable_test/u": (_non_square(), lambda c, v:
                                   validation.run_distinguishable_test(c["events"], v)),
    "wrong_unitary_slope_histogram/true_u": (
        _non_square(), lambda c, v: validation.wrong_unitary_slope_histogram(
            c["events"], v, "distinguishable", 3, M, 5, 0)),
}


@settings(max_examples=400, deadline=None)
@given(drawn=st.sampled_from(sorted(ARGUMENT_CHECKS)).flatmap(
    lambda key: st.tuples(st.just(key), ARGUMENT_CHECKS[key][0])))
@example(drawn=("FockPattern.from_modes/modes", 3))
@example(drawn=("distribution/outputs", [0.5, 1, 2, 3]))
@example(drawn=("distribution/outputs", [True, 2, 3, 4]))
@example(drawn=("EventStream/outputs", [True, 2, 3]))
@example(drawn=("EventStream/input_modes", [True, 2, 3]))
@example(drawn=("spdc_branch_pattern/input_modes", (0.5, 1, 2, 3)))
@example(drawn=("spdc_branch_pattern/input_modes", (1, 1, 2, 3)))
@example(drawn=("spdc_branch_pattern/input_modes", (True, 2, 3, 4)))
@example(drawn=("run_distinguishable_test/input_modes", (1, 1, 2, 3)))
@example(drawn=("device_submatrix_ensemble/inputs", [1.5]))
@example(drawn=("device_submatrix_ensemble/inputs", [True, 2]))
@example(drawn=("propagate/n_steps", 2.5))
@example(drawn=("propagate/n_steps", True))
@example(drawn=("random_heater_powers/n", 2.5))
@example(drawn=("column_similarity_distribution/ensemble_size", 2.5))
@example(drawn=("haar_unitary/m", 2.5))
@example(drawn=("sample/count", 2.5))
@example(drawn=("sample/count", True))
@example(drawn=("spdc_sample/count", 2.5))
@example(drawn=("wrong_unitary_slope_histogram/ensemble_size", 2.5))
@example(drawn=("wrong_unitary_slope_histogram/ensemble_size", math.nan))
@example(drawn=("unitarity_defect/u", np.ones((2, 3))))
@example(drawn=("compare_layouts/m_values", 2.5))
@example(drawn=("compare_layouts/m_values", math.nan))
@example(drawn=("compare_layouts/m_values", math.inf))
@example(drawn=("column_similarity_distribution/m", 0))
@example(drawn=("_haar_columns/k", M + 1))
@example(drawn=("sample/rng_seed", 2.7))
@example(drawn=("sample/rng_seed", -1))
@example(drawn=("sample/rng_seed", math.nan))
@example(drawn=("spdc_sample/rng_seed", 2.7))
@example(drawn=("haar_unitary/rng_seed", -1))
@example(drawn=("haar_unitary/rng_seed", 2.5))
@example(drawn=("column_similarity_distribution/rng_seed", math.nan))
@example(drawn=("random_heater_powers/rng_seed", 2.5))
@example(drawn=("simulate_hom_dataset/rng_seed", 2.5))
@example(drawn=("wrong_unitary_slope_histogram/rng_seed", -1))
@example(drawn=("FockPattern.from_modes/m", 2.5))
def test_bad_argument_raises_configuration_error(drawn):
    """Every entry point rejects a bad mode list, whole count or square
    matrix with ConfigurationError, never with another exception."""
    key, bad = drawn
    with pytest.raises(ConfigurationError):
        ARGUMENT_CHECKS[key][1](_context(), bad)


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


@st.composite
def table_cases(draw):
    """A Haar U of m <= 6 modes, an input of n <= 6 photons with repeated
    modes allowed, and a sorted output subset that holds n photons
    collision-free, n = len(outputs) included."""
    m = draw(st.integers(1, 6))
    collision_free = draw(st.booleans())
    n = draw(st.integers(1, m if collision_free else 6))
    outputs = sorted(draw(st.sets(st.integers(0, m - 1),
                                  min_size=n if collision_free else 1)))
    modes = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    u = haar_unitary(m, draw(st.integers(0, 2**32 - 1))).entries
    return u, FockPattern.from_modes(modes, m), collision_free, outputs


class TestTable:
    """A table's shared row products give what each list gives alone."""

    @settings(max_examples=80, deadline=None)
    @given(case=table_cases(), step_bytes=st.integers(1, 2**12),
           statistics=st.sampled_from(["indistinguishable", "distinguishable"]))
    @example(case=(haar_unitary(6, 1).entries, FockPattern.from_modes((0, 0, 2, 5), 6),
                   True, [1, 2, 3, 5]), step_bytes=1, statistics="indistinguishable")
    @example(case=(haar_unitary(6, 2).entries, FockPattern.from_modes((1, 1, 1, 3, 4, 4), 6),
                   False, [0, 2, 3, 5]), step_bytes=2**12, statistics="distinguishable")
    def test_table_equals_per_list_kernel_and_oracle(self, case, step_bytes, statistics):
        u, inp, collision_free, outputs = case
        with mock.patch.object(itf, "_STEP_BYTES", step_bytes):
            table = distribution(u, inp, statistics, collision_free, outputs)
        n, lists = inp.n, table.mode_lists
        combos = itertools.combinations if collision_free else \
            itertools.combinations_with_replacement
        assert lists.tolist() == [list(c) for c in combos(outputs, n)]
        amplitudes = u if statistics == "indistinguishable" else np.abs(u) ** 2
        per = _permanents(amplitudes[None], lists, list(inp.modes()))[0]
        patterns = [table.pattern(k).occupations for k in range(len(lists))]
        s_facts = np.array([math.prod(map(math.factorial, occ)) for occ in patterns])
        t_fact = math.prod(map(math.factorial, inp.occupations))
        each = (np.abs(per) ** 2 / (s_facts * t_fact) if statistics == "indistinguishable"
                else per.real / s_facts)
        oracle = (statevector_distribution if statistics == "indistinguishable"
                  else distinguishable_distribution)(u, inp.occupations)
        assert np.abs(table.probs - np.maximum(each, 0.0)).max() <= 1e-12
        assert np.abs(table.probs - [oracle[occ] for occ in patterns]).max() <= 1e-12

    @pytest.mark.parametrize("collision_free", [True, False])
    def test_distribution_logs_its_levels(self, caplog, collision_free):
        u = haar_unitary(32, 15).entries
        with caplog.at_level(logging.DEBUG, logger="photonlat.interference"):
            table = distribution(u, FockPattern.from_modes((10, 11, 12, 19, 20), 32),
                                 collision_free=collision_free, outputs=range(31))
        patterns, levels, blocks, signs, held, bound = table_log(caplog, 5)
        # collision-free, level j keeps the j-lists led by output n - j or later
        assert levels == [math.comb(31 - 5 + j, j) if collision_free else
                          math.comb(31 + j - 1, j) for j in range(1, 6)]
        assert patterns == levels[-1] == len(table.probs) == max(levels)
        assert blocks * signs == 2 ** 4
        assert held == max(levels[:-1]) * signs * 16 <= itf._STEP_BYTES
        assert bound == itf._STEP_BYTES + max(levels[:-1]) * 16

    @pytest.mark.parametrize("n, collision_free", [(5, True), (5, False), (6, True)])
    def test_step_bound_when_one_sign_outgrows_the_budget(self, caplog, monkeypatch,
                                                          n, collision_free):
        # one sign's level products exceed the budget, and a sign block
        # cannot shrink below one sign: each step holds more than the budget
        monkeypatch.setattr(itf, "_STEP_BYTES", 2**16)
        u = haar_unitary(32, 15).entries
        with caplog.at_level(logging.DEBUG, logger="photonlat.interference"):
            tracemalloc.start()
            try:
                per = itf._table_permanents(u[:31], list(range(10, 10 + n)), collision_free)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        patterns, levels, blocks, signs, held, bound = table_log(caplog, n)
        assert (patterns, blocks, signs) == (len(per), 2 ** (n - 1), 1)
        assert held == 16 * max(levels[:-1]) > itf._STEP_BYTES
        assert bound == 16 * (31 + sum(levels[:-1])) + held
        assert peak - per.nbytes <= bound


def table_log(caplog, n):
    """(patterns, lists per level, sign blocks, signs per block, bytes of the
    largest level held, step bound) of the one n-photon table over 31
    outputs that the kernel logged."""
    [message] = [r.getMessage() for r in caplog.records
                 if r.name == "photonlat.interference"]
    found = re.fullmatch(rf"(\d+) patterns of {n} photons over 31 outputs: lists per "
                         r"level \[([\d, ]+)\], (\d+) sign blocks of (\d+) signs, "
                         r"largest level held (\d+) bytes, each step at most (\d+) bytes",
                         message)
    assert found, message
    patterns, blocks, signs, held, bound = map(int, found.group(1, 3, 4, 5, 6))
    return patterns, [int(k) for k in found.group(2).split(", ")], blocks, signs, held, bound


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

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5), collision_free=st.booleans(), outputs=st.one_of(
        st.sets(st.integers(0, 40), min_size=1, max_size=12).map(sorted).map(tuple),
        st.tuples(st.integers(0, 20), st.integers(1, 12)).map(lambda t: range(t[0], sum(t)))))
    @example(n=3, collision_free=True, outputs=(7,))
    @example(n=3, collision_free=False, outputs=(7,))
    @example(n=5, collision_free=True, outputs=range(3, 8))
    @example(n=4, collision_free=False, outputs=(0, 9, 17, 31))
    def test_lists_equal_itertools(self, n, collision_free, outputs):
        """In order, shape and dtype, over sorted distinct outputs given as a
        tuple or a range."""
        combos = (itertools.combinations if collision_free
                  else itertools.combinations_with_replacement)
        want = np.array(list(combos(outputs, n)), dtype=np.intp).reshape(-1, n)
        got = _mode_lists(n, outputs, collision_free)
        assert got.dtype == np.intp
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
@example(n=20, data=None)
def test_output_factorials_equal_math_factorials(n, data):
    """prod_i s_i! of sorted mode lists, exact up to 20 photons in one mode."""
    if data is None:
        lists = np.zeros((1, 20), dtype=np.intp)
    else:
        lists = np.sort(np.array(data.draw(st.lists(
            st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=20)),
            dtype=np.intp), axis=1)
    want = [math.prod(math.factorial(c) for c in np.bincount(row).tolist())
            for row in lists]
    got = _output_factorials(lists)
    assert got.dtype == np.int64
    assert got.tolist() == want


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

    @pytest.mark.parametrize("statistics", ["indistinguishable", "distinguishable"])
    @pytest.mark.parametrize("collision_free", [True, False])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_charge_bounds_its_peak(self, n, collision_free, statistics, monkeypatch):
        u = haar_unitary(32, 15).entries

        def table():
            return distribution(u, FockPattern.from_modes(range(10, 10 + n), 32), statistics,
                                collision_free, outputs=range(31))
        tracemalloc.start()
        try:
            table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a limit one kernel step and a byte under the peak rejects the table:
        # its charge counts all of the peak but that step
        monkeypatch.setattr(errors, "MAX_TABLE_BYTES", peak - itf._STEP_BYTES - 1)
        with pytest.raises(CapacityError, match="output patterns"):
            table()

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


def _stream(**columns):
    """A two-event 3-photon stream, with any column replaced."""
    base = dict(branch=[0, 0], outputs=[(0, 1, 2), (1, 2, 3)], branches=("fock",),
                input_modes=[(0, 1, 2)], distinguishable=True)
    return EventStream(**{**base, **columns})


class TestEventStream:
    def test_rows_and_sub_streams(self):
        events = _stream()
        assert len(events) == 2 and events.n == 3
        assert list(events) == [itf.SampleEvent(0, "fock", (0, 1, 2), (0, 1, 2), True),
                                itf.SampleEvent(1, "fock", (0, 1, 2), (1, 2, 3), True)]
        tail = events[1:]
        assert np.array_equal(tail.outputs, [[1, 2, 3]]) and tail.distinguishable
        assert np.array_equal(events[[1, 1, 0]].outputs, [(1, 2, 3), (1, 2, 3), (0, 1, 2)])

    def test_columns_are_read_only(self):
        events = _stream()
        with pytest.raises(ValueError):
            events.outputs[0, 0] = -1

    @pytest.mark.parametrize("column, value, match", [
        ("branch", [0, 1], "branch codes must index"),
        ("branch", [0, -1], "branch codes"),
        ("outputs", [(0, 1, 2), (1, 2, True)], "output modes"),
        ("outputs", [(0, 1, 2), (1, 2, 3.0)], "output modes"),
        ("outputs", [(0, 1, 2), (1, 2, -1)], "output modes"),
        ("outputs", np.array([[0, 1, 2], [1, 2, 3]], dtype=float), "output modes"),
        ("outputs", np.ones((2, 3), dtype=bool), "output modes"),
        ("outputs", [(0, 1, 2), (1, 2)], "output modes"),
        ("outputs", [(0, 1), (1, 2)], "one photon number"),
        ("outputs", [(0, 1, 2)], "unequal lengths"),
        ("input_modes", [(True, 1, 2)], "input modes"),
        ("input_modes", [(0, 1, 2), (0, 1, 3)], "input rows"),
        ("distinguishable", 1, "distinguishable flag"),
        ("distinguishable", np.array([0, 1]), "distinguishable flag"),
    ], ids=["unknown-branch", "negative-branch", "bool-mode",
            "float-mode", "negative-mode", "float-array", "bool-array", "ragged-outputs",
            "mixed-photon-numbers", "short-column", "bool-input-mode", "extra-input-row",
            "int-flags", "int-flag-array"])
    def test_bad_column_rejected_when_built(self, column, value, match):
        with pytest.raises(ConfigurationError, match=match):
            _stream(**{column: value})

    @pytest.mark.parametrize("n", [3, 4])
    def test_event_bytes_cover_the_draw_peak(self, n, monkeypatch):
        u, count = haar_unitary(32, 3).entries, 100000
        if n == 3:
            table = distribution(u, FockPattern.from_modes((12, 19, 20), 32),
                                 outputs=range(31))

            def draw():
                return sample(table, 1, count)
        else:
            # the branch tables have their own limit: the draw alone is measured
            tables = itf.spdc_branch_tables(u, (11, 12, 19, 20))
            monkeypatch.setattr(itf, "spdc_branch_tables", lambda *args: tables)

            def draw():
                return spdc_sample(u, spdc_weights(1.0), "indistinguishable", 1, count,
                                   (11, 12, 19, 20))
        tracemalloc.start()
        try:
            assert len(draw()) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a limit just under the peak rejects the draw: it counts at least the peak
        monkeypatch.setattr(errors, "MAX_TABLE_BYTES", peak - 1)
        with pytest.raises(CapacityError, match=f"{count} events of {n} photons"):
            draw()


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
        with pytest.raises(ConfigurationError, match="count must be a whole number >= 0"):
            spdc_sample(np.eye(32), spdc_weights(1.0), "indistinguishable",
                        0, -1, (11, 12, 19, 20))

    def test_spdc_requires_four_inputs(self, device_unitary):
        with pytest.raises(ConfigurationError):
            spdc_sample(device_unitary, spdc_weights(1.0), "indistinguishable",
                        0, 10, (1, 2, 3))
