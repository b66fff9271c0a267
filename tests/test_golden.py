"""The CLI's output files on acceptance criterion 10's config, plus
``haar --device``, against the golden record in ``tests/golden/``."""

import pytest

from golden_outputs import CONFIG, mismatches, read_golden, record, run_commands, stack

# Where numpy, BLAS or the CPU differ from the record, a float may move by
# rounding: each must stay within this relative tolerance, or this absolute
# one for numbers formed by cancellation near 0, such as fit residuals.
FLOAT_RTOL, FLOAT_ATOL = 1e-6, 1e-12


@pytest.fixture(scope="module")
def golden():
    found = read_golden()
    assert found["config"] == CONFIG
    return found


def test_outputs_match_the_golden_record(tmp_path, golden):
    got = {name: record(data) for name, data in run_commands(tmp_path).items()}
    exact = stack() == golden["stack"]      # same numpy, BLAS and CPU: same bytes
    assert mismatches(got, golden["files"], exact, FLOAT_RTOL, FLOAT_ATOL) == []


def test_comparison_across_stacks_takes_rounding_and_nothing_more(golden):
    want = golden["files"]
    name = "sim/unitary.json"

    def changed(**fields):
        return {**want, name: {**want[name], **fields}}

    rounded = {n: {**r, "sha256": "", "floats": [f * (1 + 1e-9) for f in r["floats"]]}
               for n, r in want.items()}
    assert mismatches(rounded, want, False, FLOAT_RTOL, FLOAT_ATOL) == []
    assert mismatches(rounded, want, True, FLOAT_RTOL, FLOAT_ATOL) == sorted(want)
    floats = want[name]["floats"]
    assert mismatches(changed(floats=[floats[0] * 1.001] + floats[1:]), want, False,
                      FLOAT_RTOL, FLOAT_ATOL) == [name]
    assert mismatches(changed(ints=want[name]["ints"] + [0]), want, False,
                      FLOAT_RTOL, FLOAT_ATOL) == [name]
    assert mismatches(changed(text=want[name]["text"] + " "), want, False,
                      FLOAT_RTOL, FLOAT_ATOL) == [name]
    del rounded[name]
    assert mismatches(rounded, want, False, FLOAT_RTOL, FLOAT_ATOL) == [name]
