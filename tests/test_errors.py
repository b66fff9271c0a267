"""One rule for integer and flag columns: ``errors.check_column``.

Mode lists, event-stream columns and the records of a samples file are
all judged by it. The last test reads the package's sources without
importing them and fails if a second module starts judging values by
their ``numbers`` type, which is how a second rule would come back.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import photonlat
from photonlat.errors import ConfigurationError, check_column, check_modes

SRC = Path(photonlat.__file__).resolve().parent


@pytest.mark.parametrize("modes", [iter([4, 2, 0]), range(4, -1, -2), (4, 2, 0),
                                   [np.int64(4), 2, np.uint8(0)],
                                   np.array([4, 2, 0], dtype=np.uint8)],
                         ids=["generator", "range", "tuple", "numpy-scalars", "uint8-array"])
def test_modes_of_any_iterable_read_once(modes):
    got = check_modes(modes, 5, "modes", distinct=True)
    assert got.dtype == np.intp and got.tolist() == [4, 2, 0]
    assert not got.flags.writeable


@pytest.mark.parametrize("modes", [[0, True], [0, np.bool_(True)], [0, 1.0], [0, 5], [0, -1],
                                   [0, 2 ** 70], [[0, 1]], 3, "01", np.array([0.0, 1.0]),
                                   np.array([0, 1], dtype=np.uint64), np.array(3),
                                   np.array([[0, 1]]), [1, 1]],
                         ids=["bool", "numpy-bool", "float", "beyond-m", "negative", "huge",
                              "nested", "scalar", "string", "float-array", "uint64-array",
                              "0d-array", "2d-array", "repeated"])
def test_bad_modes_rejected_naming_the_rule(modes):
    with pytest.raises(ConfigurationError, match=r"modes must be distinct whole numbers in "
                                                 r"\[0, 5\), got"):
        check_modes(modes, 5, "modes", distinct=True)


def test_dimensions():
    assert check_column([[1, 2]], "rows", ("K", "n")).shape == (1, 2)
    with pytest.raises(ConfigurationError, match=r"rows must form a \(K, n\) array of "
                                                 r"whole numbers >= 0"):
        check_column([1, 2], "rows", ("K", "n"), lo=0)


def _imported(path):
    """The top-level names of the modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_only_errors_judges_numeric_types():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "numbers" in _imported(path)] == ["errors.py"]
