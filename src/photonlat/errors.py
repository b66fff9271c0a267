"""Exception hierarchy shared across the package.

Two families matter for callers: configuration problems (bad specs,
dimension mismatches, under-determined inputs) and numerical failures
(fit non-convergence, inconsistent interference data). The CLI maps the
former to exit code 2 and the latter to exit code 3. The value
predicates and ``check_fields`` below serve the config schema and the
library's parameter dataclasses alike; ``check_whole``, ``check_seed``,
``check_modes`` and ``check_square`` are the one rule for a count, a seed,
a mode list and a matrix U, each naming the argument it rejects.
``MAX_TABLE_BYTES`` is the one memory budget: :func:`check_table_bytes`
raises :class:`CapacityError` before a call allocates arrays beyond it.
"""

import dataclasses
import math
import numbers
from collections.abc import Iterable

import numpy as np

MAX_TABLE_BYTES = 256 * 2**20  # the arrays one call may hold: a table, a stack, a step plan


class ConfigurationError(ValueError):
    """Invalid spec, dimension mismatch, or violated precondition."""


class CapacityError(ConfigurationError):
    """Problem size exceeds what the exact algorithms support."""


class UnderdeterminedError(ConfigurationError):
    """Not enough independent data to reconstruct the requested rows."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class FitError(NumericalError):
    """A fit gave no usable result, such as a plateau that is not > 0."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InconsistentDataError(NumericalError):
    """Measured interference data violate the model beyond tolerance."""


class UndefinedVisibilityError(ValueError):
    """HOM visibility is undefined because the dip plateau vanishes."""


def check_table_bytes(nbytes: int, what: str) -> None:
    """Raise :class:`CapacityError` for arrays over ``MAX_TABLE_BYTES``."""
    if nbytes > MAX_TABLE_BYTES:
        raise CapacityError(f"{what} exceed the {MAX_TABLE_BYTES >> 20} MB table limit")


def is_whole(value) -> bool:
    """An integer; ``True`` is an ``int`` to Python, but not here."""
    # a plain int first: the ABC check costs about 1 us, once per occupation
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_finite(value) -> bool:
    """A finite real number; booleans excluded."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value)


_FIELD_KINDS = {"float": (is_finite, "a finite number"), "int": (is_whole, "a whole number")}


def check_fields(obj) -> None:
    """Raise ``ConfigurationError`` naming the first field of the dataclass
    ``obj`` that is declared ``float`` but is no finite real, or declared
    ``int`` but is no integer."""
    for field in dataclasses.fields(obj):
        kind = _FIELD_KINDS.get(getattr(field.type, "__name__", field.type))
        value = getattr(obj, field.name)
        if kind and not kind[0](value):
            raise ConfigurationError(
                f"{type(obj).__name__}.{field.name} = {value!r} must be {kind[1]}")


def check_whole(value, what: str, lo: int):
    """``value``, unless it is no whole number >= ``lo`` (booleans, floats
    and NaN included)."""
    if not (is_whole(value) and value >= lo):
        raise ConfigurationError(f"{what} must be a whole number >= {lo}, got {value!r}")
    return value


def check_seed(seed):
    """``seed``, unless it is neither a ``numpy.random.SeedSequence`` nor a
    whole number >= 0."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return check_whole(seed, "rng_seed", 0)


def check_modes(modes, m: int, what: str, distinct: bool = False):
    """``modes``, unless a mode is no whole number in [0, m) or, with
    ``distinct``, one repeats. An integer array is checked by its range,
    so a boolean that numpy cast into it passes as an integer, and is
    returned as it is; an array of any other dtype is rejected. Any other
    iterable is checked element by element with :func:`is_whole` and
    returned as a tuple."""
    if isinstance(modes, np.ndarray):
        ok = modes.dtype.kind in "iu" and (
            not modes.size or (modes.min() >= 0 and modes.max() < m))
        ok = ok and not (distinct and len(np.unique(modes)) != modes.size)
    elif isinstance(modes, Iterable):
        modes = tuple(modes)
        ok = all(is_whole(mode) and 0 <= mode < m for mode in modes)
        ok = ok and not (distinct and len(set(modes)) != len(modes))
    else:
        ok = False
    if not ok:
        # an array stays an array, whose repr numpy summarises when long
        raise ConfigurationError(f"{what} must be {'distinct ' if distinct else ''}whole "
                                 f"numbers in [0, {m}), got {modes!r}")
    return modes


def check_square(u, what: str) -> np.ndarray:
    """``u`` as a complex array, unless it is no square matrix of numbers."""
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be a square matrix of numbers: {exc}") from exc
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigurationError(f"{what} must be a square matrix, got shape {u.shape}")
    return u
