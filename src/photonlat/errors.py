"""Exception hierarchy shared across the package.

Two families matter for callers: configuration problems (bad specs,
dimension mismatches, under-determined inputs) and numerical failures
(fit non-convergence, inconsistent interference data). The CLI maps the
former to exit code 2 and the latter to exit code 3. The value
predicates and ``check_fields`` below serve the config schema and the
library's parameter dataclasses alike; ``check_whole``, ``check_seed``
and ``check_square`` are the one rule for a count, a seed and a matrix U,
each naming the argument it rejects. :func:`check_column` is the one rule
for a column of whole numbers: a mode list (:func:`check_modes` calls
it), an :class:`~photonlat.interference.EventStream` column and the
records of a samples file are all judged by it, an array by its dtype and
anything else by the types of its entries (:func:`entries_are`). So are
a matrix U and a stack of probability vectors: ``check_square`` and
``haarstats.pairwise_similarities`` take no boolean or string.
``MAX_TABLE_BYTES`` is the one memory budget: :func:`check_table_bytes`
raises :class:`CapacityError` before a call allocates arrays beyond it.
"""

import dataclasses
import itertools
import math
import numbers
import reprlib

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


class InconsistentDataError(NumericalError):
    """Measured interference data violate the model beyond tolerance."""


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


# the numbers an array of each set of dtype kinds holds
_KIND_NUMBERS = {"iu": numbers.Integral, "iuf": numbers.Real, "iufc": numbers.Number}


def entries_are(rows, depth: int, kinds: str) -> bool:
    """Whether every entry of the nested iterables ``rows``, ``depth``
    levels deep, is a number an array of the dtype ``kinds`` holds ("iu"
    whole, "iuf" real, "iufc" any), other than ``bool``: numpy would cast a
    boolean among numbers, or a string of digits, into a number. Raises
    ``TypeError`` when a level above the entries is not iterable."""
    for _ in range(depth - 1):
        rows = itertools.chain.from_iterable(rows)
    kind = _KIND_NUMBERS[kinds]
    return all(issubclass(t, kind) and t is not bool for t in set(map(type, rows)))


def check_column(value, what: str, dims=None, lo=None, hi=None,
                 distinct: bool = False) -> np.ndarray:
    """``value`` as a read-only ``np.intp`` array, unless an entry is no
    whole number, below ``lo``, at or above ``hi`` or, with ``distinct``,
    repeated. ``dims`` names the array's dimensions; without them it is one
    flat list.

    An array is judged by its dtype. Any other iterable is read once, so a
    generator is consumed here, and judged by the types of its entries:
    numpy would cast a boolean among integers into an integer, so only a
    ``numbers.Integral`` other than ``bool`` is a whole number. Then one
    min and max against [lo, hi) and, with ``distinct``, one ``np.unique``.
    """
    depth = len(dims) if dims else 1
    try:
        if isinstance(value, np.ndarray):
            ok = value.dtype.kind in "iu" and np.can_cast(value.dtype, np.intp)
        else:
            value = list(value)
            ok = entries_are(value, depth, "iu")
        arr = np.asarray(value, dtype=np.intp).view() if ok else None
    except (TypeError, ValueError, OverflowError):   # not iterable, ragged, too large
        ok = False
    ok = ok and arr.ndim == depth
    if ok and arr.size:
        ok = (lo is None or arr.min() >= lo) and (hi is None or arr.max() < hi) and \
            not (distinct and len(np.unique(arr)) != arr.size)
    if not ok:
        bounds = f" in [{lo}, {hi})" if hi is not None else "" if lo is None else f" >= {lo}"
        shape = "be" if dims is None else f"form a ({', '.join(dims)}) array of"
        raise ConfigurationError(f"{what} must {shape} {'distinct ' * distinct}"
                                 f"whole numbers{bounds}, got {reprlib.repr(value)}")
    arr.flags.writeable = False
    return arr


def check_modes(modes, m: int, what: str, distinct: bool = False) -> np.ndarray:
    """``modes``, a flat list, as a read-only ``np.intp`` array by
    :func:`check_column`, unless a mode is no whole number in [0, m) or,
    with ``distinct``, one repeats."""
    return check_column(modes, what, lo=0, hi=m, distinct=distinct)


def check_square(u, what: str) -> np.ndarray:
    """``u`` as a complex array, unless it is no square matrix of numbers.

    :func:`check_column`'s rule: an array is judged by its dtype, any other
    input by the types of its entries, each a ``numbers.Number`` other than
    ``bool``, so that no boolean or string is cast into a number.
    """
    try:
        if isinstance(u, np.ndarray):
            ok = u.dtype.kind in "iufc"
        else:
            u = list(u)
            ok = entries_are(u, 2, "iufc")
        arr = np.asarray(u, dtype=complex) if ok else None
    except (TypeError, ValueError):       # not iterable, ragged, no number
        ok = False
    if not ok:
        raise ConfigurationError(f"{what} must be a square matrix of numbers, "
                                 f"got {reprlib.repr(u)}")
    u = arr
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigurationError(f"{what} must be a square matrix, got shape {u.shape}")
    return u
