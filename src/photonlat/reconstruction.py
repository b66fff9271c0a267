"""Two-photon HOM interferometry and submatrix reconstruction.

A two-photon dip scan between inputs (h, k) and outputs (i, j) plateaus
at a = rho_ih^2 rho_jk^2 + rho_jh^2 rho_ik^2 (the distinguishable
coincidence probability) and dips with visibility

    V = (a - |U_ih U_jk + U_jh U_ik|^2) / a
      = -(2 rho_ih rho_jk rho_jh rho_ik / a) cos(th_ih + th_jk - th_jh - th_ik)

so the plateaus pin the moduli and the visibilities the phase quadruples.
The dips of one input pair share one delay line and one photon pair, so
one centre x0 and one width sigma; given those, each dip's profile is
linear in (a, aV). The campaign is therefore fitted by variable
projection: one batched 2x2 solve per trial (x0, sigma) gives every
dip's (a, aV), and ``_gauss_newton`` fits (x0, sigma) per input pair.
Reconstruction proceeds in three stages: a weighted least-squares fit of
the moduli to the plateaus (which read their squares), an analytic phase
extraction, and a final chi-square polish over the phases. Per input
pair the visibilities give cos(psi_i - psi_j) for every output pair,
with psi the phase difference of the pair's two rows; that matrix is
Re(z z^H) with z_j = exp(i psi_j), rank 2, so one eigendecomposition
recovers psi up to a sign (two-photon data cannot tell a row from its
conjugate), and the signs are searched exhaustively.

Reconstructed submatrices use the gauge ``GAUGE``, where the first input
row and first output column carry zero phase; only the phase quadruples above
are physical, and comparisons go through them.

Every stage works on the dip index that :class:`HomDataset` builds once:
flat arrays of (pair, rows h k, outputs i j) over all valid dips. One
kernel, ``_pair_sums``, evaluates x_hi x_kj + x_hj x_ki over it, with
x = |T|^2 for the plateaus and x = T for the amplitudes; the simulated
truth, the moduli fit, and the chi-square residuals of
:func:`dip_residuals` all go through it. Every fit, of the dips, the
moduli and the phases, is one damped Gauss-Newton (``_gauss_newton``) on
an analytic Jacobian, stopped at ``least_squares``' default ftol and xtol
(1e-8), far below the statistical errors of the fitted values, and logs
what it did at DEBUG on ``photonlat.reconstruction.fits``. A dip depends
on four entries of the submatrix, and ``_dip_jacobian`` places its four
derivatives in the columns of the moduli's and the phases' Jacobians.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, FitError, InconsistentDataError,
                     UnderdeterminedError, check_modes, check_seed, check_whole, is_finite)

DEFAULT_DIP_SIGMA = 30.0     # delay-line sigma, um
# the delay positions of every simulated dip scan: 21 points over +-3 sigma
SCAN_POSITIONS = np.linspace(-3.0 * DEFAULT_DIP_SIGMA, 3.0 * DEFAULT_DIP_SIGMA, 21)
SCAN_POSITIONS.flags.writeable = False
INTENSITY_COUNTS = 1e5       # counts per unit intensity of the noisy single-photon rows
NORM_TOLERANCE = 1e-4        # weight 1/tolerance of the unit-row-norm residuals
ERROR_FLOOR = 1e-6           # relative floor on plateau-scale uncertainties
GAUGE = "first-row-and-first-column-zero"   # the phase gauge of every reconstruction
# the largest mean numpy's Poisson draw takes: the largest int64 less 10 of its square roots
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)

log = logging.getLogger(__name__)
fit_log = logging.getLogger(__name__ + ".fits")   # the least-squares fits


def submatrix_rows(u, inputs) -> np.ndarray:
    """Rows of the transfer submatrix: T[r, i] = U[i, inputs[r]].

    ``inputs`` must be distinct whole numbers in [0, m) for U's m columns.
    """
    u = np.asarray(u, dtype=complex)
    return u[:, check_modes(inputs, u.shape[-1], "inputs", distinct=True)].T.copy()


def _pair_sums(x, h, k, i, j):
    """Two-photon sum x[h, i] x[k, j] + x[h, j] x[k, i] over rows h, k.

    With x = |T|^2 it is the plateau a, with x = T the indistinguishable
    amplitude; the indices broadcast, so one call covers every dip.
    """
    return x[h, i] * x[k, j] + x[h, j] * x[k, i]


def dip_profile(x, a, v, x0, sigma):
    """Expected coincidence profile a (1 + V exp(-(x-x0)^2 / 2 sigma^2))."""
    x = np.asarray(x, dtype=float)
    return a * (1.0 + v * np.exp(-((x - x0) ** 2) / (2.0 * sigma ** 2)))


@dataclass(frozen=True)
class DipFit:
    """Gaussian dip fit result in the units of the scanned counts; ``cov``
    is the 2x2 covariance of (a, V)."""

    a: float
    v: float
    x0: float
    sigma: float
    a_err: float
    v_err: float
    cov: np.ndarray


def _fit_dips(positions, counts, groups):
    """Fit every row of the (D, n) scans ``counts`` at the shared
    ``positions``, the dips of one label in ``groups`` sharing one centre
    x0 and one width sigma; returns (a, aV) per dip (D, 2), (x0, sigma)
    per label in sorted order (G, 2), and the (D, 2, 2) covariance of
    (a, aV) at the fitted (x0, sigma).

    Variable projection (Golub & Pereyra 1973): given (x0, sigma) the
    profile a + aV g is linear in (a, aV), so one batched 2x2 solve with
    Poisson weights 1/sqrt(max(counts, 1)) eliminates them, and
    :func:`_gauss_newton` fits each label's (x0, sigma) alone, so that no
    label's stopping point depends on the others, on the analytic Jacobian
    of that projected residual. Each fit starts at the scan centre and a
    sixth of the range, in the box of x0 in the scan and sigma in [point
    spacing, half the range]. A plateau that is not > 0 or a non-finite
    (a, aV) raises :class:`FitError`.
    """
    x, y = positions, counts
    labels, group = np.unique(groups, return_inverse=True)
    w2 = 1.0 / np.maximum(y, 1.0)

    def solve(x0, sigma, rows=slice(None)):
        g = np.exp(-0.5 * ((x - x0) / sigma) ** 2)
        w, wy = w2[rows], w2[rows] * y[rows]
        m00, m01, m11 = w.sum(axis=1), (w * g).sum(axis=1), (w * g * g).sum(axis=1)
        r0, r1 = wy.sum(axis=1), (wy * g).sum(axis=1)
        det = m00 * m11 - m01 * m01
        return (m11 * r0 - m01 * r1) / det, (m00 * r1 - m01 * r0) / det, g, \
            np.stack([m11, -m01, -m01, m00], axis=-1).reshape(-1, 2, 2) / det[:, None, None]

    def residuals(p, rows):
        a, b, g, _ = solve(*p, rows)
        return (np.sqrt(w2[rows]) * (a[:, None] + b[:, None] * g - y[rows])).ravel()

    def jacobian(p, rows):
        a, b, g, inverse = solve(*p, rows)
        u = (x - p[0]) / p[1]
        dg = g * np.stack([u, u * u])[:, None] / p[1]     # by x0 and by sigma: (2, D, n)
        wdg, e = w2[rows] * dg, y[rows] - a[:, None] - 2.0 * b[:, None] * g
        da, db = np.einsum("dij,kdj->ikd", inverse,
                           np.stack([-b * wdg.sum(axis=-1), (wdg * e).sum(axis=-1)], axis=-1))
        d_fit = da[..., None] + db[..., None] * g + b[:, None] * dg
        return (np.sqrt(w2[rows]) * d_fit).reshape(2, -1).T

    lo, hi = x.min(), x.max()
    p0 = np.array([0.5 * (lo + hi), (hi - lo) / 6.0])
    box = np.array([lo, (hi - lo) / (len(x) - 1)]), np.array([hi, (hi - lo) / 2.0])
    shape = np.empty((len(labels), 2))
    for n, label in enumerate(labels.tolist()):
        rows = group == n
        result = _gauss_newton(lambda p: residuals(p, rows), lambda p: jacobian(p, rows),
                               p0, 100 * p0.size, *box)
        shape[n] = result.x
        _log_fit(f"dip group {label}", result,
                 f", x0 {result.x[0]:.6g}, sigma {result.x[1]:.6g}")
    a, b, _, cov = solve(*shape[group].T[:, :, None])
    bad = ~((a > 0) & np.isfinite(a) & np.isfinite(b))
    if bad.any():
        raise FitError(f"{bad.sum()} dip fit(s) with a plateau that is not > 0 "
                       "or a non-finite (a, aV)")
    return np.column_stack([a, b]), shape, cov


def fit_dip(positions, counts) -> DipFit:
    """Weighted least-squares fit of one dip scan to the Gaussian profile.

    A group of one dip for :func:`_fit_dips`, the fitter that
    :func:`simulate_hom_dataset` runs once on a whole campaign: (a, V, x0,
    sigma) with Poisson weights sqrt(max(counts, 1)), x0 within the scan
    and sigma between the mean point spacing and half the scanned range.
    The (a, V) uncertainties come from the covariance of the linear fit
    of (a, aV), conditional on the fitted x0 and sigma. Positions and
    counts must be 1-D, finite and of equal length (at least 8), counts
    >= 0, and the positions must span a positive range; a scan with no
    counts raises :class:`FitError`.
    """
    try:
        x = np.asarray(positions, dtype=float)
        y = np.asarray(counts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"scan positions and counts must be numbers: {exc}") from exc
    if x.ndim != 1 or y.shape != x.shape:
        raise ConfigurationError(
            f"positions {x.shape} and counts {y.shape} must be 1-D and of equal length")
    if len(x) < 8:
        raise ConfigurationError("need at least 8 scan positions")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and (y >= 0).all()):
        raise ConfigurationError("scan positions and counts must be finite, counts >= 0")
    if not x.max() > x.min():
        raise ConfigurationError("scan positions must span a positive range")
    ((a, b),), ((x0, sigma),), (cov,) = _fit_dips(x, y[None, :], [0])
    jac = np.array([[1.0, 0.0], [-b / a ** 2, 1.0 / a]])     # d(a, V) / d(a, aV)
    cov = jac @ cov @ jac.T
    a_err, v_err = np.sqrt(np.diag(cov))
    return DipFit(float(a), float(b / a), float(x0), float(sigma),
                  float(a_err), float(v_err), cov)


def _pair_row_indices(rows, input_pairs) -> np.ndarray:
    """(n_pairs, 2) row indices of input pairs given by label."""
    labels = list(rows)
    for pair in input_pairs:
        if len(pair) != 2 or not all(label in labels for label in pair):
            raise ConfigurationError(f"input pair {pair} must name two of rows {labels}")
        if pair[0] == pair[1]:
            raise ConfigurationError(f"input pair {pair} repeats a row")
    return np.array([(labels.index(h), labels.index(k)) for h, k in input_pairs],
                    dtype=int).reshape(-1, 2)


@dataclass
class HomDataset:
    """Fitted plateaus and visibilities for a set of input pairs.

    ``rows`` are the input labels being reconstructed; ``input_pairs``
    index into them by label. Per pair, arrays run over the C(n_outputs, 2)
    unordered output pairs in upper-triangle order; ``valid`` masks dips
    whose plateau vanished (visibility undefined there). ``visibilities``
    carry the sign of the scan parameter V of :func:`dip_profile`, opposite
    to the module's V = (a - Q)/a with Q the indistinguishable coincidence
    probability: a dip bottoms out at a (1 + V) = Q, so full HOM
    suppression gives V = -1. ``errors`` is the uncertainty of the dip
    minimum a (1 + V), ``plateau_errors`` that of a.
    ``intensities``, when given, are finite and >= 0, one row per input row.

    The dip index lists every valid dip once, pair-major (the order of
    ``np.nonzero(valid)`` and of ``array[valid]``): ``dip_pair`` is its
    pair, ``dip_h``, ``dip_k`` its two rows and ``dip_i``, ``dip_j`` its
    two outputs.
    """

    n_outputs: int
    rows: tuple
    input_pairs: tuple
    plateaus: np.ndarray
    visibilities: np.ndarray
    errors: np.ndarray
    plateau_errors: np.ndarray
    valid: np.ndarray
    intensities: np.ndarray | None
    va_errors: np.ndarray   # uncertainty of the product a V

    def __post_init__(self):
        self.valid = np.asarray(self.valid, dtype=bool)
        self._pair_rows = _pair_row_indices(self.rows, self.input_pairs)
        # shapes first: the output-pair index is as large as n_outputs says
        shape = (self.n_pairs, self.n_outputs * (self.n_outputs - 1) // 2)
        for name in ("plateaus", "visibilities", "errors", "plateau_errors",
                     "va_errors", "valid"):
            if np.shape(getattr(self, name)) != shape:
                raise ConfigurationError(
                    f"{name} has shape {np.shape(getattr(self, name))}, expected "
                    f"{shape} for {self.n_pairs} pair(s) and {self.n_outputs} outputs")
        self.out_i, self.out_j = np.triu_indices(self.n_outputs, k=1)
        if self.intensities is not None:
            if np.shape(self.intensities) != (self.n_rows, self.n_outputs):
                raise ConfigurationError("intensities must have one row per input row")
            if not (np.isfinite(self.intensities).all() and (self.intensities >= 0).all()):
                raise ConfigurationError("intensities must be finite and >= 0")
        self.dip_pair, dip = np.nonzero(self.valid)
        self.dip_h, self.dip_k = self._pair_rows[self.dip_pair].T
        self.dip_i, self.dip_j = self.out_i[dip], self.out_j[dip]
        v = self.valid
        if not (np.isfinite(self.plateaus[v]).all()
                and np.isfinite(self.visibilities[v]).all()):
            raise ConfigurationError("valid dips need finite plateaus and visibilities")
        for name in ("errors", "plateau_errors", "va_errors"):
            if not (getattr(self, name)[v] > 0).all():
                raise ConfigurationError(f"{name} of valid dips must be > 0")

    @property
    def n_pairs(self) -> int:
        return len(self.input_pairs)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def pair_row_indices(self, p: int):
        hr, kr = self._pair_rows[p]
        return int(hr), int(kr)

    def to_dict(self) -> dict:
        """JSON-serializable form (arrays as nested lists)."""
        doc = {
            "n_outputs": self.n_outputs,
            "rows": list(self.rows),
            "input_pairs": [list(p) for p in self.input_pairs],
            "plateaus": self.plateaus.tolist(),
            "visibilities": self.visibilities.tolist(),
            "errors": self.errors.tolist(),
            "plateau_errors": self.plateau_errors.tolist(),
            "va_errors": self.va_errors.tolist(),
            "valid": self.valid.astype(int).tolist(),
        }
        if self.intensities is not None:
            doc["intensities"] = self.intensities.tolist()
        return doc

    @classmethod
    def from_dict(cls, doc) -> "HomDataset":
        """The dataset of a ``to_dict`` document: a JSON object whose
        ``n_outputs`` is a whole number >= 2 and whose ``valid`` flags are
        each 0, 1 or a boolean."""
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"malformed HOM dataset: a {type(doc).__name__}, not a JSON object")
        intens = doc.get("intensities")
        try:
            n_outputs, valid = doc["n_outputs"], doc["valid"]
            flags = all(type(v) in (int, bool) and v in (0, 1)
                        for row in valid for v in row)
            fields = (n_outputs, tuple(doc["rows"]),
                      tuple(tuple(p) for p in doc["input_pairs"]),
                      np.asarray(doc["plateaus"], dtype=float),
                      np.asarray(doc["visibilities"], dtype=float),
                      np.asarray(doc["errors"], dtype=float),
                      np.asarray(doc["plateau_errors"], dtype=float),
                      np.asarray(valid, dtype=bool),
                      None if intens is None else np.asarray(intens, dtype=float),
                      np.asarray(doc["va_errors"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed HOM dataset: {exc!r}") from exc
        check_whole(n_outputs, "malformed HOM dataset: n_outputs", 2)
        if not flags:
            raise ConfigurationError(
                "malformed HOM dataset: valid flags must be 0, 1, true or false")
        return cls(*fields)


def _spanning_tree(dataset: HomDataset):
    """Edges (pair, parent row, child row) that reach every row from row 0.

    Pairs are scanned in order, repeatedly, and a pair joins the tree when
    exactly one of its rows is reached; the other pairs serve only the
    chi-square.
    """
    edges, reached = [], {0}
    grew = True
    while grew:
        grew = False
        for p in range(dataset.n_pairs):
            hr, kr = dataset.pair_row_indices(p)
            if (hr in reached) != (kr in reached):
                parent, child = (hr, kr) if hr in reached else (kr, hr)
                edges.append((p, parent, child))
                reached.add(child)
                grew = True
    if len(reached) != dataset.n_rows:
        raise UnderdeterminedError(
            f"{dataset.n_pairs} input pair(s) cannot determine {dataset.n_rows} rows; "
            "need a connected set of at least n_rows - 1 pairs")
    return edges


def default_input_pairs(inputs):
    """Chain every input to the first one: (0,1), (0,2), ... by label."""
    return tuple((inputs[0], inputs[r]) for r in range(1, len(inputs)))


def simulate_hom_dataset(u, inputs, input_pairs=None, rng_seed: int = 0,
                         mean_plateau_counts=None):
    """Simulate and fit the full dip-scan campaign for ``inputs``.

    ``mean_plateau_counts = None`` runs noiselessly (exact profiles, exact
    intensities); otherwise it must be finite and > 0, and the exposure is
    set so an average dip plateaus near that many counts per point and
    every scan is Poisson noisy, up to ``POISSON_LAM_MAX`` counts per point.
    ``inputs`` are checked as in :func:`submatrix_rows`. Returns the fitted
    :class:`HomDataset` and its (D, 21) scans at :data:`SCAN_POSITIONS`,
    one row per dip of its dip index.
    """
    if not (mean_plateau_counts is None
            or (is_finite(mean_plateau_counts) and mean_plateau_counts > 0)):
        raise ConfigurationError(f"mean_plateau_counts = {mean_plateau_counts!r} "
                                 "must be None or a finite number > 0")
    check_seed(rng_seed)
    u = np.asarray(u, dtype=complex)
    t_rows = submatrix_rows(u, inputs)
    n_out = t_rows.shape[1]
    if input_pairs is None:
        input_pairs = default_input_pairs(inputs)
    pair_rows = _pair_row_indices(inputs, input_pairs)
    iu, ju = np.triu_indices(n_out, k=1)
    noiseless = mean_plateau_counts is None

    # true plateaus and scan-convention visibilities (Q - a)/a, all pairs
    hr, kr = pair_rows[:, :1], pair_rows[:, 1:]
    q_true = np.abs(t_rows) ** 2
    a_true = _pair_sums(q_true, hr, kr, iu, ju)
    amp = _pair_sums(t_rows, hr, kr, iu, ju)
    valid = a_true > 0
    v_true = np.zeros_like(a_true)
    v_true[valid] = (np.abs(amp[valid]) ** 2 - a_true[valid]) / a_true[valid]

    rng = np.random.default_rng(rng_seed)
    # one profile stack, one Poisson draw; the dips of an input pair share
    # one delay line and one photon pair, so one centre and one width
    dip_pair = np.nonzero(valid)[0]
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is rejected below
        scale = 1.0 if noiseless else \
            float(mean_plateau_counts) * valid.sum() / a_true[valid].sum()
        counts = dip_profile(SCAN_POSITIONS, scale * a_true[valid][:, None],
                             v_true[valid][:, None], 0.0, DEFAULT_DIP_SIGMA)
    if not noiseless:
        if not counts.max(initial=0.0) <= POISSON_LAM_MAX:
            raise ConfigurationError(f"mean_plateau_counts = {mean_plateau_counts!r} puts "
                                     f"{counts.max():.4g} counts on a scan point, over the "
                                     f"{POISSON_LAM_MAX:.4g} a Poisson draw takes")
        counts = rng.poisson(counts).astype(float)
    coef, _, cov = _fit_dips(SCAN_POSITIONS, counts, dip_pair)
    a_fit, v_fit = coef[:, 0], coef[:, 1] / coef[:, 0]
    c00, c11, c01 = cov[:, 0, 0], cov[:, 1, 1], cov[:, 0, 1]
    # uncertainties of a, of the dip minimum a (1 + V) and of a V; zero
    # without noise
    errs = np.sqrt(np.stack([c00, c00 + c11 + 2 * c01, c11])) / scale
    if noiseless:
        errs[:] = 0.0
    # floor them at a fraction of the typical plateau: the absolute
    # measurement noise does not shrink with the dip size
    if len(dip_pair):
        floor = max(ERROR_FLOOR * (a_fit / scale).mean(), 1e-15)
        log.debug("%d of %d dip uncertainties raised to the floor %.3g",
                  (errs < floor).sum(), errs.size, floor)
        errs = np.maximum(errs, floor)
    plateaus, visibilities = np.zeros((2,) + a_true.shape)
    plateaus[valid], visibilities[valid] = a_fit / scale, v_fit
    plateau_errors, errors, va_errors = np.ones((3,) + a_true.shape)
    plateau_errors[valid], errors[valid], va_errors[valid] = errs

    if noiseless:
        intensities = q_true.copy()
    else:
        counts_int = rng.poisson(INTENSITY_COUNTS * q_true)
        intensities = counts_int / INTENSITY_COUNTS
    dataset = HomDataset(n_out, tuple(inputs), tuple(input_pairs), plateaus,
                         visibilities, errors, plateau_errors, valid, intensities,
                         va_errors)
    return dataset, counts


_TOL = 1e-8    # least_squares' default ftol and xtol, at which _gauss_newton stops


class _Fit(NamedTuple):
    """What :func:`_gauss_newton` did, named as ``least_squares`` names it."""

    x: np.ndarray
    cost: float      # half the sum of squared residuals at x
    start_cost: float    # the same at the start point
    nfev: int
    njev: int
    status: int      # 1 zero gradient, 2 ftol, 3 xtol, 4 ftol + xtol; 0 at max_nfev


def _gauss_newton(fun, jac, x0, max_nfev: int, lo=-np.inf, hi=np.inf) -> _Fit:
    """Minimize half the sum of squares of ``fun(x)`` from ``x0`` by damped
    Gauss-Newton, given the Jacobian ``jac(x)``, within the box [lo, hi].

    Levenberg-Marquardt on the normal equations: each step solves
    (J^T J + lam D) dx = -J^T r, with D the diagonal of J^T J floored at
    1e-10 of its largest entry, so that the damped matrix stays regular
    when a parameter moves no residual (a modulus at r = 0, a phase whose
    dips are all invalid), and is projected as clip(x + dx, lo, hi) - x.
    lam starts at 1e-6 and follows the gain ratio rho of the actual to the
    predicted reduction (Nielsen 1999): a step that lowers the cost is
    taken and scales lam by max(1/3, 1 - (2 rho - 1)^3) (lam kept >= 1e-16),
    and each rejected one (a non-finite residual included) by 2, 4, 8, ...
    Forming J^T J squares the condition number of J, which stays near 10
    for the moduli and 50 for the phases of this module's fits, so the
    steps lose about 4 of 16 digits. It stops, with ``least_squares``'
    status, on an exactly zero J^T r (1: a flat noiseless dip scan has
    J = 0, and |J^T r| < _TOL stopped noiseless dip fits short of their
    optimum), a step with rho > 0.25 that lowers the cost by less than _TOL
    of it (2), a step shorter than _TOL (_TOL + |x|) or cut to zero by the
    box (3), both (4), and at ``max_nfev`` evaluations of ``fun`` (0).
    """
    x = np.asarray(x0, dtype=float)
    r = fun(x)
    cost, nfev, njev, status = 0.5 * (r @ r), 1, 0, 0
    start_cost = cost
    lam = 1e-6
    while not status and nfev < max_nfev:
        j = jac(x)
        njev += 1
        normal, g = j.T @ j, j.T @ r
        if not g.any():
            status = 1
            break
        d = np.diag(normal)
        d = np.maximum(d, 1e-10 * d.max())
        grow = 2.0
        while nfev < max_nfev:
            step = np.clip(x + np.linalg.solve(normal + np.diag(lam * d), -g), lo, hi) - x
            if not step.any():
                status = 3
                break
            r_new = fun(x + step)
            nfev += 1
            cost_new = 0.5 * (r_new @ r_new) if np.isfinite(r_new).all() else np.inf
            ratio = (cost - cost_new) / -(step @ g + 0.5 * (step @ normal @ step))
            ftol_met = cost - cost_new < _TOL * cost and ratio > 0.25
            xtol_met = np.linalg.norm(step) < _TOL * (_TOL + np.linalg.norm(x))
            status = (4 if xtol_met else 2) if ftol_met else (3 if xtol_met else 0)
            if cost_new < cost:
                x, r, cost = x + step, r_new, cost_new
                # 1/3 for any rho >= 1; the clip keeps a huge rho finite
                lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * min(ratio, 1.0) - 1.0) ** 3),
                          1e-16)
                break
            if status:
                break
            lam *= grow
            grow *= 2.0
    return _Fit(x, cost, start_cost, nfev, njev, status)


def reconstruct_moduli(dataset: HomDataset) -> np.ndarray:
    """Moduli minimizing the plateau chi-square, fitted as the moduli r
    themselves (q = r^2 enters the model; |r| is returned).

    The model a = q_ih q_jk + q_jh q_ik is fitted to all valid plateaus,
    weighted by their uncertainties. Because each pair's plateaus are
    invariant under q_h -> s q_h, q_k -> q_k / s, the physical unit row
    norm (each row spans all outputs of a unitary) is imposed as an extra
    residual. Intensity rows, when present, supply the starting point,
    each r at least sqrt(1e-6 / n_outputs): at r = 0 the gradient in r
    vanishes, and a zero intensity would pin its entry there. The fit is
    :func:`_gauss_newton` with the analytic Jacobian; fitting r rather than
    q needs no bound q >= 0.
    """
    _spanning_tree(dataset)   # raises when the pairs leave a row unconnected
    n_rows, n_out = dataset.n_rows, dataset.n_outputs
    if dataset.intensities is not None:
        q0 = np.asarray(dataset.intensities, dtype=float)
    else:
        q0 = np.full((n_rows, n_out), 1.0 / n_out)
    h, k, i, j = dataset.dip_h, dataset.dip_k, dataset.dip_i, dataset.dip_j
    a_meas = dataset.plateaus[dataset.valid]
    eps = dataset.plateau_errors[dataset.valid]
    columns = np.arange(n_rows * n_out).reshape(n_rows, n_out)
    norm_jac = np.kron(np.eye(n_rows), np.ones(n_out)) / NORM_TOLERANCE

    def residuals(x):
        q = (x * x).reshape(n_rows, n_out)
        return np.concatenate([(_pair_sums(q, h, k, i, j) - a_meas) / eps,
                               (q.sum(axis=1) - 1.0) / NORM_TOLERANCE])

    def jacobian(x):
        q = (x * x).reshape(n_rows, n_out)
        jac = _dip_jacobian(dataset, columns, q[k, j] / eps, q[h, i] / eps,
                            q[k, i] / eps, q[h, j] / eps)
        return np.vstack([jac, norm_jac]) * (2.0 * x)    # dq/dr = 2 r, column by column

    r0 = np.sqrt(np.maximum(q0, 1e-6 / n_out)).ravel()
    result = _gauss_newton(residuals, jacobian, r0, max_nfev=100 * r0.size)
    _log_fit("moduli", result)
    return np.abs(result.x.reshape(n_rows, n_out))


def _dip_jacobian(dataset: HomDataset, columns, d_hi, d_kj, d_hj, d_ki) -> np.ndarray:
    """(n_dips, n_cols) Jacobian over the dataset's dip index from each
    dip's derivatives by entries (h, i), (k, j), (h, j), (k, i) of a
    (n_rows, n_outputs) parameter matrix.

    ``columns`` maps each entry to its column; n_cols is its largest
    value + 1, and entries mapped to -1 are held fixed and dropped. A
    dip's four entries are distinct, because h != k and i != j.
    """
    n_cols = int(columns.max()) + 1
    jac = np.zeros((len(dataset.dip_h), n_cols + 1))      # column -1 collects the fixed
    dips = np.arange(len(dataset.dip_h))
    h, k, i, j = dataset.dip_h, dataset.dip_k, dataset.dip_i, dataset.dip_j
    for r, c, d in ((h, i, d_hi), (k, j, d_kj), (h, j, d_hj), (k, i, d_ki)):
        jac[dips, columns[r, c]] = d
    return jac[:, :n_cols]


def _log_fit(name: str, result: _Fit, detail: str = "") -> None:
    """One DEBUG line on what a fit did, ``detail`` appended."""
    fit_log.debug("%s fit: %d evaluations, %d Jacobians, status %d, chi2 %.6g -> %.6g%s",
                  name, result.nfev, result.njev, result.status, 2.0 * result.start_cost,
                  2.0 * result.cost, detail)


@dataclass
class ReconstructedSubmatrix:
    """Moduli and phases, in the gauge ``GAUGE``, of the reconstructed input rows."""

    rows: tuple
    moduli: np.ndarray
    phases: np.ndarray
    converged: bool = True
    chi2: float = float("nan")

    @property
    def n_rows(self) -> int:
        return self.moduli.shape[0]


def dip_residuals(theta, moduli, dataset: HomDataset) -> np.ndarray:
    """Weighted dip residuals [a (1 + V) - |T_hi T_kj + T_hj T_ki|^2] / eps.

    T = moduli exp(i theta); one entry per valid dip, in the order of the
    dataset's dip index. Their sum of squares is the chi-square that
    :func:`refine_chi2` minimizes.
    """
    t = moduli * np.exp(1j * theta)
    amp = _pair_sums(t, dataset.dip_h, dataset.dip_k, dataset.dip_i, dataset.dip_j)
    v = dataset.valid
    target = dataset.plateaus[v] * (1.0 + dataset.visibilities[v])
    return (target - np.abs(amp) ** 2) / dataset.errors[v]


def _phase_jacobian(theta, moduli, dataset: HomDataset, columns) -> np.ndarray:
    """Jacobian of :func:`dip_residuals` in the phases, with the columns
    of :func:`_dip_jacobian`.

    With P1 = T_hi T_kj and P2 = T_hj T_ki, d|P1 + P2|^2 / d theta is
    -2 Im(conj(P1 + P2) P1) for theta_hi and theta_kj, and the same with
    P2 for theta_hj and theta_ki; the residual carries -1 / eps of it.
    """
    t = moduli * np.exp(1j * theta)
    h, k, i, j = dataset.dip_h, dataset.dip_k, dataset.dip_i, dataset.dip_j
    p1, p2 = t[h, i] * t[k, j], t[h, j] * t[k, i]
    scale = 2.0 * np.conj(p1 + p2) / dataset.errors[dataset.valid]
    d1, d2 = (scale * p1).imag, (scale * p2).imag
    return _dip_jacobian(dataset, columns, d1, d1, d2, d2)


def _chi2_cost(theta, moduli, dataset) -> float:
    r = dip_residuals(theta, moduli, dataset)
    return float(r @ r)


def _row_differences(dataset: HomDataset, edges, moduli) -> np.ndarray:
    """psi_j = theta_child,j - theta_parent,j per tree edge, each up to a
    global sign; (n_edges, n_outputs), psi_0 = 0 by the column gauge.

    An edge's dips measure c_ij = cos(psi_i - psi_j) = Re(z z^H)_ij with
    z_j = exp(i psi_j), a rank-2 matrix, so the top two eigenvectors of the
    measured cosines give z up to a global phase and a conjugation (the
    real-part case of angular synchronisation, Singer 2011). Unusable dips
    enter as 0; a well-conditioned |c| beyond 1 raises. Each edge is
    oriented so that psi is positive at its column of largest |sin psi|.
    """
    n_out = dataset.n_outputs
    edge_of = np.full(dataset.n_pairs, -1)
    edge_of[[p for p, _, _ in edges]] = np.arange(len(edges))
    e = edge_of[dataset.dip_pair]
    tree = e >= 0            # only the dips of tree pairs enter the solve
    e, h, k = e[tree], dataset.dip_h[tree], dataset.dip_k[tree]
    i, j = dataset.dip_i[tree], dataset.dip_j[tree]
    v = dataset.valid
    denom = 2.0 * moduli[h, i] * moduli[k, j] * moduli[h, j] * moduli[k, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        # scan convention: Q = a (1 + V) = a + 2 rho^4 cos(quadruple)
        c = np.where(denom > 0, (dataset.visibilities[v] * dataset.plateaus[v])[tree]
                     / denom, 0.0)
        sig = np.where(denom > 0, dataset.va_errors[v][tree] / denom, np.inf)
    # only well-conditioned dips can testify against the model; the rest
    # are clamped and deferred to the chi-square refinement
    bad = (sig <= 0.05) & (np.abs(c) > 1.0 + np.maximum(1e-6, 5.0 * sig))
    if bad.any():
        worst = int(np.argmax(np.where(bad, np.abs(c), 0.0)))
        raise InconsistentDataError(
            f"|cos| = {abs(c[worst]):.6f} beyond tolerance for pair index "
            f"{edges[e[worst]][0]}, outputs ({i[worst]}, {j[worst]})")
    usable = sig <= 0.5
    gram = np.zeros((len(edges), n_out, n_out))
    gram[:, np.arange(n_out), np.arange(n_out)] = 1.0
    gram[e[usable], i[usable], j[usable]] = gram[e[usable], j[usable], i[usable]] = \
        np.clip(c[usable], -1.0, 1.0)
    lam, vec = np.linalg.eigh(gram)
    w = vec[..., -2:] * np.sqrt(np.maximum(lam[:, None, -2:], 0.0))
    z = w[..., 0] + 1j * w[..., -1]      # w[..., -1] is w[..., 1] unless n_out is 1
    psi = np.angle(z * np.conj(z[:, :1]))
    psi *= np.where(np.take_along_axis(
        psi, np.abs(np.sin(psi)).argmax(axis=1)[:, None], axis=1) < 0, -1.0, 1.0)
    if log.isEnabledFor(logging.DEBUG):
        used = np.bincount(e[usable], minlength=len(edges))
        clamped = np.bincount(e[usable & (np.abs(c) > 1.0)], minlength=len(edges))
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = np.abs(lam[:, :-2]).max(axis=1, initial=0.0) / lam[:, -2:].min(axis=1)
        for n, (p, _, _) in enumerate(edges):
            log.debug("pair %s: %d dips used, %d entered as 0, %d clamped to "
                      "|c| <= 1, |lambda_3|/lambda_2 %.3g", dataset.input_pairs[p],
                      used[n], len(dataset.out_i) - used[n], clamped[n], rest[n])
    return psi


def reconstruct_phases(dataset: HomDataset, moduli) -> ReconstructedSubmatrix:
    """Rank-2 spectral phase recovery with exhaustive per-row sign candidates.

    Rows are solved along a spanning tree of the measured input pairs;
    each tree edge's cosines cos(psi_i - psi_j) form a rank-2 matrix whose
    top two eigenvectors give the phase-difference vector psi up to one
    global sign (see :func:`_row_differences`). All sign assignments are
    scored by the chi-square of :func:`refine_chi2`, returning the best.
    For a tree of pairs the conjugate candidates tie exactly; the tie is
    broken deterministically and comparisons must be
    conjugation-invariant (see :func:`gauge_distance`).
    """
    edges = _spanning_tree(dataset)
    moduli = np.asarray(moduli, dtype=float)
    n_rows, n_out = moduli.shape
    psi = _row_differences(dataset, edges, moduli)

    best = None
    for signs in range(1 << len(edges)):
        theta = np.zeros((n_rows, n_out))
        for e, (_, parent, child) in enumerate(edges):
            s = -1.0 if (signs >> e) & 1 else 1.0
            theta[child] = theta[parent] + s * psi[e]
        cost = _chi2_cost(theta, moduli, dataset)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, theta)
    cost, theta = best
    log.debug("%d sign candidates scored, best chi2 %.6g", 1 << len(edges), cost)
    theta = np.angle(np.exp(1j * theta))
    theta[0, :] = 0.0
    theta[:, 0] = 0.0
    return ReconstructedSubmatrix(dataset.rows, moduli, theta, chi2=cost)


def refine_chi2(candidate: ReconstructedSubmatrix, dataset: HomDataset) -> ReconstructedSubmatrix:
    """Polish the phases (moduli fixed) by minimizing the dip chi-square.

    The objective sums [a (1 + V) - |U_ih U_jk + U_jh U_ik|^2]^2 / eps^2
    over all valid dips; the reported chi-square never exceeds the
    candidate's. The free phases are those outside the gauge row and
    column; the fit is :func:`_gauss_newton` with their analytic Jacobian
    (:func:`_phase_jacobian`), stopped at ``least_squares``' default
    tolerances, which the chi-square resolves; roundoff does not decide
    when it stops. A fit that has not stopped after 2000 evaluations
    returns its best iterate with ``converged=False``, and one that
    returns ``converged=False`` logs a WARNING on ``photonlat.reconstruction``.
    """
    moduli = candidate.moduli
    n_rows, n_out = moduli.shape
    free = (slice(1, None), slice(1, None))
    columns = np.full((n_rows, n_out), -1)
    columns[free] = np.arange((n_rows - 1) * (n_out - 1)).reshape(n_rows - 1, n_out - 1)

    def unpack(x):
        theta = np.zeros((n_rows, n_out))
        theta[free] = x.reshape(n_rows - 1, n_out - 1)
        return theta

    def fun(x):
        return dip_residuals(unpack(x), moduli, dataset)

    def jacobian(x):
        return _phase_jacobian(unpack(x), moduli, dataset, columns)

    x0 = candidate.phases[free].ravel()
    cost0 = _chi2_cost(candidate.phases, moduli, dataset)
    result = _gauss_newton(fun, jacobian, x0, max_nfev=2000)
    _log_fit("phase", result)
    theta = np.angle(np.exp(1j * unpack(result.x)))
    cost = _chi2_cost(theta, moduli, dataset)
    if cost > cost0:
        refined = replace(candidate, converged=False, chi2=cost0)
    else:
        refined = ReconstructedSubmatrix(candidate.rows, moduli, theta,
                                         converged=result.status > 0, chi2=cost)
    if not refined.converged:
        log.warning("chi-square refinement stagnated: %d evaluations, status %d, "
                    "chi2 %.6g -> %.6g", result.nfev, result.status, cost0, cost)
    return refined


def _phase_quadruples(theta) -> np.ndarray:
    """Gauge-invariant quadruples th_pi + th_qj - th_pj - th_qi, all p<q, i<j."""
    n_rows, n_out = theta.shape
    iu, ju = np.triu_indices(n_out, k=1)
    quads = []
    for p in range(n_rows):
        for q in range(p + 1, n_rows):
            delta = theta[p] - theta[q]
            quads.append(delta[iu] - delta[ju])
    return np.concatenate(quads)


def _wrap(angle):
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


def gauge_distance(reconstructed: ReconstructedSubmatrix, reference):
    """Gauge-invariant (moduli RMSE, phase-quadruple RMSE) versus a reference.

    Moduli compare entrywise. Phases compare only through the quadruples,
    which are invariant under per-row and per-column phases of the
    reference; the RMSE is additionally minimized over per-row complex
    conjugations of the reconstruction, which two-photon interference from
    a tree of input pairs cannot resolve.
    """
    ref = np.asarray(reference, dtype=complex)
    if ref.shape != reconstructed.moduli.shape:
        raise ConfigurationError("reference shape does not match reconstruction")
    moduli_rmse = float(np.sqrt(np.mean((reconstructed.moduli - np.abs(ref)) ** 2)))
    q_ref = _phase_quadruples(np.angle(ref))
    n_rows = reconstructed.n_rows
    best = np.inf
    for bits in range(1 << (n_rows - 1)):
        signs = np.ones(n_rows)
        for r in range(1, n_rows):
            if (bits >> (r - 1)) & 1:
                signs[r] = -1.0
        q = _phase_quadruples(signs[:, None] * reconstructed.phases)
        rmse = float(np.sqrt(np.mean(_wrap(q - q_ref) ** 2)))
        best = min(best, rmse)
    return moduli_rmse, best
