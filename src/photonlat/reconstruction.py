"""Two-photon HOM interferometry and submatrix reconstruction.

A two-photon dip scan between inputs (h, k) and outputs (i, j) plateaus
at a = rho_ih^2 rho_jk^2 + rho_jh^2 rho_ik^2 (the distinguishable
coincidence probability) and dips with visibility

    V = (a - |U_ih U_jk + U_jh U_ik|^2) / a
      = -(2 rho_ih rho_jk rho_jh rho_ik / a) cos(th_ih + th_jk - th_jh - th_ik)

so the plateaus pin the moduli and the visibilities the phase quadruples.
All dips of a campaign are fitted as one stack: one vectorised
Levenberg-Marquardt over the (n_dips, n_points) scans.
Reconstruction proceeds in three stages: a weighted least-squares fit of
the squared moduli to the plateaus, an analytic phase extraction, and a
final chi-square polish over the phases. Per input pair the visibilities
give cos(psi_i - psi_j) for every output pair, with psi the phase
difference of the pair's two rows; that matrix is Re(z z^H) with
z_j = exp(i psi_j), rank 2, so one eigendecomposition recovers psi up to
a sign (two-photon data cannot tell a row from its conjugate), and the
signs are searched exhaustively.

Reconstructed submatrices use the gauge where the first input row and
first output column carry zero phase; only the phase quadruples above
are physical, and comparisons go through them.

Every stage works on the dip index that :class:`HomDataset` builds once:
flat arrays of (pair, rows h k, outputs i j) over all valid dips. One
kernel, ``_pair_sums``, evaluates x_hi x_kj + x_hj x_ki over it, with
x = |T|^2 for the plateaus and x = T for the amplitudes; the simulated
truth, the moduli fit, and the chi-square residuals of
:func:`dip_residuals` all go through it. Both least-squares fits, of the
moduli and of the phases, take analytic Jacobians: a dip depends on four
entries of the submatrix, and one helper, ``_dip_jacobian``, places its
four derivatives in their columns. Both stop at ``least_squares``'
default tolerances (1e-8), far below the statistical errors of the fitted
values, and log what they did at DEBUG on ``photonlat.reconstruction.fits``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from .errors import (ConfigurationError, FitError, InconsistentDataError,
                     UndefinedVisibilityError, UnderdeterminedError, is_finite, is_whole)

DEFAULT_DIP_SIGMA = 30.0     # delay-line sigma, um
# the delay positions of every simulated dip scan: 21 points over +-3 sigma
SCAN_POSITIONS = np.linspace(-3.0 * DEFAULT_DIP_SIGMA, 3.0 * DEFAULT_DIP_SIGMA, 21)
SCAN_POSITIONS.flags.writeable = False
INTENSITY_COUNTS = 1e5       # counts per unit intensity of the noisy single-photon rows
NORM_TOLERANCE = 1e-4        # weight 1/tolerance of the unit-row-norm residuals
ERROR_FLOOR = 1e-6           # relative floor on plateau-scale uncertainties
FTOL = XTOL = 1.49012e-8     # MINPACK's (and curve_fit's) default tolerances
MAX_LM_ITERATIONS = 100      # a dip fit still moving after this falls back
_EPS = np.finfo(float).eps
_DWARF = np.finfo(float).tiny

log = logging.getLogger(__name__)
fit_log = logging.getLogger(__name__ + ".fits")   # the least-squares fits


def submatrix_rows(u, inputs) -> np.ndarray:
    """Rows of the transfer submatrix: T[r, i] = U[i, inputs[r]].

    ``inputs`` must be distinct whole numbers in [0, m) for U's m columns.
    """
    u = np.asarray(u, dtype=complex)
    m = u.shape[-1]
    inputs = list(inputs)
    if not all(is_whole(mode) and 0 <= mode < m for mode in inputs) \
            or len(set(inputs)) != len(inputs):
        raise ConfigurationError(f"inputs {inputs} must be distinct whole numbers in [0, {m})")
    return u[:, inputs].T.copy()


def _pair_sums(x, h, k, i, j):
    """Two-photon sum x[h, i] x[k, j] + x[h, j] x[k, i] over rows h, k.

    With x = |T|^2 it is the plateau a, with x = T the indistinguishable
    amplitude; the indices broadcast, so one call covers every dip.
    """
    return x[h, i] * x[k, j] + x[h, j] * x[k, i]


def hom_plateau(u, h: int, k: int, i: int, j: int) -> float:
    """Distinguishable two-photon coincidence probability a_ij^hk."""
    u = np.asarray(u, dtype=complex)
    return float(_pair_sums(np.abs(u.T) ** 2, h, k, i, j))


def hom_visibility(u, h: int, k: int, i: int, j: int) -> float:
    """HOM dip visibility V_ij^hk; undefined when the plateau vanishes.

    Sign convention: V = (a - Q)/a with Q the indistinguishable
    coincidence probability, so full HOM suppression gives V = +1. The
    Gaussian scan parameter of :func:`dip_profile` carries the opposite
    sign (a dip bottoms out at a (1 + V_scan) = Q, so V_scan = -V);
    datasets store the scan convention.
    """
    u = np.asarray(u, dtype=complex)
    a = hom_plateau(u, h, k, i, j)
    if a == 0.0:
        raise UndefinedVisibilityError(
            f"plateau vanishes for inputs ({h},{k}) outputs ({i},{j})")
    return float((a - abs(_pair_sums(u.T, h, k, i, j)) ** 2) / a)


def dip_profile(x, a, v, x0, sigma):
    """Expected coincidence profile a (1 + V exp(-(x-x0)^2 / 2 sigma^2))."""
    x = np.asarray(x, dtype=float)
    return a * (1.0 + v * np.exp(-((x - x0) ** 2) / (2.0 * sigma ** 2)))


@dataclass(frozen=True)
class DipFit:
    """Gaussian dip fit result in the units of the scanned counts."""

    a: float
    v: float
    x0: float
    sigma: float
    a_err: float
    v_err: float
    x0_err: float
    sigma_err: float
    cov: np.ndarray


def _dip_p0(x, y) -> np.ndarray:
    """Initial (a, V, x0, sigma) per row of the (D, n) scans ``y`` at the
    shared positions ``x``: the outer-quarter plateau, the extremum, and
    the half-maximum width, with fallbacks for flat or empty scans."""
    span = x.max() - x.min()
    outer = np.argsort(-np.abs(x - 0.5 * (x.min() + x.max())))[:max(2, len(x) // 4)]
    a0 = y[:, outer].mean(axis=1)
    a0 = np.where(a0 > 0, a0, np.maximum(y.mean(axis=1), 1e-12))
    dev = y - a0[:, None]
    ext = np.abs(dev).argmax(axis=1)
    peak = np.take_along_axis(dev, ext[:, None], axis=1)[:, 0]
    half = np.abs(dev) >= 0.5 * np.abs(peak)[:, None]
    width = np.where(half, x, -np.inf).max(axis=1) - np.where(half, x, np.inf).min(axis=1)
    s0 = np.where((np.abs(peak) > 0) & (half.sum(axis=1) >= 2),
                  np.maximum(width / 2.355, span / 50.0), span / 6.0)
    return np.stack([a0, peak / a0, x[ext], s0], axis=1)


def _dip_model(x, p):
    """Profiles (D, n) of :func:`dip_profile` for parameter rows ``p`` (D, 4)
    and their analytic Jacobian (D, n, 4) in (a, V, x0, sigma)."""
    a, v, x0, s = (p[:, c, None] for c in range(4))
    u = (x - x0) / s
    g = np.exp(-0.5 * u * u)
    avg = a * v * g
    return a * (1.0 + v * g), np.stack([1.0 + v * g, a * g, avg * u / s, avg * u * u / s],
                                       axis=-1)


def _covariance(jtj) -> np.ndarray:
    """(J^T J)^-1 per entry of a (D, k, k) stack; all-inf where J^T J is
    singular (a zero column, or rank-deficient to working precision).

    The inverse goes through the eigendecomposition of the unit-diagonal
    scaled matrix, so a singular entry cannot raise for the whole stack.
    """
    d = np.sqrt(np.diagonal(jtj, axis1=1, axis2=2))
    singular = (d == 0).any(axis=1)
    d = np.where(d == 0, 1.0, d)
    lam, vec = np.linalg.eigh(jtj / (d[:, :, None] * d[:, None, :]))
    singular |= lam[:, 0] <= jtj.shape[-1] * _EPS * lam[:, -1]
    lam = np.where(singular[:, None], 1.0, lam)
    cov = (vec / lam[:, None, :]) @ vec.transpose(0, 2, 1) / (d[:, :, None] * d[:, None, :])
    cov[singular] = np.inf
    return cov


def _trust_region_step(mu, c, delta, par):
    """MINPACK's ``lmpar`` on a stack, in the eigenbasis of the scaled J^T J.

    ``mu`` (k, 4) are the eigenvalues (ascending) and ``c`` (k, 4) the
    scaled gradient in that basis; returns the damping ``par`` and the
    scaled step q = -c / (mu + par) whose norm is within 10% of the trust
    radius ``delta``, or the Gauss-Newton step (par = 0) when that fits.
    Rank-deficient directions take no Gauss-Newton step, as in MINPACK.
    """
    singular = mu <= 4.0 * _EPS * mu[:, -1:]
    safe = np.where(singular, 1.0, mu)
    q = np.where(singular, 0.0, -c / safe)
    norm = np.sqrt((q * q).sum(axis=1))
    fp = norm - delta
    newton = fp <= 0.1 * delta
    # bounds on par, then Newton iterations on ||q(par)|| = delta
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = np.where(singular.any(axis=1), 0.0,
                         fp / delta * norm ** 2 / (q * q / safe).sum(axis=1))
        gnorm = np.sqrt((c * c).sum(axis=1))
        upper = gnorm / delta
        upper = np.where(upper == 0, _DWARF / np.minimum(delta, 0.1), upper)
        par = np.minimum(np.maximum(par, lower), upper)
        par = np.where(par == 0, gnorm / norm, par)
    searching = ~newton
    for it in range(10):
        if not searching.any():
            break
        par = np.where(searching & (par == 0), np.maximum(_DWARF, 1e-3 * upper), par)
        qs = -c / (mu + par[:, None])
        norm_s = np.sqrt((qs * qs).sum(axis=1))
        prev, fp_s = fp, norm_s - delta
        q = np.where(searching[:, None], qs, q)
        fp = np.where(searching, fp_s, fp)
        searching &= ~((np.abs(fp_s) <= 0.1 * delta)
                       | ((lower == 0) & (fp_s <= prev) & (prev < 0)) | (it == 9))
        with np.errstate(divide="ignore", invalid="ignore"):
            correction = fp_s / delta * norm_s ** 2 / (qs * qs / (mu + par[:, None])).sum(axis=1)
        lower = np.where(searching & (fp_s > 0), np.maximum(lower, par), lower)
        upper = np.where(searching & (fp_s < 0), np.minimum(upper, par), upper)
        par = np.where(searching, np.maximum(lower, par + correction), par)
    return np.where(newton, 0.0, par), q


def _fit_dips(positions, counts):
    """Fit every row of the (D, n) scans ``counts`` at the shared
    ``positions``; returns params (D, 4) in (a, V, x0, sigma) with sigma
    >= 0, and covariances (D, 4, 4).

    One Levenberg-Marquardt (More 1978, the trust-region form MINPACK and
    so ``curve_fit`` implement) runs on the whole stack: Poisson weights
    1/sqrt(max(counts, 1)), the analytic Jacobian of :func:`dip_profile`,
    the 4x4 normal equations scaled by the running maximum of diag(J^T J)
    (1 for a zero column, so flat dips stay solvable), per-dip damping
    and trust radius, and MINPACK's default ftol and xtol stopping rules.
    Each iteration works only on the dips still moving. A dip that does
    not converge within ``MAX_LM_ITERATIONS``, or puts its centre outside
    the scan or its width below the point spacing or above half the
    scanned range, falls back to the fit of (a, V) with x0 and sigma
    frozen at their initial estimates: linear in (a, aV), so one batched
    weighted 2x2 solve. A fallback's x0 and sigma rows and columns of the
    covariance are NaN; a singular J^T J gives an infinite covariance.
    """
    x, y = positions, counts
    n_dips, n_points = y.shape
    w = 1.0 / np.sqrt(np.maximum(y, 1.0))
    p0 = _dip_p0(x, y)

    def evaluate(rows, p):
        f, jac = _dip_model(x, p)
        r = (f - y[rows]) * w[rows]
        jac *= w[rows, :, None]
        return (r * r).sum(axis=1), jac.transpose(0, 2, 1) @ jac, \
            np.einsum("dni,dn->di", jac, r)

    p = p0.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cost, jtj, grad = evaluate(np.arange(n_dips), p)
        scale = np.diagonal(jtj, axis1=1, axis2=2).copy()
        scale[scale == 0] = 1.0
        delta = 100.0 * np.sqrt((scale * p * p).sum(axis=1))
        delta[delta == 0] = 100.0
        par = np.zeros(n_dips)
        first = np.ones(n_dips, dtype=bool)        # no step accepted yet
        iterations = np.zeros(n_dips, dtype=int)
        converged = cost == 0
        active = np.flatnonzero(~converged)
        stale = active                             # dips whose point moved
        mu, vec = np.zeros((n_dips, 4)), np.zeros((n_dips, 4, 4))
        for _ in range(MAX_LM_ITERATIONS):
            if not active.size:
                break
            d = np.sqrt(scale[stale])
            mu[stale], vec[stale] = np.linalg.eigh(jtj[stale] / (d[:, :, None] * d[:, None, :]))
            k = active
            d = np.sqrt(scale[k])
            c = np.einsum("dji,dj->di", vec[k], grad[k] / d)
            par[k], qe = _trust_region_step(mu[k], c, delta[k], par[k])
            q = np.einsum("dij,dj->di", vec[k], qe)
            qnorm = np.sqrt((q * q).sum(axis=1))
            delta[k] = np.where(first[k], np.minimum(delta[k], qnorm), delta[k])
            step = q / d
            cost_t, jtj_t, grad_t = evaluate(k, p[k] + step)
            # MINPACK's actual and predicted relative reductions
            actual = np.where(0.1 * np.sqrt(cost_t) < np.sqrt(cost[k]),
                              1.0 - cost_t / cost[k], -1.0)
            gauss = (mu[k] * qe * qe).sum(axis=1) / cost[k]
            damped = par[k] * qnorm ** 2 / cost[k]
            predicted = gauss + 2.0 * damped
            ratio = np.where(predicted != 0, actual / predicted, 0.0)
            dirder = -(gauss + damped)
            shrink = np.where(actual >= 0, 0.5, 0.5 * dirder / (dirder + 0.5 * actual))
            shrink = np.where((0.1 * np.sqrt(cost_t) >= np.sqrt(cost[k])) | (shrink < 0.1),
                              0.1, shrink)
            poor = ratio <= 0.25
            grow = ~poor & ((par[k] == 0) | (ratio >= 0.75))
            delta[k] = np.where(poor, shrink * np.minimum(delta[k], qnorm / 0.1),
                                np.where(grow, qnorm / 0.5, delta[k]))
            par[k] = np.where(poor, par[k] / shrink, np.where(grow, 0.5 * par[k], par[k]))
            # a step that leaves the finite model (sigma -> 0) is not taken
            ok = (ratio >= 1e-4) & np.isfinite(jtj_t).all(axis=(1, 2))
            moved = k[ok]
            p[moved] += step[ok]
            cost[moved], jtj[moved], grad[moved] = cost_t[ok], jtj_t[ok], grad_t[ok]
            scale[moved] = np.maximum(scale[moved], np.diagonal(jtj_t[ok], axis1=1, axis2=2))
            first[moved] = False
            iterations[k] += 1
            done = ((np.abs(actual) <= FTOL) & (predicted <= FTOL) & (ratio <= 2.0)) \
                | (delta[k] <= XTOL * np.sqrt((scale[k] * p[k] ** 2).sum(axis=1))) \
                | (cost[k] == 0)
            converged[k[done]] = True
            active, stale = k[~done], k[ok & ~done]
    cov = _covariance(jtj)

    lo, hi = x.min(), x.max()
    spacing = (hi - lo) / (n_points - 1)
    width = np.abs(p[:, 3])
    triggers = {"not converged": ~converged,
                "x0 outside the scan": converged & ~((lo <= p[:, 2]) & (p[:, 2] <= hi)),
                "sigma below the spacing": converged & (width < spacing),
                "sigma above half the range": converged & (width > (hi - lo) / 2)}
    fb = np.flatnonzero(np.logical_or.reduce(list(triggers.values())))
    if fb.size:
        x0, s = p0[fb, 2:3], p0[fb, 3:4]
        g = np.exp(-((x - x0) ** 2) / (2.0 * s ** 2))
        wf = w[fb]
        basis = np.stack([wf, wf * g], axis=-1)              # columns for a and a V
        m = basis.transpose(0, 2, 1) @ basis
        rhs = np.einsum("fni,fn->fi", basis, wf * y[fb])
        with np.errstate(divide="ignore", invalid="ignore"):
            det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] ** 2
            a = (m[:, 1, 1] * rhs[:, 0] - m[:, 0, 1] * rhs[:, 1]) / det
            v = (m[:, 0, 0] * rhs[:, 1] - m[:, 0, 1] * rhs[:, 0]) / det / a
        bad = ~(np.isfinite(a) & np.isfinite(v))
        if bad.any():
            raise FitError("dip fit with frozen x0 and sigma has no finite solution",
                           diagnostics={"p0": tuple(p0[fb[bad][0]]), "n_points": n_points,
                                        "n_failed": int(bad.sum())})
        p[fb] = np.column_stack([a, v, p0[fb, 2], p0[fb, 3]])
        jac2 = np.stack([wf * (1.0 + v[:, None] * g), wf * a[:, None] * g], axis=-1)
        cov[fb] = np.nan
        cov[fb, :2, :2] = _covariance(jac2.transpose(0, 2, 1) @ jac2)
    p[:, 3] = np.abs(p[:, 3])

    if log.isEnabledFor(logging.DEBUG):
        log.debug("%d dip fits, up to %d LM iterations, %d at the cap of %d; %d "
                  "fallbacks (%s); %d non-finite covariances", n_dips,
                  iterations.max(initial=0), (iterations == MAX_LM_ITERATIONS).sum(),
                  MAX_LM_ITERATIONS, fb.size,
                  ", ".join(f"{name} {mask.sum()}" for name, mask in triggers.items()),
                  (~np.isfinite(cov[:, :2, :2]).all(axis=(1, 2))).sum())
    return p, cov


def fit_dip(positions, counts) -> DipFit:
    """Weighted least-squares fit of one dip scan to the Gaussian profile.

    A one-row stack of :func:`_fit_dips`, the fitter that
    :func:`simulate_hom_dataset` runs once on a whole campaign: a
    Levenberg-Marquardt fit of (a, V, x0, sigma) with Poisson weights
    sqrt(max(counts, 1)), uncertainties from the covariance (J^T J)^-1 at
    the solution, infinite where that is singular. A scan that cannot pin
    the dip position and width falls back to fitting (a, V) with those two
    frozen at their initial estimates, and NaN uncertainties for them: the
    full fit did not converge, or put the centre outside the scan, or the
    width below the mean point spacing or above half the scanned range.
    Positions and counts must be 1-D, finite and of equal length (at
    least 8), counts >= 0, and the positions must span a positive range.
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
    (a, v, x0, sig), cov = (arr[0] for arr in _fit_dips(x, y[None, :]))
    errs = np.sqrt(np.abs(np.diag(cov)))
    return DipFit(float(a), float(v), float(x0), float(sig),
                  float(errs[0]), float(errs[1]), float(errs[2]), float(errs[3]), cov)


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
    whose plateau vanished (visibility undefined there). ``errors`` is the
    uncertainty of the dip minimum a (1 + V), ``plateau_errors`` that of a.

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
    intensities: np.ndarray | None = None
    va_errors: np.ndarray | None = None   # uncertainty of the product a V

    def __post_init__(self):
        if self.va_errors is None:
            self.va_errors = self.errors
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
        if self.intensities is not None and \
                np.shape(self.intensities) != (self.n_rows, self.n_outputs):
            raise ConfigurationError("intensities must have one row per input row")
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
        if not (is_whole(n_outputs) and n_outputs >= 2):
            raise ConfigurationError(f"malformed HOM dataset: n_outputs = {n_outputs!r} "
                                     "must be a whole number >= 2")
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
                         mean_plateau_counts=None, visibility_scale: float = 1.0,
                         keep_scans: bool = False):
    """Simulate and fit the full dip-scan campaign for ``inputs``.

    ``mean_plateau_counts = None`` runs noiselessly (exact profiles, exact
    intensities); otherwise it must be finite and > 0, and the exposure is
    set so an average dip plateaus near that many counts per point and
    every scan is Poisson noisy. ``inputs`` are checked as in
    :func:`submatrix_rows`. Returns the fitted :class:`HomDataset` (plus
    the raw scans at :data:`SCAN_POSITIONS` when ``keep_scans`` is set).
    """
    if not (mean_plateau_counts is None
            or (is_finite(mean_plateau_counts) and mean_plateau_counts > 0)):
        raise ConfigurationError(f"mean_plateau_counts = {mean_plateau_counts!r} "
                                 "must be None or a finite number > 0")
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
    v_true *= visibility_scale

    scale = 1.0 if noiseless else \
        float(mean_plateau_counts) * valid.sum() / a_true[valid].sum()
    rng = np.random.default_rng(rng_seed)

    # one profile stack; each dip draws its Poisson counts from its own
    # generator, seeded by one draw of ``rng`` per dip in dip order
    dips = list(zip(*np.nonzero(valid)))
    a_dip, v_dip = a_true[valid], v_true[valid]
    seeds = rng.integers(2 ** 63, size=len(dips))
    counts = dip_profile(SCAN_POSITIONS, (a_dip if noiseless else np.ones_like(a_dip))[:, None],
                         v_dip[:, None], 0.0, DEFAULT_DIP_SIGMA)
    if not noiseless:
        counts = np.array([np.random.default_rng(seed).poisson(row) for seed, row in
                           zip(seeds, (scale * a_dip)[:, None] * counts)],
                          dtype=float).reshape(counts.shape)
    params, cov = _fit_dips(SCAN_POSITIONS, counts)
    a_fit, v_fit = params[:, 0], params[:, 1]
    cov = cov[:, :2, :2]
    c00, c11, c01 = cov[:, 0, 0], cov[:, 1, 1], cov[:, 0, 1]

    def std_of_a_times(w):
        # float_power is libm pow, as Python's float ** is; w ** 2 squares
        # exactly and would move the last bits of the written errors
        with np.errstate(invalid="ignore"):
            var = (c00 * np.float_power(w, 2) + np.float_power(a_fit, 2) * c11
                   + 2 * a_fit * w * c01) / scale ** 2
        return np.sqrt(np.maximum(var, 0.0))

    # uncertainties of a, of the dip minimum a (1 + V) and of a V: none for
    # a singular (flat-dip) fit, zero without noise
    errs = np.stack([np.sqrt(np.abs(c00)) / scale, std_of_a_times(1 + v_fit),
                     std_of_a_times(v_fit)])
    errs[:, ~np.isfinite(cov).all(axis=(1, 2))] = math.inf
    if noiseless:
        errs[:] = 0.0
    # floor them at a fraction of the typical plateau: the absolute
    # measurement noise does not shrink with the dip size
    if dips:
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
    if keep_scans:
        return dataset, {(input_pairs[p], (int(iu[d]), int(ju[d]))): (SCAN_POSITIONS, row)
                         for (p, d), row in zip(dips, counts)}
    return dataset


def reconstruct_moduli(dataset: HomDataset) -> np.ndarray:
    """Moduli minimizing the plateau chi-square, via squared moduli q >= 0.

    The model a = q_ih q_jk + q_jh q_ik is fitted to all valid plateaus,
    weighted by their uncertainties. Because each pair's plateaus are
    invariant under q_h -> s q_h, q_k -> q_k / s, the physical unit row
    norm (each row spans all outputs of a unitary) is imposed as an extra
    residual. Intensity rows, when present, supply the starting point.
    The fit takes the analytic Jacobian and ``least_squares``' default
    tolerances.
    """
    _spanning_tree(dataset)   # raises when the pairs leave a row unconnected
    n_rows, n_out = dataset.n_rows, dataset.n_outputs
    if dataset.intensities is not None:
        q0 = np.clip(np.asarray(dataset.intensities, dtype=float), 0.0, None)
    else:
        q0 = np.full((n_rows, n_out), 1.0 / n_out)
    h, k, i, j = dataset.dip_h, dataset.dip_k, dataset.dip_i, dataset.dip_j
    a_meas = dataset.plateaus[dataset.valid]
    eps = dataset.plateau_errors[dataset.valid]
    columns = np.arange(n_rows * n_out).reshape(n_rows, n_out)
    norm_jac = np.kron(np.eye(n_rows), np.ones(n_out)) / NORM_TOLERANCE

    def residuals(x):
        q = x.reshape(n_rows, n_out)
        return np.concatenate([(_pair_sums(q, h, k, i, j) - a_meas) / eps,
                               (q.sum(axis=1) - 1.0) / NORM_TOLERANCE])

    def jacobian(x):
        q = x.reshape(n_rows, n_out)
        jac = _dip_jacobian(dataset, columns, q[k, j] / eps, q[h, i] / eps,
                            q[k, i] / eps, q[h, j] / eps)
        return np.vstack([jac, norm_jac])

    result = least_squares(residuals, q0.ravel(), jac=jacobian,
                           bounds=(0.0, np.inf), method="trf")
    start = residuals(q0.ravel())
    _log_fit("moduli", result, start @ start)
    return np.sqrt(result.x.reshape(n_rows, n_out))


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


def _log_fit(name: str, result, chi2_start: float) -> None:
    """One DEBUG line on what a ``least_squares`` fit did."""
    fit_log.debug("%s fit: %d evaluations, %d Jacobians, status %d, chi2 %.6g -> %.6g",
                  name, result.nfev, result.njev, result.status, chi2_start,
                  2.0 * result.cost)


@dataclass
class ReconstructedSubmatrix:
    """Moduli and gauge-fixed phases of the reconstructed input rows."""

    rows: tuple
    moduli: np.ndarray
    phases: np.ndarray
    gauge: str = "first-row-and-first-column-zero"
    converged: bool = True
    chi2: float = float("nan")

    @property
    def n_rows(self) -> int:
        return self.moduli.shape[0]

    @property
    def n_cols(self) -> int:
        return self.moduli.shape[1]

    def matrix(self) -> np.ndarray:
        return self.moduli * np.exp(1j * self.phases)


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
    column; the fit takes their analytic Jacobian (:func:`_phase_jacobian`)
    and stops at ``least_squares``' default tolerances, which the chi-square
    resolves; roundoff does not decide when it stops. A stagnating
    optimizer returns its best iterate with ``converged=False``.
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
    result = least_squares(fun, x0, jac=jacobian, method="trf", max_nfev=2000)
    _log_fit("phase", result, cost0)
    theta = np.angle(np.exp(1j * unpack(result.x)))
    cost = _chi2_cost(theta, moduli, dataset)
    if cost > cost0:
        return replace(candidate, converged=False, chi2=cost0)
    return ReconstructedSubmatrix(candidate.rows, moduli, theta,
                                  converged=result.status > 0, chi2=cost)


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
