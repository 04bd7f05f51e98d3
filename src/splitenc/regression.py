"""Least-squares machinery for direct h-step forecasting regressions.

A *direct* h-step regression pairs a target observed at time t with
regressors observed at time t - h.  Forecasts are produced recursively with
an expanding estimation window: the model is refit at every forecast origin
using all target/regressor pairs whose target date does not exceed the
origin.  Pairs whose regressor date would fall before the start of the
sample (target dates t <= h) are never part of any fit.

All functions are pure; arrays are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, RankDeficient

PAIR_RTOL = 1e-8  # relative floor on the centred sums certifying the nested-pair kernel


@dataclass(frozen=True)
class DirectDesign:
    """Aligned (regressor, target) pairs for a direct h-step regression.

    Row i pairs the target observed at date ``first_origin + i`` with the
    regressor vector observed h periods earlier, so no row mixes in
    information dated later than its own target.  The first regressor column
    is the intercept and must be identically one.
    """

    regressors: np.ndarray  # (m, k), row i = intercept + predictors dated (first_origin + i) - h
    targets: np.ndarray     # (m,), entry i observed at date first_origin + i
    h: int
    first_origin: int       # 1-based date of the earliest usable target row

    def __post_init__(self):
        Z = np.asarray(self.regressors, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if Z.ndim != 2 or y.ndim != 1 or Z.shape[0] != y.shape[0]:
            raise ValueError("regressors must be (m, k) aligned with m targets")
        if Z.shape[0] == 0:
            raise ValueError("design has no rows")
        if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(y))):
            raise ValueError("design entries must be finite")
        if not np.all(Z[:, 0] == 1.0):
            raise ValueError("first regressor column must be identically 1 (intercept)")
        if self.h < 1:
            raise ValueError("horizon must be >= 1")
        if self.first_origin < self.h + 1:
            raise ValueError("first usable target cannot predate h + 1")
        object.__setattr__(self, "regressors", Z)
        object.__setattr__(self, "targets", y)

    @classmethod
    def from_series(cls, y, predictors=None, h: int = 1) -> "DirectDesign":
        """Build the design for regressing y_{t} on [1, predictors_{t-h}].

        ``predictors`` is a T x p matrix whose row t holds the information
        observed at time t (p = 0 gives an intercept-only design).  Usable
        target dates are t = h+1, ..., T.
        """
        y = np.asarray(y, dtype=float)
        T = y.shape[0]
        if h < 1:
            raise ValueError("horizon must be >= 1")
        if T <= h:
            raise InsufficientData(f"series of length {T} has no usable pairs at h={h}")
        if predictors is None:
            lagged = np.empty((T - h, 0))
        else:
            predictors = np.asarray(predictors, dtype=float)
            if predictors.ndim == 1:
                predictors = predictors[:, None]
            if predictors.shape[0] != T:
                raise ValueError("predictors must share the target's time index")
            lagged = predictors[: T - h]
        Z = np.column_stack([np.ones(T - h), lagged])
        return cls(regressors=Z, targets=y[h:], h=h, first_origin=h + 1)

    @property
    def n_rows(self) -> int:
        return self.targets.shape[0]

    @property
    def n_params(self) -> int:
        return self.regressors.shape[1]

    @property
    def last_target(self) -> int:
        """1-based date of the final target row."""
        return self.first_origin + self.n_rows - 1


def _solve_gram_batch(grams: np.ndarray, crosses: np.ndarray, origin0: int) -> np.ndarray:
    """Solve G_t b_t = c_t for a stack of Gram systems, one per forecast origin.

    Columns are rescaled to unit Gram diagonal before factoring, which keeps
    the solve accurate for persistent (poorly scaled) regressors.
    """
    diag = np.diagonal(grams, axis1=1, axis2=2)
    if np.any(diag <= 0.0):
        t_bad = int(np.argmax(np.any(diag <= 0.0, axis=1)))
        raise RankDeficient(f"zero regressor column in window ending at t={origin0 + t_bad}")
    scale = 1.0 / np.sqrt(diag)
    ge = grams * scale[:, :, None] * scale[:, None, :]
    try:
        np.linalg.cholesky(ge)
    except np.linalg.LinAlgError:
        for i in range(ge.shape[0]):
            try:
                np.linalg.cholesky(ge[i])
            except np.linalg.LinAlgError:
                raise RankDeficient(
                    f"cross-product matrix singular in window ending at t={origin0 + i}"
                ) from None
        raise RankDeficient("cross-product matrix singular") from None
    coefs = np.linalg.solve(ge, (crosses * scale)[:, :, None])[:, :, 0]
    return coefs * scale


def expanding_window_coefficients(design: DirectDesign, k0: int) -> np.ndarray:
    """Coefficient path of the expanding-window recursive fit.

    At every forecast origin t = k0, ..., last_target - h the model is refit
    on all pairs whose target date is <= t.  Row j of the result holds the
    coefficients for origin k0 + j; each row reproduces a batch fit on the
    same subsample to high accuracy.

    Raises
    ------
    InsufficientData
        If k0 starts the recursion before the first fit is identified.
    RankDeficient
        If any window's cross-product matrix is singular (reported with the
        offending origin).
    """
    Z, y = design.regressors, design.targets
    k = design.n_params
    last_origin = design.last_target - design.h
    if k0 < k + design.h:
        raise InsufficientData(f"k0={k0} < columns + h = {k + design.h}")
    if k0 > last_origin:
        raise InsufficientData(f"k0={k0} leaves no forecast origins (last is {last_origin})")
    i0 = k0 - design.first_origin  # row index of the target dated k0
    if i0 + 1 < k:
        raise InsufficientData(
            f"first window has {i0 + 1} observations for {k} parameters"
        )
    grams = np.cumsum(Z[:, :, None] * Z[:, None, :], axis=0)
    crosses = np.cumsum(Z * y[:, None], axis=0)
    stop = last_origin - design.first_origin + 1
    return _solve_gram_batch(grams[i0:stop], crosses[i0:stop], origin0=k0)


def expanding_window_forecast_errors(design: DirectDesign, k0: int) -> np.ndarray:
    """Pseudo out-of-sample h-step forecast errors from the expanding scheme.

    Entry j is the realized target at date k0 + h + j minus the forecast made
    at origin k0 + j, i.e. using coefficients fit on targets dated <= k0 + j
    and the regressor vector observed at the origin itself.
    """
    coefs = expanding_window_coefficients(design, k0)
    j0 = k0 + design.h - design.first_origin  # row holding the target dated k0 + h
    rows = design.regressors[j0:]
    if rows.shape[0] != coefs.shape[0]:
        raise InsufficientData("design too short to forecast from every origin")
    forecasts = np.einsum("ij,ij->i", coefs, rows)
    return design.targets[j0:] - forecasts


def nested_pair_forecast_errors(y, x, h: int, k0: int):
    """Expanding-window errors of [1, y_{t-h}] and [1, y_{t-h}, x_{t-h}], row by row.

    y and x are (..., T) with time along the last axis; each row gives the
    same (e1, e2) as ``expanding_window_forecast_errors`` on the two
    ``DirectDesign.from_series`` designs of that row, from one stack of
    running sums: with a = y_{t-h}, b = x_{t-h} and target t = y_t, the
    intercept is partialled out through the centred sums, and the 1x1
    benchmark and 2x2 large systems are solved in closed form at every
    origin.  a, b and t are first shifted by their means over the first
    window, which keeps the centring accurate when the series sit far from
    zero.  Every operation acts on one row at a time, so a row's errors do
    not depend on the rows beside it.

    Each row is certified on its own: it is kept only when its inputs and
    errors are finite and every window has caa > PAIR_RTOL * sum(a^2),
    cbb > PAIR_RTOL * sum(b^2) and det = caa*cbb - cab^2 > PAIR_RTOL * caa *
    cbb.  A row that fails is NaN throughout and is left to the generic
    path, which solves or raises.  For a k0 or shape the generic path
    rejects, the result is None.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim < 1 or x.shape != y.shape or h < 1 or not 3 + h <= k0 <= y.shape[-1] - h:
        return None
    m = y.shape[-1] - h  # design rows: a = y[:m], b = x[:m], t = y[h:]
    i0 = k0 - h - 1      # last row of the first window
    v = np.stack([y[..., :m], x[..., :m], y[..., h:]], axis=-2)  # rows a, b, t
    finite = np.isfinite(v).all(axis=(-2, -1))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        v -= v[..., :i0 + 1].mean(axis=-1, keepdims=True)
        # rows a, b, t, aa, ab, at, bb, bt over the rows any window holds
        w = v[..., :m - h]
        sums = np.empty(v.shape[:-2] + (8, m - h))
        sums[..., :3, :] = w
        np.multiply(w[..., :1, :], w, out=sums[..., 3:6, :])
        np.multiply(w[..., 1:2, :], w[..., 1:, :], out=sums[..., 6:, :])
        sums = np.cumsum(sums, axis=-1)[..., i0:]  # column j: the window closing at origin k0 + j
        means = sums[..., :3, :] / np.arange(i0 + 1.0, m - h + 1.0)
        caa, cab, cat = np.moveaxis(sums[..., 3:6, :] - sums[..., :1, :] * means, -2, 0)
        cbb, cbt = np.moveaxis(sums[..., 6:, :] - sums[..., 1:2, :] * means[..., 1:, :], -2, 0)
        det = caa * cbb - cab * cab
        # the forecast from origin k0 + j uses design row i0 + h + j
        da, db, dt = np.moveaxis(v[..., i0 + h:] - means, -2, 0)
        e1 = dt - (cat / caa) * da
        e2 = dt - ((cbb * cat - cab * cbt) * da + (caa * cbt - cab * cat) * db) / det
    # written so that a NaN fails the check
    certified = (finite & (caa > PAIR_RTOL * sums[..., 3, :]).all(axis=-1)
                 & (cbb > PAIR_RTOL * sums[..., 6, :]).all(axis=-1)
                 & (det > PAIR_RTOL * caa * cbb).all(axis=-1)
                 & np.isfinite(e1).all(axis=-1) & np.isfinite(e2).all(axis=-1))
    e1[~certified] = np.nan
    e2[~certified] = np.nan
    return e1, e2


def bic_select_lag(y, h: int, p_max: int = 8, lag_source=None) -> int:
    """Pick the lag order of a direct h-step regression by BIC.

    For every candidate p in {0, ..., p_max} the target at date t is
    regressed on an intercept plus the p + 1 lag terms source_{t-h-j},
    j = 0, ..., p, with ``lag_source`` defaulting to ``y`` itself.  All
    candidates are fit on the common target range implied by p_max so their
    sums of squares are comparable; ties go to the smaller p.

    BIC(p) = n_eff * ln(ssr / n_eff) + (p + 2) * ln(n_eff), counting the
    intercept and the p + 1 lag coefficients.
    """
    y = np.asarray(y, dtype=float)
    x = y if lag_source is None else np.asarray(lag_source, dtype=float)
    T = y.shape[0]
    if x.shape != y.shape:
        raise ValueError("lag_source must share y's length")
    if p_max < 0 or h < 1:
        raise ValueError("need p_max >= 0 and h >= 1")
    if T < p_max + h + 10:
        raise InsufficientData(f"need at least p_max + h + 10 = {p_max + h + 10} observations")
    t0 = h + p_max  # first 0-based target index every candidate can use
    n_eff = T - t0
    targets = y[t0:]
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets contain non-finite values on the comparison sample")
    lag_cols = [x[t0 - h - j: T - h - j] for j in range(p_max + 1)]
    if not all(np.all(np.isfinite(col)) for col in lag_cols):
        raise ValueError("lags contain non-finite values on the comparison sample")
    ones = np.ones(n_eff)
    best_p, best_bic = 0, np.inf
    for p in range(p_max + 1):
        X = np.column_stack([ones] + lag_cols[: p + 1])
        coef, _, _, _ = np.linalg.lstsq(X, targets, rcond=None)
        resid = targets - X @ coef
        ssr = float(resid @ resid)
        with np.errstate(divide="ignore"):
            bic = n_eff * np.log(ssr / n_eff) + (p + 2) * np.log(n_eff)
        if bic < best_bic:
            best_p, best_bic = p, bic
    return best_p
