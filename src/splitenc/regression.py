"""Least-squares machinery for direct h-step forecasting regressions.

A *direct* h-step regression pairs a target observed at time t with
regressors observed at time t - h.  Forecasts are produced recursively with
an expanding estimation window: the model is refit at every forecast origin
using all target/regressor pairs whose target date does not exceed the
origin.  Pairs whose regressor date would fall before the start of the
sample (target dates t <= h) are never part of any fit.

All functions are pure: their inputs are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._work import work_array
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
    rhs = (crosses * scale)[:, :, None]
    try:
        np.linalg.cholesky(ge)
        coefs = np.linalg.solve(ge, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # rounding can pass an exactly singular window through cholesky to an exact zero pivot
        for i in range(ge.shape[0]):
            try:
                np.linalg.cholesky(ge[i])
                np.linalg.solve(ge[i], rhs[i])
            except np.linalg.LinAlgError:
                raise RankDeficient(
                    f"cross-product matrix singular in window ending at t={origin0 + i}"
                ) from None
        raise RankDeficient("cross-product matrix singular") from None
    return coefs * scale


def forecast_origins(n_params: int, h: int, first_origin: int, last_target: int, k0: int) -> int:
    """The number of forecast origins k0, ..., last_target - h of an expanding-window fit.

    This is the one rule for the first origin k0: the fit of ``n_params``
    coefficients on the targets dated first_origin..k0 must be identified
    (at least n_params of them), and k0 must leave at least one forecast,
    k0 <= last_target - h.  Returns n = last_target - h - k0 + 1.

    Raises InsufficientData, naming k0, the first usable target, the
    parameter count and the last origin, for any other k0.
    """
    last_origin = last_target - h
    if k0 - first_origin + 1 < n_params or k0 > last_origin:
        raise InsufficientData(
            f"k0={k0} outside [{first_origin + n_params - 1}, {last_origin}] (first usable "
            f"target {first_origin}, {n_params} parameters, last origin {last_origin})")
    return last_origin - k0 + 1


def expanding_window_coefficients(design: DirectDesign, k0: int) -> np.ndarray:
    """Coefficient path of the expanding-window recursive fit.

    At every forecast origin t = k0, ..., last_target - h the model is refit
    on all pairs whose target date is <= t.  Row j of the result holds the
    coefficients for origin k0 + j; each row reproduces a batch fit on the
    same subsample to high accuracy.

    Raises
    ------
    InsufficientData
        If ``forecast_origins`` rejects k0: the first fit is not identified
        or k0 leaves no forecast.
    RankDeficient
        If any window's cross-product matrix is singular (reported with the
        offending origin).
    """
    Z, y = design.regressors, design.targets
    n = forecast_origins(design.n_params, design.h, design.first_origin, design.last_target, k0)
    i0 = k0 - design.first_origin  # row index of the target dated k0
    grams = np.cumsum(Z[:, :, None] * Z[:, None, :], axis=0)
    crosses = np.cumsum(Z * y[:, None], axis=0)
    return _solve_gram_batch(grams[i0:i0 + n], crosses[i0:i0 + n], origin0=k0)


def expanding_window_forecast_errors(design: DirectDesign, k0: int) -> np.ndarray:
    """Pseudo out-of-sample h-step forecast errors from the expanding scheme.

    Entry j is the realized target at date k0 + h + j minus the forecast made
    at origin k0 + j, i.e. using coefficients fit on targets dated <= k0 + j
    and the regressor vector observed at the origin itself.
    """
    coefs = expanding_window_coefficients(design, k0)
    j0 = k0 + design.h - design.first_origin  # row holding the target dated k0 + h
    forecasts = np.einsum("ij,ij->i", coefs, design.regressors[j0:])
    return design.targets[j0:] - forecasts


def _closed_form_pair(y, x, h: int, k0: int):
    """The closed form of ``nested_pair_forecast_errors``, NaN in every row it does not certify.

    y and x are (..., T) float arrays of one shape, and k0 is an origin
    that ``forecast_origins`` admits for the larger model.
    From one stack of running sums: with a = y_{t-h}, b = x_{t-h} and
    target t = y_t, the intercept is partialled out through the centred
    sums, and the 1x1 benchmark and 2x2 large systems are solved in closed
    form at every origin.  a, b and t are first shifted by their means over
    the first window, which keeps the centring accurate when the series sit
    far from zero.  Every operation acts on one row at a time, so a row's
    errors do not depend on the rows beside it.

    Each row is certified on its own: it is kept only when its inputs and
    errors are finite and every window has caa > PAIR_RTOL * sum(a^2),
    cbb > PAIR_RTOL * sum(b^2) and det = caa*cbb - cab^2 > PAIR_RTOL * caa *
    cbb.  A row that fails is NaN throughout.

    The rows, running sums and per-origin terms live in work arrays kept
    between calls (see ``_work.work_array``), laid out one quantity after
    another; e1 and e2 are new arrays that never refer to them.
    """
    batch = y.shape[:-1]
    m = y.shape[-1] - h  # design rows: a = y[:m], b = x[:m], t = y[h:]
    i0 = k0 - h - 1      # last row of the first window
    n = m - h - i0       # forecast origins
    # rows a, b, t, then aa, ab, at, bb, bt over the m - h rows any window holds
    rows = work_array("pair.rows", (8,) + batch + (m,))
    v = np.stack([y[..., :m], x[..., :m], y[..., h:]], out=rows[:3])
    check = work_array("pair.check", (3,) + batch + (m,), dtype=bool)
    finite = np.isfinite(v, out=check).all(axis=(0, -1))
    # per origin: the means of a, b, t (then scratch) and the deviations da, db, dt;
    # caa, cab, cat, cbb, cbt and det (two roles; the engine passes one row block at a time)
    means, dev = work_array("pair.origin", (2, 3) + batch + (n,))
    centred = work_array("pair.centred", (6,) + batch + (n,))
    errors = np.empty((2,) + batch + (n,))  # e1, e2: new, never a view of a work array
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        v -= v[..., :i0 + 1].mean(axis=-1, keepdims=True)
        w = rows[..., :m - h]
        np.multiply(w[:1], w[:3], out=w[3:6])
        np.multiply(w[1:2], w[1:3], out=w[6:])
        # the forecast from origin k0 + j uses design row i0 + h + j, copied before the sums
        np.copyto(dev, v[..., i0 + h:])
        sums = np.cumsum(w, axis=-1, out=w)[..., i0:]  # column j: the window closing at origin k0 + j
        np.divide(sums[:3], np.arange(i0 + 1.0, m - h + 1.0), out=means)
        dev -= means
        da, db, dt = dev
        np.multiply(sums[:1], means, out=centred[:3])
        np.subtract(sums[3:6], centred[:3], out=centred[:3])
        np.multiply(sums[1:2], means[1:], out=centred[3:5])
        np.subtract(sums[6:], centred[3:5], out=centred[3:5])
        caa, cab, cat, cbb, cbt, det = centred
        scratch = means  # spent
        np.multiply(caa, cbb, out=det)
        det -= np.multiply(cab, cab, out=scratch[0])
        # e1 = dt - (cat / caa) * da
        step = np.divide(cat, caa, out=scratch[0])
        step *= da
        np.subtract(dt, step, out=errors[0])
        # e2 = dt - ((cbb * cat - cab * cbt) * da + (caa * cbt - cab * cat) * db) / det
        step = np.multiply(cbb, cat, out=scratch[0])
        step -= np.multiply(cab, cbt, out=scratch[1])
        step *= da
        other = np.multiply(caa, cbt, out=scratch[1])
        other -= np.multiply(cab, cat, out=scratch[2])
        other *= db
        step += other
        step /= det
        np.subtract(dt, step, out=errors[1])
        # written so that a NaN fails the check: caa and cbb against their floors, then det
        check = check[..., :n]
        np.greater(centred[::3], np.multiply(sums[3::3], PAIR_RTOL, out=scratch[:2]), out=check[:2])
        floor = np.multiply(caa, PAIR_RTOL, out=scratch[2])
        floor *= cbb
        np.greater(det, floor, out=check[2])
        certified = finite & check.all(axis=(0, -1))
        certified &= np.isfinite(errors, out=check[:2]).all(axis=(0, -1))
    errors[:, ~certified] = np.nan
    return errors[0], errors[1]


def nested_pair_forecast_errors(y, x, h: int, k0: int):
    """Expanding-window errors of [1, y_{t-h}] and [1, y_{t-h}, x_{t-h}], row by row.

    y and x are (..., T) with time along the last axis.  Row r of e1 and e2
    is what ``expanding_window_forecast_errors`` gives on the two
    ``DirectDesign.from_series`` designs of row r, and NaN throughout where
    those fits fail: where the row has a non-finite entry that a fit reads
    (x's last h entries enter none) or a window is singular.  A row that the
    closed form certifies takes its errors (``_closed_form_pair``); any other
    row runs the two generic fits on its own.  Rows do not depend on each
    other.

    Raises ValueError unless y and x share one shape with a time axis and
    h >= 1, and InsufficientData unless ``forecast_origins`` admits k0 for
    the larger model (3 coefficients, targets dated h + 1..T), that is
    3 + h <= k0 <= T - h: the origins at which both fits are identified
    and leave a forecast error.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim < 1 or x.shape != y.shape or h < 1:
        raise ValueError("need y and x of one (..., T) shape and a horizon h >= 1")
    forecast_origins(3, h, h + 1, y.shape[-1], k0)
    e1, e2 = _closed_form_pair(y, x, h, k0)
    for row in map(tuple, np.argwhere(np.isnan(e1[..., 0]))):
        try:
            bench = DirectDesign.from_series(y[row], y[row], h=h)
            large = DirectDesign.from_series(y[row], np.column_stack([y[row], x[row]]), h=h)
            e1[row], e2[row] = (expanding_window_forecast_errors(bench, k0),
                                expanding_window_forecast_errors(large, k0))
        except (ValueError, RankDeficient):  # a non-finite design entry; a singular window
            pass
    return e1, e2


def lag_columns(series: np.ndarray, h: int, n_lags: int, t0: int) -> list:
    """Lag columns series[t - h - j], j = 0..n_lags, for direct h-step targets t = t0..T-1."""
    T = series.shape[0]
    return [series[t0 - h - j: T - h - j] for j in range(n_lags + 1)]


def bic_select_lag(y, h: int, p_max: int = 8, lag_source=None) -> int:
    """Pick the lag order of a direct h-step regression by BIC.

    For every candidate p in {0, ..., p_max} the target at date t is
    regressed on an intercept plus the p + 1 lag terms source_{t-h-j},
    j = 0, ..., p, with ``lag_source`` defaulting to ``y`` itself.  All
    candidates are fit on the common target range implied by p_max so their
    sums of squares are comparable; ties go to the smaller p.

    BIC(p) = n_eff * ln(ssr / n_eff) + (p + 2) * ln(n_eff), counting the
    intercept and the p + 1 lag coefficients.

    Every candidate's SSR comes from one QR factorization of
    [1, lag_0, ..., lag_{p_max}, targets]: entry j of R's last column is
    what design column j adds to the fit, so candidate p's SSR is the sum
    of squares of that column from row p + 2 down.  A candidate with as
    many coefficients as targets (p + 2 >= n_eff) fits them exactly, with
    SSR 0 and BIC -inf, so the smallest such p is picked.
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
    lag_cols = lag_columns(x, h, p_max, t0)
    if not all(np.all(np.isfinite(col)) for col in lag_cols):
        raise ValueError("lags contain non-finite values on the comparison sample")
    fit = np.linalg.qr(np.column_stack([np.ones(n_eff)] + lag_cols + [targets]), mode="r")
    gains = np.zeros(p_max + 3)  # rows past n_eff add nothing
    gains[:fit.shape[0]] = fit[:, -1] ** 2
    ssr = np.cumsum(gains[::-1])[::-1][2:]
    with np.errstate(divide="ignore"):
        bic = n_eff * np.log(ssr / n_eff) + np.arange(2, p_max + 3) * np.log(n_eff)
    return int(np.argmin(bic))
