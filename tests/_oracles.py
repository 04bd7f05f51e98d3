"""Independent brute-force oracles used to pin expected values.

Everything here is written as plain loops from the defining formulas and
deliberately shares no code with the package: these are the other side of
every dual-route check, so they must stay naive and readable rather than
fast.
"""

import csv
import math
import re

import numpy as np

from splitenc.errors import CoverageError, ParseError, ValidationError


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ols_normal_equations(X, y):
    """Textbook normal-equations solution (X'X)^{-1} X'y."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = X.T @ X
    return np.linalg.inv(gram) @ (X.T @ y)


def split_terms_direct(e1, e2, m0):
    """Per-observation split-sample moment terms, one literal branch per segment."""
    n = len(e1)
    out = []
    for t in range(n):
        if t < m0:
            out.append(e1[t] ** 2 - 0.5 * (n / m0) * e1[t] * e2[t])
        else:
            out.append(e1[t] ** 2 - 0.5 * (n / (n - m0)) * e1[t] * e2[t])
    return np.array(out)


def dbar_direct(e1, e2, m0):
    """Split-sample moment estimate via its three defining sums."""
    n = len(e1)
    s_sq = sum(e1[t] ** 2 for t in range(n)) / n
    s_first = sum(e1[t] * e2[t] for t in range(m0)) / m0
    s_second = sum(e1[t] * e2[t] for t in range(m0, n)) / (n - m0)
    return s_sq - 0.5 * (s_first + s_second)


def bartlett_direct(q, M):
    """Bartlett long-run variance by double loop over lags and times."""
    n = len(q)
    total = sum(q[t] ** 2 for t in range(n)) / n
    for ell in range(1, M + 1):
        gamma = sum(q[t] * q[t - ell] for t in range(ell, n))
        total += (2.0 / n) * (1.0 - ell / M) * gamma
    return total


def statistic_direct(e1, e2, m0, M, centering="segment"):
    """Full studentized statistic assembled from the direct formulas.

    ``centering`` selects how the moment terms are demeaned before the
    Bartlett step: per segment (the consistent construction, package
    default) or by the full-sample mean (the literal textbook form).
    """
    n = len(e1)
    d = split_terms_direct(e1, e2, m0)
    dbar = float(sum(d)) / n
    if centering == "segment":
        mean1 = float(sum(d[:m0])) / m0
        mean2 = float(sum(d[m0:])) / (n - m0)
        q = [d[t] - (mean1 if t < m0 else mean2) for t in range(n)]
    else:
        q = [d[t] - dbar for t in range(n)]
    omega2 = bartlett_direct(q, M)
    stat = math.sqrt(n) * dbar / math.sqrt(omega2)
    return {
        "dbar": dbar,
        "omega2": omega2,
        "statistic": stat,
        "p_value": 1.0 - normal_cdf(stat),
    }


def local_power_direct(c, b11, b12, b21, b22, phi2, mu0, pi0, level):
    """Noncentrality and power from the Schur-complement quadratic form."""
    b11 = np.atleast_2d(np.asarray(b11, dtype=float))
    b12 = np.atleast_2d(np.asarray(b12, dtype=float))
    b21 = np.atleast_2d(np.asarray(b21, dtype=float))
    b22 = np.atleast_2d(np.asarray(b22, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    schur = b22 - b21 @ np.linalg.inv(b11) @ b12
    quad = float(c @ schur @ c)
    drift = (
        math.sqrt(1.0 - pi0)
        * math.sqrt(4.0 * mu0 * (1.0 - mu0) / ((1.0 - 2.0 * mu0) ** 2 * phi2))
        * quad
    )
    # critical value by bisection on the plain normal cdf
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < 1.0 - level:
            lo = mid
        else:
            hi = mid
    crit = 0.5 * (lo + hi)
    return {"drift": drift, "power": 1.0 - normal_cdf(crit - drift)}


def ma_autocov_theory(theta, h, lag, var_eps=1.0):
    """Autocovariance at a given lag of an MA(h-1) with geometric weights."""
    if lag >= h:
        return 0.0
    return var_eps * sum(theta ** j * theta ** (j + lag) for j in range(h - lag))


def h_step_ar_by_residue_class(drive, beta1, h):
    """y_t = beta1 y_{t-h} + drive_t from zero, one first-order filter per class t mod h."""
    from scipy.signal import lfilter

    drive = np.asarray(drive, dtype=float)
    y = np.empty_like(drive)
    for r in range(h):
        y[r::h] = lfilter([1.0], [1.0, -beta1], drive[r::h])
    return y


def expanding_refit_oracle(Z, y, k0_row, n_fits=None):
    """Per-origin batch refits: row j holds the fit on observations 0..k0_row+j."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    if n_fits is None:
        n_fits = Z.shape[0] - k0_row
    out = []
    for stop in range(k0_row + 1, k0_row + 1 + n_fits):
        out.append(np.linalg.lstsq(Z[:stop], y[:stop], rcond=None)[0])
    return np.array(out)


def bic_lag_search(y, h, p_max, lag_source=None):
    """(pick, BICs) of the lag search by one lstsq fit per candidate p = 0..p_max.

    Every candidate is fit on the targets y[h + p_max:], regressed on an
    intercept and the lags source[t - h - j], j = 0..p; the first smallest
    BIC wins.
    """
    y = np.asarray(y, dtype=float)
    x = y if lag_source is None else np.asarray(lag_source, dtype=float)
    T = y.shape[0]
    t0 = h + p_max
    n_eff = T - t0
    targets = y[t0:]
    lag_cols = [x[t0 - h - j: T - h - j] for j in range(p_max + 1)]
    ones = np.ones(n_eff)
    best_p, best_bic = 0, np.inf
    bics = []
    for p in range(p_max + 1):
        X = np.column_stack([ones] + lag_cols[: p + 1])
        coef, _, _, _ = np.linalg.lstsq(X, targets, rcond=None)
        resid = targets - X @ coef
        ssr = float(resid @ resid)
        with np.errstate(divide="ignore"):
            bic = n_eff * np.log(ssr / n_eff) + (p + 2) * np.log(n_eff)
        bics.append(bic)
        if bic < best_bic:
            best_p, best_bic = p, bic
    return best_p, bics


def simulate_dgp1_filters(spec, base_seed, stream_id):
    """The predictive regression of one stream, {"y", "x"}, from whole-path filters.

    Draws the burn_in + T pairs of normals from the generator of
    (base_seed, stream_id); x is an AR lfilter, the MA disturbances an FIR
    lfilter and y one filter per residue class.
    """
    from scipy.signal import lfilter

    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(stream_id,))
    g = np.random.Generator(np.random.PCG64(seq))
    total = spec.burn_in + spec.T
    eps, v = (g.standard_normal((total, 2)) @ np.linalg.cholesky(spec.sigma).T).T
    x = lfilter([1.0], [1.0, -spec.rho], v)
    drive = lfilter(spec.theta ** np.arange(spec.h), [1.0], eps)
    drive[spec.h:] += spec.beta2 * x[:-spec.h]
    y = h_step_ar_by_residue_class(drive, spec.beta1, spec.h)
    keep = slice(spec.burn_in, None)
    return {"y": y[keep], "x": x[keep]}


def simulate_dgp2_copying(spec, base_seed, stream_id):
    """The factor design as first written: {"y", "X", "f_true"} from whole-array filters and copies.

    Draws in the package's order (loadings, factor innovations, panel,
    disturbances) from the generator of (base_seed, stream_id); the
    idiosyncratic AR is one lfilter over the panel, the common component a
    separate outer product, the MA disturbances an FIR lfilter and y one
    filter per residue class.
    """
    from scipy.signal import lfilter

    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(stream_id,))
    g = np.random.Generator(np.random.PCG64(seq))
    total = spec.burn_in + spec.T
    lam = spec.loading_std * g.standard_normal(spec.N)
    f = lfilter([1.0], [1.0, -spec.alpha1], g.standard_normal(total))
    innov = g.standard_normal((spec.T, spec.N))
    innov[0] /= np.sqrt(1.0 - spec.rho_i * spec.rho_i)
    keep = slice(spec.burn_in, None)
    X = f[keep, None] * lam[None, :] + lfilter([1.0], [1.0, -spec.rho_i], innov, axis=0)
    w = lfilter(spec.theta ** np.arange(spec.h), [1.0], g.standard_normal(total))
    drive = w + spec.alpha
    drive[spec.h:] += spec.beta2 * f[:-spec.h]
    y = h_step_ar_by_residue_class(drive, spec.beta1, spec.h)
    return {"y": y[keep], "X": X, "f_true": f[keep]}


def _certified_power_iteration(A, gap_rtol, power_rtol, power_max_iter):
    """Top eigenvector by power iteration, or None unless it converged with a certified gap."""
    v = A[:, np.argmax(np.diagonal(A))]
    size = np.linalg.norm(v)
    if not size > 0.0:
        return None
    v = v / size
    for _ in range(power_max_iter):
        w = A @ v
        theta = v @ w
        r = np.linalg.norm(w - theta * v)
        if r <= power_rtol * theta:
            break
        v = w / np.linalg.norm(w)
    else:
        return None
    lam2_up = np.sqrt(max(0.0, np.vdot(A, A) - theta * theta - 2.0 * r * r)) + r
    return v if theta - lam2_up - r > gap_rtol * (theta + r) else None


def estimate_factor_copying(X, gap_rtol=1e-12, power_rtol=1e-14, power_max_iter=200):
    """Leading principal component as first written, or None when the top eigenvalue is not simple.

    Demeaned copy, Gram matrix divided into a new array, the certified
    power iteration from the largest diagonal entry, and scipy's eigh when
    that does not certify; sign from the first non-negligible column.
    """
    from scipy.linalg import eigh

    X = np.asarray(X, dtype=float)
    T, N = X.shape
    Xd = X - X.mean(axis=0)
    A = (Xd.T @ Xd) / (T * N) if N < T else (Xd @ Xd.T) / (T * N)
    v = _certified_power_iteration(A, gap_rtol, power_rtol, power_max_iter)
    if v is None:
        n = A.shape[0]
        vals, vecs = eigh(A, subset_by_index=[n - 2, n - 1])
        if vals[-1] <= 0.0 or (vals[-1] - vals[0]) <= gap_rtol * vals[-1]:
            return None
        v = vecs[:, -1]
    if N < T:
        f = Xd @ v
        f /= np.linalg.norm(f)
    else:
        f = v
    f = f * np.sqrt(T)
    p = f @ Xd
    anchor = p[np.argmax(np.abs(p) > gap_rtol * np.max(np.abs(p)))]
    return -f if anchor < 0.0 else f



def nested_pair_forecast_errors_copying(y, x, h, k0, pair_rtol=1e-8):
    """The nested-pair kernel as first written, every step into a new array.

    Same contract as ``regression._closed_form_pair``: (e1, e2) per row
    along the last axis, a row NaN throughout unless certified; and None
    for a k0 or shape that ``regression.nested_pair_forecast_errors``
    rejects.
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
    certified = (finite & (caa > pair_rtol * sums[..., 3, :]).all(axis=-1)
                 & (cbb > pair_rtol * sums[..., 6, :]).all(axis=-1)
                 & (det > pair_rtol * caa * cbb).all(axis=-1)
                 & np.isfinite(e1).all(axis=-1) & np.isfinite(e2).all(axis=-1))
    e1[~certified] = np.nan
    e2[~certified] = np.nan
    return e1, e2


_QUARTER_RE = re.compile(r"^(\d{4})-?[Qq]([1-4])$")


def _quarter_index(text):
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad quarter label {text!r} (expected YYYYQq or YYYY-Qq)")
    return int(m.group(1)) * 4 + int(m.group(2)) - 1


def load_panel_rows(path, countries=None, start=None, end=None, min_quarters=80):
    """The panel reader as first written, one row and one quarter label at a time.

    Returns the blocks {country: (label of the first quarter, prices)} of
    the panel that ``inflation.load_panel`` builds, in its country order,
    and raises its error classes with its messages.
    """
    bounds = {}
    for name, label in (("start", start), ("end", end)):
        try:
            bounds[name] = _quarter_index(label) if label is not None else None
        except ValueError as exc:
            raise ValidationError(f"{name}: {exc}") from None
    q_lo, q_hi = bounds["start"], bounds["end"]
    if q_lo is not None and q_hi is not None and q_hi < q_lo:
        raise ValidationError(f"start {start} is later than end {end}")
    if countries is not None:
        counts = {}
        for name in countries:
            counts[name] = counts.get(name, 0) + 1
        twice = [name for name in sorted(counts) if counts[name] > 1]
        if twice:
            raise ValidationError(f"countries names {', '.join(twice)} more than once")
    rows = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        if [c.strip().lower() for c in header] != ["country", "date", "hcpi"]:
            raise ParseError(f"expected header country,date,hcpi, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise ParseError(f"line {lineno}: empty country code")
            try:
                qidx = _quarter_index(row[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            try:
                price = float(row[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad price {row[2]!r}") from None
            if not math.isfinite(price) or price <= 0.0:
                raise ParseError(f"line {lineno}: price must be positive, got {row[2]}")
            if (name, qidx) in rows:
                raise ParseError(f"line {lineno}: duplicate entry for {name} {row[1]}")
            rows[(name, qidx)] = price

    by_country = {}
    for (name, qidx), price in rows.items():
        by_country.setdefault(name, {})[qidx] = price
    if countries is not None:
        missing = [c for c in countries if c not in by_country]
        if missing:
            raise CoverageError(f"countries not in file: {', '.join(missing)}")
        by_country = {c: by_country[c] for c in countries}

    blocks = {}
    for name, series in by_country.items():
        qs = sorted(q for q in series
                    if (q_lo is None or q >= q_lo) and (q_hi is None or q <= q_hi))
        best_start, best_len, run_start = None, 0, None
        for i, q in enumerate(qs):
            if i == 0 or q != qs[i - 1] + 1:
                run_start = i
            run_len = i - run_start + 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        if best_len < min_quarters:
            raise CoverageError(
                f"country {name} has {best_len} usable quarters (< {min_quarters})"
            )
        kept = qs[best_start: best_start + best_len]
        q0 = kept[0]
        blocks[name] = (f"{q0 // 4}Q{q0 % 4 + 1}", [series[q] for q in kept])
    if len(blocks) < 2:
        raise CoverageError("need at least 2 countries after filtering")
    return blocks
