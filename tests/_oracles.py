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

from splitenc.errors import CoverageError, ParseError


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


_QUARTER_RE = re.compile(r"^(\d{4})-?[Qq]([1-4])$")


def _quarter_index(text):
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad quarter label {text!r} (expected YYYYQq or YYYY-Qq)")
    return int(m.group(1)) * 4 + int(m.group(2)) - 1


def load_panel_rows(path, countries=None, start=None, end=None, min_quarters=80):
    """The panel reader as first written, one row and one quarter label at a time.

    Returns (countries, dates, prices, coverage) of the panel that
    ``inflation.load_panel`` builds, with NaN prices outside coverage, and
    raises its error classes with its messages.
    """
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
    q_lo = _quarter_index(start) if start is not None else None
    q_hi = _quarter_index(end) if end is not None else None

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
        blocks[name] = (kept[0], [series[q] for q in kept])
    if len(blocks) < 2:
        raise CoverageError("need at least 2 countries after filtering")

    lo = min(q0 for q0, _ in blocks.values())
    hi = max(q0 + len(vals) - 1 for q0, vals in blocks.values())
    dates = tuple(f"{q // 4}Q{q % 4 + 1}" for q in range(lo, hi + 1))
    prices = np.full((len(dates), len(blocks)), np.nan)
    coverage = np.zeros((len(dates), len(blocks)), dtype=bool)
    for j, (q0, vals) in enumerate(blocks.values()):
        for i, value in enumerate(vals):
            prices[q0 - lo + i, j] = value
            coverage[q0 - lo + i, j] = True
    return tuple(blocks), dates, prices, coverage
