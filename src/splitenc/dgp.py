"""Synthetic data generators for the simulation studies.

Two designs are covered:

* a predictive regression with an autoregressive predictor and moving-average
  h-step disturbances (``Dgp1Spec``),
* a factor-augmented regression whose single common factor is recovered from
  a cross-section by principal components (``Dgp2Spec``).

Every generator is a deterministic function of (spec, RngStream): identical
inputs reproduce identical paths bit for bit, and distinct stream ids give
statistically independent replications.  The recursions of y, x and the
factor start at zero and a burn-in prefix is discarded; the idiosyncratic
panel of the factor design starts from its stationary law instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._work import work_array
from .errors import DegenerateSpectrum, InvalidSpec

# Innovation covariances used throughout the predictive-regression studies:
# uncorrelated shocks, and strongly negatively correlated shocks (corr -0.8).
SIGMA1 = np.array([[1.0, 0.0], [0.0, 0.25]])
SIGMA2 = np.array([[1.0, -0.4], [-0.4, 0.25]])

EIGENGAP_RTOL = 1e-12  # relative gap below which the top eigenvalue is not simple
POWER_RTOL = 1e-14  # relative eigen-residual at which the power iteration stops
POWER_MAX_ITER = 200


@functools.lru_cache(maxsize=256)
def _entropy_words(key) -> np.ndarray:
    """The uint32 words SeedSequence makes of an int or tuple-of-ints key, as a read-only array.

    Each non-negative int becomes its 32-bit words, least significant first
    (0 is one zero word), and a tuple's words are its items' in order.
    Given these words as its entropy, SeedSequence builds the same pool.
    """
    words = []
    for part in key if isinstance(key, tuple) else (key,):
        if part < 0:
            raise ValueError("expected non-negative integer")
        words.append(part & 0xFFFFFFFF)
        while part > 0xFFFFFFFF:
            part >>= 32
            words.append(part & 0xFFFFFFFF)
    words = np.array(words, dtype=np.uint32)
    words.flags.writeable = False
    return words


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable randomness: (base_seed, stream_id) -> generator.

    base_seed is the SeedSequence entropy: an int, or a tuple of ints when
    the stream is keyed by more than one value.
    """

    base_seed: int | tuple
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # the streams of one key share its entropy words, converted once per key
        key = self.base_seed
        plain = type(key) is int or (type(key) is tuple and all(type(k) is int for k in key))
        entropy = _entropy_words(key) if plain else key
        ss = np.random.SeedSequence(entropy=entropy, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def _check_cov(name: str, cov: np.ndarray, dim: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim):
        raise InvalidSpec(f"{name} must be {dim}x{dim}")
    if not np.all(np.isfinite(cov)):
        raise InvalidSpec(f"{name} entries must be finite")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=0.0):
        raise InvalidSpec(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise InvalidSpec(f"{name} must be positive definite") from None
    return cov


def _check_integers(spec, names) -> None:
    """Each named field is an integer (a bool is not): it sizes an array or a slice."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidSpec(f"{name} must be an integer")


def _check_shared(spec) -> None:
    """The checks of the fields both designs share: T, h, beta1 and burn_in."""
    _check_integers(spec, ("T", "h", "burn_in"))
    if spec.T < 50:
        raise InvalidSpec("T must be at least 50")
    if spec.h < 1:
        raise InvalidSpec("h must be >= 1")
    if not abs(spec.beta1) < 1.0:
        raise InvalidSpec("|beta1| must be < 1")
    if spec.burn_in < 0:
        raise InvalidSpec("burn_in must be >= 0")


def _check_finite(spec, names) -> None:
    for name in names:
        if not math.isfinite(getattr(spec, name)):
            raise InvalidSpec(f"{name} must be finite")


@dataclass(frozen=True)
class Dgp1Spec:
    """Predictive regression: y_{t} = b1 y_{t-h} + b2 x_{t-h} + w_t.

    x is an AR(rho) driven by v, w is an MA(h-1) in eps with geometric
    weights theta^j, and (eps, v) are jointly normal with covariance sigma.
    b2 = 0 puts the design under the encompassing null.
    """

    T: int
    h: int = 1
    beta1: float = 0.3
    beta2: float = 0.0
    rho: float = 0.25
    theta: float = 0.5
    sigma: np.ndarray = field(default_factory=lambda: SIGMA1.copy())
    burn_in: int = 200

    def __post_init__(self):
        _check_shared(self)
        if not abs(self.rho) < 1.0:
            raise InvalidSpec("|rho| must be < 1")
        _check_finite(self, ("beta2", "theta"))
        object.__setattr__(self, "sigma", _check_cov("sigma", self.sigma, 2))


@dataclass(frozen=True)
class Dgp2Spec:
    """Factor-augmented regression with an approximate one-factor panel.

    The cross-section is X_it = lam_i f_t + e_it with AR(alpha1) factor and
    AR(rho_i) idiosyncratic noise; the outcome is y_{t} = alpha + beta1
    y_{t-h} + beta2 f_{t-h} + w_t with MA(h-1) disturbances.  Loadings are
    drawn once per replication.
    """

    T: int
    N: int
    h: int = 1
    alpha: float = 0.0
    beta1: float = 0.3
    beta2: float = 0.0
    theta: float = 0.5
    alpha1: float = 0.5
    rho_i: float = 0.5
    loading_std: float = 1.0
    burn_in: int = 200

    def __post_init__(self):
        _check_shared(self)
        _check_integers(self, ("N",))
        if self.N < 10:
            raise InvalidSpec("N must be at least 10")
        if not abs(self.alpha1) < 1.0:
            raise InvalidSpec("|alpha1| must be < 1")
        if not abs(self.rho_i) < 1.0:
            raise InvalidSpec("|rho_i| must be < 1")
        if self.loading_std <= 0.0:
            raise InvalidSpec("loading_std must be positive")
        _check_finite(self, ("alpha", "beta2", "theta", "loading_std"))


# The Dgp1Spec fields that the draws, the shocks (eps, v) and the x path depend
# on; the other fields (h, beta1, beta2, theta) act on y alone.
DGP1_STREAM_FIELDS = ("T", "rho", "sigma", "burn_in")

# The Dgp2Spec fields that the draws, the panel X and the factor path depend
# on; the other fields (h, alpha, beta1, beta2, theta) act on y alone.
DGP2_PANEL_FIELDS = ("N", "T", "alpha1", "rho_i", "loading_std", "burn_in")


# scipy is imported where a path is filtered or the eigensolver falls back,
# not at module import: it is the slowest import of the package, and the
# commands that simulate nothing (test, inflation, local-power) never need it.

def _ar1_path(innov: np.ndarray, coeff: float, axis: int = -1) -> np.ndarray:
    # x_t = coeff * x_{t-1} + innov_t with x_0 = 0, along the given axis
    from scipy.signal import lfilter

    return lfilter([1.0], [1.0, -coeff], innov, axis=axis)


def ma_path(innov: np.ndarray, theta: float, h: int) -> np.ndarray:
    """w_t = sum_{j=0}^{h-1} theta^j innov_{t-j} along the last axis, as a new array.

    This is the MA(h-1) disturbance of y; missing pre-sample terms count
    as 0.  One np.convolve per row is what lfilter's FIR branch runs, so
    the bits are lfilter's.  w depends on the draws, theta and h alone, so
    the specs that share all three share it.
    """
    if h == 1:
        return innov.copy()
    weights = theta ** np.arange(h)
    T = innov.shape[-1]
    out = np.empty(innov.shape)
    for row in np.ndindex(innov.shape[:-1]):
        out[row] = np.convolve(weights, innov[row])[:T]
    return out


def _h_step_ar(drive: np.ndarray, beta1: float, h: int) -> np.ndarray:
    """Solve y_t = beta1 * y_{t-h} + drive_t along the last axis with zero pre-sample values.

    The recursion decouples into h independent first-order recursions, one
    per residue class of t mod h.  Zero-padded to a multiple of h and read
    as (..., ceil(T/h), h), each column is one residue class, so a single
    filter call along axis -2 runs all of them.
    """
    T = drive.shape[-1]
    rows = -(-T // h)
    padded = np.zeros(drive.shape[:-1] + (rows * h,))
    padded[..., :T] = drive
    y = _ar1_path(padded.reshape(drive.shape[:-1] + (rows, h)), beta1, axis=-2)
    return y.reshape(padded.shape)[..., :T]


def outcome(spec, w: np.ndarray, predictor: np.ndarray) -> np.ndarray:
    """y of either design, burn-in dropped, from its disturbance path and predictor path.

    y_t = alpha + beta1 y_{t-h} + beta2 p_{t-h} + w_t, where p is x for a
    Dgp1Spec (which has no intercept) or the factor f for a Dgp2Spec.
    ``w`` is the spec's MA(h-1) disturbance, ``ma_path(innov, spec.theta,
    spec.h)`` of the draws ``innov``.  ``w`` and ``predictor`` hold one
    replication per row of (..., burn_in + T) arrays: the eps and x_path
    of ``dgp1_draws``, or the w_innov and f_path of ``dgp2_draws``.
    Neither is written.  Every step acts on one row at a time, so a row is
    the same bits whatever rows share the call.  The draws depend on the
    stream fields alone, so one replication's draws give the y of every
    spec that shares them.  This is the one place y is built: the simulate
    functions and the replication engine both call it.
    """
    drive = w + spec.alpha if isinstance(spec, Dgp2Spec) else w.copy()
    drive[..., spec.h:] += spec.beta2 * predictor[..., :-spec.h]  # p_{t-h} enters once it exists
    return _h_step_ar(drive, spec.beta1, spec.h)[..., spec.burn_in:]


def dgp1_draws(spec: Dgp1Spec, streams) -> tuple:
    """(eps, x_path) of the predictive-regression design, row b from ``streams[b]``.

    eps are the y shocks and x_path the predictor path, both (len(streams),
    burn_in + T) from t = 0, burn-in included.  Each stream fills its own
    row of the normal draws, and every later step acts on one row at a
    time, so a row is the same bits whatever streams share the call.  With
    ``ma_path`` and ``outcome`` they give the y of any spec that shares
    this one's DGP1_STREAM_FIELDS.
    """
    total = spec.burn_in + spec.T
    normals = np.empty((len(streams), total, 2))
    for row, stream in zip(normals, streams):
        stream.generator().standard_normal(out=row)
    shocks = normals @ np.linalg.cholesky(spec.sigma).T
    eps = np.ascontiguousarray(shocks[..., 0])  # a copy: the caller keeps eps, not the v half
    return eps, _ar1_path(shocks[..., 1], spec.rho)


def simulate_dgp1(spec: Dgp1Spec, rng: RngStream) -> dict:
    """Simulate the predictive-regression design; returns {"y", "x"}, paths of length T.

    The draws of the one stream ``rng`` (``dgp1_draws``), then y from them
    (``outcome``).
    """
    eps, x_path = dgp1_draws(spec, [rng])
    y = outcome(spec, ma_path(eps, spec.theta, spec.h), x_path)
    return {"y": y[0], "x": x_path[0, spec.burn_in:]}


_PANEL_BLOCK = 1 << 15  # panel entries (256 KB) whose common component is formed at once


def _assemble_panel(E: np.ndarray, f: np.ndarray, lam: np.ndarray, rho: float) -> None:
    """Turn the T x N innovations E into the panel f lam' + AR(rho) of E, in place.

    The idiosyncratic AR(rho) recursion runs down the rows, every column
    in one step: e_t += rho e_{t-1}, two ufunc calls per row where lfilter
    walks one strided column at a time.  The common component f_t lam' is
    then added one block of about _PANEL_BLOCK entries at a time, formed
    in a kept work array.  Each entry is rounded as in ``outer(f, lam) +
    _ar1_path(E, rho, axis=0)``, so the bits are the same.
    """
    T, N = E.shape
    step = np.empty(N)
    for prev, row in zip(E, E[1:]):
        row += np.multiply(prev, rho, step)
    rows = max(1, _PANEL_BLOCK // N)
    common = work_array("panel.common", (min(rows, T), N))
    for start in range(0, T, rows):
        block = E[start:start + rows]
        block += np.multiply.outer(f[start:start + rows], lam, out=common[:len(block)])


def dgp2_draws(spec: Dgp2Spec, rng: RngStream) -> tuple:
    """(X, f_path, w_innov) of the factor-augmented design from one stream.

    X is the T x N observed panel from which the factor proxy is to be
    extracted, f_path the latent factor path and w_innov the standard
    normals behind the disturbances w, both of length burn_in + T from
    t = 0, burn-in included.  With ``ma_path`` and ``outcome`` they give
    the y of any spec that shares this one's panel.
    The idiosyncratic AR(rho_i) columns need no burn-in: their first row is
    drawn from the stationary law N(0, 1/(1 - rho_i^2)), so every row has
    that law exactly; ``burn_in`` applies to y and f only.

    The draws come in a fixed order and count for every h (loadings,
    factor innovations, panel, disturbances).  The panel is assembled in
    its own draw buffer (see ``_assemble_panel``).
    """
    g = rng.generator()
    total = spec.burn_in + spec.T
    lam = spec.loading_std * g.standard_normal(spec.N)
    f = _ar1_path(g.standard_normal(total), spec.alpha1)
    X = g.standard_normal((spec.T, spec.N))
    X[0] /= np.sqrt(1.0 - spec.rho_i * spec.rho_i)
    _assemble_panel(X, f[spec.burn_in:], lam, spec.rho_i)
    return X, f, g.standard_normal(total)


def simulate_dgp2(spec: Dgp2Spec, rng: RngStream) -> dict:
    """Simulate the factor-augmented design; returns {"y", "X", "f_true"}.

    The draws of ``rng`` (``dgp2_draws``), then y from them (``outcome``).
    "X" is the T x N observed panel, "f_true" the latent factor path after
    the burn-in (for diagnostics only).
    """
    X, f, w_innov = dgp2_draws(spec, rng)
    y = outcome(spec, ma_path(w_innov, spec.theta, spec.h), f)
    return {"y": y, "X": X, "f_true": f[spec.burn_in:]}


def _power_top_eigenvector(A: np.ndarray):
    """Certified top eigenvector of a symmetric PSD matrix, or None.

    Power iteration from the column of A with the largest diagonal, stopped
    once the residual r = Av - theta v of the Rayleigh quotient theta is at
    most POWER_RTOL * theta.  The result is accepted only if the top
    eigenvalue is provably simple: v is an exact eigenvector of A - (rv' + vr'),
    a perturbation of 2-norm |r| whose other eigenvalues have squared sum
    |A|_F^2 - theta^2 - 2|r|^2, so by Weyl's inequality
    lambda_2 <= sqrt(|A|_F^2 - theta^2 - 2|r|^2) + |r| and
    theta - |r| <= lambda_1 <= theta + |r|.  Acceptance therefore implies
    lambda_1 - lambda_2 > EIGENGAP_RTOL * lambda_1, the condition the exact
    path checks.  None means "not converged or not certified".
    """
    v = A[:, np.argmax(np.diagonal(A))]
    size = np.linalg.norm(v)
    if not size > 0.0:
        return None
    v = v / size
    for _ in range(POWER_MAX_ITER):
        w = A @ v
        theta = v @ w
        r = np.linalg.norm(w - theta * v)
        if r <= POWER_RTOL * theta:
            break
        v = w / np.linalg.norm(w)
    else:
        return None
    frob2 = np.vdot(A, A)
    lam2_up = np.sqrt(max(0.0, frob2 - theta * theta - 2.0 * r * r)) + r
    if theta - lam2_up - r > EIGENGAP_RTOL * (theta + r):
        return v
    return None


def _exact_top_eigenvector(A: np.ndarray) -> np.ndarray:
    """Top eigenvector by a dense solver; raises DegenerateSpectrum if not simple."""
    from scipy.linalg import eigh

    n = A.shape[0]
    vals, vecs = eigh(A, subset_by_index=[n - 2, n - 1])
    top = vals[-1]
    if top <= 0.0 or (top - vals[0]) <= EIGENGAP_RTOL * top:
        raise DegenerateSpectrum("top eigenvalue not simple to working precision")
    return vecs[:, -1]


def estimate_factor(X) -> np.ndarray:
    """Leading principal component of a T x N panel, one factor assumed.

    Columns are demeaned internally; the estimate is sqrt(T) times the top
    eigenvector of the outer-product matrix X X' / (T N), so the factor has
    unit sample variance.  Its sign makes it correlate non-negatively with
    the panel's first demeaned column, or with the first column whose
    product with the factor exceeds EIGENGAP_RTOL times the largest when
    earlier columns (e.g. constant ones) carry only rounding noise.

    The eigenvector of the smaller of the two Gram matrices comes from a
    power iteration that stops at a relative eigen-residual of POWER_RTOL.
    It is kept only when a residual bound certifies that the top eigenvalue
    is simple (see _power_top_eigenvector).  Otherwise, e.g. for a
    pure-noise panel or a tied spectrum, the dense eigensolver
    (scipy.linalg.eigh) computes the top pair exactly and makes the
    degeneracy decision.

    Raises DegenerateSpectrum when the top eigenvalue is not simple to
    working precision (the direction is then not identified).

    The panel is demeaned in place.  A writeable float64 X that is C- or
    F-contiguous is overwritten with its demeaned columns, whether the call
    returns or raises, so a caller that needs the panel afterwards passes a
    copy.  Any other input (another dtype, a strided, reversed or read-only
    view) is copied first, laid out as X - X.mean(axis=0) would be, and is
    left as it was; BLAS rounds the products of the two layouts
    differently, so every layout gives the bits of that expression.  The
    Gram matrix lives in a work buffer kept between calls (see
    ``_work.work_array``): allocated afresh at N = T = 500 it faults in
    about 500 pages.  The result never refers to it or to X.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
        raise ValueError("X must be a T x N panel with T >= 2 and N >= 2")
    T, N = X.shape
    mean = X.mean(axis=0)  # the mean of X - X.mean(axis=0), taken before any copy
    if not (X.flags.writeable and (X.flags.c_contiguous or X.flags.f_contiguous)):
        X = X.copy(order="F" if abs(X.strides[0]) < abs(X.strides[1]) else "C")
    Xd = np.subtract(X, mean, out=X)
    # Use the smaller of the two Gram matrices; the non-zero spectra
    # coincide and the eigenvectors map through Xd.
    k = min(T, N)
    gram = work_array("factor.gram", (k, k))
    A = np.matmul(Xd.T, Xd, out=gram) if N < T else np.matmul(Xd, Xd.T, out=gram)
    A /= T * N
    v = _power_top_eigenvector(A)
    if v is None:
        v = _exact_top_eigenvector(A)
    if N < T:
        f = Xd @ v
        f /= np.linalg.norm(f)
    else:
        f = v
    f = f * np.sqrt(T)
    # Sign anchor: the first demeaned column whose product with f is not
    # negligible; a constant column's product is rounding noise.
    p = f @ Xd
    anchor = p[np.argmax(np.abs(p) > EIGENGAP_RTOL * np.max(np.abs(p)))]
    if anchor < 0.0:
        f = -f
    return f

