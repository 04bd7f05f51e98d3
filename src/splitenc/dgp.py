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

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, InvalidSpec

# Innovation covariances used throughout the predictive-regression studies:
# uncorrelated shocks, and strongly negatively correlated shocks (corr -0.8).
SIGMA1 = np.array([[1.0, 0.0], [0.0, 0.25]])
SIGMA2 = np.array([[1.0, -0.4], [-0.4, 0.25]])

EIGENGAP_RTOL = 1e-12  # relative gap below which the top eigenvalue is not simple
POWER_RTOL = 1e-14  # relative eigen-residual at which the power iteration stops
POWER_MAX_ITER = 200


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable randomness: (base_seed, stream_id) -> generator.

    base_seed is the SeedSequence entropy: an int, or a tuple of ints when
    the stream is keyed by more than one value.
    """

    base_seed: int | tuple
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.base_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def _check_cov(name: str, cov: np.ndarray, dim: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim):
        raise InvalidSpec(f"{name} must be {dim}x{dim}")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=0.0):
        raise InvalidSpec(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise InvalidSpec(f"{name} must be positive definite") from None
    return cov


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
        if self.T < 50:
            raise InvalidSpec("T must be at least 50")
        if self.h < 1:
            raise InvalidSpec("h must be >= 1")
        if not abs(self.beta1) < 1.0:
            raise InvalidSpec("|beta1| must be < 1")
        if not abs(self.rho) < 1.0:
            raise InvalidSpec("|rho| must be < 1")
        if self.burn_in < 0:
            raise InvalidSpec("burn_in must be >= 0")
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
        if self.T < 50:
            raise InvalidSpec("T must be at least 50")
        if self.N < 10:
            raise InvalidSpec("N must be at least 10")
        if self.h < 1:
            raise InvalidSpec("h must be >= 1")
        if not abs(self.alpha1) < 1.0:
            raise InvalidSpec("|alpha1| must be < 1")
        if not abs(self.rho_i) < 1.0:
            raise InvalidSpec("|rho_i| must be < 1")
        if not abs(self.beta1) < 1.0:
            raise InvalidSpec("|beta1| must be < 1")
        if self.loading_std <= 0.0:
            raise InvalidSpec("loading_std must be positive")
        if self.burn_in < 0:
            raise InvalidSpec("burn_in must be >= 0")


# scipy.signal is imported where a path is filtered, not at module import:
# it is the slowest import of the package, and only the simulators use it.

def _ar1_path(innov: np.ndarray, coeff: float, axis: int = -1) -> np.ndarray:
    # x_t = coeff * x_{t-1} + innov_t with x_0 = 0, along the given axis
    from scipy.signal import lfilter

    return lfilter([1.0], [1.0, -coeff], innov, axis=axis)


def _ma_path(innov: np.ndarray, theta: float, h: int) -> np.ndarray:
    # w_t = sum_{j=0}^{h-1} theta^j innov_{t-j} along the last axis, missing pre-sample terms as 0
    from scipy.signal import lfilter

    return lfilter(theta ** np.arange(h), [1.0], innov)


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


def simulate_dgp1(spec: Dgp1Spec, rng) -> dict:
    """Simulate the predictive-regression design; returns {"y", "x"}.

    ``rng`` is one RngStream, giving paths of length T, or a sequence of
    them, giving (len(rng), T) arrays whose row b is the path of stream b.
    Each stream fills its own row of the normal draws, and every later step
    acts on one row at a time, so a row is the same bits whatever streams
    share the call.
    """
    single = isinstance(rng, RngStream)
    streams = [rng] if single else rng
    total = spec.burn_in + spec.T
    normals = np.empty((len(streams), total, 2))
    for row, stream in zip(normals, streams):
        stream.generator().standard_normal(out=row)
    shocks = normals @ np.linalg.cholesky(spec.sigma).T
    eps, v = shocks[..., 0], shocks[..., 1]
    x = _ar1_path(v, spec.rho)
    drive = _ma_path(eps, spec.theta, spec.h)
    drive[:, spec.h:] += spec.beta2 * x[:, :-spec.h]  # x_{t-h} enters once it exists
    y = _h_step_ar(drive, spec.beta1, spec.h)[:, spec.burn_in:]
    x = x[:, spec.burn_in:]
    return {"y": y[0], "x": x[0]} if single else {"y": y, "x": x}


def simulate_dgp2(spec: Dgp2Spec, rng: RngStream) -> dict:
    """Simulate the factor-augmented design; returns {"y", "X", "f_true"}.

    "X" is the T x N observed panel from which the factor proxy is to be
    extracted, "f_true" the latent factor path (for diagnostics only).
    The idiosyncratic AR(rho_i) columns need no burn-in: their first row is
    drawn from the stationary law N(0, 1/(1 - rho_i^2)), so every row has
    that law exactly; ``burn_in`` applies to y and f only.
    """
    g = rng.generator()
    total = spec.burn_in + spec.T
    lam = spec.loading_std * g.standard_normal(spec.N)
    f = _ar1_path(g.standard_normal(total), spec.alpha1)
    innov = g.standard_normal((spec.T, spec.N))
    innov[0] /= np.sqrt(1.0 - spec.rho_i * spec.rho_i)
    keep = slice(spec.burn_in, None)
    X = f[keep, None] * lam[None, :] + _ar1_path(innov, spec.rho_i, axis=0)
    w = _ma_path(g.standard_normal(total), spec.theta, spec.h)
    drive = w + spec.alpha
    drive[spec.h:] += spec.beta2 * f[:-spec.h]
    y = _h_step_ar(drive, spec.beta1, spec.h)
    return {"y": y[keep], "X": X, "f_true": f[keep]}


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
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
        raise ValueError("X must be a T x N panel with T >= 2 and N >= 2")
    T, N = X.shape
    Xd = X - X.mean(axis=0)
    # Use the smaller of the two Gram matrices; the non-zero spectra
    # coincide and the eigenvectors map through Xd.
    A = (Xd.T @ Xd) / (T * N) if N < T else (Xd @ Xd.T) / (T * N)
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

