"""Split-sample forecast encompassing test for nested models.

The null hypothesis is that the benchmark model's forecasts encompass the
larger model's: the cross moment E[e1 * (e1 - e2)] of the two forecast-error
sequences is zero.  Testing this with the plain sample moment degenerates
under nesting because both averages entering it share the same limit.  The
statistic implemented here instead estimates the e1*e2 mean with a weighted
two-segment average (segment sizes m0 and n - m0), which restores a
non-degenerate limiting variance and a standard normal null distribution
after studentizing with a Bartlett long-run variance.

The test is one-sided to the right: large positive values indicate that the
larger model adds predictive content.

A note on the variance normalizer.  The split-sample moment terms carry
*different deterministic means in the two segments* by construction (the
segment weights 1/(2 mu0) and 1/(2 (1 - mu0)) multiply a positive-mean
product sequence).  Demeaning them by the single full-sample mean therefore
leaves an O(1) two-level square wave in the sequence, and a kernel variance
estimator applied to it picks up that wave in every autocovariance: the
normalizer diverges from the true limiting variance, the studentized
statistic collapses toward zero under the null, and rejection rates fall far
below the nominal level (simulation puts them near 0.005 instead of 0.10).
Demeaning each segment by its own mean removes the wave and restores the
estimator's probability limit, which is what delivers the standard normal
null distribution.  ``encompassing_test`` therefore centers segment-wise by
default; the globally-centered textbook form is available via
``centering="global"`` for reference and for degenerate corner cases that
are only well-posed under it (piecewise-constant term sequences have zero
segment-demeaned variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, ndtri
from ._work import work_array
from .errors import (
    BandwidthOutOfRange,
    DegenerateVariance,
    InsufficientData,
    InvalidSplit,
    SingularBlock,
)

MU0_MIN = 0.10
MU0_MAX = 0.90
MU0_HALF_GAP = 0.02  # exclusion band around 1/2

# Relative floor below which the studentization is numerically meaningless.
OMEGA2_FLOOR = 1e-14
MIN_FORECAST_ERRORS = 10  # fewest forecast errors the test accepts


@dataclass(frozen=True)
class ForecastErrorSet:
    """Aligned h-step forecast-error pairs from the two nested models.

    Index i of both vectors refers to the same target date k0 + h + i (with
    1-based time and forecasts starting at origin k0), so n = T - h - k0 + 1
    when the errors come from a sample of length T.  h and k0 describe where
    the errors come from: they are checked to be positive integers (a
    bool is not one; a numpy integer is), but the statistic depends on e1
    and e2 alone.
    """

    e1: np.ndarray
    e2: np.ndarray
    h: int = 1
    k0: int = 1

    def __post_init__(self):
        e1 = np.asarray(self.e1, dtype=float)
        e2 = np.asarray(self.e2, dtype=float)
        if e1.ndim != 1 or e2.ndim != 1 or e1.shape != e2.shape:
            raise ValueError("e1 and e2 must be equal-length vectors")
        if e1.shape[0] < MIN_FORECAST_ERRORS:
            raise InsufficientData(f"need at least {MIN_FORECAST_ERRORS} forecast errors")
        if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))):
            raise ValueError("forecast errors must be finite")
        for value in (self.h, self.k0):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError("h and k0 must be positive integers")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    @property
    def n(self) -> int:
        return self.e1.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    """Sample-split fraction mu0 with the induced location m0 = floor(n * mu0).

    mu0 must stay inside [0.10, 0.90] and at least 0.02 away from 1/2; at
    exactly 1/2 the split average collapses to the ordinary sample mean and
    the statistic loses its non-degenerate variance.
    """

    mu0: float

    def __post_init__(self):
        mu0 = float(self.mu0)
        if not (MU0_MIN <= mu0 <= MU0_MAX):
            raise InvalidSplit(f"mu0={mu0} outside [{MU0_MIN}, {MU0_MAX}]")
        if abs(mu0 - 0.5) < MU0_HALF_GAP:
            raise InvalidSplit(f"mu0={mu0} within {MU0_HALF_GAP} of 1/2")
        object.__setattr__(self, "mu0", mu0)

    def m0(self, n: int) -> int:
        """Split location for a sample of n forecast errors."""
        m0 = int(math.floor(n * self.mu0))
        if not (2 <= m0 <= n - 2):
            raise InvalidSplit(f"m0={m0} outside [2, {n - 2}] at n={n}")
        if 2 * m0 == n:
            raise InvalidSplit(f"m0={m0} equals n/2 at n={n}")
        return m0


def distinct_mu0_list(values) -> tuple:
    """Validated split fractions, at least one, whose ``:g`` labels are pairwise distinct.

    Reports label a split fraction by its ``:g`` form (``p_mu0_0.4``,
    ``mu0=0.4``), so two values that share one would print two results
    under one label.
    """
    mu0s = tuple(SplitSpec(m).mu0 for m in values)
    if not mu0s:
        raise ValueError("mu0_list must not be empty")
    labels = [f"{m:g}" for m in mu0s]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            first = mu0s[labels.index(label)]
            raise InvalidSplit(f"mu0 values {first!r} and {mu0s[i]!r} share the label {label}")
    return mu0s


def unit_fraction(value, name: str = "") -> float:
    """A fraction strictly inside (0, 1): a level or a forecast start fraction pi0.

    The one check of the config keys ``level`` and ``pi0``, their options
    and the fields of those names; ``name`` starts the error message.
    """
    value = float(value)
    if not 0.0 < value < 1.0:
        message = f"must lie in (0, 1), got {value:g}"
        raise ValueError(f"{name} {message}" if name else message)
    return value


@dataclass(frozen=True)
class HacConfig:
    """Bartlett bandwidth policy: fixed M, or M = max(1, floor(c * n^(1/3))) with finite c > 0.

    A fixed M is a whole number of at least 1, given as an int or a whole
    float; neither M nor c may be a bool.
    """

    bandwidth: int | None = None
    c: float = 1.0

    def __post_init__(self):
        M = self.bandwidth
        if M is not None and (isinstance(M, bool) or not math.isfinite(M) or M != int(M)):
            raise BandwidthOutOfRange(f"fixed bandwidth must be a whole number, got {M}")
        if M is not None and M < 1:
            raise BandwidthOutOfRange(f"fixed bandwidth must be >= 1, got {M}")
        if isinstance(self.c, bool) or not (math.isfinite(self.c) and self.c > 0.0):
            raise BandwidthOutOfRange(f"bandwidth c must be finite and positive, got {self.c}")

    def resolve(self, n: int) -> int:
        if self.bandwidth is not None:
            M = int(self.bandwidth)
        else:
            M = max(1, int(math.floor(self.c * n ** (1.0 / 3.0))))
        _check_bandwidth(M, n)
        return M


def _check_bandwidth(M: int, n: int) -> None:
    if not (1 <= M < n):
        raise BandwidthOutOfRange(f"bandwidth M={M} outside [1, {n - 1}]")


@dataclass(frozen=True)
class EncompassingResult:
    """Everything the test produces for one forecast-error pair, in output column order."""

    statistic: float       # sqrt(n) * dbar / sqrt(omega2)
    p_value: float         # one-sided right tail, 1 - Phi(statistic)
    dbar: float            # mean of the split-sample moment terms
    omega2: float          # Bartlett long-run variance of the demeaned terms
    mse1: float
    mse2: float
    classic_moment: float  # plain-sample-mean moment, degenerate under nesting: reported raw
    n: int
    m0: int
    M: int
    mu0: float
    centering: str = "segment"


def _split_terms(e1: np.ndarray, e2: np.ndarray, m0s, out: np.ndarray | None = None) -> np.ndarray:
    """Per-observation split-sample moment terms along the last axis, one row per m0 (unvalidated core).

    Each term is e1^2 - w e1 e2 with w = 0.5 n / m0 before the split and
    0.5 n / (n - m0) after it.  The terms gain a leading axis with one row
    per entry of the sequence m0s, all from one e1*e1 and one e1*e2, which
    are formed in a work array kept between calls (see
    ``_work.work_array``).  The terms go to ``out`` when given, else to a
    new array.
    """
    n = e1.shape[-1]
    weights = np.empty((len(m0s),) + (1,) * (e1.ndim - 1) + (n,))
    for row, m in zip(weights, m0s):
        row[..., :m] = 0.5 * n / m
        row[..., m:] = 0.5 * n / (n - m)
    squares, products = work_array("stat.products", (2,) + e1.shape)
    np.multiply(e1, e1, out=squares)
    np.multiply(e1, e2, out=products)
    return np.subtract(squares, np.multiply(weights, products, out=out), out=out)


def bartlett_lrv(q, M: int):
    """Bartlett-kernel long-run variance of a demeaned sequence, along the last axis.

    Returns (1/n) sum q_t^2 + (2/n) sum_{l=1}^{M} (1 - l/M) * gamma(l) with
    gamma(l) = sum_{t=l+1}^{n} q_t q_{t-l}.  The kernel weights make the
    result non-negative; the weight at l = M is zero, so M = 1 reduces to
    the plain variance term.  Each row's lag products are one dot product
    (a stacked matmul), so a row's value does not depend on the rows beside
    it and a 1-D q gives the same bits as any row of a stack.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    _check_bandwidth(M, n)
    total = np.matmul(q[..., None, :], q[..., :, None])[..., 0, 0] / n
    for ell in range(1, M):
        gamma = np.matmul(q[..., None, ell:], q[..., :-ell, None])[..., 0, 0]
        total += (2.0 / n) * (1.0 - ell / M) * gamma
    return np.maximum(total, 0.0)


def demeaned_split_terms(d: np.ndarray, m0s, centering: str = "segment") -> np.ndarray:
    """Center the split-sample moment terms in place, along the last axis, before variance estimation.

    ``d`` has a leading axis of one row per entry of the sequence m0s, as
    ``_split_terms`` makes it, and is returned.  ``"segment"`` removes each
    segment's own mean, which is what keeps the Bartlett normalizer
    consistent (see the module docstring); ``"global"`` removes the single
    full-sample mean, the literal textbook form.
    """
    if centering == "global":
        return np.subtract(d, np.mean(d, axis=-1, keepdims=True), out=d)
    if centering != "segment":
        raise ValueError(f"unknown centering {centering!r} (use 'segment' or 'global')")
    n = d.shape[-1]
    for terms, m in zip(d, m0s):
        # add.reduce / count is np.mean's arithmetic without its Python overhead
        for part, count in ((np.s_[..., :m], m), (np.s_[..., m:], n - m)):
            np.subtract(terms[part], np.add.reduce(terms[part], axis=-1, keepdims=True) / count,
                        out=terms[part])
    return d


def split_statistic(e1, e2, m0s, M: int, centering: str = "segment") -> tuple:
    """(statistic, dbar, omega2) of every forecast-error pair along the last axis, one row per m0.

    The numerator is the mean of the split-sample moment terms; the
    normalizer is the Bartlett long-run variance of the same terms after
    centering (see ``demeaned_split_terms``).  Where omega2 falls below the
    relative floor OMEGA2_FLOOR * (1 + dbar^2), or is not a number, the
    studentization is numerically meaningless and the statistic is NaN.
    Every entry depends on its own pair only.

    ``m0s`` is a sequence of split locations.  The three results have a
    leading axis with one row per m0, and row c is bit for bit the result
    of a call with ``[m0s[c]]``.  e1*e1 and e1*e2 are formed once for every
    m0, and the terms of every m0 are centred in place in a work array kept
    between calls.  A caller that wants a block's terms to stay in cache
    passes the pairs a block at a time (as the Monte Carlo engine does).
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    n = e1.shape[-1]
    d = _split_terms(e1, e2, m0s, out=work_array("stat.terms", (len(m0s),) + e1.shape))
    dbar = np.add.reduce(d, axis=-1) / n
    omega2 = bartlett_lrv(demeaned_split_terms(d, m0s, centering), M)
    studentizable = omega2 > OMEGA2_FLOOR * (1.0 + dbar * dbar)
    statistic = np.divide(math.sqrt(n) * dbar, np.sqrt(omega2),
                          out=np.full_like(dbar, np.nan), where=studentizable)
    return statistic, dbar, omega2


def encompassing_test(
    fes: ForecastErrorSet,
    split: SplitSpec,
    hac: HacConfig,
    centering: str = "segment",
) -> EncompassingResult:
    """Run the split-sample encompassing test on one forecast-error pair.

    The one scalar form of ``split_statistic``: it passes the single split
    location as ``[m0]`` and takes row 0.  The terms are centred
    segment-wise by default.  The result also reports each model's mean
    squared error and the plain sample moment (1/n) sum e1^2 - (1/n) sum
    e1 e2, which is degenerate under nesting and so never studentized.

    Raises
    ------
    DegenerateVariance
        If the long-run variance falls below the relative floor, which makes
        the studentized statistic numerically meaningless (e.g. both error
        vectors identically zero).
    InvalidSplit, BandwidthOutOfRange
        Propagated from the split and bandwidth resolution.
    """
    e1, e2, n = fes.e1, fes.e2, fes.n
    m0 = split.m0(n)
    M = hac.resolve(n)
    statistic, dbar, omega2 = (float(v[0]) for v in split_statistic(e1, e2, [m0], M, centering))
    if math.isnan(statistic):
        raise DegenerateVariance(f"long-run variance {omega2:g} too small to studentize")
    p_value = min(max(ndtr(-statistic), 0.0), 1.0)
    return EncompassingResult(
        statistic=statistic,
        p_value=p_value,
        dbar=dbar,
        omega2=omega2,
        mse1=float(np.mean(e1 * e1)),
        mse2=float(np.mean(e2 * e2)),
        classic_moment=float((np.sum(e1 * e1) - np.sum(e1 * e2)) / n),
        n=n,
        m0=m0,
        M=M,
        mu0=split.mu0,
        centering=centering,
    )


@dataclass(frozen=True)
class LocalPowerInput:
    """Ingredients of the theoretical local power of the test.

    c is the direction of the local departure of the extra predictors'
    coefficients; the b11..b22 blocks partition the second-moment matrix of
    the stacked regressors (the intercept + benchmark block versus the extra
    predictors) and may hold either the stationary-case moments or their
    mildly-integrated analogues; ``local_power_stationary`` treats both alike.
    phi2 is the long-run variance of the demeaned squared disturbances.
    """

    c: np.ndarray
    b11: np.ndarray
    b12: np.ndarray
    b21: np.ndarray
    b22: np.ndarray
    phi2: float
    mu0: float
    pi0: float = 0.25
    level: float = 0.10

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        b11 = np.atleast_2d(np.asarray(self.b11, dtype=float))
        b12 = np.atleast_2d(np.asarray(self.b12, dtype=float))
        b21 = np.atleast_2d(np.asarray(self.b21, dtype=float))
        b22 = np.atleast_2d(np.asarray(self.b22, dtype=float))
        p1 = b11.shape[0]
        p2 = b22.shape[0]
        if b11.shape != (p1, p1) or b22.shape != (p2, p2):
            raise ValueError("diagonal blocks must be square")
        if b12.shape != (p1, p2) or b21.shape != (p2, p1):
            raise ValueError("off-diagonal blocks have inconsistent shapes")
        if c.shape != (p2,):
            raise ValueError(f"c must have length {p2}")
        if not (math.isfinite(self.phi2) and self.phi2 > 0.0):
            raise ValueError(f"phi2 must be finite and positive, got {self.phi2}")
        unit_fraction(self.pi0, "pi0")
        unit_fraction(self.level, "level")
        SplitSpec(self.mu0)  # validates the split bounds
        for name, val in (("c", c), ("b11", b11), ("b12", b12), ("b21", b21), ("b22", b22)):
            if not np.all(np.isfinite(val)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b11", b11)
        object.__setattr__(self, "b12", b12)
        object.__setattr__(self, "b21", b21)
        object.__setattr__(self, "b22", b22)


def local_power_stationary(inp: LocalPowerInput) -> dict:
    """Drift and asymptotic power of the test against local alternatives.

    The blocks of ``inp`` are the limits of the stacked regressors' sample
    second moments: the stationary limits, with local departures shrinking
    at rate T^(-1/4), or the normalized mildly-integrated limits, with the
    faster T^(-(1/4 + a/2)) shrinkage that is why persistence buys power.
    The algebra is the same for both.
    """
    try:
        solved = np.linalg.solve(inp.b11, inp.b12)
    except np.linalg.LinAlgError:
        raise SingularBlock("benchmark block of the moment matrix is singular") from None
    schur = inp.b22 - inp.b21 @ solved
    quad = float(inp.c @ schur @ inp.c)
    mu0 = inp.mu0
    drift = (
        math.sqrt(1.0 - inp.pi0)
        * math.sqrt(4.0 * mu0 * (1.0 - mu0) / ((1.0 - 2.0 * mu0) ** 2 * inp.phi2))
        * quad
    )
    if drift == 0.0:
        power = inp.level  # analytic simplification: the null case is size
    else:
        power = ndtr(-(ndtri(1.0 - inp.level) - drift))
    return {"drift": drift, "power": power}
