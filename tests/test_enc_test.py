import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import norm

from _oracles import (
    bartlett_direct,
    dbar_direct,
    local_power_direct,
    split_terms_direct,
    statistic_direct,
)
from splitenc.enc_test import (
    ForecastErrorSet,
    HacConfig,
    LocalPowerInput,
    SplitSpec,
    _split_terms,
    bartlett_lrv,
    demeaned_split_terms,
    encompassing_test,
    local_power_stationary,
    split_statistic,
)
from splitenc.errors import (
    BandwidthOutOfRange,
    DegenerateVariance,
    InsufficientData,
    InvalidSplit,
    SingularBlock,
)

# Committed golden instance for the default (segment-centered) path; the
# frozen numbers come from the pure-loop direct-formula oracle.
GOLDEN_E1 = np.array([1.0, -2.0, 1.5, -0.5, 2.0, -1.0, 0.5, -1.5, 1.0, -2.0, 0.5, -1.0])
GOLDEN_E2 = np.array([0.5, -1.0, 1.0, -1.5, 1.0, -0.5, 1.5, -1.0, 0.5, -1.5, 1.0, -0.5])
GOLDEN_SEGMENT = {
    "dbar": 0.5989583333333334,
    "omega2": 0.42132059733072913,
    "statistic": 3.196545488539244,
    "p_value": 0.0006954194710131478,
}
GOLDEN_GLOBAL = {
    "dbar": 0.5989583333333334,
    "omega2": 0.48540355541087965,
    "statistic": 2.978075872885097,
}

# Literal-formula golden: piecewise-constant moment terms, hand-checkable.
ALT_E1 = np.array([1.0 if t % 2 == 0 else -1.0 for t in range(12)])
ALT_E2 = 0.5 * ALT_E1
ALT_GLOBAL_STATISTIC = 7.496340570653091
ALT_GLOBAL_OMEGA2 = 0.053385416666666664


def _random_pair(seed, n):
    g = np.random.default_rng(seed)
    return g.standard_normal(n), g.standard_normal(n)


def _diagnostics(e1, e2):
    """(mse1, mse2, classic_moment) of the test result, each checked bit for bit
    against its direct formula."""
    e1, e2 = np.asarray(e1, dtype=float), np.asarray(e2, dtype=float)
    res = encompassing_test(ForecastErrorSet(e1, e2), SplitSpec(0.40), HacConfig())
    assert res.mse1 == float(np.mean(e1 * e1))
    assert res.mse2 == float(np.mean(e2 * e2))
    assert res.classic_moment == float((np.sum(e1 * e1) - np.sum(e1 * e2)) / e1.shape[0])
    return res.mse1, res.mse2, res.classic_moment


class TestSampleMse:
    """The result's mse1 and mse2: the mean squared error of each error vector."""

    def test_trivial_values(self):
        assert _diagnostics(np.tile([3.0, 4.0], 6), np.zeros(12))[:2] == (12.5, 0.0)
        assert _diagnostics(np.tile([3.0, 4.0], 6), np.tile([1.0, -1.0], 6))[1] == 1.0


class TestClassicMoment:
    """The result's classic_moment: (1/n) sum e1^2 - (1/n) sum e1 e2, reported raw."""

    def test_identical_forecasts_zero(self):
        e = np.linspace(-2, 2, 10)
        assert _diagnostics(e, e)[2] == 0.0

    def test_unit_gap(self):
        # sum e1 e2 = 0, so the moment is the mean of e1^2 = 1
        assert _diagnostics(np.ones(10), np.tile([1.0, -1.0], 5))[2] == 1.0

    def test_distributive_identity_exact_on_integers(self):
        # integer-valued errors make both float evaluations exact
        g = np.random.default_rng(5)
        e1 = g.integers(-5, 6, size=20).astype(float)
        e2 = g.integers(-5, 6, size=20).astype(float)
        assert _diagnostics(e1, e2)[2] == np.mean(e1 * (e1 - e2))

    def test_distributive_identity_floats(self):
        e1, e2 = _random_pair(6, 20)
        assert_allclose(_diagnostics(e1, e2)[2], np.mean(e1 * (e1 - e2)),
                        rtol=1e-13, atol=1e-15)


class TestSplitSpec:
    @given(st.floats(0.481, 0.519))
    def test_exclusion_band_rejected_for_every_n(self, mu0):
        with pytest.raises(InvalidSplit):
            SplitSpec(mu0)

    @pytest.mark.parametrize("mu0", [0.05, 0.09, 0.91, 0.99, -0.3, 1.2])
    def test_hard_bounds(self, mu0):
        with pytest.raises(InvalidSplit):
            SplitSpec(mu0)

    def test_m0_floor(self):
        assert SplitSpec(0.40).m0(12) == 4
        assert SplitSpec(0.45).m0(100) == 45

    def test_m0_equal_half_rejected(self):
        # floor(10 * 0.52) = 5 = n/2 even though mu0 is outside the band
        with pytest.raises(InvalidSplit):
            SplitSpec(0.52).m0(10)

    def test_m0_range(self):
        with pytest.raises(InvalidSplit):
            SplitSpec(0.10).m0(10)  # m0 = 1 < 2


class TestHacConfig:
    def test_auto_bandwidth(self):
        assert HacConfig().resolve(750) == 9
        assert HacConfig(c=2.0).resolve(750) == 18
        assert HacConfig().resolve(10) == 2
        assert HacConfig(c=0.1).resolve(30) == 1  # floor at 1

    def test_fixed_bandwidth(self):
        assert HacConfig(bandwidth=4).resolve(100) == 4

    def test_out_of_range(self):
        with pytest.raises(BandwidthOutOfRange):
            HacConfig(bandwidth=12).resolve(12)
        with pytest.raises(BandwidthOutOfRange):
            HacConfig(bandwidth=0)
        with pytest.raises(BandwidthOutOfRange):
            HacConfig(c=-1.0)
        # resolve would overflow on inf and fail on nan, and take True as c = 1
        for c in (math.inf, math.nan, True):
            with pytest.raises(BandwidthOutOfRange, match="finite and positive"):
                HacConfig(c=c)
        # int() would overflow on inf, fail on nan, and truncate 2.5 and True to 2 and 1
        for bandwidth in (math.inf, math.nan, 2.5, True):
            with pytest.raises(BandwidthOutOfRange, match="must be a whole number"):
                HacConfig(bandwidth=bandwidth)
        assert HacConfig(bandwidth=2.0).resolve(100) == 2


class TestSplitMomentTerms:
    def test_documented_n4_instance(self):
        # tiny instance small enough to check by hand against both forms
        e1 = np.array([1.0, 1.0, 1.0, 1.0])
        e2 = np.array([1.0, 0.0, 0.0, 0.0])
        d = _split_terms(e1, e2, [1])[0]
        assert_array_equal(d, [-1.0, 1.0, 1.0, 1.0])
        assert_array_equal(d, split_terms_direct(e1, e2, 1))
        assert np.mean(d) == dbar_direct(e1, e2, 1) == 0.5

    def test_constant_errors_balance_to_zero(self):
        # dyadic weights (n=12, m0=4) make the cancellation exact
        d = _split_terms(np.full(12, 1.0), np.full(12, 1.0), [SplitSpec(0.40).m0(12)])[0]
        assert np.mean(d) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(10, 120),
           st.sampled_from([0.15, 0.25, 0.40, 0.45, 0.60, 0.75]))
    @settings(max_examples=60, deadline=None)
    def test_mean_equals_direct_split_average(self, seed, n, mu0):
        e1, e2 = _random_pair(seed, n)
        split = SplitSpec(mu0)
        try:
            m0 = split.m0(n)
        except InvalidSplit:
            return
        d = _split_terms(e1, e2, [m0])[0]
        assert_allclose(d, split_terms_direct(e1, e2, m0), rtol=0, atol=1e-12)
        assert_allclose(np.mean(d), dbar_direct(e1, e2, m0), rtol=0, atol=1e-12)


class TestBartlettLrv:
    def test_bandwidth_one_is_plain_variance_term(self, rng):
        q = rng.standard_normal(30)
        q -= q.mean()
        assert_allclose(bartlett_lrv(q, 1), float(q @ q) / 30, rtol=1e-14)

    def test_zeros(self):
        assert bartlett_lrv(np.zeros(20), 3) == 0.0

    def test_matches_brute_force_oracle(self, rng):
        q = rng.standard_normal(30)
        q -= q.mean()
        assert_allclose(bartlett_lrv(q, 3), bartlett_direct(q, 3), rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(5, 200), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_brute_force_equivalence_property(self, seed, n, M):
        if M >= n:
            return
        q = np.random.default_rng(seed).standard_normal(n)
        q -= q.mean()
        assert_allclose(bartlett_lrv(q, M), bartlett_direct(q, M), rtol=0, atol=1e-12)

    def test_bandwidth_range(self, rng):
        q = rng.standard_normal(10)
        with pytest.raises(BandwidthOutOfRange):
            bartlett_lrv(q, 0)
        with pytest.raises(BandwidthOutOfRange):
            bartlett_lrv(q, 10)


class TestEncompassingTest:
    def test_golden_instance_segment(self):
        fes = ForecastErrorSet(GOLDEN_E1, GOLDEN_E2)
        res = encompassing_test(fes, SplitSpec(0.40), HacConfig(bandwidth=2))
        assert res.centering == "segment"
        assert res.n == 12 and res.m0 == 4 and res.M == 2
        assert abs(res.statistic - GOLDEN_SEGMENT["statistic"]) < 1e-10
        assert abs(res.dbar - GOLDEN_SEGMENT["dbar"]) < 1e-12
        assert abs(res.omega2 - GOLDEN_SEGMENT["omega2"]) < 1e-12
        assert abs(res.p_value - GOLDEN_SEGMENT["p_value"]) < 1e-10

    def test_golden_instance_global(self):
        fes = ForecastErrorSet(GOLDEN_E1, GOLDEN_E2)
        res = encompassing_test(fes, SplitSpec(0.40), HacConfig(bandwidth=2),
                                centering="global")
        assert abs(res.statistic - GOLDEN_GLOBAL["statistic"]) < 1e-10
        assert abs(res.omega2 - GOLDEN_GLOBAL["omega2"]) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(12, 150),
           st.sampled_from([0.2, 0.3, 0.4, 0.45, 0.6]),
           st.sampled_from(["segment", "global"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_formula_oracle(self, seed, n, mu0, centering):
        e1, e2 = _random_pair(seed, n)
        split = SplitSpec(mu0)
        try:
            m0 = split.m0(n)
        except InvalidSplit:
            return
        M = max(1, n // 10)
        res = encompassing_test(ForecastErrorSet(e1, e2), split,
                                HacConfig(bandwidth=M), centering=centering)
        oracle = statistic_direct(e1, e2, m0, M, centering)
        assert_allclose(res.statistic, oracle["statistic"], rtol=1e-10)
        assert_allclose(res.p_value, oracle["p_value"], rtol=0, atol=1e-10)

    def test_constant_errors_zero_statistic_under_global(self):
        # with the literal (globally-centered) normalizer the two-level term
        # sequence keeps a positive variance, so the balanced numerator gives
        # an exact zero statistic
        fes = ForecastErrorSet(np.full(12, 1.0), np.full(12, 1.0))
        res = encompassing_test(fes, SplitSpec(0.40), HacConfig(bandwidth=2),
                                centering="global")
        assert res.statistic == 0.0
        assert res.p_value == 0.5

    def test_constant_errors_degenerate_under_segment(self):
        # segment centering removes the only variation the constant case has,
        # so the default path reports the studentization as degenerate
        fes = ForecastErrorSet(np.full(12, 1.0), np.full(12, 1.0))
        with pytest.raises(DegenerateVariance):
            encompassing_test(fes, SplitSpec(0.40), HacConfig(bandwidth=2))

    @pytest.mark.parametrize("centering", ["segment", "global"])
    def test_all_zero_errors_degenerate(self, centering):
        fes = ForecastErrorSet(np.zeros(12), np.zeros(12))
        with pytest.raises(DegenerateVariance):
            encompassing_test(fes, SplitSpec(0.40), HacConfig(bandwidth=2),
                              centering=centering)

    # |lam| is kept to ordinary magnitudes: below ~1e-4 the rescaled omega2
    # (which shrinks like lam^4) correctly trips the degeneracy floor
    @given(st.floats(1e-2, 1e3), st.booleans(),
           st.sampled_from(["segment", "global"]))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, mag, negate, centering):
        lam = -mag if negate else mag
        e1, e2 = _random_pair(99, 40)
        split, hac = SplitSpec(0.45), HacConfig()
        base = encompassing_test(ForecastErrorSet(e1, e2), split, hac, centering)
        scaled = encompassing_test(ForecastErrorSet(lam * e1, lam * e2), split, hac,
                                   centering)
        assert_allclose(scaled.statistic, base.statistic, rtol=0, atol=1e-10)
        assert_allclose(scaled.p_value, base.p_value, rtol=0, atol=1e-10)

    def test_one_sided_p_value_decreasing(self):
        stats = np.linspace(-8, 8, 41)
        ps = norm.sf(stats)
        assert np.all(np.diff(ps) < 0)
        # and the result object's p matches its own statistic
        e1, e2 = _random_pair(3, 30)
        res = encompassing_test(ForecastErrorSet(e1, e2), SplitSpec(0.40), HacConfig())
        assert res.p_value == norm.sf(res.statistic)

    def test_result_identity_fields(self):
        e1, e2 = _random_pair(4, 25)
        res = encompassing_test(ForecastErrorSet(e1, e2), SplitSpec(0.40), HacConfig())
        assert_allclose(res.statistic,
                        math.sqrt(res.n) * res.dbar / math.sqrt(res.omega2), rtol=1e-12)
        assert res.mse1 == np.mean(e1 * e1)
        assert res.mse2 == np.mean(e2 * e2)
        assert 0.0 <= res.p_value <= 1.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(12, 150),
           st.sampled_from([0.2, 0.3, 0.4, 0.45, 0.6]),
           st.sampled_from(["segment", "global"]))
    @settings(max_examples=60, deadline=None)
    def test_batched_statistic_matches_direct_formula_oracle(self, seed, rows, n, mu0,
                                                             centering):
        g = np.random.default_rng(seed)
        e1 = g.standard_normal((rows, n))
        e2 = e1 + 0.5 * g.standard_normal((rows, n))
        try:
            m0 = SplitSpec(mu0).m0(n)
        except InvalidSplit:
            return
        M = max(1, n // 10)
        statistic, dbar, omega2 = (r[0] for r in split_statistic(e1, e2, [m0], M, centering))
        assert statistic.shape == dbar.shape == omega2.shape == (rows,)
        for b in range(rows):
            oracle = statistic_direct(e1[b], e2[b], m0, M, centering)
            assert_allclose(statistic[b], oracle["statistic"], rtol=1e-12, atol=1e-12)
            assert_allclose(dbar[b], oracle["dbar"], rtol=1e-12, atol=1e-12)
            assert_allclose(omega2[b], oracle["omega2"], rtol=1e-12, atol=1e-12)

    def test_batched_statistic_masks_degenerate_rows_only(self):
        e1, e2 = np.stack([GOLDEN_E1, np.zeros(12), GOLDEN_E1, np.ones(12)]), \
            np.stack([GOLDEN_E2, np.zeros(12), GOLDEN_E2, np.ones(12)])
        statistic = split_statistic(e1, e2, [4], 2)[0][0]
        assert np.isnan(statistic[[1, 3]]).all()
        res = encompassing_test(ForecastErrorSet(GOLDEN_E1, GOLDEN_E2), SplitSpec(0.40),
                                HacConfig(bandwidth=2))
        assert statistic[0] == statistic[2] == res.statistic

    def test_demeaned_split_terms_unknown_centering(self):
        with pytest.raises(ValueError):
            demeaned_split_terms(np.zeros((1, 10)), [4], centering="other")

    @pytest.mark.parametrize("centering", ["segment", "global"])
    def test_demeaned_split_terms_centre_in_place(self, centering):
        e1, e2 = _random_pair(7, 30)
        d = _split_terms(e1, e2, [9, 20])
        terms = d.copy()
        assert demeaned_split_terms(d, [9, 20], centering) is d
        for row, centred, m in zip(terms, d, [9, 20]):
            parts = [row[:m], row[m:]] if centering == "segment" else [row]
            assert_allclose(centred, np.concatenate([p - np.mean(p) for p in parts]),
                            rtol=0, atol=1e-14)


def _statistic_bytes(result):
    return [np.asarray(r).tobytes() for r in result]


class TestStatisticOverSplits:
    """split_statistic over a sequence of m0: row c is the call with m0[c] alone."""

    @given(st.integers(0, 2**32 - 1), st.integers(12, 300), st.integers(0, 40),
           st.lists(st.floats(0.1, 0.9), min_size=1, max_size=4), st.booleans(),
           st.sampled_from(["segment", "global"]))
    @settings(max_examples=80, deadline=None)
    def test_each_row_is_its_scalar_call(self, seed, n, rows, fractions, repeat, centering):
        g = np.random.default_rng(seed)
        e1 = g.standard_normal((rows, n))
        e2 = e1 + 0.5 * g.standard_normal((rows, n))
        m0s = [min(max(2, int(n * f)), n - 2) for f in fractions]
        m0s += m0s[:1] if repeat else []  # a coinciding m0
        M = int(g.integers(1, min(n, 12)))
        together = split_statistic(e1, e2, m0s, M, centering)
        assert all(r.shape == (len(m0s), rows) for r in together)
        for c, m0 in enumerate(m0s):
            alone = split_statistic(e1, e2, [m0], M, centering)
            assert _statistic_bytes(r[c] for r in together) == _statistic_bytes(r[0] for r in alone)
        if rows:
            b = int(g.integers(rows))
            single = split_statistic(e1[b], e2[b], m0s, M, centering)
            assert _statistic_bytes(single) == _statistic_bytes(r[:, b] for r in together)

    def test_leading_axes_kept(self):
        g = np.random.default_rng(9)
        e1, e2 = g.standard_normal((2, 2, 3, 40))
        statistic, dbar, omega2 = split_statistic(e1, e2, (10, 25), 3)
        assert statistic.shape == dbar.shape == omega2.shape == (2, 2, 3)
        assert statistic[1].tobytes() == split_statistic(e1, e2, [25], 3)[0][0].tobytes()

    def test_threads_give_the_same_bytes(self):
        # each thread keeps its own work arrays: more threads than cores, switching often
        g = np.random.default_rng(10)
        inputs = []
        for rows, n in ((40, 750), (250, 120), (3, 60)):
            e1 = g.standard_normal((rows, n))
            inputs.append((e1, e1 + 0.3 * g.standard_normal((rows, n)), [n // 3, n // 4, n // 3]))
        expected = [_statistic_bytes(split_statistic(*args, 4)) for args in inputs]
        got = [[] for _ in inputs]

        def run(i):
            for _ in range(5):
                got[i].append(_statistic_bytes(split_statistic(*inputs[i], 4)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [[bytes_] * 5 for bytes_ in expected]

    @pytest.mark.parametrize("degenerate", [0, 3, 6])
    def test_degenerate_variance_is_nan_in_its_own_entries(self, degenerate):
        g = np.random.default_rng(degenerate)
        e1, e2 = g.standard_normal((2, 7, 60))
        e1[degenerate] = e2[degenerate] = 0.0
        statistic, dbar, omega2 = split_statistic(e1, e2, [12, 24, 36, 24], 4)
        assert np.isnan(statistic[:, degenerate]).all()
        assert np.isfinite(np.delete(statistic, degenerate, axis=1)).all()
        assert (omega2[:, degenerate] == 0.0).all()

    def test_bad_bandwidth_and_centering_raise_with_no_rows(self):
        empty = np.zeros((0, 30))
        with pytest.raises(BandwidthOutOfRange):
            split_statistic(empty, empty, [10, 12], 30)
        with pytest.raises(ValueError, match="unknown centering"):
            split_statistic(empty, empty, [10], 3, centering="other")


def _scalar_input(c, mu0=0.45, level=0.10, phi2=1.0, pi0=0.25, b22=None):
    return LocalPowerInput(c=[c], b11=[[1.0]], b12=[[0.0]], b21=[[0.0]],
                           b22=b22 if b22 is not None else [[1.0]],
                           phi2=phi2, mu0=mu0, pi0=pi0, level=level)


class TestLocalPower:
    def test_null_direction_recovers_level_exactly(self):
        out = local_power_stationary(_scalar_input(0.0, level=0.10))
        assert out["drift"] == 0.0
        assert out["power"] == 0.10

    def test_scalar_golden_value(self):
        out = local_power_stationary(_scalar_input(1.0))
        assert abs(out["drift"] - 8.616843969807045) < 1e-6
        assert out["power"] > 0.999999

    def test_matches_direct_oracle(self, rng):
        A = rng.standard_normal((3, 3))
        b11 = A @ A.T + np.eye(3)
        b12 = rng.standard_normal((3, 2))
        b22 = np.eye(2) * 2.0 + 0.3
        c = rng.standard_normal(2)
        inp = LocalPowerInput(c=c, b11=b11, b12=b12, b21=b12.T, b22=b22,
                              phi2=1.7, mu0=0.40, pi0=0.25, level=0.10)
        ours = local_power_stationary(inp)
        oracle = local_power_direct(c, b11, b12, b12.T, b22, 1.7, 0.40, 0.25, 0.10)
        assert_allclose(ours["drift"], oracle["drift"], rtol=1e-10)
        assert_allclose(ours["power"], oracle["power"], rtol=0, atol=1e-9)

    def test_power_equals_normal_tail_exactly(self):
        for level in (0.01, 0.05, 0.10, 0.25):
            for scale in (0.05, 0.3, 1.0, -0.4):
                out = local_power_stationary(_scalar_input(scale, level=level))
                assert out["drift"] != 0.0
                assert out["power"] == norm.sf(norm.ppf(1.0 - level) - out["drift"])

    def test_collinear_extra_predictors_have_no_drift(self):
        # b22 equals b21 b11^{-1} b12: the extra block adds nothing
        inp = LocalPowerInput(c=[1.0], b11=[[2.0]], b12=[[1.0]], b21=[[1.0]],
                              b22=[[0.5]], phi2=1.0, mu0=0.45, pi0=0.25, level=0.10)
        out = local_power_stationary(inp)
        assert out["drift"] == 0.0
        assert out["power"] == 0.10

    def test_drift_linear_in_extra_block(self):
        base = local_power_stationary(_scalar_input(1.0))
        doubled = local_power_stationary(_scalar_input(1.0, b22=[[2.0]]))
        assert_allclose(doubled["drift"], 2.0 * base["drift"], rtol=1e-12)

    def test_drift_increasing_in_mu0(self):
        grid = [0.10, 0.20, 0.30, 0.40, 0.45, 0.48]
        drifts = [local_power_stationary(_scalar_input(1.0, mu0=m))["drift"]
                  for m in grid]
        assert np.all(np.diff(drifts) > 0)

    def test_singular_benchmark_block(self):
        inp = LocalPowerInput(c=[1.0], b11=[[0.0]], b12=[[0.0]], b21=[[0.0]],
                              b22=[[1.0]], phi2=1.0, mu0=0.45)
        with pytest.raises(SingularBlock):
            local_power_stationary(inp)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            _scalar_input(1.0, phi2=-1.0)
        for phi2 in (math.inf, math.nan):  # inf would give drift 0, nan a NaN power
            with pytest.raises(ValueError, match="phi2 must be finite and positive"):
                _scalar_input(1.0, phi2=phi2)
        with pytest.raises(InvalidSplit):
            _scalar_input(1.0, mu0=0.5)
        with pytest.raises(ValueError):
            LocalPowerInput(c=[1.0, 2.0], b11=[[1.0]], b12=[[0.0]], b21=[[0.0]],
                            b22=[[1.0]], phi2=1.0, mu0=0.45)

    @pytest.mark.parametrize("change, message", [
        ({"b11": [[1.0, 0.0]]}, "diagonal blocks must be square"),
        ({"b22": [[1.0], [0.0]]}, "diagonal blocks must be square"),
        ({"b12": [[0.0, 0.0]]}, "off-diagonal blocks have inconsistent shapes"),
        ({"b21": [[0.0], [0.0]]}, "off-diagonal blocks have inconsistent shapes"),
        ({"c": [1.0, 2.0]}, "c must have length 1"),
        ({"c": [float("nan")]}, "c must be finite"),
        ({"b11": [[float("inf")]]}, "b11 must be finite"),
        ({"b21": [[float("nan")]]}, "b21 must be finite"),
        ({"b22": [[-float("inf")]]}, "b22 must be finite"),
    ], ids=["b11", "b22", "b12", "b21", "c-length", "c-nan", "b11-inf", "b21-nan", "b22-inf"])
    def test_block_shapes_and_values_checked(self, change, message):
        blocks = {"c": [1.0], "b11": [[1.0]], "b12": [[0.0]], "b21": [[0.0]], "b22": [[1.0]],
                  **change}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LocalPowerInput(**blocks, phi2=1.0, mu0=0.45)

    @pytest.mark.parametrize("field, value", [("pi0", 0.0), ("pi0", 1.0), ("level", 1.5),
                                              ("level", float("nan"))])
    def test_fraction_outside_unit_interval_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must lie in \(0, 1\)"):
            _scalar_input(1.0, **{field: value})


class TestForecastErrorSet:
    def test_validation(self):
        with pytest.raises(InsufficientData):
            ForecastErrorSet(np.zeros(5), np.zeros(5))  # n < 10
        with pytest.raises(ValueError):
            ForecastErrorSet(np.zeros(10), np.zeros(11))
        with pytest.raises(ValueError):
            ForecastErrorSet(np.full(10, np.nan), np.zeros(10))
        fes = ForecastErrorSet(np.zeros(12), np.zeros(12), h=4, k0=30)
        assert fes.n == 12
        fes = ForecastErrorSet(np.zeros(12), np.zeros(12), h=np.int64(4), k0=np.int32(30))
        assert (fes.h, fes.k0) == (4, 30)

    @pytest.mark.parametrize("e1, e2, h, k0, error, message", [
        (np.zeros(9), np.zeros(9), 1, 1, InsufficientData, "need at least 10 forecast errors"),
        (np.zeros(10), np.zeros(11), 1, 1, ValueError, "e1 and e2 must be equal-length vectors"),
        (np.zeros((2, 10)), np.zeros((2, 10)), 1, 1, ValueError,
         "e1 and e2 must be equal-length vectors"),
        (np.zeros(10), np.r_[np.zeros(9), np.inf], 1, 1, ValueError,
         "forecast errors must be finite"),
        (np.zeros(10), np.zeros(10), 0, 1, ValueError, "h and k0 must be positive integers"),
        (np.zeros(10), np.zeros(10), 1, 0, ValueError, "h and k0 must be positive integers"),
        (np.zeros(10), np.zeros(10), 1.5, 1, ValueError, "h and k0 must be positive integers"),
        (np.zeros(10), np.zeros(10), 1, True, ValueError, "h and k0 must be positive integers"),
    ], ids=["short", "lengths", "matrix", "inf", "h", "k0", "h-fraction", "k0-bool"])
    def test_each_check_names_its_rule(self, e1, e2, h, k0, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ForecastErrorSet(e1, e2, h=h, k0=k0)
