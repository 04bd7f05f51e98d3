import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import splitenc.dgp as dgp_module
from _oracles import (
    estimate_factor_copying,
    h_step_ar_by_residue_class,
    ma_autocov_theory,
    simulate_dgp1_filters,
    simulate_dgp2_copying,
)
from splitenc.dgp import (
    SIGMA1,
    SIGMA2,
    Dgp1Spec,
    Dgp2Spec,
    RngStream,
    dgp1_draws,
    dgp2_draws,
    estimate_factor,
    ma_path,
    outcome,
    simulate_dgp1,
    simulate_dgp2,
)
from splitenc.errors import DegenerateSpectrum, InvalidSpec


def _autocorr(x, lag=1):
    return np.corrcoef(x[lag:], x[:-lag])[0, 1]


# stream-key ints: at and beside the 2^32 word boundaries, any up to 2^64, and
# 256-bit digests, some with zero high words
_KEY_INT = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]),
                     st.integers(0, 2**64), st.integers(0, 2**256 - 1),
                     st.integers(0, 2**256 - 1).map(lambda d: d >> 32 * (d % 8)))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).generator().standard_normal(10)
        b = RngStream(123, 5).generator().standard_normal(10)
        assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).generator().standard_normal(10)
        b = RngStream(123, 6).generator().standard_normal(10)
        c = RngStream(124, 5).generator().standard_normal(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.one_of(_KEY_INT, st.tuples(_KEY_INT, _KEY_INT), st.tuples(_KEY_INT),
                     st.tuples(_KEY_INT, _KEY_INT, _KEY_INT)),
           st.one_of(st.integers(0, 300), st.integers(2**32 - 2, 2**32 + 1)))
    @settings(max_examples=200, deadline=None)
    def test_same_state_as_the_key_itself(self, key, stream_id):
        # the cached entropy words give the SeedSequence of the raw key
        expected = np.random.PCG64(np.random.SeedSequence(entropy=key, spawn_key=(stream_id,)))
        for _ in range(2):  # words converted, then words from the cache
            assert RngStream(key, stream_id).generator().bit_generator.state == expected.state

    def test_words_are_read_only_and_bad_keys_raise_as_before(self):
        assert not dgp_module._entropy_words((7, 2**40)).flags.writeable
        with pytest.raises(ValueError, match="non-negative"):
            RngStream((1, -2)).generator()
        RngStream((1, 2)).generator()
        with pytest.raises(TypeError):
            RngStream((1, 2.0)).generator()  # equal to a cached key, but not ints
        with pytest.raises(TypeError):
            RngStream(1.5).generator()


class TestDgp1:
    def test_bit_identical_reproduction(self):
        spec = Dgp1Spec(T=300, h=4, rho=0.9, beta2=0.2)
        out1 = simulate_dgp1(spec, RngStream(1, 3))
        out2 = simulate_dgp1(spec, RngStream(1, 3))
        assert_array_equal(out1["y"], out2["y"])
        assert_array_equal(out1["x"], out2["x"])
        assert len(out1["y"]) == 300

    def test_outcome_autocorrelation_matches_design(self):
        # with no extra predictor the outcome is an AR(1) with coefficient 0.3
        spec = Dgp1Spec(T=10_000, h=1, beta2=0.0, rho=0.25)
        y = simulate_dgp1(spec, RngStream(2, 0))["y"]
        assert abs(_autocorr(y) - 0.3) < 0.05

    def test_negative_shock_correlation(self):
        # correlated-shock covariance implies corr(eps, v) = -0.8
        spec = Dgp1Spec(T=20_000, h=1, beta1=0.0, beta2=0.0, rho=0.25, sigma=SIGMA2)
        out = simulate_dgp1(spec, RngStream(3, 0))
        eps = out["y"][1:]  # with beta1 = beta2 = 0 and h = 1, y_t = eps_t
        v = out["x"][1:] - 0.25 * out["x"][:-1]
        assert abs(np.corrcoef(eps, v)[0, 1] + 0.8) < 0.05

    def test_white_noise_predictor_variance(self):
        spec = Dgp1Spec(T=20_000, h=1, rho=0.0)
        x = simulate_dgp1(spec, RngStream(4, 0))["x"]
        assert abs(np.var(x) - SIGMA1[1, 1]) < 0.025

    def test_ma_error_autocovariances(self):
        # with both slopes zero, y is the MA(h-1) disturbance itself
        h, theta = 4, 0.5
        spec = Dgp1Spec(T=100_000, h=h, beta1=0.0, beta2=0.0, theta=theta)
        y = simulate_dgp1(spec, RngStream(5, 0))["y"]
        y = y - y.mean()
        n = len(y)
        for lag in range(1, h):
            sample = float(y[lag:] @ y[:-lag]) / n
            theory = ma_autocov_theory(theta, h, lag, var_eps=SIGMA1[0, 0])
            assert abs(sample - theory) < 0.05 * ma_autocov_theory(theta, h, 0)
        at_h = float(y[h:] @ y[:-h]) / n
        assert abs(at_h) < 0.05 * ma_autocov_theory(theta, h, 0)

    def test_burn_in_sufficiency(self):
        # doubling the burn-in leaves the first kept observation's moments
        # unchanged up to Monte Carlo noise
        reps = 3000
        firsts = {burn: np.array([
            simulate_dgp1(Dgp1Spec(T=50, h=1, rho=0.9, burn_in=burn),
                          RngStream(60 + burn, r))["y"][0]
            for r in range(reps)
        ]) for burn in (200, 400)}
        pooled_se = np.sqrt(sum(v.var() / reps for v in firsts.values()))
        assert abs(firsts[200].mean() - firsts[400].mean()) < 4 * pooled_se

    def test_consecutive_streams_uncorrelated(self):
        spec = Dgp1Spec(T=500, h=1)
        paths = [simulate_dgp1(spec, RngStream(7, r))["y"] for r in range(4)]
        for a, b in zip(paths, paths[1:]):
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            Dgp1Spec(T=10, h=1)
        with pytest.raises(InvalidSpec):
            Dgp1Spec(T=100, h=1, rho=1.0)
        with pytest.raises(InvalidSpec):
            Dgp1Spec(T=100, h=1, beta1=1.5)
        with pytest.raises(InvalidSpec):
            Dgp1Spec(T=100, h=1, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSpecFiniteness:
    @pytest.mark.parametrize("spec_cls, field, value", [
        (Dgp1Spec, "beta2", math.nan),
        (Dgp1Spec, "beta2", math.inf),
        (Dgp1Spec, "theta", math.inf),
        (Dgp1Spec, "theta", -math.inf),
        (Dgp2Spec, "alpha", math.nan),
        (Dgp2Spec, "beta2", math.nan),
        (Dgp2Spec, "theta", math.inf),
        (Dgp2Spec, "loading_std", math.inf),
        (Dgp2Spec, "loading_std", math.nan),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_non_finite_value_names_its_field(self, spec_cls, field, value):
        # rejected by the spec, not by failing every replication
        size = {"T": 100, "N": 10} if spec_cls is Dgp2Spec else {"T": 100}
        with pytest.raises(InvalidSpec, match=f"^{field} must be finite$"):
            spec_cls(h=2, **size, **{field: value})

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("cell", [(0, 0), (0, 1)])
    def test_non_finite_sigma_entry_rejected(self, entry, cell):
        sigma = np.eye(2)
        sigma[cell] = entry
        with pytest.raises(InvalidSpec, match="^sigma entries must be finite$"):
            Dgp1Spec(T=100, h=1, sigma=sigma)


@pytest.mark.parametrize("spec_cls, own_bad", [
    (Dgp1Spec, {"rho": 1.0}),
    (Dgp2Spec, {"N": 5, "loading_std": 0.0}),
], ids=["Dgp1Spec", "Dgp2Spec"])
@pytest.mark.parametrize("field, value, message", [
    ("T", 49, "T must be at least 50"),
    ("h", 0, "h must be >= 1"),
    ("beta1", 1.0, "|beta1| must be < 1"),
    ("beta1", math.nan, "|beta1| must be < 1"),
    ("burn_in", -1, "burn_in must be >= 0"),
], ids=["T", "h", "beta1", "beta1-nan", "burn_in"])
def test_shared_spec_checks(spec_cls, own_bad, field, value, message):
    # one check of the fields both designs share, made before each design's own
    size = {"T": 100, "N": 10} if spec_cls is Dgp2Spec else {"T": 100}
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        spec_cls(**{**size, **own_bad, field: value})


@pytest.mark.parametrize("spec_cls, field, value, message", [
    (Dgp1Spec, "rho", -1.0, "|rho| must be < 1"),
    (Dgp1Spec, "sigma", np.eye(3), "sigma must be 2x2"),
    (Dgp1Spec, "sigma", np.array([[1.0, 0.5], [0.4, 1.0]]), "sigma must be symmetric"),
    (Dgp1Spec, "sigma", np.array([[1.0, 2.0], [2.0, 1.0]]), "sigma must be positive definite"),
    (Dgp2Spec, "N", 9, "N must be at least 10"),
    (Dgp2Spec, "alpha1", -1.0, "|alpha1| must be < 1"),
    (Dgp2Spec, "rho_i", 1.0, "|rho_i| must be < 1"),
    (Dgp2Spec, "rho_i", -1.5, "|rho_i| must be < 1"),
    (Dgp2Spec, "loading_std", 0.0, "loading_std must be positive"),
    (Dgp2Spec, "loading_std", -1.0, "loading_std must be positive"),
], ids=["rho", "sigma-shape", "sigma-symmetry", "sigma-definite", "N", "alpha1", "rho_i",
        "rho_i-negative", "loading_std", "loading_std-negative"])
def test_own_spec_checks(spec_cls, field, value, message):
    size = {"T": 100, "N": 10} if spec_cls is Dgp2Spec else {"T": 100}
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        spec_cls(**{**size, field: value})


@pytest.mark.parametrize("spec_cls, field, value", [
    (Dgp1Spec, "T", 100.5), (Dgp1Spec, "T", 100.0), (Dgp1Spec, "h", 1.5), (Dgp1Spec, "h", True),
    (Dgp1Spec, "burn_in", 10.5), (Dgp1Spec, "burn_in", False), (Dgp2Spec, "T", 100.5),
    (Dgp2Spec, "N", 20.5), (Dgp2Spec, "N", True),
])
def test_integer_fields_rejected_at_construction(spec_cls, field, value):
    # T, h, burn_in and N size arrays and slices: a float or a bool would pass the
    # range checks and fail later, inside a simulation, with a raw TypeError
    size = {"T": 100, "N": 10} if spec_cls is Dgp2Spec else {"T": 100}
    with pytest.raises(InvalidSpec, match=f"^{field} must be an integer$"):
        spec_cls(**{**size, field: value})


def test_numpy_integer_fields_accepted():
    spec = Dgp2Spec(T=np.int64(100), N=np.int32(10), h=np.int64(2), burn_in=np.int64(0))
    assert spec.T == 100 and spec.N == 10
    assert Dgp1Spec(T=np.int64(100), h=np.int64(3)).h == 3


_DGP1_DESIGN = st.tuples(st.integers(1, 12), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
                         st.floats(-1.0, 1.0))  # h, theta, beta1, beta2


class TestDgp1Outcome:
    @given(st.integers(0, 2**32 - 1), st.integers(50, 160), st.floats(-0.95, 0.95),
           st.sampled_from(["SIGMA1", "SIGMA2"]), st.integers(0, 60),
           st.lists(_DGP1_DESIGN, min_size=2, max_size=4), st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_outcome_of_any_spec_sharing_the_draws(self, seed, T, rho, sigma, burn_in,
                                                  designs, batch):
        # one batch of spec A's draws; every design, A included, builds its y from them,
        # row by row as simulate_dgp1 gives it stream by stream
        specs = [Dgp1Spec(T=T, rho=rho, sigma=getattr(dgp_module, sigma), burn_in=burn_in,
                          h=h, theta=theta, beta1=beta1, beta2=beta2)
                 for h, theta, beta1, beta2 in designs]
        streams = [RngStream(seed, r) for r in range(batch)]
        shared_eps, shared_x_path = dgp1_draws(specs[0], streams)
        eps, x_path = shared_eps.copy(), shared_x_path.copy()
        x = shared_x_path[:, burn_in:]
        for spec in specs:
            y = outcome(spec, ma_path(shared_eps, spec.theta, spec.h), shared_x_path)
            alone = [simulate_dgp1(spec, stream) for stream in streams]
            assert y.tobytes() == np.stack([a["y"] for a in alone]).tobytes()
            assert np.stack([a["x"] for a in alone]).tobytes() == x.tobytes()
            oracle = [simulate_dgp1_filters(spec, seed, r) for r in range(batch)]
            assert np.stack([o["y"] for o in oracle]).tobytes() == y.tobytes()
            assert np.stack([o["x"] for o in oracle]).tobytes() == x.tobytes()
            # the draws the designs share are never written
            assert shared_eps.tobytes() == eps.tobytes()
            assert shared_x_path.tobytes() == x_path.tobytes()


class TestHStepAr:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 30),
           st.floats(-0.99, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_residue_class_loop(self, seed, T, h, beta1):
        # includes T < h, where some residue classes are empty
        drive = np.random.default_rng(seed).standard_normal(T)
        y = dgp_module._h_step_ar(drive, beta1, h)
        assert y.shape == (T,)
        assert_array_equal(y.view(np.int64),
                           h_step_ar_by_residue_class(drive, beta1, h).view(np.int64))


class TestMaPath:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.floats(-2.0, 2.0),
           st.sampled_from([(), (1,), (3,), (2, 2)]), st.integers(1, 120), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_lfilter(self, seed, h, theta, batch, T, strided):
        # includes T < h and strided column views
        from scipy.signal import lfilter

        draws = np.random.default_rng(seed).standard_normal(batch + (T, 2))
        innov = draws[..., 0] if strided else np.ascontiguousarray(draws[..., 0])
        w = ma_path(innov, theta, h)
        expected = lfilter(theta ** np.arange(h), [1.0], innov)
        assert w.shape == expected.shape == innov.shape
        assert_array_equal(w.view(np.int64), expected.view(np.int64))
        assert not np.shares_memory(w, innov)  # callers add to it in place


class TestDgp2:
    def test_reproducible(self):
        spec = Dgp2Spec(T=100, N=20, h=2, beta2=0.3)
        a = simulate_dgp2(spec, RngStream(8, 1))
        b = simulate_dgp2(spec, RngStream(8, 1))
        for key in ("y", "X", "f_true"):
            assert_array_equal(a[key], b[key])
        assert a["X"].shape == (100, 20)

    def test_outcome_independent_of_factor_under_null(self):
        spec = Dgp2Spec(T=10_000, N=10, h=2, beta2=0.0)
        out = simulate_dgp2(spec, RngStream(9, 0))
        corr = np.corrcoef(out["y"][2:], out["f_true"][:-2])[0, 1]
        assert abs(corr) < 0.05

    def test_factor_drives_outcome_under_alternative(self):
        spec = Dgp2Spec(T=10_000, N=10, h=1, beta2=0.8)
        out = simulate_dgp2(spec, RngStream(10, 0))
        assert np.corrcoef(out["y"][1:], out["f_true"][:-1])[0, 1] > 0.3

    @pytest.mark.parametrize("rho_i, burn_in", [(0.5, 200), (0.5, 0), (0.9, 0)])
    def test_idiosyncratic_panel_starts_stationary(self, rho_i, burn_in):
        # loadings this small leave X's first row as the idiosyncratic draws
        spec = Dgp2Spec(T=50, N=500, rho_i=rho_i, loading_std=1e-9, burn_in=burn_in)
        first = np.concatenate([simulate_dgp2(spec, RngStream(12, r))["X"][0]
                                for r in range(40)])
        target = 1.0 / (1.0 - rho_i**2)
        # sample variance of 20000 normal draws: standard error target * sqrt(2 / n)
        assert abs(np.var(first) - target) < 4.0 * target * np.sqrt(2.0 / first.size)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            Dgp2Spec(T=100, N=5)
        with pytest.raises(InvalidSpec):
            Dgp2Spec(T=100, N=10, alpha1=1.0)


def _exact_only(X):
    """estimate_factor with the power iteration switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dgp_module, "_power_top_eigenvector", lambda A: None)
        return estimate_factor(X)


def _count_exact_calls(monkeypatch):
    """Record the matrix shape of every call to the dense eigensolver path."""
    calls = []
    exact = dgp_module._exact_top_eigenvector

    def spy(A):
        calls.append(A.shape)
        return exact(A)

    monkeypatch.setattr(dgp_module, "_exact_top_eigenvector", spy)
    return calls


class TestEstimateFactor:
    def test_exact_rank_one_recovery(self, rng, monkeypatch):
        f = rng.standard_normal(60)
        lam = rng.standard_normal(15)
        calls = _count_exact_calls(monkeypatch)
        f_hat = estimate_factor(np.outer(f, lam))
        assert calls == []  # certified on the power-iteration path
        corr = np.corrcoef(f_hat, f)[0, 1]
        assert abs(abs(corr) - 1.0) < 1e-10

    def test_unit_variance_normalization(self, rng, monkeypatch):
        X = rng.standard_normal((200, 200))
        calls = _count_exact_calls(monkeypatch)
        f_hat = estimate_factor(X)
        assert calls == [(200, 200)]  # pure noise: no certified eigengap
        assert_allclose(np.mean(f_hat**2), 1.0, rtol=1e-12)

    def test_sign_convention(self, rng):
        X = rng.standard_normal((80, 12))
        f_hat = estimate_factor(X.copy())
        assert f_hat @ X[:, 0] >= 0.0

    def test_column_shifts_do_not_matter(self, rng):
        X = rng.standard_normal((50, 8))
        shifted = X + rng.standard_normal(8)[None, :] * 10
        # demeaning happens internally; only the sign anchor sees raw data
        a = estimate_factor(X)
        b = estimate_factor(shifted)
        assert_allclose(np.abs(a), np.abs(b), rtol=1e-8)

    def test_recovers_simulated_factor(self):
        # cross-section large enough for tight factor recovery
        corrs = []
        for r in range(10):
            out = simulate_dgp2(Dgp2Spec(T=250, N=100, h=1), RngStream(11, r))
            f_hat = estimate_factor(out["X"])
            corrs.append(abs(np.corrcoef(f_hat, out["f_true"])[0, 1]))
        assert np.mean(corrs) > 0.90

    def test_degenerate_spectrum(self, monkeypatch):
        # two orthogonal mean-zero rank-one pieces of identical strength: the
        # leading eigenvalue is not simple, so the direction is unidentified
        f1 = np.array([1.0, -1.0, 1.0, -1.0])
        f2 = np.array([1.0, 1.0, -1.0, -1.0])
        a = np.array([1.0, 0.0, 1.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, -1.0])
        X = np.outer(f1, a) + np.outer(f2, b)
        calls = _count_exact_calls(monkeypatch)
        with pytest.raises(DegenerateSpectrum):
            estimate_factor(X)
        assert calls == [(4, 4)]

    def test_constant_panel_is_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            estimate_factor(np.ones((20, 5)))

    @given(st.integers(0, 2**32 - 1), st.integers(20, 90), st.integers(10, 90),
           st.floats(0.05, 0.5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_power_iteration_matches_exact_path(self, seed, T, N, noise, constant_first):
        # one-factor panels; covers N < T (N x N Gram) and N >= T (T x T Gram)
        g = np.random.default_rng(seed)
        f = g.standard_normal(T)
        lam = 1.0 + g.random(N)  # loadings bounded away from zero
        X = np.outer(f, lam) + noise * g.standard_normal((T, N))
        if constant_first:
            # the first column's product with the factor is rounding noise,
            # so both paths must take the sign from the next column
            X[:, 0] = 3.0
        with pytest.MonkeyPatch.context() as m:
            calls = _count_exact_calls(m)
            fast = estimate_factor(X.copy())
        assert calls == []
        assert_allclose(fast, _exact_only(X), rtol=0.0, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            estimate_factor(np.zeros((5, 1)))


def _factor_or_none(X):
    try:
        return estimate_factor(X)
    except DegenerateSpectrum:
        return None


class TestPanelKernel:
    """The in-place panel kernel against the whole-panel copying oracle, bit for bit."""

    @pytest.mark.parametrize("rho_sign", [-1.0, 0.0, 1.0])
    @given(st.integers(0, 2**32 - 1), st.integers(50, 80), st.sampled_from([-1, 0, 1]),
           st.integers(1, 30), st.floats(0.01, 0.95), st.floats(-0.9, 0.9),
           st.floats(0.05, 3.0), st.integers(1, 12), st.integers(0, 60), st.integers(1, 3000))
    @settings(max_examples=25, deadline=None)
    def test_matches_copying_oracle(self, rho_sign, seed, T, order, gap, rho, alpha1,
                                    loading_std, h, burn_in, block):
        # N < T, N = T and N > T; panel blocks from one row to the whole panel
        N = T + order * gap
        spec = Dgp2Spec(T=T, N=N, h=h, beta2=0.4, alpha=0.2, rho_i=rho_sign * rho,
                        alpha1=alpha1, loading_std=loading_std, burn_in=burn_in)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dgp_module, "_PANEL_BLOCK", block)
            sim = simulate_dgp2(spec, RngStream((seed, 7), 3))
        expected = simulate_dgp2_copying(spec, (seed, 7), 3)
        for key in ("y", "X", "f_true"):
            assert sim[key].tobytes() == expected[key].tobytes(), key
        panel = sim["X"].copy()
        factor, oracle = _factor_or_none(sim["X"]), estimate_factor_copying(expected["X"])
        assert (factor is None) == (oracle is None)
        if factor is not None:
            assert factor.tobytes() == oracle.tobytes()
        # the contiguous panel is demeaned in place, returned or raised
        assert sim["X"].tobytes() == (panel - panel.mean(axis=0)).tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 80),
           st.one_of(st.just(0.0), st.floats(-0.99, 0.99)), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_row_pass_matches_outer_plus_lfilter(self, seed, T, N, rho, block_share):
        # one row per block up to the whole panel in one block
        from scipy.signal import lfilter

        g = np.random.default_rng(seed)
        E, f, lam = g.standard_normal((T, N)), g.standard_normal(T), g.standard_normal(N)
        expected = np.multiply.outer(f, lam) + lfilter([1.0], [1.0, -rho], E, axis=0)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dgp_module, "_PANEL_BLOCK", 1 + round(block_share * (T * N - 1)))
            dgp_module._assemble_panel(E, f, lam, rho)
        assert E.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("N, T", [(100, 250), (500, 500)])
    @pytest.mark.parametrize("stream", [0, 1, 2])
    def test_shipped_shapes_match_copying_oracle(self, N, T, stream):
        # the shapes the tables run, where BLAS takes other paths than at T <= 80
        spec = Dgp2Spec(T=T, N=N, h=2, beta2=0.4)
        sim = simulate_dgp2(spec, RngStream((11, 7), stream))
        expected = simulate_dgp2_copying(spec, (11, 7), stream)
        for key in ("y", "X", "f_true"):
            assert sim[key].tobytes() == expected[key].tobytes(), key
        assert estimate_factor(sim["X"]).tobytes() == estimate_factor_copying(expected["X"]).tobytes()

    @pytest.mark.parametrize("N, T", [(20, 60), (60, 60), (70, 55)])
    def test_eigh_fallback_matches_oracle(self, N, T, monkeypatch):
        # loadings this small leave a pure-noise panel: no certified eigengap
        spec = Dgp2Spec(T=T, N=N, loading_std=1e-6, rho_i=0.0)
        X = simulate_dgp2(spec, RngStream(3, 1))["X"]
        calls = _count_exact_calls(monkeypatch)
        assert estimate_factor(X.copy()).tobytes() == estimate_factor_copying(X).tobytes()
        assert calls == [(min(N, T), min(N, T))]

    @pytest.mark.parametrize("layout, in_place", [
        (np.ascontiguousarray, True),
        (np.asfortranarray, True),
        (lambda P: P[::2, ::3], False),
        (lambda P: P[::-1], False),
        (lambda P: np.asfortranarray(P)[:, 1::2], False),
    ], ids=["C", "F", "strided", "reversed-rows", "F-strided"])
    @given(st.integers(0, 2**32 - 1), st.integers(20, 90), st.integers(20, 90))
    @settings(max_examples=15, deadline=None)
    def test_any_memory_layout_matches_oracle(self, layout, in_place, seed, T, N):
        # the demeaned panel follows X's layout, which BLAS rounds differently
        g = np.random.default_rng(seed)
        P = np.outer(g.standard_normal(T), 1.0 + g.random(N)) + 0.3 * g.standard_normal((T, N))
        X, original = layout(P.copy()), layout(P)
        assert (X.flags.c_contiguous or X.flags.f_contiguous) == in_place
        assert estimate_factor(X).tobytes() == estimate_factor_copying(original).tobytes()
        # a contiguous panel is demeaned in place; any other input is left as it was
        expected = original - original.mean(axis=0) if in_place else original
        assert X.tobytes() == expected.tobytes()

    def test_read_only_and_other_dtype_panels_are_left_as_they_were(self):
        X = simulate_dgp2(Dgp2Spec(T=60, N=40), RngStream(4, 2))["X"]
        expected = estimate_factor_copying(X).tobytes()
        frozen = X.copy()
        frozen.flags.writeable = False
        single = X.astype(np.float32)
        kept = single.copy()
        assert estimate_factor(frozen).tobytes() == expected
        assert frozen.tobytes() == X.tobytes()
        assert estimate_factor(single).tobytes() == estimate_factor_copying(single).tobytes()
        assert single.tobytes() == kept.tobytes()

    def test_degenerate_panel_matches_oracle(self):
        f1 = np.array([1.0, -1.0, 1.0, -1.0])
        f2 = np.array([1.0, 1.0, -1.0, -1.0])
        X = np.outer(f1, [1.0, 0.0, 1.0, 0.0]) + np.outer(f2, [0.0, 1.0, 0.0, -1.0])
        assert estimate_factor_copying(X) is None
        with pytest.raises(DegenerateSpectrum):
            estimate_factor(X)

    def test_results_do_not_share_the_work_buffers(self):
        # the Gram matrix is kept between calls, and the panel is demeaned in place;
        # results must alias neither
        panels = [simulate_dgp2(Dgp2Spec(T=60, N=N), RngStream(4, N))["X"] for N in (40, 60, 80)]
        copies = [X.copy() for X in panels]
        first = [estimate_factor(X) for X in copies]
        assert not any(np.shares_memory(f, X) for f, X in zip(first, copies))
        kept = [f.copy() for f in first]
        again = [estimate_factor(X.copy()) for X in panels[::-1]][::-1]
        for f, k, a in zip(first, kept, again):
            assert f.tobytes() == k.tobytes() == a.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(-0.9, 0.9),
           st.floats(0.0, 0.8), st.floats(-1.0, 1.0), st.floats(-0.9, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_outcome_of_any_spec_sharing_the_panel(self, seed, h, beta1, beta2, alpha, theta):
        # every h draws the same numbers, so one replication's draws give every design's y
        base = Dgp2Spec(T=60, N=12, h=2, burn_in=30)
        other = Dgp2Spec(T=60, N=12, burn_in=30, h=h, beta1=beta1, beta2=beta2, alpha=alpha,
                         theta=theta)
        draws = [dgp2_draws(base, RngStream(seed, r)) for r in range(3)]
        alone = [simulate_dgp2(other, RngStream(seed, r)) for r in range(3)]
        rows = outcome(other, ma_path(np.stack([w_innov for *_, w_innov in draws]), theta, h),
                       np.stack([f_path for _, f_path, _ in draws]))
        for (X, _, _), single, row in zip(draws, alone, rows):
            assert single["X"].tobytes() == X.tobytes()
            assert single["y"].tobytes() == row.tobytes()
