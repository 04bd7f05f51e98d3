import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal import lfilter

import splitenc.monte_carlo as mc
import splitenc.regression as regression
from _oracles import (
    bic_lag_search,
    expanding_refit_oracle,
    nested_pair_forecast_errors_copying,
    ols_normal_equations,
)
from splitenc.dgp import Dgp1Spec, RngStream
from splitenc.errors import InsufficientData, RankDeficient
from splitenc.regression import (
    DirectDesign,
    bic_select_lag,
    expanding_window_coefficients,
    expanding_window_forecast_errors,
    forecast_origins,
    nested_pair_forecast_errors,
)


class TestDirectDesign:
    def test_from_series_alignment(self, rng):
        y = rng.standard_normal(30)
        x = rng.standard_normal((30, 2))
        d = DirectDesign.from_series(y, x, h=3)
        assert d.first_origin == 4
        assert d.n_rows == 27
        # row i: target y at date 4 + i, regressors observed at date 1 + i
        assert_array_equal(d.targets, y[3:])
        assert_array_equal(d.regressors[:, 1:], x[:27])
        assert_array_equal(d.regressors[:, 0], np.ones(27))

    def test_intercept_enforced(self, rng):
        with pytest.raises(ValueError, match="intercept"):
            DirectDesign(regressors=rng.standard_normal((10, 2)),
                         targets=rng.standard_normal(10), h=1, first_origin=2)

    @pytest.mark.parametrize("change, message", [
        ({"targets": np.ones(9)}, "regressors must be (m, k) aligned with m targets"),
        ({"regressors": np.ones(10)}, "regressors must be (m, k) aligned with m targets"),
        ({"regressors": np.ones((0, 2)), "targets": np.ones(0)}, "design has no rows"),
        ({"targets": np.r_[np.ones(9), np.nan]}, "design entries must be finite"),
        ({"regressors": np.c_[np.ones(10), np.r_[np.ones(9), np.inf]]},
         "design entries must be finite"),
        ({"h": 0, "first_origin": 1}, "horizon must be >= 1"),
        ({"h": 2, "first_origin": 2}, "first usable target cannot predate h + 1"),
    ], ids=["targets", "regressors-1d", "no-rows", "targets-nan", "regressors-inf", "h",
            "first-origin"])
    def test_invalid_design_names_its_rule(self, change, message):
        fields = {"regressors": np.ones((10, 2)), "targets": np.ones(10), "h": 1,
                  "first_origin": 2, **change}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DirectDesign(**fields)

    @pytest.mark.parametrize("y, predictors, h, error, message", [
        (np.ones(10), None, 0, ValueError, "horizon must be >= 1"),
        (np.ones(3), None, 3, InsufficientData, "series of length 3 has no usable pairs at h=3"),
        (np.ones(10), np.ones((9, 2)), 1, ValueError,
         "predictors must share the target's time index"),
    ], ids=["h", "short", "predictors"])
    def test_from_series_rejects(self, y, predictors, h, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            DirectDesign.from_series(y, predictors, h=h)


class TestExpandingWindow:
    def test_constant_only_gives_running_mean(self, rng):
        y = rng.standard_normal(40)
        d = DirectDesign.from_series(y, None, h=1)
        coefs = expanding_window_coefficients(d, k0=5)
        # fit at origin t averages the targets observed up to t
        expected = [np.mean(y[1:t]) for t in range(5, 40)]
        assert_allclose(coefs[:, 0], expected, rtol=1e-12)

    def test_endpoint_equals_full_batch(self, rng):
        y = rng.standard_normal(60)
        x = rng.standard_normal((60, 2))
        d = DirectDesign.from_series(y, x, h=2)
        coefs = expanding_window_coefficients(d, k0=12)
        # the final origin T-h fits on every pair whose target is <= T-h,
        # which excludes the last h design rows (their targets come later)
        batch = np.linalg.lstsq(d.regressors[:-2], d.targets[:-2], rcond=None)[0]
        assert_allclose(coefs[-1], batch, rtol=1e-8, atol=1e-10)

    def test_endpoint_matches_normal_equations_oracle(self, rng):
        y = rng.standard_normal(50)
        d = DirectDesign.from_series(y, rng.standard_normal((50, 2)), h=1)
        coefs = expanding_window_coefficients(d, k0=10)
        # the final origin fits every row but the last
        oracle = ols_normal_equations(d.regressors[:-1], d.targets[:-1])
        assert_allclose(coefs[-1], oracle, rtol=1e-8)

    def test_duplicate_column_rank_deficient(self, rng):
        x = rng.standard_normal(20)
        d = DirectDesign.from_series(rng.standard_normal(20), np.column_stack([x, x]), h=1)
        with pytest.raises(RankDeficient):
            expanding_window_coefficients(d, k0=5)

    def test_matches_per_origin_refits_on_ar1(self):
        g = RngStream(7, 0).generator()
        e = g.standard_normal(500)
        y = np.empty(500)
        y[0] = e[0]
        for t in range(1, 500):
            y[t] = 0.3 * y[t - 1] + e[t]
        d = DirectDesign.from_series(y, y, h=1)
        coefs = expanding_window_coefficients(d, k0=125)
        oracle = expanding_refit_oracle(d.regressors, d.targets,
                                        k0_row=125 - d.first_origin,
                                        n_fits=coefs.shape[0])
        assert_allclose(coefs, oracle, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_designs_match_batch_refits(self, seed):
        g = np.random.default_rng(seed)
        T = int(g.integers(25, 70))
        k = int(g.integers(0, 4))
        h = int(g.integers(1, 4))
        y = g.standard_normal(T)
        x = g.standard_normal((T, k)) if k else None
        d = DirectDesign.from_series(y, x, h=h)
        k0 = k + 1 + h + int(g.integers(0, 5))
        if k0 > d.last_target - h:
            pytest.skip("degenerate draw")
        shift = int(g.integers(1, 6))
        # the same rows dated shift periods later: a first usable target past
        # h + 1, as the inflation study's designs have
        late = DirectDesign(regressors=d.regressors, targets=d.targets, h=h,
                            first_origin=d.first_origin + shift)
        for design, origin in ((d, k0), (late, k0 + shift)):
            coefs = expanding_window_coefficients(design, origin)
            oracle = expanding_refit_oracle(design.regressors, design.targets,
                                            k0_row=origin - design.first_origin,
                                            n_fits=coefs.shape[0])
            assert_allclose(coefs, oracle, rtol=1e-8, atol=1e-10)
            errors = expanding_window_forecast_errors(design, origin)
            expected = _oracle_errors(design, origin)
            assert errors.shape == expected.shape == (design.last_target - h - origin + 1,)
            assert_allclose(errors, expected, rtol=1e-8, atol=1e-10)

    def test_endpoint_invariant_to_row_permutation(self, rng):
        y = rng.standard_normal(50)
        x = rng.standard_normal((50, 1))
        d = DirectDesign.from_series(y, x, h=1)
        perm = rng.permutation(30)  # shuffle only rows seen before the endpoint
        Z = d.regressors.copy()
        t = d.targets.copy()
        Z[:30], t[:30] = Z[perm], t[perm]
        shuffled = DirectDesign(regressors=Z, targets=t, h=1, first_origin=2)
        a = expanding_window_coefficients(d, k0=10)
        b = expanding_window_coefficients(shuffled, k0=10)
        assert_allclose(a[-1], b[-1], rtol=1e-8)
        assert not np.allclose(a[0], b[0])  # the path itself is order-sensitive

    def test_forecast_errors_definition(self, rng):
        y = rng.standard_normal(40)
        x = rng.standard_normal(40)
        d = DirectDesign.from_series(y, x, h=1)
        k0 = 8
        errs = expanding_window_forecast_errors(d, k0)
        assert errs.shape == (40 - 1 - k0 + 1,)
        coefs = expanding_window_coefficients(d, k0)
        # first error: target at date k0+1 minus forecast from the fit at k0
        pred = coefs[0] @ np.array([1.0, x[k0 - 1]])
        assert_allclose(errs[0], y[k0] - pred, rtol=1e-12)

    def test_k0_too_small(self, rng):
        d = DirectDesign.from_series(rng.standard_normal(30), rng.standard_normal(30), h=1)
        with pytest.raises(InsufficientData):
            expanding_window_coefficients(d, k0=2)

    def test_rank_deficient_window_reports_origin(self, rng):
        y = rng.standard_normal(30)
        x = np.ones(30)  # collinear with the intercept
        d = DirectDesign.from_series(y, x, h=1)
        with pytest.raises(RankDeficient, match="t="):
            expanding_window_coefficients(d, k0=5)

    def test_singular_solve_past_cholesky_is_rank_deficient(self):
        # x = 3y makes two scaled columns equal: at these seeds cholesky's rounding passes
        # the window and the solve meets an exact zero pivot, which must not leak a LinAlgError
        for seed in (60, 74, 96):
            y = np.random.default_rng(seed).standard_normal(40)
            d = DirectDesign.from_series(y, np.column_stack([y, 3.0 * y]), h=1)
            with pytest.raises(RankDeficient, match="t=39"):
                expanding_window_coefficients(d, k0=39)


def _brute_origins(n_params, h, first_origin, last_target, k0):
    """Forecast origins of an expanding-window fit by counting dates, or None if it has none."""
    fitted = len(range(first_origin, k0 + 1))  # targets of the first fit
    origins = len(range(k0, last_target - h + 1))
    return origins if fitted >= n_params and origins >= 1 else None


@st.composite
def _origin_inputs(draw):
    """(n_params, h, first_origin, last_target, k0) with last_target and k0 near every edge."""
    n_params, h = draw(st.integers(1, 15)), draw(st.integers(1, 12))
    first_origin = draw(st.integers(h + 1, h + 20))
    lowest = first_origin + n_params - 1  # the least k0 whose first fit is identified
    # a last target that leaves no origin, exactly one, or more; at least one row
    last_target = max(first_origin, lowest + h + draw(st.integers(-3, 30)))
    edge = draw(st.sampled_from([0, first_origin, lowest, last_target - h]))
    k0 = max(0, edge + draw(st.integers(-2, 2)))
    return n_params, h, first_origin, last_target, k0


class TestForecastOrigins:
    """The one first-origin rule of an expanding-window fit, against counting dates."""

    @given(_origin_inputs())
    @settings(max_examples=300, deadline=None)
    def test_counts_the_origins_or_raises(self, inputs):
        expected = _brute_origins(*inputs)
        if expected is None:
            with pytest.raises(InsufficientData, match=rf"^k0={inputs[-1]} outside "):
                forecast_origins(*inputs)
        else:
            assert forecast_origins(*inputs) == expected

    @given(_origin_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_fit_admits_the_origins_the_rule_admits(self, inputs, seed):
        # the fit states no check of its own: k0 < n_params + h, once checked apart, is
        # implied by the rule because first_origin >= h + 1
        n_params, h, first_origin, last_target, k0 = inputs
        g = np.random.default_rng(seed)
        m = last_target - first_origin + 1
        Z = np.column_stack([np.ones(m), g.standard_normal((m, n_params - 1))])
        design = DirectDesign(Z, g.standard_normal(m), h=h, first_origin=first_origin)
        expected = _brute_origins(*inputs)
        try:
            errors = expanding_window_forecast_errors(design, k0)
        except InsufficientData:
            assert expected is None
        except RankDeficient:  # the origin rule passed; a window's rounding did not
            assert expected is not None
        else:
            assert expected == errors.shape[0]


def _generic_designs(y, x, h):
    """The two designs of the nested pair [1, y_{t-h}] vs [1, y_{t-h}, x_{t-h}]."""
    return (DirectDesign.from_series(y, y, h=h),
            DirectDesign.from_series(y, np.column_stack([y, x]), h=h))


def _generic_pair(y, x, h, k0):
    bench, large = _generic_designs(y, x, h)
    return (expanding_window_forecast_errors(bench, k0),
            expanding_window_forecast_errors(large, k0))


def _oracle_errors(design, k0):
    """Forecast errors from per-origin lstsq refits."""
    i0 = k0 - design.first_origin
    coefs = expanding_refit_oracle(design.regressors, design.targets, k0_row=i0,
                                   n_fits=design.n_rows - i0 - design.h)
    rows = design.regressors[i0 + design.h:]
    return design.targets[i0 + design.h:] - np.einsum("ij,ij->i", coefs, rows)


def _uncertified(pair):
    """Whether every error of a 1-D pair is NaN."""
    return all(np.isnan(e).all() for e in pair)


def _error_repr(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestNestedPairKernel:
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.995), st.integers(1, 24),
           st.integers(50, 600), st.sampled_from([0.0, 10.0, 1000.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_origin_refits(self, seed, rho, h, T, shift):
        k0 = max(3 + h, T // 4)
        assume(k0 <= T - h)
        z = lfilter([1.0], [1.0, -rho], np.random.default_rng(seed).standard_normal((T, 2)), axis=0)
        y, x = z[:, 0] + shift, z[:, 1] + shift
        pair = regression._closed_form_pair(y, x, h, k0)
        assert not np.isnan(pair[0]).any()  # certified on every draw
        floor = 1e-12 * (1.0 + np.max(np.abs(y)))
        for e, design in zip(pair, _generic_designs(y, x, h)):
            oracle = _oracle_errors(design, k0)
            generic = expanding_window_forecast_errors(design, k0)
            assert e.shape == oracle.shape
            generic_dev = np.max(np.abs(generic - oracle))
            assert np.max(np.abs(e - oracle)) <= 4.0 * generic_dev + floor

    @pytest.mark.parametrize("seed", range(3))
    def test_far_from_zero_series_stay_accurate(self, seed):
        # shifting by the first window's means keeps the centred sums exact
        # enough at a mean of 1e5, where the uncentred Gram loses ~5 digits
        z = lfilter([1.0], [1.0, -0.9], np.random.default_rng(seed).standard_normal((300, 2)), axis=0)
        y, x = z[:, 0] + 1e5, z[:, 1] + 1e5
        pair = regression._closed_form_pair(y, x, 4, 75)
        assert not np.isnan(pair[0]).any()
        for e, design in zip(pair, _generic_designs(y, x, 4)):
            oracle = _oracle_errors(design, 75)
            generic = expanding_window_forecast_errors(design, 75)
            assert np.max(np.abs(e - oracle)) <= 1e-3 * np.max(np.abs(generic - oracle))

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
    def test_near_collinear_inputs_use_the_generic_path(self, eps):
        # 1 - corr^2 is below PAIR_RTOL, but the generic path still solves
        g = np.random.default_rng(3)
        y = g.standard_normal(250)
        x = 3.0 * y + eps * g.standard_normal(250)
        assert _uncertified(regression._closed_form_pair(y, x, 1, 62))
        got = nested_pair_forecast_errors(y, x, 1, 62)
        for a, b in zip(got, _generic_pair(y, x, 1, 62)):
            assert a.tobytes() == b.tobytes()

    def test_batch_sends_only_the_uncertified_row_to_the_generic_path(self, monkeypatch):
        g = np.random.default_rng(5)
        y, x = g.standard_normal((4, 250)), g.standard_normal((4, 250))
        x[2] = 3.0 * y[2] + 1e-5 * g.standard_normal(250)  # near-collinear row
        singles = [nested_pair_forecast_errors(y[b], x[b], 1, 62) for b in range(4)]
        fitted = []
        real = regression.expanding_window_forecast_errors
        monkeypatch.setattr(regression, "expanding_window_forecast_errors",
                            lambda design, k0: fitted.append(design) or real(design, k0))
        e1, e2 = nested_pair_forecast_errors(y, x, 1, 62)
        # the benchmark's and the large model's fit of row 2, and no other
        assert [design.n_params for design in fitted] == [2, 3]
        assert all(design.targets.tobytes() == y[2, 1:].tobytes() for design in fitted)
        for b, (s1, s2) in enumerate(singles):
            assert e1[b].tobytes() == s1.tobytes() and e2[b].tobytes() == s2.tobytes()
        for a, b in zip((e1[2], e2[2]), _generic_pair(y[2], x[2], 1, 62)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("T,h", [(250, 1), (500, 4), (100, 12)])
    def test_uncertified_inputs_fail_as_the_generic_path(self, T, h):
        g = np.random.default_rng(T + h)
        y = np.cumsum(g.standard_normal(T)) * 0.1 + g.standard_normal(T)
        k0 = T // 4
        cases = [(y, np.full(T, c)) for c in (0.0, 0.1, 1e3)]
        cases += [(y, y.copy()), (y, 3.0 * y), (y, 2.0 * y + 1.0)]
        for bad in (np.nan, np.inf):
            for pos in (0, k0, T - h - 1):  # x[T - h:] enters neither path
                y_bad, x_bad = y.copy(), g.standard_normal(T)
                y_bad[pos] = bad
                cases.append((y_bad, x_bad))
                cases.append((y, np.where(np.arange(T) == pos, bad, x_bad)))
        singular = 0
        for yc, xc in cases:
            assert _uncertified(regression._closed_form_pair(yc, xc, h, k0))
            expected = _error_repr(lambda: _generic_pair(yc, xc, h, k0))
            if np.isfinite(yc).all() and np.isfinite(xc).all():
                assert expected[0] is RankDeficient
                assert re.fullmatch(r"(zero regressor column|cross-product matrix singular)"
                                    r" in window ending at t=\d+", expected[1])
                singular += 1
            else:
                assert expected == (ValueError, "design entries must be finite")
            # either way the row fails, and NaN says so
            assert _uncertified(nested_pair_forecast_errors(yc, xc, h, k0))
        # exactly the failed rows are NaN, beside a certified row
        ys = np.stack([y] + [yc for yc, _ in cases])
        xs = np.stack([g.standard_normal(T)] + [xc for _, xc in cases])
        e1, e2 = nested_pair_forecast_errors(ys, xs, h, k0)
        assert singular == 6
        assert np.isnan(e1[1:]).all() and np.isnan(e2[1:]).all()
        assert np.isfinite(e1[0]).all() and np.isfinite(e2[0]).all()
        for got, alone in zip((e1[0], e2[0]), nested_pair_forecast_errors(ys[0], xs[0], h, k0)):
            assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("h", [1, 4])
    def test_non_finite_x_past_every_fit_is_answered(self, monkeypatch, h):
        # x's last h entries enter neither fit, so faults there leave a row's errors alone,
        # whether the closed form certifies the row or the generic fits answer it
        T, k0 = 200, 50
        g = np.random.default_rng(h)
        y, x = g.standard_normal((2, 3, T))
        clean = nested_pair_forecast_errors(y, x, h, k0)
        x[0, T - h:], x[1, T - 1], x[2, T - h] = np.nan, np.inf, -np.inf
        for e, want in zip(nested_pair_forecast_errors(y, x, h, k0), clean):
            assert np.isfinite(e).all() and e.tobytes() == want.tobytes()
        monkeypatch.setattr(regression, "_closed_form_pair",
                            lambda y, x, h, k0: np.full((2,) + y.shape[:-1] + (T - h - k0 + 1,),
                                                        np.nan))
        e1, e2 = nested_pair_forecast_errors(y, x, h, k0)
        for b in range(3):
            for got, want in zip((e1[b], e2[b]), _generic_pair(y[b], x[b], h, k0)):
                assert got.tobytes() == want.tobytes()

    # at T=100, h=4 the large model needs 3 + h <= k0 <= T - h
    @pytest.mark.parametrize("k0,accepted", [(0, False), (6, False), (7, True), (96, True),
                                             (97, False), (200, False)])
    def test_origin_range_of_the_generic_path(self, k0, accepted):
        g = np.random.default_rng(k0)
        y, x = g.standard_normal(100), g.standard_normal(100)
        got = _error_repr(lambda: nested_pair_forecast_errors(y, x, 4, k0))
        expected = _error_repr(lambda: _generic_pair(y, x, 4, k0))
        assert (got is None) == accepted == (expected is None)
        if accepted:
            assert_allclose(np.concatenate(nested_pair_forecast_errors(y, x, 4, k0)),
                            np.concatenate(_generic_pair(y, x, 4, k0)), rtol=0, atol=1e-12)
        else:
            assert got[0] is expected[0] is InsufficientData
            # the engine resolves k0 first, so it never asks the kernel for this origin
            with pytest.raises(InsufficientData):
                mc._first_origin(Dgp1Spec(T=100, h=4), k0 / 100)


def _pair_bytes(pair):
    """Shapes and bytes of a kernel result, or None."""
    return None if pair is None else [(e.shape, e.tobytes()) for e in pair]


@st.composite
def _kernel_inputs(draw):
    """(y, x, h, k0) over 1-D, (B, T), (2, 3, T) and zero-row shapes, with faulty rows."""
    T, h = draw(st.integers(50, 1200)), draw(st.integers(1, 24))
    assume(3 + h <= T - h)
    # both ends of the kernel's k0 range and inside it, or just outside it
    inside = st.sampled_from([3 + h, T - h, (3 + T) // 2])
    k0 = draw(st.one_of(inside, inside, inside, st.sampled_from([2 + h, T - h + 1])))
    batch = draw(st.sampled_from([(), (1,), (4,), (7,), (2, 3), (0,), (0, 3)]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = draw(st.sampled_from([0.0, 0.5, 0.99]))
    z = lfilter([1.0], [1.0, -rho], g.standard_normal((2,) + batch + (T,)), axis=-1)
    y = z[0] * draw(st.sampled_from([1.0, 1e-3, 1e3])) + draw(st.sampled_from([0.0, 1e5]))
    x = z[1]
    rows = y.reshape(-1, T), x.reshape(-1, T)
    if rows[0].shape[0]:
        faults = []
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.integers(0, len(rows[0]) - 1))
            # anywhere, or near the end, where only the finiteness check sees it at k0 = T - h
            col = draw(st.one_of(st.integers(0, T - 1), st.integers(T - 2 * h - 1, T - 1)))
            fault = draw(st.sampled_from(["nan", "inf", "-inf", "constant x", "collinear x",
                                          "near-collinear x"]))
            if fault == "near-collinear x":
                # 1 - corr^2 near PAIR_RTOL, with x on another scale than y
                noise = draw(st.sampled_from([1e-2, 1e-4, 2e-4])) * g.standard_normal(T)
                faults.append((row, fault, (noise, draw(st.sampled_from([1e-3, 3.0])))))
            elif fault in ("nan", "inf", "-inf"):
                faults.append((row, fault, (draw(st.integers(0, 1)), col)))
            else:
                faults.append((row, fault, ()))
        # the structural faults first: each is built from its y row before a point fault
        # can make that row non-finite
        for row, fault, args in sorted(faults, key=lambda f: f[1] in ("nan", "inf", "-inf")):
            if fault == "constant x":
                rows[1][row] = 2.0
            elif fault == "collinear x":
                rows[1][row] = 3.0 * rows[0][row]
            elif fault == "near-collinear x":
                noise, scale = args
                rows[1][row] = scale * (rows[0][row] + noise * rows[0][row].std())
            else:
                which, col = args
                rows[which][row, col] = float(fault)
    return y, x, h, k0


class TestNestedPairOracle:
    """The closed form in kept work arrays against the kernel as first written, bit for bit,
    and each row of the public function against the path that answers it."""

    @given(_kernel_inputs())
    @settings(max_examples=120, deadline=None)
    def test_same_bytes_as_the_copying_kernel(self, inputs):
        expected = nested_pair_forecast_errors_copying(*inputs)
        if expected is None:  # a k0 outside [3 + h, T - h]: the public function raises
            with pytest.raises(InsufficientData):
                nested_pair_forecast_errors(*inputs)
        else:
            assert _pair_bytes(regression._closed_form_pair(*inputs)) == _pair_bytes(expected)

    @given(_kernel_inputs())
    @settings(max_examples=120, deadline=None)
    def test_each_row_is_the_closed_form_the_generic_fits_or_nan(self, inputs):
        y, x, h, k0 = inputs
        closed = nested_pair_forecast_errors_copying(*inputs)
        assume(closed is not None)
        e1, e2 = nested_pair_forecast_errors(*inputs)
        assert e1.shape == e2.shape == closed[0].shape
        failed = np.full(e1.shape[-1], np.nan)
        for row in np.ndindex(y.shape[:-1]):
            if not np.isnan(closed[0][row][0]):  # certified
                expected = closed[0][row], closed[1][row]
            elif np.isfinite(y[row]).all() and np.isfinite(x[row][:y.shape[-1] - h]).all():
                try:
                    expected = _generic_pair(y[row], x[row], h, k0)
                except RankDeficient:
                    expected = failed, failed
            else:  # an entry that a fit reads is not finite
                expected = failed, failed
            assert e1[row].tobytes() == expected[0].tobytes()
            assert e2[row].tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("h", [2, 5])
    def test_rows_at_the_certification_edges(self, h):
        # near-collinear x on two scales, and faults that only the finiteness check sees:
        # at k0 = T - h, y[T - h:T - 1] and x[T - 2h:T - h - 1] enter no sum and no error
        T, k0 = 300, 300 - h
        g = np.random.default_rng(h)
        y, x = g.standard_normal((2, 10, T))
        for row, (scale, eps) in enumerate([(1e-3, 1e-2), (1e-3, 2e-4), (1e-3, 1e-4),
                                            (3.0, 1e-2), (3.0, 2e-4), (3.0, 1e-5)]):
            x[row] = scale * (y[row] + eps * g.standard_normal(T))
        y[6, T - h], x[7, T - 2 * h], y[8, T - 2], x[9, T - h - 2] = np.nan, np.inf, -np.inf, np.nan
        pair = regression._closed_form_pair(y, x, h, k0)
        assert _pair_bytes(pair) == _pair_bytes(nested_pair_forecast_errors_copying(y, x, h, k0))
        uncertified = np.isnan(pair[0][:, 0])
        assert uncertified[6:].all() and not uncertified[[0, 3]].any() and uncertified[2]
        # every fault above sits in an entry that a fit reads; the declined rows are fitted
        failed = np.isnan(nested_pair_forecast_errors(y, x, h, k0)[0][:, 0])
        assert failed[6:].all() and not failed[:6].any()

    @pytest.mark.parametrize("shape", [(7, 300), (2, 3, 300), (300,)])
    def test_mismatched_shapes_raise(self, shape):
        y = np.zeros(shape)
        with pytest.raises(ValueError, match="one \\(\\.\\.\\., T\\) shape"):
            nested_pair_forecast_errors(y, y[..., :-1], 1, 80)
        assert nested_pair_forecast_errors_copying(y, y[..., :-1], 1, 80) is None

    def test_results_do_not_share_the_work_arrays(self):
        g = np.random.default_rng(11)
        first = nested_pair_forecast_errors(g.standard_normal((5, 400)),
                                            g.standard_normal((5, 400)), 2, 100)
        kept = [e.copy() for e in first]
        for T, B in ((400, 5), (900, 3), (120, 9)):  # other shapes, smaller and larger
            nested_pair_forecast_errors(g.standard_normal((B, T)), g.standard_normal((B, T)),
                                        3, T // 4)
        for e, k in zip(first, kept):
            assert e.tobytes() == k.tobytes()

    def test_threads_give_the_same_bytes(self):
        # each thread keeps its own work arrays: more threads than cores, switching often
        g = np.random.default_rng(12)
        inputs = [(g.standard_normal((B, T)), g.standard_normal((B, T)).cumsum(axis=-1), h, T // 4)
                  for B, T, h in ((6, 500, 4), (3, 900, 1), (9, 300, 12), (1, 700, 2))]
        expected = [_pair_bytes(nested_pair_forecast_errors_copying(*args)) for args in inputs]
        got = [[] for _ in inputs]

        def run(i):
            for _ in range(5):
                got[i].append(_pair_bytes(nested_pair_forecast_errors(*inputs[i])))

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


class TestBicSelectLag:
    def test_white_noise_prefers_zero(self):
        hits = 0
        for r in range(200):
            y = RngStream(31, r).generator().standard_normal(200)
            hits += bic_select_lag(y, h=1, p_max=8) == 0
        assert hits / 200 > 0.7

    def test_ar1_modal_lag_is_zero(self):
        # direct regression of y_t on y_{t-1}: one lag term suffices
        picks = []
        for r in range(500):
            g = RngStream(32, r).generator()
            e = g.standard_normal(1000)
            y = np.empty(1000)
            y[0] = e[0]
            for t in range(1, 1000):
                y[t] = 0.3 * y[t - 1] + e[t]
            picks.append(bic_select_lag(y, h=1, p_max=8))
        values, counts = np.unique(picks, return_counts=True)
        assert values[np.argmax(counts)] == 0
        assert counts.max() / 500 > 0.8

    def test_constant_plus_tiny_noise(self):
        g = RngStream(33, 0).generator()
        y = 5.0 + 1e-8 * g.standard_normal(100)
        assert bic_select_lag(y, h=1, p_max=4) == 0

    def test_needs_real_dynamics_to_pick_lags(self):
        # seasonal-style dependence at lag j=2 of the direct regression
        g = RngStream(34, 0).generator()
        e = g.standard_normal(2000)
        y = np.empty(2000)
        y[:3] = e[:3]
        for t in range(3, 2000):
            y[t] = 0.6 * y[t - 3] + e[t]
        assert bic_select_lag(y, h=1, p_max=4) == 2

    def test_lag_source_series(self, rng):
        # selecting lags of a different predictor series than the target
        x = rng.standard_normal(300)
        y = np.roll(x, 2) * 0.8 + 0.1 * rng.standard_normal(300)
        y[:2] = 0.0
        assert bic_select_lag(y, h=1, p_max=4, lag_source=x) == 1

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            bic_select_lag(np.zeros(15), h=1, p_max=8)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 8), p_max=st.integers(0, 10),
           extra=st.integers(0, 60), phi=st.floats(-0.9, 0.9), with_source=st.booleans())
    def test_matches_the_per_candidate_fits(self, seed, h, p_max, extra, phi, with_source):
        # the pick equals the loop's wherever no candidate interpolates and the loop's
        # best and runner-up BIC are told apart; where some do, the loop's BICs for
        # them are rounding noise and the pick is the smallest interpolating p
        T = p_max + h + 10 + extra
        e = RngStream(35, seed).generator().standard_normal((2, T))
        source = lfilter([1.0], [1.0, -0.5], e[1]) if with_source else None
        drive = e[0] if source is None else e[0] + np.r_[np.zeros(h), source[:-h]]
        y = lfilter([1.0], [1.0, -phi], drive)
        got = bic_select_lag(y, h=h, p_max=p_max, lag_source=source)
        pick, bics = bic_lag_search(y, h, p_max, source)
        n_eff = T - h - p_max
        if n_eff <= p_max + 2:
            assert got == n_eff - 2
            return
        best, runner_up = sorted(bics + [np.inf])[:2]
        if runner_up - best > 1e-9 * (1.0 + abs(best)):
            assert got == pick

    def test_smallest_interpolating_candidate_wins(self):
        # n_eff = 10 targets: candidates p = 8, 9, 10 carry 10 to 12 coefficients and fit
        # them exactly; one lstsq fit per candidate reads their BICs as -639, -651 and
        # -642, rounding noise, and picks 9
        y = RngStream(36, 0).generator().standard_normal(21)
        assert bic_select_lag(y, h=1, p_max=10) == 8

    @pytest.mark.parametrize("change, error, message", [
        ({"lag_source": np.zeros(39)}, ValueError, "lag_source must share y's length"),
        ({"p_max": -1}, ValueError, "need p_max >= 0 and h >= 1"),
        ({"h": 0}, ValueError, "need p_max >= 0 and h >= 1"),
        ({"y": np.zeros(20)}, InsufficientData, "need at least p_max + h + 10 = 21 observations"),
        ({"y": np.r_[np.zeros(39), np.nan]}, ValueError,
         "targets contain non-finite values on the comparison sample"),
        ({"lag_source": np.r_[np.inf, np.zeros(39)]}, ValueError,
         "lags contain non-finite values on the comparison sample"),
    ], ids=["lag-source", "p-max", "h", "short", "targets", "lags"])
    def test_invalid_input_names_its_rule(self, change, error, message):
        args = {"y": np.zeros(40), "h": 2, "p_max": 9, **change}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            bic_select_lag(**args)
