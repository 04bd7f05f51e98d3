"""The in-package normal tail and quantile against scipy.special, bit for bit."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from splitenc._normal import ndtr, ndtri

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "splitenc"
MAXLOG = 7.09782712893383996843e2  # Cephes' log(DBL_MAX), the erfc underflow cut


def _ulps_around(center: float, k: int = 2000) -> np.ndarray:
    """The 2k + 1 consecutive float64 values centred on center."""
    bits = np.float64(center).view(np.int64) + np.arange(-k, k + 1)
    return bits.view(np.float64)


def _assert_same_bits(port, reference, xs) -> None:
    xs = np.asarray(xs, dtype=np.float64).ravel()
    got = np.array([port(x) for x in xs.tolist()])
    want = reference(xs)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (f"{bad.size} of {xs.size} differ; first at x={xs[bad[0]]!r}: "
                           f"{got[bad[0]]!r} vs scipy {want[bad[0]]!r}")


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_ndtr_matches_scipy_on_finite_floats(x):
    _assert_same_bits(ndtr, special.ndtr, [x])


@settings(max_examples=2000, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_ndtri_matches_scipy_on_the_unit_interval(y):
    _assert_same_bits(ndtri, special.ndtri, [y])


@pytest.mark.parametrize("center", [
    1.0,                            # sqrt(1/2)|x| = sqrt(1/2): erf gives way to erfc
    math.sqrt(2.0),                 # erfc's own erf fallback ends
    8.0 * math.sqrt(2.0),           # erfc switches coefficient tables
    math.sqrt(2.0 * MAXLOG),        # exp(-x^2 / 2) underflows
    0.0, 3.0, 20.0,
])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ndtr_dense_grid_around_branch_points(center, sign):
    c = sign * center
    _assert_same_bits(ndtr, special.ndtr, np.concatenate([
        _ulps_around(c), np.linspace(c - 1e-3, c + 1e-3, 4001)]))


@pytest.mark.parametrize("center", [
    math.exp(-2.0), 1.0 - math.exp(-2.0),     # central rational vs the tails
    math.exp(-32.0), 1.0 - math.exp(-32.0),   # z = 8: the tail switches tables
    0.5, 2.2250738585072014e-308,             # the centre; the smallest normal
])
def test_ndtri_dense_grid_around_branch_points(center):
    _assert_same_bits(ndtri, special.ndtri, np.concatenate([
        _ulps_around(center), np.linspace(center * (1 - 1e-9), center * (1 + 1e-9), 4001)]))


def test_ndtri_on_subnormals_and_the_far_tails():
    subnormals = np.concatenate([np.arange(1, 4001, dtype=np.int64).view(np.float64),
                                 10.0 ** np.linspace(-323.5, -308, 4001)])
    near_one = 1.0 - np.arange(1, 4001) * 2.0 ** -53
    _assert_same_bits(ndtri, special.ndtri, np.concatenate([subnormals, near_one]))


def test_broad_sweep():
    rng = np.random.default_rng(20240817)
    _assert_same_bits(ndtr, special.ndtr, np.concatenate([
        3.0 * rng.standard_normal(20000), rng.uniform(-40.0, 40.0, 20000)]))
    _assert_same_bits(ndtri, special.ndtri, np.concatenate([
        rng.uniform(0.0, 1.0, 20000), 10.0 ** rng.uniform(-300.0, 0.0, 20000)]))


def test_special_values():
    _assert_same_bits(ndtr, special.ndtr, [0.0, -0.0, np.inf, -np.inf, np.nan])
    # y outside [0, 1] is NaN, and a NaN y comes back negated, as scipy's does
    _assert_same_bits(ndtri, special.ndtri, [
        0.0, -0.0, 1.0, 0.5, np.nan, np.inf, -np.inf, -1e-300, -0.5,
        np.nextafter(1.0, 2.0), 1.5, 2.0])
    assert ndtr(0.0) == 0.5 and ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf and math.isnan(ndtri(1.5))


def test_no_module_imports_scipy_special():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(n.startswith("scipy.special") for n in names), path.name
