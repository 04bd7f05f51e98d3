"""Acceptance suite: every exit criterion, one test each, stated tolerances.

Replications default to desk mode (2000 per cell, wider bands, finishes in a
couple of minutes); set SPLITENC_ACCEPT_REPS=10000 for full-fidelity runs at
the tighter bands.  Each test prints one ACCEPTANCE pass/fail line.
"""

import contextlib
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import kstest

from _oracles import (
    bartlett_direct,
    dbar_direct,
    expanding_refit_oracle,
    statistic_direct,
)
from splitenc.cli import main as cli_main
from splitenc.dgp import SIGMA2, Dgp1Spec, Dgp2Spec, RngStream
from splitenc.enc_test import (
    ForecastErrorSet,
    HacConfig,
    LocalPowerInput,
    SplitSpec,
    _split_terms,
    bartlett_lrv,
    encompassing_test,
    local_power_stationary,
)
from splitenc.errors import DegenerateVariance, InvalidSplit
from splitenc.inflation import CountryStudyConfig, InflationPanel, country_encompassing
from splitenc.monte_carlo import (
    McCell,
    collect_statistics,
    run_power_experiment,
    run_size_experiment,
)
from splitenc.regression import DirectDesign, expanding_window_coefficients

REPS = int(os.environ.get("SPLITENC_ACCEPT_REPS", "2000"))
FULL = REPS >= 10000
SIZE_TOL = 0.02 if FULL else 0.03  # criterion 1 band per replication budget


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE criterion {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE criterion {number}: PASS - {description}")


def _dgp1_cell(mu0, rho, h=1, T=1000, beta2=0.0, sigma=None):
    spec = Dgp1Spec(T=T, h=h, rho=rho, beta2=beta2,
                    **({"sigma": sigma} if sigma is not None else {}))
    group = f"dgp1,h={h},T={T},rho={rho:g}" + (f",beta2={beta2:g}" if beta2 else "")
    return McCell(dgp=spec, mu0=mu0, label=f"{group},mu0={mu0:g}", group=group)


def _freq(report):
    return {c.label: c.rejection_frequency for c in report.cells}


def test_criterion_01_size_reproduction_baseline():
    expected = {
        (0.25, 0.30): 0.113, (0.25, 0.40): 0.103, (0.25, 0.45): 0.095,
        (0.90, 0.30): 0.106, (0.90, 0.40): 0.099, (0.90, 0.45): 0.098,
    }
    cells = [_dgp1_cell(mu0, rho) for (rho, mu0) in expected]
    report = run_size_experiment(cells, reps=REPS, base_seed=101)
    with criterion(1, f"baseline size within +-{SIZE_TOL} of reference (reps={REPS})"):
        for cell, ((rho, mu0), target) in zip(report.cells, expected.items()):
            assert cell.reliable
            assert abs(cell.rejection_frequency - target) <= SIZE_TOL, (
                f"rho={rho} mu0={mu0}: got {cell.rejection_frequency:.3f}, "
                f"reference {target}"
            )


def test_criterion_02_size_long_horizon():
    cell = _dgp1_cell(0.45, rho=0.95, h=24)
    report = run_size_experiment([cell], reps=REPS, base_seed=102)
    freq = report.cells[0].rejection_frequency
    with criterion(2, f"h=24 size {freq:.3f} within 0.098 +- 0.025"):
        assert abs(freq - 0.098) <= 0.025


def test_criterion_03_size_correlated_shocks():
    cell = _dgp1_cell(0.45, rho=0.25, sigma=SIGMA2.copy())
    report = run_size_experiment([cell], reps=REPS, base_seed=103)
    freq = report.cells[0].rejection_frequency
    with criterion(3, f"correlated-shock size {freq:.3f} within 0.099 +- 0.02"):
        assert abs(freq - 0.099) <= 0.02


def test_criterion_04_power_reproduction():
    cells = [
        _dgp1_cell(0.45, rho=0.90, T=500, beta2=0.20),
        _dgp1_cell(0.45, rho=0.25, T=500, beta2=0.60),
    ]
    report = run_power_experiment(cells, reps=REPS, base_seed=104)
    f1, f2 = (c.rejection_frequency for c in report.cells)
    with criterion(4, f"power cells {f1:.3f} (ref 0.953 +- 0.03) and {f2:.3f} (>= 0.99)"):
        assert abs(f1 - 0.953) <= 0.03
        assert f2 >= 0.99


def test_criterion_05_factor_design_qualitative():
    size_cell = McCell(dgp=Dgp2Spec(T=250, N=100, h=1, beta2=0.0), mu0=0.45,
                       label="dgp2,size", group="dgp2,h=1,N=100,T=250")
    power_cell = McCell(dgp=Dgp2Spec(T=250, N=100, h=1, beta2=0.30), mu0=0.45,
                        label="dgp2,power", group="dgp2,h=1,N=100,T=250,beta2=0.3")
    size = run_size_experiment([size_cell], reps=REPS, base_seed=105)
    power = run_power_experiment([power_cell], reps=REPS, base_seed=106)
    fs = size.cells[0].rejection_frequency
    fp = power.cells[0].rejection_frequency
    with criterion(5, f"factor design size {fs:.3f} in [0.07, 0.13], power {fp:.3f} >= 0.90"):
        assert 0.07 <= fs <= 0.13
        assert fp >= 0.90


def test_criterion_06_null_normality():
    cell = _dgp1_cell(0.45, rho=0.25)
    stats = collect_statistics(cell, reps=2000, base_seed=107)
    distance = kstest(stats, "norm").statistic
    with criterion(6, f"null statistics KS distance {distance:.4f} < 0.05 "
                      f"({stats.size} draws)"):
        assert stats.size >= 1990
        assert distance < 0.05


def test_criterion_07_oracle_equivalences():
    with criterion(7, "oracle equivalences (golden instance, HAC brute force, "
                      "expanding refits, split-mean identity)"):
        # (a) committed n=12 golden instances vs the direct-formula oracle.
        # The consistent (segment-centered) default is checked on the general
        # instance; the piecewise-constant instance is only well posed under
        # the literal globally-centered normalizer, and is checked under it.
        e1 = np.array([1.0, -2.0, 1.5, -0.5, 2.0, -1.0, 0.5, -1.5, 1.0, -2.0, 0.5, -1.0])
        e2 = np.array([0.5, -1.0, 1.0, -1.5, 1.0, -0.5, 1.5, -1.0, 0.5, -1.5, 1.0, -0.5])
        res = encompassing_test(ForecastErrorSet(e1, e2), SplitSpec(0.40),
                                HacConfig(bandwidth=2))
        oracle = statistic_direct(e1, e2, 4, 2, "segment")
        assert abs(res.statistic - oracle["statistic"]) < 1e-10
        assert abs(res.statistic - 3.196545488539244) < 1e-10

        alt1 = np.array([1.0 if t % 2 == 0 else -1.0 for t in range(12)])
        alt2 = 0.5 * alt1
        res_g = encompassing_test(ForecastErrorSet(alt1, alt2), SplitSpec(0.40),
                                  HacConfig(bandwidth=2), centering="global")
        oracle_g = statistic_direct(alt1, alt2, 4, 2, "global")
        assert abs(res_g.statistic - oracle_g["statistic"]) < 1e-10
        assert abs(res_g.statistic - 7.496340570653091) < 1e-10
        assert abs(res_g.p_value - oracle_g["p_value"]) < 1e-10

        # (b) Bartlett long-run variance vs the double-loop oracle, 1000 cases
        g = np.random.default_rng(1070)
        for _ in range(1000):
            n = int(g.integers(5, 201))
            M = int(g.integers(1, min(n, 21)))
            q = g.standard_normal(n)
            q -= q.mean()
            assert abs(bartlett_lrv(q, M) - bartlett_direct(q, M)) <= 1e-12 * max(
                1.0, abs(bartlett_direct(q, M)))

        # (c) expanding-window coefficients vs per-origin batch refits, 100 designs
        for seed in range(100):
            gg = np.random.default_rng(2070 + seed)
            T = int(gg.integers(25, 70))
            k = int(gg.integers(0, 4))
            h = int(gg.integers(1, 4))
            y = gg.standard_normal(T)
            x = gg.standard_normal((T, k)) if k else None
            design = DirectDesign.from_series(y, x, h=h)
            k0 = k + 1 + h + int(gg.integers(0, 4))
            if k0 > design.last_target - h:
                continue
            coefs = expanding_window_coefficients(design, k0)
            oracle_c = expanding_refit_oracle(design.regressors, design.targets,
                                              k0_row=k0 - design.first_origin,
                                              n_fits=coefs.shape[0])
            assert_allclose(coefs, oracle_c, rtol=1e-8, atol=1e-10)

        # (d) split-mean identity over 1000 random (n, m0) instances
        for _ in range(1000):
            n = int(g.integers(4, 120))
            m0 = int(g.integers(2, n - 1))
            a, b = g.standard_normal(n), g.standard_normal(n)
            assert abs(np.mean(_split_terms(a, b, [m0])[0]) - dbar_direct(a, b, m0)) <= 1e-12


def test_criterion_08_statistic_invariances():
    with criterion(8, "scale equivariance, mu0=1/2 rejection, constant-error zero"):
        # scale equivariance at 1e-10 under both centerings
        g = np.random.default_rng(108)
        e1, e2 = g.standard_normal(60), g.standard_normal(60)
        for centering in ("segment", "global"):
            base = encompassing_test(ForecastErrorSet(e1, e2), SplitSpec(0.45),
                                     HacConfig(), centering=centering)
            for lam in (-3.0, 0.1, 2.0, 250.0):
                scaled = encompassing_test(ForecastErrorSet(lam * e1, lam * e2),
                                           SplitSpec(0.45), HacConfig(),
                                           centering=centering)
                assert abs(scaled.statistic - base.statistic) <= 1e-10
                assert abs(scaled.p_value - base.p_value) <= 1e-10

        # the split fraction may not approach one half
        for mu0 in (0.5, 0.49, 0.51):
            with pytest.raises(InvalidSplit):
                SplitSpec(mu0)

        # identical constant errors: the balanced split cancels exactly, so
        # the statistic is an exact zero.  Only the literal globally-centered
        # normalizer keeps this case well posed (the consistent default has
        # nothing left after segment demeaning and reports degeneracy).
        const = ForecastErrorSet(np.full(12, 1.0), np.full(12, 1.0))
        res = encompassing_test(const, SplitSpec(0.40), HacConfig(bandwidth=2),
                                centering="global")
        assert res.statistic == 0.0
        assert res.p_value == 0.5
        with pytest.raises(DegenerateVariance):
            encompassing_test(const, SplitSpec(0.40), HacConfig(bandwidth=2))


def test_criterion_09_local_power_checks():
    def scalar(c, mu0=0.45, level=0.10):
        return LocalPowerInput(c=[c], b11=[[1.0]], b12=[[0.0]], b21=[[0.0]],
                               b22=[[1.0]], phi2=1.0, mu0=mu0, level=level)

    with criterion(9, "local power: null recovers level exactly, drift "
                      "monotone in mu0, scalar golden value"):
        for level in (0.01, 0.05, 0.10):
            out = local_power_stationary(scalar(0.0, level=level))
            assert out["power"] == level
        grid = np.linspace(0.10, 0.48, 20)  # endpoint exactly representable
        drifts = [local_power_stationary(scalar(1.0, mu0=float(m)))["drift"]
                  for m in grid]
        assert all(b > a for a, b in zip(drifts, drifts[1:]))
        assert abs(local_power_stationary(scalar(1.0))["drift"]
                   - 8.616843969807045) < 1e-6


def test_criterion_10_monte_carlo_orderings():
    reps = max(1000, REPS // 2)
    cells = []
    for beta2 in (0.20, 0.40):
        for rho in (0.25, 0.90):
            for mu0 in (0.30, 0.45):
                cells.append(_dgp1_cell(mu0, rho=rho, T=500, beta2=beta2))
    report = run_power_experiment(cells, reps=reps, base_seed=110)
    freq = {}
    for cell, res in zip(cells, report.cells):
        freq[(cell.dgp.beta2, cell.dgp.rho, cell.mu0)] = (
            res.rejection_frequency, res.mc_se)
    with criterion(10, f"power orderings in beta2, mu0 and rho at 2*mc_se slack "
                       f"(reps={reps})"):
        for rho in (0.25, 0.90):
            for mu0 in (0.30, 0.45):
                lo, se_lo = freq[(0.20, rho, mu0)]
                hi, se_hi = freq[(0.40, rho, mu0)]
                assert hi >= lo - 2 * max(se_lo, se_hi)
        for beta2 in (0.20, 0.40):
            for rho in (0.25, 0.90):
                lo, se_lo = freq[(beta2, rho, 0.30)]
                hi, se_hi = freq[(beta2, rho, 0.45)]
                assert hi >= lo - 2 * max(se_lo, se_hi)
        for beta2 in (0.20, 0.40):
            for mu0 in (0.30, 0.45):
                lo, se_lo = freq[(beta2, 0.25, mu0)]
                hi, se_hi = freq[(beta2, 0.90, mu0)]
                assert hi >= lo - 2 * max(se_lo, se_hi)


def test_criterion_11_determinism_across_thread_counts(tmp_path, capsys, data_dir):
    config = tmp_path / "size.yaml"
    config.write_text(
        "experiment: {kind: size, reps: 40, mu0: [0.40, 0.45], seed: 9}\n"
        "dgp: {family: dgp1, T: 150, h: 1, rho: [0.25], beta2: 0.0}\n"
    )
    outs = []
    for threads in (1, 2, 4):
        out = tmp_path / f"mc_{threads}.csv"
        assert cli_main(["mc-size", str(config), "--threads", str(threads),
                         "--format", "csv", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    infl = []
    for run in range(2):
        out = tmp_path / f"infl_{run}.json"
        assert cli_main(["inflation", str(data_dir / "fixture_panel.csv"),
                         "--format", "json", "--out", str(out)]) == 0
        infl.append(out.read_bytes())
    capsys.readouterr()
    with criterion(11, "machine-format outputs byte-identical across thread "
                       "counts and repeated runs"):
        assert outs[0] == outs[1] == outs[2]
        assert infl[0] == infl[1]


def _null_prices(seed, C=8, T=240, phi=0.5):
    g = RngStream(987001, seed).generator()
    eps = g.standard_normal((T, C))
    pi = np.empty((T, C))
    pi[0] = 2.0 + eps[0]
    for t in range(1, T):
        pi[t] = 2.0 * (1 - phi) + phi * pi[t - 1] + eps[t]
    return np.column_stack([100.0 * np.exp(np.cumsum(pi[:, i]) / 400.0) for i in range(C)])


def _columns_panel(prices):
    return InflationPanel({f"c{i:02d}": ("1970Q1", prices[:, i])
                           for i in range(prices.shape[1])})


def _null_panel(seed):
    return _columns_panel(_null_prices(seed))


def test_criterion_12_inflation_pipeline(fixture_panel, data_dir):
    from splitenc.inflation import run_study

    golden = (data_dir / "golden_study.md").read_text()
    report = run_study(fixture_panel, CountryStudyConfig())

    # structural assertions: no look-ahead (tail shocks leave earlier errors
    # untouched) and scale invariance of the per-country results
    cfg = CountryStudyConfig(h=4, p_max=0, mu0_list=(0.45,))
    from splitenc.inflation import _country_designs, _global_inflation_source, annualized_inflation
    from splitenc.regression import expanding_window_forecast_errors

    def large_design(panel):
        b0, prices = panel.block("c00")
        pih, pi1 = annualized_inflation(prices, cfg.h), annualized_inflation(prices, 1)
        g = _global_inflation_source(panel)(None)[b0:b0 + len(prices)]
        return _country_designs(cfg, 0, pih, pi1, g)[1], len(prices)

    prices = _null_prices(7)
    panel = _columns_panel(prices)
    large, T_i = large_design(panel)
    k0 = int(T_i * cfg.pi0)
    base_errs = expanding_window_forecast_errors(large, k0)
    shocked = prices.copy()
    shocked[-5:, 0] *= 1.04
    panel_shocked = _columns_panel(shocked)
    large2, _ = large_design(panel_shocked)
    shocked_errs = expanding_window_forecast_errors(large2, k0)

    cfg_full = CountryStudyConfig(h=4, p_max=4)
    base_res = country_encompassing(panel, "c01", cfg_full)
    scale = np.ones(prices.shape[1])
    scale[1] = 3.5
    panel_scaled = _columns_panel(prices * scale)
    scaled_res = country_encompassing(panel_scaled, "c01", cfg_full)

    # synthetic null calibration: countries are independent, the global
    # average adds nothing, so rejections at the 10% level stay near 10%
    cal_cfg = CountryStudyConfig(h=4, p_max=4, mu0_list=(0.45,))
    rejections = 0
    n_panels = 500
    for seed in range(n_panels):
        res = country_encompassing(_null_panel(seed), "c00", cal_cfg)
        rejections += res.p_values[0.45] < 0.10
    rate = rejections / n_panels

    with criterion(12, f"inflation pipeline: golden snapshot, structure, "
                       f"null calibration rate {rate:.3f} in 0.10 +- 0.03"):
        assert report.render("markdown") == golden
        assert_array_equal(base_errs[:-5], shocked_errs[:-5])
        assert not np.array_equal(base_errs[-5:], shocked_errs[-5:])
        assert scaled_res.selected_lag == base_res.selected_lag
        assert abs(scaled_res.rmse_ratio - base_res.rmse_ratio) <= 1e-10
        for mu0 in cfg_full.mu0_list:
            assert abs(scaled_res.p_values[mu0] - base_res.p_values[mu0]) <= 1e-10
        assert abs(rate - 0.10) <= 0.03
