import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import _oracles
import splitenc.inflation as inflation
from splitenc.dgp import RngStream
from splitenc.errors import (
    CoverageError,
    EmptyQuarter,
    InvalidSplit,
    NonPositivePrice,
    ParseError,
    SplitEncError,
)
from splitenc.inflation import (
    CountryStudyConfig,
    InflationPanel,
    _country_designs,
    _global_inflation_source,
    annualized_inflation,
    country_encompassing,
    load_panel,
    run_study,
)
from splitenc.regression import DirectDesign, expanding_window_forecast_errors


def _designs(panel, country, cfg, selected_lag):
    """(bench, large, block length) of _country_designs on the country's block."""
    b0, prices = panel.block(country)
    pih, pi1 = annualized_inflation(prices, cfg.h), annualized_inflation(prices, 1)
    exclude = None if cfg.include_own_country else panel.countries.index(country)
    g = _global_inflation_source(panel)(exclude)[b0:b0 + len(prices)]
    return (*_country_designs(cfg, selected_lag, pih, pi1, g), len(prices))


def _ar1_panel(seed, C=4, T=160, phi=0.5, mean=2.0, sd=1.0, start="1970Q1"):
    """Independent AR(1) quarter-on-quarter inflation per country (null design)."""
    g = RngStream(seed, 0).generator()
    eps = sd * g.standard_normal((T, C))
    pi = np.empty((T, C))
    pi[0] = mean + eps[0]
    for t in range(1, T):
        pi[t] = mean * (1 - phi) + phi * pi[t - 1] + eps[t]
    return InflationPanel.from_blocks(
        {f"c{i:02d}": (start, 100.0 * np.exp(np.cumsum(pi[:, i]) / 400.0))
         for i in range(C)})


class TestAnnualizedInflation:
    def test_constant_prices_zero(self):
        out = annualized_inflation(np.full(12, 37.5), h=4)
        assert np.all(np.isnan(out[:4]))
        assert_allclose(out[4:], 0.0, atol=1e-12)

    def test_log_ratio_scaling(self):
        prices = np.ones(6)
        prices[4:] = math.e
        out = annualized_inflation(prices, h=4)
        assert_allclose(out[4], 100.0, rtol=1e-12)

    def test_h1_is_quarter_on_quarter(self, rng):
        prices = np.exp(np.cumsum(rng.standard_normal(20) * 0.01)) * 50
        out = annualized_inflation(prices, h=1)
        expected = 400.0 * np.log(prices[1:] / prices[:-1])
        assert_allclose(out[1:], expected, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositivePrice):
            annualized_inflation(np.array([1.0, -2.0, 3.0]), h=1)


class TestLoadPanel:
    def test_fixture_dimensions(self, fixture_panel):
        assert fixture_panel.countries == ("aaa", "bbb", "ccc")
        assert fixture_panel.dates[0] == "1970Q1"
        assert len(fixture_panel.dates) == 134

    def test_gap_keeps_longest_block(self, fixture_panel):
        # 'bbb' misses 1980Q2: the 37-quarter head is dropped for the
        # 92-quarter tail starting right after the gap
        b0, prices = fixture_panel.block("bbb")
        assert fixture_panel.dates[b0] == "1980Q3"
        assert len(prices) == 92

    def test_country_filter(self, fixture_panel_path):
        panel = load_panel(fixture_panel_path, countries=["aaa", "ccc"])
        assert panel.countries == ("aaa", "ccc")

    def test_missing_country(self, fixture_panel_path):
        with pytest.raises(CoverageError, match="zzz"):
            load_panel(fixture_panel_path, countries=["aaa", "zzz"])

    def test_date_range_filter(self, fixture_panel_path):
        panel = load_panel(fixture_panel_path, countries=["aaa", "ccc"],
                           start="1972Q1", end="1994Q4")
        assert panel.dates[0] == "1972Q1"
        assert panel.dates[-1] <= "1994Q4"

    def test_negative_price_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,date,hcpi\naaa,1970Q1,100\naaa,1970Q2,-5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_panel(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iso,quarter,price\naaa,1970Q1,100\n")
        with pytest.raises(ParseError, match="header"):
            load_panel(path)

    def test_bad_date(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,date,hcpi\naaa,1970M1,100\n")
        with pytest.raises(ParseError, match="line 2"):
            load_panel(path)

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,date,hcpi\naaa,1970Q1,100\naaa,1970Q1,101\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_panel(path)

    def test_short_country_coverage_error(self, tmp_path):
        rows = ["country,date,hcpi"]
        for name, count in (("aaa", 100), ("bbb", 20)):
            for i in range(count):
                rows.append(f"{name},{1970 + i // 4}Q{i % 4 + 1},100")
        path = tmp_path / "short.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CoverageError, match="bbb"):
            load_panel(path)

    def test_needs_two_countries(self, tmp_path):
        rows = ["country,date,hcpi"]
        for i in range(100):
            rows.append(f"aaa,{1970 + i // 4}Q{i % 4 + 1},100")
        path = tmp_path / "one.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CoverageError, match="2 countries"):
            load_panel(path)


_PANEL_NAMES = ("aaa", "bbb", "ccc", "ddd")
_LABEL_STYLES = ("{y}Q{q}", "{y}-Q{q}", "{y}q{q}", " {y}Q{q} ")
_BLANK_ROWS = ("", "   ", ",,", " , , ")
_BAD_FIELDS = ("aaa,1990Q1", "aaa,1990Q1,100,1", " ,1990Q1,100")
_BAD_LABELS = ("1990Q5", "90Q1", "", "1990Q1x")
_BAD_PRICES = ("abc", "", "nan", "inf", "-inf", "1e400", "0", "-2.5", "0x10")


def _label(q, style):
    return _LABEL_STYLES[style].format(y=q // 4, q=q % 4 + 1)


@st.composite
def _panel_files(draw):
    """(CSV text, load_panel keywords): country blocks with gaps, faulty rows and filters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []  # [name, quarter index, price text]
    names = _PANEL_NAMES[:draw(st.integers(2, 4))]
    for name in names:
        first = 4 * 1990 + draw(st.integers(0, 8))
        length = draw(st.integers(80, 130))
        gaps = set(draw(st.lists(st.integers(1, length - 2), max_size=1)))
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.5, 1.0, length)) / 400.0)
        rows += [[name, first + i, repr(float(prices[i]))]
                 for i in range(length) if i not in gaps]
    if draw(st.booleans()):
        rows = [rows[i] for i in rng.permutation(len(rows))]
    lines = [f"{' ' * int(rng.integers(2))}{name},{_label(q, int(rng.integers(4)))},{price}"
             for name, q, price in rows]
    faults = draw(st.lists(st.tuples(
        st.sampled_from(("blank", "fields", "label", "price", "duplicate")),
        st.integers(0, 10**6), st.integers(0, 10**6)), max_size=2))
    for kind, at, pick in faults:
        name, q, price = rows[pick % len(rows)]
        if kind == "blank":
            line = _BLANK_ROWS[pick % len(_BLANK_ROWS)]
        elif kind == "fields":
            line = _BAD_FIELDS[pick % len(_BAD_FIELDS)]
        elif kind == "label":
            line = f"{name},{_BAD_LABELS[pick % len(_BAD_LABELS)]},{price}"
        elif kind == "price":
            # a repeated quarter half of the time: the price fault comes first
            q = q if pick % 2 else 4 * 1800
            line = f"{name},{_label(q, pick % 4)},{_BAD_PRICES[pick % len(_BAD_PRICES)]}"
        else:
            line = f"{name},{_label(q, pick % 4)},{float(price) * 1.01!r}"
        lines.insert(at % (len(lines) + 1), line)
    kwargs = draw(st.fixed_dictionaries({}, optional={
        "countries": st.lists(st.sampled_from(names), min_size=1, max_size=4)
        | st.just(["aaa", "zzz"]),
        "start": st.integers(4 * 1989, 4 * 1994).map(lambda q: _label(q, 0)) | st.just("1995Q7"),
        "end": st.integers(4 * 2012, 4 * 2022).map(lambda q: _label(q, 1)),
    }))
    return "country,date,hcpi\n" + "\n".join(lines) + "\n", kwargs


class TestLoadPanelOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=_panel_files())
    def test_same_panel_or_same_error_as_the_row_reader(self, tmp_path_factory, case):
        text, kwargs = case
        path = tmp_path_factory.getbasetemp() / "oracle_panel.csv"
        path.write_text(text, encoding="utf-8")
        try:
            countries, dates, prices, coverage = _oracles.load_panel_rows(path, **kwargs)
        except (SplitEncError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                load_panel(path, **kwargs)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        panel = load_panel(path, **kwargs)
        assert panel.countries == countries
        assert panel.dates == dates
        assert panel.prices.tobytes() == prices.tobytes()
        assert_array_equal(panel.coverage, coverage)

    @pytest.mark.parametrize("rows, message", [
        (["aaa,1970Q2,0", "aaa,1970Q3,abc"], "line 3: price must be positive, got 0"),
        (["aaa,1970Q2,abc", "aaa,1970Q3,-1"], "line 3: bad price 'abc'"),
        (["aaa,1970Q2,nan", "aaa,1970Q3"], "line 3: price must be positive, got nan"),
        (["aaa,1970Q2", "aaa,1970Q3,nan"], "line 3: expected 3 fields, got 2"),
        (["aaa,1970-Q1,inf"], "line 3: price must be positive, got inf"),
        (["aaa,1970-Q1,7", "aaa,1970Q2,x"], "line 3: duplicate entry for aaa 1970-Q1"),
        (["", " , ", "aaa,1970Q2,1", " ,1970Q3,1"], "line 6: empty country code"),
    ])
    def test_first_faulty_line_wins(self, tmp_path, rows, message):
        # a later fault of an earlier kind must not shadow an earlier line's fault
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(["country,date,hcpi", "aaa,1970Q1,100", *rows]) + "\n")
        with pytest.raises(ParseError) as oracle:
            _oracles.load_panel_rows(path)
        assert str(oracle.value) == message
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_panel(path)


class TestGlobalInflation:
    def test_single_country_equals_own_series(self):
        prices = 100 * np.exp(np.cumsum(np.linspace(1, 4, 90)) / 400)
        panel = InflationPanel.from_blocks({"solo": ("1980Q1", prices)})
        g = _global_inflation_source(panel)(None)
        own = annualized_inflation(prices, 1)
        assert np.isnan(g[0])
        assert_array_equal(g[1:], own[1:])

    def test_opposite_rates_average_to_zero(self):
        # one quarter of +2 and -2 annualized quarter-on-quarter inflation
        up = np.array([100.0] * 10 + [100.0 * math.exp(2 / 400)] * 10)
        down = np.array([100.0] * 10 + [100.0 * math.exp(-2 / 400)] * 10)
        panel = InflationPanel.from_blocks({"up": ("1970Q1", up), "dn": ("1970Q1", down)})
        g = _global_inflation_source(panel)(None)
        assert_allclose(g[10], 0.0, atol=1e-12)
        assert_allclose(g[1:10], 0.0, atol=1e-12)

    def test_fixture_matches_independent_recomputation(self, fixture_panel):
        g = _global_inflation_source(fixture_panel)(None)
        # spreadsheet-style recomputation: per quarter, average the available
        # log price relatives country by country
        T, C = fixture_panel.prices.shape
        for t in [1, 20, 60, 100, T - 1]:
            vals = []
            for j in range(C):
                if fixture_panel.coverage[t, j] and fixture_panel.coverage[t - 1, j]:
                    vals.append(400.0 * math.log(fixture_panel.prices[t, j]
                                                 / fixture_panel.prices[t - 1, j]))
            assert_allclose(g[t], sum(vals) / len(vals), rtol=1e-12)

    def test_interior_empty_quarter_raises(self):
        a = np.full(90, 100.0)
        b = np.full(90, 100.0)
        panel = InflationPanel.from_blocks({"a": ("1970Q1", a), "b": ("2000Q1", b)})
        with pytest.raises(EmptyQuarter):
            _global_inflation_source(panel)(None)

    def test_identical_countries_reduce_to_own_series(self):
        prices = 100 * np.exp(np.cumsum(np.sin(np.arange(90)) + 2) / 400)
        own = annualized_inflation(prices, 1)
        # averaging 4 identical values is exact in floats (powers of two)
        panel4 = InflationPanel.from_blocks(
            {name: ("1975Q1", prices) for name in ("a", "b", "c", "d")})
        assert_array_equal(_global_inflation_source(panel4)(None)[1:], own[1:])
        # odd counts can round the last bit of the mean
        panel3 = InflationPanel.from_blocks(
            {name: ("1975Q1", prices) for name in ("a", "b", "c")})
        assert_allclose(_global_inflation_source(panel3)(None)[1:], own[1:], rtol=1e-15)


class TestCountryEncompassing:
    def test_null_panel_moderate_pvalues(self):
        res = country_encompassing(_ar1_panel(11), "c00",
                                   CountryStudyConfig(h=4, p_max=4))
        assert res.n_forecasts == 160 - 4 - 40 + 1
        assert set(res.p_values) == {0.40, 0.45}
        assert all(0.0 <= p <= 1.0 for p in res.p_values.values())
        assert res.rmse_ratio > 0.0

    def test_power_panel_detects_global_factor(self):
        # every country loads on one persistent common factor, so the
        # cross-country average carries information beyond own lags
        def power_panel(seed, C=12, T=240):
            g = RngStream(987002, seed).generator()
            e = g.standard_normal(T)
            G = np.empty(T)
            G[0] = e[0]
            for t in range(1, T):
                G[t] = 0.8 * G[t - 1] + e[t]
            pi = 2.0 + G[:, None] + 1.5 * g.standard_normal((T, C))
            return InflationPanel.from_blocks(
                {f"c{i:02d}": ("1970Q1", 100.0 * np.exp(np.cumsum(pi[:, i]) / 400.0))
                 for i in range(C)})

        cfg = CountryStudyConfig(h=4, p_max=4, mu0_list=(0.45,))
        hits, ratios = 0, []
        for seed in range(40):
            res = country_encompassing(power_panel(seed), "c00", cfg)
            hits += res.p_values[0.45] < 0.01
            ratios.append(res.rmse_ratio)
        assert hits / 40 >= 0.5
        assert np.median(ratios) < 1.0

    def test_constant_prices_surface_error_with_context(self):
        blocks = {"flat": ("1970Q1", np.full(160, 100.0)),
                  "ok": ("1970Q1", _ar1_panel(5, C=1).prices[:, 0])}
        panel = InflationPanel.from_blocks(blocks)
        with pytest.raises(SplitEncError, match="flat"):
            country_encompassing(panel, "flat", CountryStudyConfig(h=4, p_max=2))

    def test_no_lookahead_in_forecasts(self):
        # changing the final quarters cannot alter earlier forecast errors
        cfg = CountryStudyConfig(h=4, p_max=0, mu0_list=(0.45,))
        panel = _ar1_panel(21, C=3)
        bench, large, T_i = _designs(panel, "c00", cfg, selected_lag=0)
        k0 = int(T_i * cfg.pi0)
        e_full = expanding_window_forecast_errors(large, k0)

        prices = panel.prices.copy()
        tail = 6
        prices[-tail:, 0] *= np.exp(np.linspace(0.01, 0.06, tail))  # shock the tail
        panel2 = InflationPanel(countries=panel.countries, dates=panel.dates,
                                prices=prices, coverage=panel.coverage)
        bench2, large2, _ = _designs(panel2, "c00", cfg, selected_lag=0)
        e_mod = expanding_window_forecast_errors(large2, k0)
        # errors targeting quarters before the shocked tail are bit-identical
        assert_array_equal(e_full[:-tail], e_mod[:-tail])
        assert not np.array_equal(e_full[-tail:], e_mod[-tail:])

    def test_nesting_drop_global_columns_reproduces_benchmark(self):
        cfg = CountryStudyConfig(h=4, p_max=4)
        panel = _ar1_panel(31)
        bench, large, T_i = _designs(panel, "c00", cfg, selected_lag=2)
        k1 = bench.n_params
        assert_array_equal(large.regressors[:, :k1], bench.regressors)
        assert_array_equal(large.targets, bench.targets)
        k0 = int(T_i * cfg.pi0)
        stripped = DirectDesign(regressors=large.regressors[:, :k1].copy(),
                                targets=large.targets, h=large.h,
                                first_origin=large.first_origin)
        assert_array_equal(expanding_window_forecast_errors(stripped, k0),
                           expanding_window_forecast_errors(bench, k0))

    def test_scale_invariance(self):
        panel = _ar1_panel(41)
        cfg = CountryStudyConfig(h=4, p_max=4)
        base = country_encompassing(panel, "c01", cfg)
        scale = np.ones(len(panel.countries))
        scale[1] = 7.0
        scaled_panel = InflationPanel(countries=panel.countries, dates=panel.dates,
                                      prices=panel.prices * scale,
                                      coverage=panel.coverage)
        scaled = country_encompassing(scaled_panel, "c01", cfg)
        assert scaled.selected_lag == base.selected_lag
        assert_allclose(scaled.rmse_ratio, base.rmse_ratio, rtol=0, atol=1e-10)
        for mu0 in cfg.mu0_list:
            assert_allclose(scaled.p_values[mu0], base.p_values[mu0],
                            rtol=0, atol=1e-10)

    def test_exclude_own_country_average(self):
        panel = _ar1_panel(51, C=5)
        cfg_in = CountryStudyConfig(h=4, p_max=2, include_own_country=True)
        cfg_out = CountryStudyConfig(h=4, p_max=2, include_own_country=False)
        _, large_in, _ = _designs(panel, "c00", cfg_in, selected_lag=0)
        _, large_out, _ = _designs(panel, "c00", cfg_out, selected_lag=0)
        # leave-one-out average: recompute from the other countries directly
        qoq = np.column_stack([annualized_inflation(panel.block(c)[1], 1)
                               for c in panel.countries])
        loo = np.full(qoq.shape[0], np.nan)
        loo[1:] = np.mean(qoq[1:, 1:], axis=1)  # row 0 has no prior quarter
        own_col = large_out.regressors[:, -1]  # deepest global lag
        t0 = large_out.first_origin - 1
        expected = loo[t0 - cfg_out.h - cfg_out.p2: len(loo) - cfg_out.h - cfg_out.p2]
        assert_allclose(own_col, expected, rtol=1e-12)
        assert not np.allclose(large_in.regressors[:, -1], own_col)

    def test_unknown_country(self):
        with pytest.raises(ValueError, match="not in panel"):
            country_encompassing(_ar1_panel(61), "zzz", CountryStudyConfig())


class TestRunStudy:
    def test_fixture_golden_snapshot(self, fixture_panel, data_dir):
        report = run_study(fixture_panel, CountryStudyConfig())
        assert report.render("markdown") == (data_dir / "golden_study.md").read_text()

    def test_unknown_format(self, fixture_panel):
        with pytest.raises(ValueError, match="format"):
            run_study(fixture_panel, CountryStudyConfig()).render("xml")

    def test_empty_mu0_list_rejected(self):
        with pytest.raises(ValueError, match="mu0_list"):
            CountryStudyConfig(mu0_list=())

    @pytest.mark.parametrize("pi0", [0.0, 1.0, -0.2])
    def test_pi0_outside_unit_interval_rejected(self, pi0):
        with pytest.raises(ValueError, match=r"^pi0 must lie in \(0, 1\)"):
            CountryStudyConfig(pi0=pi0)

    @pytest.mark.parametrize("mu0_list", [(0.40, 0.45, 0.40), (0.40, 0.4000001)])
    def test_mu0_list_sharing_a_label_rejected(self, mu0_list):
        # the p-value columns are labelled p_mu0_{mu0:g}
        with pytest.raises(InvalidSplit, match="share the label 0.4"):
            CountryStudyConfig(mu0_list=mu0_list)

    def test_failures_reported_inline(self):
        blocks = {"flat": ("1970Q1", np.full(160, 100.0))}
        good = _ar1_panel(71, C=2)
        for i, c in enumerate(good.countries):
            blocks[c] = ("1970Q1", good.prices[:, i])
        panel = InflationPanel.from_blocks(blocks)
        report = run_study(panel, CountryStudyConfig(h=4, p_max=2))
        assert set(report.failures) == {"flat"}
        assert len(report.results) == 2
        assert "flat" in report.render("markdown")

    def test_failure_prefix_appears_once(self, fixture_panel):
        report = run_study(fixture_panel, CountryStudyConfig(h=4, p2=150))
        assert report.results == ()
        assert report.failures == {c: f"country {c}: no usable target rows at h=4"
                                   for c in fixture_panel.countries}
        assert report.render("csv").count("country aaa:") == 1

    def test_short_country_becomes_failure_row(self, fixture_panel):
        # at pi0=0.87 bbb keeps 9 forecast errors, aaa 13 and ccc 10
        report = run_study(fixture_panel, CountryStudyConfig(pi0=0.87))
        assert [r.country for r in report.results] == ["aaa", "ccc"]
        assert [r.n_forecasts for r in report.results] == [13, 10]
        assert report.failures == {"bbb": "country bbb: need at least 10 forecast errors"}

    @pytest.mark.parametrize("p2, params, first_target", [(40, 43, 46), (20, 23, 26)])
    def test_p2_past_first_origin_names_the_window(self, fixture_panel, p2, params,
                                                     first_target):
        report = run_study(fixture_panel, CountryStudyConfig(p2=p2))
        assert report.results == ()
        assert report.failures["aaa"] == (
            f"country aaa: k0=30 leaves too few rows for the first fit (first usable "
            f"target {first_target}, {params} parameters with p2={p2})")
        assert set(report.failures) == set(fixture_panel.countries)
        assert not any(re.search(r"-\d", m) for m in report.failures.values())

    @pytest.mark.parametrize("include_own", [True, False])
    def test_global_series_computed_once_per_exclusion(self, monkeypatch, include_own):
        # c01 and c02 start five years late, so without c00 the early
        # quarters have no contributor and only c00 fails under exclusion
        base = _ar1_panel(81, C=3, T=120)
        panel = InflationPanel.from_blocks({
            "c00": ("1970Q1", base.prices[:, 0]),
            "c01": ("1975Q1", base.prices[:, 1]),
            "c02": ("1975Q1", base.prices[:, 2]),
        })
        cfg = CountryStudyConfig(h=4, p_max=2, include_own_country=include_own)
        calls = []
        real = inflation._contributor_mean
        monkeypatch.setattr(inflation, "_contributor_mean",
                            lambda qoq, exclude=None: calls.append(exclude) or real(qoq, exclude))
        report = run_study(panel, cfg)
        assert calls == ([None] if include_own else [0, 1, 2])
        one_by_one, failures = [], {}
        for country in panel.countries:
            try:
                one_by_one.append(country_encompassing(panel, country, cfg))
            except SplitEncError as exc:
                failures[country] = str(exc)
        assert report.results == tuple(one_by_one)
        assert report.failures == failures
        if not include_own:
            assert failures == {"c00": "country c00: no contributing country at quarter index 1"}

    def test_csv_and_json_round_trip(self, fixture_panel):
        report = run_study(fixture_panel, CountryStudyConfig())
        csv_text = report.render("csv")
        assert csv_text.splitlines()[0] == \
            "country,rmse_ratio,p_mu0_0.4,p_mu0_0.45,selected_lag,n_forecasts"
        import json as _json

        payload = _json.loads(report.render("json"))
        assert [r["country"] for r in payload["results"]] == ["aaa", "bbb", "ccc"]
        first = payload["results"][0]
        assert first["rmse_ratio"] == report.results[0].rmse_ratio
