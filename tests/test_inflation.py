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
    InsufficientData,
    InvalidSplit,
    NonPositivePrice,
    ParseError,
    SplitEncError,
    ValidationError,
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


def _ar1_prices(seed, C=4, T=160, phi=0.5, mean=2.0, sd=1.0):
    """T x C price levels of independent AR(1) quarter-on-quarter inflation (null design)."""
    g = RngStream(seed, 0).generator()
    eps = sd * g.standard_normal((T, C))
    pi = np.empty((T, C))
    pi[0] = mean + eps[0]
    for t in range(1, T):
        pi[t] = mean * (1 - phi) + phi * pi[t - 1] + eps[t]
    return np.column_stack([100.0 * np.exp(np.cumsum(pi[:, i]) / 400.0) for i in range(C)])


def _columns_panel(prices):
    """Countries c00, c01, ... with one block per column of prices, all from 1970Q1."""
    return InflationPanel({f"c{i:02d}": ("1970Q1", prices[:, i])
                           for i in range(prices.shape[1])})


def _ar1_panel(seed, **kwargs):
    return _columns_panel(_ar1_prices(seed, **kwargs))


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

    def test_rejects_h_below_one(self):
        with pytest.raises(ValueError, match="^h must be >= 1$"):
            annualized_inflation(np.ones(5), h=0)


_PANEL_NAMES = ("aaa", "bbb", "ccc", "ddd")
_LABEL_STYLES = ("{y}Q{q}", "{y}-Q{q}", "{y}q{q}", " {y}Q{q} ")


def _label(q, style):
    return _LABEL_STYLES[style].format(y=q // 4, q=q % 4 + 1)


_TWO_BLOCKS = {"a": ("1970Q1", [100.0, 101.0, 102.0, 103.0]),
               "b": ("1970Q1", [50.0, 51.0, 52.0])}


class TestInflationPanel:
    @pytest.mark.parametrize("blocks, message", [
        ({}, "a panel needs at least one country"),
        ({**_TWO_BLOCKS, "b": ("1970Q1", [])}, "country b prices must be a non-empty 1-D array"),
        ({**_TWO_BLOCKS, "b": ("1970Q1", [[50.0, 51.0], [52.0, 53.0]])},
         "country b prices must be a non-empty 1-D array"),
        ({**_TWO_BLOCKS, "b": ("1970Q1", [50.0, np.nan, 52.0])},
         "country b prices must be finite and positive"),
        ({**_TWO_BLOCKS, "b": ("1970Q1", [50.0, np.inf, 52.0])},
         "country b prices must be finite and positive"),
        ({**_TWO_BLOCKS, "a": ("1970Q1", [100.0, 0.0, 102.0])},
         "country a prices must be finite and positive"),
        ({**_TWO_BLOCKS, "b": ("1970Q5", [50.0])},
         "bad quarter label '1970Q5' (expected YYYYQq or YYYY-Qq)"),
    ], ids=["no-countries", "empty", "2-d", "non-finite", "infinite", "non-positive", "label"])
    def test_each_check_names_its_rule(self, blocks, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            InflationPanel(blocks)

    def test_valid_fields_load(self):
        panel = InflationPanel(_TWO_BLOCKS)
        assert panel.dates == ("1970Q1", "1970Q2", "1970Q3", "1970Q4")
        assert panel.block("b")[0] == 0 and panel.block("b")[1].tolist() == [50.0, 51.0, 52.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_blocks_come_back_on_the_span_of_their_dates(self, data):
        names = data.draw(st.permutations(_PANEL_NAMES))[:data.draw(st.integers(1, 4))]
        starts = {name: 4 * 1990 + data.draw(st.integers(-20, 20)) for name in names}
        prices = {name: data.draw(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                                           min_size=1, max_size=40)) for name in names}
        styles = {name: data.draw(st.integers(0, len(_LABEL_STYLES) - 1)) for name in names}
        panel = InflationPanel({name: (_label(starts[name], styles[name]), prices[name])
                                for name in names})
        assert panel.countries == tuple(names)
        lo = min(starts.values())
        hi = max(starts[name] + len(prices[name]) - 1 for name in names)
        assert panel.dates == tuple(_label(q, 0) for q in range(lo, hi + 1))
        for name in names:
            i0, block = panel.block(name)
            assert panel.dates[i0] == _label(starts[name], 0)
            assert block.tobytes() == np.array(prices[name]).tobytes()


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"countries": ["aaa", "aaa", "bbb"]}, "countries names aaa more than once"),
        ({"start": "1990Q1", "end": "1980Q1"}, "start 1990Q1 is later than end 1980Q1"),
        ({"start": "1995Q7"}, "start: bad quarter label '1995Q7' \\(expected YYYYQq or YYYY-Qq\\)"),
        ({"start": "1990Q1", "end": "1994"}, "end: bad quarter label '1994' \\(expected .*\\)"),
    ], ids=["repeated-country", "start-after-end", "bad-start", "bad-end"])
    def test_conflicting_filters_rejected_before_any_row_is_read(self, fixture_panel_path,
                                                                 tmp_path, kwargs, message):
        # the missing file is never opened: the filters fail first
        for path in (fixture_panel_path, tmp_path / "missing.csv"):
            with pytest.raises(ValidationError, match=f"^{message}$") as raised:
                load_panel(path, **kwargs)
            assert type(raised.value) is ValidationError

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


_BLANK_ROWS = ("", "   ", ",,", " , , ")
_BAD_FIELDS = ("aaa,1990Q1", "aaa,1990Q1,100,1", " ,1990Q1,100")
_BAD_LABELS = ("1990Q5", "90Q1", "", "1990Q1x")
_BAD_PRICES = ("abc", "", "nan", "inf", "-inf", "1e400", "0", "-2.5", "0x10")


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
        "start": st.integers(4 * 1989, 4 * 1994).map(lambda q: _label(q, 0))
        | st.sampled_from(["1995Q7", "2030Q1"]),
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
            blocks = _oracles.load_panel_rows(path, **kwargs)
        except SplitEncError as exc:
            with pytest.raises(type(exc)) as raised:
                load_panel(path, **kwargs)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        panel = load_panel(path, **kwargs)
        assert panel.countries == tuple(blocks)
        for country, (label, prices) in blocks.items():
            i0, block = panel.block(country)
            assert (panel.dates[i0], block.tolist()) == (label, prices)

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
        panel = InflationPanel({"solo": ("1980Q1", prices)})
        g = _global_inflation_source(panel)(None)
        own = annualized_inflation(prices, 1)
        assert np.isnan(g[0])
        assert_array_equal(g[1:], own[1:])

    def test_opposite_rates_average_to_zero(self):
        # one quarter of +2 and -2 annualized quarter-on-quarter inflation
        up = np.array([100.0] * 10 + [100.0 * math.exp(2 / 400)] * 10)
        down = np.array([100.0] * 10 + [100.0 * math.exp(-2 / 400)] * 10)
        panel = InflationPanel({"up": ("1970Q1", up), "dn": ("1970Q1", down)})
        g = _global_inflation_source(panel)(None)
        assert_allclose(g[10], 0.0, atol=1e-12)
        assert_allclose(g[1:10], 0.0, atol=1e-12)

    def test_fixture_matches_independent_recomputation(self, fixture_panel):
        g = _global_inflation_source(fixture_panel)(None)
        # spreadsheet-style recomputation: per quarter, average the available
        # log price relatives country by country
        T = len(fixture_panel.dates)
        for t in [1, 20, 60, 100, T - 1]:
            vals = []
            for country in fixture_panel.countries:
                b0, prices = fixture_panel.block(country)
                if b0 < t < b0 + len(prices):
                    vals.append(400.0 * math.log(prices[t - b0] / prices[t - b0 - 1]))
            assert_allclose(g[t], sum(vals) / len(vals), rtol=1e-12)

    def test_interior_empty_quarter_raises(self):
        a = np.full(90, 100.0)
        b = np.full(90, 100.0)
        panel = InflationPanel({"a": ("1970Q1", a), "b": ("2000Q1", b)})
        with pytest.raises(EmptyQuarter):
            _global_inflation_source(panel)(None)

    def test_exclusion_interior_gap_names_its_quarter(self):
        # b ends in 1984Q4 and c starts in 1985Q1, which has no prior c price
        base = _ar1_prices(7, C=3, T=120)
        panel = InflationPanel({"a": ("1970Q1", base[:, 0]),
                                "b": ("1970Q1", base[:60, 1]),
                                "c": ("1985Q1", base[60:, 2])})
        source = _global_inflation_source(panel)
        for _ in range(2):  # raised again when repeated
            with pytest.raises(EmptyQuarter, match="^no contributing country at 1985Q1$"):
                source(0)
        for exclude in (None, 1, 2):
            assert np.isnan(source(exclude)[0]) and np.isfinite(source(exclude)[1:]).all()

    def test_exclusion_with_no_other_country_on_the_block(self):
        # a ends in 1989Q4 and b and c start in 1990Q1: without a, none of a's quarters
        # has a contributor
        base = _ar1_prices(7, C=3, T=160)
        panel = InflationPanel({"a": ("1970Q1", base[:80, 0]),
                                "b": ("1990Q1", base[80:, 1]),
                                "c": ("1990Q1", base[80:, 2])})
        cfg = CountryStudyConfig(h=4, p2=4, p_max=2, include_own_country=False)
        with pytest.raises(InsufficientData,
                           match="^country a: no contributing country on any of its quarters$"):
            country_encompassing(panel, "a", cfg)

    @pytest.mark.parametrize("country, first_origin, last_target", [
        ("a", 30, 120),  # no other country before 1975Q2: the global lags start there
        ("b", 9, 100),   # a covers every quarter of b
        ("c", 9, 84),    # no other country after 1999Q4: the targets end 4 quarters later
    ])
    def test_exclusion_trims_the_quarters_no_other_country_covers(self, country, first_origin,
                                                                   last_target):
        # a: 1970Q1-1999Q4, b: 1975Q1-1999Q4, c: 1980Q1-2004Q4
        base = _ar1_prices(7, C=3, T=120)
        panel = InflationPanel({"a": ("1970Q1", base[:, 0]),
                                "b": ("1975Q1", base[:100, 1]),
                                "c": ("1980Q1", base[:100, 2])})
        cfg = CountryStudyConfig(h=4, p2=4, p_max=2, include_own_country=False)
        bench, large, _ = _designs(panel, country, cfg, selected_lag=0)
        assert (large.first_origin, large.last_target) == (first_origin, last_target)
        assert bench.targets.tobytes() == large.targets.tobytes()
        # the newest global lag is the mean of the other countries' qoq inflation
        qoq = inflation._qoq_matrix(panel)
        j = panel.countries.index(country)
        b0 = panel.block(country)[0]
        dates = b0 + np.arange(first_origin - 1, last_target) - cfg.h
        expected = np.nanmean(np.delete(qoq, j, axis=1)[dates], axis=1)
        assert_allclose(large.regressors[:, -(cfg.p2 + 1)], expected, rtol=1e-12)

    def test_identical_countries_reduce_to_own_series(self):
        prices = 100 * np.exp(np.cumsum(np.sin(np.arange(90)) + 2) / 400)
        own = annualized_inflation(prices, 1)
        # averaging 4 identical values is exact in floats (powers of two)
        panel4 = InflationPanel(
            {name: ("1975Q1", prices) for name in ("a", "b", "c", "d")})
        assert_array_equal(_global_inflation_source(panel4)(None)[1:], own[1:])
        # odd counts can round the last bit of the mean
        panel3 = InflationPanel(
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
            return InflationPanel(
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
                  "ok": ("1970Q1", _ar1_prices(5, C=1)[:, 0])}
        panel = InflationPanel(blocks)
        with pytest.raises(SplitEncError, match="flat"):
            country_encompassing(panel, "flat", CountryStudyConfig(h=4, p_max=2))

    def test_no_lookahead_in_forecasts(self):
        # changing the final quarters cannot alter earlier forecast errors
        cfg = CountryStudyConfig(h=4, p_max=0, mu0_list=(0.45,))
        prices = _ar1_prices(21, C=3)
        panel = _columns_panel(prices)
        bench, large, T_i = _designs(panel, "c00", cfg, selected_lag=0)
        k0 = int(T_i * cfg.pi0)
        e_full = expanding_window_forecast_errors(large, k0)

        tail = 6
        prices[-tail:, 0] *= np.exp(np.linspace(0.01, 0.06, tail))  # shock the tail
        panel2 = _columns_panel(prices)
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
        prices = _ar1_prices(41)
        cfg = CountryStudyConfig(h=4, p_max=4)
        base = country_encompassing(_columns_panel(prices), "c01", cfg)
        scale = np.ones(prices.shape[1])
        scale[1] = 7.0
        scaled_panel = _columns_panel(prices * scale)
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

    @pytest.mark.parametrize("field, value", [("h", 0), ("p2", -1), ("p_max", -1)])
    def test_lag_counts_and_horizon_checked(self, field, value):
        with pytest.raises(ValueError, match=r"^need h >= 1, p2 >= 0, p_max >= 0$"):
            CountryStudyConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("h", 1.5), ("p2", 1.5), ("p_max", 2.5),
                                              ("h", True), ("p_max", 4.0)])
    def test_lag_counts_and_horizon_must_be_integers(self, field, value):
        # they slice the panel: a float or a bool would stop run_study part way
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            CountryStudyConfig(**{field: value})

    @pytest.mark.parametrize("mu0_list", [(0.40, 0.45, 0.40), (0.40, 0.4000001)])
    def test_mu0_list_sharing_a_label_rejected(self, mu0_list):
        # the p-value columns are labelled p_mu0_{mu0:g}
        with pytest.raises(InvalidSplit, match="share the label 0.4"):
            CountryStudyConfig(mu0_list=mu0_list)

    def test_failures_reported_inline(self):
        blocks = {"flat": ("1970Q1", np.full(160, 100.0))}
        good = _ar1_prices(71, C=2)
        for i in range(2):
            blocks[f"c{i:02d}"] = ("1970Q1", good[:, i])
        panel = InflationPanel(blocks)
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
        # c01 and c02 start five years late, so without c00 the early quarters
        # have no contributor, and c00's designs and first origin start after them
        base = _ar1_prices(81, C=3, T=120)
        panel = InflationPanel({
            "c00": ("1970Q1", base[:, 0]),
            "c01": ("1975Q1", base[:, 1]),
            "c02": ("1975Q1", base[:, 2]),
        })
        cfg = CountryStudyConfig(h=4, p_max=2, include_own_country=include_own)
        calls = []
        real = inflation._contributor_mean
        monkeypatch.setattr(inflation, "_contributor_mean",
                            lambda qoq, dates, exclude=None:
                            calls.append(exclude) or real(qoq, dates, exclude))
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
        assert failures == {}
        if not include_own:
            # g starts in 1975Q2, block index 21, so k0 is taken on the 100 quarters
            # from 1975Q1: k0 = 20 + floor(100 * 0.25) = 45, with origins 45..116
            origins = []
            real_errors = inflation.expanding_window_forecast_errors
            monkeypatch.setattr(inflation, "expanding_window_forecast_errors",
                                lambda design, k0: origins.append(k0)
                                or real_errors(design, k0))
            assert country_encompassing(panel, "c00", cfg).n_forecasts == 72
            assert origins == [45, 45]

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
