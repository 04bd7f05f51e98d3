"""Country-level inflation forecasting study on a quarterly price panel.

For each country two nested direct h-quarter forecasting models are compared:
an autoregression of annualized inflation on its own quarter-on-quarter lags,
and the same model augmented with lags of a global inflation proxy (the
cross-country average of quarter-on-quarter inflation).  Forecasts are
produced recursively with an expanding window starting at k0 = floor(T * pi0)
of each country's usable sample, and the encompassing test asks whether the
global-augmented forecasts add predictive content.

Input panels are long-format CSV (header ``country,date,hcpi``) of strictly
positive headline CPI levels on a quarterly date index.  Countries with
interior gaps keep their longest contiguous block of quarters.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import InitVar, dataclass, field

import numpy as np

from .enc_test import (
    ForecastErrorSet,
    HacConfig,
    SplitSpec,
    distinct_mu0_list,
    encompassing_test,
    unit_fraction,
)
from .errors import (
    CoverageError,
    EmptyQuarter,
    InsufficientData,
    NonPositivePrice,
    ParseError,
    SplitEncError,
    ValidationError,
)
from .regression import DirectDesign, bic_select_lag, expanding_window_forecast_errors, lag_columns
from .tables import csv_rows, csv_text, json_text, markdown_text

MIN_QUARTERS = 80  # minimum usable contiguous quarters per country

_DATE_RE = re.compile(r"^(\d{4})-?[Qq]([1-4])$")


def parse_quarter(text: str) -> int:
    """Quarter label ('1970Q1' or '1970-Q1') -> integer quarter index."""
    m = _DATE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad quarter label {text!r} (expected YYYYQq or YYYY-Qq)")
    year, q = int(m.group(1)), int(m.group(2))
    return year * 4 + (q - 1)


def _quarter_label(qidx: int) -> str:
    return f"{qidx // 4}Q{qidx % 4 + 1}"


@dataclass(frozen=True)
class InflationPanel:
    """Quarterly CPI levels of several countries, one block of consecutive quarters each.

    Built from ``blocks``: {country: (label of the block's first quarter,
    prices)}, where prices is a non-empty 1-D array of finite, strictly
    positive levels.  ``countries`` keeps the dict's order, and ``dates``
    runs from the earliest block start to the latest block end.
    """

    blocks: InitVar[dict]
    countries: tuple = field(init=False)
    dates: tuple = field(init=False)
    _rows: dict = field(init=False, repr=False)  # country -> (row offset on dates, prices)

    def __post_init__(self, blocks):
        starts = {}
        for name, (label, prices) in blocks.items():
            prices = np.array(prices, dtype=float)
            if prices.ndim != 1 or prices.size == 0:
                raise ValueError(f"country {name} prices must be a non-empty 1-D array")
            if not np.all((prices > 0.0) & (prices < math.inf)):
                raise ValueError(f"country {name} prices must be finite and positive")
            starts[name] = (parse_quarter(label), prices)
        if not starts:
            raise ValueError("a panel needs at least one country")
        lo = min(q for q, _ in starts.values())
        hi = max(q + len(p) for q, p in starts.values())
        object.__setattr__(self, "countries", tuple(starts))
        object.__setattr__(self, "dates", tuple(_quarter_label(q) for q in range(lo, hi)))
        object.__setattr__(self, "_rows", {c: (q - lo, p) for c, (q, p) in starts.items()})

    def block(self, country: str):
        """(row offset on ``dates``, price vector) of a country's block."""
        return self._rows[country]


@dataclass(frozen=True)
class CountryStudyConfig:
    """Tuning inputs of the per-country encompassing study."""

    h: int = 4                      # forecast horizon in quarters
    pi0: float = 0.25               # fraction of the sample before the first origin
    p2: int = 4                     # lag count of the global predictor
    p_max: int = 8                  # BIC search cap for the own-lag count
    mu0_list: tuple = (0.40, 0.45)
    hac: HacConfig = field(default_factory=HacConfig)
    include_own_country: bool = True  # global average includes the target country

    def __post_init__(self):
        for name in ("h", "p2", "p_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.h < 1 or self.p2 < 0 or self.p_max < 0:
            raise ValueError("need h >= 1, p2 >= 0, p_max >= 0")
        unit_fraction(self.pi0, "pi0")
        object.__setattr__(self, "mu0_list", distinct_mu0_list(self.mu0_list))


@dataclass(frozen=True)
class CountryResult:
    country: str
    rmse_ratio: float        # RMSE(global model) / RMSE(autoregression)
    p_values: dict           # mu0 -> one-sided p-value
    selected_lag: int
    n_forecasts: int


def _read_panel_rows(path):
    """{country: {quarter index: price}} of a panel CSV.

    Each distinct quarter label is parsed once.  ``csv_rows`` skips blank
    rows and checks the header and each row's field count; each row is then
    checked as it is read, in this order: country code, quarter, price,
    duplicate entry.  The first failing check raises the ParseError of
    that line.
    """
    by_country = {}
    quarters = {}  # label text -> quarter index
    for lineno, (name, label, text) in csv_rows(path, ["country", "date", "hcpi"]):
        name = name.strip()
        if not name:
            raise ParseError(f"line {lineno}: empty country code")
        qidx = quarters.get(label)
        if qidx is None:
            try:
                qidx = quarters[label] = parse_quarter(label)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        try:
            price = float(text)
        except ValueError:
            raise ParseError(f"line {lineno}: bad price {text!r}") from None
        if not 0.0 < price < math.inf:
            raise ParseError(f"line {lineno}: price must be positive, got {text}")
        series = by_country.get(name)
        if series is None:
            series = by_country[name] = {}
        if qidx in series:
            raise ParseError(f"line {lineno}: duplicate entry for {name} {label}")
        series[qidx] = price
    return by_country


def check_panel_filters(countries=None, start=None, end=None, prefix=""):
    """(start, end) quarter indices of ``load_panel``'s filters, None where not given.

    A bad quarter label, ``start`` later than ``end`` and a country named
    twice in ``countries`` raise ValidationError naming the argument, with
    ``prefix`` before each argument name (the command line passes "--").
    """
    bounds = []
    for name, label in (("start", start), ("end", end)):
        try:
            bounds.append(None if label is None else parse_quarter(label))
        except ValueError as exc:
            raise ValidationError(f"{prefix}{name}: {exc}") from None
    q_lo, q_hi = bounds
    if q_lo is not None and q_hi is not None and q_lo > q_hi:
        raise ValidationError(f"{prefix}start {start} is later than {prefix}end {end}")
    if countries is not None:
        repeated = sorted({c for c in countries if countries.count(c) > 1})
        if repeated:
            raise ValidationError(f"{prefix}countries names {', '.join(repeated)} more than once")
    return q_lo, q_hi


def load_panel(path, countries=None, start=None, end=None) -> InflationPanel:
    """Read and validate a long-format CSV panel.

    The filters are checked by ``check_panel_filters`` before any row is
    read.  They restrict the panel to the requested countries and quarter
    range before coverage rules apply.  Each country keeps its longest
    contiguous block of quarters (earliest on ties) and must retain at least
    ``MIN_QUARTERS`` of them; at least two countries must survive.
    """
    q_lo, q_hi = check_panel_filters(countries, start, end)
    by_country = _read_panel_rows(path)
    if countries is not None:
        missing = [c for c in countries if c not in by_country]
        if missing:
            raise CoverageError(f"countries not in file: {', '.join(missing)}")
        by_country = {c: by_country[c] for c in countries}

    blocks = {}
    for name, series in by_country.items():
        qs = sorted(q for q in series
                    if (q_lo is None or q >= q_lo) and (q_hi is None or q <= q_hi))
        best_start, best_len, run_start = None, 0, None
        for i, q in enumerate(qs):
            if i == 0 or q != qs[i - 1] + 1:
                run_start = i
            run_len = i - run_start + 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        if best_len < MIN_QUARTERS:
            raise CoverageError(
                f"country {name} has {best_len} usable quarters (< {MIN_QUARTERS})"
            )
        kept = qs[best_start: best_start + best_len]
        blocks[name] = (_quarter_label(kept[0]), [series[q] for q in kept])
    if len(blocks) < 2:
        raise CoverageError("need at least 2 countries after filtering")
    return InflationPanel(blocks)


def annualized_inflation(prices, h: int) -> np.ndarray:
    """h-quarter annualized log inflation (400/h) * ln(P_t / P_{t-h}).

    The first h entries are unavailable and returned as NaN.
    """
    prices = np.asarray(prices, dtype=float)
    if h < 1:
        raise ValueError("h must be >= 1")
    if not np.all(np.isfinite(prices)) or not np.all(prices > 0.0):
        raise NonPositivePrice("prices must be finite and strictly positive")
    out = np.full(prices.shape[0], np.nan)
    out[h:] = (400.0 / h) * np.log(prices[h:] / prices[:-h])
    return out


def _qoq_matrix(panel: InflationPanel) -> np.ndarray:
    """Quarter-on-quarter inflation per country on the panel's date axis."""
    out = np.full((len(panel.dates), len(panel.countries)), np.nan)
    for j, country in enumerate(panel.countries):
        i0, prices = panel.block(country)
        out[i0:i0 + prices.shape[0], j] = annualized_inflation(prices, 1)
    return out


def _contributor_mean(qoq: np.ndarray, dates, exclude: int | None = None) -> np.ndarray:
    """Per-quarter mean quarter-on-quarter inflation of the countries with a value there.

    ``exclude`` leaves one column out.  Quarters before the first and after
    the last quarter with a contributing country are NaN (the panel's first
    quarter always is: it has no prior price anywhere); an empty quarter
    between them is a genuine gap and raises EmptyQuarter with its label.
    """
    avail = np.isfinite(qoq)
    if exclude is not None:
        avail[:, exclude] = False
    counts = avail.sum(axis=1)
    sums = np.where(avail, qoq, 0.0).sum(axis=1)
    contributed = np.flatnonzero(counts)
    # a jump between two contributed quarters skips the quarter after the first of them
    gaps = np.flatnonzero(np.diff(contributed) > 1)
    if gaps.size:
        raise EmptyQuarter(f"no contributing country at {dates[contributed[gaps[0]] + 1]}")
    return np.divide(sums, counts, out=np.full(len(counts), np.nan), where=counts > 0)


def _global_inflation_source(panel: InflationPanel):
    """exclude -> the panel's global inflation without column ``exclude``.

    Global inflation averages the quarter-on-quarter inflation of the
    countries with data each quarter; ``exclude`` None keeps every country.
    Each series is computed once per source; a call that raises EmptyQuarter
    raises again when repeated.
    """
    qoq = _qoq_matrix(panel)
    return functools.cache(lambda exclude: _contributor_mean(qoq, panel.dates, exclude))


def _country_designs(config: CountryStudyConfig, selected_lag: int,
                     pih: np.ndarray, pi1: np.ndarray, g: np.ndarray):
    """Benchmark and global-augmented designs on a country's block.

    pih and pi1 are the block's h-quarter and one-quarter annualized
    inflation, and g the global inflation on the same quarters.  Both
    designs share the same target rows (the intersection of the two models'
    usable ranges: every lag finite), so dropping the global columns of the
    large design reproduces the benchmark exactly.
    """
    h, p2 = config.h, config.p2
    # _contributor_mean raises on an interior empty quarter, so g lacks values
    # only before its first and after its last finite entry; the target rows
    # end where the newest global lag g_{t-h} reaches the last one
    span = np.flatnonzero(np.isfinite(g))
    if span.size == 0:
        raise InsufficientData("no contributing country on any of its quarters")
    g_first = int(span[0])
    T_i = min(pih.shape[0], int(span[-1]) + h + 1)
    # 0-based first target index: own lags need pi1 back to index 1, global
    # lags need g back to its first finite entry
    t0 = max(h + selected_lag + 1, h + p2 + g_first)
    if t0 >= T_i:
        raise InsufficientData(f"no usable target rows at h={h}")
    targets = pih[t0:T_i]
    ones = np.ones(T_i - t0)
    own = lag_columns(pi1[:T_i], h, selected_lag, t0)
    glob = lag_columns(g[:T_i], h, p2, t0)
    bench = DirectDesign(
        regressors=np.column_stack([ones] + own), targets=targets,
        h=h, first_origin=t0 + 1,
    )
    large = DirectDesign(
        regressors=np.column_stack([ones] + own + glob), targets=targets,
        h=h, first_origin=t0 + 1,
    )
    return bench, large


def country_encompassing(panel: InflationPanel, country: str,
                         config: CountryStudyConfig, global_source=None) -> CountryResult:
    """Run the nested forecasting comparison for one country.

    Selects the own-lag count by BIC on the full sample, builds the two
    nested designs, produces expanding-window forecasts of h-quarter
    annualized inflation from k0 = trim + floor((T_i - trim) * pi0), with
    trim = max(0, g_first - 1) for g_first the block index of the first
    global value (trim is 0 unless ``include_own_country`` is False and the
    other countries start later), and reports the RMSE
    ratio (global over autoregression) plus encompassing p-values per mu0.
    ``global_source`` is the panel's ``_global_inflation_source``; a study
    passes one to every country so the global series is computed once.
    """
    if country not in panel.countries:
        raise ValueError(f"country {country!r} not in panel")
    try:
        if global_source is None:
            global_source = _global_inflation_source(panel)
        exclude = None if config.include_own_country else panel.countries.index(country)
        b0, prices = panel.block(country)
        h = config.h
        pih = annualized_inflation(prices, h)
        pi1 = annualized_inflation(prices, 1)
        # shift by one quarter so the lag source is finite everywhere accessed
        selected = bic_select_lag(pih[1:], h=h, p_max=config.p_max, lag_source=pi1[1:])
        g = global_source(exclude)[b0:b0 + prices.shape[0]]
        bench, large = _country_designs(config, selected, pih, pi1, g)
        # k0 is taken on the quarters from the one before g's first value: under
        # --exclude-own the designs skip the quarters no other country covers
        trim = max(0, int(np.argmax(np.isfinite(g))) - 1)
        k0 = trim + int(math.floor((prices.shape[0] - trim) * config.pi0))
        # the first fit uses the target rows dated first_origin..k0
        if k0 - large.first_origin + 1 < large.n_params:
            raise InsufficientData(
                f"k0={k0} leaves too few rows for the first fit (first usable target "
                f"{large.first_origin}, {large.n_params} parameters with p2={config.p2})")
        e1 = expanding_window_forecast_errors(bench, k0)
        e2 = expanding_window_forecast_errors(large, k0)
        fes = ForecastErrorSet(e1, e2, h=h, k0=k0)
        results = [encompassing_test(fes, SplitSpec(mu0), config.hac) for mu0 in config.mu0_list]
        return CountryResult(
            country=country,
            rmse_ratio=math.sqrt(results[0].mse2 / results[0].mse1),
            p_values={mu0: res.p_value for mu0, res in zip(config.mu0_list, results)},
            selected_lag=selected,
            n_forecasts=fes.n,
        )
    except SplitEncError as exc:
        raise exc.__class__(f"country {country}: {exc}") from exc


@dataclass(frozen=True)
class StudyReport:
    """Per-country results plus inline failures, with table renderers."""

    results: tuple
    failures: dict
    mu0_list: tuple

    def render(self, format: str = "markdown") -> str:
        if format == "markdown":
            return self._markdown()
        cols = ["country", "rmse_ratio"] + [f"p_mu0_{m:g}" for m in self.mu0_list] \
            + ["selected_lag", "n_forecasts"]
        rows = [[r.country, r.rmse_ratio] + [r.p_values[m] for m in self.mu0_list]
                + [r.selected_lag, r.n_forecasts] for r in self.results]
        if format == "json":
            return json_text({"results": [dict(zip(cols, row)) for row in rows],
                              "failures": dict(self.failures)})
        if format == "csv":
            errors = [[country, f"error: {message}"] + [""] * (len(cols) - 2)
                      for country, message in self.failures.items()]
            return csv_text(cols, rows + errors)
        raise ValueError(f"unknown format {format!r}")

    def _markdown(self) -> str:
        head = ["country", "rmse_ratio"] + [f"p (mu0={m:g})" for m in self.mu0_list] \
            + ["lag", "n"]
        rows = []
        for r in self.results:
            # bold marks a country where the global model both lowers RMSE
            # and rejects encompassing at the 10% level
            strong = r.rmse_ratio < 1.0 and min(r.p_values.values()) < 0.10
            fmt = (lambda s: f"**{s}**") if strong else (lambda s: s)
            cells = [r.country, fmt(f"{r.rmse_ratio:.3f}")]
            cells += [fmt(f"{r.p_values[m]:.3f}") for m in self.mu0_list]
            cells += [str(r.selected_lag), str(r.n_forecasts)]
            rows.append(cells)
        rows += [[country, f"error: {message}"] for country, message in self.failures.items()]
        return markdown_text(head, rows)


def run_study(panel: InflationPanel, config: CountryStudyConfig) -> StudyReport:
    """Run the per-country comparison across the whole panel.

    Countries whose pipeline fails are reported inline and do not stop the
    study.
    """
    results = []
    failures = {}
    global_source = _global_inflation_source(panel)
    for country in panel.countries:
        try:
            results.append(country_encompassing(panel, country, config, global_source))
        except SplitEncError as exc:
            failures[country] = str(exc)
    return StudyReport(results=tuple(results), failures=failures,
                       mu0_list=config.mu0_list)
