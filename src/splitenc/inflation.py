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

import csv
import functools
import math
import re
from dataclasses import dataclass, field

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
)
from .regression import DirectDesign, bic_select_lag, expanding_window_forecast_errors
from .tables import csv_text, json_text, markdown_text

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
    """Quarterly CPI levels for several countries on a common date axis.

    ``prices`` is T x C with NaN outside each country's covered block;
    ``coverage`` marks the observed cells.  Each country's coverage is one
    contiguous run of quarters, and dates are gap-free and increasing.
    """

    countries: tuple
    dates: tuple
    prices: np.ndarray
    coverage: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        coverage = np.asarray(self.coverage, dtype=bool)
        C = len(self.countries)
        T = len(self.dates)
        if prices.shape != (T, C) or coverage.shape != (T, C):
            raise ValueError("prices/coverage must be T x C aligned with dates and countries")
        qidx = [parse_quarter(d) for d in self.dates]
        if any(b - a != 1 for a, b in zip(qidx, qidx[1:])):
            raise ValueError("dates must be consecutive quarters")
        for j, name in enumerate(self.countries):
            obs = np.flatnonzero(coverage[:, j])
            if obs.size == 0:
                raise ValueError(f"country {name} has no observations")
            if obs[-1] - obs[0] + 1 != obs.size:
                raise ValueError(f"country {name} coverage is not contiguous")
            vals = prices[obs, j]
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"country {name} has non-finite prices inside coverage")
            if not np.all(vals > 0.0):
                raise ValueError(f"country {name} has non-positive prices")
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "coverage", coverage)

    @classmethod
    def from_blocks(cls, blocks: dict) -> "InflationPanel":
        """Build a panel from {country: (start_label, price_array)} blocks."""
        starts = {c: parse_quarter(s) for c, (s, _) in blocks.items()}
        ends = {c: starts[c] + len(p) - 1 for c, (_, p) in blocks.items()}
        lo, hi = min(starts.values()), max(ends.values())
        dates = tuple(_quarter_label(q) for q in range(lo, hi + 1))
        countries = tuple(blocks)
        T, C = hi - lo + 1, len(countries)
        prices = np.full((T, C), np.nan)
        coverage = np.zeros((T, C), dtype=bool)
        for j, c in enumerate(countries):
            _, vals = blocks[c]
            i0 = starts[c] - lo
            prices[i0:i0 + len(vals), j] = vals
            coverage[i0:i0 + len(vals), j] = True
        return cls(countries=countries, dates=dates, prices=prices, coverage=coverage)

    def block(self, country: str):
        """(start_row, price_vector) of a country's contiguous coverage."""
        j = self.countries.index(country)
        obs = np.flatnonzero(self.coverage[:, j])
        return int(obs[0]), self.prices[obs[0]: obs[-1] + 1, j]


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
        if self.h < 1 or self.p2 < 0 or self.p_max < 0:
            raise ValueError("need h >= 1, p2 >= 0, p_max >= 0")
        unit_fraction(self.pi0, "pi0")
        if len(self.mu0_list) == 0:
            raise ValueError("mu0_list must not be empty")
        object.__setattr__(self, "mu0_list", distinct_mu0_list(self.mu0_list))


@dataclass(frozen=True)
class CountryResult:
    country: str
    rmse_ratio: float        # RMSE(global model) / RMSE(autoregression)
    p_values: dict           # mu0 -> one-sided p-value
    selected_lag: int
    n_forecasts: int


def _read_panel_rows(path):
    """({country: {quarter index: row}}, price per row) of a panel CSV.

    Rows count the file's non-blank data rows in order.  Each distinct
    quarter label is parsed once, and the prices are converted after the
    rows are read.  A faulty file raises the ParseError of its first faulty
    line, and on that line the first of: field count, country code, quarter,
    price, duplicate entry.
    """
    by_country = {}
    quarters = {}          # label text -> quarter index
    texts, lines = [], []  # price text and line number per row
    fault = None           # the first fault other than a bad price
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        if [c.strip().lower() for c in header] != ["country", "date", "hcpi"]:
            raise ParseError(f"expected header country,date,hcpi, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            name = row[0].strip() if len(row) == 3 else ""
            if not name:
                if not any(c.strip() for c in row):
                    continue
                fault = f"expected 3 fields, got {len(row)}" if len(row) != 3 \
                    else "empty country code"
                break
            label = row[1]
            qidx = quarters.get(label)
            if qidx is None:
                try:
                    qidx = quarters[label] = parse_quarter(label)
                except ValueError as exc:
                    fault = str(exc)
                    break
            texts.append(row[2])
            lines.append(lineno)
            series = by_country.get(name)
            if series is None:
                series = by_country[name] = {}
            if qidx in series:
                fault = f"duplicate entry for {name} {label}"
                break
            series[qidx] = len(texts) - 1
    # the rows read so far end at the faulty line, whose own price comes
    # before a duplicate entry in the order of checks
    prices = _price_vector(texts, lines)
    if fault is not None:
        raise ParseError(f"line {lineno}: {fault}")
    return by_country, prices


def _price_vector(texts, lines) -> np.ndarray:
    """The price texts as floats; the first line with a bad price raises ParseError."""
    try:
        prices = np.fromiter(map(float, texts), float, len(texts))
        n_numbers = len(texts)
    except ValueError:
        n_numbers = 0
        for text in texts:
            try:
                float(text)
            except ValueError:
                break
            n_numbers += 1
        prices = np.fromiter(map(float, texts[:n_numbers]), float, n_numbers)
    bad = np.flatnonzero(~(np.isfinite(prices) & (prices > 0.0)))
    if bad.size:
        i = bad[0]
        raise ParseError(f"line {lines[i]}: price must be positive, got {texts[i]}")
    if n_numbers < len(texts):
        raise ParseError(f"line {lines[n_numbers]}: bad price {texts[n_numbers]!r}")
    return prices


def load_panel(path, countries=None, start=None, end=None) -> InflationPanel:
    """Read and validate a long-format CSV panel.

    Optional filters restrict to the requested countries and quarter range
    before coverage rules apply.  Each country keeps its longest contiguous
    block of quarters (earliest on ties) and must retain at least
    ``MIN_QUARTERS`` of them; at least two countries must survive.
    """
    by_country, prices = _read_panel_rows(path)
    if countries is not None:
        missing = [c for c in countries if c not in by_country]
        if missing:
            raise CoverageError(f"countries not in file: {', '.join(missing)}")
        by_country = {c: by_country[c] for c in countries}
    q_lo = parse_quarter(start) if start is not None else None
    q_hi = parse_quarter(end) if end is not None else None

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
        blocks[name] = (_quarter_label(kept[0]), prices[[series[q] for q in kept]])
    if len(blocks) < 2:
        raise CoverageError("need at least 2 countries after filtering")
    return InflationPanel.from_blocks(blocks)


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
    T, C = panel.prices.shape
    out = np.full((T, C), np.nan)
    for j in range(C):
        obs = np.flatnonzero(panel.coverage[:, j])
        i0, i1 = obs[0], obs[-1]
        p = panel.prices[i0:i1 + 1, j]
        out[i0 + 1:i1 + 1, j] = 400.0 * np.log(p[1:] / p[:-1])
    return out


def _contributor_mean(qoq: np.ndarray, exclude: int | None = None) -> np.ndarray:
    avail = np.isfinite(qoq)
    if exclude is not None:
        avail = avail.copy()
        avail[:, exclude] = False
    counts = avail.sum(axis=1)
    sums = np.where(avail, qoq, 0.0).sum(axis=1)
    out = np.full(qoq.shape[0], np.nan)
    # the panel's first quarter has no prior price anywhere, so it is
    # structurally unavailable; any later empty quarter is a genuine gap
    empty_interior = np.flatnonzero((counts == 0) & (np.arange(len(counts)) > 0))
    if empty_interior.size:
        raise EmptyQuarter(f"no contributing country at quarter index {int(empty_interior[0])}")
    out[counts > 0] = sums[counts > 0] / counts[counts > 0]
    return out


def _global_inflation_source(panel: InflationPanel):
    """exclude -> the panel's global inflation without column ``exclude``.

    Global inflation averages the quarter-on-quarter inflation of the
    countries with data each quarter; ``exclude`` None keeps every country.
    Each series is computed once per source; a call that raises EmptyQuarter
    raises again when repeated.
    """
    qoq = _qoq_matrix(panel)
    return functools.cache(lambda exclude: _contributor_mean(qoq, exclude))


def _first_finite(x: np.ndarray) -> int:
    idx = np.flatnonzero(np.isfinite(x))
    if idx.size == 0:
        raise InsufficientData("series has no finite entries")
    return int(idx[0])


def _lag_columns(series: np.ndarray, h: int, n_lags: int, t0: int):
    """Columns series[t - h - j], j = 0..n_lags, for targets t = t0..T-1 (0-based)."""
    T = series.shape[0]
    return [series[t0 - h - j: T - h - j] for j in range(n_lags + 1)]


def _country_designs(config: CountryStudyConfig, selected_lag: int,
                     pih: np.ndarray, pi1: np.ndarray, g: np.ndarray):
    """Benchmark and global-augmented designs on a country's block.

    pih and pi1 are the block's h-quarter and one-quarter annualized
    inflation, and g the global inflation on the same quarters.  Both
    designs share the same target rows (the intersection of the two models'
    usable ranges), so dropping the global columns of the large design
    reproduces the benchmark exactly.
    """
    h, p2 = config.h, config.p2
    T_i = pih.shape[0]
    g_first = _first_finite(g)
    # 0-based first target index: own lags need pi1 back to index 1, global
    # lags need g back to its first finite entry
    t0 = max(h + selected_lag + 1, h + p2 + g_first)
    if t0 >= T_i:
        raise InsufficientData(f"no usable target rows at h={h}")
    targets = pih[t0:]
    ones = np.ones(T_i - t0)
    own = _lag_columns(pi1, h, selected_lag, t0)
    glob = _lag_columns(g, h, p2, t0)
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
    annualized inflation from k0 = floor(T_i * pi0), and reports the RMSE
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
        k0 = int(math.floor(prices.shape[0] * config.pi0))
        # the first fit uses the target rows dated first_origin..k0
        if k0 - large.first_origin + 1 < large.n_params:
            raise InsufficientData(
                f"k0={k0} leaves too few rows for the first fit (first usable target "
                f"{large.first_origin}, {large.n_params} parameters with p2={config.p2})")
        e1 = expanding_window_forecast_errors(bench, k0)
        e2 = expanding_window_forecast_errors(large, k0)
        fes = ForecastErrorSet(e1, e2, h=h, k0=k0)
        rmse_ratio = math.sqrt(np.mean(e2 * e2) / np.mean(e1 * e1))
        p_values = {}
        for mu0 in config.mu0_list:
            res = encompassing_test(fes, SplitSpec(mu0), config.hac)
            p_values[mu0] = res.p_value
        return CountryResult(
            country=country,
            rmse_ratio=rmse_ratio,
            p_values=p_values,
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
