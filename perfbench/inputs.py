"""Seeded input generators: the same seed always writes the same files.

* ``write_mc_config``: the two Monte Carlo sub-grid YAML configs.
* ``write_panel``: a 24-country x 216-quarter CPI panel with AR(1)
  quarter-on-quarter inflation, in the style of
  ``scripts/make_fixture_panel.py``, with one interior gap so the
  longest-contiguous-block rule of ``load_panel`` runs.
* ``write_errors``: an e1,e2 CSV holding a real dgp1 forecast-error pair.
"""

from __future__ import annotations

import csv

import numpy as np

from splitenc.dgp import Dgp1Spec, RngStream, simulate_dgp1
from splitenc.regression import DirectDesign, expanding_window_forecast_errors

# Sub-grid of configs/table1.yaml: 2 T x 2 h x 2 rho x 4 mu0 = 32 cells.
# reps is the number of replications per cell in one experiment call.
MC_DGP1 = """\
experiment:
  kind: size
  reps: 10
  level: 0.10
  pi0: 0.25
  mu0: [0.30, 0.35, 0.40, 0.45]
  bandwidth_c: 1.0
  seed: {seed}
dgp:
  family: dgp1
  T: [250, 1000]
  h: [1, 24]
  rho: [0.25, 0.95]
  beta1: 0.3
  beta2: 0.0
  theta: 0.5
  sigma: sigma1
"""

# Sub-grid of configs/table5_dgp2_power.yaml: 2 NT x 1 h x 1 beta2 x 4 mu0 = 8 cells.
MC_DGP2 = """\
experiment:
  kind: power
  reps: 2
  level: 0.10
  pi0: 0.25
  mu0: [0.30, 0.35, 0.40, 0.45]
  bandwidth_c: 1.0
  seed: {seed}
dgp:
  family: dgp2
  NT: [[100, 250], [500, 500]]
  h: 4
  beta1: 0.3
  beta2: 0.3
  theta: 0.5
  alpha1: 0.5
  rho_i: 0.5
"""

MC_CONFIGS = {"mc-dgp1": MC_DGP1, "mc-dgp2": MC_DGP2}

PANEL_COUNTRIES = 24
PANEL_START = 1970 * 4  # 1970Q1 as a quarter index
PANEL_QUARTERS = 216    # 1970Q1 .. 2023Q4

ERRORS_T = 500
ERRORS_PI0 = 0.25


def _generator(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


def write_mc_config(workload: str, seed: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MC_CONFIGS[workload].format(seed=seed))


def write_panel(seed: int, path) -> int:
    """Write the panel CSV; returns the number of countries."""
    g = _generator(seed, 1)
    gap_country = int(g.integers(PANEL_COUNTRIES))
    # Dropping one quarter early in the sample leaves a head shorter than
    # MIN_QUARTERS, so load_panel keeps the tail block.
    gap_quarter = int(g.integers(20, 60))
    rows = []
    for j in range(PANEL_COUNTRIES):
        mean, phi, sd = g.uniform(1.5, 6.0), g.uniform(0.3, 0.8), g.uniform(0.5, 2.0)
        eps = sd * g.standard_normal(PANEL_QUARTERS)
        pi = np.empty(PANEL_QUARTERS)
        pi[0] = mean + eps[0]
        for t in range(1, PANEL_QUARTERS):
            pi[t] = mean * (1 - phi) + phi * pi[t - 1] + eps[t]
        prices = 100.0 * np.exp(np.cumsum(pi) / 400.0)
        for t, price in enumerate(prices):
            if j == gap_country and t == gap_quarter:
                continue
            q = PANEL_START + t
            rows.append((f"c{j:02d}", f"{q // 4}Q{q % 4 + 1}", f"{price:.6f}"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "date", "hcpi"])
        writer.writerows(rows)
    return PANEL_COUNTRIES


def write_errors(seed: int, path) -> int:
    """Write a dgp1 forecast-error pair (h=1, T=500); returns k0."""
    spec = Dgp1Spec(T=ERRORS_T, h=1, rho=0.95, beta2=0.0)
    sim = simulate_dgp1(spec, RngStream(seed, 2))
    y, x = sim["y"], sim["x"]
    k0 = int(ERRORS_T * ERRORS_PI0)
    e1 = expanding_window_forecast_errors(DirectDesign.from_series(y, y, h=1), k0)
    e2 = expanding_window_forecast_errors(
        DirectDesign.from_series(y, np.column_stack([y, x]), h=1), k0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["e1", "e2"])
        writer.writerows((repr(float(a)), repr(float(b))) for a, b in zip(e1, e2))
    return k0
