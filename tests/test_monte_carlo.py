import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.stats import norm

import splitenc.dgp as dgp_module
import splitenc.monte_carlo as mc
import splitenc.regression as regression
from _oracles import estimate_factor_copying, simulate_dgp2_copying
from splitenc.cli import main
from splitenc.dgp import SIGMA2, Dgp1Spec, Dgp2Spec, RngStream
from splitenc.enc_test import HacConfig, SplitSpec
from splitenc.errors import (
    BandwidthOutOfRange,
    ConfigError,
    DegenerateSpectrum,
    InsufficientData,
    InvalidSplit,
    SplitEncError,
)
from splitenc.monte_carlo import (
    McCell,
    collect_statistics,
    load_experiment_config,
    render_report,
    run_power_experiment,
    run_replication,
    run_size_experiment,
)


def _replicate(cells, reps, seed):
    """run_replication over the one stream group of ``cells``, rows in cell order."""
    ((digest, designs),) = mc._design_groups(cells)
    (block,) = run_replication([(designs, reps, (seed, digest))])
    return block[np.argsort([i for design in designs for i in design.cells()])]


def _cell(T=250, h=1, rho=0.25, beta2=0.0, mu0=0.45, pi0=0.25, **kw):
    spec = Dgp1Spec(T=T, h=h, rho=rho, beta2=beta2)
    group = f"dgp1,h={h},T={T},rho={rho:g}"
    return McCell(dgp=spec, mu0=mu0, pi0=pi0, label=f"{group},mu0={mu0:g}",
                  group=group, **kw)


class TestRunReplication:
    def test_bit_identical_across_calls(self):
        cell = _cell()
        a = _replicate([cell], range(7, 10), 99)
        b = _replicate([cell], range(7, 10), 99)
        assert isinstance(a, np.ndarray) and a.shape == (1, 3)
        assert a.tobytes() == b.tobytes()

    def test_distinct_reps_differ(self):
        cell = _cell()
        a, b = _replicate([cell], range(0, 2), 99)[0]
        assert a != b

    def test_reject_uses_normal_critical_value(self):
        for level in (0.05, 0.10):
            cell = _cell(T=100, level=level)
            stats = collect_statistics(cell, reps=40, base_seed=99)
            assert stats.shape == (40,)
            report = run_size_experiment([cell], reps=40, base_seed=99)
            rejects = np.count_nonzero(stats > float(norm.ppf(1.0 - level)))
            assert report.cells[0].rejection_frequency == rejects / 40

    def test_forecast_origin_checks(self):
        assert _cell(T=250, pi0=0.25).resolve() == (62, 84, 5)  # n = 188
        with pytest.raises(InsufficientData):
            _cell(T=60, pi0=0.05).resolve()  # k0 = 3 < 3 + h
        with pytest.raises(InsufficientData):
            _cell(T=150, pi0=0.95).resolve()  # 8 forecast errors
        with pytest.raises(BandwidthOutOfRange):
            _cell(T=100, hac=HacConfig(bandwidth=80)).resolve()

    @pytest.mark.parametrize("h", [1, 4])
    def test_resolve_rejects_every_origin_the_pair_rejects(self, h):
        # one origin rule: a pi0 whose k0 the nested-pair call rejects fails at resolve,
        # before any replication, with the same class; 2 + h and 3 + h are its lower edge
        T = 60
        y, x = np.random.default_rng(h).standard_normal((2, T))
        for k0 in range(T):
            cell = _cell(T=T, h=h, pi0=(k0 + 0.5) / T)  # floor(T * pi0) = k0
            try:
                regression.nested_pair_forecast_errors(y, x, h, k0)
            except InsufficientData:
                assert k0 < 3 + h or k0 > T - h
                with pytest.raises(InsufficientData, match=rf"^k0={k0} outside "):
                    cell.resolve()
        with pytest.raises(InsufficientData, match=rf"^k0={2 + h} outside \[{3 + h}, "):
            _cell(T=T, h=h, pi0=(2.5 + h) / T).resolve()
        assert _cell(T=T, h=h, pi0=(3.5 + h) / T).resolve()[0] == 3 + h

    def test_dgp2_pipeline(self):
        cell = McCell(dgp=Dgp2Spec(T=120, N=30, h=1), mu0=0.45, label="d2", group="g")
        stats = _replicate([cell], range(0, 2), 5)
        assert stats.shape == (1, 2) and np.all(np.isfinite(stats))


class TestExperiments:
    def test_size_requires_null_cells(self):
        with pytest.raises(ValueError, match="beta2"):
            run_size_experiment([_cell(beta2=0.3)], reps=2, base_seed=1)

    def test_power_requires_alternative_cells(self):
        with pytest.raises(ValueError, match="beta2"):
            run_power_experiment([_cell(beta2=0.0)], reps=2, base_seed=1)

    def test_single_rep_frequency_is_binary(self):
        report = run_size_experiment([_cell(T=100)], reps=1, base_seed=3)
        assert report.cells[0].rejection_frequency in (0.0, 1.0)

    def test_report_fields(self):
        report = run_size_experiment([_cell(T=100)], reps=25, base_seed=3)
        c = report.cells[0]
        assert c.reps == 25
        assert 0.0 <= c.rejection_frequency <= 1.0
        assert c.failures == 0 and c.reliable
        assert c.mc_se == pytest.approx(
            math.sqrt(c.rejection_frequency * (1 - c.rejection_frequency) / 25))

    @pytest.mark.parametrize("reps, base_seed, workers, message", [
        (3, 1, 0, "workers must be at least 1, got 0"),
        (3, 1, 2.5, "workers must be an integer, got 2.5"),
        (3, 1, True, "workers must be an integer, got True"),
        (2.5, 1, 1, "reps must be an integer, got 2.5"),
        (True, 1, 1, "reps must be an integer, got True"),
        (3, -1, 1, "base_seed must be non-negative, got -1"),
        (3, 1.5, 1, "base_seed must be an integer, got 1.5"),
    ])
    def test_counts_checked_before_any_work(self, monkeypatch, reps, base_seed, workers,
                                            message):
        def no_work(*args):
            raise AssertionError("work started before the counts were checked")

        monkeypatch.setattr(mc, "_design_groups", no_work)
        for run, beta2 in ((run_size_experiment, 0.0), (run_power_experiment, 0.3),
                           (lambda cells, *a: mc.collect_statistics(cells[0], *a), 0.0)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run([_cell(T=100, beta2=beta2)], reps, base_seed, workers)

    def test_whole_float_counts_run_as_integers(self):
        cells = [_cell(T=100)]
        report = run_size_experiment(cells, reps=3.0, base_seed=7.0, workers=1.0)
        assert report.reps == 3 and report.base_seed == 7
        expected = run_size_experiment(cells, reps=3, base_seed=7)
        assert render_report(report, "markdown") == render_report(expected, "markdown")

    def test_worker_count_invariance(self):
        cells = [_cell(T=100, mu0=m) for m in (0.40, 0.45)]
        r1 = run_size_experiment(cells, reps=40, base_seed=11, workers=1)
        r2 = run_size_experiment(cells, reps=40, base_seed=11, workers=2)
        r4 = run_size_experiment(cells, reps=40, base_seed=11, workers=4)
        assert render_report(r1, "csv") == render_report(r2, "csv") == render_report(r4, "csv")
        assert render_report(r1, "json") == render_report(r4, "json")

    def test_failures_counted_not_raised(self):
        # pi0 so small that the first window cannot identify the larger model
        bad = McCell(dgp=Dgp1Spec(T=60, h=1), mu0=0.45, pi0=0.02, label="bad", group="g")
        report = run_size_experiment([bad], reps=8, base_seed=2)
        c = report.cells[0]
        assert c.failures == 8
        assert not c.reliable
        assert math.isnan(c.rejection_frequency)

    def test_mc_se_uses_completed_replications(self, monkeypatch):
        draws = mc.dgp1_draws

        def every_third_not_finite(spec, streams):
            eps, x_path = draws(spec, streams)
            eps[[s.stream_id % 3 == 0 for s in streams], spec.burn_in + 10] = np.inf
            return eps, x_path

        monkeypatch.setattr(mc, "dgp1_draws", every_third_not_finite)
        c = run_size_experiment([_cell(T=100)], reps=30, base_seed=3).cells[0]
        monkeypatch.undo()
        assert c.failures == 10 and not c.reliable
        p = c.rejection_frequency
        crit = float(norm.ppf(0.90))
        assert p == sum(_replicate([_cell(T=100)], range(rep, rep + 1), 3)[0, 0] > crit
                        for rep in range(30) if rep % 3) / 20
        assert c.mc_se == math.sqrt(p * (1.0 - p) / 20)

    def test_infeasible_cell_runs_no_replication(self, monkeypatch):
        # bad as in test_failures_counted_not_raised: cells are resolved before any replication
        bad = McCell(dgp=Dgp1Spec(T=60, h=1), mu0=0.45, pi0=0.02, label="bad", group="g")
        good = _cell(T=100)
        expected = (run_size_experiment([bad], reps=8, base_seed=2).cells
                    + run_size_experiment([good], reps=8, base_seed=2).cells)
        real, calls = mc.run_replication, []

        def counted(parts):
            calls.append([([design.cells() for design in designs], reps)
                          for designs, reps, _ in parts])
            return real(parts)

        monkeypatch.setattr(mc, "run_replication", counted)
        report = run_size_experiment([bad, good], reps=8, base_seed=2)
        assert calls == [[([[1]], range(0, 8))]]  # one task of one part: the good cell, index 1
        assert repr(report.cells) == repr(expected)  # NaN frequencies compare by repr
        assert report.cells[0].failures == 8

    def test_collect_statistics(self):
        stats = collect_statistics(_cell(T=100), reps=30, base_seed=9)
        assert stats.shape == (30,)
        assert np.all(np.isfinite(stats))
        for workers in (1, 2):
            again = collect_statistics(_cell(T=100), reps=30, base_seed=9, workers=workers)
            assert again.tobytes() == stats.tobytes()

    @pytest.mark.parametrize("seed", [1, 101, 201])
    def test_benchmark_subgrids_never_fall_back(self, tmp_path, monkeypatch, seed):
        # the sub-grids of the mc-dgp1 and mc-dgp2 workloads in perfbench/inputs.py
        grids = {
            "dgp1": ("size", 10, "T: [250, 1000]\n  h: [1, 24]\n  rho: [0.25, 0.95]\n"
                                 "  beta2: 0.0\n  sigma: sigma1"),
            "dgp2": ("power", 2, "NT: [[100, 250], [500, 500]]\n  h: 4\n  beta2: 0.3\n"
                                 "  alpha1: 0.5\n  rho_i: 0.5"),
        }
        # a row the closed form declines runs the generic fits, the name regression looks up
        fallbacks = []
        monkeypatch.setattr(regression, "expanding_window_forecast_errors",
                            lambda design, k0: fallbacks.append(k0))
        for family, (kind, reps, keys) in grids.items():
            path = tmp_path / f"{family}.yaml"
            path.write_text(
                f"experiment:\n  kind: {kind}\n  reps: {reps}\n  mu0: [0.30, 0.35, 0.40, 0.45]\n"
                f"  bandwidth_c: 1.0\n  seed: {seed}\n"
                f"dgp:\n  family: {family}\n  beta1: 0.3\n  theta: 0.5\n  {keys}\n")
            config = load_experiment_config(path)
            stats = mc._run_cells(list(config.cells), config.reps, config.seed, 1)
            assert np.all(np.isfinite(stats))
        assert fallbacks == []


class TestBatchedReplications:
    """A chunk of replications gives the same bits as its replications run one at a time."""

    @given(st.integers(0, 2**32 - 1), st.integers(60, 400), st.integers(1, 24),
           st.floats(0.0, 0.95), st.sampled_from([0.0, 0.3]), st.integers(0, 1000),
           st.integers(1, 12), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_dgp1_chunk_equals_split_and_single_runs(self, seed, T, h, rho, beta2, a,
                                                     length, cut):
        spec = Dgp1Spec(T=T, h=h, rho=rho, beta2=beta2)
        cells = [McCell(dgp=spec, mu0=m) for m in (0.35, 0.45)]
        try:
            cells[0].resolve()
            cells[1].resolve()
        except SplitEncError:
            assume(False)
        b, c = a + length, a + min(cut, length)
        block = _replicate(cells, range(a, b), seed)
        assert block.shape == (2, length)
        split = np.concatenate([_replicate(cells, part, seed)
                                for part in (range(a, c), range(c, b)) if part], axis=1)
        singles = np.concatenate([_replicate(cells, range(r, r + 1), seed)
                                  for r in range(a, b)], axis=1)
        assert block.tobytes() == split.tobytes() == singles.tobytes()

    def test_dgp2_chunk_equals_single_runs(self):
        cells = [McCell(dgp=Dgp2Spec(T=80, N=12, h=2, beta2=0.3), mu0=m) for m in (0.35, 0.45)]
        block = _replicate(cells, range(4, 9), 31)
        singles = np.concatenate([_replicate(cells, range(r, r + 1), 31)
                                  for r in range(4, 9)], axis=1)
        assert block.shape == (2, 5) and np.all(np.isfinite(block))
        assert block.tobytes() == singles.tobytes()


def _row_alone(cell, reps, seed):
    return mc._run_cells([cell], reps, seed, 1)[0]


_PANEL_GRID = """\
experiment:
  kind: power
  reps: 3
  mu0: [0.35, 0.45]
  seed: 41
dgp:
  family: dgp2
  NT: [[12, 60], [64, 56]]
  h: [1, 3]
  beta2: [0.2, 0.4, 0.6]
"""


def _panel_grid(tmp_path):
    """A table-shaped dgp2 grid: 2 panels (N < T, N > T) x 2 h x 3 beta2 x 2 mu0 = 24 cells."""
    path = tmp_path / "panels.yaml"
    path.write_text(_PANEL_GRID)
    config = load_experiment_config(path)
    assert len(config.cells) == 24
    return list(config.cells), config.reps, config.seed


# family -> (spec, its stream fields, design-field values, stream-field values)
_STREAM_KEYS = {
    "dgp1": (Dgp1Spec(T=100), dgp_module.DGP1_STREAM_FIELDS,
             {"h": 4, "theta": 0.1, "beta1": -0.5, "beta2": 0.3},
             {"T": 101, "rho": 0.9, "sigma": SIGMA2, "burn_in": 100}),
    "dgp2": (Dgp2Spec(T=100, N=10), dgp_module.DGP2_PANEL_FIELDS,
             {"h": 4, "theta": 0.1, "alpha": 1.5, "beta1": -0.5, "beta2": 0.3},
             {"N": 11, "T": 101, "alpha1": 0.4, "rho_i": -0.5, "loading_std": 2.0,
              "burn_in": 100}),
}


_DGP1_GRID = """\
experiment:
  kind: power
  reps: 12
  mu0: [0.35, 0.45]
  seed: 43
dgp:
  family: dgp1
  T: [90, 140]
  h: [1, 3]
  rho: [0.25, 0.9]
  beta2: [0.2, 0.5]
  sigma: sigma2
"""


def _dgp1_grid(tmp_path):
    """A table-shaped dgp1 grid: 2 T x 2 rho stream groups of 2 h x 2 beta2 x 2 mu0 cells."""
    path = tmp_path / "dgp1.yaml"
    path.write_text(_DGP1_GRID)
    config = load_experiment_config(path)
    assert len(config.cells) == 32
    return list(config.cells), config.reps, config.seed


class TestDesignGroups:
    """Cells whose specs draw the same numbers (the same dgp1 stream fields, one dgp2 panel)
    share one simulation per replication; each design (spec and pi0) is fitted once."""

    def test_cell_row_independent_of_grid(self):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.40, 0.45)]
        other = [_cell(T=120, rho=0.9, mu0=m) for m in (0.40, 0.45)]
        target = _cell(T=100, mu0=0.40)
        alone = _row_alone(target, 20, 13)
        for grid, index in ((group, 1), (group[::-1], 1),
                            ([other[0], *group, other[1]], 2)):
            row = mc._run_cells(grid, 20, 13, 1)[index]
            assert row.tobytes() == alone.tobytes()

    def test_stream_digest_is_canonical(self):
        base = mc._stream_digest(Dgp1Spec(T=100, rho=0.0))
        assert mc._stream_digest(Dgp1Spec(T=100, rho=-0.0)) == base
        assert mc._stream_digest(Dgp2Spec(T=100, N=10, rho_i=-0.0)) == \
            mc._stream_digest(Dgp2Spec(T=100, N=10, rho_i=0.0))
        for other in (Dgp1Spec(T=101, rho=0.0), Dgp1Spec(T=100, rho=0.0, sigma=SIGMA2),
                      Dgp1Spec(T=100, rho=0.0, burn_in=201), Dgp2Spec(T=100, N=10)):
            assert mc._stream_digest(other) != base
        # the digest keys every recorded stream: its low 64 bits as recorded
        assert mc._stream_digest(Dgp1Spec(T=100)) % 2**64 == 0x33fc5a09f705e32d
        assert mc._stream_digest(Dgp2Spec(T=100, N=10)) % 2**64 == 0x4559258f80b0d012

    @pytest.mark.parametrize("family", sorted(_STREAM_KEYS))
    def test_stream_key_is_the_draw_fields(self, family):
        spec, stream_fields, design_fields, changed = _STREAM_KEYS[family]
        key = mc._stream_digest(spec)
        assert set(stream_fields) | set(design_fields) == {
            f.name for f in dataclasses.fields(spec)}
        for name, value in design_fields.items():
            other = dataclasses.replace(spec, **{name: value})
            assert mc._stream_digest(other) == key
            assert mc._y_key(other) != mc._y_key(spec)
        assert set(changed) == set(stream_fields)
        for name, value in changed.items():
            assert mc._stream_digest(dataclasses.replace(spec, **{name: value})) != key
        # the other family's spec has the same T and burn_in
        assert key not in [mc._stream_digest(other) for other, *_ in _STREAM_KEYS.values()
                           if other is not spec]

    def test_one_simulation_and_fit_per_group_replication(self, tmp_path, monkeypatch):
        # the mc-dgp2 sub-grid of perfbench/inputs.py: 2 groups x 4 mu0, 2 reps
        path = tmp_path / "dgp2.yaml"
        path.write_text(
            "experiment:\n  kind: power\n  reps: 2\n  mu0: [0.30, 0.35, 0.40, 0.45]\n"
            "  bandwidth_c: 1.0\n  seed: 1\n"
            "dgp:\n  family: dgp2\n  NT: [[100, 250], [500, 500]]\n  h: 4\n"
            "  beta1: 0.3\n  beta2: 0.3\n  theta: 0.5\n  alpha1: 0.5\n  rho_i: 0.5\n")
        config = load_experiment_config(path)
        calls = {"run_replication": 0, "dgp2_draws": 0, "estimate_factor": 0,
                 "nested_pair_forecast_errors": 0}
        for name in calls:
            def counted(*args, _real=getattr(mc, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mc, name, counted)
        report = run_power_experiment(config.cells, config.reps, config.seed)
        assert len(report.cells) == 8
        assert all(c.failures == 0 for c in report.cells)
        # one task of both panels, one design per panel: each panel is drawn and
        # factored per replication, and the panels differ in T, so their designs share
        # no shape and the pair runs once per design
        assert calls == {"run_replication": 1, "dgp2_draws": 4, "estimate_factor": 4,
                         "nested_pair_forecast_errors": 2}

    def test_dgp1_subgrid_simulated_once_per_stream_group(self, tmp_path, monkeypatch):
        # the mc-dgp1 sub-grid of perfbench/inputs.py: 4 stream groups (T, rho) of 2 h,
        # 4 mu0 each, 10 reps: one task of 4 parts
        path = tmp_path / "dgp1.yaml"
        path.write_text(
            "experiment:\n  kind: size\n  reps: 10\n  mu0: [0.30, 0.35, 0.40, 0.45]\n"
            "  bandwidth_c: 1.0\n  seed: 1\n"
            "dgp:\n  family: dgp1\n  T: [250, 1000]\n  h: [1, 24]\n  rho: [0.25, 0.95]\n"
            "  beta1: 0.3\n  beta2: 0.0\n  theta: 0.5\n  sigma: sigma1\n")
        config = load_experiment_config(path)
        calls, pairs, statistics = {"dgp1_draws": 0}, [], []
        real_draws, real_pair = mc.dgp1_draws, mc.nested_pair_forecast_errors
        real_statistic = mc.split_statistic

        def counted(spec, streams):
            calls["dgp1_draws"] += 1
            return real_draws(spec, streams)

        def recorded(y, extra, h, k0):
            pairs.append((y.copy(), extra.copy(), h, k0))
            return real_pair(y, extra, h, k0)

        def recorded_statistic(e1, e2, m0s, M):
            result = real_statistic(e1, e2, m0s, M)
            statistics.append((list(m0s), M, result[0]))
            return result

        monkeypatch.setattr(mc, "dgp1_draws", counted)
        monkeypatch.setattr(mc, "nested_pair_forecast_errors", recorded)
        monkeypatch.setattr(mc, "split_statistic", recorded_statistic)
        report = run_size_experiment(config.cells, config.reps, config.seed)
        assert len(report.cells) == 32
        assert all(c.failures == 0 for c in report.cells)
        assert calls == {"dgp1_draws": 4}
        # one call per (T, h): the designs of the two rho groups of one T run as one
        assert [len(y) for y, *_ in pairs] == [20] * 4
        assert [stat.shape for *_, stat in statistics] == [(4, 20)] * 4
        assert sorted((y.shape[1], h) for y, _, h, _ in pairs) == [
            (250, 1), (250, 24), (1000, 1), (1000, 24)]
        # each call's rows are its groups' rows alone, in group order, byte for byte, as
        # the public simulate_dgp1 gives them stream by stream
        specs = list({id(cell.dgp): cell.dgp for cell in config.cells}.values())
        for (y, extra, h, k0), (m0s, M, stat) in zip(pairs, statistics):
            alone_y, alone_extra, alone_stat = [], [], []
            for spec in (s for s in specs if (s.T, s.h) == (y.shape[1], h)):
                key = (config.seed, mc._stream_digest(spec))
                alone = [mc.simulate_dgp1(spec, RngStream(key, r)) for r in range(10)]
                alone_y.append(np.stack([sim["y"] for sim in alone]))
                alone_extra.append(np.stack([sim["x"] for sim in alone]))
                e1, e2 = real_pair(alone_y[-1], alone_extra[-1], h, k0)
                alone_stat.append(real_statistic(e1, e2, m0s, M)[0])
            assert len(alone_y) == 2
            assert y.tobytes() == np.concatenate(alone_y).tobytes()
            assert extra.tobytes() == np.concatenate(alone_extra).tobytes()
            assert stat.tobytes() == np.concatenate(alone_stat, axis=1).tobytes()

    def test_one_ma_path_per_h_and_theta(self, monkeypatch):
        # one group of 9 designs, 3 beta2 for each (h, theta)
        specs = [Dgp1Spec(T=100, h=h, theta=theta, beta2=beta2)
                 for h, theta in ((1, 0.5), (3, 0.5), (3, 0.2)) for beta2 in (0.1, 0.2, 0.3)]
        cells = [McCell(dgp=spec, mu0=0.45) for spec in specs]
        real, paths = mc.ma_path, []
        monkeypatch.setattr(mc, "ma_path", lambda innov, theta, h: paths.append((h, theta))
                            or real(innov, theta, h))
        got = mc._run_cells(cells, 12, 5, 1)
        monkeypatch.undo()
        assert paths == [(1, 0.5), (3, 0.5), (3, 0.2)]
        for cell, row in zip(cells, got):
            assert row.tobytes() == _row_alone(cell, 12, 5).tobytes()

    def test_cell_row_independent_of_dgp1_grid(self, tmp_path):
        cells, reps, seed = _dgp1_grid(tmp_path)
        pooled = mc._run_cells(cells, reps, seed, 2)
        serial = mc._run_cells(cells, reps, seed, 1)
        assert pooled.tobytes() == serial.tobytes()
        reversed_grid = mc._run_cells(cells[::-1], reps, seed, 1)[::-1]
        assert reversed_grid.tobytes() == serial.tobytes()
        # a cell of each h and beta2 in one group: every design builds its y from the
        # group's draws
        for label in ("dgp1,h=1,T=140,rho=0.9,beta2=0.2,mu0=0.35",
                      "dgp1,h=3,T=140,rho=0.9,beta2=0.5,mu0=0.45"):
            target = [c.label for c in cells].index(label)
            alone = _row_alone(cells[target], reps, seed)
            assert np.isfinite(alone).all()
            assert serial[target].tobytes() == alone.tobytes()

    def test_panel_simulated_and_factored_once_per_replication(self, tmp_path, monkeypatch):
        cells, reps, seed = _panel_grid(tmp_path)
        calls, pairs = {"dgp2_draws": 0, "estimate_factor": 0}, []
        for name in calls:
            def counted(*args, _real=getattr(mc, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mc, name, counted)
        real_pair = mc.nested_pair_forecast_errors

        def recorded(y, extra, h, k0):
            pairs.append((y.copy(), extra.copy(), h))
            return real_pair(y, extra, h, k0)

        monkeypatch.setattr(mc, "nested_pair_forecast_errors", recorded)
        report = run_power_experiment(cells, reps, seed)
        assert all(c.failures == 0 for c in report.cells)
        assert calls == {"dgp2_draws": 2 * reps, "estimate_factor": 2 * reps}
        assert len(pairs) == 12  # one per design: 2 panels x 2 h x 3 beta2, one chunk
        # each design's y and factor against the whole-panel oracle, replication by replication
        designs = list(dict.fromkeys(cell.dgp for cell in cells))
        panels = list(dict.fromkeys((spec.N, spec.T) for spec in designs))
        designs = [spec for panel in panels for spec in designs if (spec.N, spec.T) == panel]
        for (y, extra, h), spec in zip(pairs, designs):
            assert h == spec.h and y.shape == extra.shape == (reps, spec.T)
            key = (seed, mc._stream_digest(spec))
            for rep in range(reps):
                sim = simulate_dgp2_copying(spec, key, rep)
                assert y[rep].tobytes() == sim["y"].tobytes()
                assert extra[rep].tobytes() == estimate_factor_copying(sim["X"]).tobytes()
        # two designs of one panel see one factor estimate; the two panels differ
        by_panel = {}
        for (_, extra, _), spec in zip(pairs, designs):
            by_panel.setdefault((spec.N, spec.T), set()).add(extra.tobytes())
        assert [len(v) for v in by_panel.values()] == [1, 1]

    def test_one_panel_alive_at_a_time(self):
        # a panel at N = T = 200 is 320 kB; a replication adds a few kB of series to a chunk
        cells = [McCell(dgp=Dgp2Spec(T=200, N=200, h=2), mu0=0.45)]
        ((digest, designs),) = mc._design_groups(cells)
        run_replication([(designs, range(3), (5, digest))])  # grows the kept work buffers first
        peaks = []
        for reps in (range(1), range(3)):
            tracemalloc.start()
            try:
                run_replication([(designs, reps, (5, digest))])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] > 200 * 200 * 8  # the panel itself is traced
        assert peaks[1] - peaks[0] < 200 * 200 * 8

    def test_each_cell_resolved_once(self, monkeypatch):
        # two chunks of two groups, one spec with two pi0 and two bandwidths: the chunks
        # reuse what the cells resolved to before the first replication
        cells = [_cell(T=100, mu0=0.40), _cell(T=100, mu0=0.45, hac=HacConfig(bandwidth=2)),
                 _cell(T=100, mu0=0.45, pi0=0.4), _cell(T=120, rho=0.9, mu0=0.30)]
        expected = mc._run_cells(cells, 260, 23, 1)
        calls = {"_first_origin": 0, "resolve": 0, "m0": 0}
        for owner, name in ((mc, "_first_origin"), (HacConfig, "resolve"), (SplitSpec, "m0")):
            def counted(*args, _real=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        assert mc._run_cells(cells, 260, 23, 1).tobytes() == expected.tobytes()
        assert calls == {"_first_origin": 4, "resolve": 4, "m0": 4}

    def test_cell_row_independent_of_panel_grid(self, tmp_path):
        cells, reps, seed = _panel_grid(tmp_path)
        labels = [c.label for c in cells]
        target = labels.index("dgp2,h=1,N=64,T=56,beta2=0.6,mu0=0.45")
        alone = _row_alone(cells[target], reps, seed)
        same_panel = [c for c in cells if c.dgp.N == 64]
        for grid in (cells, cells[::-1], same_panel, same_panel[5:]):
            row = mc._run_cells(grid, reps, seed, 1)[grid.index(cells[target])]
            assert row.tobytes() == alone.tobytes()

    def test_degenerate_panel_fails_its_replication_in_every_design(self, tmp_path, monkeypatch):
        cells, reps, seed = _panel_grid(tmp_path)
        clean = mc._run_cells(cells, reps, seed, 1)
        real = mc.dgp2_draws

        def constant_panel_in_rep1_of_wide_panel(spec, stream):
            X, f_path, w_innov = real(spec, stream)
            if spec.N == 64 and stream.stream_id == 1:
                X = np.ones_like(X)  # no simple top eigenvalue
            return X, f_path, w_innov

        monkeypatch.setattr(mc, "dgp2_draws", constant_panel_in_rep1_of_wide_panel)
        got = mc._run_cells(cells, reps, seed, 1)
        wide = np.array([c.dgp.N == 64 for c in cells])
        assert np.isnan(got[wide, 1]).all()
        assert got[wide][:, [0, 2]].tobytes() == clean[wide][:, [0, 2]].tobytes()
        assert got[~wide].tobytes() == clean[~wide].tobytes()

    def test_dgp2_panel_grid_csv_same_for_one_and_two_workers(self, tmp_path):
        cells, reps, seed = _panel_grid(tmp_path)
        serial = run_power_experiment(cells, reps, seed, workers=1)
        pooled = run_power_experiment(cells, reps, seed, workers=2)
        assert render_report(serial, "csv") == render_report(pooled, "csv")

    def test_test_failure_fails_its_cell_only(self, monkeypatch):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.40, 0.45)]
        clean = _replicate(group, range(3, 8), 17)
        real = mc.split_statistic
        m0_040 = SplitSpec(0.40).m0(75)  # n = 75 forecast errors at T=100, h=1, pi0=0.25

        def fails_at_040(e1, e2, m0s, M):
            # one call covers every cell of the design, a row per m0
            statistic, dbar, omega2 = real(e1, e2, m0s, M)
            statistic = statistic.copy()
            statistic[np.equal(m0s, m0_040)] = np.nan  # as for a degenerate variance everywhere
            return statistic, dbar, omega2

        monkeypatch.setattr(mc, "split_statistic", fails_at_040)
        got = _replicate(group, range(3, 8), 17)
        assert np.isnan(got[1]).all()
        assert got[[0, 2]].tobytes() == clean[[0, 2]].tobytes()

    def test_design_with_two_bandwidths(self, monkeypatch):
        # a spec and pi0 with two bandwidths are two designs, one statistic call each;
        # rows as for each cell alone
        hacs = [HacConfig(bandwidth=2), HacConfig(c=1.0), HacConfig(bandwidth=2), HacConfig()]
        cells = [_cell(T=120, mu0=m, hac=hac) for m, hac in zip((0.3, 0.4, 0.45, 0.6), hacs)]
        alone = [mc._run_cells([cell], 12, 23, 1)[0] for cell in cells]
        real, calls = mc.split_statistic, []
        monkeypatch.setattr(mc, "split_statistic",
                            lambda e1, e2, m0s, M: calls.append((list(m0s), M))
                            or real(e1, e2, m0s, M))
        together = mc._run_cells(cells, 12, 23, 1)
        n = 120 - 1 - 30 + 1
        assert calls == [([SplitSpec(0.3).m0(n), SplitSpec(0.45).m0(n)], 2),
                         ([SplitSpec(0.4).m0(n), SplitSpec(0.6).m0(n)], HacConfig().resolve(n))]
        for row, single in zip(together, alone):
            assert row.tobytes() == single.tobytes()

    def test_singular_fit_fails_every_cell_of_its_group(self, monkeypatch):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.40, 0.45)]
        other = _cell(T=120, rho=0.9, mu0=0.45)
        clean = mc._run_cells([*group, other], 10, 19, 1)
        real, seen = mc.dgp1_draws, []

        def constant_x_in_rep0_of_first_group(spec, streams):
            seen.append([s.stream_id for s in streams])
            eps, x_path = real(spec, streams)
            if spec.T == 100:
                x_path[seen[-1].index(0), spec.burn_in:] = 1.0  # x collinear with the intercept
            return eps, x_path

        monkeypatch.setattr(mc, "dgp1_draws", constant_x_in_rep0_of_first_group)
        report = run_size_experiment([*group, other], reps=10, base_seed=19)
        assert [c.failures for c in report.cells] == [1, 1, 1, 0]
        # one simulation per (group, chunk); the singular fit is masked, not rerun
        assert seen == [list(range(10)), list(range(10))]
        again = mc._run_cells([*group, other], 10, 19, 1)
        assert np.isnan(again[:3, 0]).all()
        assert again[:, 1:].tobytes() == clean[:, 1:].tobytes()
        assert again[3].tobytes() == clean[3].tobytes()

    def test_non_finite_replication_fails_its_group_only(self, monkeypatch):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.45)]
        other = _cell(T=120, rho=0.9, mu0=0.45)
        clean = mc._run_cells([*group, other], 10, 29, 1)
        real = mc.dgp1_draws

        def nan_in_rep3(spec, streams):
            eps, x_path = real(spec, streams)
            ids = [s.stream_id for s in streams]
            if spec.T == 100 and 3 in ids:
                eps[ids.index(3), spec.burn_in + 50] = np.nan
            return eps, x_path

        monkeypatch.setattr(mc, "dgp1_draws", nan_in_rep3)
        report = run_size_experiment([*group, other], reps=10, base_seed=29)
        assert [c.failures for c in report.cells] == [1, 1, 0]
        got = mc._run_cells([*group, other], 10, 29, 1)
        keep = np.arange(10) != 3
        assert np.isnan(got[:2, 3]).all()
        assert got[:2, keep].tobytes() == clean[:2, keep].tobytes()
        assert got[2].tobytes() == clean[2].tobytes()

    def test_factor_failure_fails_its_replication_only(self, monkeypatch):
        cells = [McCell(dgp=Dgp2Spec(T=80, N=12, h=2), mu0=m) for m in (0.35, 0.45)]
        clean = _replicate(cells, range(0, 3), 37)
        real, calls = mc.estimate_factor, []

        def second_call_fails(X):
            calls.append(X)
            if len(calls) == 2:
                raise DegenerateSpectrum("injected")
            return real(X)

        monkeypatch.setattr(mc, "estimate_factor", second_call_fails)
        got = _replicate(cells, range(0, 3), 37)
        assert np.isnan(got[:, 1]).all()
        assert got[:, [0, 2]].tobytes() == clean[:, [0, 2]].tobytes()

    def test_multi_group_grid_same_for_one_and_two_workers(self):
        # interleaved groups, two pi0 for one spec, and two chunks per group
        cells = [_cell(T=100, mu0=0.40), _cell(T=120, rho=0.9, mu0=0.40),
                 _cell(T=100, mu0=0.45), _cell(T=100, mu0=0.45, pi0=0.4),
                 _cell(T=120, rho=0.9, mu0=0.30)]
        serial = mc._run_cells(cells, 300, 23, 1)
        pooled = mc._run_cells(cells, 300, 23, 2)
        assert serial.tobytes() == pooled.tobytes()
        for cell, row in zip(cells, serial):
            assert row.tobytes() == _row_alone(cell, 300, 23).tobytes()

    def test_no_replication_rejected(self):
        with pytest.raises(ValueError, match="^reps must be at least 1, got 0$"):
            mc._run_cells([_cell()], 0, 1, 1)


class TestTasks:
    """Replications are packed into tasks of parts; a cell's bits do not depend on the packing."""

    @pytest.mark.parametrize("groups, reps, workers, expected", [
        # the serial mc-dgp1 sub-grid: one task of the 4 groups
        (4, 10, 1, [[(0, 0, 10), (1, 0, 10), (2, 0, 10), (3, 0, 10)]]),
        # a pool gets at least one task per worker
        (1, 30, 2, [[(0, 0, 15)], [(0, 15, 30)]]),
        (1, 10, 3, [[(0, 0, 4)], [(0, 4, 8)], [(0, 8, 10)]]),
        # a group's run is split where a task fills
        (3, 100, 1, [[(0, 0, 100), (1, 0, 100), (2, 0, 50)], [(2, 50, 100)]]),
        (2, 300, 2, [[(0, 0, 250)], [(0, 250, 300), (1, 0, 200)], [(1, 200, 300)]]),
        (0, 10, 2, []),
    ])
    def test_parts_fill_tasks_in_group_order(self, groups, reps, workers, expected):
        tasks = mc._tasks([(digest, [digest]) for digest in range(groups)], reps, 7, workers)
        assert [[(designs[0], part.start, part.stop) for designs, part, _ in task]
                for task in tasks] == expected
        assert all(key == (7, designs[0]) for task in tasks for designs, _, key in task)

    def test_table_scale_keeps_250_replication_tasks(self):
        tasks = mc._tasks([(digest, [digest]) for digest in range(3)], 10000, 7, 2)
        assert len(tasks) == 120
        assert {(len(task), len(task[0][1])) for task in tasks} == {(1, 250)}

    def test_collect_statistics_on_two_workers_runs_two_tasks(self, monkeypatch):
        real, tasks = mc._tasks, []
        monkeypatch.setattr(mc, "_tasks", lambda *args: tasks.extend(real(*args)) or tasks)
        stats = collect_statistics(_cell(T=100), reps=30, base_seed=9, workers=2)
        assert [[part for _, part, _ in task] for task in tasks] == [[range(0, 15)],
                                                                    [range(15, 30)]]
        assert stats.tobytes() == collect_statistics(_cell(T=100), reps=30, base_seed=9).tobytes()

    def test_grid_without_a_resolved_cell_runs_alike_on_two_workers(self):
        # k0 = floor(60 * 0.02) = 1 fits no model: the cell runs no task and fails every rep
        cells = [McCell(dgp=Dgp1Spec(T=60, h=1), mu0=0.45, pi0=0.02)]
        pooled = run_size_experiment(cells, reps=8, base_seed=2, workers=2)
        serial = run_size_experiment(cells, reps=8, base_seed=2, workers=1)
        assert render_report(pooled, "csv") == render_report(serial, "csv")  # NaN != NaN
        assert [cell.failures for cell in pooled.cells] == [8]

    def test_empty_grid_on_two_workers_reports_no_cells(self):
        report = run_size_experiment([], reps=8, base_seed=2, workers=2)
        assert report.cells == () and report.reps == 8

    @pytest.mark.parametrize("workers, cpus, processes", [
        (5000, 2, 2),  # never more processes than the CPUs this process may use
        (5000, None, 1),  # no affinity mask and an unknown CPU count run in this process
        (5000, 64, 30),  # nor more than tasks: 30 one-replication tasks
        (3, 8, 3),
        (4, 1, 1),  # one usable CPU starts no pool
    ])
    def test_pool_starts_at_most_one_process_per_cpu_and_task(self, monkeypatch, workers,
                                                               cpus, processes):
        # cpus is the size of the affinity mask on a host of 64 CPUs
        self._check_pool_size(monkeypatch, workers, cpus, 64 if cpus else None, processes)

    @pytest.mark.parametrize("cpus, processes", [(2, 2), (64, 30)])
    def test_pool_takes_the_cpu_count_without_an_affinity_mask(self, monkeypatch, cpus,
                                                               processes):
        self._check_pool_size(monkeypatch, 5000, None, cpus, processes)

    @staticmethod
    def _check_pool_size(monkeypatch, workers, affinity, cpus, processes):
        # a fork-started pool launches max_workers processes at its first submit; the
        # stand-in records that number and the workers' initializer, and runs the
        # tasks in this process.  A run of one process starts no pool.
        import concurrent.futures

        launched = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                launched.append((max_workers, initializer))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        if affinity is None:
            monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(affinity)))
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        real, tasks = mc._tasks, []
        monkeypatch.setattr(mc, "_tasks", lambda *args: tasks.extend(real(*args)) or tasks)
        stats = mc._run_cells([_cell(T=100)], 30, 9, workers)
        assert launched == ([(processes, mc._blas_threads)] if processes > 1 else [])
        assert len(tasks) == min(workers, 30)  # the tasks are cut by workers as before
        assert stats.tobytes() == mc._run_cells([_cell(T=100)], 30, 9, 1).tobytes()

    def test_grid_with_some_shared_shapes_matches_each_cell_alone(self, monkeypatch):
        cells = [
            _cell(T=100, mu0=0.40),                 # group (100, 0.25): h=1
            _cell(T=100, rho=0.5, h=3, mu0=0.45),   # group (100, 0.5): h=3
            _cell(T=100, rho=0.5, mu0=0.40),        # h=1: shares the first cell's shape
            _cell(T=100, h=3, mu0=0.45),            # h=3: shares the second cell's shape
            _cell(T=100, rho=0.9, mu0=0.40),        # group (100, 0.9): a second M below
            _cell(T=100, rho=0.9, mu0=0.40, pi0=0.4),   # another k0: a shape of its own
            _cell(T=120, mu0=0.30),                 # another T: a shape of its own
            # a second bandwidth for the fifth cell's design: its m0 layout differs
            _cell(T=100, rho=0.9, mu0=0.45, hac=HacConfig(bandwidth=2)),
        ]
        real, rows = mc.nested_pair_forecast_errors, []
        monkeypatch.setattr(mc, "nested_pair_forecast_errors",
                            lambda y, extra, h, k0: rows.append(len(y)) or real(y, extra, h, k0))
        serial = mc._run_cells(cells, 300, 23, 1)
        monkeypatch.undo()
        # 4 groups x 300 replications in 5 tasks of 250; the second task holds the end of
        # the first group and the start of the second, whose shared shapes run as one call
        tasks = mc._tasks(mc._design_groups(cells), 300, 23, 1)
        assert [len(task) for task in tasks] == [1, 2, 2, 2, 1]
        design_parts = sum(len(designs) for task in tasks for designs, _, _ in task)
        # the mixed-bandwidth cell is a design of its own, fitted apart from the fifth cell's
        assert sum(rows) == 300 * 8 and len(rows) < design_parts
        assert np.isfinite(serial).all()
        pooled = mc._run_cells(cells, 300, 23, 2)
        assert serial.tobytes() == pooled.tobytes()
        for cell, row in zip(cells, serial):
            assert row.tobytes() == _row_alone(cell, 300, 23).tobytes()


_PIN_PRELUDE = """\
import hashlib, json
import numpy as np
import splitenc.monte_carlo as mc
from splitenc.dgp import Dgp2Spec

# N = T = 97: the smallest square panel found whose statistics differ between one
# and two OpenBLAS threads when nothing pins them (at N = T <= 96 they do not)
CELLS = [mc.McCell(dgp=Dgp2Spec(T=97, N=97, h=1), mu0=m) for m in (0.35, 0.45)]
REPS, SEED = 4, 7


def digest(stats):
    return hashlib.sha256(stats.tobytes()).hexdigest()


def out_of_engine():
    # run_replication on the grid's one task, outside _run_cells and so with BLAS as set
    ((key, designs),) = mc._design_groups(CELLS)
    (block,) = mc.run_replication([(designs, range(REPS), (SEED, key))])
    return block
"""


def _pin_child(code, threads):
    """The JSON that ``code``, after _PIN_PRELUDE, prints in a fresh process whose
    inherited OPENBLAS_NUM_THREADS is ``threads``."""
    src = str(pathlib.Path(mc.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PIN_PRELUDE + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def numpy_openblas():
    before = mc._blas_threads(1)
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS thread-count setter was not found")
    mc._blas_threads(before)


@pytest.mark.usefixtures("numpy_openblas")
class TestBlasThreads:
    """_run_cells holds numpy's OpenBLAS at one thread, so dgp2 bits do not depend on the host."""

    def test_dgp2_bits_do_not_depend_on_inherited_blas_threads(self):
        code = """
            stats = mc._run_cells(CELLS, REPS, SEED, 1)
            print(json.dumps([digest(stats), bool(np.isfinite(stats).all())]))
        """
        one, two = _pin_child(code, 1), _pin_child(code, 2)
        assert one == two and one[1]

    def test_engine_bits_equal_the_computation_under_the_same_pin(self):
        got = _pin_child("""
            stats = mc._run_cells(CELLS, REPS, SEED, 1)
            before = mc._blas_threads(1)
            alone = out_of_engine()
            mc._blas_threads(before)
            print(json.dumps([digest(stats), digest(alone)]))
        """, 2)
        assert got[0] == got[1]

    def test_dgp2_bits_same_for_one_and_two_workers(self):
        got = _pin_child("""
            print(json.dumps([digest(mc._run_cells(CELLS, REPS, SEED, workers))
                              for workers in (1, 2)]))
        """, 2)
        assert got[0] == got[1]

    def test_callers_thread_count_restored_also_when_the_run_raises(self):
        got = _pin_child("""
            mc._blas_threads(2)
            setter, getter = mc._openblas
            seen, real = [], mc.run_replication

            def spy(task):
                seen.append(getter())
                return real(task)

            def fails(task):
                seen.append(getter())
                raise RuntimeError("injected")

            mc.run_replication = spy
            mc._run_cells(CELLS, REPS, SEED, 1)
            after = getter()
            mc.run_replication, raised = fails, False
            try:
                mc._run_cells(CELLS, REPS, SEED, 1)
            except RuntimeError:
                raised = True
            print(json.dumps({"seen": seen, "after": after, "raised": raised,
                              "after_raise": getter()}))
        """, 2)
        assert got == {"seen": [1, 1], "after": 2, "raised": True, "after_raise": 2}

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_failed_lookup_runs_with_blas_as_set(self, missing):
        # without the setter, _run_cells computes what run_replication computes
        # with the inherited thread count, as it did before the pin
        got = _pin_child(f"""
            import ctypes

            def not_found(path):
                if {missing!r} == "library":
                    raise OSError(path)
                return object()  # a library without the symbols

            ctypes.CDLL = not_found
            stats = mc._run_cells(CELLS, REPS, SEED, 1)
            print(json.dumps([digest(stats), digest(out_of_engine()), mc._openblas == ()]))
        """, 2)
        assert got[0] == got[1] and got[2]


def _blocked_grid():
    """A dgp1 and a dgp2 shape, each over 2 stream groups x 30 replications.

    dgp1: 2 groups (rho 0.25, 0.5) x 2 beta2 x 2 mu0;
    dgp2: 2 panels (N 12, 20) x 2 mu0.
    """
    dgp1 = [_cell(T=100, rho=rho, beta2=beta2, mu0=mu0)
            for rho in (0.25, 0.5) for beta2 in (0.2, 0.4) for mu0 in (0.35, 0.45)]
    dgp2 = [McCell(dgp=Dgp2Spec(T=60, N=N, beta2=0.3), mu0=mu0)
            for N in (12, 20) for mu0 in (0.35, 0.45)]
    return dgp1 + dgp2


class TestRowBlocks:
    """A shape's replications run in row blocks of max(1, _ROW_BLOCK // T); no bit depends on them."""

    @pytest.fixture
    def failing_rows(self, monkeypatch):
        """Replication 3 of the rho=0.25 group has a non-finite x, the closed form declines
        replication 20 of the rho=0.5 group, and the N=20 panel's factor is not identified
        in replication 7; returns the generic fits' call log, two fits per declined row."""
        real_draws1, real_draws2 = mc.dgp1_draws, mc.dgp2_draws
        real_kernel = regression._closed_form_pair
        real_fit = regression.expanding_window_forecast_errors
        spec = Dgp1Spec(T=100, rho=0.5)
        declined = mc.simulate_dgp1(spec, RngStream((5, mc._stream_digest(spec)), 20))

        def dgp1_draws(spec, streams):
            eps, x_path = real_draws1(spec, streams)
            ids = [s.stream_id for s in streams]
            if spec.rho == 0.25 and 3 in ids:
                x_path[ids.index(3), spec.burn_in + 40] = np.inf
            return eps, x_path

        def dgp2_draws(spec, stream):
            X, f_path, w_innov = real_draws2(spec, stream)
            if spec.N == 20 and stream.stream_id == 7:
                X = np.ones_like(X)  # no simple top eigenvalue
            return X, f_path, w_innov

        def kernel(y, x, h, k0):
            # the rows of the declined replication are left to the generic fits
            e1, e2 = real_kernel(y, x, h, k0)
            rows = x[:, 0] == declined["x"][0]
            e1[rows] = e2[rows] = np.nan
            return e1, e2

        generic = []
        monkeypatch.setattr(mc, "dgp1_draws", dgp1_draws)
        monkeypatch.setattr(mc, "dgp2_draws", dgp2_draws)
        monkeypatch.setattr(regression, "_closed_form_pair", kernel)
        monkeypatch.setattr(regression, "expanding_window_forecast_errors",
                            lambda design, k0: generic.append(k0) or real_fit(design, k0))
        return generic

    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_blocks_match_each_cell_alone(self, monkeypatch, failing_rows, workers):
        cells = _blocked_grid()
        alone = [_row_alone(cell, 30, 5) for cell in cells]  # one block per call
        assert len(failing_rows) == 2 * 4  # each cell of the declined replication's group
        real, rows = mc.nested_pair_forecast_errors, []
        monkeypatch.setattr(mc, "nested_pair_forecast_errors",
                            lambda y, extra, h, k0: rows.append(len(y)) or real(y, extra, h, k0))
        monkeypatch.setattr(mc, "_ROW_BLOCK", 1500)  # 15 rows at T=100, 25 at T=60
        got = mc._run_cells(cells, 30, 5, workers)
        if workers == 1:
            # one task: 2 dgp1 shapes of 60 rows in 4 blocks and one dgp2 shape in 3, each
            # block with its non-finite rows, which come back NaN
            assert rows == [15, 15, 15, 15] * 2 + [25, 25, 10]
            assert len(failing_rows) == 2 * 6  # and once per design of that group
        for cell, row, single in zip(cells, got, alone):
            assert row.tobytes() == single.tobytes()
        assert np.isnan(got[:4, 3]).all() and np.isnan(got[-2:, 7]).all()
        assert np.isfinite(np.delete(got[:4], 3, axis=1)).all() and np.isfinite(got[4:8]).all()
        assert np.isfinite(np.delete(got[8:], 7, axis=1)).all()

    def test_rows_above_one_block_of_the_module(self, monkeypatch):
        # 300 replications at T=150 run as tasks of 250 and 50 rows, in blocks of 218
        cells = [_cell(T=150, mu0=m) for m in (0.3, 0.4, 0.45, 0.6)]
        assert mc.TASK_REPLICATIONS > mc._ROW_BLOCK // 150 == 218
        real, rows = mc.nested_pair_forecast_errors, []
        monkeypatch.setattr(mc, "nested_pair_forecast_errors",
                            lambda y, extra, h, k0: rows.append(len(y)) or real(y, extra, h, k0))
        blocked = mc._run_cells(cells, 300, 8, 1)
        assert rows == [218, 32, 50]
        monkeypatch.setattr(mc, "_ROW_BLOCK", 250 * 150)
        assert blocked.tobytes() == mc._run_cells(cells, 300, 8, 1).tobytes()
        assert rows[3:] == [250, 50] and np.isfinite(blocked).all()


class TestRenderReport:
    def _tiny_report(self):
        cells = [_cell(T=250, mu0=m) for m in (0.40, 0.45)]
        return run_size_experiment(cells, reps=50, base_seed=7)

    def test_markdown_pivot_golden(self, data_dir):
        text = render_report(self._tiny_report(), "markdown")
        golden = (data_dir / "golden_mc_report.md").read_text()
        assert text == golden

    def test_csv_round_trip_full_precision(self):
        report = self._tiny_report()
        text = render_report(report, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        for row, cell in zip(rows, report.cells):
            assert row["label"] == cell.label
            assert int(row["reps"]) == cell.reps
            assert float(row["rejection_frequency"]) == cell.rejection_frequency
            assert float(row["mc_se"]) == cell.mc_se
            assert int(row["failures"]) == cell.failures

    def test_csv_column_order(self):
        text = render_report(self._tiny_report(), "csv")
        header = text.splitlines()[0].split(",")
        assert header[:5] == ["label", "reps", "rejection_frequency", "mc_se", "failures"]

    def test_json_one_object_per_cell(self):
        payload = json.loads(render_report(self._tiny_report(), "json"))
        assert isinstance(payload, list) and len(payload) == 2
        assert {"label", "rejection_frequency", "mc_se"} <= set(payload[0])

    def test_markdown_flat_fallback_without_groups(self):
        report = run_size_experiment(
            [McCell(dgp=Dgp1Spec(T=100, h=1), mu0=0.45, label="only", group="")],
            reps=5, base_seed=1)
        text = render_report(report, "markdown")
        assert "| label |" in text

    def test_empty_report_rejected(self):
        report = run_size_experiment([], reps=5, base_seed=1)
        with pytest.raises(ValueError):
            render_report(report, "markdown")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self._tiny_report(), "xml")


class TestConfigLoading:
    def _write(self, tmp_path, body):
        path = tmp_path / "exp.yaml"
        path.write_text(textwrap.dedent(body))
        return path

    def test_dgp1_grid_expansion(self, tmp_path):
        path = self._write(tmp_path, """
            experiment:
              kind: size
              reps: 123
              mu0: [0.40, 0.45]
              seed: 5
            dgp:
              family: dgp1
              T: [250, 500]
              h: 1
              rho: [0.25, 0.90]
              beta2: 0.0
              sigma: sigma2
        """)
        config = load_experiment_config(path)
        assert config.kind == "size" and config.reps == 123 and config.seed == 5
        assert len(config.cells) == 2 * 2 * 2
        labels = [c.label for c in config.cells]
        assert labels[0] == "dgp1,h=1,T=250,rho=0.25,mu0=0.4"
        assert len(set(labels)) == len(labels)
        assert_array_equal(config.cells[0].dgp.sigma, SIGMA2)

    def test_missing_seed_loads_default_seed(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: size, mu0: [0.45]}
            dgp: {family: dgp1, T: 250}
        """)
        assert load_experiment_config(path).seed == mc.DEFAULT_SEED

    def test_infeasible_cell_rejected_at_load(self, tmp_path):
        # T=150 leaves 8 forecast errors after k0 = floor(0.95 * 150)
        path = self._write(tmp_path, """
            experiment: {kind: size, mu0: [0.45], pi0: 0.95}
            dgp: {family: dgp1, T: [1000, 150]}
        """)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == "experiment.pi0"
        assert "dgp1,h=1,T=150,rho=0.25,mu0=0.45" in str(err.value)

    @pytest.mark.parametrize("experiment, T, stderr", [
        ({"bandwidth": 500}, 100, "error: experiment.bandwidth: cell dgp1,h=1,T=100,rho=0.25,"
         "mu0=0.45: bandwidth M=500 outside [1, 74]"),
        ({"bandwidth_c": 100.0}, 100, "error: experiment.bandwidth_c: cell dgp1,h=1,T=100,"
         "rho=0.25,mu0=0.45: bandwidth M=421 outside [1, 74]"),
        ({"mu0": [0.1], "pi0": 0.7}, 60, "error: experiment.mu0: cell dgp1,h=1,T=60,rho=0.25,"
         "mu0=0.1: m0=1 outside [2, 16] at n=18"),
        ({"pi0": 0.9}, 60, "error: experiment.pi0: cell dgp1,h=1,T=60,rho=0.25,mu0=0.45: "
         "k0=54 leaves 6 forecast errors (need at least 10)"),
    ], ids=["bandwidth", "bandwidth_c", "mu0", "pi0"])
    def test_unresolved_cell_names_the_key_it_fails_on(self, tmp_path, capsys, experiment, T,
                                                       stderr):
        raw = {"experiment": {"kind": "size", "mu0": [0.45], **experiment},
               "dgp": {"family": "dgp1", "T": T}}
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["mc-size", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == stderr + "\n"

    @pytest.mark.parametrize("reps", [0, -3])
    def test_reps_below_one_rejected(self, tmp_path, reps):
        path = self._write(tmp_path, f"""
            experiment: {{kind: size, mu0: [0.45], reps: {reps}}}
            dgp: {{family: dgp1, T: 250}}
        """)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == "experiment.reps"

    @pytest.mark.parametrize("key, value", [("level", 0.0), ("level", 1.5), ("pi0", 1.0)])
    def test_fraction_outside_unit_interval_rejected(self, tmp_path, key, value):
        path = self._write(tmp_path, f"""
            experiment: {{kind: size, mu0: [0.45], {key}: {value}}}
            dgp: {{family: dgp1, T: 250}}
        """)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == f"experiment.{key}"

    def test_power_grid_includes_beta2_in_group(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: power, mu0: [0.45]}
            dgp: {family: dgp1, T: 500, beta2: [0.2, 0.4]}
        """)
        config = load_experiment_config(path)
        assert [c.group for c in config.cells] == [
            "dgp1,h=1,T=500,rho=0.25,beta2=0.2",
            "dgp1,h=1,T=500,rho=0.25,beta2=0.4",
        ]

    def test_dgp2_nt_pairs(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: size, mu0: [0.45]}
            dgp:
              family: dgp2
              NT: [[100, 250], [500, 500]]
              h: [1, 4]
        """)
        config = load_experiment_config(path)
        assert len(config.cells) == 4
        assert config.cells[0].dgp.N == 100 and config.cells[0].dgp.T == 250

    def test_unknown_key_reports_path(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: size, mu0: [0.45]}
            dgp: {family: dgp1, T: 250, rho_typo: 0.3}
        """)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == "dgp.rho_typo"

    def test_unknown_experiment_key(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: size, mu0: [0.45], repz: 10}
            dgp: {family: dgp1, T: 250}
        """)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == "experiment.repz"

    @pytest.mark.parametrize("body, key_path, message", [
        ("experiment: [kind", "<file>", "not valid YAML: "),
        ("- 1\n- 2\n", "<root>", "config must be a mapping"),
        ("experiment: {kind: size, mu0: 0.45}\ndgp: {family: dgp1, T: 250}\nextra: 1\n",
         "extra", "unknown section"),
        ("experiment: {kind: size, mu0: 0.45}\n", "dgp", "missing or not a mapping"),
        ("experiment: 3\ndgp: {family: dgp1, T: 250}\n", "experiment",
         "missing or not a mapping"),
        ("experiment: {mu0: 0.45}\ndgp: {family: dgp1, T: 250}\n", "experiment.kind",
         "missing required key"),
        ("experiment: {kind: size}\ndgp: {family: dgp1, T: 250}\n", "experiment.mu0",
         "missing required key"),
        ("experiment: {kind: size, mu0: 0.45}\ndgp: {T: 250}\n", "dgp.family",
         "missing required key"),
        ("experiment: {kind: size, mu0: 0.45}\ndgp: {family: dgp1}\n", "dgp.T",
         "missing required key"),
        ("experiment: {kind: size, mu0: 0.45}\ndgp: {family: dgp2, h: 1}\n", "dgp.NT",
         "missing required key"),
        ("experiment: {kind: size, mu0: 0.45}\ndgp: {family: dgp3, T: 250}\n", "dgp.family",
         "unknown family 'dgp3'"),
    ], ids=["yaml", "root", "unknown-section", "missing-section", "section-not-mapping", "kind",
            "mu0", "family", "dgp1-T", "dgp2-NT", "unknown-family"])
    def test_malformed_file_names_its_key_path(self, tmp_path, body, key_path, message):
        path = tmp_path / "exp.yaml"
        path.write_text(body)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == key_path
        assert str(err.value).startswith(f"{key_path}: {message}")
        if key_path != "<file>":  # the YAML error goes on to say where the parser stopped
            assert str(err.value) == f"{key_path}: {message}"

    def test_both_bandwidth_keys_rejected(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: size, mu0: [0.45], bandwidth: 3, bandwidth_c: 1.0}
            dgp: {family: dgp1, T: 250}
        """)
        with pytest.raises(ConfigError, match="bandwidth"):
            load_experiment_config(path)

    def test_bad_kind(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: both, mu0: [0.45]}
            dgp: {family: dgp1, T: 250}
        """)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == "experiment.kind"

    def test_invalid_mu0_surfaces_as_config_error(self, tmp_path):
        path = self._write(tmp_path, """
            experiment: {kind: size, mu0: [0.50]}
            dgp: {family: dgp1, T: 250}
        """)
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == "experiment.mu0"

    @pytest.mark.parametrize("key_path, value", [
        ("experiment.level", [0.1]),
        ("experiment.reps", "abc"),
        ("experiment.seed", [1]),
        ("experiment.seed", -1),
        ("experiment.bandwidth_c", [1]),
        ("experiment.mu0", [0.50]),
        ("experiment.mu0", [0.40, 0.4000001]),
        ("experiment.bandwidth", 0),
        ("dgp.beta1", [0.3, 0.5]),
        ("dgp.beta2", 0.3),
        ("dgp.NT", [100, 250]),
        ("dgp.T", "abc"),
        ("dgp.sigma", "sigma9"),
    ], ids=str)
    def test_bad_value_names_its_key_path(self, tmp_path, capsys, key_path, value):
        section, key = key_path.split(".")
        dgp = {"family": "dgp2"} if key == "NT" else {"family": "dgp1", "T": 250}
        raw = {"experiment": {"kind": "size", "mu0": [0.45]}, "dgp": dgp}
        raw[section][key] = value
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == key_path
        assert main(["mc-size", str(path)]) == 2  # an uncaught error would raise here
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {key_path}: ")

    @pytest.mark.parametrize("key_path, family, message", [
        ("experiment.mu0", "dgp1", "mu0_list must not be empty"),
        ("dgp.T", "dgp1", "must not be empty"),
        ("dgp.h", "dgp1", "must not be empty"),
        ("dgp.rho", "dgp1", "must not be empty"),
        ("dgp.beta2", "dgp1", "must not be empty"),
        ("dgp.h", "dgp2", "must not be empty"),
        ("dgp.NT", "dgp2", "must not be empty"),
        ("dgp.beta2", "dgp2", "must not be empty"),
    ], ids=["mu0", "dgp1-T", "dgp1-h", "dgp1-rho", "dgp1-beta2", "dgp2-h", "dgp2-NT",
            "dgp2-beta2"])
    def test_empty_list_names_its_key(self, tmp_path, capsys, key_path, family, message):
        # an empty list expands to no cells; the error names the list, not "dgp"
        section, key = key_path.split(".")
        dgp = {"family": "dgp2", "NT": [[100, 250]]} if family == "dgp2" \
            else {"family": "dgp1", "T": 250}
        raw = {"experiment": {"kind": "size", "mu0": [0.45]}, "dgp": dgp}
        raw[section][key] = []
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == key_path
        assert main(["mc-size", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key_path}: {message}\n"

    @pytest.mark.parametrize("key_path, value", [
        ("experiment.reps", 12.9),
        ("experiment.reps", True),
        ("experiment.seed", True),
        ("experiment.seed", 7.5),
        ("experiment.bandwidth", 3.5),
        ("experiment.bandwidth", True),
        ("experiment.bandwidth_c", True),
        ("experiment.bandwidth_c", math.inf),
        ("experiment.bandwidth_c", math.nan),
        ("dgp.T", 250.7),
        ("dgp.h", 1.9),
        ("dgp.h", True),
        ("dgp.burn_in", 10.5),
        ("dgp.NT", [[100.5, 250]]),
        ("dgp.beta2", True),
        ("dgp.theta", True),
        ("dgp.alpha", True),
        ("dgp.loading_std", True),
        ("dgp.sigma", [[True, False], [False, True]]),
    ], ids=str)
    def test_number_taken_as_written(self, tmp_path, capsys, key_path, value):
        # int() and float() would take these as a truncated int or as 1.0; a non-finite
        # bandwidth_c would fail only where a cell resolves, without its key path
        section, key = key_path.split(".")
        dgp2 = key in ("NT", "alpha", "loading_std")
        dgp = {"family": "dgp2", "NT": [[100, 250]]} if dgp2 else {"family": "dgp1", "T": 250}
        raw = {"experiment": {"kind": "power", "mu0": [0.45]}, "dgp": {**dgp, "beta2": 0.3}}
        raw[section][key] = value
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.key_path == key_path
        assert main(["mc-power", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {key_path}: ")

    @pytest.mark.parametrize("key, value", [
        ("theta", math.inf),
        ("beta2", math.nan),
        ("alpha", math.inf),
        ("loading_std", math.inf),
        ("sigma", [[math.inf, 0.0], [0.0, 1.0]]),
        ("sigma", [[1.0, math.nan], [math.nan, 1.0]]),
    ], ids=str)
    def test_non_finite_dgp_value_fails_at_load(self, tmp_path, capsys, key, value):
        # at h=2 a non-finite theta made every replication a failure, and the run exited 0
        dgp2 = key in ("alpha", "loading_std")
        dgp = {"family": "dgp2", "NT": [[100, 250]]} if dgp2 else {"family": "dgp1", "T": 250}
        raw = {"experiment": {"kind": "power", "mu0": [0.45], "reps": 2},
               "dgp": {**dgp, "h": 2, "beta2": 0.3, key: value}}
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        field = "sigma entries" if key == "sigma" else key
        with pytest.raises(ConfigError, match=f"^dgp: {field} must be finite$") as err:
            load_experiment_config(path)
        assert err.value.key_path == "dgp"
        assert main(["mc-power", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dgp: {field} must be finite\n"

    @pytest.mark.parametrize("key_path, value, field, expected", [
        ("experiment.reps", 250.0, "reps", 250),
        ("dgp.T", 250.0, "T", 250),
        ("dgp.beta2", 1, "beta2", 1.0),
    ], ids=str)
    def test_whole_float_and_int_taken_as_their_value(self, tmp_path, key_path, value, field,
                                                      expected):
        section, key = key_path.split(".")
        raw = {"experiment": {"kind": "power", "mu0": [0.45]},
               "dgp": {"family": "dgp1", "T": 250, "beta2": 0.3}}
        raw[section][key] = value
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        config = load_experiment_config(path)
        got = getattr(config if section == "experiment" else config.cells[0].dgp, field)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("dgp, expected", [
        ("{family: dgp1, T: 250}", Dgp1Spec(T=250)),
        ("{family: dgp2, NT: [[100, 250]]}", Dgp2Spec(N=100, T=250)),
    ])
    def test_omitted_keys_take_dataclass_defaults(self, tmp_path, dgp, expected):
        path = self._write(tmp_path, f"""
            experiment: {{kind: size, mu0: [0.45]}}
            dgp: {dgp}
        """)
        (cell,) = load_experiment_config(path).cells
        for f in dataclasses.fields(expected):
            got, want = getattr(cell.dgp, f.name), getattr(expected, f.name)
            assert type(got) is type(want), f.name
            assert_array_equal(got, want, err_msg=f.name)
        default = McCell(dgp=expected, mu0=0.45)
        assert (cell.pi0, cell.level, cell.hac) == (default.pi0, default.level, default.hac)

    def test_shipped_configs_parse(self):
        import pathlib

        config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
        for name in config_dir.glob("*.yaml"):
            config = load_experiment_config(name)
            assert len(config.cells) > 0
            assert config.reps == 10000

    def test_mc_cell_validation(self):
        with pytest.raises(ValueError, match=r"^pi0 must lie in \(0, 1\), got 1.5"):
            McCell(dgp=Dgp1Spec(T=100, h=1), mu0=0.45, pi0=1.5)
        with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\), got 0"):
            McCell(dgp=Dgp1Spec(T=100, h=1), mu0=0.45, level=0.0)
        with pytest.raises(InvalidSplit):
            McCell(dgp=Dgp1Spec(T=100, h=1), mu0=0.50)
