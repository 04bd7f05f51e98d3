import csv
import dataclasses
import io
import json
import math
import textwrap

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.stats import norm

import splitenc.monte_carlo as mc
from splitenc.cli import main
from splitenc.dgp import SIGMA2, Dgp1Spec, Dgp2Spec, RngStream
from splitenc.enc_test import HacConfig, SplitSpec
from splitenc.errors import (
    BandwidthOutOfRange,
    ConfigError,
    DegenerateSpectrum,
    DegenerateVariance,
    InsufficientData,
    InvalidSplit,
    NumericalError,
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


def _cell(T=250, h=1, rho=0.25, beta2=0.0, mu0=0.45, pi0=0.25, **kw):
    spec = Dgp1Spec(T=T, h=h, rho=rho, beta2=beta2)
    group = f"dgp1,h={h},T={T},rho={rho:g}"
    return McCell(dgp=spec, mu0=mu0, pi0=pi0, label=f"{group},mu0={mu0:g}",
                  group=group, **kw)


class TestRunReplication:
    def test_bit_identical_across_calls(self):
        cell = _cell()
        a = run_replication([cell], range(7, 10), 99)
        b = run_replication([cell], range(7, 10), 99)
        assert isinstance(a, np.ndarray) and a.shape == (1, 3)
        assert a.tobytes() == b.tobytes()

    def test_distinct_reps_differ(self):
        cell = _cell()
        a, b = run_replication([cell], range(0, 2), 99)[0]
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
        assert _cell(T=250, pi0=0.25).forecast_origin() == 62
        with pytest.raises(InsufficientData):
            _cell(T=60, pi0=0.05).forecast_origin()  # k0 = 3 < 3 + h
        with pytest.raises(InsufficientData):
            _cell(T=150, pi0=0.95).forecast_origin()  # 8 forecast errors
        with pytest.raises(BandwidthOutOfRange):
            _cell(T=100, hac=HacConfig(bandwidth=80)).forecast_origin()

    def test_dgp2_pipeline(self):
        cell = McCell(dgp=Dgp2Spec(T=120, N=30, h=1), mu0=0.45, label="d2", group="g")
        stats = run_replication([cell], range(0, 2), 5)
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
        real = mc.run_replication

        def every_third_fails(cells, reps, base_seed):
            # the chunk holds rep 0, so it fails and its replications rerun one by one
            if any(rep % 3 == 0 for rep in reps):
                raise NumericalError("injected")
            return real(cells, reps, base_seed)

        monkeypatch.setattr(mc, "run_replication", every_third_fails)
        c = run_size_experiment([_cell(T=100)], reps=30, base_seed=3).cells[0]
        assert c.failures == 10 and not c.reliable
        p = c.rejection_frequency
        crit = float(norm.ppf(0.90))
        assert p == sum(real([_cell(T=100)], range(rep, rep + 1), 3)[0, 0] > crit
                        for rep in range(30) if rep % 3) / 20
        assert c.mc_se == math.sqrt(p * (1.0 - p) / 20)

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
        fallbacks = []
        monkeypatch.setattr(mc, "expanding_window_forecast_errors",
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
            cells[0].forecast_origin()
            cells[1].forecast_origin()
        except SplitEncError:
            assume(False)
        b, c = a + length, a + min(cut, length)
        block = run_replication(cells, range(a, b), seed)
        assert block.shape == (2, length)
        split = np.concatenate([run_replication(cells, part, seed)
                                for part in (range(a, c), range(c, b)) if part], axis=1)
        singles = np.concatenate([run_replication(cells, range(r, r + 1), seed)
                                  for r in range(a, b)], axis=1)
        assert block.tobytes() == split.tobytes() == singles.tobytes()

    def test_dgp2_chunk_equals_single_runs(self):
        cells = [McCell(dgp=Dgp2Spec(T=80, N=12, h=2, beta2=0.3), mu0=m) for m in (0.35, 0.45)]
        block = run_replication(cells, range(4, 9), 31)
        singles = np.concatenate([run_replication(cells, range(r, r + 1), 31)
                                  for r in range(4, 9)], axis=1)
        assert block.shape == (2, 5) and np.all(np.isfinite(block))
        assert block.tobytes() == singles.tobytes()


def _row_alone(cell, reps, seed):
    return mc._run_cells([cell], reps, seed, 1)[0]


class TestDesignGroups:
    """Cells that share a DGP spec and pi0 are simulated and fitted once per replication."""

    def test_cell_row_independent_of_grid(self):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.40, 0.45)]
        other = [_cell(T=120, rho=0.9, mu0=m) for m in (0.40, 0.45)]
        target = _cell(T=100, mu0=0.40)
        alone = _row_alone(target, 20, 13)
        for grid, index in ((group, 1), (group[::-1], 1),
                            ([other[0], *group, other[1]], 2)):
            row = mc._run_cells(grid, 20, 13, 1)[index]
            assert row.tobytes() == alone.tobytes()

    def test_spec_digest_is_canonical(self):
        base = mc._spec_digest(Dgp1Spec(T=100))
        assert mc._spec_digest(Dgp1Spec(T=100, beta2=-0.0)) == base
        for other in (Dgp1Spec(T=101), Dgp1Spec(T=100, sigma=SIGMA2),
                      Dgp1Spec(T=100, burn_in=201), Dgp2Spec(T=100, N=10)):
            assert mc._spec_digest(other) != base

    def test_one_simulation_and_fit_per_group_replication(self, tmp_path, monkeypatch):
        # the mc-dgp2 sub-grid of perfbench/inputs.py: 2 groups x 4 mu0, 2 reps
        path = tmp_path / "dgp2.yaml"
        path.write_text(
            "experiment:\n  kind: power\n  reps: 2\n  mu0: [0.30, 0.35, 0.40, 0.45]\n"
            "  bandwidth_c: 1.0\n  seed: 1\n"
            "dgp:\n  family: dgp2\n  NT: [[100, 250], [500, 500]]\n  h: 4\n"
            "  beta1: 0.3\n  beta2: 0.3\n  theta: 0.5\n  alpha1: 0.5\n  rho_i: 0.5\n")
        config = load_experiment_config(path)
        calls = {"simulate_dgp2": 0, "estimate_factor": 0, "_forecast_error_pair": 0}
        for name in calls:
            def counted(*args, _real=getattr(mc, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mc, name, counted)
        report = run_power_experiment(config.cells, config.reps, config.seed)
        assert len(report.cells) == 8
        assert all(c.failures == 0 for c in report.cells)
        # dgp2 simulates and extracts per replication; the pair runs once per (group, chunk)
        assert calls == {"simulate_dgp2": 4, "estimate_factor": 4, "_forecast_error_pair": 2}

    def test_test_failure_fails_its_cell_only(self, monkeypatch):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.40, 0.45)]
        clean = run_replication(group, range(3, 8), 17)
        real = mc.split_statistic
        m0_040 = SplitSpec(0.40).m0(75)  # n = 75 forecast errors at T=100, h=1, pi0=0.25

        def fails_at_040(e1, e2, m0, M):
            if m0 == m0_040:
                raise DegenerateVariance("injected")
            return real(e1, e2, m0, M)

        monkeypatch.setattr(mc, "split_statistic", fails_at_040)
        got = run_replication(group, range(3, 8), 17)
        assert np.isnan(got[1]).all()
        assert got[[0, 2]].tobytes() == clean[[0, 2]].tobytes()

    def test_simulation_failure_fails_every_cell_of_its_group(self, monkeypatch):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.40, 0.45)]
        other = _cell(T=120, rho=0.9, mu0=0.45)
        clean = mc._run_cells([*group, other], 10, 19, 1)
        real, seen = mc.simulate_dgp1, []

        def rep0_of_first_group_fails(spec, streams):
            seen.append([s.stream_id for s in streams])
            if spec.T == 100 and 0 in seen[-1]:
                raise NumericalError("injected")
            return real(spec, streams)

        monkeypatch.setattr(mc, "simulate_dgp1", rep0_of_first_group_fails)
        report = run_size_experiment([*group, other], reps=10, base_seed=19)
        assert [c.failures for c in report.cells] == [1, 1, 1, 0]
        # one simulation per (group, chunk), then one per replication of the failed chunk
        assert seen == [list(range(10)), *([rep] for rep in range(10)), list(range(10))]
        seen.clear()
        again = mc._run_cells([*group, other], 10, 19, 1)
        assert np.isnan(again[:3, 0]).all()
        assert again[:, 1:].tobytes() == clean[:, 1:].tobytes()

    def test_non_finite_replication_fails_its_group_only(self, monkeypatch):
        group = [_cell(T=100, mu0=m) for m in (0.30, 0.45)]
        other = _cell(T=120, rho=0.9, mu0=0.45)
        clean = mc._run_cells([*group, other], 10, 29, 1)
        real = mc.simulate_dgp1

        def nan_in_rep3(spec, rng):
            sim = real(spec, rng)
            ids = [rng.stream_id] if isinstance(rng, RngStream) else [s.stream_id for s in rng]
            if spec.T == 100 and 3 in ids:
                y = sim["y"].copy()
                np.atleast_2d(y)[ids.index(3), 50] = np.nan
                sim = {**sim, "y": y}
            return sim

        monkeypatch.setattr(mc, "simulate_dgp1", nan_in_rep3)
        report = run_size_experiment([*group, other], reps=10, base_seed=29)
        assert [c.failures for c in report.cells] == [1, 1, 0]
        got = mc._run_cells([*group, other], 10, 29, 1)
        keep = np.arange(10) != 3
        assert np.isnan(got[:2, 3]).all()
        assert got[:2, keep].tobytes() == clean[:2, keep].tobytes()
        assert got[2].tobytes() == clean[2].tobytes()

    def test_factor_failure_fails_its_replication_only(self, monkeypatch):
        cells = [McCell(dgp=Dgp2Spec(T=80, N=12, h=2), mu0=m) for m in (0.35, 0.45)]
        clean = run_replication(cells, range(0, 3), 37)
        real, calls = mc.estimate_factor, []

        def second_call_fails(X):
            calls.append(X)
            if len(calls) == 2:
                raise DegenerateSpectrum("injected")
            return real(X)

        monkeypatch.setattr(mc, "estimate_factor", second_call_fails)
        got = run_replication(cells, range(0, 3), 37)
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
        with pytest.raises(ValueError):
            McCell(dgp=Dgp1Spec(T=100, h=1), mu0=0.45, pi0=1.5)
        with pytest.raises(InvalidSplit):
            McCell(dgp=Dgp1Spec(T=100, h=1), mu0=0.50)
