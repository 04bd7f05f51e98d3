import csv
import io
import json
import textwrap

import numpy as np
import pytest

import splitenc.cli as cli
import splitenc.monte_carlo as mc
from splitenc.cli import main

GOLDEN_STATISTIC = 3.196545488539244  # frozen from the direct-formula oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_rejected(capsys, *argv):
    """(exit code, stdout, stderr) of a command line that the argument parser rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _table_body(stdout: str) -> str:
    """Everything after the config-echo line."""
    lines = stdout.splitlines()
    assert lines[0].startswith("# config:")
    return "\n".join(lines[1:]) + "\n"


def _stdout_of_rewritten_copy(capsys, monkeypatch, data_dir, tmp_path, name, rewrite, command,
                              *options):
    """stdout of ``command`` on data file ``name`` and on a rewritten copy of it.

    Each run starts in its file's directory, so the config echo names the
    same path; both runs must succeed.
    """
    (tmp_path / name).write_text(rewrite((data_dir / name).read_text()), encoding="utf-8")
    outputs = []
    for where in (data_dir, tmp_path):
        monkeypatch.chdir(where)
        code, out, _ = run_cli(capsys, command, name, *options)
        assert code == 0
        outputs.append(out)
    return outputs


class TestCmdTest:
    def test_golden_snapshot(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "test", str(data_dir / "errors_fixture.csv"),
                               "--mu0", "0.4", "--bandwidth", "2")
        assert code == 0
        assert _table_body(out) == (data_dir / "golden_cli_test.md").read_text()

    @pytest.mark.parametrize("fmt, ext", [("csv", "csv"), ("json", "json")])
    def test_machine_formats_golden(self, capsys, data_dir, fmt, ext):
        code, out, _ = run_cli(capsys, "test", str(data_dir / "errors_fixture.csv"),
                               "--mu0", "0.4", "--bandwidth", "2", "--format", fmt)
        assert code == 0
        assert _table_body(out) == (data_dir / f"golden_cli_test.{ext}").read_text()

    def test_csv_has_full_precision(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "test", str(data_dir / "errors_fixture.csv"),
                               "--mu0", "0.4", "--bandwidth", "2", "--format", "csv")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(_table_body(out))))
        assert float(row["statistic"]) == GOLDEN_STATISTIC
        assert row["centering"] == "segment"

    def test_mu0_half_exits_2(self, capsys, data_dir):
        code, out, err = run_rejected(capsys, "test", str(data_dir / "errors_fixture.csv"),
                                      "--mu0", "0.5")
        assert code == 2
        assert out == "" and "argument --mu0: " in err

    def test_constant_errors(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("e1,e2\n" + "1.0,1.0\n" * 12)
        # the literal globally-centered normalizer keeps the balanced-split
        # zero well defined ...
        code, out, _ = run_cli(capsys, "test", str(path), "--mu0", "0.4",
                               "--bandwidth", "2", "--centering", "global",
                               "--format", "json")
        assert code == 0
        record = json.loads(_table_body(out))
        assert record["statistic"] == 0.0
        assert record["p_value"] == 0.5
        # ... while the default consistent normalizer reports degeneracy
        code, _, err = run_cli(capsys, "test", str(path), "--mu0", "0.4",
                               "--bandwidth", "2")
        assert code == 3
        assert "numerical" in err

    def test_malformed_errors_file(self, capsys, tmp_path):
        # each file exits 2 with one stderr line, after the config echo and
        # before any result
        cases = [
            ("e1,e2\n1.0\n", "line 2: expected 2 fields, got 1"),
            ("", "empty errors file"),
            ("e1,e3\n1.0,2.0\n", "expected header e1,e2, got 'e1,e3'"),
            ("e1,e2\n1.0,2.0,3.0\n", "line 2: expected 2 fields, got 3"),
            ("e1,e2\n" + "1.0,2.0\n" * 12 + "1.0,x\n", "line 14: bad number in ['1.0', 'x']"),
            # the header is accepted in any case and with spaces, and blank rows
            # are skipped, which leaves 9 errors: one too few for the test
            (" E1 , e2\n\n , \n" + "1.0,2.0\n" * 9, "need at least 10 forecast errors"),
        ]
        path = tmp_path / "bad.csv"
        for text, message in cases:
            path.write_text(text)
            code, out, err = run_cli(capsys, "test", str(path))
            assert (code, err) == (2, f"error: {message}\n"), text
            assert out.startswith("# config:") and out.count("\n") == 1

    @pytest.mark.parametrize("row", ["nan,1", "1.0,inf", "-inf,2.0", " NaN , nan"])
    def test_non_finite_error_names_its_line(self, capsys, tmp_path, row):
        # read after 12 finite rows, so the file would otherwise be long enough to test
        path = tmp_path / "errors.csv"
        path.write_text("e1,e2\n" + "1.0,2.0\n" * 12 + row + "\n" + "1.0,2.0\n")
        code, out, err = run_cli(capsys, "test", str(path))
        fields = row.split(",")
        message = f"line 14: forecast errors must be finite, got {fields!r}"
        assert (code, err) == (2, f"error: {message}\n")
        assert out.startswith("# config:") and out.count("\n") == 1

    @pytest.mark.parametrize("rewrite", [
        lambda text: "\ufeff" + text,  # a spreadsheet's "CSV UTF-8" byte-order mark
        lambda text: text.replace("e1,e2\n", " E1 ,e2 \n\n , \n", 1),
    ], ids=["bom", "header-case-and-blank-rows"])
    def test_accepted_variants_print_the_same(self, capsys, data_dir, tmp_path, monkeypatch,
                                              rewrite):
        original, variant = _stdout_of_rewritten_copy(
            capsys, monkeypatch, data_dir, tmp_path, "errors_fixture.csv", rewrite,
            "test", "--mu0", "0.4", "--bandwidth", "2")
        assert original == variant

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "test", "/nonexistent/errors.csv")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["test", str(data_dir / "errors_fixture.csv"), "--bogus", "1"])
        assert exc.value.code == 2


TINY_SIZE_CONFIG = """
experiment:
  kind: size
  reps: 30
  mu0: [0.40, 0.45]
  seed: 7
dgp:
  family: dgp1
  T: 150
  h: 1
  rho: [0.25]
  beta2: 0.0
"""

TINY_POWER_CONFIG = TINY_SIZE_CONFIG.replace("kind: size", "kind: power").replace(
    "beta2: 0.0", "beta2: 0.3")


# the cell grid of golden_mc_report.* (reps=50, seed=7)
GOLDEN_GRID_CONFIG = """
experiment:
  kind: size
  reps: 50
  mu0: [0.40, 0.45]
  seed: 7
dgp:
  family: dgp1
  T: 250
  h: 1
  rho: 0.25
"""


class TestMcCommands:
    @pytest.mark.parametrize("fmt, ext", [("markdown", "md"), ("csv", "csv"), ("json", "json")])
    def test_golden_grid(self, capsys, tmp_path, data_dir, fmt, ext):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(GOLDEN_GRID_CONFIG))
        out = tmp_path / f"report.{ext}"
        assert run_cli(capsys, "mc-size", str(config), "--format", fmt,
                       "--out", str(out))[0] == 0
        assert out.read_text() == (data_dir / f"golden_mc_report.{ext}").read_text()

    def test_infeasible_cell_fails_before_any_replication(self, capsys, tmp_path,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(mc, "run_replication", lambda *a: calls.append(a))
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG).replace(
            "T: 150", "T: [1000, 150]").replace("reps: 30", "reps: 30\n  pi0: 0.95"))
        code, out, err = run_cli(capsys, "mc-size", str(config))
        assert code == 2
        assert "experiment.pi0" in err and "T=150" in err
        assert out == "" and calls == []

    def test_threads_do_not_change_output_file(self, capsys, tmp_path):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(capsys, "mc-size", str(config), "--threads", "1",
                       "--format", "csv", "--out", str(out1))[0] == 0
        assert run_cli(capsys, "mc-size", str(config), "--threads", "2",
                       "--format", "csv", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_repeat_run_byte_identical(self, capsys, tmp_path):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG))
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "mc-size", str(config), "--format", "json")
            assert code == 0
            outs.append(_table_body(out))
        assert outs[0] == outs[1]

    def test_malformed_config_reports_key_path(self, capsys, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text(textwrap.dedent("""
            experiment: {kind: size, mu0: [0.45]}
            dgp: {family: dgp1, T: 150, rho_typo: 1}
        """))
        code, _, err = run_cli(capsys, "mc-size", str(config))
        assert code == 2
        assert "dgp.rho_typo" in err

    @pytest.mark.parametrize("line, key_path", [("reps: 0", "experiment.reps"),
                                                ("level: 1.5", "experiment.level")])
    def test_bad_experiment_value_exits_2_with_key_path(self, capsys, tmp_path, monkeypatch,
                                                        line, key_path):
        calls = []
        monkeypatch.setattr(mc, "run_replication", lambda *a: calls.append(a))
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG).replace("reps: 30", line))
        code, out, err = run_cli(capsys, "mc-size", str(config))
        assert code == 2
        assert key_path in err
        assert out == "" and calls == []

    @pytest.mark.parametrize("command", ["mc-size", "mc-power"])
    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_rejected_when_parsed(self, capsys, tmp_path, command, reps):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG))
        with pytest.raises(SystemExit) as exc:
            main([command, str(config), "--reps", reps])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--reps" in captured.err

    @pytest.mark.parametrize("option, value, reason", [
        ("--seed", "-3", "must be non-negative, got -3"),
        ("--threads", "0", "must be at least 1, got 0"),
        ("--threads", "-2", "must be at least 1, got -2"),
    ])
    def test_bad_seed_or_threads_rejected_when_parsed(self, capsys, tmp_path, option, value,
                                                      reason):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG))
        code, out, err = run_rejected(capsys, "mc-size", str(config), option, value)
        assert code == 2 and out == ""
        assert f"argument {option}: {reason}" in err

    def test_power_config_without_beta2_fails_at_load(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(mc, "run_replication", lambda *a: calls.append(a))
        config = tmp_path / "power.yaml"
        config.write_text(textwrap.dedent(TINY_POWER_CONFIG).replace("  beta2: 0.3\n", ""))
        code, out, err = run_cli(capsys, "mc-power", str(config))
        assert code == 2
        assert err.startswith("error: dgp.beta2: ")
        assert out == "" and calls == []

    def test_kind_mismatch(self, capsys, tmp_path):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG))
        code, _, err = run_cli(capsys, "mc-power", str(config))
        assert code == 2
        assert "size" in err

    def test_config_seed_zero_is_used(self, capsys, tmp_path):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG).replace("seed: 7", "seed: 0"))
        code, out, _ = run_cli(capsys, "mc-size", str(config), "--format", "json")
        assert code == 0
        assert " seed=0 " in out.splitlines()[0]
        code, explicit, _ = run_cli(capsys, "mc-size", str(config), "--seed", "0",
                                    "--format", "json")
        assert code == 0
        assert _table_body(out) == _table_body(explicit)
        loaded = mc.load_experiment_config(config)
        report = mc.run_size_experiment(loaded.cells, reps=loaded.reps, base_seed=0)
        assert _table_body(out) == mc.render_report(report, "json")
        # seed 0 is a seed of its own, not the default seed in disguise
        cell = loaded.cells[0]
        zero = mc.collect_statistics(cell, reps=loaded.reps, base_seed=0)
        default = mc.collect_statistics(cell, reps=loaded.reps, base_seed=mc.DEFAULT_SEED)
        assert zero.tobytes() != default.tobytes()

    def test_reps_override(self, capsys, tmp_path):
        config = tmp_path / "size.yaml"
        config.write_text(textwrap.dedent(TINY_SIZE_CONFIG))
        code, out, _ = run_cli(capsys, "mc-size", str(config), "--reps", "5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(_table_body(out))
        assert all(cell["reps"] == 5 for cell in payload)


class TestLocalPowerCommand:
    def _blocks(self, tmp_path):
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps({"c": [1.0], "Q11": [[1.0]], "Q12": [[0.0]],
                                    "Q21": [[0.0]], "Q22": [[1.0]]}))
        return str(path)

    def test_zero_direction_gives_level(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "local-power", self._blocks(tmp_path),
                               "--mu0", "0.45", "--c-scale", "0.0",
                               "--level", "0.10", "--format", "csv")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(_table_body(out))))
        assert float(row["drift"]) == 0.0
        assert float(row["power"]) == 0.10

    def test_scalar_golden_drift(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "local-power", self._blocks(tmp_path),
                               "--mu0", "0.45", "--format", "csv")
        row = next(csv.DictReader(io.StringIO(_table_body(out))))
        assert abs(float(row["drift"]) - 8.616843969807045) < 1e-6

    def test_drift_increasing_over_mu0_grid(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "local-power", self._blocks(tmp_path),
                               "--mu0", "0.30", "0.36", "0.42", "0.48",
                               "--format", "csv")
        assert code == 0
        drifts = [float(r["drift"]) for r in csv.DictReader(io.StringIO(_table_body(out)))]
        assert all(b > a for a, b in zip(drifts, drifts[1:]))

    @pytest.mark.parametrize("fmt, ext", [("markdown", "md"), ("csv", "csv"), ("json", "json")])
    def test_golden_snapshots(self, capsys, data_dir, fmt, ext):
        code, out, _ = run_cli(capsys, "local-power", str(data_dir / "blocks_fixture.json"),
                               "--mu0", "0.30", "0.45", "--c-scale", "0.0", "1.0",
                               "--format", fmt)
        assert code == 0
        assert _table_body(out) == (data_dir / f"golden_local_power.{ext}").read_text()

    def test_missing_block_key(self, capsys, tmp_path):
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps({"c": [1.0], "Q11": [[1.0]]}))
        code, _, err = run_cli(capsys, "local-power", str(path))
        assert code == 2
        assert "b12" in err

    def test_blocks_file_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "blocks.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "local-power", str(path))
        assert code == 2
        assert "JSON object" in err

    def test_blocks_file_not_valid_json(self, capsys, tmp_path):
        path = tmp_path / "blocks.json"
        path.write_text('{"c": [1.0,')
        code, _, err = run_cli(capsys, "local-power", str(path))
        assert code == 2
        assert err == ("error: blocks file is not valid JSON: "
                       "Expecting value: line 1 column 12 (char 11)\n")


class TestInflationCommand:
    def test_fixture_golden(self, capsys, fixture_panel_path, data_dir, tmp_path):
        out_file = tmp_path / "study.md"
        code, _, _ = run_cli(capsys, "inflation", fixture_panel_path,
                             "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == (data_dir / "golden_study.md").read_text()

    @pytest.mark.parametrize("fmt, ext", [("csv", "csv"), ("json", "json")])
    def test_machine_formats_golden(self, capsys, fixture_panel_path, data_dir, fmt, ext):
        code, out, _ = run_cli(capsys, "inflation", fixture_panel_path, "--format", fmt)
        assert code == 0
        assert _table_body(out) == (data_dir / f"golden_study.{ext}").read_text()

    @pytest.mark.parametrize("exclude_own", [[], ["--exclude-own"]])
    def test_bom_prints_the_same(self, capsys, data_dir, tmp_path, monkeypatch, exclude_own):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        original, variant = _stdout_of_rewritten_copy(
            capsys, monkeypatch, data_dir, tmp_path, "fixture_panel.csv",
            lambda text: "\ufeff" + text, "inflation", *exclude_own)
        assert original == variant

    def test_exclude_own_failure_names_the_quarter(self, capsys, tmp_path):
        # bbb ends in 1989Q4 and ccc starts in 1990Q1, which has no prior ccc price, so
        # without aaa the quarter 1990Q1 has no contributor between contributed quarters
        g = np.random.default_rng(12)
        rows = ["country,date,hcpi"]
        for name, start, count in (("aaa", 1970, 160), ("bbb", 1970, 80), ("ccc", 1990, 80)):
            prices = 100.0 * np.exp(np.cumsum(2.0 + g.standard_normal(count)) / 400.0)
            rows += [f"{name},{start + i // 4}Q{i % 4 + 1},{p:.6f}" for i, p in enumerate(prices)]
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "inflation", str(path), "--exclude-own")
        assert code == 0
        body = _table_body(out).splitlines()
        assert body[-1] == "| aaa | error: country aaa: no contributing country at 1990Q1 |"
        assert [row.split(" | ")[0] for row in body[2:-1]] == ["| bbb", "| ccc"]

    def test_exclude_own_trims_the_quarters_no_other_country_covers(self, capsys,
                                                                     fixture_panel_path):
        # without aaa the quarters up to 1972Q1 have no contributor, and without bbb the
        # quarters from 2000Q1; each country runs on the quarters the others cover
        code, out, _ = run_cli(capsys, "inflation", fixture_panel_path, "--exclude-own")
        assert code == 0
        rows = _table_body(out).splitlines()[2:]
        assert [row.split(" | ")[0] for row in rows] == ["| aaa", "| bbb", "| ccc"]
        assert "error" not in out
        # aaa's first origin is taken on its quarters from 1972Q1, k0 = 8 + floor(112 *
        # 0.25) = 36, which leaves 81 forecasts;
        # bbb loses the forecasts of its targets after 2000Q4; ccc is as before
        assert rows[0] == "| aaa | 1.083 | 0.170 | 0.120 | 0 | 81 |"
        assert rows[1].endswith(" | 0 | 56 |")
        assert rows[2] == "| ccc | 1.110 | 0.674 | 0.657 | 0 | 72 |"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "inflation", "/nonexistent/panel.csv")
        assert code == 2

    def test_repeated_mu0_gives_two_columns(self, capsys, fixture_panel_path):
        code, out, _ = run_cli(capsys, "inflation", fixture_panel_path,
                               "--mu0", "0.30", "0.45", "--format", "csv")
        assert code == 0
        header = _table_body(out).splitlines()[0]
        assert "p_mu0_0.3" in header and "p_mu0_0.45" in header

    def test_mu0_sharing_a_label_exits_2(self, capsys, fixture_panel_path):
        code, out, err = run_cli(capsys, "inflation", fixture_panel_path,
                                 "--mu0", "0.4", "0.4000001", "--format", "csv")
        assert code == 2
        assert out == ""  # rejected before the config echo
        assert err == "error: --mu0: mu0 values 0.4 and 0.4000001 share the label 0.4\n"

    def test_repeat_run_identical_bytes(self, capsys, fixture_panel_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "inflation", fixture_panel_path, "--format", "csv",
                "--out", str(a))
        run_cli(capsys, "inflation", fixture_panel_path, "--format", "csv",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_echo_printed_before_results(self, capsys, fixture_panel_path):
        _, out, _ = run_cli(capsys, "inflation", fixture_panel_path)
        assert out.splitlines()[0].startswith("# config:")


@pytest.mark.parametrize("command, argv, echo", [
    ("test", ["errors_fixture.csv", "--bandwidth", "2", "--centering", "global"],
     "errors_file={} mu0=0.45 h=1 k0=1 bandwidth=2 bandwidth_c=1.0 centering=global "
     "format=markdown"),
    ("mc-size", ["size.yaml", "--reps", "2", "--format", "csv"],
     "config_file={} kind=size cells=2 reps=2 seed=7 threads=1 format=csv"),
    ("mc-power", ["power.yaml", "--reps", "2", "--seed", "3"],
     "config_file={} kind=power cells=2 reps=2 seed=3 threads=1 format=markdown"),
    ("local-power", ["blocks_fixture.json", "--mu0", "0.3", "0.45", "--format", "json"],
     "blocks_file={} mu0=[0.3, 0.45] pi0=0.25 phi2=1.0 level=0.1 c_scale=[1.0] format=json"),
    ("inflation", ["fixture_panel.csv", "--exclude-own", "--countries", "aaa", "ccc"],
     "panel_file={} h=4 p2=4 p_max=8 mu0=[0.4, 0.45] pi0=0.25 countries=['aaa', 'ccc'] "
     "start=None end=None exclude_own=True bandwidth_c=1.0 format=markdown"),
])
def test_config_echo_printed_before_results(capsys, tmp_path, data_dir, command, argv, echo):
    (tmp_path / "size.yaml").write_text(textwrap.dedent(TINY_SIZE_CONFIG))
    (tmp_path / "power.yaml").write_text(textwrap.dedent(TINY_POWER_CONFIG))
    source = tmp_path / argv[0] if argv[0].endswith(".yaml") else data_dir / argv[0]
    code, out, _ = run_cli(capsys, command, str(source), *argv[1:])
    assert code == 0
    assert out.splitlines()[0] == "# config: " + echo.format(source)


@pytest.mark.parametrize("command, argv, option", [
    ("test", ["errors_fixture.csv", "--mu0", "0.95"], "--mu0"),
    ("test", ["errors_fixture.csv", "--h", "0"], "--h"),
    ("test", ["errors_fixture.csv", "--k0", "-1"], "--k0"),
    ("test", ["errors_fixture.csv", "--bandwidth", "0"], "--bandwidth"),
    ("test", ["errors_fixture.csv", "--bandwidth-c", "0"], "--bandwidth-c"),
    ("inflation", ["fixture_panel.csv", "--pi0", "1.5"], "--pi0"),
    ("inflation", ["fixture_panel.csv", "--mu0", "0.4", "0.5"], "--mu0"),
    ("inflation", ["fixture_panel.csv", "--h", "0"], "--h"),
    ("inflation", ["fixture_panel.csv", "--p2", "-1"], "--p2"),
    ("inflation", ["fixture_panel.csv", "--p-max", "-1"], "--p-max"),
    ("inflation", ["fixture_panel.csv", "--start", "1970Q5"], "--start"),
    ("inflation", ["fixture_panel.csv", "--end", "soon"], "--end"),
    ("inflation", ["fixture_panel.csv", "--bandwidth-c", "-1"], "--bandwidth-c"),
    ("local-power", ["blocks_fixture.json", "--mu0", "0.3", "0.49"], "--mu0"),
    ("local-power", ["blocks_fixture.json", "--pi0", "0"], "--pi0"),
    ("local-power", ["blocks_fixture.json", "--level", "1.5"], "--level"),
    ("local-power", ["blocks_fixture.json", "--phi2", "0"], "--phi2"),
    ("local-power", ["blocks_fixture.json", "--c-scale", "nan"], "--c-scale"),
    ("local-power", ["blocks_fixture.json", "--c-scale", "1", "inf"], "--c-scale"),
    ("test", ["errors_fixture.csv", "--bandwidth-c", "inf"], "--bandwidth-c"),
    ("test", ["errors_fixture.csv", "--bandwidth-c", "nan"], "--bandwidth-c"),
    ("inflation", ["fixture_panel.csv", "--bandwidth-c", "inf"], "--bandwidth-c"),
    ("inflation", ["fixture_panel.csv", "--bandwidth-c", "nan"], "--bandwidth-c"),
    ("local-power", ["blocks_fixture.json", "--phi2", "inf"], "--phi2"),
    ("local-power", ["blocks_fixture.json", "--phi2", "nan"], "--phi2"),
])
def test_bad_option_rejected_before_the_echo(capsys, data_dir, command, argv, option):
    code, out, err = run_rejected(capsys, command, str(data_dir / argv[0]), *argv[1:])
    assert code == 2
    assert out == ""
    assert f"argument {option}: " in err


def _never_called(*args, **kwargs):
    raise AssertionError("ran despite an unusable --out")


@pytest.mark.parametrize("command, source, runner", [
    ("test", "errors_fixture.csv", (cli, "encompassing_test")),
    ("mc-size", "size.yaml", (mc, "run_size_experiment")),
    ("mc-power", "power.yaml", (mc, "run_power_experiment")),
    ("local-power", "blocks_fixture.json", (cli, "local_power_stationary")),
    ("inflation", "fixture_panel.csv", (cli, "run_study")),
])
@pytest.mark.parametrize("target, reason", [
    ("missing/report.txt", "does not exist"),
    (".", "is a directory"),
], ids=["missing-directory", "directory"])
def test_unusable_out_rejected_before_the_echo(capsys, monkeypatch, tmp_path, data_dir,
                                               command, source, runner, target, reason):
    (tmp_path / "size.yaml").write_text(textwrap.dedent(TINY_SIZE_CONFIG))
    (tmp_path / "power.yaml").write_text(textwrap.dedent(TINY_POWER_CONFIG))
    monkeypatch.setattr(*runner, _never_called)
    source = tmp_path / source if source.endswith(".yaml") else data_dir / source
    code, out, err = run_rejected(capsys, command, str(source), "--out",
                                  str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert "argument --out: " in err and reason in err


@pytest.mark.parametrize("argv, message", [
    (["--start", "2000Q1", "--end", "1990Q1"], "--start 2000Q1 is later than --end 1990Q1"),
    (["--countries", "bbb", "aaa", "ccc", "aaa", "bbb"], "--countries names aaa, bbb more than once"),
], ids=["start-after-end", "repeated-country"])
def test_conflicting_inflation_options_rejected_before_the_echo(capsys, fixture_panel_path,
                                                                argv, message):
    code, out, err = run_cli(capsys, "inflation", fixture_panel_path, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
