import ast
import csv
import importlib
import importlib.util
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import splitenc

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_library_sketch_imports():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"from splitenc import \(([^)]*)\)", readme)
    assert block is not None
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert len(names) == 6
    for name in names:
        assert hasattr(splitenc, name), name


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    # every `splitenc ...` line of the command-line block parses, so a renamed or
    # removed option breaks this test rather than the docs; parsing opens none of
    # the named files, and --out needs only a writable directory
    from splitenc.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme.split("\n## Command line\n", 1)[1], re.S)
    lines = [shlex.split(line)[1:] for line in block.group(1).splitlines()
             if line.startswith("splitenc ")]
    assert {argv[0] for argv in lines} == {"test", "mc-size", "mc-power", "local-power",
                                           "inflation"}
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        build_parser().parse_args(argv)


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_reproduce_tables_smoke(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--only", "table1", "--reps", "1", "--out-dir", str(tmp_path)],
        check=True, env=_src_env(), capture_output=True, timeout=300,
    )
    assert (tmp_path / "table1.md").is_file()
    with open(tmp_path / "table1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 144  # header + 3 T x 4 h x 3 rho x 4 mu0 cells


def test_reproduce_tables_rejects_reps_below_one(tmp_path):
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--only", "table1", "--reps", "0", "--out-dir", str(out_dir)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "--reps" in proc.stderr
    assert not out_dir.exists()


def test_reproduce_tables_rejects_negative_seed(tmp_path):
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--only", "table1", "--seed", "-3", "--out-dir", str(out_dir)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "--seed" in proc.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_reproduce_tables_rejects_threads_below_one(tmp_path, threads):
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--only", "table1", "--threads", threads, "--out-dir", str(out_dir)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "--threads" in proc.stderr
    assert not out_dir.exists()


def test_reproduce_tables_checks_every_config_before_the_first_table(tmp_path, monkeypatch,
                                                                     capsys):
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    bad = tmp_path / "table5.yaml"
    bad.write_text((ROOT / "configs" / "table5_dgp2_power.yaml").read_text()
                   .replace("dgp:\n", "dgp:\n  colour: red\n"))

    def never_called(*args, **kwargs):
        raise AssertionError("a table ran before every config was checked")

    monkeypatch.setattr(script, "TABLES", {**script.TABLES, "table5": str(bad)})
    monkeypatch.setattr(script, "run_size_experiment", never_called)
    monkeypatch.setattr(script, "run_power_experiment", never_called)
    out_dir = tmp_path / "out"
    assert script.main(["--reps", "1", "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{bad}: " in err and "dgp.colour" in err
    assert not out_dir.exists()


def test_code_lines_rows_sum_to_total():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(ROOT / "src" / "splitenc")],
        check=True, capture_output=True, text=True, timeout=60,
    )
    rows = [line.split(maxsplit=1) for line in proc.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert {name for _, name in modules} == {
        str(p.relative_to(ROOT / "src" / "splitenc"))
        for p in (ROOT / "src" / "splitenc").rglob("*.py")}
    assert sum(int(n) for n, _ in modules) == int(total) > 0


def _owner(node, aliases):
    """The object an owner expression names: an imported alias, then attributes."""
    if isinstance(node, ast.Attribute):
        return getattr(_owner(node.value, aliases), node.attr)
    return aliases[node.id]


def _benchmark_trace_targets():
    """(file, owner, name) of every splitenc name the benchmark wraps when it traces."""
    targets = []
    for file in ("mc.py", "cli_oneshot.py"):
        tree = ast.parse((ROOT / "perfbench" / file).read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update({a.asname or a.name: importlib.import_module(a.name)
                                for a in node.names if a.name.startswith("splitenc.")})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("splitenc"):
                module = importlib.import_module(node.module)
                aliases.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign | ast.AugAssign):
                continue
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned = {t.id for t in nodes if isinstance(t, ast.Name)}
            if "REP_LAYERS" in assigned:
                # (name, span) pairs, wrapped on the module that mc.py imports as mc
                targets += [(file, aliases["mc"], pair.elts[0].value) for pair in node.value.elts]
            elif "targets" in assigned:
                # (owner, name, span) triples
                targets += [(file, _owner(t.elts[0], aliases), t.elts[1].value)
                            for t in ast.walk(node.value)
                            if isinstance(t, ast.Tuple) and len(t.elts) == 3
                            and isinstance(t.elts[1], ast.Constant)]
    return targets


def test_benchmark_trace_targets_exist():
    # the tracer wraps owner.__dict__[name], so a dropped or moved name breaks --trace 1
    targets = _benchmark_trace_targets()
    assert {file for file, _, _ in targets} == {"mc.py", "cli_oneshot.py"}
    for file, owner, name in targets:
        assert name in vars(owner), f"perfbench/{file} traces {owner.__name__}.{name}"


# Runs in a fresh interpreter; the last stdout line is "<exit code> <guarded modules loaded>".
_IMPORT_GUARD = """
import sys
import splitenc.cli
code = splitenc.cli.main(sys.argv[1:])
guarded = ("scipy", "yaml", "concurrent.futures.process")
print(code, sorted(m for m in sys.modules if m in guarded or m.startswith(("scipy.", "yaml."))))
"""


@pytest.mark.parametrize("argv", [
    ["test", "errors_fixture.csv"],
    ["inflation", "fixture_panel.csv"],
    ["local-power", "blocks_fixture.json"],
], ids=lambda argv: argv[0])
def test_cli_commands_load_no_scipy_yaml_or_pool(argv):
    # scipy is most of a cold start; these commands simulate nothing, read no
    # YAML config and run no process pool, so none of the three may load
    argv = [argv[0], str(ROOT / "tests" / "data" / argv[1])]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, *argv],
        check=True, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


# Runs in a fresh interpreter: imports splitenc.cli, runs the command line if
# one is given, and prints "<exit code> <command modules loaded>" last.
_COMMAND_MODULE_GUARD = """
import sys
import splitenc.cli
code = splitenc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
modules = ("splitenc.monte_carlo", "splitenc.inflation", "splitenc.dgp", "splitenc._work")
print(code, sorted(m for m in sys.modules if m in modules))
"""

_TINY_SIZE_CONFIG = """\
experiment: {kind: size, reps: 30, mu0: [0.45], seed: 7}
dgp: {family: dgp1, T: 150, h: 1, rho: 0.25, beta2: 0.0}
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], "['splitenc._work']"),
    (["test", "errors_fixture.csv"], "['splitenc._work']"),
    (["local-power", "blocks_fixture.json"], "['splitenc._work']"),
    (["inflation", "fixture_panel.csv"], "['splitenc._work', 'splitenc.inflation']"),
    (["mc-size", "size.yaml", "--reps", "1"],
     "['splitenc._work', 'splitenc.dgp', 'splitenc.monte_carlo']"),
], ids=["import", "test", "local-power", "inflation", "mc-size"])
def test_cli_commands_load_only_their_modules(tmp_path, argv, loaded):
    # a cold command imports the simulation and inflation modules only when it runs them
    (tmp_path / "size.yaml").write_text(_TINY_SIZE_CONFIG)
    if argv:
        source = tmp_path / argv[1] if argv[1].endswith(".yaml") else ROOT / "tests" / "data" / argv[1]
        argv = [argv[0], str(source), *argv[2:]]
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_MODULE_GUARD, *argv],
        check=True, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


def test_benchmark_setup_child_resolves_cli_loaders():
    # perfbench/setup_child.py loads its inputs through splitenc.cli's loaders
    data = ROOT / "tests" / "data"
    for argv in (["mc", ROOT / "configs" / "table1.yaml"],
                 ["cli", data / "fixture_panel.csv", data / "errors_fixture.csv"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_child.py"), *map(str, argv)],
            check=True, env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.stdout.splitlines()[-1].startswith('{"import_ms": ')


def test_only_tables_imports_csv():
    # tables holds the syntax of every table the package reads and writes
    importers = set()
    for path in sorted((ROOT / "src" / "splitenc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "csv" or name.startswith("csv.") for name in names):
                importers.add(path.name)
    assert importers == {"tables.py"}


def test_only_scipy_import_is_signal():
    # the AR recursions need scipy.signal.lfilter; every linear-algebra call runs on
    # numpy's OpenBLAS, the copy a run pins to one thread, so no scipy.linalg call
    # can make a result follow the host's core count.  The pooled branch of
    # _run_cells imports scipy.signal before it forks, for the workers to inherit.
    imports = set()
    for path in sorted((ROOT / "src" / "splitenc").glob("*.py")):
        tree = ast.parse(path.read_text())
        # the innermost function around each node; a module-level import has none
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports |= {(path.stem, owner.get(id(node)), name) for name in names
                        if name.split(".")[0] == "scipy"}
    assert imports == {("dgp", "_ar1_path", "scipy.signal"),
                       ("monte_carlo", "_run_cells", "scipy.signal")}
