import ast
import csv
import importlib
import os
import pathlib
import re
import subprocess
import sys

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


# Runs in a fresh interpreter; the last stdout line is "<exit code> <loaded modules>".
_IMPORT_GUARD = """
import sys
heavy = ("scipy.stats", "scipy.signal")
import splitenc.cli
loaded = [m for m in heavy if m in sys.modules]
code = splitenc.cli.main(["test", sys.argv[1]])
loaded += [m for m in heavy if m in sys.modules]
print(code, sorted(set(loaded)))
"""


def test_cli_test_command_loads_neither_scipy_stats_nor_signal():
    # each costs about a second of cold start; the test path needs neither
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(ROOT / "tests" / "data" / "errors_fixture.csv")],
        check=True, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"
