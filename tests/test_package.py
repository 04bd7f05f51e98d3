import csv
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


def test_reproduce_tables_smoke(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--only", "table1", "--reps", "1", "--out-dir", str(tmp_path)],
        check=True, env=env, capture_output=True, timeout=300,
    )
    assert (tmp_path / "table1.md").is_file()
    with open(tmp_path / "table1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 144  # header + 3 T x 4 h x 3 rho x 4 mu0 cells
