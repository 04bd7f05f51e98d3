"""Helpers shared by the workloads: calibration, statistics, cold set-up,
golden checks and the environment record."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
SETUP_RUNS = 5       # cold set-ups per run; setup_s is their median
TAIL_BEYOND = 10     # the tail percentile keeps this many samples above it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("cli", "dgp", "regression", "enc_test", "monte_carlo", "inflation")
# The reference speed: a machine on which calibrate() takes this long.
CAL_REF_S = 0.008
_CAL_X = np.random.default_rng(0).standard_normal(128)


def calibrate() -> float:
    """Seconds taken by a fixed kernel of small numpy calls and Python arithmetic.

    The kernel does not touch splitenc.  Its time tracks how fast this
    machine runs that kind of code right now, which on a shared host drifts
    by up to 2x within minutes.
    """
    x = _CAL_X
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += float(np.dot(x[:64], x[64:])) + float(np.cumsum(x[:32])[-1]) + i * 0.5
    return time.perf_counter() - start


class Normalizer:
    """Times calls and rescales each to the reference speed.

    Each call is bracketed by calibrate() runs; its seconds are multiplied by
    CAL_REF_S over the mean of the two calibrations, giving what the call
    would take on the reference machine.  Raw seconds are kept as well.

    Used for in-process Monte Carlo calls, which run the same kind of code as
    the kernel.  Cold processes (set-up, CLI) are not rescaled: their time
    goes to process start and imports, which the kernel does not track.
    """

    def __init__(self):
        self._last = calibrate()
        self.raw = []
        self.normalized = []

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        cal = calibrate()
        self.raw.append(elapsed)
        self.normalized.append(elapsed * CAL_REF_S / (0.5 * (self._last + cal)))
        self._last = cal
        return value


def tail(samples, percentile=None):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count).  The percentile is the share
    of samples at or below the value, so it rises with the sample count.

    With ``percentile`` given, that fixed percentile instead, interpolated
    between neighbouring samples.  It is for runs too short for the rule
    above to reach past the median.
    """
    s = sorted(samples)
    if percentile is not None:
        cuts = statistics.quantiles(s, n=100)
        return cuts[round(percentile) - 1], float(percentile), len(s)
    i = len(s) - TAIL_BEYOND - 1
    if i < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(s)}")
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def timing_metrics(setup_s, call_s, units_per_call: int, raw_call_s=None,
                   tail_percentile=None):
    """The timed end-to-end metrics from set-up and call samples (seconds).

    ``raw_call_s``, when the calls were rescaled to reference speed, are the
    measured seconds; their summary goes into the details.
    ``tail_percentile`` fixes the tail's percentile (see ``tail``).
    """

    def summary(calls):
        return {"reps_per_s": statistics.median(units_per_call / s for s in calls),
                "latency_p50_ms": 1e3 * statistics.median(calls),
                "latency_tail_ms": 1e3 * tail(calls, tail_percentile)[0]}

    _, pct, n = tail(call_s, tail_percentile)
    details = {"samples": n, "latency_tail_percentile": pct,
               "call_ms": [1e3 * s for s in call_s], "setup_s": list(setup_s)}
    if raw_call_s is not None:
        details["raw"] = summary(raw_call_s)
        details["raw_call_ms"] = [1e3 * s for s in raw_call_s]
    return {"setup_s": statistics.median(setup_s), **summary(call_s)}, details


def child_env(root) -> dict:
    """The inherited environment with the checkout's src/ first on PYTHONPATH.

    Thread variables are passed through untouched, never set.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_setups(root, args):
    """Run SETUP_RUNS fresh set-up processes; returns (seconds, child reports).

    Each is timed from spawn until it has printed its report, i.e. until
    splitenc is imported and the inputs are loaded.
    """
    env = child_env(root)
    argv = [sys.executable, str(HERE / "setup_child.py"), *map(str, args)]
    secs, reports = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=root, text=True) as proc:
            line = proc.stdout.readline()
            secs.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line:
                raise RuntimeError("set-up process failed")
        reports.append(json.loads(line))
    return secs, reports


def capture(fn, *args):
    """Call fn with stdout captured; returns (return value, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        value = fn(*args)
    return value, buf.getvalue()


def body(stdout: str) -> str:
    """CLI stdout without its leading '# config:' echo line."""
    first, _, rest = stdout.partition("\n")
    if not first.startswith("# config:"):
        raise ValueError("CLI output does not start with the config echo")
    return rest


def golden_checks(root, workdir):
    """Re-render the three golden outputs and compare them byte for byte.

    The inputs and options are those of the tests that own each golden file.
    Returns a list of (check name, passed).
    """
    from splitenc import cli
    from splitenc.dgp import Dgp1Spec
    from splitenc.monte_carlo import McCell, render_report, run_size_experiment

    data = root / "tests" / "data"
    out = []
    code, text = capture(cli.main, ["test", str(data / "errors_fixture.csv"),
                                    "--mu0", "0.4", "--bandwidth", "2"])
    out.append(("golden_cli_test.md",
                code == 0 and body(text) == (data / "golden_cli_test.md").read_text()))

    group = "dgp1,h=1,T=250,rho=0.25"
    cells = [McCell(dgp=Dgp1Spec(T=250, h=1, rho=0.25, beta2=0.0), mu0=m, pi0=0.25,
                    label=f"{group},mu0={m:g}", group=group) for m in (0.40, 0.45)]
    text = render_report(run_size_experiment(cells, reps=50, base_seed=7), "markdown")
    out.append(("golden_mc_report.md", text == (data / "golden_mc_report.md").read_text()))

    study = workdir / "golden_study.md"
    code, _ = capture(cli.main, ["inflation", str(data / "fixture_panel.csv"),
                                 "--out", str(study)])
    out.append(("golden_study.md",
                code == 0 and study.read_text() == (data / "golden_study.md").read_text()))
    return out


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, workload, seed, trace) -> dict:
    import numpy
    import scipy
    import yaml

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }
