"""The ``cli-oneshot`` workload: one client running cold CLI processes.

A closed loop with one client: each ``python -m splitenc.cli`` process
starts only after the previous one exited, alternating ``test`` on a
generated e1,e2 CSV and ``inflation`` on a generated 24-country panel.
Latency runs from spawn to exit.  The traced run calls ``cli.main`` in
process instead, alternating untraced and traced calls.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import common
import inputs
import splitenc.cli as cli
import splitenc.inflation as inflation
from splitenc.enc_test import ForecastErrorSet, HacConfig, SplitSpec, encompassing_test
from tracing import Tracer

INVOKE_TIMEOUT_S = 60
# A run holds only 11-16 cold invocations, so no percentile above the median
# has common.TAIL_BEYOND samples beyond it; the tail is this fixed percentile.
TAIL_PERCENTILE = 90
MIN_INVOCATIONS = 11


def _reference_statistic(errors_path, k0) -> float:
    """The test statistic computed in process from the same errors file."""
    with open(errors_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    e1 = [float(a) for a, _ in rows]
    e2 = [float(b) for _, b in rows]
    fes = ForecastErrorSet(e1, e2, h=1, k0=k0)
    return encompassing_test(fes, SplitSpec(0.45), HacConfig()).statistic


class _Checker:
    """Checks one command's output; counts failed checks and failed countries."""

    def __init__(self, statistic, countries):
        self.statistic = statistic
        self.countries = countries
        self.failed_checks = 0
        self.failed_countries = 0

    def __call__(self, command, stdout) -> bool:
        try:
            text = common.body(stdout)
            if command == "test":
                row = next(csv.DictReader(io.StringIO(text)))
                ok = float(row["statistic"]) == self.statistic
            else:
                payload = json.loads(text)
                self.failed_countries += len(payload["failures"])
                ok = len(payload["results"]) == self.countries and not payload["failures"]
        except (ValueError, KeyError, StopIteration):
            ok = False
        self.failed_checks += not ok
        return ok


def _invoke(root, env, argv, workdir):
    """One cold CLI process; returns (seconds, exit code, peak RSS kB, stdout)."""
    out_path = workdir / "cli.out"
    with open(out_path, "w", encoding="utf-8") as out, \
            open(workdir / "cli.err", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "splitenc.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=root)
        timer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss, out_path.read_text(encoding="utf-8")


def run(ctx) -> dict:
    panel = ctx.workdir / "panel.csv"
    errors = ctx.workdir / "errors.csv"
    countries = inputs.write_panel(ctx.seed, panel)
    k0 = inputs.write_errors(ctx.seed, errors)
    setup_s, setup_reports = common.cold_setups(ctx.root, ["cli", panel, errors])
    commands = (
        ("test", ["test", str(errors), "--h", "1", "--k0", str(k0), "--format", "csv"]),
        ("inflation", ["inflation", str(panel), "--format", "json"]),
    )
    check = _Checker(_reference_statistic(errors, k0), countries)
    result = {"setup_reports": setup_reports, "details": {"countries": countries,
                                                          "errors_k0": k0}}
    if ctx.trace:
        return _traced(ctx, result, commands, check, setup_reports)

    # the set-up processes above already compiled the bytecode caches
    env = common.child_env(ctx.root)
    latencies, peak_kb, nonzero = [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds or len(latencies) < MIN_INVOCATIONS:
        name, argv = commands[len(latencies) % 2]
        elapsed, code, rss_kb, stdout = _invoke(ctx.root, env, argv, ctx.workdir)
        latencies.append(elapsed)
        peak_kb = max(peak_kb, rss_kb)
        if code != 0:
            nonzero += 1
        else:
            check(name, stdout)
    metrics, details = common.timing_metrics(setup_s, latencies, 1,
                                              tail_percentile=TAIL_PERCENTILE)
    # closed-loop throughput: invocations over the time spent in them
    metrics["reps_per_s"] = len(latencies) / sum(latencies)
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    n = len(latencies)
    result.update(
        checks=[("cli.outputs_match_in_process", check.failed_checks == 0),
                ("cli.all_exits_zero", nonzero == 0)],
        attempted=n,
        failed=nonzero + check.failed_checks + check.failed_countries,
        metrics=metrics,
    )
    result["details"].update(details)
    return result


def _traced(ctx, result, commands, check, setup_reports):
    tracer = Tracer()
    targets = [
        (cli, "load_panel", "inflation.load"),
        (cli, "run_study", "inflation.study"),
        (cli, "encompassing_test", "enc_test.test"),
        (inflation, "bic_select_lag", "regression.bic"),
        (inflation, "expanding_window_forecast_errors", "regression.forecast_errors"),
        (inflation, "encompassing_test", "enc_test.test"),
        (inflation.StudyReport, "render", "inflation.render"),
    ]
    main = tracer.wrap("cli.main", cli.main)
    plain_s, traced_s, nonzero = [], [], 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < ctx.seconds or i < 4:
        name, argv = commands[(i // 2) % 2]
        t0 = time.perf_counter()
        if i % 2:
            with tracer.patched(targets):
                code, stdout = common.capture(main, argv)
            traced_s.append(time.perf_counter() - t0)
        else:
            code, stdout = common.capture(cli.main, argv)
            plain_s.append(time.perf_counter() - t0)
        if code != 0:
            nonzero += 1
        else:
            check(name, stdout)
        i += 1

    s = tracer.summary()
    calls, self_ns = s["calls"], s["self_ns"]
    n_main = calls["cli.main"]
    import_ms = statistics.median(r["import_ms"] for r in setup_reports)
    per_call_ms = {name: self_ns[name] / calls[name] / 1e6 for name in calls}
    metrics = {
        "cli.import_ms": import_ms,
        "cli.self_ms": per_call_ms["cli.main"],
        "inflation.load_ms": per_call_ms["inflation.load"],
        "inflation.study_self_ms": per_call_ms["inflation.study"],
        "inflation.render_ms": per_call_ms["inflation.render"],
        "regression.bic_ms": per_call_ms["regression.bic"],
        "bench.trace_overhead": sum(traced_s) / sum(plain_s) - 1.0,
    }
    # Shares of one invocation: the cold import (from the set-up processes)
    # plus the mean traced in-process call, split by module self time.
    total_ms = import_ms + s["top_ns"] / n_main / 1e6
    for module in common.MODULES:
        own_ms = s["module_ns"].get(module, 0) / n_main / 1e6
        metrics[f"{module}.share"] = (own_ms + (import_ms if module == "cli" else 0.0)) / total_ms
    tracer.write(ctx.out_dir / f"trace-{ctx.workload}-{ctx.seed}.jsonl.gz")
    result.update(
        checks=[("cli.outputs_match_in_process", check.failed_checks == 0),
                ("cli.all_exits_zero", nonzero == 0)],
        attempted=i,
        failed=nonzero + check.failed_checks + check.failed_countries,
        metrics=metrics,
    )
    result["details"].update(calls=i, spans=len(tracer.spans))
    return result
