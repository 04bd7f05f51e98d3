"""Monte Carlo workloads ``mc-dgp1`` and ``mc-dgp2``.

One experiment call runs the workload's fixed sub-grid at the config's
reps.  The untraced run repeats that call serially for the measured window;
every call must reproduce a reference report exactly.  The traced run
replays the same cells through ``collect_statistics``, alternating untraced
and traced passes, then times experiment calls at the pool size
(``workers=nproc`` on ``mc-dgp2``) for ``monte_carlo.parallel_eff``.

The pooled dgp2 call is not an end-to-end measurement: with default BLAS
threads, two workers on two CPUs fall in and out of a state in which each
BLAS barrier waits a scheduler time slice, and one call can run nine times
longer than the next.  No run that fits the benchmark's time budget
averages that out, so the pool is measured in the traced run only.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time

import numpy as np
from scipy.stats import norm

import common
import inputs
import splitenc.monte_carlo as mc
from splitenc.regression import DirectDesign
from tracing import Tracer

RUNNERS = {"size": mc.run_size_experiment, "power": mc.run_power_experiment}
# Layer spans inside one replication, by the name splitenc.monte_carlo looks up.
REP_LAYERS = (
    ("simulate_dgp1", "dgp.simulate"),
    ("simulate_dgp2", "dgp.simulate"),
    ("estimate_factor", "dgp.factor"),
    ("expanding_window_forecast_errors", "regression.forecast_errors"),
    ("encompassing_test", "enc_test.test"),
)
MIN_POOLED_CALLS = 3
# Whether end-to-end call times are rescaled to reference speed (see
# common.Normalizer).  The calibration kernel tracks the single-threaded
# numpy work of mc-dgp1; it does not track the multi-threaded BLAS work of
# mc-dgp2, where rescaling doubled the run-to-run spread.
RESCALED = {"mc-dgp1": True, "mc-dgp2": False}


def _timed_calls(runner, cells, reps, seed, workers, reference, seconds, min_calls):
    """Repeat the experiment call; returns (Normalizer, failed reps, mismatching calls, report)."""
    timer, failed, mismatches = common.Normalizer(), 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timer.raw) < min_calls:
        report = timer.time(runner, cells, reps=reps, base_seed=seed, workers=workers)
        failed += sum(c.failures for c in report.cells)
        mismatches += report != reference
    return timer, failed, mismatches, report


def _cell0_check(cells, reps, seed, reference):
    """Cell 0's rejection frequency recomputed from its raw statistics."""
    cell = cells[0]
    stats = mc.collect_statistics(cell, reps, seed)
    crit = float(norm.ppf(1.0 - cell.level))
    return (len(stats) == reps
            and int(np.sum(stats > crit)) / reps == reference.cells[0].rejection_frequency)


def run(ctx) -> dict:
    cfg_path = ctx.workdir / "config.yaml"
    inputs.write_mc_config(ctx.workload, ctx.seed, cfg_path)
    setup_s, setup_reports = common.cold_setups(ctx.root, ["mc", cfg_path])
    config = mc.load_experiment_config(cfg_path)
    cells, reps, seed = list(config.cells), config.reps, config.seed
    runner = RUNNERS[config.kind]
    workers = len(os.sched_getaffinity(0)) if ctx.workload == "mc-dgp2" else 1

    reference = runner(cells, reps=reps, base_seed=seed, workers=1)
    checks = [("mc.cell0_statistics_match_report", _cell0_check(cells, reps, seed, reference)),
              ("mc.reference_has_no_failures", all(c.failures == 0 for c in reference.cells))]
    result = {"checks": checks, "setup_reports": setup_reports,
              "details": {"cells": len(cells), "reps_per_call": reps, "pool_workers": workers}}
    if ctx.trace:
        return _traced(ctx, result, cells, reps, seed, runner, workers, reference, setup_reports)

    calls, failed, mismatches, _ = _timed_calls(
        runner, cells, reps, seed, 1, reference, ctx.seconds, common.TAIL_BEYOND + 1)
    checks.append(("mc.calls_match_serial_reference", mismatches == 0))
    per_call = len(cells) * reps
    if RESCALED[ctx.workload]:
        metrics, details = common.timing_metrics(setup_s, calls.normalized, per_call, calls.raw)
    else:
        metrics, details = common.timing_metrics(setup_s, calls.raw, per_call)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=per_call * len(calls.raw), failed=failed, metrics=metrics)
    result["details"].update(details)
    return result


def _pass_rate(cells, reps, seed):
    """One collect_statistics pass over every cell; returns (cell-reps/s, statistics)."""
    t0 = time.perf_counter()
    stats = [mc.collect_statistics(cell, reps, seed) for cell in cells]
    return len(cells) * reps / (time.perf_counter() - t0), stats


def _traced(ctx, result, cells, reps, seed, runner, workers, reference, setup_reports):
    tracer = Tracer()
    targets = [(mc, name, span) for name, span in REP_LAYERS]
    targets += [(mc, "run_replication", "monte_carlo.rep"),
                (mc, "render_report", "monte_carlo.render"),
                (DirectDesign, "from_series", "regression.design")]
    plain, traced, identical, dropped = [], [], True, 0
    serial_budget = 2.0 * ctx.seconds / 3.0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < serial_budget or k < 2:
        # alternate which side goes first so drift hits both alike
        got = {}
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            with tracer.patched(targets) if with_trace else contextlib.nullcontext():
                rate, got[with_trace] = _pass_rate(cells, reps, seed + k)
            (traced if with_trace else plain).append(rate)
        identical &= all(a.tobytes() == b.tobytes() for a, b in zip(got[False], got[True]))
        dropped += sum(reps - len(a) for a in got[False] + got[True])
        k += 1

    pooled_calls, failed, mismatches, report = _timed_calls(
        runner, cells, reps, seed, workers, reference, ctx.seconds / 3.0, MIN_POOLED_CALLS)
    with tracer.patched(targets):
        for fmt in ("markdown", "csv", "json"):
            mc.render_report(report, fmt)

    s = tracer.summary()
    calls, self_ns, total_ns = s["calls"], s["self_ns"], s["total_ns"]
    n_rep = calls["monte_carlo.rep"]
    in_reps = sum(ns for name, ns in self_ns.items() if name != "monte_carlo.render")
    serial = statistics.median(plain)
    pooled = statistics.median(len(cells) * reps / t for t in pooled_calls.raw)

    def per_rep_us(name):
        return self_ns.get(name, 0) / n_rep / 1e3

    def per_rep_calls(name):
        return calls.get(name, 0) / n_rep

    metrics = {
        "dgp.simulate_us": per_rep_us("dgp.simulate"),
        "dgp.simulate_calls_per_rep": per_rep_calls("dgp.simulate"),
        "dgp.factor_us": per_rep_us("dgp.factor"),
        "dgp.factor_calls_per_rep": per_rep_calls("dgp.factor"),
        "regression.forecast_errors_us": per_rep_us("regression.forecast_errors"),
        "regression.forecast_errors_calls_per_rep": per_rep_calls("regression.forecast_errors"),
        "regression.design_us": per_rep_us("regression.design"),
        "enc_test.test_us": per_rep_us("enc_test.test"),
        "enc_test.calls_per_rep": per_rep_calls("enc_test.test"),
        "monte_carlo.rep_us": total_ns["monte_carlo.rep"] / n_rep / 1e3,
        "monte_carlo.engine_self_us": per_rep_us("monte_carlo.rep"),
        "monte_carlo.serial_reps_per_s": serial,
        "monte_carlo.traced_reps_per_s": statistics.median(traced),
        "monte_carlo.pooled_reps_per_s": pooled,
        "monte_carlo.parallel_eff": pooled / (workers * serial),
        "monte_carlo.config_ms": statistics.median(r["load_ms"] for r in setup_reports),
        "monte_carlo.render_ms": total_ns["monte_carlo.render"] / calls["monte_carlo.render"] / 1e6,
        "cli.import_ms": statistics.median(r["import_ms"] for r in setup_reports),
        "bench.trace_overhead": serial / statistics.median(traced) - 1.0,
    }
    for module in common.MODULES:
        metrics[f"{module}.share"] = s["module_ns"].get(module, 0) / s["top_ns"]
    result["checks"] += [
        ("mc.traced_statistics_bit_identical", identical),
        ("mc.pooled_calls_match_serial_reference", mismatches == 0),
        ("mc.layer_self_times_sum_to_rep_time", in_reps == total_ns["monte_carlo.rep"]),
    ]
    tracer.write(ctx.out_dir / f"trace-{ctx.workload}-{ctx.seed}.jsonl.gz")
    result.update(attempted=len(cells) * reps * (2 * k + len(pooled_calls.raw)),
                  failed=failed + dropped, metrics=metrics)
    result["details"].update(traced_reps=n_rep, serial_passes=k, pooled_calls=len(pooled_calls.raw),
                             spans=len(tracer.spans))
    return result
