#!/usr/bin/env python3
"""splitenc benchmark: one command, three workloads, correctness checks.

    python3 perfbench/run.py --workload mc-dgp1 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads:

* ``mc-dgp1``     serial size experiment on a table1 sub-grid (32 cells)
* ``mc-dgp2``     power experiment on a table5 sub-grid (8 cells), pooled
                  in the traced run
* ``cli-oneshot`` cold ``splitenc test`` / ``splitenc inflation`` processes

With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, with ``--trace 1`` its ``per_layer`` list; a metric that a
workload does not exercise reads 0.  Human-readable lines (every metric with
its unit, the checks and the environment) come first; the last line of
stdout is the JSON result.  The full result, and with ``--trace 1`` the
spans, are written under ``.bench_out/`` in the checkout.

No BLAS or OpenMP thread variable is set: they are recorded as inherited.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-dgp1", "mc-dgp2", "cli-oneshot")


@dataclass(frozen=True)
class Context:
    root: pathlib.Path
    workdir: pathlib.Path
    out_dir: pathlib.Path
    workload: str
    seed: int
    seconds: float
    trace: bool


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "splitenc" / "__init__.py").is_file():
        print(f"error: no splitenc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import splitenc

    if pathlib.Path(splitenc.__file__).resolve().parent != src / "splitenc":
        print(f"error: imported splitenc from {splitenc.__file__}, not {src}", file=sys.stderr)
        return 2
    import common

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = common.environment(ROOT, args.workload, args.seed, args.trace)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        ctx = Context(root=ROOT, workdir=pathlib.Path(tmp), out_dir=out_dir,
                      workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace))
        checks = common.golden_checks(ROOT, ctx.workdir)
        if args.workload == "cli-oneshot":
            import cli_oneshot as workload
        else:
            import mc as workload
        result = workload.run(ctx)
    checks += result["checks"]
    checks.append(("setup.imports_checkout_src",
                   all(pathlib.Path(r["module"]).resolve().parent == src / "splitenc"
                       for r in result["setup_reports"])))

    unknown = set(result["metrics"]) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    attempted, failed = int(result["attempted"]), int(result["failed"])
    correct = all(ok for _, ok in checks) and failed == 0

    print(f"# environment {json.dumps(env)}")
    print(f"# details {json.dumps(result['details'])}")
    for name, ok in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"failed_share {failed / attempted:.6g} share ({failed} failed of {attempted})")
    raw = result["details"].get("raw", {})
    for name, m in metrics.items():
        note = f" (raw {raw[name]:.6g})" if name in raw else ""
        if name == "latency_tail_ms":
            d = result["details"]
            note += f" (p{d['latency_tail_percentile']:.1f} of {d['samples']} samples)"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    record = {"environment": env, "details": result["details"], "checks": dict(checks),
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
