#!/usr/bin/env python3
"""Run the shipped size/power experiment configs and write their reports.

Full-fidelity runs use 10000 replications per cell.  Serially
(--threads 1), tables 1 to 5 took 43, 38, 113, 69 and 150 s, 6 min 53 s in
all, in one run on a shared 2-vCPU Xeon host (Python 3.11.7, numpy 2.4.6,
scipy 1.17.1); an earlier run on such a host took 7 min 11 s.  At
--reps 250 they took 1.5, 0.7, 2.2, 1.5 and 2.9 s (median of three runs).
The first table run carries the one-off import of scipy.signal (1.15-1.19 s
in a fresh process there, as it pulls in scipy.stats, interpolate and
optimize).  A pooled run imports it before it forks, so its workers
inherit it: with --threads 2 the five tables at --reps 250 took 10.6-11.0 s
in all (three runs), against 15.8-16.8 s when every worker of every
table's pool imported it again, and 10.6-11.6 s serially.  Pass --reps
2000 for a desk-mode pass with wider Monte Carlo error, or --only to
select specific tables.  Every selected config is loaded and checked
before the first table runs.

Usage:
    python scripts/reproduce_tables.py --reps 2000 --out-dir results/
"""

import argparse
import pathlib
import sys
import time

from splitenc.errors import ConfigError
from splitenc.monte_carlo import (
    load_experiment_config,
    render_report,
    replication_count,
    run_power_experiment,
    run_size_experiment,
    seed_value,
    worker_count,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
TABLES = {
    "table1": "table1.yaml",
    "table2": "table2.yaml",
    "table3": "table3_dgp2_size.yaml",
    "table4": "table4_dgp1_power.yaml",
    "table5": "table5_dgp2_power.yaml",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=replication_count, default=None,
                        help="override config reps")
    parser.add_argument("--seed", type=seed_value, default=None)
    parser.add_argument("--threads", type=worker_count, default=1)
    parser.add_argument("--only", nargs="+", choices=sorted(TABLES), default=sorted(TABLES))
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args(argv)

    configs = {}
    for name in args.only:
        path = CONFIG_DIR / TABLES[name]
        try:
            configs[name] = load_experiment_config(path)
        except (ConfigError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, config in configs.items():
        reps = args.reps if args.reps is not None else config.reps
        seed = args.seed if args.seed is not None else config.seed
        runner = run_size_experiment if config.kind == "size" else run_power_experiment
        print(f"{name}: {len(config.cells)} cells x {reps} reps (seed {seed}) ...",
              flush=True)
        t0 = time.perf_counter()
        report = runner(config.cells, reps=reps, base_seed=seed, workers=args.threads)
        elapsed = time.perf_counter() - t0
        for fmt, suffix in (("markdown", "md"), ("csv", "csv")):
            path = out_dir / f"{name}.{suffix}"
            path.write_text(render_report(report, fmt), encoding="utf-8")
        print(f"{name}: done in {elapsed:.1f}s -> {out_dir}/{name}.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
