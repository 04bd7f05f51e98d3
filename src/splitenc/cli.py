"""Command-line front end.

Subcommands
-----------
test         run the encompassing test on a two-column CSV of forecast errors
mc-size      run a size experiment from a YAML config
mc-power     run a power experiment from a YAML config
local-power  evaluate theoretical drift/power over a mu0 (and c-scale) grid
inflation    run the country-level inflation study on a CSV panel

Exit codes: 0 success, 2 validation/configuration error, 3 numerical
degeneracy.  A bad option value fails while the arguments are parsed,
naming the option, before anything is printed on stdout; parsed values
that contradict one another (``inflation --start`` after ``--end``, a
country named twice) are rejected next, also before stdout, with exit 2.
Each command imports the modules it runs when it runs.  Every run echoes
its resolved configuration before results;
``--out`` writes the primary artifact to a file (byte-identical across
repeated runs with the same flags and seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .enc_test import (
    ForecastErrorSet,
    HacConfig,
    LocalPowerInput,
    SplitSpec,
    distinct_mu0_list,
    encompassing_test,
    local_power_stationary,
    unit_fraction,
)
from .errors import NumericalError, ParseError, SplitEncError, ValidationError
from .tables import csv_text, json_text, markdown_text


# The mc and inflation commands import their modules when they run, so a
# command loads only what it uses.  These three names stay module globals
# that forward to their module: the commands look them up here, and perfbench
# wraps them here to time each call.
def load_experiment_config(path):
    from .monte_carlo import load_experiment_config
    return load_experiment_config(path)


def load_panel(path, countries=None, start=None, end=None):
    from .inflation import load_panel
    return load_panel(path, countries=countries, start=start, end=end)


def run_study(panel, config):
    from .inflation import run_study
    return run_study(panel, config)


def _echo_config(options: dict) -> None:
    """Print the options in order, without the parser's command, func and out entries."""
    print("# config: " + " ".join(f"{k}={v}" for k, v in options.items()
                                  if k not in ("command", "func", "out")))


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"# wrote {out_path}")
    else:
        sys.stdout.write(text)


def _read_errors_file(path):
    e1, e2 = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty errors file") from None
        if [c.strip().lower() for c in header] != ["e1", "e2"]:
            raise ParseError(f"expected header e1,e2, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise ParseError(f"line {lineno}: expected 2 fields, got {len(row)}")
            try:
                e1.append(float(row[0]))
                e2.append(float(row[1]))
            except ValueError:
                raise ParseError(f"line {lineno}: bad number in {row!r}") from None
    return np.array(e1), np.array(e2)


def _result_text(result, format: str) -> str:
    record = asdict(result)
    if format == "json":
        return json_text(record)
    if format == "csv":
        return csv_text(record.keys(), [record.values()])
    return markdown_text(["quantity", "value"], [
        [key, f"{val:.6g}" if isinstance(val, float) else str(val)]
        for key, val in record.items()
    ])


def _cmd_test(args) -> int:
    _echo_config(vars(args))
    e1, e2 = _read_errors_file(args.errors_file)
    fes = ForecastErrorSet(e1, e2, h=args.h, k0=args.k0)
    hac = HacConfig(bandwidth=args.bandwidth) if args.bandwidth is not None \
        else HacConfig(c=args.bandwidth_c)
    result = encompassing_test(fes, SplitSpec(args.mu0), hac, centering=args.centering)
    _emit(_result_text(result, args.format), args.out)
    return 0


def _run_mc(args, runner, expected_kind: str) -> int:
    from .monte_carlo import render_report
    config = load_experiment_config(args.config_file)
    if config.kind != expected_kind:
        raise ValidationError(
            f"config kind is {config.kind!r}, expected {expected_kind!r}")
    reps = args.reps if args.reps is not None else config.reps
    seed = args.seed if args.seed is not None else config.seed
    _echo_config({
        "config_file": args.config_file, "kind": config.kind, "cells": len(config.cells),
        "reps": reps, "seed": seed, "threads": args.threads, "format": args.format,
    })
    report = runner(config.cells, reps=reps, base_seed=seed, workers=args.threads)
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_mc_size(args) -> int:
    from .monte_carlo import run_size_experiment
    return _run_mc(args, run_size_experiment, "size")


def _cmd_mc_power(args) -> int:
    from .monte_carlo import run_power_experiment
    return _run_mc(args, run_power_experiment, "power")


def _load_blocks(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"blocks file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("blocks file must be a JSON object")
    keys = {k.lower(): k for k in raw}
    out = {}
    for name in ("c", "b11", "b12", "b21", "b22"):
        aliases = [name, name.replace("b", "q"), name.replace("b", "v")]
        found = next((keys[a] for a in aliases if a in keys), None)
        if found is None:
            raise ParseError(f"blocks file missing key {name!r} (or q/v alias)")
        out[name] = np.asarray(raw[found], dtype=float)
    return out


def _cmd_local_power(args) -> int:
    _echo_config(vars(args))
    blocks = _load_blocks(args.blocks_file)
    columns = ["mu0", "c_scale", "drift", "power"]
    rows = []
    for mu0 in args.mu0:
        for scale in args.c_scale:
            inp = LocalPowerInput(
                c=scale * blocks["c"], b11=blocks["b11"], b12=blocks["b12"],
                b21=blocks["b21"], b22=blocks["b22"], phi2=args.phi2,
                mu0=mu0, pi0=args.pi0, level=args.level,
            )
            out = local_power_stationary(inp)
            rows.append([mu0, scale, out["drift"], out["power"]])
    if args.format == "json":
        text = json_text([dict(zip(columns, row)) for row in rows])
    elif args.format == "csv":
        text = csv_text(columns, rows)
    else:
        text = markdown_text(columns, [
            [f"{mu0:g}", f"{scale:g}", f"{drift:.6g}", f"{power:.6g}"]
            for mu0, scale, drift, power in rows
        ])
    _emit(text, args.out)
    return 0


def _check_inflation_options(args) -> None:
    """Reject --start after --end, and a country named twice in --countries."""
    from .inflation import parse_quarter
    if args.start is not None and args.end is not None \
            and parse_quarter(args.start) > parse_quarter(args.end):
        raise ValidationError(f"--start {args.start} is later than --end {args.end}")
    if args.countries is not None:
        repeated = sorted({c for c in args.countries if args.countries.count(c) > 1})
        if repeated:
            raise ValidationError(f"--countries names {', '.join(repeated)} more than once")


def _cmd_inflation(args) -> int:
    from .inflation import CountryStudyConfig
    _check_inflation_options(args)
    _echo_config(vars(args))
    panel = load_panel(args.panel_file, countries=args.countries,
                       start=args.start, end=args.end)
    config = CountryStudyConfig(
        h=args.h, pi0=args.pi0, p2=args.p2, p_max=args.p_max,
        mu0_list=tuple(args.mu0), hac=HacConfig(c=args.bandwidth_c),
        include_own_country=not args.exclude_own,
    )
    report = run_study(panel, config)
    _emit(report.render(args.format), args.out)
    return 0


def _option_type(convert):
    """An argparse type running convert on the option's text.

    A value that convert rejects ends the parse with exit code 2 and a
    message naming the option and convert's reason.
    """
    def parse(text):
        try:
            return convert(text)
        except (ValueError, SplitEncError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _int_at_least(low: int):
    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return _option_type(convert)


def _positive_float(text) -> float:
    value = float(text)
    if not value > 0.0:
        raise ValueError(f"must be positive, got {value:g}")
    return value


def _finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value:g}")
    return value


def _quarter(text) -> str:
    from .inflation import parse_quarter
    parse_quarter(text)
    return text


def _mc_value(name: str):
    """An option type running the monte_carlo validator ``name``, imported when used."""
    def convert(text):
        from . import monte_carlo
        return getattr(monte_carlo, name)(text)
    return _option_type(convert)


_SPLIT = _option_type(lambda text: SplitSpec(float(text)).mu0)
_FRACTION = _option_type(unit_fraction)
_POSITIVE = _option_type(_positive_float)
_FINITE = _option_type(_finite_float)
_BANDWIDTH = _option_type(lambda text: HacConfig(bandwidth=int(text)).bandwidth)
_BANDWIDTH_C = _option_type(lambda text: HacConfig(c=float(text)).c)
_QUARTER = _option_type(_quarter)


class _DistinctMu0(argparse.Action):
    """Stores a --mu0 list whose values print distinctly (see distinct_mu0_list)."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            distinct_mu0_list(values)
        except SplitEncError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        setattr(namespace, self.dest, values)


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=["csv", "json", "markdown"],
                        default="markdown")
    parser.add_argument("--out", default=None, help="write the primary output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitenc",
        description="Split-sample forecast encompassing tests for nested models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test one pair of forecast-error series")
    p.add_argument("errors_file", help="CSV with header e1,e2")
    p.add_argument("--mu0", type=_SPLIT, default=0.45)
    p.add_argument("--h", type=_int_at_least(1), default=1)
    p.add_argument("--k0", type=_int_at_least(1), default=1)
    p.add_argument("--bandwidth", type=_BANDWIDTH, default=None, help="fixed Bartlett bandwidth M")
    p.add_argument("--bandwidth-c", type=_BANDWIDTH_C, default=1.0,
                   help="constant c in M = floor(c * n^(1/3))")
    p.add_argument("--centering", choices=["segment", "global"], default="segment")
    _add_common(p)
    p.set_defaults(func=_cmd_test)

    for name, help_text, func in (
        ("mc-size", "empirical size experiment", _cmd_mc_size),
        ("mc-power", "empirical power experiment", _cmd_mc_power),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config_file", help="YAML experiment definition")
        p.add_argument("--reps", type=_mc_value("replication_count"), default=None)
        p.add_argument("--seed", type=_mc_value("seed_value"), default=None)
        p.add_argument("--threads", type=_mc_value("worker_count"), default=1)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("local-power", help="theoretical drift and power")
    p.add_argument("blocks_file", help="JSON file with c and the moment blocks")
    p.add_argument("--mu0", type=_SPLIT, nargs="+", default=[0.45])
    p.add_argument("--pi0", type=_FRACTION, default=0.25)
    p.add_argument("--phi2", type=_POSITIVE, default=1.0)
    p.add_argument("--level", type=_FRACTION, default=0.10)
    p.add_argument("--c-scale", type=_FINITE, nargs="+", default=[1.0],
                   help="scale factors applied to the c vector")
    _add_common(p)
    p.set_defaults(func=_cmd_local_power)

    p = sub.add_parser("inflation", help="country-level inflation study")
    p.add_argument("panel_file", help="CSV with header country,date,hcpi")
    p.add_argument("--h", type=_int_at_least(1), default=4)
    p.add_argument("--p2", type=_int_at_least(0), default=4)
    p.add_argument("--p-max", type=_int_at_least(0), default=8)
    p.add_argument("--mu0", type=_SPLIT, nargs="+", action=_DistinctMu0, default=[0.40, 0.45])
    p.add_argument("--pi0", type=_FRACTION, default=0.25)
    p.add_argument("--countries", nargs="+", default=None)
    p.add_argument("--start", type=_QUARTER, default=None, help="first quarter, e.g. 1970Q1")
    p.add_argument("--end", type=_QUARTER, default=None, help="last quarter, e.g. 2023Q4")
    p.add_argument("--exclude-own", action="store_true",
                   help="leave the target country out of the global average")
    p.add_argument("--bandwidth-c", type=_BANDWIDTH_C, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_inflation)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
