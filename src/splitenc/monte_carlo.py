"""Replication engine for the empirical size and power studies.

Each experiment cell pairs a simulation design with the test's tuning inputs
(split fraction, bandwidth policy, nominal level, forecast start fraction).
A replication simulates the design, produces recursive expanding-window
forecasts from both nested models starting at k0 = floor(T * pi0), runs the
encompassing test and records the rejection.

Determinism: the random stream of a replication is keyed by
(base seed, cell index, replication id) only, so reports are bit-identical
across worker counts and execution orders.  Replications that abort with a
numerical error are dropped and counted; a cell with 1% or more failures is
flagged unreliable.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml
from scipy.special import ndtri

from .dgp import SIGMA1, SIGMA2, Dgp1Spec, Dgp2Spec, RngStream, estimate_factor, simulate_dgp1, simulate_dgp2
from .enc_test import ForecastErrorSet, HacConfig, SplitSpec, encompassing_test
from .errors import ConfigError, InsufficientData, SplitEncError
from .regression import DirectDesign, expanding_window_forecast_errors
from .tables import csv_text, json_text, markdown_text

FAILURE_SHARE_LIMIT = 0.01
DEFAULT_SEED = 20240817  # base seed of a config that sets none


@dataclass(frozen=True)
class McCell:
    """One experiment cell: a simulation design plus test tuning inputs."""

    dgp: Dgp1Spec | Dgp2Spec
    mu0: float
    pi0: float = 0.25
    hac: HacConfig = field(default_factory=HacConfig)
    level: float = 0.10
    label: str = ""
    group: str = ""  # label without the mu0 part; used for table pivots

    def __post_init__(self):
        if not (0.0 < self.pi0 < 1.0):
            raise ValueError("pi0 must lie in (0, 1)")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie in (0, 1)")
        SplitSpec(self.mu0)  # validates the split bounds

    def forecast_origin(self) -> int:
        """First forecast origin k0 = floor(T * pi0), checked without simulating.

        Raises a SplitEncError unless both nested fits are identified at k0
        (the larger model has three coefficients, so k0 >= 3 + h), the
        n = T - h - k0 + 1 forecast errors number at least 10, and the split
        location and bandwidth resolve at n.
        """
        T, h = self.dgp.T, self.dgp.h
        k0 = int(math.floor(T * self.pi0))
        if k0 < 3 + h:
            raise InsufficientData(f"k0={k0} < 3 + h = {3 + h}")
        n = T - h - k0 + 1
        if n < 10:
            raise InsufficientData(f"k0={k0} leaves {n} forecast errors (need at least 10)")
        SplitSpec(self.mu0).m0(n)
        self.hac.resolve(n)
        return k0


@dataclass(frozen=True)
class RepOutcome:
    reject: bool
    statistic: float


@dataclass(frozen=True)
class CellResult:
    label: str
    group: str
    mu0: float
    reps: int
    rejection_frequency: float
    mc_standard_error: float
    failures: int
    reliable: bool


@dataclass(frozen=True)
class McReport:
    cells: tuple
    reps: int
    base_seed: int
    kind: str = ""


def _forecast_error_pair(y, extra, h: int, k0: int):
    """Expanding-window errors of the nested pair: [1, y_t] vs [1, y_t, extra_t]."""
    bench = DirectDesign.from_series(y, y, h=h)
    large = DirectDesign.from_series(y, np.column_stack([y, extra]), h=h)
    e1 = expanding_window_forecast_errors(bench, k0)
    e2 = expanding_window_forecast_errors(large, k0)
    return e1, e2


@functools.cache
def _critical_value(level: float) -> float:
    """One-sided standard-normal critical value at the nominal level."""
    return float(ndtri(1.0 - level))


def run_replication(cell: McCell, rep_id: int, base_seed: int) -> RepOutcome:
    """One replication; deterministic in (cell, rep_id, base_seed)."""
    k0 = cell.forecast_origin()
    stream = RngStream(base_seed, rep_id)
    dgp = cell.dgp
    if isinstance(dgp, Dgp1Spec):
        sim = simulate_dgp1(dgp, stream)
        y, extra = sim["y"], sim["x"]
    elif isinstance(dgp, Dgp2Spec):
        sim = simulate_dgp2(dgp, stream)
        y, extra = sim["y"], estimate_factor(sim["X"])
    else:
        raise ValueError(f"unsupported DGP type {type(dgp).__name__}")
    e1, e2 = _forecast_error_pair(y, extra, dgp.h, k0)
    fes = ForecastErrorSet(e1, e2, h=dgp.h, k0=k0)
    result = encompassing_test(fes, SplitSpec(cell.mu0), cell.hac)
    reject = result.statistic > _critical_value(cell.level)
    return RepOutcome(reject=bool(reject), statistic=result.statistic)


def _cell_seed(base_seed: int, cell_index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(cell_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_chunk(cell: McCell, cell_seed: int, start: int, stop: int, collect: bool):
    rejects = 0
    failures = 0
    stats = np.full(stop - start, np.nan) if collect else None
    for rep in range(start, stop):
        try:
            out = run_replication(cell, rep, cell_seed)
        except (SplitEncError, np.linalg.LinAlgError):
            failures += 1
            continue
        rejects += int(out.reject)
        if collect:
            stats[rep - start] = out.statistic
    return rejects, failures, stats


def _run_cells(cells, reps, base_seed, workers, collect=False):
    """Run all (cell, rep) work items; returns per-cell tallies (and statistics)."""
    if reps < 1:
        raise ValueError("need at least one replication")
    ncells = len(cells)
    rejects = [0] * ncells
    failures = [0] * ncells
    stats = [np.full(reps, np.nan) for _ in range(ncells)] if collect else None
    tasks = []
    chunk = max(1, min(reps, 250))
    for ci in range(ncells):
        seed_ci = _cell_seed(base_seed, ci)
        for start in range(0, reps, chunk):
            tasks.append((ci, seed_ci, start, min(start + chunk, reps)))
    if workers <= 1:
        results = [
            (ci, start, _run_chunk(cells[ci], seed_ci, start, stop, collect))
            for ci, seed_ci, start, stop in tasks
        ]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (ci, start, pool.submit(_run_chunk, cells[ci], seed_ci, start, stop, collect))
                for ci, seed_ci, start, stop in tasks
            ]
            results = [(ci, start, fut.result()) for ci, start, fut in futures]
    for ci, start, (r, f, s) in results:
        rejects[ci] += r
        failures[ci] += f
        if collect:
            stats[ci][start:start + len(s)] = s
    return rejects, failures, stats


def _summarize(cells, reps, base_seed, rejects, failures, kind) -> McReport:
    out = []
    for cell, r, f in zip(cells, rejects, failures):
        done = reps - f
        freq = r / done if done > 0 else float("nan")
        se = math.sqrt(freq * (1.0 - freq) / done) if done > 0 else float("nan")
        out.append(
            CellResult(
                label=cell.label or f"mu0={cell.mu0:g}",
                group=cell.group,
                mu0=cell.mu0,
                reps=reps,
                rejection_frequency=freq,
                mc_standard_error=se,
                failures=f,
                reliable=(f / reps) < FAILURE_SHARE_LIMIT,
            )
        )
    return McReport(cells=tuple(out), reps=reps, base_seed=base_seed, kind=kind)


def run_size_experiment(cells, reps: int, base_seed: int, workers: int = 1) -> McReport:
    """Rejection frequencies under the null; every cell must have beta2 = 0."""
    cells = list(cells)
    for cell in cells:
        if cell.dgp.beta2 != 0.0:
            raise ValueError(f"size cell '{cell.label}' has beta2={cell.dgp.beta2!r}, expected 0")
    rejects, failures, _ = _run_cells(cells, reps, base_seed, workers)
    return _summarize(cells, reps, base_seed, rejects, failures, kind="size")


def run_power_experiment(cells, reps: int, base_seed: int, workers: int = 1) -> McReport:
    """Rejection frequencies under alternatives; every cell must have beta2 > 0."""
    cells = list(cells)
    for cell in cells:
        if not cell.dgp.beta2 > 0.0:
            raise ValueError(f"power cell '{cell.label}' has beta2={cell.dgp.beta2!r}, expected > 0")
    rejects, failures, _ = _run_cells(cells, reps, base_seed, workers)
    return _summarize(cells, reps, base_seed, rejects, failures, kind="power")


def collect_statistics(cell: McCell, reps: int, base_seed: int, workers: int = 1) -> np.ndarray:
    """Raw test statistics across replications (failed replications dropped)."""
    _, _, stats = _run_cells([cell], reps, base_seed, workers, collect=True)
    vals = stats[0]
    return vals[np.isfinite(vals)]


# -- report rendering -------------------------------------------------------

def _cell_record(c: CellResult) -> dict:
    return {
        "label": c.label,
        "reps": c.reps,
        "rejection_frequency": c.rejection_frequency,
        "mc_se": c.mc_standard_error,
        "failures": c.failures,
        "mu0": c.mu0,
        "group": c.group,
        "reliable": c.reliable,
    }


def render_report(report: McReport, format: str = "markdown") -> str:
    """Render a report as csv, json or markdown text.

    The machine formats are flat (one row/object per cell, stable column
    order, full float precision).  The markdown form pivots to the
    size/power-table layout, one row per cell group and one column per mu0,
    whenever the (group, mu0) pairs allow it.
    """
    if len(report.cells) == 0:
        raise ValueError("report has no cells")
    records = [_cell_record(c) for c in report.cells]
    if format == "csv":
        return csv_text(list(records[0]), [r.values() for r in records])
    if format == "json":
        return json_text(records)
    if format == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown format {format!r}")


def _flagged(c: CellResult) -> str:
    # "!" marks a cell with too many failed replications to be reliable
    return f"{c.rejection_frequency:.3f}" + ("" if c.reliable else "!")


def _render_markdown(report: McReport) -> str:
    cells = report.cells
    groups = list(dict.fromkeys(c.group for c in cells))
    mu0s = sorted({c.mu0 for c in cells})
    by_key = {(c.group, c.mu0): c for c in cells}
    pivot_ok = (
        all(groups)
        and len(by_key) == len(cells)
        and all((g, m) in by_key for g in groups for m in mu0s)
    )
    title = (f"# {report.kind or 'experiment'}: rejection frequencies "
             f"(reps={report.reps}, seed={report.base_seed})\n\n")
    if pivot_ok:
        columns = ["cell"] + [f"mu0={m:g}" for m in mu0s]
        rows = [[g] + [_flagged(by_key[(g, m)]) for m in mu0s] for g in groups]
    else:
        columns = ["label", "frequency", "mc_se", "failures"]
        rows = [[c.label, f"{c.rejection_frequency:.3f}", f"{c.mc_standard_error:.4f}",
                 str(c.failures)] for c in cells]
    return title + markdown_text(columns, rows)


# -- experiment config files -------------------------------------------------

_SIGMAS = {"sigma1": SIGMA1, "sigma2": SIGMA2}

_EXPERIMENT_KEYS = {"kind", "reps", "level", "pi0", "mu0", "bandwidth", "bandwidth_c", "seed"}
_DGP1_KEYS = {"family", "T", "h", "rho", "beta1", "beta2", "theta", "sigma", "burn_in"}
_DGP2_KEYS = {"family", "NT", "h", "beta1", "beta2", "theta", "alpha", "alpha1",
              "rho_i", "loading_std", "burn_in"}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    cells: tuple
    reps: int
    seed: int


def _as_list(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _require(mapping, key, path, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return mapping[key]


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a YAML experiment definition into a cell grid.

    List-valued entries (T, h, rho, beta2, mu0, NT) are expanded as a
    cartesian product; scalars apply to every cell.  Unknown keys are
    rejected with their full key path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError("<file>", f"not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    for key in raw:
        if key not in ("experiment", "dgp"):
            raise ConfigError(key, "unknown section")
    exp = raw.get("experiment")
    dgp = raw.get("dgp")
    if not isinstance(exp, dict):
        raise ConfigError("experiment", "missing or not a mapping")
    if not isinstance(dgp, dict):
        raise ConfigError("dgp", "missing or not a mapping")
    for key in exp:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"experiment.{key}", "unknown key")

    kind = _require(exp, "kind", "experiment", required=True)
    if kind not in ("size", "power"):
        raise ConfigError("experiment.kind", f"must be 'size' or 'power', got {kind!r}")
    reps = int(_require(exp, "reps", "experiment", default=10000))
    level = float(_require(exp, "level", "experiment", default=0.10))
    pi0 = float(_require(exp, "pi0", "experiment", default=0.25))
    if reps < 1:
        raise ConfigError("experiment.reps", f"must be at least 1, got {reps}")
    for key, value in (("level", level), ("pi0", pi0)):
        if not 0.0 < value < 1.0:
            raise ConfigError(f"experiment.{key}", f"must lie in (0, 1), got {value:g}")
    mu0s = [float(m) for m in _as_list(_require(exp, "mu0", "experiment", required=True))]
    seed = exp.get("seed")
    seed = DEFAULT_SEED if seed is None else int(seed)
    if "bandwidth" in exp and "bandwidth_c" in exp:
        raise ConfigError("experiment.bandwidth", "give either bandwidth or bandwidth_c, not both")
    if "bandwidth" in exp:
        hac = HacConfig(bandwidth=int(exp["bandwidth"]))
    else:
        hac = HacConfig(c=float(exp.get("bandwidth_c", 1.0)))

    family = _require(dgp, "family", "dgp", required=True)
    cells = []
    try:
        if family == "dgp1":
            for key in dgp:
                if key not in _DGP1_KEYS:
                    raise ConfigError(f"dgp.{key}", "unknown key")
            grid = itertools.product(
                _as_list(_require(dgp, "h", "dgp", default=1)),
                _as_list(_require(dgp, "T", "dgp", required=True)),
                _as_list(_require(dgp, "rho", "dgp", default=0.25)),
                _as_list(_require(dgp, "beta2", "dgp", default=0.0)),
            )
            for h, T, rho, beta2 in grid:
                spec = Dgp1Spec(
                    T=int(T), h=int(h), rho=float(rho), beta2=float(beta2),
                    beta1=float(dgp.get("beta1", 0.3)), theta=float(dgp.get("theta", 0.5)),
                    sigma=_resolve_sigma(dgp.get("sigma", "sigma1")),
                    burn_in=int(dgp.get("burn_in", 200)),
                )
                group = f"dgp1,h={h:g},T={T:g},rho={rho:g}"
                if kind == "power":
                    group += f",beta2={beta2:g}"
                for mu0 in mu0s:
                    cells.append(McCell(dgp=spec, mu0=mu0, pi0=pi0, hac=hac, level=level,
                                        label=f"{group},mu0={mu0:g}", group=group))
        elif family == "dgp2":
            for key in dgp:
                if key not in _DGP2_KEYS:
                    raise ConfigError(f"dgp.{key}", "unknown key")
            nt_pairs = _require(dgp, "NT", "dgp", required=True)
            grid = itertools.product(
                _as_list(_require(dgp, "h", "dgp", default=1)),
                [tuple(p) for p in nt_pairs],
                _as_list(_require(dgp, "beta2", "dgp", default=0.0)),
            )
            for h, (N, T), beta2 in grid:
                spec = Dgp2Spec(
                    T=int(T), N=int(N), h=int(h), beta2=float(beta2),
                    beta1=float(dgp.get("beta1", 0.3)), theta=float(dgp.get("theta", 0.5)),
                    alpha=float(dgp.get("alpha", 0.0)), alpha1=float(dgp.get("alpha1", 0.5)),
                    rho_i=float(dgp.get("rho_i", 0.5)),
                    loading_std=float(dgp.get("loading_std", 1.0)),
                    burn_in=int(dgp.get("burn_in", 200)),
                )
                group = f"dgp2,h={h:g},N={N:g},T={T:g}"
                if kind == "power":
                    group += f",beta2={beta2:g}"
                for mu0 in mu0s:
                    cells.append(McCell(dgp=spec, mu0=mu0, pi0=pi0, hac=hac, level=level,
                                        label=f"{group},mu0={mu0:g}", group=group))
        else:
            raise ConfigError("dgp.family", f"unknown family {family!r}")
    except ConfigError:
        raise
    except (TypeError, ValueError, SplitEncError) as exc:
        raise ConfigError("dgp", str(exc)) from None
    if not cells:
        raise ConfigError("dgp", "config produced no cells")
    for cell in cells:
        try:
            cell.forecast_origin()
        except SplitEncError as exc:
            raise ConfigError("experiment.pi0", f"cell {cell.label}: {exc}") from None
    return ExperimentConfig(kind=kind, cells=tuple(cells), reps=reps, seed=seed)


def _resolve_sigma(value):
    if isinstance(value, str):
        key = value.lower()
        if key not in _SIGMAS:
            raise ConfigError("dgp.sigma", f"unknown preset {value!r} (use sigma1/sigma2)")
        return _SIGMAS[key].copy()
    return np.asarray(value, dtype=float)
