"""Replication engine for the empirical size and power studies.

Each experiment cell pairs a simulation design with the test's tuning inputs
(split fraction, bandwidth policy, nominal level, forecast start fraction).
Cells that share one DGP spec and one pi0 form a design group.  The
replications of a group run in chunks of up to 250, and one
``run_replication`` call computes a whole chunk as (replications, T)
arrays: it simulates the chunk, produces recursive expanding-window
forecasts from both nested models starting at k0 = floor(T * pi0), and
runs the split statistic once per cell over every replication's
forecast-error pair.  The test is one-sided, so a cell's replication
rejects when its statistic exceeds the normal critical value at the cell's
level.

The forecast errors of the nested pair [1, y_{t-h}] vs [1, y_{t-h}, x_{t-h}]
come from the closed-form kernel ``regression.nested_pair_forecast_errors``,
which certifies each replication on its own.  A replication it cannot
certify runs the two generic ``DirectDesign`` fits on its own, which raise
what they always raised.

Determinism: the random stream of a replication is keyed by
(base seed, digest of the DGP spec, replication id) only, and every step of
a chunk acts on one replication at a time, so reports are bit-identical
across worker counts, chunkings and execution orders, and a cell's
statistics do not change when it runs alone, in a reordered grid or beside
unrelated cells.  All mu0 of a design group see common random numbers.

Failures are masks, not aborts.  A replication whose simulated series are
not finite, or whose dgp2 factor is not identified, is NaN in every cell of
its group; a degenerate long-run variance is NaN in its own entry.  When a
chunk raises instead (a failed simulation or generic fit), its replications
run again one at a time, and only those that still raise are NaN in every
cell of the group.  NaN is dropped and counted as a failure, and a cell
with 1% or more failures is flagged unreliable.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml
from scipy.special import ndtri

from .dgp import SIGMA1, SIGMA2, Dgp1Spec, Dgp2Spec, RngStream, estimate_factor, simulate_dgp1, simulate_dgp2
from .enc_test import HacConfig, SplitSpec, distinct_mu0_list, split_statistic
# the engine runs split_statistic; perfbench/mc.py wraps this name in this module
from .enc_test import encompassing_test  # noqa: F401
from .errors import ConfigError, InsufficientData, SplitEncError
from .regression import DirectDesign, expanding_window_forecast_errors, nested_pair_forecast_errors
from .tables import csv_text, json_text, markdown_text

FAILURE_SHARE_LIMIT = 0.01
DEFAULT_SEED = 20240817  # base seed of a config that sets none
# what a failed replication raises; anything else aborts the grid
_FAILURES = (SplitEncError, np.linalg.LinAlgError)


def _first_origin(dgp, pi0: float) -> tuple:
    """(k0, n): the first forecast origin floor(T * pi0) and the errors it leaves.

    Raises InsufficientData unless both nested fits are identified at k0
    (the larger model has three coefficients, so k0 >= 3 + h) and the
    n = T - h - k0 + 1 forecast errors number at least 10.
    """
    T, h = dgp.T, dgp.h
    k0 = int(math.floor(T * pi0))
    if k0 < 3 + h:
        raise InsufficientData(f"k0={k0} < 3 + h = {3 + h}")
    n = T - h - k0 + 1
    if n < 10:
        raise InsufficientData(f"k0={k0} leaves {n} forecast errors (need at least 10)")
    return k0, n


def _spec_digest(spec) -> int:
    """Canonical digest of a DGP spec: its type name and each field's name and float64 bytes.

    The spec holds an ndarray (``sigma``), so the frozen dataclass itself is
    not hashable; equal specs give equal digests in every process (adding
    0.0 maps -0.0 to 0.0).
    """
    digest = hashlib.sha256(type(spec).__name__.encode())
    for f in fields(spec):
        digest.update(f.name.encode())
        digest.update((np.asarray(getattr(spec, f.name), dtype=np.float64) + 0.0).tobytes())
    return int.from_bytes(digest.digest(), "little")


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

        Raises a SplitEncError unless the design admits k0 (see
        ``_first_origin``) and the split location and bandwidth resolve at
        the n forecast errors it leaves.
        """
        k0, n = _first_origin(self.dgp, self.pi0)
        SplitSpec(self.mu0).m0(n)
        self.hac.resolve(n)
        return k0


@dataclass(frozen=True)
class CellResult:
    """One cell's outcome; the field order is the csv/json column order."""

    label: str
    reps: int
    rejection_frequency: float
    mc_se: float  # Monte Carlo standard error of the rejection frequency
    failures: int
    mu0: float
    group: str
    reliable: bool


@dataclass(frozen=True)
class McReport:
    cells: tuple
    reps: int
    base_seed: int
    kind: str = ""


def _generic_pair(y, extra, h: int, k0: int):
    """The two generic expanding-window fits of one series pair; raises what they raise."""
    bench = DirectDesign.from_series(y, y, h=h)
    large = DirectDesign.from_series(y, np.column_stack([y, extra]), h=h)
    return expanding_window_forecast_errors(bench, k0), expanding_window_forecast_errors(large, k0)


def _forecast_error_pair(y, extra, h: int, k0: int):
    """Expanding-window errors of the nested pair [1, y_t] vs [1, y_t, extra_t], row by row.

    y and extra are (..., T).  The closed-form kernel answers for every row
    it certifies; each other row runs the two generic fits on its own,
    which raise what they always raised.
    """
    pair = nested_pair_forecast_errors(y, extra, h, k0)
    if pair is None:  # a k0 outside the kernel's range: the generic path raises
        return _generic_pair(y, extra, h, k0)
    e1, e2 = pair
    for row in map(tuple, np.argwhere(np.isnan(e1[..., 0]))):
        e1[row], e2[row] = _generic_pair(y[row], extra[row], h, k0)
    return e1, e2


@functools.cache
def _critical_value(level: float) -> float:
    """One-sided standard-normal critical value at the nominal level."""
    return float(ndtri(1.0 - level))


def _dgp2_replication(dgp, stream) -> tuple:
    """(y, factor) of one dgp2 replication; the factor is NaN when it is not identified."""
    sim = simulate_dgp2(dgp, stream)
    try:
        return sim["y"], estimate_factor(sim["X"])
    except _FAILURES:
        return sim["y"], np.nan


def _simulate(dgp, streams) -> tuple:
    """(y, extra) as (len(streams), T) arrays, row b from stream b.

    dgp1 simulates every stream in one call.  dgp2 simulates and extracts
    the factor one stream at a time, so only one T x N panel is alive at
    once (a 250-stream panel batch would hold 250 of them).
    """
    if isinstance(dgp, Dgp1Spec):
        sim = simulate_dgp1(dgp, streams)
        return sim["y"], sim["x"]
    if isinstance(dgp, Dgp2Spec):
        y, extra = np.empty((2, len(streams), dgp.T))
        for b, stream in enumerate(streams):
            y[b], extra[b] = _dgp2_replication(dgp, stream)
        return y, extra
    raise ValueError(f"unsupported DGP type {type(dgp).__name__}")


def run_replication(cells, reps: range, base_seed: int) -> np.ndarray:
    """(cells, len(reps)) statistics of one design group over a run of replications.

    The cells share one DGP spec and one pi0, so they share the forecast
    errors: the chunk is simulated and fitted once, and the statistic runs
    once per cell over all its replications.  Replication r draws from its
    own stream, keyed by (base_seed, spec digest, r), and every step acts on
    one replication at a time, so an entry does not depend on which
    replications share the call.  A replication whose simulated series are
    not finite (or whose dgp2 factor is not identified) is NaN in every
    cell; a degenerate variance is NaN in its own entry; a cell whose split
    or bandwidth does not resolve is NaN throughout.  Anything else that
    fails, such as a simulation or a generic fit, raises for the chunk.
    """
    dgp = cells[0].dgp
    k0, n = _first_origin(dgp, cells[0].pi0)
    digest = _spec_digest(dgp)
    y, extra = _simulate(dgp, [RngStream((base_seed, digest), rep) for rep in reps])
    finite = np.isfinite(y).all(axis=1) & np.isfinite(extra).all(axis=1)
    e1, e2 = _forecast_error_pair(y[finite], extra[finite], dgp.h, k0)
    stats = np.full((len(cells), len(reps)), np.nan)
    for i, cell in enumerate(cells):
        try:
            m0, M = SplitSpec(cell.mu0).m0(n), cell.hac.resolve(n)
            stats[i, finite] = split_statistic(e1, e2, m0, M)[0]
        except _FAILURES:
            pass
    return stats


def _design_groups(cells) -> list:
    """Cell indices per design group (one DGP spec and one pi0), in order of first appearance."""
    groups = {}
    for i, cell in enumerate(cells):
        groups.setdefault((_spec_digest(cell.dgp), cell.pi0), []).append(i)
    return list(groups.values())


def _run_chunk(cells, base_seed: int, start: int, stop: int) -> np.ndarray:
    """(cells, stop - start) statistics of replications start..stop-1 of one group.

    One ``run_replication`` call computes the chunk.  If it raises, each
    replication runs again on its own, and one that still raises leaves NaN
    in every cell of the group; an entry is the same bits either way.
    """
    try:
        return run_replication(cells, range(start, stop), base_seed)
    except _FAILURES:
        pass
    stats = np.full((len(cells), stop - start), np.nan)
    for rep in range(start, stop):
        try:
            stats[:, rep - start] = run_replication(cells, range(rep, rep + 1), base_seed)[:, 0]
        except _FAILURES:
            pass
    return stats


def _run_cells(cells, reps, base_seed, workers) -> np.ndarray:
    """Statistics of every (cell, replication) as a (cells, reps) array."""
    if reps < 1:
        raise ValueError("need at least one replication")
    chunk = min(reps, 250)
    tasks = [(group, start, min(start + chunk, reps))
             for group in _design_groups(cells) for start in range(0, reps, chunk)]
    args = [([cells[i] for i in group], base_seed, start, stop) for group, start, stop in tasks]
    if workers <= 1:
        chunks = [_run_chunk(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, *zip(*args)))
    stats = np.empty((len(cells), reps))
    for (group, start, stop), block in zip(tasks, chunks):
        stats[group, start:stop] = block
    return stats


def _summarize(cells, stats, base_seed, kind) -> McReport:
    reps = stats.shape[1]
    out = []
    for cell, row in zip(cells, stats):
        failures = int(np.count_nonzero(np.isnan(row)))
        done = reps - failures
        # NaN compares False, so a failed replication never rejects
        rejects = int(np.count_nonzero(row > _critical_value(cell.level)))
        freq = rejects / done if done > 0 else float("nan")
        se = math.sqrt(freq * (1.0 - freq) / done) if done > 0 else float("nan")
        out.append(
            CellResult(
                label=cell.label or f"mu0={cell.mu0:g}",
                reps=reps,
                rejection_frequency=freq,
                mc_se=se,
                failures=failures,
                mu0=cell.mu0,
                group=cell.group,
                reliable=(failures / reps) < FAILURE_SHARE_LIMIT,
            )
        )
    return McReport(cells=tuple(out), reps=reps, base_seed=base_seed, kind=kind)


def _check_beta2(kind: str, name: str, beta2: float) -> None:
    """A size cell needs beta2 = 0 and a power cell beta2 > 0."""
    if not (beta2 == 0.0 if kind == "size" else beta2 > 0.0):
        expected = "0" if kind == "size" else "> 0"
        raise ValueError(f"{kind} cell '{name}' has beta2={beta2!r}, expected {expected}")


def run_size_experiment(cells, reps: int, base_seed: int, workers: int = 1) -> McReport:
    """Rejection frequencies under the null; every cell must have beta2 = 0."""
    cells = list(cells)
    for cell in cells:
        _check_beta2("size", cell.label, cell.dgp.beta2)
    return _summarize(cells, _run_cells(cells, reps, base_seed, workers), base_seed, "size")


def run_power_experiment(cells, reps: int, base_seed: int, workers: int = 1) -> McReport:
    """Rejection frequencies under alternatives; every cell must have beta2 > 0."""
    cells = list(cells)
    for cell in cells:
        _check_beta2("power", cell.label, cell.dgp.beta2)
    return _summarize(cells, _run_cells(cells, reps, base_seed, workers), base_seed, "power")


def collect_statistics(cell: McCell, reps: int, base_seed: int, workers: int = 1) -> np.ndarray:
    """Raw test statistics across replications (failed replications dropped)."""
    stats = _run_cells([cell], reps, base_seed, workers)[0]
    return stats[np.isfinite(stats)]


# -- report rendering -------------------------------------------------------

def render_report(report: McReport, format: str = "markdown") -> str:
    """Render a report as csv, json or markdown text.

    The machine formats are flat (one row/object per cell, stable column
    order, full float precision).  The markdown form pivots to the
    size/power-table layout, one row per cell group and one column per mu0,
    whenever the (group, mu0) pairs allow it.
    """
    if len(report.cells) == 0:
        raise ValueError("report has no cells")
    records = [asdict(c) for c in report.cells]
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
        rows = [[c.label, f"{c.rejection_frequency:.3f}", f"{c.mc_se:.4f}",
                 str(c.failures)] for c in cells]
    return title + markdown_text(columns, rows)


# -- experiment config files -------------------------------------------------

_SIGMAS = {"sigma1": SIGMA1, "sigma2": SIGMA2}


def replication_count(value) -> int:
    """A replication count of at least 1 (config key ``reps``, option ``--reps``)."""
    reps = int(value)
    if reps < 1:
        raise ValueError(f"must be at least 1, got {reps}")
    return reps


def unit_fraction(value) -> float:
    """A fraction strictly inside (0, 1) (config keys ``level`` and ``pi0``, their options)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"must lie in (0, 1), got {value:g}")
    return value


def _sigma(value):
    if isinstance(value, str):
        if value.lower() not in _SIGMAS:
            raise ValueError(f"unknown preset {value!r} (use sigma1/sigma2)")
        return _SIGMAS[value.lower()].copy()
    return np.asarray(value, dtype=float)


def _nt_pair(value):
    N, T = value
    return int(N), int(T)


# experiment key -> (McCell field, converter); an omitted key keeps McCell's default
_CELL_KEYS = {
    "level": ("level", unit_fraction),
    "pi0": ("pi0", unit_fraction),
    "bandwidth": ("hac", lambda v: HacConfig(bandwidth=int(v))),
    "bandwidth_c": ("hac", lambda v: HacConfig(c=float(v))),
}
_EXPERIMENT_KEYS = {"kind", "reps", "mu0", "seed", *_CELL_KEYS}
# family -> (spec class, required key, converter per key, keys expanded as a
# grid in cell order, spec fields named in the group label); an omitted key
# keeps the spec's default, and an NT pair fills the fields N and T
_FAMILIES = {
    "dgp1": (Dgp1Spec, "T",
             {"T": int, "h": int, "rho": float, "beta1": float, "beta2": float,
              "theta": float, "sigma": _sigma, "burn_in": int},
             ("h", "T", "rho", "beta2"), ("h", "T", "rho")),
    "dgp2": (Dgp2Spec, "NT",
             {"NT": _nt_pair, "h": int, "beta1": float, "beta2": float, "theta": float,
              "alpha": float, "alpha1": float, "rho_i": float, "loading_std": float,
              "burn_in": int},
             ("h", "NT", "beta2"), ("h", "N", "T")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    cells: tuple
    reps: int
    seed: int


def _as_list(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _convert(key_path, convert, *args, **kwargs):
    """convert(*args, **kwargs), with a bad value reported as a ConfigError at key_path."""
    try:
        return convert(*args, **kwargs)
    except (TypeError, ValueError, SplitEncError) as exc:
        raise ConfigError(key_path, str(exc)) from None


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a YAML experiment definition into a cell grid.

    mu0 and the family's grid keys (dgp1: h, T, rho, beta2; dgp2: h, NT,
    beta2) expand as a cartesian product; scalars apply to every cell.
    Omitted keys take the defaults of the DGP spec, McCell and HacConfig.
    Unknown keys, bad values, infeasible cells and a beta2 that breaks the
    kind's rule (size: 0, power: > 0) raise ConfigError with their key path.
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
    for key in ("kind", "mu0"):
        if key not in exp:
            raise ConfigError(f"experiment.{key}", "missing required key")

    kind = exp["kind"]
    if kind not in ("size", "power"):
        raise ConfigError("experiment.kind", f"must be 'size' or 'power', got {kind!r}")
    reps = _convert("experiment.reps", replication_count, exp.get("reps", 10000))
    seed = exp.get("seed")
    seed = DEFAULT_SEED if seed is None else _convert("experiment.seed", int, seed)
    mu0s = _convert("experiment.mu0", distinct_mu0_list, _as_list(exp["mu0"]))
    if "bandwidth" in exp and "bandwidth_c" in exp:
        raise ConfigError("experiment.bandwidth", "give either bandwidth or bandwidth_c, not both")
    tuning = {name: _convert(f"experiment.{key}", convert, exp[key])
              for key, (name, convert) in _CELL_KEYS.items() if key in exp}

    if "family" not in dgp:
        raise ConfigError("dgp.family", "missing required key")
    family = dgp["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError("dgp.family", f"unknown family {family!r}")
    spec_cls, required, converters, grid_keys, label_fields = _FAMILIES[family]
    if required not in dgp:
        raise ConfigError(f"dgp.{required}", "missing required key")
    fixed, grid = {}, {}
    for key, value in dgp.items():
        if key == "family":
            continue
        if key not in converters:
            raise ConfigError(f"dgp.{key}", "unknown key")
        if key in grid_keys:
            grid[key] = [_convert(f"dgp.{key}", converters[key], v) for v in _as_list(value)]
        else:
            fixed[key] = _convert(f"dgp.{key}", converters[key], value)
    keys = [key for key in grid_keys if key in grid]
    cells = []
    for point in itertools.product(*(grid[key] for key in keys)):
        kwargs = {**fixed, **dict(zip(keys, point))}
        if "NT" in kwargs:
            kwargs["N"], kwargs["T"] = kwargs.pop("NT")
        spec = _convert("dgp", spec_cls, **kwargs)
        group = ",".join([family] + [f"{name}={getattr(spec, name):g}" for name in label_fields])
        _convert("dgp.beta2", _check_beta2, kind, group, spec.beta2)
        if kind == "power":
            group += f",beta2={spec.beta2:g}"
        for mu0 in mu0s:
            cell = McCell(dgp=spec, mu0=mu0, label=f"{group},mu0={mu0:g}", group=group, **tuning)
            try:
                cell.forecast_origin()
            except SplitEncError as exc:
                raise ConfigError("experiment.pi0", f"cell {cell.label}: {exc}") from None
            cells.append(cell)
    if not cells:
        raise ConfigError("dgp", "config produced no cells")
    return ExperimentConfig(kind=kind, cells=tuple(cells), reps=reps, seed=seed)
