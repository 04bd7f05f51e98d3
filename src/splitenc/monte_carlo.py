"""Replication engine for the empirical size and power studies.

Each experiment cell pairs a simulation design with the test's tuning inputs
(split fraction, bandwidth policy, nominal level, forecast start fraction).
Cells are grouped three ways:

* a stream group holds the DGP specs that draw the same random numbers:
  every dgp1 spec with the same ``dgp.DGP1_STREAM_FIELDS`` (T, rho, sigma,
  burn_in), or every dgp2 spec on one panel (the same
  ``dgp.DGP2_PANEL_FIELDS``: N, T, alpha1, rho_i, loading_std, burn_in);
* a design is one spec, one pi0 and one bandwidth M within a group;
* a cell is one mu0 of a design.

A design keeps its first forecast origin k0 = floor(T * pi0), its
bandwidth M and its cells' split locations m0, all resolved before any
replication runs.  The groups' replications, taken in group order, are cut
into tasks of at most TASK_REPLICATIONS (250), and of fewer when that
would leave a pool worker without a task: a task holds a run of
replications (a part) of one group or of several.  A run uses
min(workers, tasks, CPUs in its affinity mask) processes: at most one runs
every task in the calling process, more start a pool of that size.  One
``run_replication`` call computes a whole task as (replications, T)
arrays.  One simulate step serves both families, and it gives draws
only: a part's disturbance draws, predictor path (dgp1: x; dgp2: the
factor) and extra regressor (dgp1: x; dgp2: the estimated factor), dgp1
in one batch and dgp2 one replication at a time, drawing and factoring
each panel once.  Every design builds its y from those draws with
``dgp.outcome``, from one MA path per part, h and theta: that is the one
y path of the engine.  The designs of a task that differ only in
their stream fields (the same family, T, burn_in, h, beta1, beta2, theta,
alpha, k0, M and m0s) run as one: one ``outcome`` call covers all of
them, and their replications are then cut into row blocks of
max(1, _ROW_BLOCK // T), so that a block's running sums and split terms
stay in cache.  Per block, one fit of the recursive expanding-window
forecasts from both nested models starting at k0, and one split-statistic
call, cover every mu0 of every design.
The test is one-sided, so a cell's replication rejects when its statistic
exceeds the normal critical value at the cell's level.

The forecast errors of the nested pair [1, y_{t-h}] vs [1, y_{t-h}, x_{t-h}]
come from ``regression.nested_pair_forecast_errors``, which answers every
replication of a block in one call: from its closed form where it
certifies the replication, from the two generic fits where it does not,
and NaN where those fail.

Determinism: the random stream of a replication is keyed by (base seed,
stream digest, replication id) only, where the stream digest is that of
the spec's stream-group fields; ``_design_groups`` computes it once per
group.  Every step of a task acts on one replication at a time, so
reports are bit-identical across worker counts, task packings and
execution orders, and a cell's statistics do not change when it runs
alone, in a reordered grid or beside other cells, of its group or not.
A run holds numpy's OpenBLAS at one thread (see ``_run_cells``), so the
factor step's products round alike whatever the host's core count.
All designs and mu0 of a stream group see common random numbers: cells
that differ in h, alpha, beta1, beta2, theta or mu0 are dependent within
a replication, while each cell's own law is unchanged.

Failures are masks, not aborts, and NaN is the one failure signal.  Every
cell is resolved once, before any replication runs: a cell whose forecast
origin, split or bandwidth does not resolve runs no replication and is NaN
throughout.  A replication whose dgp2 factor is not identified is NaN in
every cell of its group.  One whose series have a non-finite entry that a
fit reads, or whose window is singular, gets NaN errors from the
nested-pair call and is NaN in every cell of its design.  A degenerate
long-run variance is NaN in its own entry.  NaN is dropped and counted as
a failure, and a cell with 1% or more failures is flagged unreliable.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._normal import ndtri
from .dgp import (
    DGP1_STREAM_FIELDS,
    DGP2_PANEL_FIELDS,
    SIGMA1,
    SIGMA2,
    Dgp1Spec,
    Dgp2Spec,
    RngStream,
    dgp1_draws,
    dgp2_draws,
    estimate_factor,
    ma_path,
    outcome,
    # the engine runs the draws functions; perfbench/mc.py wraps these names in this module
    simulate_dgp1,  # noqa: F401
    simulate_dgp2,  # noqa: F401
)
from .enc_test import (
    MIN_FORECAST_ERRORS,
    HacConfig,
    SplitSpec,
    distinct_mu0_list,
    split_statistic,
    unit_fraction,
)
# the engine runs split_statistic; perfbench/mc.py wraps this name in this module
from .enc_test import encompassing_test  # noqa: F401
from .errors import ConfigError, InsufficientData, SplitEncError
# the engine runs nested_pair_forecast_errors, which falls back on the generic fits in
# regression; perfbench/mc.py wraps expanding_window_forecast_errors in this module
from .regression import expanding_window_forecast_errors, nested_pair_forecast_errors  # noqa: F401
from .tables import csv_text, json_text, markdown_text

FAILURE_SHARE_LIMIT = 0.01
TASK_REPLICATIONS = 250  # replications of one run_replication call at most
_ROW_BLOCK = 1 << 15  # path entries (rows x T) of one row block of a shape's fit and statistic
DEFAULT_SEED = 20240817  # base seed of a config that sets none
# what a failed replication raises; anything else aborts the grid
_FAILURES = (SplitEncError, np.linalg.LinAlgError)


def _first_origin(dgp, pi0: float) -> tuple:
    """(k0, n): the first forecast origin floor(T * pi0) and the errors it leaves.

    Raises InsufficientData unless both nested fits are identified at k0
    (the larger model has three coefficients, so k0 >= 3 + h) and the
    n = T - h - k0 + 1 forecast errors number at least MIN_FORECAST_ERRORS.
    """
    T, h = dgp.T, dgp.h
    k0 = int(math.floor(T * pi0))
    if k0 < 3 + h:
        raise InsufficientData(f"k0={k0} < 3 + h = {3 + h}")
    n = T - h - k0 + 1
    if n < MIN_FORECAST_ERRORS:
        raise InsufficientData(
            f"k0={k0} leaves {n} forecast errors (need at least {MIN_FORECAST_ERRORS})")
    return k0, n


def _stream_digest(spec) -> int:
    """The digest that keys a replication's stream: the spec's fields that its draws depend on.

    It hashes the spec's type name, then the name and float64 bytes of each
    stream field (``DGP1_STREAM_FIELDS`` or ``DGP2_PANEL_FIELDS``) in order.
    A dgp1 spec holds an ndarray (``sigma``), so the frozen dataclass itself
    is not hashable; equal fields give equal digests in every process
    (adding 0.0 maps -0.0 to 0.0).
    """
    digest = hashlib.sha256(type(spec).__name__.encode())
    for name in DGP2_PANEL_FIELDS if isinstance(spec, Dgp2Spec) else DGP1_STREAM_FIELDS:
        digest.update(name.encode())
        digest.update((np.asarray(getattr(spec, name), dtype=np.float64) + 0.0).tobytes())
    return int.from_bytes(digest.digest(), "little")


# per spec class, the fields that y adds to the draws, with T and burn_in (the draws' length)
_Y_FIELDS = {cls: tuple(f.name for f in fields(cls)
                        if f.name not in stream or f.name in ("T", "burn_in"))
             for cls, stream in ((Dgp1Spec, DGP1_STREAM_FIELDS), (Dgp2Spec, DGP2_PANEL_FIELDS))}


def _y_key(spec) -> tuple:
    """The spec's class and _Y_FIELDS values, -0.0 as 0.0.

    Specs with one y key give the same y from the same draws, and their
    draws have one length, so their rows stack.  Within a stream group the
    y key tells specs apart: with the stream fields it covers every field.
    """
    return (type(spec), *(getattr(spec, name) + 0.0 for name in _Y_FIELDS[type(spec)]))


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
        unit_fraction(self.pi0, "pi0")
        unit_fraction(self.level, "level")
        SplitSpec(self.mu0)  # validates the split bounds

    def resolve(self) -> tuple:
        """(k0, m0, M): first forecast origin, split location and bandwidth, without simulating.

        Raises a SplitEncError unless the design admits k0 = floor(T * pi0)
        (see ``_first_origin``) and the split location and bandwidth resolve
        at the n forecast errors it leaves.
        """
        k0, n = _first_origin(self.dgp, self.pi0)
        return k0, SplitSpec(self.mu0).m0(n), self.hac.resolve(n)


@dataclass(frozen=True)
class _Design:
    """One spec, pi0 and bandwidth M of a stream group, its cells resolved (``McCell.resolve``).

    ``y_key`` is the spec's ``_y_key``.  ``members`` lists the (index,
    split location m0) of each of its cells, in cell order.
    """

    spec: Dgp1Spec | Dgp2Spec
    k0: int
    M: int
    y_key: tuple
    members: list = field(default_factory=list)

    def cells(self) -> list:
        """The cells' indices, in the order of the design's rows of a run_replication block."""
        return [i for i, _ in self.members]

    def shape(self) -> tuple:
        """What designs that run as one share: y from the draws, k0, M and the m0s."""
        return self.y_key, self.k0, self.M, tuple(m0 for _, m0 in self.members)


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


def _simulate(dgp, streams) -> tuple:
    """(innov, predictor, extra) of a part of a stream group, row b from stream b.

    innov and predictor are the disturbance draws and predictor path from
    t = 0 (dgp1: eps and x; dgp2: w and the factor f), from which
    ``ma_path`` and ``outcome`` give the y of every spec of the group;
    extra is the regressor of the larger model (dgp1: x; dgp2: the
    estimated factor, NaN where it is not identified).  dgp1 draws every
    stream in one call.  dgp2 draws and factors one stream at a time, and
    each panel dies with its factor call, so one T x N panel is alive at
    once (a 250-stream batch would hold 250).
    """
    if isinstance(dgp, Dgp1Spec):
        eps, x_path = dgp1_draws(dgp, streams)
        return eps, x_path, x_path[:, dgp.burn_in:]
    extra = np.empty((len(streams), dgp.T))
    innov, predictor = np.empty((2, len(streams), dgp.burn_in + dgp.T))
    for b, stream in enumerate(streams):
        X, predictor[b], innov[b] = dgp2_draws(dgp, stream)
        try:
            extra[b] = estimate_factor(X)
        except _FAILURES:
            extra[b] = np.nan
        del X  # the next panel is drawn without this one alive
    return innov, predictor, extra


def _stack(arrays) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _run_shape(design, members) -> None:
    """Fill the rows of every design of one shape (``_Design.shape``), a row block at a time.

    ``members`` holds (w, predictor, extra, rows) for each design of the
    shape: its part's MA path and predictor path, from which one
    ``outcome`` call on the stacked draws gives every design's y, its
    part's extra regressor, and rows, the design's (cells, replications)
    view of its part's block.  The replications run in blocks of
    max(1, _ROW_BLOCK // T), so that a block's running sums and split
    terms stay in cache: each block gets one nested-pair call and one
    statistic call, both on views of its rows.  The statistics go to the
    parts' blocks once, at the end.
    """
    y = outcome(design.spec, _stack([w for w, *_ in members]),
                _stack([p for _, p, *_ in members]))
    extra = _stack([extra for *_, extra, _ in members])
    m0s = [m0 for _, m0 in design.members]
    stats = np.empty((len(m0s), len(y)))
    step = max(1, _ROW_BLOCK // y.shape[1])
    for start in range(0, len(y), step):
        block = slice(start, start + step)
        e1, e2 = nested_pair_forecast_errors(y[block], extra[block], design.spec.h, design.k0)
        stats[:, block] = split_statistic(e1, e2, m0s, design.M)[0]
    column = 0
    for *_, rows in members:
        rows[:] = stats[:, column:column + rows.shape[1]]
        column += rows.shape[1]


def run_replication(parts) -> list:
    """Statistics of one task: a (cells, replications) block per part, rows per cell.

    A part is (designs, reps, key): a stream group's resolved designs
    (``_Design``), a run of its replications and its key (base seed,
    stream digest).  A block's rows follow each design's cells
    (``_Design.cells``) in that order.  Each part's draws are made once
    (``_simulate``), and its specs with one (h, theta) share one MA path
    (``ma_path``).  The designs of every part that share a shape
    (``_Design.shape``) then run as one: one ``outcome`` call on their
    stacked draws gives every y, then, per row block (``_run_shape``), one
    nested-pair fit and one statistic call cover all their cells.
    Replication r draws from its own stream, keyed by (key, r), and every
    step acts on one replication at a time, so an entry does not depend on
    which replications or parts share the call.  A replication whose
    factor is not identified is NaN in every cell of its group; one whose
    nested-pair errors are NaN (a non-finite entry that a fit reads, or a
    singular window) is NaN in every cell of its design; a degenerate
    variance is NaN in its own entry.
    """
    blocks, shapes = [], {}
    for designs, reps, key in parts:
        innov, predictor, extra = _simulate(designs[0].spec, [RngStream(key, rep) for rep in reps])
        block = np.full((sum(len(design.cells()) for design in designs), len(reps)), np.nan)
        blocks.append(block)
        paths, first = {}, 0
        for design in designs:
            spec, count = design.spec, len(design.cells())
            if (spec.h, spec.theta) not in paths:
                paths[spec.h, spec.theta] = ma_path(innov, spec.theta, spec.h)
            shapes.setdefault(design.shape(), (design, []))[1].append(
                (paths[spec.h, spec.theta], predictor, extra, block[first:first + count]))
            first += count
    for design, members in shapes.values():
        _run_shape(design, members)
    return blocks


def _design_groups(cells) -> list:
    """(stream digest, designs) per stream group, in order of first appearance.

    A group holds the cells whose specs draw the same random numbers (the
    same dgp1 stream fields; one dgp2 panel), split into designs of one
    spec, one pi0 and one bandwidth M (``_Design``).  This is where every
    cell is resolved, once; a cell that does not resolve
    (``McCell.resolve``) joins no group.
    """
    keys, groups = {}, {}  # keys: (stream digest, y key) per distinct spec object
    for i, cell in enumerate(cells):
        try:
            k0, m0, M = cell.resolve()
        except _FAILURES:
            continue
        spec = cell.dgp
        if id(spec) not in keys:
            keys[id(spec)] = (_stream_digest(spec), _y_key(spec))
        stream, y = keys[id(spec)]
        design = groups.setdefault(stream, {}).setdefault((y, cell.pi0, M), _Design(spec, k0, M, y))
        design.members.append((i, m0))
    return [(stream, list(designs.values())) for stream, designs in groups.items()]


def _tasks(groups, reps, base_seed, workers) -> list:
    """The groups' replications cut, in group order, into tasks of parts (see run_replication).

    A task holds at most TASK_REPLICATIONS replications, and fewer when
    that leaves a worker without one: every task but the last holds
    min(TASK_REPLICATIONS, ceil(replications / workers)), and a group's
    run is split where a task fills.
    """
    total = len(groups) * reps
    size = max(1, min(TASK_REPLICATIONS, -(-total // workers)))
    return [[(designs, range(max(start - offset, 0), min(start + size - offset, reps)),
              (base_seed, digest))
             for offset, (digest, designs) in zip(range(0, total, reps), groups)
             if offset < start + size and start < offset + reps]
            for start in range(0, total, size)]


_openblas = None  # (setter, getter) of numpy's OpenBLAS thread count, () if not found


def _blas_threads(count: int = 1):
    """Set numpy's OpenBLAS to ``count`` threads; returns its count before, or None if not found.

    The library is looked up once, on first use.  ctypes opens the one
    numpy has already loaded (``numpy.libs/libscipy_openblas64_*``), so
    the setter acts on the copy numpy's matmul calls.  scipy bundles a copy
    of its own, which only the dense eigensolver fallback of
    ``dgp.estimate_factor`` calls, and it is left alone: that fallback ran
    on none of the 4000 panels of tables 3 and 5 at 1000 replications.
    """
    global _openblas
    if _openblas is None:
        import ctypes
        import glob

        _openblas = ()
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
            try:
                lib = ctypes.CDLL(path)
                setter = lib.scipy_openblas_set_num_threads64_
                getter = lib.scipy_openblas_get_num_threads64_
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            _openblas = (setter, getter)
            break
    if not _openblas:
        return None
    setter, getter = _openblas
    before = getter()
    setter(count)
    return before


def _run_cells(cells, reps, base_seed, workers) -> np.ndarray:
    """Statistics of every (cell, replication) as a (cells, reps) array; NaN marks a failure.

    reps, base_seed and workers are checked first, as their config keys and
    options are, and a bad one is named.  The tasks are cut by workers, and
    the run uses min(workers, tasks, CPUs this process may run on)
    processes: at most one runs every task here, and more start a pool of
    that size (a fork-started pool launches all its processes at the first
    submit).  The run holds numpy's OpenBLAS at
    one thread, in this process and in every pool worker, and gives this
    process its count back afterwards, also when the run raises: with it a
    factor step's bits do not depend on the host's core count, and the pool
    workers' BLAS threads do not wait on each other.  Where the library or
    its setter is not found, BLAS runs as it is set.
    """
    checked = []
    for name, check, value in (("reps", replication_count, reps),
                               ("base_seed", seed_value, base_seed),
                               ("workers", worker_count, workers)):
        try:
            checked.append(check(value))
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    reps, base_seed, workers = checked
    tasks = _tasks(_design_groups(cells), reps, base_seed, workers)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(workers, len(tasks), cpus or 1)
    before = _blas_threads(1)
    try:
        if processes <= 1:
            results = [run_replication(task) for task in tasks]
        else:
            # imported here, not at module import: only a pooled run needs it
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=processes, initializer=_blas_threads) as pool:
                results = list(pool.map(run_replication, tasks))
    finally:
        if before is not None:
            _blas_threads(before)
    stats = np.full((len(cells), reps), np.nan)
    for task, blocks in zip(tasks, results):
        for (designs, part, _), block in zip(task, blocks):
            stats[[i for design in designs for i in design.cells()], part.start:part.stop] = block
    return stats


def _run_experiment(kind: str, cells, reps, base_seed, workers) -> McReport:
    """Rejection frequencies of a size or power experiment, every cell's beta2 checked first."""
    cells = list(cells)
    for cell in cells:
        _check_beta2(kind, cell.label, cell.dgp.beta2)
    stats = _run_cells(cells, reps, base_seed, workers)
    reps = stats.shape[1]
    critical = {level: ndtri(1.0 - level) for level in {cell.level for cell in cells}}
    # NaN compares False, so a failed replication never rejects
    rejected = stats > np.reshape([critical[cell.level] for cell in cells], (-1, 1))
    out = []
    for cell, failures, rejects in zip(cells, np.count_nonzero(np.isnan(stats), axis=1).tolist(),
                                       np.count_nonzero(rejected, axis=1).tolist()):
        done = reps - failures
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
    # _run_cells took base_seed as a whole number: the report shows the seed it ran
    return McReport(cells=tuple(out), reps=reps, base_seed=int(base_seed), kind=kind)


def _check_beta2(kind: str, name: str, beta2: float) -> None:
    """A size cell needs beta2 = 0 and a power cell beta2 > 0."""
    if not (beta2 == 0.0 if kind == "size" else beta2 > 0.0):
        expected = "0" if kind == "size" else "> 0"
        raise ValueError(f"{kind} cell '{name}' has beta2={beta2!r}, expected {expected}")


def run_size_experiment(cells, reps: int, base_seed: int, workers: int = 1) -> McReport:
    """Rejection frequencies under the null; every cell must have beta2 = 0."""
    return _run_experiment("size", cells, reps, base_seed, workers)


def run_power_experiment(cells, reps: int, base_seed: int, workers: int = 1) -> McReport:
    """Rejection frequencies under alternatives; every cell must have beta2 > 0."""
    return _run_experiment("power", cells, reps, base_seed, workers)


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


def _whole(value) -> int:
    """An integer as written: a bool and a number with a fractional part are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A number as written: a bool is rejected."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def replication_count(value) -> int:
    """A replication count of at least 1 (config key ``reps``, option ``--reps``)."""
    reps = _whole(value)
    if reps < 1:
        raise ValueError(f"must be at least 1, got {reps}")
    return reps


def worker_count(value) -> int:
    """A worker-process count of at least 1 (option ``--threads``)."""
    workers = _whole(value)
    if workers < 1:
        raise ValueError(f"must be at least 1, got {workers}")
    return workers


def seed_value(value) -> int:
    """A non-negative base seed (config key ``seed``, option ``--seed``)."""
    seed = _whole(value)
    if seed < 0:
        raise ValueError(f"must be non-negative, got {seed}")
    return seed


def _sigma(value):
    if isinstance(value, str):
        if value.lower() not in _SIGMAS:
            raise ValueError(f"unknown preset {value!r} (use sigma1/sigma2)")
        return _SIGMAS[value.lower()].copy()
    entries = np.asarray(value, dtype=object)
    return np.array([_real(v) for v in entries.flat], dtype=float).reshape(entries.shape)


def _nt_pair(value):
    N, T = value
    return _whole(N), _whole(T)


# experiment key -> (McCell field, converter); an omitted key keeps McCell's default
_CELL_KEYS = {
    "level": ("level", unit_fraction),
    "pi0": ("pi0", unit_fraction),
    "bandwidth": ("hac", lambda v: HacConfig(bandwidth=_whole(v))),
    "bandwidth_c": ("hac", lambda v: HacConfig(c=_real(v))),
}
_EXPERIMENT_KEYS = {"kind", "reps", "mu0", "seed", *_CELL_KEYS}
# family -> (spec class, required key, converter per key, keys expanded as a
# grid in cell order, spec fields named in the group label); an omitted key
# keeps the spec's default, and an NT pair fills the fields N and T
_FAMILIES = {
    "dgp1": (Dgp1Spec, "T",
             {"T": _whole, "h": _whole, "rho": _real, "beta1": _real, "beta2": _real,
              "theta": _real, "sigma": _sigma, "burn_in": _whole},
             ("h", "T", "rho", "beta2"), ("h", "T", "rho")),
    "dgp2": (Dgp2Spec, "NT",
             {"NT": _nt_pair, "h": _whole, "beta1": _real, "beta2": _real, "theta": _real,
              "alpha": _real, "alpha1": _real, "rho_i": _real, "loading_std": _real,
              "burn_in": _whole},
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
    Unknown keys, bad values, an empty list, infeasible cells and a beta2
    that breaks the kind's rule (size: 0, power: > 0) raise ConfigError with
    their key path.  A cell that does not resolve names the key of the
    value it fails on: pi0 for its forecast origin, mu0 for its split, and
    bandwidth or bandwidth_c, whichever the config sets, for its bandwidth.
    """
    # imported here, not at module import: only the mc commands read a config
    import yaml

    from .errors import BandwidthOutOfRange, InvalidSplit

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
    for section in ("experiment", "dgp"):
        if not isinstance(raw.get(section), dict):
            raise ConfigError(section, "missing or not a mapping")
    exp, dgp = raw["experiment"], raw["dgp"]
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
    seed = DEFAULT_SEED if seed is None else _convert("experiment.seed", seed_value, seed)
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
            if not grid[key]:
                raise ConfigError(f"dgp.{key}", "must not be empty")
        else:
            fixed[key] = _convert(f"dgp.{key}", converters[key], value)
    keys = [key for key in grid_keys if key in grid]
    # the experiment key of each error a cell's resolve raises
    unresolved = {InvalidSplit: "mu0", InsufficientData: "pi0",
                  BandwidthOutOfRange: "bandwidth_c" if "bandwidth_c" in exp else "bandwidth"}
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
                cell.resolve()
            except SplitEncError as exc:
                raise ConfigError(f"experiment.{unresolved[type(exc)]}",
                                  f"cell {cell.label}: {exc}") from None
            cells.append(cell)
    return ExperimentConfig(kind=kind, cells=tuple(cells), reps=reps, seed=seed)
