"""Experiment orchestration: seeded runs, diagnostics, persistence.

A run is a grid of cells (sample size, chain steps, replicate seed).  Each
cell samples data, runs the guarded CD iteration, measures the tail error
of the weighted average and, when requested, re-verifies the per-step
drift, super-martingale and bias bounds exactly.  ``run`` and ``diagnose``
share one pipeline.  ``_prepare_cells`` settles everything a cell's sample
decides: the data, as state counts, and their MLE once per sample size and
replicate, then, with one sweep of the parameter grid per chain length m,
the sample checks and the bias grid once per (sample, m).
``evaluate_cell`` runs the checks that read a trajectory, whether it was
just computed or read back from disk.  All outputs are plain CSV and JSON
written with round-trip float formatting, so a rerun with the same
configuration and master seed is byte identical.
"""

from __future__ import annotations

import json
import platform
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig
from .diagnostics import (
    BiasGridReport,
    DriftReport,
    MartingaleReport,
    OccupancyReport,
    _median_quantiles,
    bias_bound_grid,
    drift_report,
    envelope_coverage,
    martingale_report,
    occupancy_report,
    rate_fit,
)
from .learner import (
    RNG_STREAM_DATA,
    TailDistance,
    Trajectory,
    _is_key_word,
    delta_n,
    run_cd,
    weighted_average_series,
)
from .model import (
    IDENTIFIABILITY_PROBES,
    FiniteExpFamily,
    ParamBox,
    boundary_layer_contains,
    identifiability_report,
)
from .oracle import (
    DataSample,
    MleNonexistenceError,
    SampleChecks,
    TheoryConstants,
    _scrub,
    assemble_constants,
    check_samples,
    compute_grid_bounds,
    mle,
    sample_iid,
)

__all__ = [
    "CellOutcome",
    "DiagnoseResult",
    "ExperimentResult",
    "RateSweepResult",
    "diagnose_run",
    "evaluate_cell",
    "rate_sweep",
    "run_experiment",
    "verify_assumptions",
]

# The per-cell checks, in the order of their diagnostics.json records.
CHECKS = ("drift", "bias_bound", "martingale_outside_ball", "martingale_inside", "occupancy")
RATE_SLOPE_BAND = (-0.60, -0.15)
SLOPE_GAP_TOL = 0.15


# ----------------------------------------------------------------------
# deterministic formatting
# ----------------------------------------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _column(values):
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return map(repr, values.tolist())
    if values.dtype.kind in "biu":
        return map(str, values.astype(np.int64).tolist())
    return map(str, values.tolist())


def _csv(header: list[str], columns) -> str:
    """CSV of equal-length columns: floats as repr(float), ints and bools as str(int)."""
    rows = zip(*[_column(c) for c in columns])
    return "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ----------------------------------------------------------------------
# the cell pipeline
# ----------------------------------------------------------------------


@dataclass
class CellTask:
    """One cell's inputs, everything its sample decides included.

    Run-wide settings, the true parameter among them, are read from
    ``config``, the data seed from ``data``.  ``checks`` is None when the
    sample has no MLE, ``bias`` is None unless ``_skip_reasons`` lets the
    bias check run.
    """

    config: RunConfig
    master_seed: int
    fam: FiniteExpFamily
    box: ParamBox
    n: int
    m: int
    replicate: int
    data: DataSample
    constants: TheoryConstants
    checks: SampleChecks | None
    bias: BiasGridReport | None = None

    @property
    def label(self) -> str:
        return f"n{self.n}_m{self.m}_s{self.replicate}"


@dataclass
class CellOutcome:
    """What evaluating a cell's trajectory computed; the cell itself is its ``CellTask``."""

    trajectory: Trajectory
    delta: TailDistance
    drift: DriftReport | None
    martingale: MartingaleReport | None
    occupancy: OccupancyReport | None


def _constants_table(config: RunConfig, fam, box, bounds) -> dict:
    return {
        (int(n), int(m)): assemble_constants(fam, box, bounds, int(m), int(n), config.gamma)
        for n in config.n_values
        for m in config.m_values
    }


def _prepare_cells(config: RunConfig, master_seed: int) -> tuple[list[CellTask], dict]:
    """Every cell's inputs, in run order, and the (n, m) constants table.

    The data are drawn and their MLE fitted once per (n, replicate).  Then
    one ``check_samples`` sweep of the grid per m, in ascending m, checks
    every sample that has an MLE and gives the bias norms that
    ``bias_bound_grid`` scores where the bias check runs.  A cell whose
    sample has no MLE gets no checks.
    """
    fam = config.build_family()
    box = config.build_box()
    theta_star = np.asarray(config.theta_star, dtype=float)
    grid = box.grid(config.grid_per_axis)
    bounds = compute_grid_bounds(fam, box, theta_star, config.grid_per_axis)
    constants = _constants_table(config, fam, box, bounds)
    samples = []
    for n in sorted(int(v) for v in config.n_values):
        for rep in sorted(int(s) for s in config.seeds):
            data = sample_iid(fam, theta_star, n, seed=[master_seed, rep, n, RNG_STREAM_DATA])
            try:
                fit = mle(fam, data, box)
            except MleNonexistenceError:
                fit = None
            samples.append((n, rep, data, fit))
    fitted = [(data, fit) for _, _, data, fit in samples if fit is not None]
    fitted_data, fits = [data for data, _ in fitted], [fit for _, fit in fitted]

    tasks = []
    for m in sorted(int(v) for v in config.m_values):
        checks = iter(check_samples(fam, fitted_data, fits, theta_star, m, config.gamma, grid))
        for n, rep, data, fit in samples:
            task = CellTask(
                config, master_seed, fam, box, n, m, rep, data, constants[(n, m)],
                None if fit is None else next(checks),
            )
            if _skip_reasons(task)["bias_bound"] is None:
                task.bias = bias_bound_grid(task.constants, task.checks, grid)
            tasks.append(task)
    tasks.sort(key=lambda task: (task.n, task.replicate, task.m))
    return tasks, constants


def _skip_reasons(task: CellTask) -> dict:
    """Why each check, in ``diagnostics.json`` order, does not run in this cell.

    A check that runs maps to None; for one that does not, the first cause
    that holds, in the order tested here, is the reason.
    """
    if not task.config.exact_step_checks:
        return dict.fromkeys(CHECKS, "exact step checks off")
    if task.checks is None:
        return dict.fromkeys(CHECKS, "mle does not exist")
    no_ball = None if task.constants.hypotheses_met else "drift coefficient not positive"
    return {
        "drift": None,
        "bias_bound": None if task.checks.passed else "sample fails its quality constraints",
        "martingale_outside_ball": no_ball,
        "martingale_inside": no_ball,
        "occupancy": no_ball,
    }


def evaluate_cell(task: CellTask, traj: Trajectory) -> CellOutcome:
    """Tail error and every exact per-step check that ``_skip_reasons`` leaves to run.

    The bias report needs no trajectory; it stays with the task.
    """
    reasons = _skip_reasons(task)
    fam, box, data, constants, checks = task.fam, task.box, task.data, task.constants, task.checks
    drift = mart = occ = None
    if reasons["drift"] is None:
        drift = drift_report(fam, box, traj, data, constants, checks)
    if reasons["martingale_outside_ball"] is None:
        mart = martingale_report(fam, box, traj, data, constants, checks)
    if reasons["occupancy"] is None:
        occ = occupancy_report(traj, constants, checks)
    return CellOutcome(
        trajectory=traj,
        delta=delta_n(traj, task.config.theta_star, task.config.tail_fraction),
        drift=drift,
        martingale=mart,
        occupancy=occ,
    )


def _run_cell(task: CellTask) -> CellOutcome:
    config = task.config
    traj = run_cd(
        task.fam,
        task.box,
        config.schedule,
        task.data,
        m=task.m,
        steps=config.iterations,
        burn_in=config.burn_in,
        master_seed=task.master_seed,
        replicate=task.replicate,
        theta_init=config.theta_init,
    )
    return evaluate_cell(task, traj)


def _map_tasks(tasks: list[CellTask], workers: int) -> list[CellOutcome]:
    workers = min(workers, len(tasks))  # an idle worker would still start and import numpy
    if workers <= 1:
        return [_run_cell(t) for t in tasks]
    import multiprocessing  # only here: a serial run, and every other subcommand, never loads it

    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(_run_cell, tasks)


# ----------------------------------------------------------------------
# output rendering
# ----------------------------------------------------------------------


def _trajectory_csv(traj: Trajectory) -> str:
    header = ["t", "eta_t", *(f"theta_{j + 1}" for j in range(traj.dim)), "boundary_hit"]
    return _csv(header, [np.arange(traj.steps + 1), traj.etas, *traj.thetas.T, traj.boundary_hits])


def _diagnostic_entries(task: CellTask, outcome: CellOutcome) -> list[dict]:
    """One entry per check; a check that did not run records why."""
    mart = outcome.martingale
    records = {
        "drift": outcome.drift,
        "bias_bound": task.bias,
        "martingale_outside_ball": None if mart is None else mart.out,
        "martingale_inside": None if mart is None else mart.inside,
        "occupancy": outcome.occupancy,
    }
    skipped = {"steps": 0, "violations": 0, "worst_slack": None, "hypotheses_met": False}
    return [
        {"check": check, **(dict(skipped, reason=reason) if reason else records[check].entry())}
        for check, reason in _skip_reasons(task).items()
    ]


def _write_cell_diagnostics(cell_dir: Path, task: CellTask, outcome: CellOutcome) -> list[dict]:
    """Write a cell's diagnostics.json and, when drift ran, its exact series to drift.csv."""
    drift = outcome.drift
    if drift is not None:
        _write(cell_dir / "drift.csv", _csv(["t", "lhs", "rhs"], [drift.t, drift.lhs, drift.rhs]))
    entries = _diagnostic_entries(task, outcome)
    _write(cell_dir / "diagnostics.json", _json_text(_scrub(entries)))
    return entries


def _meta_dict(task: CellTask, outcome: CellOutcome) -> dict:
    """The cell's own values; ``config.json`` and ``constants/`` own the rest."""
    checks = task.checks
    meta = {
        "n": task.n,
        "m": task.m,
        "replicate": task.replicate,
        "data_seed": list(task.data.seed),
        "burn_in": task.config.burn_in,
        "delta_tail_max": outcome.delta.tail_max,
        "delta_final": outcome.delta.final,
        "boundary_hit_count": int(np.sum(outcome.trajectory.boundary_hits)),
        "tail_boundary_hits": int(
            np.sum(outcome.trajectory.boundary_hits[outcome.delta.window_start :])
        ),
        "mle": None,
        "sample_checks": None,
    }
    if checks is not None:
        meta["mle"] = {
            "theta": [float(v) for v in checks.mle.theta],
            "residual": checks.mle.residual,
            "clipped": checks.mle.clipped,
        }
        meta["sample_checks"] = {
            "mle_constraint": asdict(checks.mle_check),
            "empirical_constraint": asdict(checks.empirical_check),
            "passed": checks.passed,
        }
    return meta


_SVG_COLORS = ["#d1495b", "#00798c", "#edae49", "#6a4c93", "#2e6f40", "#8c5e58"]


def _svg_chart(series: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    """Minimal line chart of log10 distances against iteration."""
    width, height, pad = 640, 400, 45
    xs_all = np.concatenate([s[1] for s in series])
    ys_all = np.log10(np.maximum(np.concatenate([s[2] for s in series]), 1e-8))
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if y_hi - y_lo < 1e-9:
        y_hi = y_lo + 1.0

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="#444" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="#444" stroke-width="1"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" text-anchor="middle">'
        "iteration t</text>",
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">log10 distance of weighted average'
        "</text>",
    ]
    for i, (label, xs, ys) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(float(np.log10(max(y, 1e-8)))):.2f}"
            for x, y in zip(xs, ys)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * i + 10}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """``deltas`` maps (n, m) to the tail errors of its cells, in replicate order."""

    out_dir: Path
    deltas: dict
    constants: dict


def _prepare_out_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("ok")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


def run_experiment(
    config: RunConfig,
    out_dir,
    master_seed: int = 0,
    workers: int = 1,
    svg: bool = False,
) -> ExperimentResult:
    """Run the full cell grid and persist trajectories, diagnostics and plots."""
    config.validate()
    if not _is_key_word(master_seed):
        raise ConfigError("master seed must be a nonnegative integer below 2**64")
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    out = _prepare_out_dir(out_dir)
    versions = {
        "cdanneal": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    doc = {"config": config.to_dict(), "master_seed": master_seed, "versions": versions}
    _write(out / "config.json", _json_text(doc))

    tasks, constants = _prepare_cells(config, master_seed)
    outcomes = _map_tasks(tasks, workers)
    theta_star = np.asarray(config.theta_star, dtype=float)

    for task, outcome in zip(tasks, outcomes):
        cell_dir = out / "cells" / task.label
        _write(cell_dir / "trajectory.csv", _trajectory_csv(outcome.trajectory))
        _write(cell_dir / "meta.json", _json_text(_scrub(_meta_dict(task, outcome))))
        _write_cell_diagnostics(cell_dir, task, outcome)

    groups: dict = {}  # (n, m) -> its (task, outcome) pairs in replicate order
    for task, outcome in sorted(zip(tasks, outcomes), key=lambda pair: pair[0].replicate):
        groups.setdefault((task.n, task.m), []).append((task, outcome))
    deltas = {key: np.array([o.delta.tail_max for _, o in cell]) for key, cell in groups.items()}
    _write_constants(out, constants)
    series = _write_plot_data(out, groups, theta_star, constants, deltas)
    if svg:
        _write(out / "plots" / "convergence.svg", _svg_chart(series))
    return ExperimentResult(out_dir=out, deltas=deltas, constants=constants)


def _write_constants(out: Path, constants: dict) -> None:
    """One file per (n, m): the theory constants every cell of that (n, m) shares."""
    for (n, m), consts in sorted(constants.items()):
        _write(out / "constants" / f"constants_n{n}_m{m}.json", _json_text(_scrub(consts.to_dict())))


def _write_plot_data(out, groups, theta_star, constants, deltas) -> list:
    """Write the plot CSVs; return the median distance series of each (n, m) for the chart."""
    series, rows = [], []
    for (n, m), cell in sorted(groups.items()):
        first = cell[0][1].trajectory
        ts = np.arange(first.burn_in, first.steps + 1)
        dist = np.stack(
            [np.linalg.norm(o.trajectory.weighted_avgs - theta_star, axis=1) for _, o in cell]
        )
        _write(
            out / "plots" / f"avg_distance_n{n}_m{m}.csv",
            _csv(["t"] + [f"s{task.replicate}" for task, _ in cell], [ts, *dist]),
        )
        series.append((f"n={n} m={m}", ts, _median_quantiles(dist)[0]))
        values = deltas[(n, m)]
        bound = constants[(n, m)].rate_bound(n)
        median, q25, q75 = _median_quantiles(values, (0.25, 0.75))
        rows.append((n, m, median, q25, q75, bound, envelope_coverage(values, bound)))
    _write(
        out / "plots" / "delta_vs_n.csv",
        _csv(["n", "m", "median_delta", "q25", "q75", "rate_bound", "coverage"], list(zip(*rows))),
    )
    return series


def verify_assumptions(config: RunConfig, out_dir=None) -> dict:
    """Compute the model, kernel and schedule assumption report.

    Failures appear as report entries rather than errors, so the report is
    always produced for a valid configuration.
    """
    config.validate()
    fam = config.build_family()
    box = config.build_box()
    theta_star = np.asarray(config.theta_star, dtype=float)
    bounds = compute_grid_bounds(fam, box, theta_star, config.grid_per_axis)
    ident = identifiability_report(fam, box)
    annealing_ok, reason = config.schedule.annealing_verdict()
    constants = _constants_table(config, fam, box, bounds)
    any_constants = next(iter(constants.values()))
    grid_bounds = asdict(bounds)
    grid_bounds["per_axis"] = grid_bounds.pop("grid_per_axis")
    report = {
        "stat_bound": fam.stat_bound,
        "dim": fam.dim,
        "n_states": fam.n_states,
        "identifiability": {
            "min_eigenvalue": ident.min_eigenvalue,
            "ok": ident.ok,
            "probes": IDENTIFIABILITY_PROBES,
        },
        "grid_bounds": grid_bounds,
        "schedule": {**asdict(config.schedule), "annealing_ok": annealing_ok, "reason": reason},
        "smallest_admissible_m": any_constants.smallest_admissible_m,
        "constants": [constants[key].to_dict() for key in sorted(constants)],
    }
    if out_dir is not None:
        out = _prepare_out_dir(out_dir)
        _write(out / "assumptions.json", _json_text(_scrub(report)))
        _write_constants(out, constants)
    return report


@dataclass
class RateSweepResult:
    fits: dict
    ok: bool


def rate_sweep(config: RunConfig, out_dir, master_seed: int = 0, workers: int = 1) -> RateSweepResult:
    """Run the cell grid, fit log median tail error against log n, and judge it.

    The sweep needs at least three sample sizes and ten seeds.  The verdict
    requires, for every chain length m: strictly decreasing medians, a fitted
    slope inside RATE_SLOPE_BAND, and across chain lengths a slope spread
    below SLOPE_GAP_TOL.  ``rate/rate_fit.json`` holds only what the fits and
    the verdict add to ``plots/delta_vs_n.csv``, the one per-(n, m) table.
    """
    config.validate()
    if len(config.n_values) < 3:
        raise ConfigError("rate sweep needs at least 3 distinct sample sizes")
    if len(config.seeds) < 10:
        raise ConfigError("rate sweep needs at least 10 seeds")
    run = run_experiment(config, out_dir, master_seed=master_seed, workers=workers)

    fits, fit_doc = {}, {}
    for m in sorted(int(v) for v in config.m_values):
        fit = fits[m] = rate_fit({n: run.deltas[(n, m)] for n in config.n_values})
        fit_doc[str(m)] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residuals": fit.residuals,
            "converging": fit.converging,
            "monotone_medians": bool(np.all(np.diff(fit.medians) < 0)),
            "slope_in_band": RATE_SLOPE_BAND[0] <= fit.slope <= RATE_SLOPE_BAND[1],
        }
    slopes = [fit.slope for fit in fits.values()]
    gap = max(slopes) - min(slopes)
    ok = gap < SLOPE_GAP_TOL and all(
        doc["monotone_medians"] and doc["slope_in_band"] for doc in fit_doc.values()
    )
    fit_doc["verdict"] = {"slope_gap": gap, "ok": ok}
    _write(run.out_dir / "rate" / "rate_fit.json", _json_text(_scrub(fit_doc)))
    return RateSweepResult(fits=fits, ok=ok)


# ----------------------------------------------------------------------
# diagnose: recheck stored trajectories
# ----------------------------------------------------------------------


@dataclass
class DiagnoseResult:
    out_dir: Path
    cells: list
    ok: bool


def _read_stored_config(out: Path) -> tuple[RunConfig, int]:
    path = out / "config.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "config" not in doc:
        raise ConfigError(f'{path} holds no "config" object')
    master_seed = doc.get("master_seed", 0)
    if not _is_key_word(master_seed):
        raise ConfigError(f"{path} holds no master_seed that is a nonnegative integer below 2**64")
    return RunConfig.from_dict(doc["config"]), master_seed


def _read_cell(cell_dir: Path, task: CellTask) -> Trajectory:
    """The stored trajectory of one cell, refused unless it is the task's.

    ``meta.json`` must record the task's n, m, replicate, data seed and
    burn-in.  ``trajectory.csv`` must hold iterations + 1 rows, every
    iterate finite and inside the box, and the ``eta_t`` column of the
    config's schedule: ``repr`` round-trips each rate, so a run that
    ``cdanneal`` wrote matches it exactly.  Its ``boundary_hit`` column must
    be what :func:`boundary_layer_contains` gives at each row's theta_t and
    eta_t, as 0 or 1, and a frozen step must leave theta unchanged, bit for
    bit.
    """
    expected = {
        "n": task.n,
        "m": task.m,
        "replicate": task.replicate,
        "data_seed": list(task.data.seed),
        "burn_in": task.config.burn_in,
    }
    meta_path, traj_path = cell_dir / "meta.json", cell_dir / "trajectory.csv"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {meta_path}: {exc}") from exc
    meta = meta if isinstance(meta, dict) else {}
    wrong = sorted(key for key, want in expected.items() if meta.get(key) != want)
    if wrong:
        raise ConfigError(f"{meta_path} disagrees with config.json on {', '.join(wrong)}")
    try:
        with open(traj_path, "r", encoding="utf-8") as fh:
            idx = {name: i for i, name in enumerate(fh.readline().strip().split(","))}
        theta_columns = [idx[f"theta_{j + 1}"] for j in range(task.fam.dim)]
        columns = [idx["eta_t"], idx["boundary_hit"], *theta_columns]
        with warnings.catch_warnings():  # a file without rows is refused by the row count below
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(traj_path, delimiter=",", skiprows=1, ndmin=2, usecols=columns)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read {traj_path}: {exc}") from exc
    steps, burn_in = task.config.iterations, task.config.burn_in
    if len(table) != steps + 1:
        raise ConfigError(
            f"{traj_path} has {len(table)} rows, expected iterations + 1 = {steps + 1}"
        )
    thetas, etas = table[:, 2:], table[:, 0]
    outside = np.flatnonzero(~(np.abs(thetas).max(axis=1) <= task.box.half_width))
    if outside.size:
        raise ConfigError(
            f"{traj_path} row t={outside[0]}: theta is not finite or lies outside the box "
            f"[-{task.box.half_width!r}, {task.box.half_width!r}]"
        )
    rates = task.config.schedule.rates(steps + 1)
    off_schedule = np.flatnonzero(etas != rates)
    if off_schedule.size:
        t = off_schedule[0]
        raise ConfigError(
            f"{traj_path} row t={t}: eta_t {float(etas[t])!r} differs from the config's "
            f"schedule, {float(rates[t])!r}"
        )
    hits = boundary_layer_contains(task.box, thetas, etas, task.fam.stat_bound, task.fam.dim)
    forged = np.flatnonzero(table[:, 1] != hits)
    if forged.size:
        t = forged[0]
        raise ConfigError(
            f"{traj_path} row t={t}: boundary_hit {table[t, 1]:g} disagrees with the "
            f"boundary-layer guard, which gives {int(hits[t])} at that row's theta_t and eta_t"
        )
    bits = thetas.view(np.uint64)
    moved = np.flatnonzero(hits[:-1] & np.any(bits[1:] != bits[:-1], axis=1))
    if moved.size:
        t = moved[0]
        raise ConfigError(
            f"{traj_path} row t={t}: theta moves at a frozen step (boundary_hit 1); "
            f"row t={t + 1} must repeat it bit for bit"
        )
    return Trajectory(
        thetas=thetas,
        etas=etas,
        boundary_hits=hits,
        weighted_avgs=weighted_average_series(thetas, etas, burn_in),
        burn_in=burn_in,
        m=task.m,
    )


def diagnose_run(out_dir) -> DiagnoseResult:
    """Re-run the exact per-step checks against trajectories stored on disk.

    The cells are derived from ``config.json`` exactly as ``run`` derives
    them, so the data samples, constants and sample constraints are
    rebuilt from the recorded seeds; fresh diagnostics are written next to
    each trajectory.  A stored run whose cells, ``meta.json`` files or
    trajectory lengths disagree with its configuration is refused with
    ``ConfigError``.  A cell fails when any hypothesis-met check records a
    violation.
    """
    out = Path(out_dir)
    config, master_seed = _read_stored_config(out)
    tasks, _ = _prepare_cells(replace(config, exact_step_checks=True), master_seed)
    tasks.sort(key=lambda task: task.label)

    cells_dir = out / "cells"
    stored = {p.name for p in cells_dir.iterdir() if p.is_dir()} if cells_dir.is_dir() else set()
    listed = {task.label for task in tasks}
    if stored != listed:
        raise ConfigError(
            f"cells under {cells_dir} do not match config.json: "
            f"missing {sorted(listed - stored)}, not listed {sorted(stored - listed)}"
        )
    trajectories = [_read_cell(cells_dir / task.label, task) for task in tasks]

    cells = []
    for task, traj in zip(tasks, trajectories):
        entries = _write_cell_diagnostics(cells_dir / task.label, task, evaluate_cell(task, traj))
        violations = sum(e["violations"] for e in entries)
        cells.append({"cell": task.label, "violations": violations, "ok": violations == 0})
    all_ok = all(cell["ok"] for cell in cells)
    _write(out / "diagnose_summary.json", _json_text(_scrub({"cells": cells, "ok": all_ok})))
    return DiagnoseResult(out_dir=out, cells=cells, ok=all_ok)
