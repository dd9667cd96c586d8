"""Experiment orchestration: seeded runs, diagnostics, persistence.

A run is a grid of cells (sample size, chain steps, replicate seed).  Each
cell samples data, runs the guarded CD iteration, measures the tail error
of the weighted average and, when requested, re-verifies the per-step
drift, super-martingale and bias bounds exactly.  ``run`` and ``diagnose``
share one pipeline: ``_prepare_cells`` builds every cell's inputs from the
configuration (the data once per sample size and replicate, the sample
checks and their MLE once per cell through ``oracle.check_sample``) and
``evaluate_cell`` checks a trajectory, whether it was just computed or read
back from disk.  All outputs are plain CSV and JSON written with round-trip
float formatting, so a rerun with the same configuration and master seed is
byte identical.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import platform
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig
from .diagnostics import (
    BiasGridReport,
    DriftReport,
    MartingaleReport,
    OccupancyReport,
    bias_bound_grid,
    drift_report,
    envelope_coverage,
    martingale_report,
    occupancy_report,
    rate_fit,
)
from .kernel import m_step_stat_table
from .learner import (
    RNG_STREAM_DATA,
    Schedule,
    TailDistance,
    Trajectory,
    delta_n,
    run_cd,
    weighted_average_series,
)
from .model import (
    IDENTIFIABILITY_PROBES,
    FiniteExpFamily,
    ParamBox,
    _in_blocks,
    identifiability_report,
    mean_parameter,
)
from .oracle import (
    DataSample,
    MleNonexistenceError,
    SampleChecks,
    TheoryConstants,
    _scrub,
    assemble_constants,
    check_sample,
    compute_grid_bounds,
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
    fam: FiniteExpFamily
    box: ParamBox
    schedule: Schedule
    data: DataSample
    data_seed: list
    n: int
    m: int
    replicate: int
    master_seed: int
    steps: int
    burn_in: int
    theta_init: np.ndarray | None
    theta_star: np.ndarray
    tail_fraction: float
    constants: TheoryConstants
    checks: SampleChecks | None
    exact_step_checks: bool
    grid: np.ndarray
    stat_table: np.ndarray
    mean_table: np.ndarray

    @property
    def label(self) -> str:
        return f"n{self.n}_m{self.m}_s{self.replicate}"

    @property
    def data_id(self) -> str:
        return f"n{self.n}-ms{self.master_seed}-r{self.replicate}"


@dataclass
class CellOutcome:
    """What evaluating a cell's trajectory computed; the cell itself is its ``CellTask``."""

    trajectory: Trajectory
    delta: TailDistance
    drift: DriftReport | None
    martingale: MartingaleReport | None
    occupancy: OccupancyReport | None
    bias: BiasGridReport | None


def _constants_table(config: RunConfig, fam, box, bounds) -> dict:
    return {
        (int(n), int(m)): assemble_constants(fam, box, bounds, int(m), int(n), config.gamma)
        for n in config.n_values
        for m in config.m_values
    }


def _prepare_cells(
    config: RunConfig, master_seed: int, exact_checks: bool
) -> tuple[list[CellTask], dict]:
    """Every cell's inputs, in run order, and the (n, m) constants table.

    The grid tables are shared by all cells and the data by the cells of one
    (n, replicate); each cell's sample checks, its MLE included, come from
    ``check_sample``.  A cell whose sample has no MLE gets no checks.
    """
    fam = config.build_family()
    box = config.build_box()
    theta_star = np.asarray(config.theta_star, dtype=float)
    theta_init = None if config.theta_init is None else np.asarray(config.theta_init, dtype=float)
    grid = box.grid(config.grid_per_axis)
    bounds = compute_grid_bounds(fam, box, theta_star, config.grid_per_axis)
    mean_table = _in_blocks(fam, grid, lambda t: mean_parameter(fam, t))
    stat_tables = {int(m): m_step_stat_table(fam, grid, int(m)) for m in config.m_values}
    constants = _constants_table(config, fam, box, bounds)

    tasks = []
    for n in sorted(int(v) for v in config.n_values):
        for rep in sorted(int(s) for s in config.seeds):
            data_seed = [master_seed, rep, n, RNG_STREAM_DATA]
            data = sample_iid(fam, theta_star, n, seed=data_seed)
            for m in sorted(int(v) for v in config.m_values):
                try:
                    checks = check_sample(
                        fam, box, data, theta_star, m, config.gamma, grid, stat_table=stat_tables[m]
                    )
                except MleNonexistenceError:
                    checks = None
                tasks.append(
                    CellTask(
                        fam=fam,
                        box=box,
                        schedule=config.schedule,
                        data=data,
                        data_seed=data_seed,
                        n=n,
                        m=m,
                        replicate=rep,
                        master_seed=master_seed,
                        steps=int(config.iterations),
                        burn_in=int(config.burn_in),
                        theta_init=theta_init,
                        theta_star=theta_star,
                        tail_fraction=float(config.tail_fraction),
                        constants=constants[(n, m)],
                        checks=checks,
                        exact_step_checks=exact_checks,
                        grid=grid,
                        stat_table=stat_tables[m],
                        mean_table=mean_table,
                    )
                )
    return tasks, constants


def evaluate_cell(task: CellTask, traj: Trajectory) -> CellOutcome:
    """Tail error and, when the task asks for them, the exact per-step checks."""
    drift = mart = occ = bias = None
    checks = task.checks
    if task.exact_step_checks and checks is not None:
        drift = drift_report(task.fam, task.box, traj, task.data, task.constants, checks)
        if checks.passed:
            bias = bias_bound_grid(
                task.fam,
                task.data,
                task.constants,
                checks,
                task.grid,
                stat_table=task.stat_table,
                mean_table=task.mean_table,
            )
        if task.constants.drift_coeff > 0:
            mart = martingale_report(task.fam, task.box, traj, task.data, task.constants, checks)
            occ = occupancy_report(traj, task.constants, checks.mle.theta)
    return CellOutcome(
        trajectory=traj,
        delta=delta_n(traj, task.theta_star, task.tail_fraction),
        drift=drift,
        martingale=mart,
        occupancy=occ,
        bias=bias,
    )


def _run_cell(task: CellTask) -> CellOutcome:
    traj = run_cd(
        task.fam,
        task.box,
        task.schedule,
        task.data,
        m=task.m,
        steps=task.steps,
        burn_in=task.burn_in,
        master_seed=task.master_seed,
        replicate=task.replicate,
        theta_init=task.theta_init,
    )
    return evaluate_cell(task, traj)


def _map_tasks(tasks: list[CellTask], workers: int) -> list[CellOutcome]:
    workers = min(workers, len(tasks))  # an idle worker would still start and import numpy
    if workers <= 1:
        return [_run_cell(t) for t in tasks]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(_run_cell, tasks)


# ----------------------------------------------------------------------
# output rendering
# ----------------------------------------------------------------------


def _trajectory_csv(traj: Trajectory, theta_star: np.ndarray, mle_theta) -> str:
    d, rows, tail = traj.dim, traj.steps + 1, slice(traj.burn_in, None)
    avgs = np.full((rows, d), np.nan)
    avgs[tail] = traj.weighted_avgs
    dist_to_mle = np.full(rows, np.nan)
    dist_to_true = np.full(rows, np.nan)
    if mle_theta is not None:
        dist_to_mle[tail] = np.linalg.norm(traj.weighted_avgs - mle_theta, axis=1)
    dist_to_true[tail] = np.linalg.norm(traj.weighted_avgs - theta_star, axis=1)
    header = (
        ["t", "eta_t"]
        + [f"theta_{j + 1}" for j in range(d)]
        + ["boundary_hit"]
        + [f"thetabar_{j + 1}" for j in range(d)]
        + ["dist_to_mle", "dist_to_true"]
    )
    columns = [np.arange(rows), traj.etas, *traj.thetas.T, traj.boundary_hits, *avgs.T]
    return _csv(header, columns + [dist_to_mle, dist_to_true])


def _martingale_entry(report: MartingaleReport, which: str) -> dict:
    cond = getattr(report, f"cond_mean_{which}")
    active = getattr(report, f"active_{which}")
    worst = None
    if cond is not None and bool(np.any(active)):
        # slack is the negated conditional mean; positive means healthy.
        worst = float(-np.max(cond[active]))
    return {
        "steps": int(np.sum(active)),
        "violations": getattr(report, f"violations_{which}"),
        "worst_slack": worst,
        "hypotheses_met": report.hypotheses_met,
    }


def _diagnostic_entries(task: CellTask, outcome: CellOutcome) -> list[dict]:
    """One entry per check; a check that did not run records why."""
    drift, bias, mart, occ = outcome.drift, outcome.bias, outcome.martingale, outcome.occupancy
    no_drift = "drift coefficient not positive or skipped"
    table = [
        (
            "drift",
            "skipped" if task.checks is not None else "mle does not exist",
            None if drift is None else {
                "steps": len(drift.t),
                "violations": drift.violations,
                "worst_slack": drift.worst_slack,
                "hypotheses_met": drift.hypotheses_met,
            },
        ),
        (
            "bias_bound",
            "sample constraints unverified or skipped",
            None if bias is None else {
                "steps": len(bias.lhs),
                "violations": bias.violations,
                "worst_slack": bias.worst_slack,
                "hypotheses_met": True,
            },
        ),
        (
            "martingale_outside_ball",
            no_drift,
            None if mart is None else _martingale_entry(mart, "out"),
        ),
        ("martingale_inside", no_drift, None if mart is None else _martingale_entry(mart, "in")),
        (
            "occupancy",
            no_drift,
            None if occ is None else {
                "steps": outcome.trajectory.steps + 1,
                "violations": 0 if occ.passes() else 1,
                "worst_slack": occ.fraction_tail_min - occ.threshold,
                "hypotheses_met": True,
                "threshold": occ.threshold,
                "fraction_full": occ.fraction_full,
                "fraction_tail_min": occ.fraction_tail_min,
            },
        ),
    ]
    skipped = {"steps": 0, "violations": 0, "worst_slack": None, "hypotheses_met": False}
    return [
        {"check": check, **(entry if entry is not None else dict(skipped, reason=reason))}
        for check, reason, entry in table
    ]


def _write_cell_diagnostics(cell_dir: Path, task: CellTask, outcome: CellOutcome) -> list[dict]:
    """Write a cell's diagnostics.json and the per-step CSV of every check that ran."""
    drift, mart = outcome.drift, outcome.martingale
    if drift is not None:
        _write(
            cell_dir / "drift.csv",
            _csv(
                ["t", "h", "lhs", "rhs", "slack", "in_layer", "in_ball"],
                [drift.t, drift.h, drift.lhs, drift.rhs, drift.slack, drift.in_layer, drift.in_ball],
            ),
        )
    if mart is not None:
        missing = np.full(len(mart.t), np.nan)
        conds = [missing if c is None else c for c in (mart.cond_mean_out, mart.cond_mean_in)]
        _write(
            cell_dir / "martingale.csv",
            _csv(
                ["t", "increment_out", "increment_in", "active_out", "active_in",
                 "cond_mean_out", "cond_mean_in"],
                [mart.t, mart.increment_out, mart.increment_in, mart.active_out, mart.active_in,
                 *conds],
            ),
        )
    entries = _diagnostic_entries(task, outcome)
    _write(cell_dir / "diagnostics.json", _json_text(_scrub(entries)))
    return entries


def _meta_dict(config: RunConfig, master_seed: int, task: CellTask, outcome: CellOutcome) -> dict:
    checks = task.checks
    meta = {
        "n": task.n,
        "m": task.m,
        "replicate": task.replicate,
        "master_seed": master_seed,
        "data_seed": list(task.data_seed),
        "data_id": task.data_id,
        "iterations": task.steps,
        "burn_in": task.burn_in,
        "gamma": config.gamma,
        "tail_fraction": config.tail_fraction,
        "half_width": config.half_width,
        "theta_star": [float(v) for v in task.theta_star],
        "model": config.model,
        "schedule": asdict(task.schedule),
        "delta_tail_max": outcome.delta.tail_max,
        "delta_final": outcome.delta.final,
        "boundary_hit_count": int(np.sum(outcome.trajectory.boundary_hits)),
        "tail_boundary_hits": int(
            np.sum(outcome.trajectory.boundary_hits[outcome.delta.window_start :])
        ),
        "constants": task.constants.to_dict(),
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
            key: {
                "passed": check.passed,
                "statistic": check.statistic,
                "bound": check.bound,
                "margin": check.margin,
            }
            for key, check in (
                ("mle_constraint", checks.mle_check),
                ("empirical_constraint", checks.empirical_check),
            )
        }
        meta["sample_checks"]["passed"] = checks.passed
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
    outcomes: list


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
    if master_seed < 0:
        raise ConfigError("master seed must be nonnegative")
    out = _prepare_out_dir(out_dir)
    versions = {
        "cdanneal": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    doc = {"config": config.to_dict(), "master_seed": master_seed, "versions": versions}
    _write(out / "config.json", _json_text(doc))

    tasks, constants = _prepare_cells(config, master_seed, config.exact_step_checks)
    outcomes = _map_tasks(tasks, workers)
    theta_star = tasks[0].theta_star

    for task, outcome in zip(tasks, outcomes):
        cell_dir = out / "cells" / task.label
        mle_theta = task.checks.mle.theta if task.checks is not None else None
        _write(cell_dir / "trajectory.csv", _trajectory_csv(outcome.trajectory, theta_star, mle_theta))
        _write(cell_dir / "meta.json", _json_text(_scrub(_meta_dict(config, master_seed, task, outcome))))
        _write_cell_diagnostics(cell_dir, task, outcome)

    groups: dict = {}  # (n, m) -> its (task, outcome) pairs in replicate order
    for task, outcome in sorted(zip(tasks, outcomes), key=lambda pair: pair[0].replicate):
        groups.setdefault((task.n, task.m), []).append((task, outcome))
    deltas = {key: np.array([o.delta.tail_max for _, o in cell]) for key, cell in groups.items()}
    _write_constraint_report(out, tasks)
    series = _write_plot_data(out, groups, theta_star, constants, deltas)
    if svg:
        _write(out / "plots" / "convergence.svg", _svg_chart(series))
    return ExperimentResult(out_dir=out, deltas=deltas, constants=constants, outcomes=outcomes)


def _write_constraint_report(out: Path, tasks: list[CellTask]) -> None:
    rows = [
        (
            task.replicate,
            task.n,
            task.m,
            name,
            0 if check is None else int(check.passed),
            math.nan if check is None else check.margin,
        )
        for task in tasks
        for name, check in (
            ("mle_deviation", None if task.checks is None else task.checks.mle_check),
            ("empirical_process", None if task.checks is None else task.checks.empirical_check),
        )
    ]
    _write(
        out / "constraint_checks.csv",
        _csv(["seed", "n", "m", "check", "pass", "margin"], list(zip(*rows))),
    )


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
        series.append((f"n={n} m={m}", ts, np.median(dist, axis=0)))
        values = deltas[(n, m)]
        bound = constants[(n, m)].rate_bound(n)
        q25, q75 = np.quantile(values, 0.25), np.quantile(values, 0.75)
        rows.append((n, m, np.median(values), q25, q75, bound, envelope_coverage(values, bound)))
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
    report = {
        "stat_bound": fam.stat_bound,
        "dim": fam.dim,
        "n_states": fam.n_states,
        "identifiability": {
            "min_eigenvalue": ident.min_eigenvalue,
            "ok": ident.ok,
            "probes": IDENTIFIABILITY_PROBES,
        },
        "grid_bounds": {
            "min_fisher_eig": bounds.min_fisher_eig,
            "divergence_lipschitz": bounds.divergence_lipschitz,
            "mixing_bound": bounds.mixing_bound,
            "kernel_lipschitz": bounds.kernel_lipschitz,
            "per_axis": bounds.grid_per_axis,
            "half_width": bounds.half_width,
        },
        "schedule": {**asdict(config.schedule), "annealing_ok": annealing_ok, "reason": reason},
        "smallest_admissible_m": any_constants.smallest_admissible_m,
        "constants": [constants[key].to_dict() for key in sorted(constants)],
    }
    if out_dir is not None:
        out = _prepare_out_dir(out_dir)
        _write(out / "assumptions.json", _json_text(_scrub(report)))
        for (n, m), consts in sorted(constants.items()):
            _write(out / "constants" / f"constants_n{n}_m{m}.json", _json_text(_scrub(consts.to_dict())))
    return report


@dataclass
class RateSweepResult:
    out_dir: Path
    fits: dict
    deltas: dict
    ok: bool
    verdict: dict


def rate_sweep(config: RunConfig, out_dir, master_seed: int = 0, workers: int = 1) -> RateSweepResult:
    """Run the cell grid, fit log median tail error against log n, and judge it.

    The sweep needs at least three sample sizes and ten seeds.  The verdict
    requires, for every chain length m: strictly decreasing medians, a fitted
    slope inside RATE_SLOPE_BAND, and across chain lengths a slope spread
    below SLOPE_GAP_TOL.
    """
    config.validate()
    if len(config.n_values) < 3:
        raise ConfigError("rate sweep needs at least 3 distinct sample sizes")
    if len(config.seeds) < 10:
        raise ConfigError("rate sweep needs at least 10 seeds")
    run = run_experiment(config, out_dir, master_seed=master_seed, workers=workers)
    out = run.out_dir

    fits = {}
    verdict = {"per_m": {}, "slope_gap": None, "ok": False}
    slopes = {}
    for m in sorted(int(v) for v in config.m_values):
        deltas_by_n = {n: run.deltas[(n, m)] for n in sorted(int(v) for v in config.n_values)}
        fit = rate_fit(deltas_by_n, {n: run.constants[(n, m)].rate_bound(n) for n in deltas_by_n})
        fits[m] = fit
        slopes[m] = fit.slope
        medians = fit.medians
        monotone = bool(np.all(np.diff(medians) < 0))
        in_band = RATE_SLOPE_BAND[0] <= fit.slope <= RATE_SLOPE_BAND[1]
        verdict["per_m"][m] = {
            "slope": fit.slope,
            "monotone_medians": monotone,
            "slope_in_band": in_band,
            "medians": {int(n): float(v) for n, v in zip(fit.sizes, medians)},
            "coverage": fit.coverage,
        }
    gap = max(slopes.values()) - min(slopes.values()) if len(slopes) > 1 else 0.0
    verdict["slope_gap"] = gap
    verdict["ok"] = all(
        v["monotone_medians"] and v["slope_in_band"] for v in verdict["per_m"].values()
    ) and gap < SLOPE_GAP_TOL

    rows = [
        (n, m, med, run.constants[(n, m)].rate_bound(n), fits[m].coverage["per_size"][n])
        for m in sorted(fits)
        for n, med in zip(fits[m].sizes.astype(int).tolist(), fits[m].medians)
    ]
    _write(
        out / "rate" / "rate_summary.csv",
        _csv(["n", "m", "median_delta", "rate_bound", "coverage"], list(zip(*rows))),
    )
    fit_doc = {
        str(m): {
            "slope": fits[m].slope,
            "intercept": fits[m].intercept,
            "medians": {str(int(n)): float(v) for n, v in zip(fits[m].sizes, fits[m].medians)},
            "residuals": [float(r) for r in fits[m].residuals],
            "converging": fits[m].converging,
            "coverage": fits[m].coverage,
        }
        for m in sorted(fits)
    }
    fit_doc["verdict"] = verdict
    _write(out / "rate" / "rate_fit.json", _json_text(_scrub(fit_doc)))
    return RateSweepResult(out_dir=out, fits=fits, deltas=run.deltas, ok=verdict["ok"], verdict=verdict)


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
    if not isinstance(master_seed, int) or master_seed < 0:
        raise ConfigError(f"{path} holds no nonnegative integer master_seed")
    return RunConfig.from_dict(doc["config"]), master_seed


def _read_cell(cell_dir: Path, task: CellTask) -> Trajectory:
    """The stored trajectory of one cell, refused unless it is the task's.

    ``meta.json`` must record the task's n, m, replicate, data seed and
    burn-in, and ``trajectory.csv`` must hold iterations + 1 rows.
    """
    expected = {
        "n": task.n,
        "m": task.m,
        "replicate": task.replicate,
        "data_seed": list(task.data_seed),
        "burn_in": task.burn_in,
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
            rows = [line.strip().split(",") for line in fh if line.strip()]
        theta_cols = [idx[f"theta_{j + 1}"] for j in range(task.fam.dim)]
        thetas = np.array([[float(r[i]) for i in theta_cols] for r in rows])
        etas = np.array([float(r[idx["eta_t"]]) for r in rows])
        hits = np.array([bool(int(r[idx["boundary_hit"]])) for r in rows])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"cannot read {traj_path}: {exc}") from exc
    if len(rows) != task.steps + 1:
        raise ConfigError(
            f"{traj_path} has {len(rows)} rows, expected iterations + 1 = {task.steps + 1}"
        )
    return Trajectory(
        thetas=thetas,
        etas=etas,
        boundary_hits=hits,
        weighted_avgs=weighted_average_series(thetas, etas, task.burn_in),
        burn_in=task.burn_in,
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
    tasks, _ = _prepare_cells(config, master_seed, True)
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
        violations = sum(e["violations"] for e in entries if e.get("hypotheses_met"))
        cells.append({"cell": task.label, "violations": violations, "ok": violations == 0})
    all_ok = all(cell["ok"] for cell in cells)
    _write(out / "diagnose_summary.json", _json_text(_scrub({"cells": cells, "ok": all_ok})))
    return DiagnoseResult(out_dir=out, cells=cells, ok=all_ok)
