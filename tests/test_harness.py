"""Configuration round trips, output schemas, determinism and CLI wiring."""

import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import platform
import re
import os
import pickle
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cdanneal
import cdanneal.cli as cli
from cdanneal import harness, oracle
from cdanneal.config import MAX_GRID_POINTS, ConfigError, RunConfig, default_config
from cdanneal.harness import (
    DiagnoseResult,
    diagnose_run,
    rate_sweep,
    run_experiment,
    verify_assumptions,
)
from cdanneal.kernel import m_step_stat_rows
from cdanneal.learner import Schedule
from cdanneal.model import mean_parameter
from test_readme import BLOCKS as README_BLOCKS


# Three states on one coordinate: enumerable, but not {0,1}^p, so random-scan
# Gibbs cannot resample it.
THREE_STATE_MODEL = {"states": [[0], [1], [2]], "phi": [[0], [1], [2]]}
# Two states for one binary coordinate, but the same state twice.
DUPLICATE_STATE_MODEL = {"states": [[0], [0]], "phi": [[0.0], [1.0]]}
# FVBM p = 4 has dim 10, so 9 points per axis would be 9**10 (about 3.5e9).
HUGE_GRID = {"model": {"type": "fvbm", "p": 4}, "theta_star": [0.0] * 10, "grid_per_axis": 9}
# FVBM p = 6 has dim 21, so even 2 points per axis is 2**21 > MAX_GRID_POINTS.
P6_GRID = {"model": {"type": "fvbm", "p": 6}, "theta_star": [0.0] * 21, "grid_per_axis": 2}
# Grid 3 over half-width 1e-13 puts adjacent grid points 1e-13 apart, closer
# than the 1e-12 below which two parameter points count as one.
COINCIDENT_GRID = {"theta_star": [0.0, 0.0, 0.0], "half_width": 1e-13, "grid_per_axis": 3}
# All of {0,1}^13 with phi = the first coordinate: one parameter, 3 grid points,
# but 8192 states, so every dense Gibbs kernel would take 512 MB.
SITES_13 = [list(x) for x in itertools.product((0, 1), repeat=13)]
OVER_STATE_CAP = {
    "model": {"states": SITES_13, "phi": [[x[0]] for x in SITES_13]},
    "theta_star": [0.3],
    "grid_per_axis": 3,
}

# FVBM p = 3 with a far-off truth: seed 2's n = 10 sample, counts [0, 0, 1, 0, 0, 0, 0, 9],
# sends Newton after a maximizer at infinity until the Fisher matrix is singular.
SINGULAR_NEWTON = {
    "model": {"type": "fvbm", "p": 3},
    "theta_star": [-3.042, 1.328, 4.694, 2.409, 3.113, -2.291],
    "half_width": 6.0,
    "n_values": [10, 1000],
    "m_values": [1, 1000],
    "schedule": {"kind": "harmonic", "eta0": 1e-9},
    "iterations": 2,
    "burn_in": 1,
    "seeds": [2, 3],
    "grid_per_axis": 3,
}
# FVBM p = 3 at the benchmark's truth with m = 80: the drift coefficient is
# positive, so every check of every cell applies.
P3_ADMISSIBLE = {
    "model": {"type": "fvbm", "p": 3},
    "theta_star": [0.5, 0.2, 1.0, 0.3, 0.1, 0.5],
    "half_width": 1.25,
    "grid_per_axis": 4,
    "m_values": [80],
    "schedule": {"kind": "harmonic", "eta0": 1.0},
    "n_values": [1000, 10000],
    "seeds": [0, 1],
    "iterations": 1000,
    "burn_in": 50,
}

# The keys of every meta.json: the five diagnose checks against config.json, then the cell's own values.
META_KEYS = {
    "n", "m", "replicate", "data_seed", "burn_in",
    "delta_tail_max", "delta_final", "boundary_hit_count", "tail_boundary_hits", "mle", "sample_checks",
}
# How diagnose refuses a boundary_hit the guard contradicts, and a frozen step that moves.
GUARD_SAYS = "disagrees with the boundary-layer guard, which gives"
FROZEN_MOVES = "theta moves at a frozen step (boundary_hit 1);"
# The fields of every diagnostics.json record; occupancy adds OCCUPANCY_KEYS when it runs.
RECORD_KEYS = {"steps", "violations", "worst_slack", "hypotheses_met"}
OCCUPANCY_KEYS = {"threshold", "fraction_full", "fraction_tail_min"}


def small_config(**overrides) -> RunConfig:
    base = dict(
        n_values=[60],
        m_values=[1],
        seeds=[0, 1],
        iterations=40,
        burn_in=5,
        schedule=Schedule("harmonic", 2.0),
        grid_per_axis=5,
    )
    base.update(overrides)
    config = RunConfig(**base)
    config.validate()
    return config


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestRunConfig:
    def test_default_reproduces_headline_experiment(self):
        config = default_config()
        assert config.model == {"type": "fvbm", "p": 2}
        assert config.theta_star == [0.5, 1.0, 0.5]
        assert config.n_values == [100, 1000, 10000]
        assert config.m_values == [2, 4]
        assert config.iterations == 1000
        assert config.burn_in == 50
        assert config.schedule.kind == "harmonic"
        assert len(config.seeds) == 20

    def test_json_round_trip_is_identity(self):
        config = small_config()
        again = RunConfig.from_json(config.to_json())
        assert again.to_dict() == config.to_dict()
        third = RunConfig.from_json(again.to_json())
        assert third.to_dict() == again.to_dict()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gamma": 0.5},
            {"gamma": 0.0},
            {"iterations": 5, "burn_in": 5},
            {"n_values": []},
            {"n_values": [0]},
            {"m_values": [0]},
            {"seeds": []},
            {"seeds": [1, 1]},
            {"theta_star": [3.0, 0.0, 0.0]},
            {"theta_star": [0.1, 0.2]},
            {"tail_fraction": 0.0},
            {"grid_per_axis": 1},
            {"theta_init": [4.0, 0.0, 0.0]},
            {"grid_per_axis": "3"},
            {"grid_per_axis": 3.7},
            {"gamma": "0.4"},
            {"theta_init": "abc"},
            {"iterations": 20.9},
            {"iterations": True, "burn_in": 0},
            {"seeds": [0.5]},
            {"m_values": [2.5]},
            {"n_values": [60.5]},
            {"exact_step_checks": "no"},
            {"model": {"type": "fvbm", "p": 2.5}},
            {"model": DUPLICATE_STATE_MODEL, "theta_star": [0.3]},
            {"n_values": [60, 60]},
            {"m_values": [2, 4, 2]},
            {"seeds": [0, 2**64]},
            COINCIDENT_GRID,
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"not_a_field": 1})

    def test_bad_schedule_rejected(self):
        doc = small_config().to_dict()
        doc["schedule"] = {"kind": "power", "eta0": 1.0, "exponent": 0.4}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "fields", [{"eta0": "2.0"}, {"eta0": None}, {"eta0": [1.0]}, {"eta0": True}, {"eta": 2.0}]
    )
    def test_mistyped_schedule_rejected(self, fields):
        doc = small_config().to_dict()
        doc["schedule"].update(fields)
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_model_gibbs_cannot_sample_rejected(self):
        with pytest.raises(ConfigError, match="Gibbs"):
            small_config(model=THREE_STATE_MODEL, theta_star=[0.3])

    def test_grid_over_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            small_config(**HUGE_GRID)

    def test_grid_budget_is_inclusive(self):
        # dim 1, so grid_per_axis is the point count; no grid is built
        fvbm1 = {"model": {"type": "fvbm", "p": 1}, "theta_star": [0.3]}
        small_config(**fvbm1, grid_per_axis=MAX_GRID_POINTS)
        with pytest.raises(ConfigError, match="budget"):
            small_config(**fvbm1, grid_per_axis=MAX_GRID_POINTS + 1)

    def test_limits_of_seeds_and_grid_spacing_are_inclusive(self):
        small_config(seeds=[0, 2**64 - 1])
        # grid 3 over [-w, w] puts adjacent points w apart; below 1e-12 they coincide
        small_config(**dict(COINCIDENT_GRID, half_width=1e-12))
        with pytest.raises(ConfigError, match="coincide"):
            small_config(**dict(COINCIDENT_GRID, half_width=0.99e-12))

    def test_box_whose_probabilities_underflow_rejected(self):
        # p = 2: at the corner theta = (w, w, w) state 00 has log p = -3w, which
        # drops below the log of the smallest normal double (-708.4) once w > 236.13.
        small_config(half_width=236.0)
        with pytest.raises(ConfigError, match="underflows"):
            small_config(half_width=237.0)

    def test_generic_model_document(self):
        config = RunConfig(
            model={"states": [[0], [1]], "phi": [[0.0], [1.0]]},
            theta_star=[0.3],
            half_width=2.0,
            n_values=[20],
            m_values=[1],
            seeds=[0],
            iterations=10,
            burn_in=0,
            grid_per_axis=3,
        )
        config.validate()
        assert config.build_family().dim == 1


@pytest.fixture(scope="module")
def recipe():
    """The namespace of README's recipe for the values 0.12.0 stopped writing, after it ran."""
    (block,) = [b for b in README_BLOCKS if "def dropped_columns" in b]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md recipe", "exec"), namespace)
    return namespace


@pytest.fixture(scope="module")
def long_chain_dir(tmp_path_factory):
    """One cell like the benchmark's long chain: half-width 1.25, n = 1000, m = 16, 1000 steps."""
    out = tmp_path_factory.mktemp("long_chain")
    config = small_config(
        half_width=1.25, n_values=[1000], m_values=[16], seeds=[0], iterations=1000, burn_in=50,
        schedule=Schedule("harmonic", 25.0), grid_per_axis=3,
    )
    run_experiment(config, out, master_seed=0)
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = small_config()
    result = run_experiment(config, out, master_seed=5)
    return out, result


class TestRunExperiment:
    def test_smoke_run_is_fast(self, tmp_path):
        config = small_config(n_values=[100], m_values=[2], seeds=[0], iterations=100)
        start = time.monotonic()
        run_experiment(config, tmp_path / "smoke", master_seed=0)
        assert time.monotonic() - start < 5.0

    def test_trajectory_csv_schema(self, run_dir):
        out, _ = run_dir
        path = out / "cells" / "n60_m1_s0" / "trajectory.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,eta_t,theta_1,theta_2,theta_3,boundary_hit"
        assert len(lines) == 42  # header + iterations + 1 rows
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [str(t) for t in range(41)]
        assert all(len(row) == 6 and row[5] in ("0", "1") for row in rows)

    def test_meta_and_diagnostics_schema(self, run_dir):
        out, _ = run_dir
        cell = out / "cells" / "n60_m1_s1"
        meta = json.loads((cell / "meta.json").read_text())
        assert set(meta) == META_KEYS
        constants = json.loads((out / "constants" / "constants_n60_m1.json").read_text())
        entries = json.loads((cell / "diagnostics.json").read_text())
        checks = {e["check"] for e in entries}
        assert {"drift", "bias_bound", "martingale_outside_ball", "martingale_inside", "occupancy"} <= checks
        # half-width 3 leaves the drift coefficient negative at m = 1: no ball,
        # so the martingale and occupancy checks record why they did not run
        assert not constants["hypotheses_met"]
        ran = {"drift", "bias_bound"} if meta["sample_checks"]["passed"] else {"drift"}
        for entry in entries:
            extra = {"check"} if entry["check"] in ran else {"check", "reason"}
            assert set(entry) == RECORD_KEYS | extra
        reasons = {e["check"]: e.get("reason") for e in entries}
        for check in ("martingale_outside_ball", "martingale_inside", "occupancy"):
            assert reasons[check] == "drift coefficient not positive"

    def test_plot_data_written(self, run_dir):
        out, _ = run_dir
        avg = out / "plots" / "avg_distance_n60_m1.csv"
        lines = avg.read_text().strip().split("\n")
        assert lines[0] == "t,s0,s1"
        assert lines[1].split(",")[0] == "5"
        summary = (out / "plots" / "delta_vs_n.csv").read_text().strip().split("\n")
        assert summary[0] == "n,m,median_delta,q25,q75,rate_bound,coverage"
        assert len(summary) == 2

    def test_readme_recipe_rebuilds_every_dropped_column(self, recipe, tmp_path):
        # the recipe's cells, evaluated in memory, hold every value it rebuilt from disk
        tasks, _ = harness._prepare_cells(recipe["config"], 0)
        assert sorted(recipe["rebuilt"]) == [task.label for task in tasks]
        run_experiment(recipe["config"], tmp_path, master_seed=0)
        plot = recipe["read_csv"](tmp_path / "plots" / "avg_distance_n1000_m16.csv")
        for task in tasks:
            cols, outcome = recipe["rebuilt"][task.label], harness._run_cell(task)
            traj, drift, mart = outcome.trajectory, outcome.drift, outcome.martingale
            steps, tail, mle = traj.steps, slice(traj.burn_in, None), task.checks.mle.theta
            h = np.linalg.norm(traj.thetas - mle, axis=1)
            assert mart is not None and mart.out is not None
            assert np.isnan(cols["thetabar"][: traj.burn_in]).all()
            assert np.array_equal(cols["thetabar"][tail], traj.weighted_avgs)
            for name, center in (("dist_to_mle", mle), ("dist_to_true", task.config.theta_star)):
                assert np.isnan(cols[name][: traj.burn_in]).all()
                assert np.array_equal(
                    cols[name][tail], np.linalg.norm(traj.weighted_avgs - center, axis=1)
                )
            # the plot data holds each seed's distances to the truth from the burn-in on
            assert np.array_equal(cols["dist_to_true"][tail], plot[f"s{task.replicate}"])
            assert np.array_equal(cols["h"], h[:steps])
            assert np.array_equal(cols["slack"], drift.slack)
            assert np.array_equal(cols["in_layer"], traj.boundary_hits[:steps])
            assert np.array_equal(cols["in_ball"], h[:steps] <= task.constants.ball_radius)
            for name in ("t", "increment_out", "increment_in", "active_out", "active_in"):
                assert np.array_equal(cols[name], getattr(mart, name))
            assert np.array_equal(cols["cond_mean_out"], mart.out.lhs)
            assert np.array_equal(cols["cond_mean_in"], mart.inside.lhs)

    def test_coverage_is_nan_against_an_infinite_bound(self, run_dir):
        # half-width 3 with m = 1: the drift coefficient is not positive
        out, result = run_dir
        assert result.constants[(60, 1)].drift_coeff <= 0
        row = (out / "plots" / "delta_vs_n.csv").read_text().strip().split("\n")[1].split(",")
        assert row[:2] == ["60", "1"]
        assert row[5:] == ["inf", "nan"]

    def test_sample_checks_recorded_in_meta(self, run_dir):
        out, _ = run_dir
        assert not (out / "constraint_checks.csv").exists()
        for seed in (0, 1):  # 2 seeds x 1 cell x 2 checks
            checks = json.loads((out / "cells" / f"n60_m1_s{seed}" / "meta.json").read_text())[
                "sample_checks"
            ]
            assert set(checks) == {"mle_constraint", "empirical_constraint", "passed"}
            for name in ("mle_constraint", "empirical_constraint"):
                assert set(checks[name]) == {"passed", "statistic", "bound", "margin"}
                assert int(checks[name]["passed"]) in (0, 1)
                assert isinstance(checks[name]["margin"], float)
            assert checks["passed"] is (
                checks["mle_constraint"]["passed"] and checks["empirical_constraint"]["passed"]
            )

    def test_constants_are_the_bytes_verify_writes(self, tmp_path):
        config = small_config(n_values=[60, 90], m_values=[1, 2], seeds=[0], exact_step_checks=False)
        run_experiment(config, tmp_path / "run", master_seed=0)
        verify_assumptions(config, out_dir=tmp_path / "verify")
        written = sorted((tmp_path / "run" / "constants").iterdir())
        assert [path.name for path in written] == [
            f"constants_n{n}_m{m}.json" for n in (60, 90) for m in (1, 2)
        ]
        for path in written:
            assert path.read_bytes() == (tmp_path / "verify" / "constants" / path.name).read_bytes()

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out, _ = run_dir
        config = small_config()
        again = tmp_path / "again"
        run_experiment(config, again, master_seed=5)
        assert file_digests(out) == file_digests(again)

    def test_workers_do_not_change_bytes(self, run_dir, tmp_path):
        out, _ = run_dir
        config = small_config()
        parallel = tmp_path / "parallel"
        run_experiment(config, parallel, master_seed=5, workers=2)
        assert file_digests(out) == file_digests(parallel)

    @pytest.mark.parametrize("cells, workers, pools", [(3, 64, [3]), (3, 2, [2]), (1, 64, [])])
    def test_worker_pool_capped_at_the_cell_count(self, monkeypatch, cells, workers, pools):
        opened = []

        class RecordingPool:
            """Stands in for multiprocessing.Pool: records its size, maps in-process."""

            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(harness, "_run_cell", str.upper)
        tasks = ["a", "b", "c"][:cells]
        assert harness._map_tasks(tasks, workers) == [t.upper() for t in tasks]
        assert opened == pools

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True])
    def test_worker_count_not_a_positive_integer_rejected(self, tmp_path, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(small_config(), tmp_path / "o", master_seed=0, workers=workers)
        assert not (tmp_path / "o").exists()

    def test_svg_emitted_on_request(self, tmp_path):
        config = small_config(seeds=[0])
        run_experiment(config, tmp_path / "withsvg", master_seed=1, svg=True)
        svg = (tmp_path / "withsvg" / "plots" / "convergence.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_unwritable_output_fails_fast(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        with pytest.raises(ConfigError):
            run_experiment(small_config(), blocker / "sub", master_seed=0)


class TestPrepareCells:
    """Each cell's sample decides its checks and bias grid before any trajectory exists."""

    CONFIG = dict(n_values=[1000, 60], m_values=[4, 2], seeds=[1, 0])

    def test_bias_is_bit_for_bit_the_full_table_norm(self):
        config = small_config(**self.CONFIG)
        tasks, _ = harness._prepare_cells(config, 0)
        fam, box = config.build_family(), config.build_box()
        grid = box.grid(config.grid_per_axis)
        # the (G, d) means and each m's (G, S, d) table, one point at a time
        means = np.stack([mean_parameter(fam, theta) for theta in grid])
        tables = {m: np.stack([m_step_stat_rows(fam, theta, m) for theta in grid]) for m in (2, 4)}
        ran = 0
        for task in tasks:
            if harness._skip_reasons(task)["bias_bound"] is not None:
                assert task.bias is None
                continue
            ran += 1
            weights = task.data.counts / task.data.n
            lhs = np.linalg.norm(means - np.einsum("s,gsd->gd", weights, tables[task.m]), axis=1)
            dist = np.linalg.norm(grid - task.checks.mle.theta, axis=1)
            rhs = task.constants.fluctuation_scale + task.constants.bias_coeff * dist
            for got, want in ((task.bias.thetas, grid), (task.bias.lhs, lhs), (task.bias.rhs, rhs)):
                assert got.tobytes() == want.tobytes()
        assert 0 < ran < len(tasks)  # the config has samples on both sides of the constraints

    def test_one_grid_sweep_per_m_ascending(self, monkeypatch):
        rows, swept = oracle.m_step_stat_rows, []

        def recording(fam, thetas, m):
            swept.append((m, len(thetas)))
            return rows(fam, thetas, m)

        monkeypatch.setattr(oracle, "m_step_stat_rows", recording)
        config = small_config(**self.CONFIG)
        tasks, _ = harness._prepare_cells(config, 0)
        assert len(tasks) == 8 and all(task.checks is not None for task in tasks)
        assert swept == [(2, config.grid_per_axis**3), (4, config.grid_per_axis**3)]

    def test_labels_in_run_order(self):
        tasks, _ = harness._prepare_cells(small_config(**self.CONFIG), 0)
        assert [task.label for task in tasks] == [
            f"n{n}_m{m}_s{s}" for n in (60, 1000) for s in (0, 1) for m in (2, 4)
        ]

    def test_each_sample_fitted_once(self, monkeypatch):
        fit, fitted = harness.mle, []

        def recording(fam, data, box):
            fitted.append(tuple(data.seed))
            return fit(fam, data, box)

        monkeypatch.setattr(harness, "mle", recording)
        tasks, _ = harness._prepare_cells(small_config(**self.CONFIG), 0)
        assert len(tasks) == 8  # 4 samples, 2 m's each
        assert sorted(fitted) == sorted({tuple(task.data.seed) for task in tasks})

    def test_task_size_does_not_grow_with_n(self):
        # with the exact step checks off no task carries a bias grid, so what
        # is left scales with the state count, not with n
        sizes = {}
        for n in (100, 1_000_000):
            config = small_config(n_values=[n], seeds=[0], exact_step_checks=False)
            (task,), _ = harness._prepare_cells(config, 0)
            assert task.checks is not None and task.data.n == n
            sizes[n] = len(pickle.dumps(task))
        assert abs(sizes[1_000_000] - sizes[100]) <= 1024

    def test_bias_norms_kept_only_where_the_bias_check_runs(self):
        tasks, _ = harness._prepare_cells(small_config(**self.CONFIG), 0)
        for task in tasks:
            runs = harness._skip_reasons(task)["bias_bound"] is None
            assert (task.checks.bias_norms is not None) == runs

    def test_task_without_bias_check_pickles_without_bias_norms(self):
        # CI's p=4 model on a grid of 2 per axis, G = 1024 points, exact step
        # checks off: the task pickles to about 4.2 kB, where the G bias norms
        # alone would add 8 kB
        config = small_config(
            model={"type": "fvbm", "p": 4},
            theta_star=[0.5, 0.2, 1.0, 0.3, 0.1, 0.5, 0.2, 0.4, 0.3, 0.1],
            half_width=1.25, grid_per_axis=2, n_values=[1000], m_values=[2], seeds=[0],
            exact_step_checks=False,
        )
        (task,), _ = harness._prepare_cells(config, 0)
        assert task.checks is not None and task.checks.bias_norms is None
        assert len(pickle.dumps(task)) <= 5000

    def test_no_task_field_holds_a_grid_table(self):
        tasks, _ = harness._prepare_cells(small_config(**self.CONFIG), 0)
        names = {f.name for f in fields(harness.CellTask)}
        assert names.isdisjoint({"grid", "stat_table", "mean_table"})
        for task in tasks:
            assert not any(isinstance(getattr(task, name), np.ndarray) for name in names)


class TestVerify:
    def test_report_content(self, tmp_path):
        config = small_config(m_values=[1, 2])
        report = verify_assumptions(config, out_dir=tmp_path / "verify")
        assert report["stat_bound"] == 1.0
        assert report["identifiability"]["ok"]
        assert report["schedule"]["annealing_ok"]
        assert report["smallest_admissible_m"] is not None
        assert report["smallest_admissible_m"] >= 1
        assert len(report["constants"]) == 2
        written = json.loads((tmp_path / "verify" / "assumptions.json").read_text())
        assert written["grid_bounds"]["per_axis"] == 5
        assert (tmp_path / "verify" / "constants" / "constants_n60_m1.json").exists()

    def test_fixed_schedule_flagged(self, tmp_path):
        config = small_config(schedule=Schedule("fixed", 0.05))
        report = verify_assumptions(config)
        assert not report["schedule"]["annealing_ok"]

    def test_admissible_m_exists_for_default_model(self):
        report = verify_assumptions(small_config())
        m_star = report["smallest_admissible_m"]
        consts = [c for c in report["constants"]]
        assert all(not c["hypotheses_met"] for c in consts if c["m"] < m_star)


class TestRateSweep:
    def test_requires_enough_sizes_and_seeds(self, tmp_path):
        with pytest.raises(ConfigError):
            rate_sweep(small_config(), tmp_path / "r1")
        with pytest.raises(ConfigError):
            rate_sweep(
                small_config(n_values=[20, 40, 80], seeds=[0, 1]), tmp_path / "r2"
            )

    def test_outputs_and_verdict_shape(self, tmp_path):
        config = small_config(
            n_values=[30, 90, 270],
            seeds=list(range(10)),
            iterations=60,
            burn_in=6,
            exact_step_checks=False,
        )
        result = rate_sweep(config, tmp_path / "rate", master_seed=2)
        assert set(result.fits) == {1}
        assert isinstance(result.ok, bool)
        out = tmp_path / "rate"
        assert not (out / "rate" / "rate_summary.csv").exists()
        assert [path.name for path in (out / "rate").iterdir()] == ["rate_fit.json"]
        fit_doc = json.loads((out / "rate" / "rate_fit.json").read_text())
        assert set(fit_doc) == {"1", "verdict"}
        assert set(fit_doc["1"]) == {
            "slope",
            "intercept",
            "residuals",
            "converging",
            "monotone_medians",
            "slope_in_band",
        }
        assert fit_doc["1"]["slope"] == result.fits[1].slope
        assert set(fit_doc["verdict"]) == {"slope_gap", "ok"}
        assert fit_doc["verdict"]["ok"] is result.ok
        # the medians the fit judged are the ones delta_vs_n.csv holds
        lines = (out / "plots" / "delta_vs_n.csv").read_text().strip().split("\n")
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for m, fit in result.fits.items():
            mine = [row for row in rows if int(row["m"]) == m]
            assert [int(row["n"]) for row in mine] == fit.sizes.tolist()
            assert np.array_equal([float(row["median_delta"]) for row in mine], fit.medians)
        # exact_step_checks is off, so no check ran in any cell
        cell = tmp_path / "rate" / "cells" / "n90_m1_s3"
        entries = json.loads((cell / "diagnostics.json").read_text())
        assert [e["reason"] for e in entries] == ["exact step checks off"] * 5


class TestDiagnose:
    def test_clean_run_passes_and_is_deterministic(self, tmp_path):
        config = small_config()
        out = tmp_path / "diag"
        run_experiment(config, out, master_seed=5)
        first = diagnose_run(out)
        assert first.ok
        summary_a = (out / "diagnose_summary.json").read_bytes()
        second = diagnose_run(out)
        assert second.ok
        assert (out / "diagnose_summary.json").read_bytes() == summary_a

    def test_config_records_versions_that_diagnose_keeps(self, run_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(run_dir[0], out)
        doc = json.loads((out / "config.json").read_text())
        assert doc["versions"] == {
            "cdanneal": cdanneal.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        before = file_digests(out)
        assert diagnose_run(out).ok
        after = file_digests(out)
        assert set(after) - set(before) == {"diagnose_summary.json"}
        assert {path: after[path] for path in before} == before

    def test_p3_admissible_config_passes_every_check_in_every_cell(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(P3_ADMISSIBLE))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert cli.main(["diagnose", "--out", str(out)]) == 0
        cells = list((out / "cells").iterdir())
        assert {cell.name for cell in cells} == {
            f"n{n}_m80_s{s}" for n in (1000, 10000) for s in (0, 1)
        }
        for cell in cells:
            entries = json.loads((cell / "diagnostics.json").read_text())
            assert [e["check"] for e in entries] == list(harness.CHECKS)
            for entry in entries:
                assert entry["hypotheses_met"] is True and "reason" not in entry
                assert entry["violations"] == 0

    def test_missing_run_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            diagnose_run(tmp_path / "nowhere")

    def test_stored_master_seed_over_key_limit_rejected(self, run_dir, tmp_path):
        out = tmp_path / "stored"
        shutil.copytree(run_dir[0], out)
        _edit_json(out / "config.json", master_seed=2**64)
        with pytest.raises(ConfigError, match="holds no master_seed"):
            diagnose_run(out)

    @pytest.mark.parametrize(
        "row, column, value, refusal",
        [
            (8, 2, "3.5", "row t=7: theta is not finite or lies outside the box"),
            (8, 4, "-3.0000000000000004", "row t=7: theta is not finite or lies outside the box"),
            (8, 3, "nan", "row t=7: theta is not finite or lies outside the box"),
            (12, 1, "-0.1", "row t=11: eta_t -0.1 differs from the config's schedule, 0.1666"),
            (41, 1, "0.04878048780487806", "row t=40: eta_t 0.04878048780487806 differs"),
        ],
        ids=["theta_outside_box", "theta_past_the_face", "theta_nan", "eta_negative", "eta_off_by_one_ulp"],
    )
    def test_impossible_trajectory_refused_naming_file_and_row(
        self, run_dir, tmp_path, row, column, value, refusal
    ):
        # the config has half-width 3 and eta_t = 2 / (t + 1); the last rate
        # 2 / 41 is 0.04878048780487805
        out = tmp_path / "stored"
        shutil.copytree(run_dir[0], out)
        path = out / CELL / "trajectory.csv"
        _edit_csv(path, row, column, value)
        with pytest.raises(ConfigError, match=re.escape(f"{path} {refusal}")):
            diagnose_run(out)
        assert not (out / "diagnose_summary.json").exists()

    # columns of trajectory.csv: t, eta_t, theta_1, theta_2, theta_3, boundary_hit
    @pytest.mark.parametrize(
        "t, column, value, refusal",
        [
            (246, 5, "1", f"row t=246: boundary_hit 1 {GUARD_SAYS} 0"),
            (246, 5, "2", f"row t=246: boundary_hit 2 {GUARD_SAYS} 0"),
            (10, 5, "0", f"row t=10: boundary_hit 0 {GUARD_SAYS} 1"),
            (30, 2, "0.01", f"row t=29: {FROZEN_MOVES} row t=30 must repeat it"),
            (1, 2, "-0.0", f"row t=0: {FROZEN_MOVES} row t=1 must repeat it"),
        ],
        ids=["hit_on_a_live_row", "hit_of_two", "live_row_at_a_frozen_step", "frozen_row_moved",
             "frozen_row_changes_sign_of_zero"],
    )
    def test_stored_step_the_guard_contradicts_is_refused(
        self, long_chain_dir, tmp_path, t, column, value, refusal
    ):
        # eta0 = 25 over half-width 1.25 freezes every step before t = 69, so
        # theta stays 0.0 there; t = 246 is a live step
        out = tmp_path / "stored"
        shutil.copytree(long_chain_dir, out)
        path = out / "cells" / "n1000_m16_s0" / "trajectory.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert [rows[1 + s][5] for s in (0, 10, 29, 30, 68, 69, 246)] == ["1"] * 5 + ["0", "0"]
        assert rows[1 + t][2] == "0.0" or column == 5
        _edit_csv(path, 1 + t, column, value)
        with pytest.raises(ConfigError, match=re.escape(f"{path} {refusal}")):
            diagnose_run(out)
        assert not (out / "diagnose_summary.json").exists()

    def test_run_then_diagnose_changes_no_file(self, tmp_path):
        # half-width 1.25 admits m = 16 with a positive drift coefficient, so
        # the martingale and occupancy checks run as well
        config = small_config(
            n_values=[200], m_values=[16], iterations=60, burn_in=6, half_width=1.25
        )
        out = tmp_path / "run"
        result = run_experiment(config, out, master_seed=3)
        assert result.constants[(200, 16)].drift_coeff > 0
        before = file_digests(out)
        for cell in ("n200_m16_s0", "n200_m16_s1"):
            assert f"cells/{cell}/drift.csv" in before
            assert f"cells/{cell}/martingale.csv" not in before
        coverage = (out / "plots" / "delta_vs_n.csv").read_text().strip().split("\n")[1].split(",")[-1]
        assert 0.0 <= float(coverage) <= 1.0
        assert diagnose_run(out).ok
        after = file_digests(out)
        assert set(after) - set(before) == {"diagnose_summary.json"}
        assert {path: after[path] for path in before} == before

    def test_run_stored_in_the_0_11_layout_still_diagnoses(self, recipe, tmp_path):
        # 0.11.0 wrote the recipe's columns too: averages and distances in
        # trajectory.csv, h, slack and both indicators in drift.csv, and
        # martingale.csv; and the run files of 0.12.0 (see the next test)
        config = small_config(
            n_values=[200], m_values=[16], iterations=60, burn_in=6, half_width=1.25
        )
        out = tmp_path / "run"
        run_experiment(config, out, master_seed=3)
        cells = sorted((out / "cells").iterdir())
        kept = {}
        for cell in cells:
            cols, drift = recipe["dropped_columns"](cell), recipe["read_csv"](cell / "drift.csv")
            kept[cell.name] = (cell / "drift.csv").read_text()
            _write_0_11_layout(cell, cols, drift)
        _write_pre_0_13_run_files(out, "0.11.0")
        before = file_digests(out)
        assert diagnose_run(out).ok
        after = file_digests(out)
        assert set(after) - set(before) == {"diagnose_summary.json"}
        changed = {path for path in before if after[path] != before[path]}
        assert changed == {f"cells/{cell.name}/drift.csv" for cell in cells}
        for cell in cells:
            assert (cell / "drift.csv").read_text() == kept[cell.name]

    def test_run_stored_in_the_0_12_layout_still_diagnoses(self, tmp_path):
        # n = 4 leaves some samples without an MLE, whose constraint rows 0.12.0 wrote as 0, nan
        config = small_config(
            n_values=[4, 200], m_values=[16], iterations=60, burn_in=6, half_width=1.25
        )
        out = tmp_path / "run"
        run_experiment(config, out, master_seed=3)
        _write_pre_0_13_run_files(out, "0.12.0")
        before = file_digests(out)
        assert "constraint_checks.csv" in before
        assert not any(path.startswith("constants") for path in before)
        assert diagnose_run(out).ok
        after = file_digests(out)
        assert set(after) - set(before) == {"diagnose_summary.json"}
        assert {path: after[path] for path in before} == before

    def test_failed_sample_leaves_occupancy_unjudged(self, tmp_path):
        # at master seed 0 the n = 100 sample of replicate 1 fails its quality
        # constraints, so no check of its cell holds its hypotheses
        config = small_config(
            n_values=[100], m_values=[16], seeds=[1], iterations=60, burn_in=6,
            half_width=1.25, grid_per_axis=9,
        )
        out = tmp_path / "run"
        run_experiment(config, out, master_seed=0)
        cell = out / "cells" / "n100_m16_s1"
        assert json.loads((cell / "meta.json").read_text())["sample_checks"]["passed"] is False
        entries = {e["check"]: e for e in json.loads((cell / "diagnostics.json").read_text())}
        occupancy = entries["occupancy"]
        assert set(occupancy) == {"check"} | RECORD_KEYS | OCCUPANCY_KEYS
        assert occupancy["steps"] == 61
        assert occupancy["hypotheses_met"] is False
        assert occupancy["violations"] == 0
        for check in ("drift", "martingale_outside_ball", "martingale_inside"):
            assert set(entries[check]) == {"check"} | RECORD_KEYS
            assert entries[check]["hypotheses_met"] is False
        assert entries["bias_bound"]["reason"] == "sample fails its quality constraints"
        assert diagnose_run(out).cells == [{"cell": "n100_m16_s1", "violations": 0, "ok": True}]

    def test_sample_without_mle_skips_every_check_for_that_reason(self, tmp_path):
        # four draws cannot pin three parameters: the sample's statistic mean
        # has no interior preimage, though the drift coefficient is positive
        config = small_config(
            n_values=[4], m_values=[16], seeds=[0], iterations=40, burn_in=5, half_width=1.25
        )
        out = tmp_path / "run"
        result = run_experiment(config, out, master_seed=0)
        assert result.constants[(4, 16)].drift_coeff > 0
        cell = out / "cells" / "n4_m16_s0"
        assert json.loads((cell / "meta.json").read_text())["mle"] is None
        entries = json.loads((cell / "diagnostics.json").read_text())
        assert [e["reason"] for e in entries] == ["mle does not exist"] * 5
        assert diagnose_run(out).ok
        assert json.loads((cell / "diagnostics.json").read_text()) == entries


def file_digests(root: Path) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _write_0_11_layout(cell: Path, cols: dict, drift: dict) -> None:
    """Give a cell the trajectory.csv, drift.csv and martingale.csv that 0.11.0 wrote."""
    traj_path = cell / "trajectory.csv"
    extra = {f"thetabar_{j + 1}": col for j, col in enumerate(cols["thetabar"].T)}
    extra.update(dist_to_mle=cols["dist_to_mle"], dist_to_true=cols["dist_to_true"])
    rendered = harness._csv(list(extra), list(extra.values())).splitlines()
    lines = traj_path.read_text().splitlines()
    traj_path.write_text("".join(f"{a},{b}\n" for a, b in zip(lines, rendered)))
    drift_doc = dict(cols, lhs=drift["lhs"], rhs=drift["rhs"])
    for name, header in (
        ("drift.csv", ["t", "h", "lhs", "rhs", "slack", "in_layer", "in_ball"]),
        ("martingale.csv", ["t", "increment_out", "increment_in", "active_out", "active_in",
                            "cond_mean_out", "cond_mean_in"]),
    ):
        harness._write(cell / name, harness._csv(header, [drift_doc[key] for key in header]))


def _write_pre_0_13_run_files(out: Path, version: str) -> None:
    """Give a run the meta.json keys and constraint_checks.csv that 0.12.0 and earlier wrote.

    Those versions repeated config.json's run-level values, a data label and
    the (n, m) constants in every meta.json, and wrote no constants/.
    """
    doc = json.loads((out / "config.json").read_text())
    config, seed = doc["config"], doc["master_seed"]
    doc["versions"]["cdanneal"] = version
    harness._write(out / "config.json", harness._json_text(doc))
    copied = ("iterations", "gamma", "tail_fraction", "half_width", "theta_star", "model", "schedule")
    rows = []
    for cell in (out / "cells").iterdir():
        meta = json.loads((cell / "meta.json").read_text())
        n, m, rep = meta["n"], meta["m"], meta["replicate"]
        constants = json.loads((out / "constants" / f"constants_n{n}_m{m}.json").read_text())
        meta.update({key: config[key] for key in copied}, constants=constants)
        meta.update(master_seed=seed, data_id=f"n{n}-ms{seed}-r{rep}")
        harness._write(cell / "meta.json", harness._json_text(meta))
        checks = meta["sample_checks"] or {}
        for name, key in (("mle_deviation", "mle_constraint"), ("empirical_process", "empirical_constraint")):
            check = checks.get(key)
            passed, margin = (0, float("nan")) if check is None else (int(check["passed"]), check["margin"])
            rows.append((rep, n, m, name, passed, margin))
    rows.sort(key=lambda row: (row[1], row[0], row[2]))  # the order of run's cells
    header = ["seed", "n", "m", "check", "pass", "margin"]
    harness._write(out / "constraint_checks.csv", harness._csv(header, list(zip(*rows))))
    shutil.rmtree(out / "constants")


def _edit_json(path: Path, **changes) -> None:
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def _replace_with_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


def _keep_lines(path: Path, stop: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:stop]))


def _edit_csv(path: Path, row: int, column: int, value: str) -> None:
    """Replace one field of a CSV file; row 0 is the header."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[row][column] = value
    path.write_text("".join(",".join(fields) + "\n" for fields in rows))


CELL = Path("cells") / "n60_m1_s1"
MALFORMED_RUNS = {
    "config_unreadable": lambda out: _replace_with_directory(out / "config.json"),
    "config_not_json": lambda out: (out / "config.json").write_text("{oops"),
    "config_without_config_key": lambda out: (out / "config.json").write_text('{"master_seed": 5}'),
    "config_master_seed_not_int": lambda out: _edit_json(out / "config.json", master_seed="5"),
    "cell_directory_missing": lambda out: shutil.rmtree(out / CELL),
    "meta_missing": lambda out: (out / CELL / "meta.json").unlink(),
    "trajectory_missing": lambda out: (out / CELL / "trajectory.csv").unlink(),
    "unlisted_cell_directory": lambda out: shutil.copytree(out / CELL, out / "cells" / "n60_m1_s7"),
    "meta_n": lambda out: _edit_json(out / CELL / "meta.json", n=61),
    "meta_m": lambda out: _edit_json(out / CELL / "meta.json", m=3),
    "meta_replicate": lambda out: _edit_json(out / CELL / "meta.json", replicate=0),
    "meta_data_seed": lambda out: _edit_json(out / CELL / "meta.json", data_seed=[5, 1, 60, 3]),
    "meta_burn_in": lambda out: _edit_json(out / CELL / "meta.json", burn_in=4),
    "trajectory_row_count": lambda out: _keep_lines(out / CELL / "trajectory.csv", -1),
    "trajectory_header_only": lambda out: _keep_lines(out / CELL / "trajectory.csv", 1),
    "trajectory_not_numeric": lambda out: _edit_csv(out / CELL / "trajectory.csv", 7, 2, "abc"),
    "trajectory_column_missing": lambda out: _edit_csv(out / CELL / "trajectory.csv", 0, 1, "eta"),
}


@pytest.mark.filterwarnings("error")  # a warning would reach stderr ahead of the error
@pytest.mark.parametrize("mutate", list(MALFORMED_RUNS.values()), ids=list(MALFORMED_RUNS))
def test_diagnose_refuses_malformed_run(run_dir, tmp_path, capsys, mutate):
    out = tmp_path / "stored"
    shutil.copytree(run_dir[0], out)
    mutate(out)
    assert cli.main(["diagnose", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (out / "diagnose_summary.json").exists()


class TestCli:
    def test_run_and_verify_exit_zero(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(small_config(seeds=[0]).to_json())
        assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "o1")]) == 0
        assert cli.main(["verify", "--config", str(config_path), "--out", str(tmp_path / "o2")]) == 0
        assert cli.main(["diagnose", "--out", str(tmp_path / "o1")]) == 0

    def test_default_config_used_when_omitted(self, tmp_path, monkeypatch):
        captured = {}

        def fake_run(config, out, master_seed=0, workers=1, svg=False):
            captured["config"] = config
            return None

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert cli.main(["run", "--out", str(tmp_path / "d")]) == 0
        assert captured["config"].to_dict() == default_config().to_dict()

    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = small_config().to_dict()
        doc["gamma"] = 0.9
        bad.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        notjson = tmp_path / "notjson.json"
        notjson.write_text("{oops")
        assert cli.main(["verify", "--config", str(notjson), "--out", str(tmp_path / "o2")]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model": THREE_STATE_MODEL, "theta_star": [0.3]},
            HUGE_GRID,
            {"half_width": 240.0},
            {"half_width": 250.0},
            P6_GRID,
        ],
    )
    def test_unrunnable_config_exits_two_without_traceback(self, tmp_path, capsys, overrides):
        doc = dict(small_config().to_dict(), **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (["run"], {"seeds": [0, 2**64]}),
            (["run", "--seed", str(2**64)], {}),
            (["verify"], COINCIDENT_GRID),
        ],
        ids=["seed_over_key_limit", "master_seed_over_key_limit", "coincident_grid_points"],
    )
    def test_value_the_program_cannot_use_exits_two(self, tmp_path, capsys, argv, overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(small_config().to_dict(), **overrides)))
        assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_iterate_outside_the_box_exits_two_without_traceback(self, tmp_path, capsys):
        # a stored theta_1 of 1.5 in a half-width 1.25 run used to reach the
        # exact checks and end in a ParamBoxError traceback
        config_path = tmp_path / "config.json"
        config_path.write_text(small_config(seeds=[0], m_values=[16], half_width=1.25).to_json())
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        _edit_csv(out / "cells" / "n60_m16_s0" / "trajectory.csv", 20, 2, "1.5")
        capsys.readouterr()
        assert cli.main(["diagnose", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "row t=19: theta is not finite or lies outside the box [-1.25, 1.25]" in err
        assert "Traceback" not in err

    def test_forged_boundary_hit_exits_two_without_traceback(self, tmp_path, capsys):
        # a boundary_hit of 1 at the live step t = 40 used to pass, and drift.csv's
        # rhs at that row was rebuilt from it (0.2257 in place of 0.2419)
        config_path = tmp_path / "config.json"
        config_path.write_text(small_config(
            half_width=1.25, n_values=[1000], m_values=[16], seeds=[0], iterations=100,
            burn_in=10, schedule=Schedule("harmonic", 1.0),
        ).to_json())
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        path = out / "cells" / "n1000_m16_s0" / "trajectory.csv"
        assert path.read_text().splitlines()[41].endswith(",0")
        _edit_csv(path, 41, 5, "1")
        capsys.readouterr()
        assert cli.main(["diagnose", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "row t=40: boundary_hit 1 disagrees with the boundary-layer guard" in err
        assert "Traceback" not in err

    def test_sample_whose_newton_step_is_singular_runs_as_no_mle(self, tmp_path, capsys):
        # seed 2's n = 10 sample used to end `run` in a LinAlgError traceback
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SINGULAR_NEWTON))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        for m in (1, 1000):
            cell = out / "cells" / f"n10_m{m}_s2"
            assert json.loads((cell / "meta.json").read_text())["mle"] is None
            entries = json.loads((cell / "diagnostics.json").read_text())
            assert [e["reason"] for e in entries] == ["mle does not exist"] * 5

    @pytest.mark.parametrize("command", ["run", "rate"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_worker_count_below_one_exits_two(self, tmp_path, capsys, command, workers):
        # enough sizes and seeds for rate, so that the worker count is what it refuses
        path = tmp_path / "config.json"
        path.write_text(small_config(n_values=[30, 90, 270], seeds=list(range(10))).to_json())
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o"), "--workers", workers]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: workers must be an integer >= 1")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_model_over_the_state_cap_exits_two_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(small_config().to_dict(), **OVER_STATE_CAP)))
        tracemalloc.start()
        try:
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad model document:")
        assert "enumeration cap" in err and "Traceback" not in err
        assert peak < 64 * 2**20
        assert not (tmp_path / "o").exists()

    def test_failing_checks_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli,
            "diagnose_run",
            lambda out: DiagnoseResult(out_dir=Path(out), cells=[], ok=False),
        )
        assert cli.main(["diagnose", "--out", str(tmp_path)]) == 3

    def test_byte_identical_outputs_across_invocations(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(small_config().to_json())
        for name in ("a", "b"):
            code = cli.main(
                ["run", "--config", str(config_path), "--seed", "9", "--out", str(tmp_path / name)]
            )
            assert code == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


# Modules a command pays for only when it uses them: the worker pool, and the
# masked arrays numpy's median and quantile import on their first call.
LAZY_MODULES = ("multiprocessing", "numpy.ma")


def loaded_lazy_modules(code: str) -> list[str]:
    """The ``LAZY_MODULES`` a fresh interpreter holds after running ``code``."""
    src = str(Path(cdanneal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = f"{code}\nimport sys\nprint(*(m for m in {LAZY_MODULES!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


class TestLazyImports:
    def test_cli_import_loads_neither(self):
        assert loaded_lazy_modules("import cdanneal.cli") == []

    def test_one_cell_run_loads_neither(self, tmp_path):
        # four workers for one cell start no pool
        code = (
            "from cdanneal.config import RunConfig\n"
            "from cdanneal.harness import run_experiment\n"
            "config = RunConfig(n_values=[60], m_values=[1], seeds=[0], iterations=40, burn_in=5,"
            " grid_per_axis=5)\n"
            f"run_experiment(config, {str(tmp_path / 'o')!r}, workers=4)"
        )
        assert loaded_lazy_modules(code) == []
        assert (tmp_path / "o" / "plots" / "delta_vs_n.csv").is_file()
