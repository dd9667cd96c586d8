"""Configuration round trips, output schemas, determinism and CLI wiring."""

import hashlib
import itertools
import json
import platform
import shutil
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cdanneal
import cdanneal.cli as cli
from cdanneal import harness
from cdanneal.config import MAX_GRID_POINTS, ConfigError, RunConfig, default_config
from cdanneal.harness import (
    DiagnoseResult,
    diagnose_run,
    rate_sweep,
    run_experiment,
    verify_assumptions,
)
from cdanneal.learner import Schedule


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
        assert lines[0] == (
            "t,eta_t,theta_1,theta_2,theta_3,boundary_hit,"
            "thetabar_1,thetabar_2,thetabar_3,dist_to_mle,dist_to_true"
        )
        assert len(lines) == 42  # header + iterations + 1 rows
        first = lines[1].split(",")
        assert first[0] == "0" and first[6] == "nan"
        last = lines[-1].split(",")
        assert last[0] == "41" or last[0] == "40"
        assert float(last[-1]) >= 0

    def test_meta_and_diagnostics_schema(self, run_dir):
        out, _ = run_dir
        cell = out / "cells" / "n60_m1_s1"
        meta = json.loads((cell / "meta.json").read_text())
        for key in (
            "n", "m", "replicate", "master_seed", "data_seed", "iterations",
            "burn_in", "gamma", "schedule", "delta_tail_max", "constants",
            "mle", "sample_checks", "boundary_hit_count",
        ):
            assert key in meta
        entries = json.loads((cell / "diagnostics.json").read_text())
        checks = {e["check"] for e in entries}
        assert {"drift", "bias_bound", "martingale_outside_ball", "martingale_inside", "occupancy"} <= checks
        # half-width 3 leaves the drift coefficient negative at m = 1: no ball,
        # so the martingale and occupancy checks record why they did not run
        assert not meta["constants"]["hypotheses_met"]
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

    def test_trajectory_distances_match_plot_data(self, run_dir):
        out, _ = run_dir
        plot_csv = out / "plots" / "avg_distance_n60_m1.csv"
        plot = [line.split(",") for line in plot_csv.read_text().split()]
        for rep in (0, 1):
            path = out / "cells" / f"n60_m1_s{rep}" / "trajectory.csv"
            rows = [line.split(",") for line in path.read_text().split()]
            dist_to_true = [row[rows[0].index("dist_to_true")] for row in rows[1:]]
            column = [row[plot[0].index(f"s{rep}")] for row in plot[1:]]
            assert dist_to_true == ["nan"] * (len(rows) - 1 - len(column)) + column

    def test_coverage_is_nan_against_an_infinite_bound(self, run_dir):
        # half-width 3 with m = 1: the drift coefficient is not positive
        out, result = run_dir
        assert result.constants[(60, 1)].drift_coeff <= 0
        row = (out / "plots" / "delta_vs_n.csv").read_text().strip().split("\n")[1].split(",")
        assert row[:2] == ["60", "1"]
        assert row[5:] == ["inf", "nan"]

    def test_constraint_report_written(self, run_dir):
        out, _ = run_dir
        lines = (out / "constraint_checks.csv").read_text().strip().split("\n")
        assert lines[0] == "seed,n,m,check,pass,margin"
        assert len(lines) == 5  # 2 seeds x 1 cell x 2 checks
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] in ("mle_deviation", "empirical_process")
            assert fields[4] in ("0", "1")

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out, _ = run_dir
        config = small_config()
        again = tmp_path / "again"
        run_experiment(config, again, master_seed=5)
        assert tree_digest(out / "cells") == tree_digest(again / "cells")
        assert tree_digest(out / "plots") == tree_digest(again / "plots")

    def test_workers_do_not_change_bytes(self, run_dir, tmp_path):
        out, _ = run_dir
        config = small_config()
        parallel = tmp_path / "parallel"
        run_experiment(config, parallel, master_seed=5, workers=2)
        assert tree_digest(out / "cells") == tree_digest(parallel / "cells")

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

        monkeypatch.setattr(harness.multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(harness, "_run_cell", str.upper)
        tasks = ["a", "b", "c"][:cells]
        assert harness._map_tasks(tasks, workers) == [t.upper() for t in tasks]
        assert opened == pools

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

    def test_missing_run_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            diagnose_run(tmp_path / "nowhere")

    def test_stored_master_seed_over_key_limit_rejected(self, run_dir, tmp_path):
        out = tmp_path / "stored"
        shutil.copytree(run_dir[0], out)
        _edit_json(out / "config.json", master_seed=2**64)
        with pytest.raises(ConfigError, match="holds no master_seed"):
            diagnose_run(out)

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
        assert {"cells/n200_m16_s0/martingale.csv", "cells/n200_m16_s1/drift.csv"} <= set(before)
        coverage = (out / "plots" / "delta_vs_n.csv").read_text().strip().split("\n")[1].split(",")[-1]
        assert 0.0 <= float(coverage) <= 1.0
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
