"""Configuration round trips, output schemas, determinism and CLI wiring."""

import hashlib
import json
import time
from pathlib import Path

import pytest

import cdanneal.cli as cli
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
# FVBM p = 4 has dim 10, so 9 points per axis would be 9**10 (about 3.5e9).
HUGE_GRID = {"model": {"type": "fvbm", "p": 4}, "theta_star": [0.0] * 10, "grid_per_axis": 9}


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
        for entry in entries:
            assert {"check", "steps", "violations", "worst_slack"} <= set(entry)

    def test_plot_data_written(self, run_dir):
        out, _ = run_dir
        avg = out / "plots" / "avg_distance_n60_m1.csv"
        lines = avg.read_text().strip().split("\n")
        assert lines[0] == "t,s0,s1"
        assert lines[1].split(",")[0] == "5"
        summary = (out / "plots" / "delta_vs_n.csv").read_text().strip().split("\n")
        assert summary[0] == "n,m,median_delta,q25,q75,rate_bound,coverage"
        assert len(summary) == 2

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
        summary = (tmp_path / "rate" / "rate" / "rate_summary.csv").read_text().strip().split("\n")
        assert summary[0] == "n,m,median_delta,rate_bound,coverage"
        assert len(summary) == 4
        fit_doc = json.loads((tmp_path / "rate" / "rate" / "rate_fit.json").read_text())
        assert "verdict" in fit_doc and "1" in fit_doc
        assert "slope" in fit_doc["1"]


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

    def test_missing_run_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            diagnose_run(tmp_path / "nowhere")


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

    @pytest.mark.parametrize("overrides", [{"model": THREE_STATE_MODEL, "theta_star": [0.3]}, HUGE_GRID])
    def test_unrunnable_config_exits_two_without_traceback(self, tmp_path, capsys, overrides):
        doc = dict(small_config().to_dict(), **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

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
