"""cdanneal benchmark: times the CLI subcommands users run, end to end.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (bench/child.py) that calls
``cdanneal.cli.main(argv)`` once, closed loop, one repetition at a time,
with one BLAS thread.  The package is imported from ``src/`` of the
checkout; nothing is installed.  Repetitions start while a typical one
still fits in ``--seconds`` (at least MIN_REPS run) and every end-to-end
metric is the median over them.  ``--seed`` is the master seed given to the program, so the same seed
gives the same inputs and byte-identical outputs.

With ``--trace 1`` repetitions alternate between untraced and traced runs;
the per-layer metrics are medians over the traced ones and
``trace.overhead_frac`` compares the two.

Times are scaled to a fixed reference speed of the host.  The host's speed
moves by up to 2x with the load of other tenants, so raw wall times of
the same code spread past any useful bound.  Every repetition therefore
times a fixed numpy snippet every 50 ms in the same process (see
``SpeedProbe`` in child.py).  A time is the repetition's time minus the
snippets' own time, multiplied by (PROBE_REF_S / h) ** PROBE_EXPONENT, where
h is the harmonic mean of that repetition's snippet times.  The factor
depends on the host's speed only, never on the program, so it moves the
noise and not the ratio of two programs' times.  The raw times are printed
and kept in ``results.json``.  Outputs of the program go to a
scratch ``--out`` under ``.bench_work/``; timings, spans and the
environment record are written next to it, never inside it.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A repetition fails when
the command exits non-zero or its outputs fail a correctness gate;
``ops_failed_frac`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"

MIN_REPS = 3
MIN_TRACE_REPS = 4
REP_TIMEOUT_S = 90
# Mean time of the speed probe's snippet at the reference speed, close to
# what it takes on the 2-core x86_64 host the bounds were tuned on.  Any
# fixed value would do: it sets the unit, not the spread.
PROBE_REF_S = 0.8e-3
# The program's time moves with the snippet's to this power: the log-log
# slope of repetition time on snippet time, 1.15-1.25 on that host for every
# workload (the program's larger code and data suffer more from a busy
# neighbour than the snippet does).  With 1.0 the scaled times of a slow
# phase stay about 10% above those of a fast one.
PROBE_EXPONENT = 1.2

# The headline experiment (the package defaults, pinned here so that a change
# of defaults does not silently change the workload) with one replicate.
HEADLINE = {
    "model": {"type": "fvbm", "p": 2},
    "theta_star": [0.5, 1.0, 0.5],
    "half_width": 3.0,
    "n_values": [100, 1000, 10000],
    "m_values": [2, 4],
    "schedule": {"kind": "harmonic", "eta0": 25.0, "exponent": 1.0},
    "iterations": 1000,
    "burn_in": 50,
    "gamma": 0.45,
    "seeds": [0],
    "grid_per_axis": 9,
    "tail_fraction": 0.1,
    "exact_step_checks": True,
}
# Half-width 1.25 admits m = 16 with a positive drift coefficient, so every
# check of `diagnose` applies; the long chain makes sampling dominate `run`.
LONG_CHAIN = dict(
    HEADLINE,
    half_width=1.25,
    n_values=[1000, 10000],
    m_values=[16],
    seeds=[0, 1],
    exact_step_checks=False,
)
# FVBM p=3: 8 states, dim 6; 4 points per axis is 4096 grid points.
P3 = dict(
    HEADLINE,
    model={"type": "fvbm", "p": 3},
    theta_star=[0.5, 0.2, 1.0, 0.3, 0.1, 0.5],
    half_width=1.25,
    n_values=[1000],
    m_values=[16],
    grid_per_axis=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cdanneal subcommand
    config: dict  # for `diagnose`, the config of the stored run it re-checks
    first_call: str  # harness name whose first call ends set-up
    work_name: str  # what work_per_s counts, as named in the output

    @property
    def cells(self) -> int:
        c = self.config
        return len(c["n_values"]) * len(c["m_values"]) * len(c["seeds"])

    @property
    def work_units(self) -> int:
        if self.command == "verify":
            p = self.config["model"]["p"]
            return self.config["grid_per_axis"] ** (p * (p + 1) // 2)
        return self.cells * self.config["iterations"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run_headline", "run", HEADLINE, "run_cd", "cd_updates_per_s"),
        Workload("run_long_chain", "run", LONG_CHAIN, "run_cd", "cd_updates_per_s"),
        Workload("diagnose_long_chain", "diagnose", LONG_CHAIN, "drift_report", "verified_steps_per_s"),
        Workload("verify_p3", "verify", P3, "compute_grid_bounds", "grid_points_per_s"),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
PER_LAYER_UNITS = {
    "learner.updates": "count",
    "learner.frozen_frac": "frac",
    "learner.run_cd_s": "s",
    "learner.cd_gradient_self_s": "s",
    "learner.advance_counts_s": "s",
    "learner.advance_counts_calls": "count",
    "learner.counter_rng_s": "s",
    "learner.us_per_update": "us",
    "kernel.builds": "count",
    "kernel.builds_per_update": "count",
    "kernel.build_s": "s",
    "kernel.power_calls": "count",
    "kernel.power_s": "s",
    "kernel.spectral_gap_s": "s",
    "kernel.zeta_s": "s",
    "kernel.stat_table_s": "s",
    "model.calls": "count",
    "model.self_s": "s",
    "oracle.grid_bounds_s": "s",
    "oracle.grid_points": "count",
    "oracle.mle_calls": "count",
    "oracle.mle_s": "s",
    "oracle.mle_newton_iters": "count",
    "oracle.mle_nonexistent": "count",
    "oracle.sample_s": "s",
    "oracle.constraints_s": "s",
    "oracle.checks_passed_frac": "frac",
    "diagnostics.drift_s": "s",
    "diagnostics.martingale_s": "s",
    "diagnostics.bias_s": "s",
    "diagnostics.occupancy_s": "s",
    "diagnostics.exact_evals": "count",
    "diagnostics.exact_evals_per_step": "count",
    "diagnostics.exact_eval_us": "us",
    "diagnostics.violations": "count",
    "diagnostics.applicable_frac": "frac",
    "harness.self_s": "s",
    "harness.bytes_written": "bytes",
    "harness.files_written": "count",
    "harness.cells": "count",
    "cli.import_s": "s",
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The package cannot be imported from this checkout."""


# ----------------------------------------------------------------------
# outputs: digests and correctness gates
# ----------------------------------------------------------------------


def file_digests(root: Path) -> dict:
    """sha256 and size of every file under root, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            out[path.relative_to(root).as_posix()] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def tree_digest(files: dict) -> str:
    h = hashlib.sha256()
    for rel, (sha, _) in sorted(files.items()):
        h.update(f"{rel}\0{sha}\n".encode())
    return h.hexdigest()


NO_CELLS = {"cells": 0, "nonfrozen_steps": 0, "violations": 0, "applicable": 0,
            "entries": 0, "drift_runs": 0, "martingale_runs": 0}


def scan_cells(out: Path, wl: Workload) -> tuple[dict, list[str]]:
    """Invariants of every cell under out/cells, plus counts the self-check uses.

    RNG-dependent outputs are checked by invariants, not by reference
    digests: every iterate lies in the box, each trajectory has
    iterations + 1 rows, and checks whose hypotheses hold report no
    violations.  A cell without an MLE is a legitimate outcome.
    """
    cfg = wl.config
    cells = sorted((out / "cells").glob("n*_m*_s*"))
    problems = []
    if len(cells) != wl.cells:
        problems.append(f"{len(cells)} cells, expected {wl.cells}")
    summary = dict(NO_CELLS, cells=len(cells))
    for cell in cells:
        lines = (cell / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        theta_cols = [i for i, name in enumerate(header) if name.startswith("theta_")]
        hit_col = header.index("boundary_hit")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != cfg["iterations"] + 1:
            problems.append(f"{cell.name}: {len(rows)} trajectory rows")
        worst = max(abs(float(r[i])) for r in rows for i in theta_cols)
        if not worst <= cfg["half_width"]:
            problems.append(f"{cell.name}: iterate at |theta| = {worst} left the box")
        summary["nonfrozen_steps"] += sum(r[hit_col] == "0" for r in rows[:-1])
        for entry in json.loads((cell / "diagnostics.json").read_text(encoding="utf-8")):
            summary["entries"] += 1
            ran = "reason" not in entry
            summary["drift_runs"] += ran and entry["check"] == "drift"
            summary["martingale_runs"] += ran and entry["check"] == "martingale_outside_ball"
            if entry.get("hypotheses_met"):
                summary["applicable"] += 1
                summary["violations"] += entry["violations"]
    if summary["violations"]:
        problems.append(f"{summary['violations']} violations in checks whose hypotheses hold")
    return summary, problems


def lookup(doc, dotted: str):
    for key in dotted.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def check_reference(out: Path) -> list[str]:
    """RNG-free constants of `verify` against the recorded reference values."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    report = json.loads((out / "assumptions.json").read_text(encoding="utf-8"))
    problems = []
    for key, want in ref["values"].items():
        got = lookup(report, key)
        if isinstance(want, (int, float)) and not isinstance(want, bool):
            ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=ref["rtol"], abs_tol=0.0)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def check_output(out: Path, wl: Workload) -> tuple[dict, list[str]]:
    if wl.command == "verify":
        return dict(NO_CELLS), check_reference(out)
    summary, problems = scan_cells(out, wl)
    if wl.command == "diagnose":
        doc = json.loads((out / "diagnose_summary.json").read_text(encoding="utf-8"))
        if doc.get("ok") is not True or any(c["violations"] for c in doc["cells"]):
            problems.append("diagnose_summary.json does not report ok with zero violations")
    return summary, problems


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------


class Runner:
    def __init__(self, root: Path, work: Path, wl: Workload, seed: int):
        self.root, self.work, self.wl, self.seed = root, work, wl, seed
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(wl.config, indent=2), encoding="utf-8")

    def child(self, extra: list[str], log_name: str) -> int:
        with open(self.work / log_name, "w", encoding="utf-8") as log:
            cmd = [sys.executable, str(CHILD), *extra]
            return subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                timeout=REP_TIMEOUT_S,
            ).returncode

    def warm_up(self) -> dict:
        """Import the package once (compiles bytecode) and record the environment."""
        env_path = self.work / "env.json"
        if self.child(["--env", str(env_path)], "env.log") != 0:
            raise BenchError(f"cannot import cdanneal from {self.root / 'src'}; see {self.work / 'env.log'}")
        return json.loads(env_path.read_text(encoding="utf-8"))

    def cli_argv(self, command: str, out: Path) -> list[str]:
        if command == "diagnose":
            return ["diagnose", "--out", str(out)]
        return [command, "--config", str(self.config_path), "--out", str(out),
                "--seed", str(self.seed), "--workers", "1"]

    def once(self, tag: str, command: str, out: Path, first_call: str, trace: bool) -> dict:
        result_path = self.work / f"{tag}.json"
        extra = ["--result", str(result_path), "--first-call", first_call]
        if trace:
            extra += ["--trace", str(self.work / "spans.json")]
        argv = self.cli_argv(command, out)
        t_spawn = time.monotonic()
        try:
            self.child([*extra, "--spawned", repr(t_spawn), "--", *argv], f"{tag}.log")
        except subprocess.TimeoutExpired:
            return {"rc": None, "timed_out": True, "problems": [f"timed out after {REP_TIMEOUT_S} s"]}
        if not result_path.exists():
            return {"rc": None, "problems": [f"no result; see {tag}.log"]}
        res = json.loads(result_path.read_text(encoding="utf-8"))
        res["problems"] = [] if res["rc"] == 0 else [f"exit code {res['rc']}; see {tag}.log"]
        if res["t_first_call"] is None:
            res["problems"].append(f"cdanneal.harness.{first_call} was never called")
        if not any(end <= res["t_end"] for end, _ in res["probe"]):
            res["problems"].append("the speed probe took no sample")
        return res

    def build_fixture(self) -> dict:
        """Store the run that `diagnose` re-checks, before any timing starts."""
        fixture = self.work / "fixture"
        res = self.once("fixture", "run", fixture, "run_cd", trace=False)
        problems = list(res["problems"])
        summary = {}
        if not problems:
            summary, problems = scan_cells(fixture, self.wl)
        files = file_digests(fixture) if fixture.exists() else {}
        return {
            "path": fixture,
            "files": files,
            "digest": tree_digest(files),
            "nonfrozen_steps": summary.get("nonfrozen_steps"),
            "problems": problems,
        }


def measure(runner: Runner, wl: Workload, seconds: float, trace: bool, fixture: dict | None, log) -> list[dict]:
    """Repeat the workload until `seconds` have passed; gate every repetition."""
    reps = []
    reference_digest = None
    start = time.monotonic()
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS
    out = runner.work / "out"
    took = []  # seconds per repetition, gates included
    # Start another repetition only if a typical one still fits the window.
    while len(reps) < min_reps or time.monotonic() - start + statistics.median(took) <= seconds:
        t_rep = time.monotonic()
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        before = {}
        if fixture is not None:
            shutil.copytree(fixture["path"], out)  # diagnose rewrites files in place
            before = fixture["files"]
        res = runner.once(f"rep{len(reps)}", wl.command, out, wl.first_call, traced)
        res["traced"] = traced
        if not res["problems"]:
            summary, problems = check_output(out, wl)
            res["output"] = summary
            res["problems"] += problems
            files = file_digests(out)
            res["digest"] = tree_digest(files)
            res["output_bytes"] = sum(
                size for rel, (sha, size) in files.items() if before.get(rel, (None,))[0] != sha
            )
            reference_digest = reference_digest or res["digest"]
            if res["digest"] != reference_digest:
                res["problems"].append("outputs differ from the first repetition at the same seed")
            if traced:
                res["problems"] += self_check(res, wl)
        reps.append(res)
        took.append(time.monotonic() - t_rep)
        status = "ok" if not res["problems"] else "FAILED: " + "; ".join(res["problems"])
        if not res["problems"]:
            res["scaled_wall_s"], res["scaled_setup_s"] = scaled_times(res)
            status += f", wall {res['t_end'] - res['t_spawned']:.3f} s, scaled {res['scaled_wall_s']:.3f} s"
        log(f"rep {len(reps) - 1}{' traced' if traced else ''}: {took[-1]:.3f} s, {status}")
        if res.get("timed_out"):
            break  # a hung program would keep the run past its time limit
    shutil.rmtree(out, ignore_errors=True)
    return reps


def self_check(res: dict, wl: Workload) -> list[str]:
    """Traced counts must equal the arithmetic of the workload and its outputs."""
    layers, facts, summary = res["layers"], res["facts"], res["output"]
    iterations = wl.config["iterations"]
    problems = []
    want_updates = summary["cells"] * iterations if wl.command == "run" else 0
    if layers["learner.updates"] != want_updates:
        problems.append(f"self-check: learner.updates {layers['learner.updates']} != cells x iterations {want_updates}")
    reports = summary["drift_runs"] + summary["martingale_runs"]
    traced_reports = facts.get("drift", 0) + facts.get("martingale", 0)
    if traced_reports != reports:
        problems.append(f"self-check: {traced_reports} traced reports, outputs show {reports}")
    if layers["diagnostics.exact_evals"] != iterations * reports:
        problems.append(
            f"self-check: diagnostics.exact_evals {layers['diagnostics.exact_evals']} "
            f"!= steps x reports {iterations * reports}"
        )
    return problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def scaled_times(r: dict) -> tuple[float, float]:
    """(wall, setup) of a repetition in seconds at the reference speed."""
    probe = [(end, took) for end, took in r["probe"] if end <= r["t_end"]]
    # The harmonic mean of the snippet times is the reciprocal of the mean speed.
    scale = (PROBE_REF_S * statistics.fmean(1.0 / took for _, took in probe)) ** PROBE_EXPONENT
    wall = r["t_end"] - r["t_spawned"] - sum(took for _, took in probe)
    setup = r["t_first_call"] - r["t_spawned"] - sum(took for end, took in probe if end <= r["t_first_call"])
    return wall * scale, setup * scale


def end_to_end(reps: list[dict], wl: Workload) -> dict:
    rows = {name: [] for name in END_TO_END_UNITS}
    for r in reps:
        wall, setup = scaled_times(r)
        rows["wall_s"].append(wall)
        rows["setup_s"].append(setup)
        rows["work_per_s"].append(wl.work_units / (wall - setup))
        rows["peak_rss_mb"].append(r["maxrss_kb"] / 1024.0)
        rows["output_mb"].append(r["output_bytes"] / 1e6)
    return rows


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    rows = {name: [] for name in PER_LAYER_UNITS}
    for r in traced:
        for name, value in r["layers"].items():
            rows[name].append(value)
        s = r["output"]
        rows["harness.cells"].append(s["cells"])
        rows["diagnostics.violations"].append(s["violations"])
        rows["diagnostics.applicable_frac"].append(s["applicable"] / s["entries"] if s["entries"] else 0.0)
    rows["cli.import_s"] = [r["import_s"] for r in traced + untraced]
    traced_wall = statistics.median(scaled_times(r)[0] for r in traced)
    untraced_wall = statistics.median(scaled_times(r)[0] for r in untraced)
    rows["trace.overhead_frac"] = [traced_wall / untraced_wall - 1.0]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cdanneal end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "cdanneal" / "__init__.py").is_file():
        print(f"bench: no cdanneal sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = root / ".bench_work" / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def log(line: str) -> None:
        print(line, flush=True)

    runner = Runner(root, work, wl, args.seed)
    try:
        env = runner.warm_up()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    log(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    log("env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))

    fixture = None
    if wl.command == "diagnose":
        fixture = runner.build_fixture()
        log(f"fixture digest {fixture['digest']} nonfrozen_steps {fixture['nonfrozen_steps']}")
        if fixture["problems"]:
            print("bench: the stored run failed: " + "; ".join(fixture["problems"]), file=sys.stderr)
            return 1

    reps = measure(runner, wl, args.seconds, trace, fixture, log)
    good = [r for r in reps if not r["problems"]]
    attempted, failed = len(reps), len(reps) - len(good)

    if trace:
        traced = [r for r in good if r["traced"]]
        untraced = [r for r in good if not r["traced"]]
        if not traced or not untraced:
            print("bench: no passing traced and untraced repetitions", file=sys.stderr)
            return 1
        rows, units = per_layer(traced, untraced), PER_LAYER_UNITS
    else:
        if not good:
            print("bench: no passing repetition", file=sys.stderr)
            return 1
        rows, units = end_to_end(good, wl), END_TO_END_UNITS

    metrics = {}
    for name, values in rows.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": units[name]}
        alias = f" ({wl.work_name})" if name == "work_per_s" else ""
        log(f"{name}{alias} median {value:.6g} {units[name]} {spread(values)}")
    log(f"ops_failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} repetitions)")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": wl.config,
        "env": env,
        "fixture": None if fixture is None else {
            "digest": fixture["digest"], "nonfrozen_steps": fixture["nonfrozen_steps"]},
        "reps": reps,
        "metrics": metrics,
        "ops_failed_frac": failed / attempted,
    }
    (work / "results.json").write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    shutil.rmtree(work / "fixture", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
