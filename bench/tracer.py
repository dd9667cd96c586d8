"""Outside-in tracer for one benchmark repetition.

The tracer never edits the package.  It replaces names in the namespace of
the module that *calls* them, because ``from .kernel import
build_gibbs_random_scan`` binds a copy of the function in the caller:
patching ``cdanneal.kernel`` alone would miss every call made through
``cdanneal.diagnostics`` or ``cdanneal.oracle``.

Spans (name, start, end, parent) stay in memory and are written once, when
the repetition ends.  A span's self time is its duration minus the time of
its child spans; a layer's self time is the sum over the spans named after
it (``<layer>.<what>``).

Known blind spot: ``kernel_builder=build_gibbs_random_scan`` is a default
argument of ``cd_gradient``, ``cd_step``, ``run_cd`` and ``m_step_stat_rows``,
bound when those functions were defined, so no namespace patch reaches it.
A ``learner.cd_gradient`` or ``kernel.stat_rows`` span without a
``kernel.build`` child therefore counts as one kernel build, and the time of
that build stays in the caller's self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Spans whose kernel builds happen once per trajectory step.
STEP_ROOTS = ("learner.run_cd", "diagnostics.drift_report", "diagnostics.martingale_report")
# Spans that build a kernel through the unpatchable default argument.
IMPLICIT_BUILDERS = ("learner.cd_gradient", "kernel.stat_rows")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.errors: dict[int, str] = {}
        self.facts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` with a version that records a span per call."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        names, start, end, parent = self.names, self.start, self.end, self.parent
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary of the cdanneal package."""
        from cdanneal import cli, diagnostics, harness, kernel, learner, oracle

        wrap, facts = self.wrap, self.facts

        def count_write(args, _):
            facts["bytes_written"] += len(args[1].encode("utf-8"))
            facts["files_written"] += 1

        def count_run(_, traj):
            facts["updates"] += traj.steps
            facts["frozen"] += int(traj.boundary_hits[: traj.steps].sum())

        def count_grid(args, bounds):
            facts["grid_points"] += bounds.grid_per_axis ** args[1].dim

        def count_newton(_, result):
            facts["newton_iters"] += result.iterations

        def count_check(_, check):
            facts["checks"] += 1
            facts["checks_passed"] += int(bool(check.passed))

        def count_report(key):
            def counter(_, report):
                facts[key] += 1
                facts[key + "_steps"] += len(report.t)

            return counter

        for fn in ("run_experiment", "verify_assumptions", "rate_sweep", "diagnose_run"):
            wrap(cli, fn, "harness." + fn)
        wrap(harness, "_write", "harness.write", count_write)

        wrap(harness, "run_cd", "learner.run_cd", count_run)
        for fn in ("counter_rng", "cd_step", "cd_gradient", "advance_counts"):
            wrap(learner, fn, "learner." + fn)

        for module in (diagnostics, oracle, kernel):
            wrap(module, "build_gibbs_random_scan", "kernel.build")
        for module in (diagnostics, kernel):
            wrap(module, "kernel_power", "kernel.power")
        wrap(oracle, "spectral_gap", "kernel.spectral_gap")
        wrap(oracle, "estimate_zeta", "kernel.zeta")
        for module in (harness, oracle, diagnostics):
            wrap(module, "m_step_stat_table", "kernel.stat_table")
        wrap(kernel, "m_step_stat_rows", "kernel.stat_rows")

        for fn in ("log_partition", "state_probs", "fisher_info", "mean_parameter"):
            wrap(oracle, fn, "model." + fn)
        wrap(kernel, "state_probs", "model.state_probs")

        wrap(harness, "compute_grid_bounds", "oracle.grid_bounds", count_grid)
        wrap(harness, "mle", "oracle.mle", count_newton)
        wrap(harness, "sample_iid", "oracle.sample_iid")
        for fn in ("check_constraint_mle", "check_constraint_empirical_process"):
            wrap(harness, fn, "oracle.constraint", count_check)

        wrap(harness, "drift_report", "diagnostics.drift_report", count_report("drift"))
        wrap(harness, "martingale_report", "diagnostics.martingale_report", count_report("martingale"))
        wrap(harness, "bias_bound_grid", "diagnostics.bias_bound_grid")
        wrap(harness, "occupancy_report", "diagnostics.occupancy_report")
        wrap(diagnostics, "expected_sq_distance_after_step", "diagnostics.exact_eval")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times of this repetition, keyed by metric name."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        layer_self: Counter = Counter()
        # Parents are recorded before their children, so one pass resolves
        # whether a span runs inside a per-step root.
        in_step = [False] * n
        build_parents = set()
        for i, name in enumerate(self.names):
            p = self.parent[i]
            in_step[i] = name in STEP_ROOTS or (p >= 0 and in_step[p])
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
            if name == "kernel.build":
                build_parents.add(p)
        builds = step_builds = 0
        for i, name in enumerate(self.names):
            if name == "kernel.build" or (name in IMPLICIT_BUILDERS and i not in build_parents):
                builds += 1
                step_builds += in_step[i]

        f = self.facts
        updates = f["updates"]
        steps = max(updates, f["drift_steps"])
        evals = calls["diagnostics.exact_eval"]
        model_calls = sum(c for name, c in calls.items() if name.startswith("model."))

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "learner.updates": updates,
            "learner.frozen_frac": ratio(f["frozen"], updates),
            "learner.run_cd_s": total["learner.run_cd"],
            "learner.cd_gradient_self_s": own["learner.cd_gradient"],
            "learner.advance_counts_s": total["learner.advance_counts"],
            "learner.advance_counts_calls": calls["learner.advance_counts"],
            "learner.counter_rng_s": total["learner.counter_rng"],
            "learner.us_per_update": ratio(total["learner.run_cd"] * 1e6, updates),
            "kernel.builds": builds,
            "kernel.builds_per_update": ratio(step_builds, steps),
            "kernel.build_s": total["kernel.build"],
            "kernel.power_calls": calls["kernel.power"],
            "kernel.power_s": total["kernel.power"],
            "kernel.spectral_gap_s": total["kernel.spectral_gap"],
            "kernel.zeta_s": total["kernel.zeta"],
            "kernel.stat_table_s": total["kernel.stat_table"],
            "model.calls": model_calls,
            "model.self_s": layer_self["model"],
            "oracle.grid_bounds_s": total["oracle.grid_bounds"],
            "oracle.grid_points": f["grid_points"],
            "oracle.mle_calls": calls["oracle.mle"],
            "oracle.mle_s": total["oracle.mle"],
            "oracle.mle_newton_iters": f["newton_iters"],
            "oracle.mle_nonexistent": sum(
                1 for i, e in self.errors.items()
                if e == "MleNonexistenceError" and self.names[i] == "oracle.mle"
            ),
            "oracle.sample_s": total["oracle.sample_iid"],
            "oracle.constraints_s": total["oracle.constraint"],
            "oracle.checks_passed_frac": ratio(f["checks_passed"], f["checks"]),
            "diagnostics.drift_s": total["diagnostics.drift_report"],
            "diagnostics.martingale_s": total["diagnostics.martingale_report"],
            "diagnostics.bias_s": total["diagnostics.bias_bound_grid"],
            "diagnostics.occupancy_s": total["diagnostics.occupancy_report"],
            "diagnostics.exact_evals": evals,
            "diagnostics.exact_evals_per_step": ratio(evals, steps),
            "diagnostics.exact_eval_us": ratio(total["diagnostics.exact_eval"] * 1e6, evals),
            "harness.self_s": layer_self["harness"],
            "harness.bytes_written": f["bytes_written"],
            "harness.files_written": f["files_written"],
        }

    def dump(self, path) -> None:
        """Write the spans as one JSON document: a name table plus rows."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        rows = [
            [index[name], self.start[i], self.end[i], self.parent[i]]
            for i, name in enumerate(self.names)
        ]
        doc = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "names": table,
            "spans": rows,
            "errors": {str(i): e for i, e in self.errors.items()},
            "facts": dict(self.facts),
            "unwrapped": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
