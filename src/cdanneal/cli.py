"""Command line entry points.

Subcommands: ``run`` (experiment grid), ``verify`` (assumption and constant
report), ``rate`` (sweep plus log-log fit), ``diagnose`` (recheck stored
trajectories).  Exit codes: 0 success, 2 configuration error, 3 failed
acceptance verdict in ``rate`` or ``diagnose``.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, RunConfig, default_config
from .harness import diagnose_run, rate_sweep, run_experiment, verify_assumptions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKS = 3


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return default_config()
    return RunConfig.from_file(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdanneal",
        description="Contrastive divergence with annealed step sizes: runs, "
        "assumption checks, rate fits and trajectory diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration (defaults built in)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel cell workers")

    p_run = sub.add_parser("run", help="run the experiment grid and persist results")
    common(p_run)
    p_run.add_argument("--svg", action="store_true", help="also emit a convergence chart")

    p_verify = sub.add_parser("verify", help="report assumption checks and constants")
    common(p_verify)

    p_rate = sub.add_parser("rate", help="sweep sample sizes and fit the error rate")
    common(p_rate)

    p_diag = sub.add_parser("diagnose", help="recheck diagnostics for a stored run")
    p_diag.add_argument("--out", required=True, help="existing run directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _load_config(args.config)
            run_experiment(
                config, args.out, master_seed=args.seed, workers=args.workers, svg=args.svg
            )
            return EXIT_OK
        if args.command == "verify":
            config = _load_config(args.config)
            verify_assumptions(config, out_dir=args.out)
            return EXIT_OK
        if args.command == "rate":
            config = _load_config(args.config)
            result = rate_sweep(config, args.out, master_seed=args.seed, workers=args.workers)
            if not result.ok:
                print("rate verdict failed; see rate/rate_fit.json", file=sys.stderr)
                return EXIT_CHECKS
            return EXIT_OK
        if args.command == "diagnose":
            result = diagnose_run(args.out)
            if not result.ok:
                print("diagnostics recorded violations; see diagnose_summary.json", file=sys.stderr)
                return EXIT_CHECKS
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
