"""One benchmark repetition in a fresh interpreter.

Usage:
    python3 bench/child.py --result R.json --spawned T0 --first-call NAME
                           [--trace SPANS.json] -- <cdanneal argv...>
    python3 bench/child.py --env ENV.json

The first form runs ``cdanneal.cli.main(argv)`` once and writes its
timestamps to R.json.  ``T0`` is the parent's ``time.monotonic()`` just
before it started this interpreter (CLOCK_MONOTONIC is shared by every
process on Linux), so the wall time includes interpreter start-up.  Set-up
ends at the first call of ``cdanneal.harness.<NAME>``, the workload's first
per-cell function.  With ``--trace`` the outside-in tracer wraps every layer
boundary and its spans go to SPANS.json.  From the end of the import on,
a speed probe times a fixed snippet every 50 ms; its samples go to R.json
too (see SpeedProbe).

The second form imports the package and records the environment.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class SpeedProbe:
    """Times a fixed snippet every PERIOD_S seconds while the command runs.

    The host's speed moves by up to 2x from second to second with the load
    of other tenants.  The snippet runs in this process, on the same CPU and
    in the same seconds as the command, so its times measure the speed the
    command ran at, and run.py scales the command's times to a fixed
    reference speed.  It uses numpy and builtins only, never cdanneal,
    so a change of the package cannot move it.
    """

    PERIOD_S = 0.05
    ROUNDS = 20

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.rng = np.random.default_rng(0)  # its own stream; the command's is untouched
        self.p = np.linspace(0.1, 1.0, 8)
        self.a = np.outer(self.p, self.p) + np.eye(8)
        self.samples: list[tuple[float, float]] = []  # (end, seconds) per snippet

    def snippet(self, signum, frame) -> None:
        np, p, a = self.np, self.p, self.a
        t0 = time.monotonic()
        for _ in range(self.ROUNDS):
            e = np.exp(p - p.max())
            e /= e.sum()
            self.rng.multinomial(100, e)
            v = a @ e
            np.linalg.eigvalsh(a)
            sorted({k: float(v[k]) for k in range(8)}.items(), key=lambda kv: kv[1])
        t1 = time.monotonic()
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.snippet)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def write_env(path: str) -> None:
    import numpy as np

    import cdanneal

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cdanneal": cdanneal.__version__,
        "cdanneal_path": os.path.relpath(os.path.dirname(cdanneal.__file__)),
        "machine": platform.machine(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)


def run(args) -> int:
    t_import = time.monotonic()
    import cdanneal.cli
    from cdanneal import harness

    t_imported = time.monotonic()
    first_call = []
    orig = getattr(harness, args.first_call)

    def first_call_hook(*a, **kw):
        if not first_call:
            first_call.append(time.monotonic())
        return orig(*a, **kw)

    setattr(harness, args.first_call, first_call_hook)
    tracer = None
    if args.trace:
        from tracer import Tracer  # bench/ is on sys.path as the script's directory

        tracer = Tracer()
        tracer.install()

    probe = SpeedProbe()
    probe.start()
    try:
        rc = cdanneal.cli.main(args.argv)
    except Exception:
        traceback.print_exc()
        rc = 1
    t_end = time.monotonic()
    probe.stop()
    result = {
        "rc": rc,
        "t_spawned": args.spawned,
        "t_start": T_START,
        "import_s": t_imported - t_import,
        "t_first_call": first_call[0] if first_call else None,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe": probe.samples,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["facts"] = dict(tracer.facts)
        result["unwrapped"] = tracer.missing
        tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--env")
    parser.add_argument("--result")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--first-call")
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.env:
        write_env(args.env)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
