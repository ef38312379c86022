"""Benchmark command for mpmue.

    python3 benchmarks/run.py --workload {verify,counts,paths,fit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics: set-up time
(the median of SETUP_RUNS fresh interpreters), the mean CPU time of an op
and the peak resident set.  With ``--trace 1`` it prints the
per-layer metrics of a traced run instead, plus the import-time breakdown
from ``python -X importtime``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Each workload runs in its own worker process (``worker.py``), one op at a
time.  Scratch files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("verify", "counts", "paths", "fit")
# Fresh interpreters per run whose set-up time is measured; the median is reported.
SETUP_RUNS = 3
IMPORT_RUNS = 3
IMPORTS = {
    "import.mpmue_ms": "mpmue",
    "import.scipy_integrate_ms": "scipy.integrate",
    "import.scipy_optimize_ms": "scipy.optimize",
    "import.scipy_special_ms": "scipy.special",
}
# Whole-run limit, kept below the 180 s a run may take.
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    # One op at a time on one core: no BLAS or OpenMP thread pools, and no
    # verify tolerance override from the caller's environment.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MPMUE_TOL", None)
    return env


class Runner:
    def __init__(self):
        self.started = time.monotonic()

    def call(self, args: list[str]) -> tuple[float, str, str]:
        """Run a fresh interpreter; return the monotonic time it was started,
        its stdout and its stderr.  Exits the benchmark if it fails."""
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            sys.exit("benchmark: out of time")
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                cwd=ROOT,
                env=worker_env(),
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            sys.exit(f"benchmark: {' '.join(args)} ran past the deadline")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"benchmark: {' '.join(args)} exited with {proc.returncode}")
        return t_spawn, proc.stdout, proc.stderr

    def worker(self, mode: str, workload: str, seed: int, seconds: float) -> dict:
        script = os.path.join(HERE, "worker.py")
        t_spawn, out, err = self.call([script, mode, workload, str(seed), str(seconds), SCRATCH])
        sys.stderr.write(err)
        lines = out.strip().splitlines()
        if not lines:
            sys.exit("benchmark: worker printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = result["t_first"] - t_spawn
        return result

    def import_times(self) -> dict:
        """Cumulative import time of each module in IMPORTS, median over fresh interpreters."""
        code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import mpmue"
        samples = {name: [] for name in IMPORTS}
        for _ in range(IMPORT_RUNS):
            _, _, err = self.call(["-X", "importtime", "-c", code])
            cumulative = {}
            for line in err.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]))
            for name, module in IMPORTS.items():
                # A module that mpmue no longer imports at start-up costs nothing there.
                samples[name].append(cumulative.get(module, 0) / 1000.0)
        return {name: {"value": statistics.median(v), "unit": "ms"} for name, v in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mpmue", "__init__.py")):
        sys.exit(f"benchmark: no mpmue sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(SCRATCH, exist_ok=True)

    runner = Runner()
    if args.trace:
        main_run = runner.worker("trace", args.workload, args.seed, args.seconds)
        metrics = {**runner.import_times(), **main_run["metrics"]}
    else:
        main_run = runner.worker("run", args.workload, args.seed, args.seconds)
        setups = [main_run["setup_s"]]
        setups += [
            runner.worker("setup", args.workload, args.seed, args.seconds)["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **main_run["metrics"],
        }
    print(
        json.dumps(
            {
                "correct": main_run["correct"],
                "attempted": main_run["attempted"],
                "failed": main_run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
