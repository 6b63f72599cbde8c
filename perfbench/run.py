"""hintlock benchmark: run one workload from a source checkout and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout (the directory holding `src/hintlock`).
Every measurement happens in fresh interpreters started with the checkout's
`src` on PYTHONPATH.  With `--trace 0` the last stdout line is a JSON object
with the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
of a traced run.  `--tiny` shrinks every input, for the benchmark's own tests.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, kernel_probe

HERE = Path(__file__).resolve().parent
WORKLOADS = ("twohint-eve", "scheme-sweep-exact", "rd-exponent", "cli-cold")
SETUP_REPEATS = 5  # fresh interpreters per run whose set-up time is measured
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
    "jobs_ok_share": "share",
}


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first, hintlock's thread pool off, single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items() if k != "HINTLOCK_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(root: Path, args, setup_only: bool, trace: bool) -> tuple[dict, float, str]:
    """Run worker.py to completion; returns (its result, its set-up time, its stderr).

    The set-up time is in kernel units: seconds divided by the mean of the
    calibration kernel's time just before the launch and just after set-up."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [
        str(HERE / "worker.py"),
        str(root),
        args.workload,
        str(args.seed),
        "0" if setup_only else str(args.seconds),
        "1" if trace else "0",
        "1" if args.tiny else "0",
    ]
    kernel_before = kernel_probe()
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=root, env=child_env(root), capture_output=True, text=True, timeout=60 + 4 * args.seconds
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker for {args.workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    kernel = 0.5 * (kernel_before + result["setup_kernel_s"])
    return result, (result["setup_done"] - launched) / kernel, proc.stderr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "hintlock" / "__init__.py").is_file():
        print("perfbench: run from the root of a hintlock checkout (no src/hintlock here)", file=sys.stderr)
        return 2
    # Every process of the run shares one core, so that the calibration kernel
    # times the core that runs the work, also for cli-cold's child processes.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.trace:
        from tracing import median_imports, parse_importtime, per_layer_units

        result, _, stderr = start_worker(root, args, setup_only=False, trace=True)
        samples = result["import_samples"] or [parse_importtime(stderr)]
        values = {**result["layers"], **median_imports(samples)}
        units = per_layer_units()
        if result["absent"]:
            print("perfbench: absent (reported as 0): " + ", ".join(result["absent"]))
    else:
        # Set-up-only interpreters run before and after the measuring one, so
        # that the set-up median samples the machine at both ends of the run.
        setups = []
        for k in range(SETUP_REPEATS):
            if k == SETUP_REPEATS // 2:
                result, setup_s, _ = start_worker(root, args, setup_only=False, trace=False)
            else:
                _, setup_s, _ = start_worker(root, args, setup_only=True, trace=False)
            setups.append(setup_s)
        # Times are medians of kernel units, scaled to seconds of a machine on
        # which the calibration kernel takes REFERENCE_S (see calibrate.py).
        per_job = [statistics.median(reps) * REFERENCE_S for reps in zip(*result["job_units"])]
        values = {
            "setup_s": statistics.median(setups) * REFERENCE_S,
            "wall_s": sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "peak_rss_mb": result["peak_rss_mb"],
            "jobs_ok_share": 1.0 - result["failed"] / result["attempted"],
        }
        units = END_TO_END_UNITS
        print(
            f"perfbench: {args.workload} seed={args.seed}: {len(result['batch_times'])} batches, "
            f"{len(per_job)} jobs per batch, {len(setups)} set-ups"
        )
    for failure in result["failures"]:
        print(f"perfbench: failed job {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
