"""One fresh interpreter running one workload; run.py starts it.

    worker.py ROOT WORKLOAD SEED SECONDS TRACE TINY

run.py puts ROOT/src on PYTHONPATH.  Set-up (importing hintlock and
generating the inputs) ends at the time printed as `setup_done`, on the
system-wide monotonic clock.  SECONDS = 0 stops there.  Otherwise whole
batches run until the next one would end after SECONDS; with TRACE=1,
untraced and traced batches alternate.  The last stdout line is one JSON
object with job times, counts, failures and peak memory.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads  # imports hintlock
from calibrate import kernel_probe, kernel_seconds


def run_batch(jobs, ctx, reference, stats) -> float:
    """Run every job once, then check each result; returns the batch wall time.

    The calibration kernel runs before the first job and after each one.
    Each job's time is recorded in kernel units: divided by the mean of the
    two kernel runs around it."""
    results, times = [], []
    t_batch = time.perf_counter()
    kernel = [kernel_seconds()]
    for job in jobs:
        t0 = time.perf_counter()
        try:
            results.append((job.run(ctx), None))
        except Exception:
            results.append((None, traceback.format_exc(limit=3)))
        times.append(time.perf_counter() - t0)
        kernel.append(kernel_seconds())
    wall = time.perf_counter() - t_batch
    if ctx.tracer is None:
        stats["job_units"].append([t / (0.5 * (a + b)) for t, a, b in zip(times, kernel, kernel[1:])])
    else:
        ctx.tracer.uninstall()  # checks run on the program's own bindings
    for job, (result, error) in zip(jobs, results):
        stats["attempted"] += 1
        if error is None:
            try:
                values, problems = job.check(result)
            except Exception:
                values, problems = [], [traceback.format_exc(limit=3)]
            if reference is not None:
                problems += workloads.reference_problems(values, reference.get(job.key))
        else:
            problems = [error]
        if problems:
            stats["failed"] += 1
            stats["failures"].append(f"{job.key}: {problems[0]}")
    return wall


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool, tiny: bool, tmp: Path) -> dict:
    jobs = workloads.WORKLOADS[name](seed, tiny, tmp)
    setup_done = time.monotonic()
    setup_kernel_s = kernel_probe()
    if seconds == 0:
        return {"setup_done": setup_done, "setup_kernel_s": setup_kernel_s}
    source = Path(workloads.hl.__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        raise SystemExit(f"hintlock imported from {source}, not from the checkout")

    reference = None
    if seed == workloads.DEFAULT_SEED and not tiny:
        reference = workloads.load_reference().get(name, {})
    stats = {"attempted": 0, "failed": 0, "failures": [], "job_units": []}
    plain, traced = [], []
    ctx = workloads.Context(root, tmp)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        start = time.perf_counter()
        while True:
            ctx.tracer = None
            plain.append(run_batch(jobs, ctx, reference, stats))
            if tracer is not None:
                ctx.tracer = tracer
                tracer.install()
                traced.append(run_batch(jobs, ctx, reference, stats))
            step = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
            if time.perf_counter() - start + step > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    who = resource.RUSAGE_CHILDREN if name in workloads.RSS_OF_CHILDREN else resource.RUSAGE_SELF
    out = {
        "setup_done": setup_done,
        "setup_kernel_s": setup_kernel_s,
        "batch_times": plain,
        "job_units": stats["job_units"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "failures": stats["failures"][:20],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_stats(len(traced))
        out["layers"]["trace.overhead_s"] = min(traced) - min(plain)
        out["absent"] = tracer.absent
        out["import_samples"] = ctx.import_samples
    return out


def main() -> None:
    root, name, seed, seconds = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    trace, tiny = sys.argv[5] == "1", sys.argv[6] == "1"
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    try:
        out = measure(root, name, seed, seconds, trace, tiny, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
