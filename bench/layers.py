"""Per-layer records: the builders, the kernels, the oracles and whole cold
processes (end to end), timed on two commits in perfbench reference seconds.

    python bench/layers.py --base HEAD~1 --change HEAD --out BENCH_builders.json
    python bench/layers.py --base HEAD --change . --out BENCH_builders.json  # the working tree
    python bench/layers.py --layer kernels --base HEAD~1 --change HEAD --out BENCH_kernels.json
    python bench/layers.py --layer oracles --base HEAD~1 --change HEAD --out BENCH_oracles.json
    python bench/layers.py --layer e2e --base HEAD~1 --change HEAD --out BENCH_e2e.json

Run it from the root of the repository.  Each commit's tree is exported with
`git archive` into a temporary directory (`.`: a copy of the working tree's
files that git tracks or would add, so neither side runs on bytecode left in
the tree) and measured by fresh interpreters, base and change alternating, each
pinned to one core like `perfbench/run.py` and with that tree's `src` first on
its path.  The sources are those of the benchmark's scheme-sweep-exact
workload: three seeded 16x32 rational joints.  Per builder, four stages are
timed on a new scheme each time, and a fifth for the delta-disk scheme:

- `fresh_build`: the builder call on a new `JointPmf` copy of the source, made
  untimed just before, so the source-side work a first build pays (support,
  numerators, ranks, where a tree keeps them on the source) stays in view;
- `build`: the builder call on the one source object, whose kept state is
  warm from the second call on;
- `checks` (delta-disk only): its structure checks, `check_reconstruction`
  and `check_eta_independence`, right after the build;
- `views`: reading the scheme's cached cell views (Bob, Eve, and the eve-list
  scheme's no-hint view);
- `first_rho`: the scheme's verifier at rho = 1, which pays for the
  rho-independent preparation as well as for one rho.

Every stage runs between two runs of perfbench's calibration kernel and is
reported as seconds / kernel seconds * REFERENCE_S (see perfbench/calibrate.py),
summed over the three sources; the file keeps the median and quartiles over
all repetitions of each commit.

The kernels layer (`--layer kernels`) times one call of each moment kernel at
rho = 1 on two inputs: the same three sources (summed) and a seeded 6x3
rational table.  Each kernel runs on the source's two-hint (4, 4, 4) scheme
((2, 2, 2) on the small table) or directly on the source, repeated until the
run takes about 5 ms, and reports reference seconds per call:

- `optimal_guess_moment` over every context's masses, `ceil_moment` at
  |Z| = 4 and `list_moment` of the offset/refinement encoder (omega = 2);
- `moment_for_constant` on Eve's view, on its first use (the rank table is
  built) and prepared (the table is kept on the view);
- `support_moment` on Bob's view, and Bob's guessing moment `scheme.bob(rho)`,
  both prepared (a tree that prices Bob on the pad quotient times that view).

Two inputs time Eve's matching, `adversary.eve_exact_matching` at rho = 1 on
the two-hint (4, 4, 4) scheme of twohint-eve's first seed-1 source (96x4,
float: four 96-cell components) and of the first sweep source (16-cell
components, packed into shared calls): `eve matching first use` clears the Eve
view's memo first, so it pays for the slot graphs as well as the solves, and
`eve matching prepared` reuses them, so it pays only for rho.

A further input times the exact order search of `distortion` at m = 8
reconstructions, `brute_optimal_distortion_guessers` at rho = 1 on cli-cold's
kind of config: a binary (0.7, 0.3) source, n = 3, Hamming distortion within
Delta = 0.34.  A tree whose search ranks all 8! orders in a table and one
whose search is the subset DP time the same call.

Two more inputs time the GF(2^l) kernels of `hintlock.gf`.  On the three sweep
sources' delta-disk (4, 2, 1, 4, 2, 2) schemes (summed), built untimed:
`GenMatrix.encode` of the builder's two calls, G_V on the V symbol array
(`encode V`) and G_UW on the W symbol array padded with eta zero pad symbols
(`encode padded W`), on seeded symbols, one row per cell of the scheme's law;
and `mds_check`, the batched elimination that decides both structure rows, on
G_V, G_UW and G_UW's top eta = 1 row.  On criterion 08's largest case, `mds_check` of
`rs_generator(8, 16, field_make(4))`: 12,870 column subsets of 8 x 8.

The next input times one batched Blahut-Arimoto solve, `exponents._blahut_arimoto`,
with the arguments rd-exponent's BA_JOB job passes at seed SEED (`rd_function`'s
sweep, `exponents._FINE`: 400 iterations, tol 1e-10), recorded by running the
job once: its multiplier-grid solve (20 multipliers x 4 context slices = 80 rows) and its
first bisection solve (7 midpoints x 4 slices).  A tree whose sweep skips the
points that provably miss Delta (`exponents._misses`) records them with that
rule patched to skip nothing, so every tree times the same 80-row solve.  The last input is a
Delta = 0 solve, whose rows all stop after two iterations: the one in which
`rd_exponent_functional` on the 3x2 table ZERO_TABLE (Hamming Delta = 0,
rho = 1, 200 starts) scores all its starts (400 rows, 2,000 iterations at
most, tol 1e-13).

The oracles layer (`--layer oracles`) times Eve's exact oracle, `scheme.eve(1.0)`,
on a fresh scheme: the call pays for the scheme's Eve view, its slot graphs and
the matching, and the build is not timed.  The schemes are
`build_two_hint(random_joint(default_rng(1), nx, 4), 4, 4, 4)` for each nx in
ORACLE_SIZES (large components, one LAPJVsp call each); the two-hint
(4, 4, 4) and delta-disk (4, 2, 1, 4, 2, 2) schemes of the three sweep sources,
summed (16-cell components, which share calls); and the six two-hint guessing
schemes of the `verify-all` battery (uniform and skewed 4-symbol sources,
(cs, c1, c2) in (1, 4, 4), (2, 2, 2), (4, 1, 1), 4 x 4 hints), summed (chunks
of 4 to 16 cells, matched in the package).  Two cases time the rate-distortion
oracles on the benchmark's rd-exponent jobs at seed SEED, each job's own call:
`rd_function` on its nine sources (three binary p = 0.3 sources at
Delta = 0.05, 0.1 and 0.2, and six near-uniform 3x2 to 6x4 joints), summed;
and its functional job, `rd_exponent_functional` on a
near-uniform 3x2 joint at Delta = 0.1 and rho = 1 with eight starts and no
polish.

The end-to-end layer (`--layer e2e`) times whole cold processes: each
command of the benchmark's cli-cold workload (`python -m hintlock.cli` on its
configs at seed SEED, run from the tree's root), `python -c "import hintlock"`
and `python -c "import hintlock.cli"`; and, once per interpreter, the tree's
tier-1 suite, `python -m pytest -q -p no:cacheprovider` from its root (the
`tier-1` entry: its reference seconds, its count of passed tests and, under
`tier-1 slowest`, the reference seconds of its ten slowest `--durations`; it
writes no bytecode, so the cold processes after it still compile).  A small launcher starts each process
and reads its wall time and, by `os.wait4`, its own peak resident size; the
launcher is smaller than any of them, so the peak is the process's and not
one inherited from a large parent.  Nothing is byte-compiled first, so each
process compiles hintlock as the benchmark's do when PYTHONDONTWRITEBYTECODE
is set; the record notes that setting.

Only names that exist on both sides are timed: a builder or kernel that calls
a function one tree lacks is dropped from that tree's run, and the record lists
it under `skipped`.

The output file keeps a trajectory: a list of records, oldest first.  Each run
appends its record, which replaces every older record of the same two commits
and every older record of the same base whose change was a working tree: a
change measured before its commit and again after it keeps one record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import types
from fractions import Fraction
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RHO = 1.0
SEED = 1  # the benchmark's default seed
ORACLE_SIZES = (96, 256, 512)
BA_JOB = "cond5-6x4/D0.2"  # rd-exponent's Blahut-Arimoto kernel input: 20 multipliers x 4 slices in its grid solve
ZERO_TABLE = [[0.2, 0.1], [0.15, 0.25], [0.05, 0.25]]  # the Delta = 0 Blahut-Arimoto input: rows stop after 2 steps


def _builders(hl, twohint, disks):
    """name -> (build(joint), view attributes, verify(scheme, rho), checks(scheme) or None):
    the scheme-sweep-exact jobs.

    Every function is looked up when it is called, so a job whose functions a
    tree lacks fails alone."""
    views, two_hint = ("bob_cells", "eve_cells"), _late(hl, "verify_finite_blocklength")
    eve_views = (*views, "no_hint_cells")
    recovery, independence = _late(disks, "check_reconstruction"), _late(disks, "check_eta_independence")
    return {
        "two-hint-guessing": (lambda j: hl.build_two_hint(j, 4, 4, 4, "guessing"), views, two_hint, None),
        "two-hint-list": (lambda j: hl.build_two_hint(j, 4, 4, 4, "list"), views, two_hint, None),
        "secret-hint": (lambda j: hl.build_secret_hint(j, 4, 4), views, _late(twohint, "verify_secret_hint"), None),
        "secret-key": (lambda j: hl.build_secret_key(j, 4, 4), views, _late(twohint, "verify_secret_key"), None),
        "eve-list": (
            lambda j: hl.build_eve_list_scheme(j, 8, 8, 20), eve_views, _late(twohint, "verify_eve_list"), None
        ),
        "delta-disk": (
            lambda j: hl.build_delta_scheme(j, 4, 2, 1, 4, 2, 2),
            views,
            _late(hl, "verify_disk_theorems"),
            lambda scheme: (recovery(scheme), independence(scheme)),
        ),
    }


def _late(module, name: str):
    """`module.name`, looked up when it is called."""
    return lambda *args: getattr(module, name)(*args)


def _lacking(error: AttributeError) -> bool:
    """Whether `error` is a module-level name this tree lacks, not a fault inside a call."""
    return isinstance(error.obj, types.ModuleType)


def _kernels(hl, joint, triple) -> dict:
    """name -> one call of a kernel on `joint` or its two-hint `triple` scheme."""
    from hintlock import adversary, guessing, tasks

    scheme = hl.build_two_hint(joint, *triple)
    omega, nx = 2, len(joint.x_alphabet)
    enc = tasks.encoder_from_guessing(guessing.optimal_guesser(joint), omega, omega * tasks.s_alphabet_size(nx, omega))
    lists = tasks.decoding_lists(enc, joint)

    def first_use():
        scheme.eve_cells.memo.clear()
        return adversary.moment_for_constant(scheme.eve_cells, 0, RHO)

    return {
        "optimal_guess_moment": lambda: guessing.optimal_guess_moment(joint, RHO),
        "ceil_moment": lambda: guessing.ceil_moment(joint, 4, RHO),
        "list_moment": lambda: tasks.list_moment(lists, joint, RHO, enc),
        "moment_for_constant first use": first_use,
        "moment_for_constant prepared": lambda: adversary.moment_for_constant(scheme.eve_cells, 0, RHO),
        "support_moment": lambda: adversary.support_moment(scheme.bob_cells, RHO),
        "bob guessing moment": lambda: scheme.bob(RHO),
    }


def _eve(hl, joint) -> dict:
    """name -> one call of Eve's matching on `joint`'s two-hint (4, 4, 4) scheme at
    rho = RHO: from a view whose memo is cleared (the slot graphs built), and prepared."""
    from hintlock import adversary

    view = hl.build_two_hint(joint, 4, 4, 4).eve_cells

    def first_use():
        view.memo.clear()
        return adversary.eve_exact_matching(view, RHO)

    return {
        "eve matching first use": first_use,
        "eve matching prepared": lambda: adversary.eve_exact_matching(view, RHO),
    }


def _order_search(hl) -> dict:
    """name -> one call of the distortion order search at m = 8."""
    from hintlock import distortion

    joint = hl.JointPmf.from_marginal(hl.Pmf.of([0.7, 0.3]))
    spec = hl.DistortionSpec.hamming(joint.x_alphabet, 0.34)
    return {"order search": lambda: distortion.brute_optimal_distortion_guessers(spec, joint, 3, [RHO])}


def _gf(hl, joint) -> dict:
    """name -> one call of a GF kernel of `joint`'s delta-disk (4, 2, 1, 4, 2, 2)
    scheme: the builder's two encode calls and the structure checks' mds_check calls."""
    import numpy as np

    from hintlock.gf import mds_check

    scheme = hl.build_delta_scheme(joint, 4, 2, 1, 4, 2, 2)
    rng, rows = np.random.default_rng(SEED), len(scheme.law)
    v_sym = rng.integers(0, 1 << scheme.p, size=(rows, scheme.nu))
    w_padded = np.pad(rng.integers(0, 1 << scheme.r, size=(rows, scheme.nu - scheme.eta)), ((0, 0), (scheme.eta, 0)))
    top = scheme.g_uw.first_rows(scheme.eta)
    return {
        "encode V": lambda: scheme.g_v.encode(v_sym),
        "encode padded W": lambda: scheme.g_uw.encode(w_padded),
        "mds_check G_V": lambda: mds_check(scheme.g_v),
        "mds_check G_UW": lambda: mds_check(scheme.g_uw),
        "mds_check G_UW top row": lambda: mds_check(top),
    }


def _blahut_arimoto_solves(hl) -> tuple:
    """name -> one `_blahut_arimoto` call, with the arguments its caller passes
    (recorded by running the caller once): rd-exponent's BA_JOB job at seed SEED,
    its multiplier-grid solve and its first bisection solve; and, separately,
    the Delta = 0 solve that scores all of ZERO_TABLE's starts."""
    from unittest import mock

    import workloads

    from hintlock import exponents

    solve = exponents._blahut_arimoto

    def calls(run) -> list:
        with mock.patch.object(exponents, "_blahut_arimoto", wraps=solve) as spy:
            run()
        return [call.args for call in spy.call_args_list]

    with tempfile.TemporaryDirectory() as tmp:
        (job,) = [job for job in workloads.rd_exponent(SEED, False, Path(tmp)) if job.key == BA_JOB]
    solve_all = mock.patch.object(exponents, "_misses", lambda *args: False) if hasattr(exponents, "_misses") else None
    with solve_all or contextlib.nullcontext():
        grid, bisection = calls(lambda: job.run(None))[:2]
    joint = hl.JointPmf.of(ZERO_TABLE)
    spec = hl.DistortionSpec.hamming(joint.x_alphabet, 0.0)
    starts = hl.RdQuery(grid_points=200, polish_runs=5, polish_steps=40)
    zero = calls(lambda: hl.rd_exponent_functional(joint, spec, RHO, starts))[0]
    job_solves = {
        "blahut_arimoto grid solve": lambda: solve(*grid),
        "blahut_arimoto bisection solve": lambda: solve(*bisection),
    }
    return job_solves, {"blahut_arimoto Delta = 0 solve": lambda: solve(*zero)}


def kernels_child(reps: int) -> dict:
    """Reference seconds per call of each kernel, per input, one value per repetition."""
    import numpy as np
    from calibrate import REFERENCE_S, kernel_seconds

    import hintlock as hl
    from hintlock.gf import field_make, mds_check, rs_generator

    rng = np.random.default_rng(SEED)
    joints = [hl.random_joint(rng, 16, 32, exact=True) for _ in range(3)]
    small = _kernels(hl, hl.random_joint(np.random.default_rng(SEED), 6, 3, exact=True), (2, 2, 2))
    inputs = {"16x32 sweep sources (sum of three)": [_kernels(hl, joint, (4, 4, 4)) for joint in joints]}
    inputs["6x3 table"] = [small]
    eve = [_eve(hl, hl.random_joint(np.random.default_rng(SEED), 96, 4)), _eve(hl, joints[0])]
    inputs[f"twohint-eve's seed-{SEED} 96x4 source"], inputs["the first 16x32 sweep source"] = eve[:1], eve[1:]
    inputs["binary n = 3, m = 8 reconstructions"] = [_order_search(hl)]
    gf = [_gf(hl, joint) for joint in joints]
    inputs["16x32 sweep sources' delta-disk schemes (sum of three)"] = gf
    largest = rs_generator(8, 16, field_make(4))  # criterion 08's largest case: 12,870 column subsets
    inputs["rs_generator(8, 16, field_make(4))"] = [{"mds_check RS(8, 16)": lambda: mds_check(largest)}]
    ba, zero = _blahut_arimoto_solves(hl)
    inputs[f"rd-exponent's {BA_JOB} job, seed {SEED}"] = [ba]
    inputs[f"{ZERO_TABLE}, Hamming Delta = 0, 200 starts"] = [zero]
    names = [*small, *eve[0], "order search", *gf[0], "mds_check RS(8, 16)", *ba, *zero]
    out = {name: {label: [] for label, kernels in inputs.items() if name in kernels[0]} for name in names}
    clock = [kernel_seconds()]
    for _ in range(reps):
        for name in list(out):
            try:
                for label in out[name]:
                    kernels = inputs[label]
                    total = 0.0
                    for kernel in (k[name] for k in kernels):
                        kernel()  # warm: a prepared kernel times its prepared path
                        start = time.perf_counter()
                        calls = 0
                        while time.perf_counter() - start < 0.005:
                            kernel()
                            calls += 1
                        elapsed = (time.perf_counter() - start) / calls
                        clock.append(kernel_seconds())
                        total += elapsed / ((clock[-2] + clock[-1]) / 2) * REFERENCE_S
                    out[name][label].append(total)
            except AttributeError as e:
                if not _lacking(e):
                    raise
                del out[name]
    return out


def _measured(run, clock: list) -> tuple:
    """run() and its reference seconds, against the kernel runs just before
    (the last of `clock`) and just after (appended to it)."""
    from calibrate import REFERENCE_S, kernel_seconds

    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    clock.append(kernel_seconds())
    return result, elapsed / ((clock[-2] + clock[-1]) / 2) * REFERENCE_S


def oracles_child(reps: int) -> dict:
    """Reference seconds per oracle case and call, summed over the case's inputs, one value per repetition."""
    from functools import partial

    import numpy as np
    import workloads
    from calibrate import kernel_seconds

    import hintlock as hl

    def two_hint(joint):
        return hl.build_two_hint(joint, 4, 4, 4)

    def delta_disk(joint):
        return hl.build_delta_scheme(joint, 4, 2, 1, 4, 2, 2)

    def battery_scheme(source):
        joint, triple = source
        return hl.build_two_hint(joint, *triple, "guessing", 4, 4)

    def eve(build, inputs) -> tuple:
        """Eve's oracle on a scheme built, untimed, just before each call."""
        return "eve", [lambda source=source: partial(build(source).eve, RHO) for source in inputs]

    rng = np.random.default_rng(SEED)
    sweep = [hl.random_joint(rng, 16, 32, exact=True) for _ in range(3)]
    cases = {  # name -> (call, one thunk per input that returns the call to time)
        f"two-hint (4, 4, 4), |X| = {nx}": eve(two_hint, [hl.random_joint(np.random.default_rng(SEED), nx, 4)])
        for nx in ORACLE_SIZES
    }
    cases["two-hint (4, 4, 4), 16x32 sweep sources (sum of three)"] = eve(two_hint, sweep)
    cases["delta-disk (4, 2, 1, 4, 2, 2), 16x32 sweep sources (sum of three)"] = eve(delta_disk, sweep)
    skew = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    battery = [  # verify-all's two-hint schemes: 4-symbol sources, 4 x 4 hints
        (hl.JointPmf.from_marginal(pmf), triple)
        for pmf in (hl.Pmf.uniform(4, exact=True), hl.Pmf.of(skew, exact=True))
        for triple in ((1, 4, 4), (2, 2, 2), (4, 1, 1))
    ]
    cases["two-hint, verify-all battery (sum of six)"] = eve(battery_scheme, battery)
    with tempfile.TemporaryDirectory() as tmp:
        rd_jobs = workloads.rd_exponent(SEED, False, Path(tmp))
    cases["rd_function, rd-exponent's nine sources (sum of nine)"] = (
        "rd_function",
        [lambda job=job: partial(job.run, None) for job in rd_jobs if job.key != "functional"],
    )
    cases["rd_exponent_functional, rd-exponent's functional job"] = (
        "functional",
        [lambda job=job: partial(job.run, None) for job in rd_jobs if job.key == "functional"],
    )
    out = {name: {call: []} for name, (call, _) in cases.items()}
    clock = [kernel_seconds()]
    for _ in range(reps):
        for name, (call, thunks) in cases.items():
            out[name][call].append(sum(_measured(thunk(), clock)[1] for thunk in thunks))
    return out


# Runs argv[1:] with its output discarded and prints its wall seconds and its
# peak resident MB (of that process alone, by os.wait4); fails if it fails.
LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(time.perf_counter() - start, usage.ru_maxrss / 1024)
sys.exit(proc.returncode)
"""


def _tier1(tree: Path, clock: list) -> dict:
    """One run of the tree's tier-1 suite: its reference seconds and passed count,
    and the reference seconds of its ten slowest --durations, against the kernel
    runs just before (the last of `clock`) and just after (appended to it)."""
    from calibrate import REFERENCE_S, kernel_seconds

    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=10"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    clock.append(kernel_seconds())
    scale = REFERENCE_S / ((clock[-2] + clock[-1]) / 2)
    passed = re.search(r"(\d+) passed", run.stdout)
    slowest = re.findall(r"^([\d.]+)s (\w+) +(\S+)$", run.stdout, re.M)
    return {
        "tier-1": {"cold": [seconds * scale], "passed": [int(passed[1]) if passed else 0]},
        "tier-1 slowest": {f"{test} ({phase})": [float(s) * scale] for s, phase, test in slowest},
    }


def e2e_child(reps: int) -> dict:
    """Reference seconds and peak resident MB of each cold process, one value per
    repetition, and one run of the tree's tier-1 suite."""
    import inspect

    import workloads
    from calibrate import REFERENCE_S, kernel_seconds

    tree = Path(workloads.hl.__file__).resolve().parents[2]
    with tempfile.TemporaryDirectory() as tmp:
        runs = {  # the argv each cli-cold job passes to `python -m hintlock.cli`
            job.key: ["-m", "hintlock.cli", *inspect.getclosurevars(job.run).nonlocals["argv"]]
            for job in workloads.cli_cold(SEED, False, Path(tmp))
        }
        runs["import hintlock"] = ["-c", "import hintlock"]
        runs["import hintlock.cli"] = ["-c", "import hintlock.cli"]
        out = {name: {"cold": [], "peak_mb": []} for name in runs}
        clock = [kernel_seconds()]
        for _ in range(reps):
            for name, argv in runs.items():
                cmd = [sys.executable, "-c", LAUNCHER, sys.executable, *argv]
                seconds, peak = map(float, subprocess.run(cmd, cwd=tree, capture_output=True, check=True).stdout.split())
                clock.append(kernel_seconds())
                out[name]["cold"].append(seconds / ((clock[-2] + clock[-1]) / 2) * REFERENCE_S)
                out[name]["peak_mb"].append(peak)
    return {**out, **_tier1(tree, clock)}


def child(reps: int) -> dict:
    """Reference seconds per builder and stage, one sum over the sources per repetition."""
    import numpy as np
    from calibrate import kernel_seconds

    import hintlock as hl
    from hintlock import disks, twohint

    rng = np.random.default_rng(SEED)
    sources = [hl.random_joint(rng, 16, 32, exact=True) for _ in range(3)]
    builders = _builders(hl, twohint, disks)
    stages = ("fresh_build", "build", "checks", "views", "first_rho")
    out = {name: {stage: [] for stage in stages if stage != "checks" or entry[3]} for name, entry in builders.items()}
    clock = [kernel_seconds()]  # the latest kernel time

    def measured(run):
        return _measured(run, clock)

    for _ in range(reps):
        for name in list(out):
            build, views, verify, checks = builders[name]
            totals = dict.fromkeys(out[name], 0.0)
            try:
                for joint in sources:
                    fresh = hl.JointPmf(joint.x_alphabet, joint.y_alphabet, joint.table)
                    totals["fresh_build"] += measured(lambda: build(fresh))[1]
                    scheme, seconds = measured(lambda: build(joint))
                    totals["build"] += seconds
                    if checks:
                        totals["checks"] += measured(lambda: checks(scheme))[1]
                    totals["views"] += measured(lambda: [getattr(scheme, v) for v in views])[1]
                    totals["first_rho"] += measured(lambda: verify(scheme, RHO))[1]
            except AttributeError as e:
                if not _lacking(e):
                    raise
                del out[name]
                continue
            for stage, value in totals.items():
                out[name][stage].append(value)
    return out


def _export(rev: str, into: Path) -> Path:
    """The tree of `rev` written into `into`; for `.`, a copy of the working
    tree's files that git tracks or would add, so no `__pycache__` rides along."""
    if rev == ".":
        git = ["git", "ls-files", "-co", "--exclude-standard", "-z"]
        for name in subprocess.run(git, cwd=ROOT, capture_output=True, check=True).stdout.decode().split("\0"):
            if name and (ROOT / name).is_file():  # a deleted tracked file is still listed
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, into / name)
        return into
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into


def _describe(rev: str) -> str:
    """The short commit id of `rev`; for `.`, that of HEAD under the working tree."""
    git = ["git", "rev-parse", "--short", "HEAD" if rev == "." else rev]
    short = subprocess.run(git, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    return f"working tree on {short}" if rev == "." else short


def _quartiles(values: list) -> dict:
    n = len(values)
    if n < 2:
        values = values * 2  # one sample: its own quartiles
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 9), "q1": round(q1, 9), "q3": round(q3, 9), "n": n}


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layer", choices=("builders", "kernels", "oracles", "e2e"), default="builders")
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--rounds", type=int, default=3, help="interpreters per commit, alternating")
    parser.add_argument("--reps", type=int, default=5, help="repetitions per interpreter")
    parser.add_argument("--out", default=None, help="default BENCH_<layer>.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        children = {"kernels": kernels_child, "oracles": oracles_child, "e2e": e2e_child}
        print(json.dumps(children.get(args.layer, child)(args.reps)))
        return 0
    if hasattr(os, "sched_setaffinity"):  # one core for every interpreter, as in perfbench/run.py
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    samples: dict = {"base": {}, "change": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: _export(getattr(args, side), Path(tmp) / side) for side in samples}
        for _ in range(args.rounds):
            for side, tree in trees.items():
                env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{ROOT / 'perfbench'}"}
                env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
                cmd = [sys.executable, str(Path(__file__).resolve()), "--child"]
                cmd += ["--layer", args.layer, "--reps", str(args.reps)]
                result = json.loads(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)
                for name, stages in result.items():
                    for stage, values in stages.items():
                        samples[side].setdefault(name, {}).setdefault(stage, []).extend(values)
    if args.layer == "kernels":
        record = {
            "layer": "kernels",
            "unit": "reference seconds (perfbench/calibrate.py) per call, summed over an input's sources",
            "sources": f"scheme-sweep-exact, seed {SEED}: three 16x32 rational joints; one seeded 6x3 rational joint;"
            f" Eve's matching: twohint-eve's first seed-{SEED} source (random_joint(default_rng({SEED}), 96, 4),"
            " float) and the first sweep joint, each on its two-hint (4, 4, 4) scheme;"
            " the order search: a binary (0.7, 0.3) source, n = 3, Hamming Delta = 0.34;"
            " GF: the sweep joints' delta-disk (4, 2, 1, 4, 2, 2) schemes, and rs_generator(8, 16, field_make(4));"
            f" Blahut-Arimoto: rd-exponent's {BA_JOB} job at seed {SEED}, its grid solve (80 rows) and first"
            f" bisection solve, and the Delta = 0 solve of rd_exponent_functional's 200 starts on {ZERO_TABLE}",
            "rho": RHO,
        }
    elif args.layer == "e2e":
        record = {
            "layer": "e2e",
            "unit": "cold: reference seconds (perfbench/calibrate.py) of one fresh process;"
            " peak_mb: its own peak resident size in MB, by os.wait4; passed: tests passed;"
            " tier-1 slowest: reference seconds of a test phase among a run's ten slowest",
            "sources": f"the cli-cold workload's commands and configs at seed {SEED}; python -c 'import hintlock'"
            " and python -c 'import hintlock.cli'; tier-1: python -m pytest -q -p no:cacheprovider, once per"
            " interpreter",
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        }
    elif args.layer == "oracles":
        record = {
            "layer": "oracles",
            "unit": "reference seconds (perfbench/calibrate.py) per call",
            "sources": (
                f"random_joint(default_rng({SEED}), nx, 4) for nx in {list(ORACLE_SIZES)}, float;"
                f" scheme-sweep-exact, seed {SEED}: three 16x32 rational joints;"
                " verify-all: uniform and (1/2, 1/4, 1/8, 1/8) rational marginals;"
                f" rd-exponent, seed {SEED}: its nine rd_function jobs and its functional job"
            ),
            "scheme": "build_two_hint(joint, 4, 4, 4) or build_delta_scheme(joint, 4, 2, 1, 4, 2, 2), guessing;"
            " verify-all's six two-hint guessing schemes; the call is scheme.eve(rho) on a fresh scheme,"
            " or the rd-exponent job's own call with its controls",
            "rho": RHO,
        }
    else:
        record = {
            "layer": "builders",
            "unit": "reference seconds (perfbench/calibrate.py), summed over the three sources",
            "sources": f"scheme-sweep-exact, seed {SEED}: three 16x32 rational joints",
            "stages": {
                "fresh_build": "builder call on a new JointPmf copy of the source",
                "build": "builder call on the same source object",
                "checks": "check_reconstruction and check_eta_independence (delta-disk)",
                "views": "cached cell views",
                "first_rho": f"verifier at rho = {RHO}",
            },
        }
    record["commits"] = {side: _describe(getattr(args, side)) for side in samples}
    record["machine"] = f"{_cpu()}, {os.cpu_count()} cores, one pinned; Python {platform.python_version()}"
    record[args.layer] = {  # a stage one side lacks (a test among one tree's slowest) keeps the other side
        name: {
            stage: {side: _quartiles(samples[side][name][stage]) for side in samples if stage in samples[side][name]}
            for stage in {**samples["base"][name], **stages}
        }
        for name, stages in samples["change"].items()
        if name in samples["base"]
    }
    record["skipped"] = sorted(samples["base"].keys() ^ samples["change"].keys())
    out = Path(args.out or f"BENCH_{args.layer}.json")
    records = json.loads(out.read_text()) if out.exists() else []
    base = record["commits"]["base"]
    records = [
        old
        for old in records
        if old["commits"] != record["commits"]
        and not (old["commits"]["base"] == base and old["commits"]["change"].startswith("working tree on "))
    ]
    out.write_text(json.dumps([*records, record], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
