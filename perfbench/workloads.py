"""The benchmark's workloads: seeded inputs, jobs, and per-job correctness checks.

A workload is a fixed batch of jobs built from `--seed`.  Building the batch
generates every input, so it is part of set-up; running a job is timed;
checking its result happens after the timer stops.  Jobs reach hintlock only
through module attributes looked up at call time (`hl.build_two_hint`, ...),
so a traced run sees every call through the tracer's wrappers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import hintlock as hl
from hintlock import disks, twohint

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "values.json"
CRITERION_12 = {
    "twohint": HERE / "reference" / "twohint_rational_seed11.csv",
    "verify-all": HERE / "reference" / "verify_all_seed11.csv",
}
# The determinism-fixture config of acceptance criterion 12.
CRITERION_12_TWOHINT = {
    "source": {"uniform": 4},
    "rho": [0.5, 1.0],
    "scheme": {"kind": "two-hint", "cs": 2, "c1": 2, "c2": 1, "m1_size": 4, "m2_size": 4},
}
DEFAULT_SEED = 1
RHOS = (0.5, 1.0, 2.0)
REL_TOL = 1e-9
CLOSED_FORM_TOL = 1e-6


@dataclass
class Job:
    """One unit of work.  `run(ctx)` is timed; `check(result)` returns (values, problems)."""

    key: str
    run: Callable
    check: Callable


@dataclass
class Context:
    """What a job may need from the worker: the checkout root and, when traced, the tracer."""

    root: Path
    tmp: Path  # scratch directory inside the checkout, removed when the worker ends
    tracer: object = None
    import_samples: list = field(default_factory=list)  # per traced child process


# ---------------------------------------------------------------------------
# Checks shared by several workloads.
# ---------------------------------------------------------------------------


def rows_check(rows) -> tuple[list[float], list[str]]:
    """Every report row passes and no Eve value comes from bounds."""
    values: list[float] = []
    problems: list[str] = []
    for r in rows:
        values += [float(r.lhs), float(r.rhs)]
        if not r.passed:
            problems.append(f"row failed: {r.suite} {r.instance} {r.check}")
        if "bounds" in r.note:
            problems.append(f"Eve from bounds, not an exact oracle: {r.suite} {r.instance} {r.check}")
    return values, problems


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def reference_problems(values: list[float], expected: list[float] | None) -> list[str]:
    if expected is None:
        return ["no recorded reference"]
    if len(values) != len(expected):
        return [f"{len(values)} values, reference has {len(expected)}"]
    return [
        f"value {i}: {v!r} misses reference {e!r}"
        for i, (v, e) in enumerate(zip(values, expected))
        if not close(v, e)
    ]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}


# ---------------------------------------------------------------------------
# twohint-eve: Eve's exact matching on large components.
# ---------------------------------------------------------------------------


def _eve_job(joint, rho: float):
    return lambda ctx: hl.verify_finite_blocklength(hl.build_two_hint(joint, 4, 4, 4), rho)


def twohint_eve(seed: int, tiny: bool, tmp: Path) -> list[Job]:
    # One job per (source, rho), each a fraction of a second, so that every
    # job repeats several times in a run.  Every source has the same size, so
    # the median job is one of several alike and does not hinge on one source.
    rng = np.random.default_rng(seed)
    count, nx = (2, 8) if tiny else (3, 96)
    jobs = []
    for k in range(count):
        joint = hl.random_joint(rng, nx, 4)
        jobs += [Job(f"src{k}/rho{rho}", _eve_job(joint, rho), rows_check) for rho in RHOS]
    return jobs


# ---------------------------------------------------------------------------
# scheme-sweep-exact: every scheme kind on rational sources.
# ---------------------------------------------------------------------------


def _pads_uniform(scheme) -> list[str]:
    """Both pad coordinates are exactly uniform over cs values for every (x, y)."""
    problems = []
    for laws in scheme.pad_coordinate_laws():
        for xy, by_pad in laws.items():
            masses = set(by_pad.values())
            if len(by_pad) != scheme.cs or len(masses) != 1:
                problems.append(f"pad not uniform at {xy}")
    return problems


def _sweep_jobs(name: str, joint) -> list[Job]:
    def two_hint(version):
        def run(ctx):
            scheme = hl.build_two_hint(joint, 4, 4, 4, version)
            rows = [r for rho in RHOS for r in hl.verify_finite_blocklength(scheme, rho, version)]
            return rows, _pads_uniform(scheme)

        return run

    def secret_hint(ctx):
        scheme = hl.build_secret_hint(joint, 4, 4)
        return [r for rho in RHOS for r in twohint.verify_secret_hint(scheme, rho)], []

    def secret_key(ctx):
        scheme = hl.build_secret_key(joint, 4, 4)
        return [r for rho in RHOS for r in twohint.verify_secret_key(scheme, rho)], []

    def eve_list(ctx):
        scheme = hl.build_eve_list_scheme(joint, 8, 8, 20)
        return [r for rho in RHOS for r in twohint.verify_eve_list(scheme, rho)], []

    def delta_disk_checks(ctx):
        scheme = hl.build_delta_scheme(joint, 4, 2, 1, 4, 2, 2)
        problems = []
        if not disks.check_reconstruction(scheme):
            problems.append("some nu hints do not determine the descriptor")
        if not disks.check_eta_independence(scheme):
            problems.append("some eta hints are not independent of the secret part")
        return [], problems

    def delta_disk(ctx):
        scheme = hl.build_delta_scheme(joint, 4, 2, 1, 4, 2, 2)
        return [r for rho in RHOS for r in hl.verify_disk_theorems(scheme, rho)], []

    def check(result):
        rows, structural = result
        values, problems = rows_check(rows)
        return values, structural + problems

    kinds = {
        "two-hint-guessing": two_hint("guessing"),
        "two-hint-list": two_hint("list"),
        "secret-hint": secret_hint,
        "secret-key": secret_key,
        "eve-list": eve_list,
        "delta-disk-checks": delta_disk_checks,
        "delta-disk": delta_disk,
    }
    return [Job(f"{name}/{kind}", run, check) for kind, run in kinds.items()]


def scheme_sweep_exact(seed: int, tiny: bool, tmp: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    count, nx, ny = (1, 4, 4) if tiny else (3, 16, 32)
    jobs: list[Job] = []
    for k in range(count):
        jobs += _sweep_jobs(f"src{k}", hl.random_joint(rng, nx, ny, exact=True))
    return jobs


# ---------------------------------------------------------------------------
# rd-exponent: Blahut-Arimoto in rd_function and the functional search.
# ---------------------------------------------------------------------------


def _h2(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _near_uniform_joint(rng, nx: int, ny: int):
    """A seeded joint with every cell positive and no cell far from 1/(nx*ny).

    Solver work on flat-Dirichlet draws varies threefold between seeds, which
    would drown a real change in the seed-to-seed spread; these draws vary by
    about a tenth.
    """
    return hl.JointPmf.of(rng.dirichlet(np.full(nx * ny, 10.0)).reshape(nx, ny).tolist())


def _rd_job(joint, delta: float):
    spec = hl.DistortionSpec.hamming(joint.x_alphabet, delta)
    return lambda ctx: hl.rd_function(joint, spec)


def _closed_form_check(p: float, delta: float):
    def check(value):
        expected = _h2(p) - _h2(delta)
        problems = [] if abs(value - expected) <= CLOSED_FORM_TOL else [
            f"R = {value!r}, closed form h(p) - h(D) = {expected!r}"
        ]
        return [float(value)], problems

    return check


def _entropy_bound_check(ceiling: float):
    def check(value):
        problems = [] if -1e-12 <= value <= ceiling + 1e-9 else [f"R = {value!r} outside [0, H(X|Y)]"]
        return [float(value)], problems

    return check


def rd_exponent(seed: int, tiny: bool, tmp: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    p = 0.3
    binary = hl.JointPmf.from_marginal(hl.Pmf.of([p, 1 - p]))
    for delta in (0.1,) if tiny else (0.05, 0.1, 0.2):
        jobs.append(Job(f"binary/D{delta}", _rd_job(binary, delta), _closed_form_check(p, delta)))
    # One job per seeded source, Delta alternating.  The three 4x3 sources put
    # the median job among alike jobs, between the faster binary and 3x2 jobs
    # and the slower 6x4 jobs and functional.
    sources = ((3, 2, 0.2),)
    if not tiny:
        sources += ((4, 3, 0.1), (4, 3, 0.2), (4, 3, 0.1), (6, 4, 0.1), (6, 4, 0.2))
    for k, (nx, ny, delta) in enumerate(sources):
        joint = _near_uniform_joint(rng, nx, ny)
        ceiling = hl.renyi_cond_entropy(joint, 1.0)
        jobs.append(Job(f"cond{k}-{nx}x{ny}/D{delta}", _rd_job(joint, delta), _entropy_bound_check(ceiling)))
    joint = _near_uniform_joint(rng, 3, 2)
    spec = hl.DistortionSpec.hamming(joint.x_alphabet, 0.1)
    rho = 1.0
    controls = (
        hl.RdQuery(grid_points=3, polish_runs=1, polish_steps=1, seed=seed)
        if tiny
        else hl.RdQuery(grid_points=8, polish_runs=0, polish_steps=0, seed=seed)
    )
    ceiling = hl.renyi_cond_entropy(joint, hl.RenyiOrder.from_rho(rho))

    def functional_check(res):
        lo, hi = (float(v) for v in res.certified_bracket)
        problems = [] if lo <= res.value <= hi and res.value <= ceiling + 1e-9 else [
            f"functional {res.value!r} outside bracket [{lo!r}, {hi!r}] or above H_a = {ceiling!r}"
        ]
        return [float(res.value), hi], problems

    jobs.append(
        Job("functional", lambda ctx: hl.rd_exponent_functional(joint, spec, rho, controls), functional_check)
    )
    return jobs


# ---------------------------------------------------------------------------
# cli-cold: the hintlock command, one fresh process per invocation.
# ---------------------------------------------------------------------------


def _float_source(rng, nx: int, ny: int) -> dict:
    joint = hl.random_joint(rng, nx, ny)
    return {"x": list(range(nx)), "y": list(range(ny)), "p": [list(map(float, row)) for row in joint.table]}


def _rational_marginal(rng, nx: int) -> dict:
    weights = rng.integers(1, 65, size=nx)
    total = int(weights.sum())
    return {"x": list(range(nx)), "p": [str(Fraction(int(w), total)) for w in weights]}


def _cli_job(argv: list[str]):
    def run(ctx):
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "hintlock.cli", *argv]
        else:
            trace_file = ctx.tmp / "child-trace.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), str(trace_file), *argv]
        proc = subprocess.run(cmd, cwd=ctx.root, capture_output=True, timeout=120)
        if ctx.tracer is not None:
            from tracing import parse_importtime

            ctx.tracer.merge(trace_file.read_text())
            trace_file.unlink()
            ctx.import_samples.append(parse_importtime(proc.stderr.decode(errors="replace")))
        return proc.returncode, proc.stdout

    return run


def _cli_check(fixture: Path | None):
    def check(result):
        code, body = result
        problems = [] if code == 0 else [f"exit code {code}"]
        values: list[float] = []
        rows = list(csv.DictReader(io.StringIO(body.decode())))
        if not rows:
            problems.append("no report rows")
        for row in rows:
            values += [float(row["lhs"]), float(row["rhs"])]
            if row["pass"] != "1":
                problems.append(f"row failed: {row['suite']} {row['instance']} {row['check']}")
        if fixture is not None and body != fixture.read_bytes():
            problems.append(f"CSV body differs from {fixture.name}")
        return values, problems

    return check


def cli_cold(seed: int, tiny: bool, tmp: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    rho = list(RHOS)
    source = _float_source(rng, 6, 3)
    r1, r2, entropy_rate = (float(v) for v in rng.uniform(0.2, 1.5, size=3))
    q = float(rng.uniform(0.55, 0.9))
    seeded = ["--seed", str(seed)]
    # command -> (config, extra flags, committed CSV body it must reproduce)
    invocations = {
        "verify-all": ({}, ["--seed", "11"], CRITERION_12["verify-all"]),
        "twohint": (CRITERION_12_TWOHINT, ["--rational", "--seed", "11"], CRITERION_12["twohint"]),
        "disks": (
            {
                "source": _rational_marginal(rng, 16),
                "rho": rho,
                "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 4, "p": 2, "r": 2},
            },
            ["--rational", *seeded],
            None,
        ),
        "entropy": ({"source": source, "rho": rho}, seeded, None),
        "guess": ({"source": source, "rho": rho, "z_count": 2}, seeded, None),
        "task": ({"source": source, "rho": rho, "z_count": 4}, seeded, None),
        "distortion": (
            {
                "source": {"x": [0, 1], "p": [q, 1.0 - q]},
                "rho": rho,
                "n": 3,
                "distortion": {"hamming": True, "delta": 0.34},
            },
            seeded,
            None,
        ),
        "exponent": ({"rho": rho, "entropy_rate": entropy_rate, "rates": {"r1": r1, "r2": r2}}, seeded, None),
    }
    if tiny:
        invocations = {k: invocations[k] for k in ("twohint", "entropy")}
    jobs = []
    for command, (config, flags, fixture) in invocations.items():
        # Configs go in files: the command line takes a literal config only up
        # to the file-name length limit.
        path = tmp / f"{command}.json"
        path.write_text(json.dumps(config))
        jobs.append(Job(command, _cli_job([command, str(path), *flags]), _cli_check(fixture)))
    return jobs


WORKLOADS = {
    "twohint-eve": twohint_eve,
    "scheme-sweep-exact": scheme_sweep_exact,
    "rd-exponent": rd_exponent,
    "cli-cold": cli_cold,
}
# Where peak memory is measured: the worker itself, or its largest child.
RSS_OF_CHILDREN = {"cli-cold"}
