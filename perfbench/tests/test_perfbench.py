"""The benchmark's own tests: smoke runs, trace install/restore, failure accounting.

    python -m pytest perfbench/tests -q

Run from the root of the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "run.py"), *argv]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    units = tracing.per_layer_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units
    assert len(units) <= 128


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke_run(workload):
    out = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["scheme-sweep-exact", "cli-cold"])
def test_tiny_traced_run(workload):
    out = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"))
    assert out["correct"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["import.hintlock_s"] > metrics["import.numpy_s"] > 0
    if workload == "cli-cold":
        assert metrics["cli.main.calls"] == 2
    else:
        assert metrics["disks.build_delta_scheme.calls"] == 2
        assert metrics["gf.GenMatrix.encode.calls"] > 0
        assert metrics["adversary.eve_exact_matching.cells"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _bindings() -> dict:
    return {
        (mod, key): value
        for mod, namespace in list(sys.modules.items())
        if mod == "hintlock" or mod.startswith("hintlock.")
        for key, value in vars(namespace).items()
    }


def test_tracer_wraps_every_namespace_and_restores_it():
    import hintlock
    import hintlock.cli  # noqa: F401  (install imports every traced module)
    from hintlock import adversary, disks, gf, twohint

    before = _bindings()
    encode = gf.GenMatrix.encode
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert twohint.eve_exact_matching is disks.eve_exact_matching is adversary.eve_exact_matching
        assert twohint.eve_exact_matching is not before[("hintlock.adversary", "eve_exact_matching")]
        assert hintlock.build_two_hint is twohint.build_two_hint is not before[("hintlock", "build_two_hint")]
        assert gf.GenMatrix.encode is not encode
        joint = hintlock.random_joint(__import__("numpy").random.default_rng(0), 4, 2)
        hintlock.verify_finite_blocklength(hintlock.build_two_hint(joint, 2, 2, 2), 1.0)
    finally:
        tracer.uninstall()
    assert _bindings() == before and gf.GenMatrix.encode is encode
    stats = tracer.layer_stats(1)
    assert stats["twohint.build_two_hint.calls"] == 1
    assert stats["twohint.build_two_hint.law_cells"] == 16
    assert stats["adversary.eve_exact_matching.calls"] == 1
    assert stats["adversary.eve_exact_matching.cells"] == 16
    verify = stats["twohint.verify_finite_blocklength.total_s"]
    assert 0 < stats["twohint.verify_finite_blocklength.self_s"] < verify


def test_missing_target_is_reported_absent(monkeypatch):
    import hintlock.cli  # noqa: F401
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("adversary", "deleted_oracle"), ("gone", "f")))
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["adversary.deleted_oracle", "gone.f"]
    assert tracer.layer_stats(1)["adversary.deleted_oracle.calls"] == 0
    assert _bindings() == before


def test_wrong_reference_value_counts_as_failed_job(tmp_path):
    jobs = workloads.rd_exponent(3, True, tmp_path)[:1]
    ctx = workloads.Context(ROOT, tmp_path)
    values, problems = jobs[0].check(jobs[0].run(ctx))
    assert problems == []
    good = {jobs[0].key: values}
    wrong = {jobs[0].key: [values[0] * (1 + 1e-6)] + values[1:]}
    for reference, failed in ((good, 0), (wrong, 1), ({}, 1)):
        stats = {"attempted": 0, "failed": 0, "failures": [], "job_units": []}
        worker.run_batch(jobs, ctx, reference, stats)
        assert (stats["attempted"], stats["failed"]) == (1, failed)
        assert len(stats["job_units"]) == 1 and stats["job_units"][0][0] > 0
