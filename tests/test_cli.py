import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hintlock
from hintlock.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env() -> dict:
    """The environment for a child Python that imports this hintlock."""
    src = str(Path(hintlock.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_entropy_uniform_constant_column(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": {"uniform": 4}, "alpha": [0, 0.5, 1, 2, "inf"]}))
    code, out, err = run(capsys, "entropy", str(cfg))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("suite,instance,check")
    values = {line.split(",")[4] for line in lines[1:] if line.split(",")[1].startswith("alpha")}
    assert values == {"2"}  # 2.0 bits at every order
    assert "0 failures" in err


def test_import_and_entropy_load_no_scipy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": {"uniform": 4}, "alpha": [0.5, 2]}))
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import hintlock\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "from hintlock.cli import main\n"
        f"assert main(['entropy', {str(cfg)!r}]) == 0\n"
        "assert not scipy_modules(), scipy_modules()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_guess_and_task_commands(capsys):
    cfg = json.dumps({"source": {"uniform": 4}, "rho": [0.5, 1, 2], "z_count": 2})
    code, out, _ = run(capsys, "guess", cfg)
    assert code == 0 and "optimal-above-floor" in out
    code, out, _ = run(capsys, "task", json.dumps({"source": {"uniform": 4}, "z_count": 5}))
    assert code == 0 and "achievability" in out


def test_twohint_command_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "two.json"
    cfg.write_text(
        json.dumps(
            {
                "source": {"uniform": 4},
                "rho": [1.0],
                "version": "guessing",
                "scheme": {"kind": "two-hint", "cs": 2, "c1": 2, "c2": 1, "m1_size": 4, "m2_size": 4},
            }
        )
    )
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["twohint", str(cfg), "--rational", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["twohint", str(cfg), "--rational", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = out1.read_text()
    assert "bob-direct-g" in body and "seed=7" in body


def test_disks_command(capsys):
    cfg = json.dumps(
        {
            "source": {"uniform": 16},
            "rho": [1.0],
            "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 4, "p": 2, "r": 2},
        }
    )
    code, out, _ = run(capsys, "disks", cfg, "--rational")
    assert code == 0
    assert "nu-subset-recovery" in out and "eta-subset-independence" in out


def test_distortion_command(capsys):
    cfg = json.dumps({"source": {"x": [0, 1, 2], "p": [0.5, 0.3, 0.2]}, "rho": [1.0], "n": 1,
                      "distortion": {"hamming": True, "delta": 0.0}})
    code, out, _ = run(capsys, "distortion", cfg)
    assert code == 0 and "greedy-above-oracle" in out


def test_exponent_command_negative_infinity(capsys):
    cfg = json.dumps({"rho": [1.0], "entropy_rate": 1.5, "rates": {"r1": 0.5, "r2": 0.5}})
    code, out, _ = run(capsys, "exponent", cfg)
    assert code == 0
    assert "-inf" in out


def test_exponent_boundary_label(capsys):
    cfg = json.dumps({"rho": [1.0], "entropy_rate": 1.5, "rates": {"r1": 0.75, "r2": 0.75}})
    code, out, _ = run(capsys, "exponent", cfg)
    assert code == 0 and "boundary-flagged" in out


def test_verify_all_passes(tmp_path, capsys):
    out1 = tmp_path / "v1.csv"
    out2 = tmp_path / "v2.csv"
    assert main(["verify-all", "{}", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["verify-all", "{}", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert ",1," in out1.read_text()


def test_config_parse_error_diagnostics(capsys):
    code, out, err = run(capsys, "entropy", "{bad json")
    assert code == 2 and out == ""
    assert err.startswith("config parse error") and "line" in err and "col" in err


def test_missing_source_file(capsys):
    code, _, err = run(capsys, "entropy", json.dumps({"source": {"path": "/nonexistent/p.json"}}))
    assert code == 2 and "does not exist" in err


MALFORMED = {
    "no-entropy-rate": ["exponent", {"rho": 1, "rates": {"r1": 0.5, "r2": 0.5}}],
    "two-hint-without-c1": ["twohint", {"source": {"uniform": 4}, "scheme": {"kind": "two-hint", "cs": 2, "c2": 1}}],
    "empty-uniform": ["entropy", {"source": {"uniform": 0}}],
    "not-an-object": ["entropy", [1, 2]],
    "inadmissible-p": [
        "disks",
        {"source": {"uniform": 4}, "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 2, "p": 1, "r": 1}},
    ],
    "string-cs": ["twohint", {"source": {"uniform": 4}, "scheme": {"kind": "two-hint", "cs": "a", "c1": 2, "c2": 1}}],
    "string-rho": ["entropy", {"source": {"uniform": 4}, "rho": "x"}],
    "scheme-not-an-object": ["twohint", {"source": {"uniform": 4}, "scheme": [1]}],
    "mass-not-a-number": ["entropy", {"source": {"x": [0, 1], "p": ["a", 0.5]}}],
    "y-not-a-list": ["entropy", {"source": {"x": [0, 1], "y": 5, "p": [[0.5], [0.5]]}}],
    "d-not-a-table": ["distortion", {"source": {"uniform": 2}, "distortion": {"xhat": [0, 1], "d": 5}}],
}


@pytest.mark.parametrize("command, config", MALFORMED.values(), ids=MALFORMED)
def test_malformed_config_exits_2_with_one_line(command, config):
    proc = subprocess.run(
        [sys.executable, "-m", "hintlock.cli", command, json.dumps(config)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("config error"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_long_literal_config(capsys):
    # longer than any file name may be: must be parsed as a literal document
    cfg = {"source": {"x": list(range(40)), "p": [0.025] * 40}, "rho": [0.5, 1.0, 2.0], "alpha": [0.5, 2]}
    cfg["comment"] = "x" * 600
    text = json.dumps(cfg)
    assert len(text) >= 1024
    code, out, _ = run(capsys, "entropy", text)
    assert code == 0 and "H_alpha(X|Y)" in out


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
# The determinism-fixture config of acceptance criterion 12 (the benchmark's
# CRITERION_12_TWOHINT); its CSV bodies are committed under perfbench/reference.
CRITERION_12_TWOHINT = {
    "source": {"uniform": 4},
    "rho": [0.5, 1.0],
    "scheme": {"kind": "two-hint", "cs": 2, "c1": 2, "c2": 1, "m1_size": 4, "m2_size": 4},
}


@pytest.mark.parametrize(
    "argv, reference",
    [
        (["verify-all", "{}", "--seed", "11"], "verify_all_seed11.csv"),
        (["twohint", json.dumps(CRITERION_12_TWOHINT), "--rational", "--seed", "11"], "twohint_rational_seed11.csv"),
    ],
)
def test_determinism_fixtures_match_reference(tmp_path, capsys, argv, reference):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (REFERENCE / reference).read_bytes()
