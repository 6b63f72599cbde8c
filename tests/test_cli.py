import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hintlock
from hintlock import exponents
from hintlock.cli import DISK, DISK_RATES, DISTORTION, KEYS, RATES, SCHEMES, main
from hintlock.disks import build_delta_scheme
from hintlock.prob import JointPmf, Pmf, replace
from hintlock.report import ReportRow, fmt, rows_to_csv
from hintlock.twohint import build_eve_list_scheme, build_secret_hint, build_secret_key, build_two_hint


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
    """Eve's chunks of at most SMALL_CHUNK_CELLS cells are matched in the
    package, so the cold scheme commands on small configs never import scipy;
    nor numpy.ma, which a plain np.unique loads."""
    entropy = tmp_path / "entropy.json"
    entropy.write_text(json.dumps({"source": {"uniform": 4}, "alpha": [0.5, 2]}))
    marginal = {"x": list(range(16)), "p": [str(Fraction(w, 136)) for w in range(1, 17)]}
    disks = {"source": marginal, "rho": [0.5, 1, 2], "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 4, "p": 2, "r": 2}}
    commands = [
        ["entropy", str(entropy)],
        ["twohint", json.dumps(CRITERION_12_TWOHINT), "--rational", "--seed", "11"],
        ["verify-all", "{}", "--seed", "11"],
        ["disks", json.dumps(disks), "--rational", "--seed", "1"],
    ]
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import hintlock\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "from hintlock.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert not scipy_modules(), (argv, scipy_modules())\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


SCHEME_MODULES = {"twohint", "adversary", "disks", "gf"}
NOT_LOADED = SCHEME_MODULES | {"distortion", "exponents"}  # by entropy, guess, task and a rates-only exponent
# command, its config, the hintlock modules it must not load, and whether it may load numpy
LEAN_COMMANDS = {
    "entropy": ["entropy", {"source": {"uniform": 4}, "rho": [0.5, 2]}, NOT_LOADED, False],
    "guess": ["guess", {"source": {"uniform": 4}, "z_count": 2}, NOT_LOADED, False],
    "task": ["task", {"source": {"uniform": 4}, "z_count": 4}, NOT_LOADED, False],
    "exponent-two-hint": [
        "exponent",
        {"rho": [0.5, 1], "entropy_rate": 1.5, "rates": {"r1": 1.0, "r2": 0.5}},
        NOT_LOADED,
        False,
    ],
    "exponent-disks": [
        "exponent",
        {"rho": 1, "entropy_rate": 1.2, "rates": {"rate_s": 0.8, "nu": 2, "eta": 1}},
        NOT_LOADED,
        False,
    ],
    "distortion": [
        "distortion",
        {"source": {"x": [0, 1], "p": [0.7, 0.3]}, "rho": [0.5, 1, 2], "n": 2, "distortion": {"hamming": True}},
        SCHEME_MODULES | {"exponents"},
        False,
    ],
}


def _loaded_modules(script: str, *argv) -> tuple[set, bool]:
    """The hintlock modules a fresh interpreter holds after running `script`,
    and whether it holds numpy."""
    script += (
        "\nprint(json.dumps([[m.split('.', 1)[1] for m in sys.modules if m.startswith('hintlock.')],"
        " 'numpy' in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded, numpy = json.loads(proc.stdout.splitlines()[-1])
    return set(loaded), numpy


@pytest.mark.parametrize("command, config, unloaded, may_load_numpy", LEAN_COMMANDS.values(), ids=LEAN_COMMANDS)
def test_command_loads_only_its_modules(command, config, unloaded, may_load_numpy):
    script = "import json, sys\nfrom hintlock.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded, numpy = _loaded_modules(script, command, json.dumps(config))
    assert "cli" in loaded and not loaded & unloaded, sorted(loaded & unloaded)
    assert may_load_numpy or not numpy, f"{command} loaded numpy"


def test_import_hintlock_loads_no_module():
    assert _loaded_modules("import json, sys, hintlock") == (set(), False)


def test_entropy_layer_loads_no_numpy():
    loaded, numpy = _loaded_modules("import json, sys, hintlock.prob, hintlock.bounds, hintlock.cli")
    assert loaded == {"prob", "bounds", "report", "cli"} and not numpy


def test_source_side_loads_no_numpy():
    loaded, numpy = _loaded_modules("import json, sys, hintlock.guessing, hintlock.tasks, hintlock.distortion")
    assert loaded == {"prob", "bounds", "report", "guessing", "tasks", "distortion"} and not numpy


def test_commands_load_no_dataclasses():
    """The records are `prob.record`s: importing `dataclasses` costs a cold
    process `inspect`, `ast`, `dis` and `tokenize`, and each dataclass execs
    its methods.  numpy imports `inspect` itself, so only the commands that
    load no numpy are held to leaving it out."""
    schemes = [
        [command, json.dumps({"source": {"uniform": 4}, "rho": 1, "scheme": section})]
        for command, section, _ in (SCHEME_KINDS["two-hint"], SCHEME_KINDS["disks"])
    ]
    runs = [([command, json.dumps(config)], ["dataclasses", "inspect"]) for command, config, *_ in LEAN_COMMANDS.values()]
    runs += [(argv, ["dataclasses"]) for argv in [*schemes, ["verify-all", "{}"]]]
    script = (
        "import sys\n"
        "from hintlock.cli import main\n"
        f"for argv, unwanted in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded = [m for m in unwanted if m in sys.modules]\n"
        "    assert not loaded, (argv[0], loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_entropy_at_orders_beyond_the_float_range(capsys):
    # every p^alpha underflows at 2000 and the inner sum's 1/alpha-th power
    # overflows at 1e-300; both orders read 1 bit on a fair coin
    cfg = {"source": {"x": [0, 1], "p": [0.5, 0.5]}, "alpha": [2000, 1e-300, 1e308]}
    code, out, err = run(capsys, "entropy", json.dumps(cfg))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and "0 failures" in err
    assert [r["lhs"] for r in rows if r["instance"].startswith("alpha")] == ["1", "1", "1"]


def test_twohint_at_a_huge_pad_passes_every_row(capsys):
    # Bob's guessing moment is exactly 1; summed over the 400,000 cells of the
    # full padded law it read 1 + 4.4e-12 and failed the strict bob-direct-g row
    cfg = {"source": {"uniform": 4}, "rho": 1, "scheme": {"cs": 100000, "c1": 100000, "c2": 100000}}
    code, out, err = run(capsys, "twohint", json.dumps(cfg))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and "0 failures" in err
    assert "bob-direct-g" in [r["check"] for r in rows] and all(r["pass"] == "1" for r in rows)


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


FRACTION_SOURCES = {  # (fraction strings, the floats they equal)
    "marginal": ({"x": [0, 1], "p": ["1/4", "3/4"]}, {"x": [0, 1], "p": [0.25, 0.75]}),
    "joint": (
        {"x": [0, 1], "y": [0, 1], "p": [["1/8", "1/8"], ["1/4", "1/2"]]},
        {"x": [0, 1], "y": [0, 1], "p": [[0.125, 0.125], [0.25, 0.5]]},
    ),
}


@pytest.mark.parametrize("kind", FRACTION_SOURCES)
@pytest.mark.parametrize("command", ["twohint", "entropy"])
def test_fraction_string_masses_read_as_their_floats(capsys, command, kind):
    # every mass is read once as Fraction(str(v)); without --rational, as its float
    scheme = {"scheme": {"cs": 2, "c1": 2, "c2": 2}} if command == "twohint" else {}
    configs = (json.dumps({"source": source, **scheme}) for source in FRACTION_SOURCES[kind])
    strings, floats = (run(capsys, command, config) for config in configs)
    assert strings == floats and strings[0] == 0


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
    assert "disks-unequal" not in out and "disks-envelope" not in out


def test_disks_unequal_sizes_rows(capsys):
    cfg = {
        "source": {"uniform": 16},
        "rho": [0.5, 1.0],
        "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 4, "p": 2, "r": 2},
        "unequal_sizes": [4, 5, 6],
    }
    code, out, _ = run(capsys, "disks", json.dumps(cfg), "--rational")
    assert code == 0
    for check in ("bob-converse-unequal-g", "eve-converse-unequal"):
        assert sum(check in line for line in out.splitlines()) == 2
    assert sum("equal-size-covers-corner" in line for line in out.splitlines()) == 10


U4 = JointPmf.from_marginal(Pmf.of([Fraction(1, 4)] * 4, exact=True))  # {"uniform": 4} with --rational
# command, scheme section, and the library scheme the command builds from them
SCHEME_KINDS = {
    "two-hint": [
        "twohint",
        {"cs": 2, "c1": 2, "c2": 1, "m1_size": 4, "m2_size": 4},
        build_two_hint(U4, 2, 2, 1, m1_size=4, m2_size=4),
    ],
    "secret-hint": ["twohint", {"kind": "secret-hint", "c": 2, "ms_size": 2}, build_secret_hint(U4, 2, 2)],
    "secret-key": ["twohint", {"kind": "secret-key", "c": 2, "k_size": 2}, build_secret_key(U4, 2, 2)],
    "eve-list": [
        "twohint",
        {"kind": "eve-list", "m1_size": 4, "m2_size": 4, "epsilon": 20},
        build_eve_list_scheme(U4, 4, 4, 20),
    ],
    "disks": [
        "disks",
        {"delta": 3, "nu": 2, "eta": 1, "s": 2, "p": 2, "r": 0},
        build_delta_scheme(U4, 3, 2, 1, 2, 2, 0),
    ],
}


@pytest.mark.parametrize("command, section, scheme", SCHEME_KINDS.values(), ids=SCHEME_KINDS)
def test_every_scheme_kind_reports_the_library_rows(tmp_path, command, section, scheme):
    rhos = [0.5, 1.0]
    out = tmp_path / "out.csv"
    cfg = {"source": {"uniform": 4}, "rho": rhos, "scheme": section}
    assert main([command, json.dumps(cfg), "--rational", "--seed", "5", "--out", str(out)]) == 0
    rows = [row for rho in rhos for row in scheme.rows(rho, instance=f"rho={fmt(rho)}")]
    if command == "disks":
        checks = ("nu-subset-recovery", "eta-subset-independence")
        rows = [ReportRow("disks", "structure", check, "==", 1.0, 1.0) for check in checks] + rows
    assert out.read_text() == rows_to_csv([replace(row, note="seed=5") for row in rows])


def test_distortion_command(capsys):
    cfg = json.dumps({"source": {"x": [0, 1, 2], "p": [0.5, 0.3, 0.2]}, "rho": [1.0], "n": 1,
                      "distortion": {"hamming": True, "delta": 0.0}})
    code, out, _ = run(capsys, "distortion", cfg)
    assert code == 0 and "greedy-above-oracle" in out


def test_distortion_beyond_eight_reconstructions(capsys):
    # the subset DP takes 2^m * m steps per context: ternary n = 2 (m = 9) and
    # binary n = 4 (m = 16, 16! orders) fit the default budget
    ternary = {"source": {"x": [0, 1, 2], "p": [0.5, 0.3, 0.2]}, "n": 2, "distortion": {"hamming": True, "delta": 0.5}}
    code, out, _ = run(capsys, "distortion", json.dumps(ternary))
    assert code == 0 and "greedy-above-oracle" in out
    binary = {"source": {"x": [0, 1], "p": [0.7, 0.3]}, "rho": [0.5, 1, 2], "n": 4, "distortion": {"hamming": True}}
    start = time.perf_counter()
    code, out, _ = run(capsys, "distortion", json.dumps(binary))
    assert code == 0 and out.count("greedy-above-oracle") == 3
    assert time.perf_counter() - start < 2.0


def test_distortion_builds_long_tuples_in_linear_time(capsys):
    # n symbols of a one-symbol source pass the n-tuple gate; building the
    # tuples one position at a time copied them n times (30,000 took seconds)
    start = time.perf_counter()
    code, out, _ = run(capsys, "distortion", json.dumps({"source": {"uniform": 1}, "n": 30000}))
    assert code == 0 and "greedy-above-oracle" in out
    assert time.perf_counter() - start < 1.0


def test_distortion_order_search_is_gated(capsys):
    binary = {"source": {"x": [0, 1], "p": [0.7, 0.3]}, "n": 4, "distortion": {"hamming": True}}
    code, out, err = run(capsys, "distortion", json.dumps(binary), "--budget", str(16 * 2**16 - 1))
    assert code == 2 and out == "" and "order search" in err and len(err.splitlines()) == 1
    assert run(capsys, "distortion", json.dumps(binary), "--budget", str(16 * 2**16))[0] == 0


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


def test_malformed_source_file_names_line_and_column(tmp_path, capsys):
    bad = tmp_path / "p.json"
    bad.write_text('{"x": [0, 1],\n "p": [0.5, 0.5')
    code, out, err = run(capsys, "entropy", json.dumps({"source": {"path": str(bad)}}))
    assert code == 2 and out == ""
    assert err.startswith(f"config error: source file {bad}") and "line 2 column 16" in err
    assert len(err.splitlines()) == 1


DISKS_3_2_1 = {"source": {"uniform": 4}, "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 2, "p": 2, "r": 0}}
# command, config, and the key set to null: a dotted key is in a section
NULL_MEANS_ABSENT = {
    "guess-z-count": ["guess", {"source": {"uniform": 4}, "rho": [1.0, 2.0]}, "z_count"],
    "task-census-k": ["task", {"source": {"uniform": 4}}, "census_k"],
    "distortion-n": ["distortion", {"source": {"uniform": 2}}, "n"],
    "distortion-delta": ["distortion", {"source": {"uniform": 2}, "distortion": {"hamming": True}}, "distortion.delta"],
    "twohint-version": ["twohint", {"source": {"uniform": 4}, "scheme": {"cs": 2, "c1": 2, "c2": 1}}, "version"],
    "disks-version": ["disks", DISKS_3_2_1, "version"],
    "entropy-rho": ["entropy", {"source": {"uniform": 4}}, "rho"],
    "entropy-alpha": ["entropy", {"source": {"uniform": 4}}, "alpha"],
    "distortion-section": ["distortion", {"source": {"uniform": 2}}, "distortion"],
    "disks-unequal-sizes": ["disks", DISKS_3_2_1, "unequal_sizes"],
    "exponent-e-bob": ["exponent", {"rho": 1, "entropy_rate": 0.5, "rates": {"r1": 1, "r2": 1}}, "rates.e_bob"],
    "twohint-m1-size": ["twohint", {"source": {"uniform": 4}, "scheme": {"cs": 2, "c1": 2, "c2": 1}}, "scheme.m1_size"],
}


@pytest.mark.parametrize("command, config, key", NULL_MEANS_ABSENT.values(), ids=NULL_MEANS_ABSENT)
def test_null_value_means_the_default(capsys, command, config, key):
    code, absent, _ = run(capsys, command, json.dumps(config))
    config = json.loads(json.dumps(config))  # a copy
    *sections, key = key.split(".")
    section = config
    for name in sections:
        section = section[name]
    section[key] = None
    assert run(capsys, command, json.dumps(config))[:2] == (code, absent)
    assert code == 0 and absent.count("\n") > 1


# a two-symbol rate-distortion functional: about 2 s per run
SMALL_FUNCTIONAL = {
    "source": {"uniform": 2},
    "rates": {"r1": 0.5, "r2": 0.5},
    "distortion": {"hamming": True, "delta": 0.1},
    "grid_points": 3,
}


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
    "mass-nan": ["entropy", {"source": {"x": [0, 1], "p": [math.nan, 1.0]}, "rho": 1}],
    "mass-a-boolean": ["entropy", {"source": {"x": [0], "p": [True]}}],  # a JSON true is not 1
    "mass-a-boolean-rational": ["entropy", {"source": {"x": [0], "p": [True]}}, "--rational"],
    "joint-mass-nan": ["entropy", {"source": {"x": [0, 1], "y": [0], "p": [[math.nan], [1.0]]}, "rho": 1}],
    "y-not-a-list": ["entropy", {"source": {"x": [0, 1], "y": 5, "p": [[0.5], [0.5]]}}],
    "d-not-a-table": ["distortion", {"source": {"uniform": 2}, "distortion": {"xhat": [0, 1], "d": 5}}],
    "distortion-rho-zero": ["distortion", {"source": {"uniform": 2}, "rho": 0}],
    "distortion-rho-negative": ["distortion", {"source": {"uniform": 2}, "rho": -1}],
    "distortion-n-zero": ["distortion", {"source": {"uniform": 2}, "n": 0}],
    "task-z-count-negative": ["task", {"source": {"uniform": 4}, "rho": [1.0], "z_count": -1}],
    "task-z-count-zero": ["task", {"source": {"uniform": 4}, "rho": [1.0], "z_count": 0}],
    "guess-z-count-zero": ["guess", {"source": {"uniform": 4}, "rho": [1.0], "z_count": 0}],
    "source-path-not-a-string": ["entropy", {"source": {"path": 5}}],
    "source-path-a-directory": ["entropy", {"source": {"path": "."}}],
    "guess-rho-overflow": ["guess", {"source": {"uniform": 4}, "rho": 800}],
    "guess-rho-inf": ["guess", {"source": {"uniform": 4}, "rho": "inf"}],
    "twohint-rho-inf": ["twohint", {"source": {"uniform": 4}, "rho": "inf", "scheme": {"cs": 2, "c1": 2, "c2": 1}}],
    "disk-exponent-eta-not-below-nu": [
        "exponent",
        {"rho": 1, "entropy_rate": 0.5, "rates": {"rate_s": 1, "nu": 2, "eta": 3}},
    ],
    "twohint-cs-fractional": ["twohint", {"source": {"uniform": 4}, "scheme": {"cs": 2.9, "c1": 2, "c2": 1}}],
    "twohint-cs-bool": ["twohint", {"source": {"uniform": 4}, "scheme": {"cs": True, "c1": 2, "c2": 1}}],
    "guess-z-count-fractional": ["guess", {"source": {"uniform": 4}, "z_count": 2.5}],
    "disks-delta-fractional": [
        "disks",
        {"source": {"uniform": 4}, "scheme": {"delta": 3.7, "nu": 2, "eta": 1, "s": 2, "p": 2, "r": 0}},
    ],
    "exponent-nu-fractional": [
        "exponent",
        {"rho": 1, "entropy_rate": 0.5, "rates": {"rate_s": 1, "nu": 2.5, "eta": 1}},
    ],
    "verify-all-rho-empty": ["verify-all", {"rho": []}],
    "exponent-entropy-rate-nan": ["exponent", {"rho": 1, "entropy_rate": math.nan, "rates": {"r1": 0.5, "r2": 0.5}}],
    "exponent-r1-nan": ["exponent", {"rho": 1, "entropy_rate": 0.5, "rates": {"r1": math.nan, "r2": 1}}],
    "twohint-eve-list-epsilon-nan": [
        "twohint",
        {"source": {"uniform": 4}, "scheme": {"kind": "eve-list", "m1_size": 16, "m2_size": 16, "epsilon": math.nan}},
    ],
    "twohint-eve-list-version-bogus": [
        "twohint",
        {
            "source": {"uniform": 4},
            "version": "bogus",
            "scheme": {"kind": "eve-list", "m1_size": 4, "m2_size": 4, "epsilon": 20},
        },
    ],
    "distortion-d-nan": [
        "distortion",
        {"source": {"uniform": 2}, "distortion": {"xhat": [0, 1], "d": [[0, math.nan], [1, 0]], "delta": 0.5}},
    ],
    "distortion-d-inf": [
        "distortion",
        {"source": {"uniform": 2}, "distortion": {"xhat": [0, 1], "d": [[0, 1], [-math.inf, 0]], "delta": 0.5}},
    ],
    "functional-seed-negative": [
        "exponent",
        {
            "source": {"x": [0, 1], "p": [0.3, 0.7]},
            "rho": 1,
            "rates": {"r1": 1, "r2": 1},
            "distortion": {"hamming": True, "delta": 0.1},
            "grid_points": 1,
        },
        "--seed",
        "-1",
    ],
    "exponent-witness-of-two-rhos": ["exponent", {**SMALL_FUNCTIONAL, "rho": [0.5, 2], "dump_witness": os.devnull}],
    "exponent-witness-without-distortion": [
        "exponent",
        {"rho": 1, "entropy_rate": 0.5, "rates": {"r1": 1, "r2": 1}, "dump_witness": os.devnull},
    ],
    "exponent-witness-of-rate-s": [
        "exponent",
        {"rho": 1, "entropy_rate": 0.5, "rates": {"rate_s": 1, "nu": 2, "eta": 1}, "dump_witness": os.devnull},
    ],
    "unequal-sizes-too-small": [
        "disks",
        {
            "source": {"uniform": 4},
            "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 4, "p": 2, "r": 2},
            "unequal_sizes": [4, 3, 5],
        },
    ],
    # each count a config sets is checked against --budget before anything is built
    "uniform-over-budget": ["entropy", {"source": {"uniform": 100000000}}],
    # a two-hint scheme's pad quotient has one row per support (x, y): nine here, over a budget of 8
    "two-hint-rows-over-budget": [
        "twohint",
        {
            "source": {"x": [0, 1, 2], "y": [0, 1, 2], "p": [[0.1] * 3, [0.1] * 3, [0.1, 0.1, 0.2]]},
            "scheme": {"cs": 1, "c1": 9, "c2": 1},
        },
        "--budget",
        "8",
    ],
    "two-hint-hint-over-2-62": [
        "twohint",
        {"source": {"uniform": 4}, "rho": 1, "scheme": {"cs": 4, "c1": 2**62 - 1, "c2": 1}},
    ],
    "eve-list-rational-epsilon-over-budget": [
        "twohint",
        {"source": {"uniform": 4}, "scheme": {"kind": "eve-list", "m1_size": 4, "m2_size": 4, "epsilon": 1e12}},
        "--rational",
    ],
    # a secret-key scheme's key quotient has one row per support (x, y): five here, over a budget of 4
    "secret-key-rows-over-budget": [
        "twohint",
        {"source": {"x": [0, 1, 2, 3, 4], "p": [0.2] * 5}, "scheme": {"kind": "secret-key", "c": 1, "k_size": 2}},
        "--budget",
        "4",
    ],
    "eve-list-rows-over-budget": [
        "twohint",
        {"source": {"uniform": 4}, "scheme": {"kind": "eve-list", "m1_size": 100000, "m2_size": 100000, "epsilon": 20}},
    ],
    "disks-views-over-budget": [
        "disks",
        {"source": {"uniform": 4}, "scheme": {"delta": 40, "nu": 20, "eta": 1, "s": 6, "p": 6, "r": 0}},
    ],
    "disks-envelope-over-budget": ["disks", {**DISKS_3_2_1, "unequal_sizes": [1e300, 4, 4]}],
    "functional-starts-over-budget": ["exponent", {**SMALL_FUNCTIONAL, "grid_points": 100000000}],
    "distortion-d-too-few-rows": [
        "distortion",
        {"source": {"uniform": 2}, "distortion": {"xhat": [0, 1], "d": [[0, 1]], "delta": 0.5}},
    ],
    "distortion-d-too-many-rows": [
        "distortion",
        {"source": {"uniform": 2}, "distortion": {"xhat": [0, 1], "d": [[0, 1], [1, 0], [0, 0]], "delta": 0.5}},
    ],
    "distortion-xhat-repeated": [
        "distortion",
        {"source": {"uniform": 2}, "distortion": {"hamming": False, "xhat": [0, 0], "d": [[0, 1], [1, 0]]}},
    ],
    "x-symbol-an-array": ["entropy", {"source": {"x": [[0], [1]], "p": [0.5, 0.5]}}],
    "y-symbol-an-array": ["entropy", {"source": {"x": [0, 1], "y": [[0]], "p": [[0.5], [0.5]]}}],
}


def assert_one_line_config_error(*argv) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "hintlock.cli", *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("config error"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED)
def test_malformed_config_exits_2_with_one_line(case):
    command, config, *flags = case
    assert_one_line_config_error(command, json.dumps(config), *flags)


def run_in_2_gb(*argv) -> subprocess.CompletedProcess:
    """`hintlock argv` in a child whose address space is capped at 2 GB."""
    import resource

    cap = (2_000_000_000, 2_000_000_000)
    return subprocess.run(
        [sys.executable, "-m", "hintlock.cli", *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
    )


LIST = {"rho": 1, "version": "list"}
LARGE_DESCRIPTOR_ALPHABETS = {  # list versions whose descriptor has 10^8 and 2^48 values
    "twohint-c1-1e8": ["twohint", {**LIST, "source": {"uniform": 4}, "scheme": {"cs": 1, "c1": 100000000, "c2": 1}}],
    "disks-r-16": [
        "disks",
        {**LIST, "source": {"uniform": 16}, "scheme": {"delta": 3, "nu": 2, "eta": 1, "s": 32, "p": 16, "r": 16}},
    ],
}


@pytest.mark.parametrize("command, config", LARGE_DESCRIPTOR_ALPHABETS.values(), ids=LARGE_DESCRIPTOR_ALPHABETS)
def test_list_version_never_writes_out_its_descriptor_alphabet(command, config):
    proc = run_in_2_gb(command, json.dumps(config))
    assert proc.returncode == 0, proc.stderr
    assert "0 failures" in proc.stderr


def test_secret_key_rows_do_not_grow_with_the_keys(capsys):
    # 10^8 keys per (x, y): the key quotient has four rows, within the default budget
    cfg = {"source": {"uniform": 4}, "rho": 1, "scheme": {"kind": "secret-key", "c": 1, "k_size": 100000000}}
    start = time.perf_counter()
    code, _, err = run(capsys, "twohint", json.dumps(cfg))
    assert code == 0 and "0 failures" in err
    assert time.perf_counter() - start < 1.0


def test_padded_rows_do_not_grow_with_the_pads(capsys):
    # two-hint at cs = 10^7 and delta-disk at 2^12 pads per (x, y) build |supp P| rows
    cfg = {"source": {"uniform": 4}, "rho": 1, "scheme": {"cs": 10000000, "c1": 1, "c2": 1}}
    assert run(capsys, "twohint", json.dumps(cfg))[0] == 0
    cfg = {"source": {"uniform": 256}, "rho": [1.0], "scheme": {"delta": 6, "nu": 4, "eta": 2, "s": 9, "p": 3, "r": 6}}
    code, out, _ = run(capsys, "disks", json.dumps(cfg), "--rational")
    assert code == 0
    assert out.splitlines()[1:] == [  # the rows of the full law's enumeration, at --budget 10^8
        "disks,structure,nu-subset-recovery,==,1,1,0,1,seed=0",
        "disks,structure,eta-subset-independence,==,1,1,0,1,seed=0",
        "disks-guessing,rho=1,bob-direct-g,<,1,1.00003051758,3.0517578125e-05,1,seed=0",
        "disks-guessing,rho=1,eve-direct-g,>=,9.03515625,0.0169760273199,9.01818022268,1,seed=0",
        "disks-guessing,rho=1,bob-converse-g,>=,1,1,0,1,seed=0",
        "disks-guessing,rho=1,eve-converse-g,<=,9.03515625,256,246.96484375,1,seed=0",
    ]


# Config fuzz: configs drawn from the key tables.  A config starts from a good
# example, and each section from one too or, in one case of four, from nothing.
# Each key is then kept, drawn valid, drawn wrong, or left out (a section the
# start lacks is drawn); an extra key may ride along.
WRONG = [None, "a", True, [], {}, [["a"]], 0, -1, 0.5, 10**7, 10**30, 1e300, -1e300, math.nan, math.inf, -math.inf]
AS_IS_VALUES = {  # values of the keys read as is (the last two sources are malformed) and of a sized list
    "source": [
        {"uniform": 2},
        {"uniform": 3},
        {"x": [0, 1, 2], "p": [0.5, 0.25, 0.25]},
        {"x": [0, 1], "y": [0, 1], "p": [[0.25, 0.25], [0.4, 0.1]]},
        {"uniform": 10**30},
        {"x": [[0], [1]], "p": [0.5, 0.5]},
    ],
    "alpha": [[0, 0.5, 2, "inf"], 1, "inf", [-1]],
    "hamming": [True, False],
    "xhat": [[0, 1], [0], []],
    "d": [[[0, 1], [1, 0]], [[0, 1, 2], [1, 0, 0]], [[], []]],
    "dump_witness": [os.devnull],
    "unequal_sizes": [[2, 3, 4], [4, 4, 4]],
}
SCHEME_EXAMPLES = {
    "two-hint": {"cs": 2, "c1": 2, "c2": 1, "m1_size": 4, "m2_size": 4},
    "secret-hint": {"c": 2, "ms_size": 2},
    "secret-key": {"c": 2, "k_size": 2},
    "eve-list": {"m1_size": 4, "m2_size": 4, "epsilon": 20},
}
SECTIONS = {  # (command, key) -> the (table, good example) pairs a section may be drawn from
    ("twohint", "scheme"): [
        ({"kind": ((kind,), kind, None), **keys}, {"kind": kind, **SCHEME_EXAMPLES[kind]})
        for kind, (_, keys, _) in SCHEMES.items()
    ],
    ("disks", "scheme"): [(DISK, {"delta": 3, "nu": 2, "eta": 1, "s": 2, "p": 2, "r": 0})],
    ("distortion", "distortion"): [
        (DISTORTION, {"hamming": True, "delta": 0.5}),
        (DISTORTION, {"xhat": [0, 1], "d": [[0, 1], [1, 0]], "delta": 0.5}),
    ],
    ("exponent", "rates"): [(RATES, {"r1": 0.5, "r2": 0.5}), (DISK_RATES, {"rate_s": 1, "nu": 2, "eta": 1})],
}


def values(kind, key: str):
    """A strategy for values of a key of `kind` that its kind admits."""
    if key in AS_IS_VALUES:
        return st.sampled_from(AS_IS_VALUES[key])
    if kind is int:
        return st.integers(1, 4)
    if kind is float:
        return st.sampled_from([0.5, 1.0, 2.5])
    if isinstance(kind, list):
        return values(kind[0], key) | st.lists(values(kind[0], key), min_size=1, max_size=3)
    return st.sampled_from(kind)  # a choice


@st.composite
def sections(draw, command: str, pairs: list, top: bool = False) -> dict:
    """A section read by the table of one of the (table, good example) `pairs`."""
    table, good = draw(st.sampled_from(pairs))
    out = dict(good) if top or draw(st.integers(0, 3)) else {}
    for key, (kind, _, _) in table.items():
        how = draw(st.sampled_from(["keep"] * 5 + ["valid", "wrong", "absent"]))
        if how == "wrong":
            out[key] = draw(st.sampled_from(WRONG))
        elif how == "absent":
            out.pop(key, None)
        elif kind is dict and (how == "valid" or key not in out):
            out[key] = draw(sections(command, SECTIONS[command, key]))
        elif how == "valid":
            out[key] = draw(values(kind, key))
    if draw(st.booleans()):
        out["extra"] = draw(st.sampled_from(WRONG))
    return out


@st.composite
def configs(draw) -> tuple[str, dict]:
    command = draw(st.sampled_from(sorted(KEYS)))
    keys = dict(KEYS[command])
    if command == "exponent":  # the functional's default polish takes about 20 s; MALFORMED covers it
        del keys["distortion"]
    good = {"source": {"uniform": 2}, "entropy_rate": 0.5}
    return command, draw(sections(command, [(keys, {k: v for k, v in good.items() if k in keys})], top=True))


@settings(max_examples=300, deadline=2000)
@given(configs(), st.sampled_from([[], ["--rational"]]))
def test_config_fuzz_exits_0_1_or_2_with_one_line_on_2(case, flags):
    command, config = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, json.dumps(config), "--budget", "256", *flags])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, err.getvalue()


UNWRITABLE = ["out-a-directory", "out-in-a-missing-directory", "witness-a-directory", "witness-a-number"]


@pytest.mark.parametrize("case", UNWRITABLE)
def test_unwritable_output_exits_2_with_one_line(tmp_path, case):
    entropy = json.dumps({"source": {"uniform": 2}})
    argv = {
        "out-a-directory": ["entropy", entropy, "--out", str(tmp_path)],
        "out-in-a-missing-directory": ["entropy", entropy, "--out", str(tmp_path / "missing" / "x.csv")],
        "witness-a-directory": ["exponent", json.dumps({**SMALL_FUNCTIONAL, "dump_witness": str(tmp_path)})],
        "witness-a-number": ["exponent", json.dumps({**SMALL_FUNCTIONAL, "dump_witness": 5})],
    }[case]
    assert_one_line_config_error(*argv)
    assert list(tmp_path.iterdir()) == []


def test_unwritable_witness_is_rejected_before_the_search(tmp_path, monkeypatch, capsys):
    def search(*args):
        raise AssertionError("the rate-distortion search ran before the witness path was checked")

    monkeypatch.setattr(exponents, "rd_exponent_functional", search)  # cli imports it on dispatch
    code, out, err = run(capsys, "exponent", json.dumps({**SMALL_FUNCTIONAL, "dump_witness": str(tmp_path)}))
    assert code == 2 and out == "" and err.startswith("config error") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_witness_of_several_rhos_is_rejected_before_the_search(tmp_path, monkeypatch, capsys):
    def search(*args):
        raise AssertionError("the rate-distortion search ran before the rho list was checked")

    monkeypatch.setattr(exponents, "rd_exponent_functional", search)
    witness = tmp_path / "witness.json"
    config = {**SMALL_FUNCTIONAL, "rho": [0.5, 2], "dump_witness": str(witness)}
    code, out, err = run(capsys, "exponent", json.dumps(config))
    assert code == 2 and out == "" and err.startswith("config error") and len(err.splitlines()) == 1
    assert not witness.exists()


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
