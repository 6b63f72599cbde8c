import importlib
import os
import subprocess
import sys
import types

import pytest

import hintlock

# `hintlock.__all__` as it was when `hintlock/__init__` imported every module:
# the public names and the package's modules, sorted.
PUBLIC = """
    AlphabetMismatchError BudgetExceededError DecodingListTable DeltaHintScheme DetTaskEncoder DistortionSpec
    DomainError ExponentResult FieldTable GenMatrix GuessingFunction JointPmf NormalizationError Pmf RdQuery
    RenyiOrder ReportRow StochTaskEncoder SuccessFunction TwoHintScheme adversary arikan_bounds avg_distortion
    bounds brute_optimal_distortion_guesser build_delta_scheme build_eve_list_scheme build_secret_hint
    build_secret_key build_two_hint bunte_bounds choose_pr choose_triple decoding_lists derandomize
    disk_exponents disks distortion encoder_from_guessing eve_ambiguity_weak exponents fact1_census field_make
    gf greedy_cover_guesser guess_moment guessing guessing_from_lists kl_divergence list_moment mds_check
    optimal_guess_moment optimal_guesser prob product_pmf random_joint rd_encoder_from_guessing
    rd_exponent_functional rd_function rd_guessing_from_lists rd_privacy_exponent rd_side_info_encoder
    renyi_cond_entropy report rows_to_csv rows_to_markdown rs_generator side_info_encoder side_info_lower_bound
    success_function tasks two_hint_exponents twohint validate verify_disk_theorems verify_finite_blocklength
""".split()
DUNDERS = [
    "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__", "__package__",
    "__path__", "__spec__", "__version__",
]


def test_all_is_unchanged():
    assert hintlock.__all__ == PUBLIC and len(PUBLIC) == 76


def test_dir_lists_every_public_name():
    assert set(PUBLIC + DUNDERS) <= set(dir(hintlock))
    assert set(dir(hintlock)) - set(PUBLIC + DUNDERS) <= {"cli"}  # a module the tests loaded


def test_dir_of_a_fresh_package():
    src = os.path.dirname(os.path.dirname(hintlock.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import hintlock; print(' '.join(dir(hintlock)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(PUBLIC + DUNDERS) and len(proc.stdout.split()) == 87


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(hintlock, name)
    if isinstance(value, types.ModuleType):
        assert value is importlib.import_module(f"hintlock.{name}")
    else:
        assert value.__module__.startswith("hintlock.")
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_exponents_live_in_bounds_and_are_re_exported():
    from hintlock import bounds, disks, twohint

    assert twohint.two_hint_exponents is bounds.two_hint_exponents is hintlock.two_hint_exponents
    assert disks.disk_exponents is bounds.disk_exponents is hintlock.disk_exponents


def test_star_import():
    namespace: dict = {}
    exec("from hintlock import *", namespace)
    assert all(namespace[name] is getattr(hintlock, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hintlock.no_such_name  # noqa: B018
    from hintlock import cli, disks

    assert disks is sys.modules["hintlock.disks"] and cli is sys.modules["hintlock.cli"]
