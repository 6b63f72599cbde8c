"""hintlock: guessing attacks on hint-based distributed storage.

Finite probability spaces with conditional Renyi entropy, optimal guessing
and task-encoding, two-hint and coded multi-disk hint schemes with exact
adversary oracles, rate-distortion guessing, and asymptotic privacy-exponent
calculators.  Everything is exact or bracketed -- no Monte-Carlo estimates.

`import hintlock` loads none of its modules: each public name below, and each
module, is imported on its first use (PEP 562), so a program that needs only
the entropy or guessing layer never loads the scheme, GF or rate-distortion
code.  The source side (`prob`, `bounds`, `guessing`, `tasks`, `distortion`)
runs on Python floats and loads no numpy, so neither do the `entropy`,
`guess`, `task`, `distortion` and rates-only `exponent` commands; the scheme
layer (`adversary`, `twohint`, `disks`, `gf`) and `exponents` use numpy.
"""

import importlib as _importlib

_NAMES = {  # module -> the public names it defines
    "prob": (
        "Pmf JointPmf RenyiOrder renyi_cond_entropy kl_divergence product_pmf validate"
        " NormalizationError AlphabetMismatchError DomainError BudgetExceededError"
    ),
    "guessing": (
        "GuessingFunction optimal_guesser guess_moment optimal_guess_moment arikan_bounds"
        " side_info_encoder side_info_lower_bound random_joint"
    ),
    "tasks": (
        "DetTaskEncoder StochTaskEncoder DecodingListTable decoding_lists list_moment derandomize"
        " encoder_from_guessing guessing_from_lists"
    ),
    "bounds": "bunte_bounds fact1_census two_hint_exponents disk_exponents",
    "twohint": (
        "TwoHintScheme build_two_hint eve_ambiguity_weak verify_finite_blocklength choose_triple"
        " build_secret_hint build_secret_key build_eve_list_scheme"
    ),
    "gf": "FieldTable GenMatrix field_make rs_generator mds_check",
    "disks": "DeltaHintScheme build_delta_scheme verify_disk_theorems choose_pr",
    "distortion": (
        "DistortionSpec SuccessFunction avg_distortion success_function brute_optimal_distortion_guesser"
        " greedy_cover_guesser rd_side_info_encoder rd_encoder_from_guessing rd_guessing_from_lists"
    ),
    "exponents": "RdQuery ExponentResult rd_function rd_exponent_functional rd_privacy_exponent",
    "report": "ReportRow rows_to_csv rows_to_markdown",
    "adversary": "",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted([*_NAMES, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or a module of the package, imported on first use."""
    if name in _NAMES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """The public names and modules, the loaded modules and the module's own dunders."""
    own = (name for name in globals() if not name.startswith("_") or name.endswith("__"))
    return sorted({*__all__, *own} - {"__getattr__", "__dir__"})
