"""hintlock: guessing attacks on hint-based distributed storage.

Finite probability spaces with conditional Renyi entropy, optimal guessing
and task-encoding, two-hint and coded multi-disk hint schemes with exact
adversary oracles, rate-distortion guessing, and asymptotic privacy-exponent
calculators.  Everything is exact or bracketed -- no Monte-Carlo estimates.
"""

from .prob import (
    Pmf,
    JointPmf,
    RenyiOrder,
    renyi_cond_entropy,
    kl_divergence,
    product_pmf,
    validate,
    NormalizationError,
    AlphabetMismatchError,
    DomainError,
    BudgetExceededError,
)
from .guessing import (
    GuessingFunction,
    optimal_guesser,
    guess_moment,
    optimal_guess_moment,
    arikan_bounds,
    side_info_encoder,
    side_info_lower_bound,
    random_joint,
)
from .tasks import (
    DetTaskEncoder,
    StochTaskEncoder,
    DecodingListTable,
    decoding_lists,
    list_moment,
    derandomize,
    bunte_bounds,
    encoder_from_guessing,
    guessing_from_lists,
    fact1_census,
)
from .twohint import (
    TwoHintScheme,
    build_two_hint,
    eve_ambiguity_weak,
    verify_finite_blocklength,
    choose_triple,
    build_secret_hint,
    build_secret_key,
    build_eve_list_scheme,
    two_hint_exponents,
)
from .gf import FieldTable, GenMatrix, field_make, rs_generator, mds_check
from .disks import (
    DeltaHintScheme,
    build_delta_scheme,
    verify_disk_theorems,
    choose_pr,
    disk_exponents,
)
from .distortion import (
    DistortionSpec,
    SuccessFunction,
    avg_distortion,
    success_function,
    brute_optimal_distortion_guesser,
    greedy_cover_guesser,
    rd_side_info_encoder,
    rd_encoder_from_guessing,
    rd_guessing_from_lists,
)
from .exponents import (
    RdQuery,
    ExponentResult,
    rd_function,
    rd_exponent_functional,
    rd_privacy_exponent,
)
from .report import ReportRow, rows_to_csv, rows_to_markdown

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
