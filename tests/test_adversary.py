import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hintlock.adversary import Cell, eve_exact_matching, moment_for_constant, row_ids, support_moment
from hintlock.disks import build_delta_scheme, unequal_converse_rows, verify_disk_theorems
from hintlock.guessing import random_joint
from hintlock.prob import BudgetExceededError, DomainError
from hintlock.twohint import (
    build_eve_list_scheme,
    build_secret_hint,
    build_secret_key,
    build_two_hint,
    verify_eve_list,
    verify_finite_blocklength,
    verify_secret_hint,
    verify_secret_key,
)
from oracles import (
    as_view,
    bob_minmax_bracket,
    coded,
    eve_exact_enumeration,
    eve_local_search,
    eve_strategy_pair_bruteforce,
    full_law,
    has_mergeable_cells,
    ranks_alike,
)


def random_cells(rng, n_cells, n_x, n_ctx, n_views):
    w = rng.dirichlet(np.ones(n_cells))
    cells = []
    for i in range(n_cells):
        views = tuple(
            (k, int(rng.integers(n_ctx))) for k in range(n_views)
        )
        cells.append(Cell(float(w[i]), int(rng.integers(n_x)), views))
    return cells


def test_matching_equals_enumeration_random():
    rng = np.random.default_rng(123)
    done = 0
    while done < 60:
        cells = random_cells(rng, int(rng.integers(3, 10)), 3, 3, 2)
        if has_mergeable_cells(cells):
            continue
        done += 1
        for rho in (0.5, 1.0, 2.0):
            m = eve_exact_matching(as_view(cells), rho)
            e = eve_exact_enumeration(cells, rho)
            assert m == pytest.approx(e, abs=1e-11)


def test_enumeration_handles_merging():
    # two cells with the same x collide in context (0, 0): routing both there
    # merges masses and is strictly better than any split here
    cells = [
        Cell(0.3, "a", ((0, 0), (1, 0))),
        Cell(0.3, "a", ((0, 0), (1, 1))),
        Cell(0.4, "b", ((0, 0), (1, 2))),
    ]
    assert has_mergeable_cells(cells)
    with pytest.raises(DomainError, match="share a context"):
        eve_exact_matching(as_view(cells), 1.0)
    val = eve_exact_enumeration(cells, 1.0)
    # route everything away from collisions: each cell can reach rank 1
    assert val == pytest.approx(1.0)


def test_strategy_pairs_match_accomplice_formulation():
    rng = np.random.default_rng(7)
    for _ in range(15):
        cells = random_cells(rng, int(rng.integers(2, 5)), 2, 2, 2)
        x_alpha = (0, 1)
        pairs = eve_strategy_pair_bruteforce(cells, x_alpha, 1.0)
        enum = eve_exact_enumeration(cells, 1.0)
        assert pairs == pytest.approx(enum, abs=1e-9)


def test_local_search_upper_bounds_exact():
    rng = np.random.default_rng(31)
    for _ in range(25):
        cells = random_cells(rng, int(rng.integers(3, 9)), 3, 3, 3)
        exact = eve_exact_enumeration(cells, 1.0)
        upper = eve_local_search(cells, 1.0)
        assert upper >= exact - 1e-12


def test_constant_assignments_bound_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cells = random_cells(rng, 6, 3, 2, 2)
        exact = eve_exact_enumeration(cells, 1.0)
        for k in range(2):
            assert moment_for_constant(as_view(cells), k, 1.0) >= exact - 1e-12


def test_bob_bracket_sound():
    rng = np.random.default_rng(11)
    for _ in range(30):
        cells = random_cells(rng, int(rng.integers(3, 8)), 3, 3, 2)
        lo, hi = bob_minmax_bracket(cells, 1.0)
        assert lo <= hi + 1e-12
        # the per-subset optimum for any fixed subset lower-bounds the min-max
        for k in range(2):
            assert moment_for_constant(as_view(cells), k, 1.0) <= lo + 1e-12
        assert lo >= max(moment_for_constant(as_view(cells), k, 1.0) for k in range(2)) - 1e-12


def test_bracket_closes_when_views_equivalent():
    # both views reveal the same partition -> per-subset guessers coincide
    cells = [
        Cell(0.5, 0, (("A", 0), ("B", 0))),
        Cell(0.3, 1, (("A", 0), ("B", 0))),
        Cell(0.2, 2, (("A", 1), ("B", 1))),
    ]
    lo, hi = bob_minmax_bracket(cells, 1.0)
    assert lo == pytest.approx(hi)
    assert lo == pytest.approx(0.5 * 1 + 0.3 * 2 + 0.2 * 1)


def test_enumeration_budget_guard():
    rng = np.random.default_rng(3)
    cells = random_cells(rng, 40, 3, 3, 2)
    with pytest.raises(BudgetExceededError):
        eve_exact_enumeration(cells, 1.0, budget_bits=10)


def _disk_rows(scheme, rho) -> list:
    """Every delta-disk verifier: the scheme's own version, guessing, and the unequal converse."""
    sizes = (scheme.s,) * scheme.delta
    return [
        *verify_disk_theorems(scheme, rho),
        *verify_disk_theorems(scheme, rho, "guessing"),
        *unequal_converse_rows(scheme.joint, scheme, sizes, scheme.nu, scheme.eta, rho),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_built_schemes_keep_both_invariants(seed):
    # every builder in both versions: no Eve view merges cells, every Bob view
    # ranks each cell alike, and every verifier runs without raising
    rng = np.random.default_rng(seed)
    joint = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)), exact=bool(seed % 2), zeros=0.2)
    for version in ("guessing", "list"):
        built = [(build_two_hint(joint, *t, version), verify_finite_blocklength) for t in ((1, 4, 4), (2, 2, 2))]
        built += [
            (build_two_hint(joint, 4, 2, 1, version), verify_finite_blocklength),
            (build_secret_hint(joint, 4, 4, version), verify_secret_hint),
            (build_secret_key(joint, 4, 4, version), verify_secret_key),
        ]
        for params in ((3, 2, 1, 4, 2, 2), (4, 3, 2, 4, 2, 2), (3, 2, 0, 2, 2, 0)):
            built += [(build_delta_scheme(joint, *params, version), _disk_rows)]
        for scheme, verify in built:
            assert not has_mergeable_cells(list(scheme.eve_cells))
            assert ranks_alike(list(scheme.bob_cells))
            for rho in (0.5, 2.0):
                assert verify(scheme, rho)
    assert verify_eve_list(build_eve_list_scheme(joint, 8, 8, 3.0), 1.0)


def test_row_ids_of_wide_columns_stay_exact():
    # six y values times a column near 2^62 would pass 2^64 in the mixed radix
    y = np.arange(6)
    wide = np.array([2**62 - 1, 2**62 - 1, 0, 2**62 - 1, 2**62 - 1, 5])
    ids = row_ids(y, wide).tolist()
    assert len(set(ids)) == 6
    assert row_ids(np.zeros(4, dtype=np.int64), np.array([2**62 - 1, 3, 2**62 - 1, 3])).tolist() == [1, 0, 1, 0]
    # the ids order rows as tuples do
    rows = list(zip(y.tolist(), wide.tolist()))
    assert ids == [sorted(rows).index(r) for r in rows]


def full_law_views(scheme) -> SimpleNamespace:
    """Bob's and Eve's views of a scheme's full law, over all its pads."""
    law = coded(full_law(scheme))
    return SimpleNamespace(bob_cells=law.view(scheme.bob_positions), eve_cells=law.view(scheme.eve_positions))


PINNED_SCHEMES = {  # a scheme built on a seeded joint, or its full law
    "two-hint 5x3 float": lambda: build_two_hint(random_joint(np.random.default_rng(11), 5, 3, zeros=0.2), 4, 4, 4),
    "two-hint 6x2 rational list": lambda: build_two_hint(
        random_joint(np.random.default_rng(12), 6, 2, exact=True), 4, 4, 4, "list"
    ),
    "secret-key 4x3 rational": lambda: full_law_views(
        build_secret_key(random_joint(np.random.default_rng(13), 4, 3, exact=True, zeros=0.2), 2, 2)
    ),
    "delta-disk 6x3 float": lambda: build_delta_scheme(random_joint(np.random.default_rng(14), 6, 3), 4, 2, 1, 4, 2, 2),
    "two-hint 96x4 float": lambda: build_two_hint(random_joint(np.random.default_rng(1), 96, 4), 4, 4, 4),
    "delta-disk 16x32 rational": lambda: build_delta_scheme(
        random_joint(np.random.default_rng(1), 16, 32, exact=True), 4, 2, 1, 4, 2, 2
    ),
}
# Per rho in (0.5, 1, 2.5): Eve's view-0 guessing moment, Bob's max-list and
# Eve's min-list moments, and Eve's matching value, as recorded when the numpy
# kernels moved from `guessing` into `adversary`; the last two, whose chunks
# of 96 and 128 cells scipy matches, before Eve's rows went heaviest first.
# The secret-key values are its full law's, over both keys: its built key
# quotient agrees within rel 1e-12 (test_quotient).
PINNED_HEX = {
    "two-hint 5x3 float": [
        "0x1.4b9fdd08aa852p+0", "0x1.fffffffffffffp-1", "0x1.f7f48dfb4a811p+0", "0x1.1918f51063604p+0",
        "0x1.cd1b8ade22917p+0", "0x1.fffffffffffffp-1", "0x1.f3eed4f8efc19p+1", "0x1.3c973810ca966p+0",
        "0x1.c4e5791a6b37dp+2", "0x1.fffffffffffffp-1", "0x1.f069d316e05a0p+4", "0x1.0d14be39f6a22p+1",
    ],
    "two-hint 6x2 rational list": [
        "0x1.4fb9d8caa13c0p+0", "0x1.0000000000000p+0", "0x1.fad86e938d8f5p+0", "0x1.18beff9547220p+0",
        "0x1.d525ee3c00000p+0", "0x1.0000000000000p+0", "0x1.f7335b3e00000p+1", "0x1.3bbe09fb00000p+0",
        "0x1.c1abe23da8d63p+2", "0x1.0000000000000p+0", "0x1.f1832481e363dp+4", "0x1.0b1b0e230e43fp+1",
    ],
    "secret-key 4x3 rational": [
        "0x1.26f71870ce1bfp+0", "0x1.0000000000000p+0", "0x1.60d5a05cd5f5dp+0", "0x1.26f71870ce1bfp+0",
        "0x1.5e1202c200000p+0", "0x1.0000000000000p+0", "0x1.e9c773ca00000p+0", "0x1.5e1202c200000p+0",
        "0x1.5b0935049c37cp+1", "0x1.0000000000000p+0", "0x1.502b373455f5dp+2", "0x1.5b0935049c37cp+1",
    ],
    "delta-disk 6x3 float": [
        "0x1.82554134828f7p+0", "0x1.fffffffffffffp-1", "0x1.ee34036ddfe70p+0", "0x1.0000000000000p+0",
        "0x1.3d583fe16a7ecp+1", "0x1.fffffffffffffp-1", "0x1.e19e71c25f2bep+1", "0x1.0000000000000p+0",
        "0x1.03eb9d6c2b262p+4", "0x1.fffffffffffffp-1", "0x1.cdfaab7f06bbcp+4", "0x1.0000000000000p+0",
    ],
    "two-hint 96x4 float": [
        "0x1.304618bc549bdp+1", "0x1.511ea8efe6eb7p+0", "0x1.2c039e482bee1p+2", "0x1.d770b98b9708fp+0",
        "0x1.a9581bcb83430p+2", "0x1.c3d726e9903ccp+0", "0x1.61eb9374c81e4p+4", "0x1.e98ed13257693p+1",
        "0x1.04ee1b8ece738p+8", "0x1.2400061f13193p+2", "0x1.2bea8a632b923p+11", "0x1.c1421d6010e92p+5",
    ],
    "delta-disk 16x32 rational": [
        "0x1.02106279a9491p+1", "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.07e6f26639a79p+0",
        "0x1.2d52cd4740000p+2", "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.1313d36600000p+0",
        "0x1.a20b42f477b0bp+6", "0x1.0000000000000p+0", "0x1.0000000000000p+5", "0x1.58d743cae69e5p+0",
    ],
}


@pytest.mark.parametrize("name", PINNED_SCHEMES)
def test_adversary_values_keep_their_bits(name):
    scheme, values = PINNED_SCHEMES[name](), []
    for rho in (0.5, 1.0, 2.5):
        values += [
            moment_for_constant(scheme.eve_cells, 0, rho),
            support_moment(scheme.bob_cells, rho),
            support_moment(scheme.eve_cells, rho, min),
            eve_exact_matching(scheme.eve_cells, rho),
        ]
    assert [v.hex() for v in values] == PINNED_HEX[name]
