import math
from fractions import Fraction

import numpy as np
import pytest

from hintlock.adversary import (
    Cell,
    bob_minmax_bracket,
    eve_exact_enumeration,
    eve_exact_matching,
    eve_local_search,
    has_mergeable_cells,
    moment_for_constant,
)
from hintlock.prob import BudgetExceededError
from oracles import eve_strategy_pair_bruteforce


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
            m = eve_exact_matching(cells, rho)
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
    with pytest.raises(BudgetExceededError):
        eve_exact_matching(cells, 1.0)
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
            assert moment_for_constant(cells, k, 1.0) >= exact - 1e-12


def test_bob_bracket_sound():
    rng = np.random.default_rng(11)
    for _ in range(30):
        cells = random_cells(rng, int(rng.integers(3, 8)), 3, 3, 2)
        lo, hi = bob_minmax_bracket(cells, 1.0)
        assert lo <= hi + 1e-12
        # the per-subset optimum for any fixed subset lower-bounds the min-max
        for k in range(2):
            assert moment_for_constant(cells, k, 1.0) <= lo + 1e-12
        assert lo >= max(moment_for_constant(cells, k, 1.0) for k in range(2)) - 1e-12


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
