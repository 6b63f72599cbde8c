"""Property tests: the shared moment kernels and Eve's oracle against slow oracles."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintlock.adversary import (
    Cell,
    _components,
    cells,
    eve_ambiguity,
    eve_exact_enumeration,
    eve_exact_matching,
    eve_strategy_pair_bruteforce,
    has_mergeable_cells,
    support_moment,
)
from hintlock.guessing import grouped_moment

RHOS = st.sampled_from([0.5, 1.0, 2.0])
MASSES = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def cell_lists(draw, n_x=3, n_ctx=3, max_views=3, max_cells=7):
    n_views = draw(st.integers(1, max_views))
    return [
        Cell(
            draw(MASSES),
            draw(st.integers(0, n_x - 1)),
            tuple((k, draw(st.integers(0, n_ctx - 1))) for k in range(n_views)),
        )
        for _ in range(draw(st.integers(1, max_cells)))
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), MASSES), min_size=1, max_size=9), RHOS)
def test_grouped_moment_is_min_over_orderings(triples, rho):
    groups: dict = {}
    for ctx, key, p in triples:
        groups.setdefault(ctx, {})
        groups[ctx][key] = groups[ctx].get(key, 0.0) + p
    brute = sum(
        min(
            sum(by_key[k] * rank**rho for rank, k in enumerate(order, start=1))
            for order in permutations(by_key)
        )
        for by_key in groups.values()
    )
    assert grouped_moment(triples, rho) == pytest.approx(brute, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(cell_lists(), RHOS, st.sampled_from([min, max]))
def test_support_moment_is_set_counting(cells, rho, reduce):
    def list_size(view):
        return len({d.x for d in cells if view in d.views})

    brute = sum(c.prob * reduce(list_size(v) for v in c.views) ** rho for c in cells)
    assert support_moment(cells, rho, reduce) == pytest.approx(brute, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(cell_lists(n_x=3, n_ctx=2, max_views=2), RHOS)
def test_eve_ambiguity_matches_slow_oracles(cells, rho):
    res = eve_ambiguity(cells, rho, None)
    assert res.exact and res.lower == res.value == res.upper
    assert res.value == pytest.approx(eve_exact_enumeration(cells, rho), rel=1e-9)
    assert res.value == pytest.approx(eve_strategy_pair_bruteforce(cells, (0, 1, 2), rho), rel=1e-9)


def dense_matching(cells, rho):
    """Reference oracle: every cell against every slot of its views, dense assignment."""
    from scipy.optimize import linear_sum_assignment

    assert not has_mergeable_cells(cells)
    total = 0.0
    for comp in _components(cells):
        slots = {}  # (ctx, position) -> column
        for ctx in dict.fromkeys(ctx for c in comp for ctx in c.views):
            degree = sum(ctx in c.views for c in comp)
            slots.update({(ctx, t): len(slots) + t - 1 for t in range(1, degree + 1)})
        cost = np.full((len(comp), len(slots)), 1e18)
        for i, cell in enumerate(comp):
            for (ctx, t), col in slots.items():
                if ctx in cell.views:
                    cost[i, col] = cell.prob * t**rho
        rows, cols = linear_sum_assignment(cost)
        total += float(cost[rows, cols].sum())
    return total


TIED_MASSES = st.sampled_from([0.0, 0.05, 0.1, 0.1, 0.25, 0.5])


@st.composite
def unmergeable_cells(draw, max_cells, n_x=6, n_ctx=4):
    """Cells with 1-3 (possibly repeated) views and tied masses; a cell that
    could merge with an earlier one in some context is dropped."""
    seen: set = set()
    out = []
    for _ in range(draw(st.integers(1, max_cells))):
        x = draw(st.integers(0, n_x - 1))
        views = tuple(draw(st.lists(st.integers(0, n_ctx - 1), min_size=1, max_size=3)))
        if seen.isdisjoint((x, v) for v in views):
            seen.update((x, v) for v in views)
            out.append(Cell(draw(TIED_MASSES), x, views))
    return out


@settings(max_examples=100, deadline=None)
@given(unmergeable_cells(max_cells=30), RHOS)
def test_sparse_matching_equals_dense_reference(cells, rho):
    assert eve_exact_matching(cells, rho) == pytest.approx(dense_matching(cells, rho), rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(unmergeable_cells(max_cells=10), RHOS)
def test_sparse_matching_equals_enumeration(cells, rho):
    sparse = eve_exact_matching(cells, rho)
    assert sparse == pytest.approx(dense_matching(cells, rho), rel=1e-12, abs=1e-15)
    assert sparse == pytest.approx(eve_exact_enumeration(cells, rho), rel=1e-9, abs=1e-15)


def test_zero_mass_cells_add_nothing():
    # a positive Fraction below the float range becomes a float-zero cell
    law = {(0, "a"): Fraction(1, 2), (1, "a"): Fraction(1, 10**400), (2, "b"): Fraction(1, 2)}
    zs = cells(law, lambda key: (key[1], "c"))
    assert [c.prob for c in zs] == [0.5, 0.0, 0.5]
    for rho in (0.5, 1.0, 2.0):
        assert eve_exact_matching(zs, rho) == eve_exact_enumeration(zs, rho) == 1.0
    assert eve_exact_matching([Cell(0.0, 0, ("c",))], 1.0) == 0.0
