"""Property tests: the shared moment kernels and Eve's oracle against slow oracles."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintlock.adversary import (
    Cell,
    eve_ambiguity,
    eve_exact_enumeration,
    eve_strategy_pair_bruteforce,
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
