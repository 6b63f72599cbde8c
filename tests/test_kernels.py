"""Property tests: the shared moment kernels, the prepared cell view, Eve's
oracle and the batched Blahut-Arimoto solver against slow oracles."""

from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hintlock.adversary import (
    Cell,
    CellView,
    bob_minmax_bracket,
    cells,
    eve_ambiguity,
    eve_exact_enumeration,
    eve_exact_matching,
    moment_for_constant,
    support_moment,
)
from hintlock import exponents
from hintlock.disks import build_delta_scheme
from hintlock.distortion import DistortionSpec
from hintlock.exponents import RdQuery, rd_exponent_functional, rd_function
from hintlock.guessing import grouped_moment, random_joint
from hintlock.prob import BudgetExceededError, DomainError, JointPmf
from hintlock.twohint import build_two_hint
from oracles import dense_matching, eve_strategy_pair_bruteforce, reference_rd_function

RHOS = st.sampled_from([0.5, 1.0, 2.0])
MASSES = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def cell_lists(draw, n_x=3, n_ctx=3, max_views=3, max_cells=7, masses=MASSES):
    n_views = draw(st.integers(1, max_views))
    return [
        Cell(
            draw(masses),
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


RHO_RUNS = st.lists(RHOS, min_size=1, max_size=4)


def assert_same_as_per_call_code(view, reference: list, rhos) -> None:
    """Every oracle on `view` gives the per-call code's float (==, not approx)
    over `rhos` and back, and a mergeable list raises on every call."""
    for rho in rhos + rhos[::-1]:
        for k in range(len(reference[0].views)):
            assert moment_for_constant(view, k, rho) == oracles.moment_for_constant(reference, k, rho)
        for reduce in (min, max):
            assert support_moment(view, rho, reduce) == oracles.support_moment(reference, rho, reduce)
        assert bob_minmax_bracket(view, rho) == oracles.bob_minmax_bracket(reference, rho)
        try:
            expected = oracles.eve_exact_matching(reference, rho)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                eve_exact_matching(view, rho)
        else:
            assert eve_exact_matching(view, rho) == expected


@settings(max_examples=150, deadline=None)
@given(cell_lists(n_ctx=4, max_cells=12, masses=st.one_of(st.just(0.0), MASSES)), RHO_RUNS)
def test_prepared_view_equals_per_call_code(cell_list, rhos):
    # a 0.0 mass stands for a float-zero cell; many of these lists are mergeable
    assert_same_as_per_call_code(CellView(cell_list), cell_list, rhos)
    assert_same_as_per_call_code(cell_list, cell_list, rhos)  # a plain list, prepared per call


@settings(max_examples=100, deadline=None)
@given(unmergeable_cells(max_cells=30), RHO_RUNS)
def test_prepared_matching_equals_per_call_code(cell_list, rhos):
    view = CellView(cell_list)
    for rho in rhos + rhos[::-1]:
        assert eve_exact_matching(view, rho) == oracles.eve_exact_matching(cell_list, rho)


def test_scheme_views_equal_per_call_code():
    joint = random_joint(np.random.default_rng(5), 6, 4, exact=True)
    two_hint = build_two_hint(joint, 2, 2, 2)
    disk = build_delta_scheme(joint, 3, 2, 1, 4, 2, 2)
    for view in (two_hint.bob_cells, two_hint.eve_cells, disk.bob_cells, disk.eve_cells):
        assert isinstance(view, CellView)
        assert_same_as_per_call_code(view, list(view), [2.0, 0.5, 1.0])


def test_zero_mass_cells_add_nothing():
    # a positive Fraction below the float range becomes a float-zero cell
    law = {(0, "a"): Fraction(1, 2), (1, "a"): Fraction(1, 10**400), (2, "b"): Fraction(1, 2)}
    zs = cells(law, lambda key: (key[1], "c"))
    assert [c.prob for c in zs] == [0.5, 0.0, 0.5]
    for rho in (0.5, 1.0, 2.0):
        assert eve_exact_matching(zs, rho) == eve_exact_enumeration(zs, rho) == 1.0
    assert eve_exact_matching([Cell(0.0, 0, ("c",))], 1.0) == 0.0


# The functional's fast controls for scoring and polishing.
FAST = RdQuery(ba_iters=120, ba_tol=1e-9, lambda_points=8, bisect_iters=16)
DELTAS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5, exclude_min=True))


@st.composite
def joints(draw, max_x=4, max_y=3):
    """A joint law on 2..max_x symbols and 1..max_y contexts, with zero cells."""
    nx, ny = draw(st.integers(2, max_x)), draw(st.integers(1, max_y))
    mass = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))
    cells = draw(st.lists(mass, min_size=nx * ny, max_size=nx * ny).filter(lambda c: sum(c) > 0))
    total = sum(cells)
    return JointPmf.of([[cells[i * ny + j] / total for j in range(ny)] for i in range(nx)])


@settings(max_examples=30, deadline=None)
@given(joints(), DELTAS, st.sampled_from([RdQuery(), FAST]))
def test_batched_rd_function_equals_per_slice_reference(joint, delta, controls):
    spec = DistortionSpec.hamming(joint.x_alphabet, delta)
    try:
        expected = reference_rd_function(joint, spec, controls)
    except DomainError:
        with pytest.raises(DomainError):
            rd_function(joint, spec, controls)
        return
    assert rd_function(joint, spec, controls) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@settings(max_examples=10, deadline=None)
@given(joints(max_x=3, max_y=2), DELTAS, RHOS)
def test_batched_start_scoring_equals_one_by_one(joint, delta, rho):
    """Scoring all starts in one call gives every start the score it gets alone."""
    spec = DistortionSpec.hamming(joint.x_alphabet, delta)
    controls = RdQuery(grid_points=12, polish_runs=2, polish_steps=1)
    rates = exponents._rates

    def run(one_by_one: bool):
        scores = []

        def recorded(laws, spec, query):
            out = [r for law in laws for r in rates([law], spec, query)] if one_by_one else rates(laws, spec, query)
            scores.append(out)
            return out

        with mock.patch.object(exponents, "_rates", recorded):
            res = rd_exponent_functional(joint, spec, rho, controls)
        return scores, res

    batched_scores, batched = run(False)
    single_scores, single = run(True)
    assert batched_scores == single_scores
    assert batched.value == single.value
    assert batched.witness == single.witness
