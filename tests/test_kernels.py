"""Property tests: the shared moment kernels, Eve's oracle and the batched
Blahut-Arimoto solver against slow oracles."""

import math
from fractions import Fraction
from itertools import permutations
from unittest import mock

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
from hintlock import exponents
from hintlock.distortion import DistortionSpec
from hintlock.exponents import RdQuery, rd_exponent_functional, rd_function
from hintlock.guessing import grouped_moment
from hintlock.prob import DomainError, JointPmf

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


LOG2 = math.log(2.0)


def _slice_ba(px: np.ndarray, dmat: np.ndarray, lam: float, iters: int, tol: float):
    """Reference: min over channels of I(X; Xhat) + lam * E[d] for one context slice."""
    nx, nh = dmat.shape
    q = np.full(nh, 1.0 / nh)
    w = np.exp(-lam * LOG2 * dmat)  # base-2 exponent tilt

    def normalize(raw: np.ndarray) -> np.ndarray:
        sums = raw.sum(axis=1, keepdims=True)
        fallback = (w > 0) / np.maximum((w > 0).sum(axis=1, keepdims=True), 1)
        return np.where(sums > 0, raw / np.maximum(sums, 1e-300), fallback)

    for _ in range(iters):
        ch = normalize(q[None, :] * w)
        q_new = px @ ch
        if np.abs(q_new - q).max() < tol:
            q = q_new
            break
        q = q_new
    ch = normalize(q[None, :] * w)
    mask = (px[:, None] * ch) > 0
    ratio = np.where(mask, ch / np.maximum(q[None, :], 1e-300), 1.0)
    mi = float((px[:, None] * ch * np.log2(np.maximum(ratio, 1e-300)))[mask].sum())
    ed = float((px[:, None] * ch * dmat).sum())
    return max(mi, 0.0), ed


def reference_rd_function(q_joint: JointPmf, spec: DistortionSpec, controls: RdQuery) -> float:
    """Reference: the per-slice, per-multiplier Lagrange sweep with bisection."""
    delta = spec.delta
    d = np.array(spec.d)
    if delta == 0.0:
        total = 0.0
        for j in range(len(q_joint.y_alphabet)):
            col = np.array([float(p) for p in q_joint.y_column(j)])
            py = col.sum()
            if py <= 0:
                continue
            mi, _ = _slice_ba(col / py, np.where(d == 0.0, 0.0, 1e9), 1.0, 2000, 1e-13)
            total += py * mi
        return total
    ny = len(q_joint.y_alphabet)
    corner = 0.0
    for j in range(ny):
        col = np.array([float(p) for p in q_joint.y_column(j)])
        corner += float((col[:, None] * d).sum(axis=0).min())
    if corner <= delta + 1e-15:
        return 0.0
    slices = []
    for j in range(ny):
        col = np.array([float(p) for p in q_joint.y_column(j)])
        py = col.sum()
        if py > 0:
            slices.append((py, col / py))

    def sweep(lam: float):
        mi_tot, ed_tot = 0.0, 0.0
        for py, px in slices:
            mi, ed = _slice_ba(px, d, lam, controls.ba_iters, controls.ba_tol)
            mi_tot += py * mi
            ed_tot += py * ed
        return mi_tot, ed_tot

    lams = np.logspace(-3, 3, controls.lambda_points)
    best_feasible = None
    lo, hi = None, None
    for lam in lams:
        mi, ed = sweep(float(lam))
        if ed <= delta:
            best_feasible = mi if best_feasible is None else min(best_feasible, mi)
            hi = lam if hi is None else min(hi, lam)
        else:
            lo = lam if lo is None else max(lo, lam)
    if best_feasible is None:
        lo = lo if lo is not None else 1e3
        hi = 1e7
        mi, ed = sweep(hi)
        if ed > delta:
            raise DomainError("distortion target unreachable; check the spec")
        best_feasible = mi
    if lo is not None and hi is not None:
        for _ in range(controls.bisect_iters):
            mid = math.sqrt(lo * hi)
            mi, ed = sweep(mid)
            if ed <= delta:
                best_feasible = min(best_feasible, mi)
                hi = mid
            else:
                lo = mid
            if hi / lo < 1 + 1e-12:
                break
    return max(best_feasible, 0.0)


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
