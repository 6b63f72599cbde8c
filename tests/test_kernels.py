"""Property tests: the shared moment kernels, the prepared cell view, Eve's
oracle and the batched Blahut-Arimoto solver against slow oracles."""

import math
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

import oracles
from hintlock.adversary import Cell, CellView, Law, eve_exact_matching, support_moment
from hintlock import adversary, exponents
from hintlock.disks import build_delta_scheme
from hintlock.distortion import DistortionSpec
from hintlock.exponents import RdQuery, rd_exponent_functional, rd_function
from hintlock.guessing import random_joint
from hintlock.prob import DomainError, JointPmf, Pmf, kl_divergence
from hintlock.twohint import build_two_hint
from oracles import (
    as_view,
    dense_matching,
    eve_exact_enumeration,
    eve_strategy_pair_bruteforce,
    has_mergeable_cells,
    reference_rd_function,
)

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
    assert grouped_kernel(triples, rho) == pytest.approx(brute, rel=1e-12)


def grouped_kernel(triples, rho):
    """The rank-table kernel of `adversary` on the int columns of (context,
    key, mass) triples; ties by key."""
    ctx, key = (np.array([t[i] for t in triples], dtype=np.int64) for i in range(2))
    mass = np.array([t[2] for t in triples], dtype=float)
    return adversary._table_moment(adversary._rank_table(ctx, key, mass, int(key.max(initial=0)) + 1), rho)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), st.floats(0.0, 1.0)), max_size=30),
    st.sampled_from([0.3, 1.0, 2.5]),
)
def test_grouped_kernel_equals_dict_reference(triples, rho):
    # few contexts and keys, so (context, key) pairs repeat and their masses
    # merge; equal masses tie, and the dict reference sorts them its own way
    assert grouped_kernel(triples, rho) == oracles.grouped_moment(triples, rho)


def test_realized_law_ranks_ties_as_the_source_does():
    # repr order ('a' < 'b' < 10 < 9) is not index order, and every context ties
    w = Fraction(1, 6)
    joint = JointPmf((9, 10, "b", "a"), (0, 1), ((w, 0), (w, w), (w, w), (0, w)))
    view = Law.on(joint, np.zeros((len(joint.support[0]), 0), dtype=np.int64)).view([()])
    _, _, rank, pair = adversary.rank_groups(view.ctx[:, 0], view.x, view.prob, len(view.xs))
    assert rank[pair].tolist() == joint.support[3].tolist() == [1, 2, 1, 3, 2, 3]


@settings(max_examples=100, deadline=None)
@given(cell_lists(), RHOS, st.sampled_from([min, max]))
def test_support_moment_is_set_counting(cells, rho, reduce):
    def list_size(view):
        return len({d.x for d in cells if view in d.views})

    brute = sum(c.prob * reduce(list_size(v) for v in c.views) ** rho for c in cells)
    assert support_moment(as_view(cells), rho, reduce) == pytest.approx(brute, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(cell_lists(n_x=3, n_ctx=2, max_views=2), RHOS)
def test_eve_ambiguity_matches_slow_oracles(cells, rho):
    # the matching answers unmergeable cells and rejects mergeable ones; the
    # enumeration answers both
    enumeration = eve_exact_enumeration(cells, rho)
    assert enumeration == pytest.approx(eve_strategy_pair_bruteforce(cells, (0, 1, 2), rho), rel=1e-9)
    if has_mergeable_cells(cells):
        with pytest.raises(DomainError):
            eve_exact_matching(as_view(cells), rho)
    else:
        assert eve_exact_matching(as_view(cells), rho) == pytest.approx(enumeration, rel=1e-9)


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
    assert eve_exact_matching(as_view(cells), rho) == pytest.approx(dense_matching(cells, rho), rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(unmergeable_cells(max_cells=10), RHOS)
def test_sparse_matching_equals_enumeration(cells, rho):
    sparse = eve_exact_matching(as_view(cells), rho)
    assert sparse == pytest.approx(dense_matching(cells, rho), rel=1e-12, abs=1e-15)
    assert sparse == pytest.approx(eve_exact_enumeration(cells, rho), rel=1e-9, abs=1e-15)


RHO_RUNS = st.lists(RHOS, min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(cell_lists(n_ctx=4, max_cells=12, masses=st.one_of(st.just(0.0), MASSES)), RHO_RUNS)
def test_prepared_view_equals_per_call_code(cell_list, rhos):
    # a 0.0 mass stands for a float-zero cell; many of these lists are mergeable
    oracles.assert_same_as_per_call_code(as_view(cell_list), cell_list, rhos)


@settings(max_examples=100, deadline=None)
@given(unmergeable_cells(max_cells=30), RHO_RUNS)
def test_prepared_matching_equals_per_call_code(cell_list, rhos):
    view = as_view(cell_list)
    for rho in rhos + rhos[::-1]:
        assert eve_exact_matching(view, rho) == oracles.eve_exact_matching(cell_list, rho)


def test_scheme_views_equal_per_call_code():
    # Bob's views read the descriptor quotient: one cell per (x, y), hints at pad 0
    joint = random_joint(np.random.default_rng(5), 6, 4, exact=True)
    two_hint = build_two_hint(joint, 2, 2, 2)
    disk = build_delta_scheme(joint, 3, 2, 1, 4, 2, 2)
    bob_two_hint = oracles.cells(oracles.two_hint_quotient(joint, 2, 2, 2, "guessing", public=False), oracles.bob_views)
    bob_disk = oracles.cells(oracles.delta_quotient(disk, public=False), oracles.subset_views("B", 3, 2))
    for view, reference in (
        (two_hint.bob_cells, bob_two_hint),
        (two_hint.eve_cells, list(two_hint.eve_cells)),
        (disk.bob_cells, bob_disk),
        (disk.eve_cells, list(disk.eve_cells)),
    ):
        assert isinstance(view, CellView)
        oracles.assert_same_as_per_call_code(view, reference, [2.0, 0.5, 1.0])


def test_zero_mass_cells_add_nothing():
    # a positive Fraction below the float range becomes a float-zero cell
    law = {(0, "a"): Fraction(1, 2), (1, "a"): Fraction(1, 10**400), (2, "b"): Fraction(1, 2)}
    zs = oracles.cells(law, lambda key: (key[1], "c"))
    assert [c.prob for c in zs] == [0.5, 0.0, 0.5]
    for rho in (0.5, 1.0, 2.0):
        assert eve_exact_matching(as_view(zs), rho) == eve_exact_enumeration(zs, rho) == 1.0
    assert eve_exact_matching(as_view([Cell(0.0, 0, ("c",))]), 1.0) == 0.0


def test_a_square_component_keeps_its_own_call():
    # LAPJVsp alone on the square 3 x 3 block of tied cells assigns the ties
    # otherwise than in a 4 x 5 matrix with the second component, and the
    # sum of the same three terms in another order rounds differently
    cells = [Cell(0.1, 0, (0,)), Cell(0.1, 1, (0,)), Cell(0.05, 0, (1, 2)), Cell(0.1, 2, (0,))]
    assert len(as_view(cells).prepared("slot graphs", adversary._slot_graphs)) == 2
    assert eve_exact_matching(as_view(cells), 0.5) == oracles.eve_exact_matching(cells, 0.5)


def test_a_positive_cell_without_a_view_is_rejected():
    # one chunk holds both cells; LAPJVsp would match the smaller side only
    with pytest.raises(DomainError, match="no view"):
        eve_exact_matching(as_view([Cell(0.5, 0, ()), Cell(0.5, 1, ("a",))]), 1.0)
    assert eve_exact_matching(as_view([Cell(0.0, 0, ()), Cell(1.0, 1, ("a",))]), 2.0) == 1.0


MATCHING_RHOS = (0.5, 1.0, 2.0, 3.7)


def sweep_sources() -> list:
    """The scheme-sweep benchmark's three seed-1 16x32 rational sources."""
    rng = np.random.default_rng(1)
    return [random_joint(rng, 16, 32, exact=True) for _ in range(3)]


def assert_chunks_pack_whole_components(view) -> int:
    """Each chunk of Eve's matching holds whole components, in order, packed
    while it holds at most CHUNK_CELLS cells (or one larger or square
    component), each component's rows heaviest first (ties by cell index) with
    the permutation back to its cells; returns the number of chunks that hold
    several components."""
    chunks = view.prepared("slot graphs", adversary._slot_graphs)
    for prob, _, edge_mass, _, _, indptr, _, back, parts in chunks:
        row_mass = edge_mass[indptr[:-1]]  # every edge of a row carries the row's mass
        assert row_mass[back].tolist() == prob.tolist()  # the rows back in cell order
        by_cell = np.argsort(back)  # each row's place in cell order
        for a, b in parts:
            assert sorted(back[a:b].tolist()) == list(range(a, b))
            assert np.lexsort((by_cell[a:b], -row_mass[a:b])).tolist() == list(range(b - a))
    reference = oracles.components([c for c in view if c.prob > 0])
    square = [sum(len(set(c.views)) for c in comp) == len(comp) for comp in reference]
    sizes = [[b - a for a, b in chunk[-1]] for chunk in chunks]
    assert [n for part in sizes for n in part] == [len(comp) for comp in reference]
    packed = [c.prob for comp in reference for c in comp]
    assert np.concatenate([chunk[0] for chunk in chunks]).tolist() == packed if chunks else not packed
    first = np.cumsum([0] + [len(part) for part in sizes])  # each chunk's first component
    for k, (chunk, part) in enumerate(zip(chunks, sizes)):
        assert chunk[-1][0][0] == 0 and chunk[6][0] == sum(part)
        assert all(a[1] == b[0] for a, b in zip(chunk[-1], chunk[-1][1:]))
        assert len(part) == 1 or (sum(part) <= adversary.CHUNK_CELLS and not any(square[first[k] : first[k + 1]]))
        if k + 1 < len(chunks):  # the next component did not fit
            fits = sum(part) + sizes[k + 1][0] <= adversary.CHUNK_CELLS
            assert not fits or square[first[k + 1] - 1] or square[first[k + 1]]
    return sum(len(part) > 1 for part in sizes)


def test_chunked_matching_equals_per_component_reference():
    float_source = random_joint(np.random.default_rng(1), 96, 4)
    schemes = [build_two_hint(joint, 4, 4, 4) for joint in [*sweep_sources(), float_source]]
    schemes += [build_delta_scheme(joint, 4, 2, 1, 4, 2, 2) for joint in sweep_sources()]
    shared = []
    for scheme in schemes:
        shared.append(assert_chunks_pack_whole_components(scheme.eve_cells))
        cells = list(scheme.eve_cells)
        for rho in MATCHING_RHOS:
            assert scheme.eve(rho) == oracles.eve_exact_matching(cells, rho)
    assert shared[3] == 0 and min(shared[:3] + shared[4:]) > 0  # 96-cell components alone; 16-cell ones packed


@st.composite
def tied_rational_sources(draw):
    """Rational joints with integer weights 1-3 and planted zeros (ties
    everywhere), up to 256 cells: Eve's views span one chunk or several."""
    nx, ny, zeros = draw(st.integers(8, 32)), draw(st.integers(2, 8)), draw(st.sampled_from([0.0, 0.25, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = (rng.integers(1, 4, nx * ny) * (rng.random(nx * ny) >= zeros)).tolist()
    weights[int(rng.integers(nx * ny))] = 1  # some positive mass
    table = [[Fraction(w, sum(weights)) for w in weights[i * ny : (i + 1) * ny]] for i in range(nx)]
    return JointPmf(tuple(range(nx)), tuple(range(ny)), tuple(map(tuple, table)))


@settings(max_examples=40, deadline=None)
@given(
    tied_rational_sources(),
    st.sampled_from([(2, 2, 2), (4, 4, 4), (1, 4, 4), (2, 4, 2)]),
    st.sampled_from([8, 32, adversary.CHUNK_CELLS]),  # smaller caps cut these views into more chunks
    st.sampled_from([0, adversary.SMALL_CHUNK_CELLS, adversary.CHUNK_CELLS]),  # chunks matched in Python: none to all
)
def test_chunked_matching_on_tied_sources_equals_per_component_reference(joint, triple, cap, small):
    scheme = build_two_hint(joint, *triple)
    with mock.patch.object(adversary, "CHUNK_CELLS", cap):
        assert_chunks_pack_whole_components(scheme.eve_cells)
    cells = list(scheme.eve_cells)
    with mock.patch.object(adversary, "SMALL_CHUNK_CELLS", small):
        for rho in MATCHING_RHOS:
            assert scheme.eve(rho) == oracles.eve_exact_matching(cells, rho)


@settings(max_examples=40, deadline=None)
@given(tied_rational_sources(), st.sampled_from([(2, 2, 2), (4, 4, 4), (1, 4, 4), (2, 4, 2), (4, 2, 1, 4, 2, 2)]))
@example(random_joint(np.random.default_rng(1), 96, 4), (4, 4, 4))
def test_slot_graph_rows_are_in_csr_layout(joint, params):
    # Each chunk's row r is the cell at place r of `_components`' order.  A
    # column block (the columns of one start) belongs to the context whose
    # positive cells are the rows that reach its first column, position 1.
    view = (build_two_hint if len(params) == 3 else build_delta_scheme)(joint, *params).eve_cells
    positive = view.prob > 0
    incident: dict = {}  # context -> its positive cells
    for i in np.flatnonzero(positive).tolist():
        for c in set(view.ctx[i].tolist()) - {-1}:
            incident.setdefault(c, set()).add(i)
    cell, _, ctx = view.incidences
    kept = positive[cell]
    cells = adversary._components(view.n_contexts, positive, cell[kept], ctx[kept], view.prob)[0].tolist()
    for _, start, edge_mass, offset, indices, indptr, shape, _, _ in view.prepared("slot graphs", adversary._slot_graphs):
        rows, cells = cells[: shape[0]], cells[shape[0] :]
        assert indptr[0] == 0 and (np.diff(indptr) >= 0).all() and indptr[-1] == len(indices)
        edges = [range(indptr[r], indptr[r + 1]) for r in range(shape[0])]
        first = {}  # block start -> the cells of the rows at its first column
        for r, span in enumerate(edges):
            for j in indices[span][indices[span] == start[indices[span]]].tolist():
                first.setdefault(j, set()).add(rows[r])
        for r, span in enumerate(edges):
            cols, mass = indices[span], view.prob[rows[r]]
            assert (np.diff(cols) > 0).all()  # each row's columns rise strictly
            assert (edge_mass[span] == mass).all() and (offset[span] == cols - start[cols]).all()
            blocks = start[cols]
            owners = [first[b] for b in dict.fromkeys(blocks.tolist())]
            assert all(rows[r] in s and s in incident.values() for s in owners)  # contexts the row's cell views
            mine = [incident[c] for c in set(view.ctx[rows[r]].tolist()) - {-1}]
            assert sorted(map(sorted, owners)) == sorted(map(sorted, mine))  # each of them once
            q = {b: sum(view.prob[i] >= mass for i in first[b]) for b in set(blocks.tolist())}
            assert all(col - b + 1 <= q[b] for col, b in zip(cols.tolist(), blocks.tolist()))
            assert len(cols) == sum(sum(view.prob[i] >= mass for i in s) for s in mine)
    assert not cells


@settings(max_examples=100, deadline=None)
@given(cell_lists(n_ctx=4, max_cells=9, masses=TIED_MASSES), st.data())
def test_components_of_incidences_equal_those_of_their_pairs(cells, data):
    # ragged views (a cell may show fewer, or none), repeated contexts and
    # zero-mass cells; the kept cells are the positive ones, as Eve's
    cells = [Cell(c.prob, c.x, c.views[: data.draw(st.integers(0, len(c.views)))]) for c in cells]
    view = as_view(cells)
    keep = view.prob > 0
    cell, _, ctx = view.incidences
    cell, ctx = cell[keep[cell]], ctx[keep[cell]]
    every = adversary._components(view.n_contexts, keep, cell, ctx, view.prob)
    pairs = np.unique(cell * view.n_contexts + ctx)  # each (cell, context) pair once
    once = adversary._components(view.n_contexts, keep, pairs // view.n_contexts, pairs % view.n_contexts, view.prob)
    assert [a.tolist() for a in every] == [a.tolist() for a in once]
    index = {id(c): i for i, c in enumerate(cells)}
    reference = [[index[id(c)] for c in comp] for comp in oracles.components([c for c in cells if c.prob > 0])]
    found = [sorted(part.tolist()) for part in np.split(every[0], np.cumsum(every[1])[:-1]) if len(part)]
    assert found == reference


@settings(max_examples=40, deadline=None)
@given(tied_rational_sources(), st.sampled_from([(2, 2, 2), (4, 4, 4), (1, 4, 4), (2, 4, 2)]))
def test_heaviest_first_rows_only_reround_ties(joint, triple):
    # Rows fed heaviest first can put tied cells on another optimal matching
    # than rows in cell order; its float can then differ in the last bits, but
    # the positions each order picks cost the same in Fractions.
    scheme = build_two_hint(joint, *triple)
    cells = list(scheme.eve_cells)
    exact = dict(zip(cells, (Fraction(n, scheme.law.scale) for n in scheme.law.nums)))
    assert len(exact) == len(cells)
    for comp in oracles.components(cells):
        for rho in (1, 2):
            costs = {
                sum(exact[c] * int(t) ** rho for c, t in zip(comp, oracles.matching_positions(comp, rho, heaviest)))
                for heaviest in (True, False)
            }
            assert len(costs) == 1


@st.composite
def planted_matrices(draw):
    """Rectangular CSR matrices of 1-16 rows with a planted full matching and
    tie-heavy positive costs: small integers, integers times 1, sqrt 2 or
    sqrt 3, or uniform floats; and the same matrix with some entries dropped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nr = draw(st.integers(1, 16))
    nc = nr + draw(st.integers(1, 2 * nr + 2))
    mask = rng.random((nr, nc)) < draw(st.sampled_from([0.15, 0.4, 0.8]))
    mask[np.arange(nr), rng.permutation(nc)[:nr]] = True  # the planted matching
    ints = rng.integers(1, 5, (nr, nc)).astype(float)
    costs = {
        "int": ints,
        "surd": ints * rng.choice([1.0, math.sqrt(2), math.sqrt(3)], (nr, nc)),
        "uniform": rng.random((nr, nc)) + 1e-3,
    }[draw(st.sampled_from(["int", "surd", "uniform"]))]
    dropped = mask & (rng.random((nr, nc)) >= draw(st.sampled_from([0.2, 0.5])))
    return [csr_array((costs[r, c], (r, c)), shape=(nr, nc)) for r, c in (np.nonzero(mask), np.nonzero(dropped))]


def port_columns(g) -> list:
    return adversary._lapjvsp_rectangular(g.indptr.tolist(), g.indices.tolist(), g.data.tolist(), g.shape[1])


@settings(max_examples=300, deadline=None)
@given(planted_matrices())
def test_rectangular_lapjvsp_port_picks_scipys_columns(matrices):
    full, dropped = matrices
    assert port_columns(full) == min_weight_full_bipartite_matching(full)[1].tolist()
    try:
        expected = min_weight_full_bipartite_matching(dropped)[1].tolist()
    except ValueError:  # no full matching
        with pytest.raises(DomainError, match="no full matching"):
            port_columns(dropped)
    else:
        assert port_columns(dropped) == expected


def test_rectangular_lapjvsp_port_rejects_a_matrix_without_a_full_matching():
    for rows, cols, shape in [([0], [1], (2, 3)), ([0, 1], [0, 0], (2, 3)), ([0, 1, 2, 2], [0, 0, 1, 3], (3, 4))]:
        with pytest.raises(DomainError, match="no full matching"):
            port_columns(csr_array((np.ones(len(rows)), (rows, cols)), shape=shape))


SWEEPS = st.sampled_from([exponents._FINE, exponents._FAST])
DELTAS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5, exclude_min=True))


@st.composite
def joints(draw, max_x=4, max_y=3, min_x=2):
    """A joint law on min_x..max_x symbols and 1..max_y contexts, with zero cells."""
    nx, ny = draw(st.integers(min_x, max_x)), draw(st.integers(1, max_y))
    mass = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))
    cells = draw(st.lists(mass, min_size=nx * ny, max_size=nx * ny).filter(lambda c: sum(c) > 0))
    total = sum(cells)
    return JointPmf.of([[cells[i * ny + j] / total for j in range(ny)] for i in range(nx)])


@st.composite
def ba_solves(draw):
    """Arguments of one batched Blahut-Arimoto solve: 1-6 slices with zero masses,
    multipliers 0 or 1e-3..1e7, a distortion matrix or Delta = 0's pinned one
    (which empties channel rows), an iteration cap mostly off the block size."""
    nx, nh, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    px = draw(hnp.arrays(float, (rows, nx), elements=st.floats(0.0, 1.0)))
    px[px < 0.3] = 0.0  # about a third of the masses
    px[px.sum(axis=1) == 0.0, 0] = 1.0
    px /= px.sum(axis=1, keepdims=True)
    exps = draw(hnp.arrays(float, rows, elements=st.floats(-4.0, 7.0)))
    lams = np.where(exps < -3.0, 0.0, 10.0**exps)
    d = draw(hnp.arrays(float, (nx, nh), elements=st.floats(-1.0, 3.0)))
    d[d < 0.0] = 0.0
    if draw(st.booleans()):
        d = np.where(d == 0.0, 0.0, 1e9)
    iters = draw(st.integers(1, 3 * exponents._BLOCK + 1))
    tol = 10.0 ** draw(st.floats(min_value=-13.0, max_value=-3.0))
    return px, lams, d, iters, tol


@settings(max_examples=200, deadline=None)
@given(ba_solves())
@example((np.array([[0.5, 0.5, 0.0]]), np.array([1.0]), np.where(np.eye(3) == 1, 0.0, 1e9), 2000, 1e-13))
def test_blocked_blahut_arimoto_equals_per_iteration_reference(solve):
    """Reading the stopping test once per block of iterations keeps every row's bits."""
    mi, ed = exponents._blahut_arimoto(*solve)
    ref_mi, ref_ed = oracles.blahut_arimoto_per_iteration(*solve)
    assert mi.tobytes() == ref_mi.tobytes()
    assert ed.tobytes() == ref_ed.tobytes()


@settings(max_examples=30, deadline=None)
@given(joints(), DELTAS, SWEEPS)
def test_batched_rd_function_equals_per_slice_reference(joint, delta, sweep):
    spec = DistortionSpec.hamming(joint.x_alphabet, delta)
    try:
        expected = reference_rd_function(joint, spec, sweep)
    except DomainError:
        with pytest.raises(DomainError):
            exponents._rates([joint], spec, sweep)
        return
    assert exponents._rates([joint], spec, sweep)[0] == pytest.approx(expected, rel=1e-12, abs=1e-15)


@settings(max_examples=10, deadline=None)
@given(joints(max_x=3, max_y=2), DELTAS, RHOS)
def test_batched_start_scoring_equals_one_by_one(joint, delta, rho):
    """Scoring all starts in one call gives every start the score it gets alone."""
    spec = DistortionSpec.hamming(joint.x_alphabet, delta)
    controls = RdQuery(grid_points=12, polish_runs=2, polish_steps=1)
    rates = exponents._rates

    def run(one_by_one: bool):
        scores = []

        def recorded(laws, spec, sweep):
            out = [r for law in laws for r in rates([law], spec, sweep)] if one_by_one else rates(laws, spec, sweep)
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


def test_functional_scores_each_start_once_and_closes_in_one_solve():
    """One fast call scores the starts, whose scores the leaders keep; one fine
    call values the leaders, in score order, and then P itself."""
    joint = JointPmf.of([[0.2, 0.1], [0.15, 0.25], [0.05, 0.25]])
    spec = DistortionSpec.hamming(joint.x_alphabet, 0.1)
    with mock.patch.object(exponents, "_rates", wraps=exponents._rates) as rates:
        rd_exponent_functional(joint, spec, 1.0, RdQuery(grid_points=8, polish_runs=3, polish_steps=0))
    assert rates.call_count == 2
    (starts, _, fast), (close, _, fine) = (call.args for call in rates.call_args_list)
    assert (len(starts), fast, fine) == (8, exponents._FAST, exponents._FINE)
    scores = [r - kl_divergence(q, joint) for q, r in zip(starts, exponents._rates(starts, spec, fast))]
    leaders = sorted(zip(scores, range(len(starts))), reverse=True)[:3]
    assert close[:3] == [starts[i] for _, i in leaders]
    assert len(close) == 4 and close[3] is joint


@st.composite
def law_batches(draw):
    """1-3 joint laws on one source alphabet."""
    nx = draw(st.integers(2, 4))
    return draw(st.lists(joints(min_x=nx, max_x=nx), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(law_batches(), DELTAS, st.integers(0, 20), SWEEPS)
def test_speculative_bisection_equals_one_level_per_solve(laws, delta, levels, sweep):
    """Settling several bisection levels per solve returns the bits of one level per
    solve, whether the level count is a multiple of the depth or a law exits mid-tree."""
    spec = DistortionSpec.hamming(laws[0].x_alphabet, delta)
    sweep = (*sweep[:-1], levels)
    try:
        speculative = exponents._rates(laws, spec, sweep)
    except DomainError:
        with mock.patch.object(exponents, "_DEPTH", 1), pytest.raises(DomainError):
            exponents._rates(laws, spec, sweep)
        return
    with mock.patch.object(exponents, "_DEPTH", 1):
        assert exponents._rates(laws, spec, sweep) == speculative


def corner(law, d: np.ndarray) -> float:
    """The distortion of law's best per-context constant reconstruction, summed as `_rates` sums it."""
    total = 0.0
    for col in law.masses.T:
        total += float((col[:, None] * d).sum(axis=0).min())
    return total


def point_distortion(law, lam: float, d: np.ndarray, sweep: tuple) -> float:
    """E[d] of law at multiplier lam, solved alone and weighted as `_rates` weights it."""
    cols = law.masses.T.copy()
    py = cols.sum(axis=1)
    keep = py > 0
    _, ed = exponents._blahut_arimoto(cols[keep] / py[keep, None], np.full(keep.sum(), lam), d, *sweep[:2])
    total = 0.0
    for p, e in zip(py[keep], ed):
        total += p * e
    return total


@st.composite
def skip_cases(draw):
    """1-3 laws with zero cells, a nonnegative table with a zero in each row and dmax
    other than 1, a sweep, and Delta just below or above 2^(-lam dmax) * corner of
    one law at one of the sweep's grid multipliers."""
    nx, nh = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    laws = draw(st.lists(joints(min_x=nx, max_x=nx), min_size=1, max_size=3))
    d = draw(hnp.arrays(float, (nx, nh), elements=st.floats(0.0, 4.0)))
    d[np.arange(nx), draw(hnp.arrays(int, nx, elements=st.integers(0, nh - 1)))] = 0.0
    assume(d.max() > 0 and d.max() != 1)
    sweep = draw(SWEEPS)
    lam = draw(st.sampled_from(list(np.logspace(-3, 3, sweep[2]))))
    bound = 2.0 ** (-lam * d.max()) * corner(draw(st.sampled_from(laws)), d)
    delta = bound * (1 + draw(st.sampled_from([-1e-3, -1e-9, -1e-13, 1e-13, 1e-9, 1e-3])))
    assume(delta > 0)
    return laws, DistortionSpec(laws[0].x_alphabet, tuple(range(nh)), d.tolist(), delta), sweep


@settings(max_examples=30, deadline=None)
@given(skip_cases())
def test_skipping_the_points_that_miss_delta_keeps_every_bit(case):
    """The rates are hex-equal to those of a sweep that solves every point, and every
    (law, multiplier) point the rule skips misses Delta in its own solve."""
    laws, spec, sweep = case
    d, rule, skipped = np.array(spec.d), exponents._misses, []

    def recorded(lam, delta, law_corner, dmax, roundings):
        missed = rule(lam, delta, law_corner, dmax, roundings)
        if missed:
            skipped.append((lam, law_corner))
        return missed

    def rates() -> list | None:
        try:
            return [r.hex() for r in exponents._rates(laws, spec, sweep)]
        except DomainError:
            return None

    with mock.patch.object(exponents, "_misses", recorded):
        skipping = rates()
    with mock.patch.object(exponents, "_misses", lambda *args: False):
        assert rates() == skipping
    for lam, law_corner in skipped:
        for law in laws:
            if corner(law, d) == law_corner:
                assert point_distortion(law, lam, d, sweep) > spec.delta


def test_rd_function_skips_the_grid_multipliers_that_miss_delta():
    """Binary p = 0.3 at Delta = 0.05: 2^-lam * 0.3 > 0.05 below lam = log2(6), so the
    grid solve carries 9 of the 20 multipliers, and the value is the full grid's."""
    joint = JointPmf.from_marginal(Pmf.of([0.3, 0.7]))
    spec = DistortionSpec.hamming(joint.x_alphabet, 0.05)
    with mock.patch.object(exponents, "_blahut_arimoto", wraps=exponents._blahut_arimoto) as solves:
        value = rd_function(joint, spec)
    assert len(solves.call_args_list[0].args[0]) == 9
    with mock.patch.object(exponents, "_misses", lambda *args: False):
        assert rd_function(joint, spec).hex() == value.hex()


def test_rd_function_settles_three_levels_per_solve():
    """The binary p = 0.3, Delta = 0.2 sweep: one grid solve, then its 40 bisection
    levels in 14 solves (41 solves at one level per solve)."""
    joint = JointPmf.from_marginal(Pmf.of([0.3, 0.7]))
    spec = DistortionSpec.hamming(joint.x_alphabet, 0.2)
    with mock.patch.object(exponents, "_blahut_arimoto", wraps=exponents._blahut_arimoto) as solves:
        rd_function(joint, spec)
    assert solves.call_count == 15
    with mock.patch.object(exponents, "_DEPTH", 1), mock.patch.object(
        exponents, "_blahut_arimoto", wraps=exponents._blahut_arimoto
    ) as solves:
        rd_function(joint, spec)
    assert solves.call_count == 41
