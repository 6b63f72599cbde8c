"""The adversary layer: a realized law as columns, and the oracles on its cells.

Every scheme builds its exact realized law {(x, y, hints...): prob}, or for
a padded scheme its pad quotient (below), as a `Law`: numpy columns over the
positive-mass support, in law order -- int codes for x and y, an int matrix of
hints, float64 masses and, for a rational law, Python-int numerators over one
common denominator (exact checks sum integers at any size).  A float mass is
float(p) of its Fraction.  A law of one realization per source cell
(`Law.on`: every scheme but eve-list's) reads its codes, masses and
numerators off the source (`JointPmf.support` and `numerators`, computed once
per source), so a build adds only its hints.  The columns are the only form of
a realized law here; the dict laws are the tests' references.

`Law.view(positions)` gives a `CellView`: per realization, one context id per
view position (a revealable hint subset; the context carries y and the hints
shown), ids numbered by first appearance.  On it: the guessing moment given one
view position (`moment_for_constant`), the list moment with views reduced by
min (list-forming Eve) or max (worst-case Bob) (`support_moment`) and Eve's
accomplice-optimal moment (`eve_exact_matching`).  The oracles take only a
`CellView`; iterated, it gives `Cell`s.

Every scheme prices Bob and Eve and writes its report rows through one
protocol, `SchemeCells` (`bob`, `eve`, `rows`), so no caller dispatches on a
scheme's type.

The numpy kernels live here, the package's only array callers of them:
`rank_groups` (the ranking rule on int columns, whose scalar form for
sources is `guessing.optimal_guesser`), `group_starts`, and `power_terms` and
`in_order`, which give `guessing.power_moment`'s terms and sum to the bit.  A
view keeps, from first use, what the descending-posterior order fixes for
every rho, grouped in numpy (unique, lexsort, add.at): per position the rank
table of the one grouped kernel (`_rank_table` on int columns: context, key
and mass, ranked by `rank_groups`); that Bob's positions group the
cells alike; per `reduce` the mass and list size of each views tuple; Eve's
components and slot graphs.  A rho then costs a t**rho table (Python's pow
on ints: numpy's own pow on an int64 can differ in the last bit), one product
per entry and one LAPJVsp solve per chunk of Eve's components.  Sums keep the
dict reference's order, so every float is its float: a (context, key) merge
in entry order; in a context, descending masses in sequence; contexts, cells
and views tuples in first-seen order, in sequence (`in_order`); each of Eve's
components by np.sum (pairwise) over its cells in cell order, then the
components in order, in sequence.
Rank ties go by x code, the symbol's index, as in `JointPmf.ranks`: a moment
reads only each context's masses in descending order, so the tie order is
free, and one rule serves both.  Nothing is cached at module level.

Both adversaries rest on two facts of every scheme built here.  Given y, any
of Bob's views determines the descriptor and the pad, so all his views group
the cells alike and rank each cell alike: his min-max guessing moment is the
moment given view 0.  Given (x, y), any of Eve's views determines the pad (M1
or M2 gives the two-hint pad U; eta hints pin the delta-disk pad through the
top MDS rows), so no two distinct cells share an (x, context) pair.  Both facts
are checked once per view, on int columns, and a view that breaks one raises
DomainError.

Eve's exact ambiguity, min over accomplice maps of the optimal guessing
moment given (context, revealed values), reduces to a min-cost assignment:
within a context the optimal order pairs larger masses with smaller ranks, so
jointly choosing routes and ranks is a bipartite matching of cells to
(context, rank-position) slots with cost prob * position^rho.  The reduction
is exact because no two distinct cells share an (x, context) pair; routing
both into that context would merge their posterior mass, which the matching
cannot price.

A padded scheme keeps only its pad quotient as its `law`, and both adversaries
are priced on it: one cell per (x, y) (eve-list: per smoothed (x, y, v')), its
realization at pad 0, with its whole mass.  The pad is U (two-hint, eve-list,
delta-disk) or the key K (secret-key, a one-time pad).  The full law spreads
each cell uniformly over the pads; it is never built.  Bob reads the quotient's
hints as they are, Eve each hint cut to its `public` part:
(M1 mod c1, M2 mod c2) = (V1, V2) for two-hint and eve-list, M mod c = Mp for
secret-key, `hint >> r` for delta-disk.  Each value is the full law's.  Bob:
each of his views fixes the descriptor Z and the pad (M2 gives U, then M1
gives v_s; K and M give Ms; any nu delta-disk hints decode V, W and U), so
each of his contexts is one (y, Z) shifted by a pad, holding the x's of (y, Z)
with their masses / pads.  Its ranks and list size are those of the
quotient's context (y, Z), whose masses are the pads' sums.  Eve:
- Shift symmetry.  The pad is uniform and independent of the cells.  Shifting
  it by a constant (U + a mod cs; k -> k + a mod |K|; XOR with the pad codeword
  of a) maps each cell to a cell of the same (x, y) and mass, and each of Eve's
  contexts to another context, so it maps the slot-assignment LP (cells to
  (context, position) slots, cost mass * position^rho) onto itself.
- Integrality.  That LP is a bipartite assignment, so its optimum is the
  matching's, and so is the optimum of the quotient's LP.
- Orbit averaging.  The average of an optimal solution over the shifts is
  feasible, optimal and shift-invariant.  Each of Eve's views fixes the pad
  (two-hint by construction; `build_delta_scheme` checks that the top eta rows
  of the pad code are MDS, so any eta of its coordinates tell the pads apart),
  so the shifts of one cell land in distinct contexts of one orbit, one in
  each.  A shift-invariant solution is
  then a solution of the quotient LP, in which cell (x, y) carries its orbit's
  mass P(x, y) and each orbit of contexts is one context, at the same cost;
  any quotient solution spreads back over the shifts the same way.
The same shift keeps each fixed-hint moment and each list size, so the weak
accomplice, secret-key's Eve (the moment given M) and eve-list's (the lists
given M1 or M2) read the quotient too.

The slot graph is sparse.  A context incident to d cells owns positions
1..d, and a cell is joined only to positions 1..q of each of its own
contexts, where q counts that context's incident cells with mass at least
the cell's own, ties included.  Some optimal assignment lists every context
by descending mass, so a cell at position t there has t - 1 predecessors of
no smaller mass, and t <= q: the truncated graph keeps an optimal
assignment.  Its connected components, labelled in numpy (min-label hooking
with pointer jumping over the positive (cell, context) pairs, each once, that
the slot graph is built from), are solved by
Jonker and Volgenant's LAPJVsp a chunk at a time: consecutive whole
components, packed while a chunk holds at most CHUNK_CELLS cells (a larger
component alone).  Each component's rows go heaviest first, ties by cell
index, and are emitted in CSR order by construction: a row's (cell, context)
incidences, ordered by their context's first column, expand to their q
columns each, so no sort runs over the edges.  LAPJVsp augments one row at a
time, and a heavy row that comes late pushes the lighter cells of its
contexts down one slot each, along long augmenting paths; heaviest first, a
new row's cheapest free slot sits just past its contexts' filled prefixes,
and a 96-cell chunk is solved in less than half the time.  A chunk keeps the
permutation back to cell order, and each component's terms are summed in that
order, so a matching that puts every cell where rows in cell order put it
gives that order's float to the bit.  Tied masses can land on another optimal
matching, of the same exact cost, whose sum can round differently in the last
bits.  A chunk's graph is block-diagonal in each component's own row and
column order, and LAPJVsp's paths stay inside a component; the tests find each
component assigned as a call of its own assigns it, tied costs included, while
both matrices have more columns than rows.  scipy takes another path on a
square matrix, where ties can go another way and round the sum differently, so
a square component (one slot per cell) is always alone.  Packing saves scipy's
fixed cost per call; the cap stays because LAPJVsp's work per row grows with
the matrix.
Two solvers share the chunks.  A rectangular chunk of at most
SMALL_CHUNK_CELLS cells goes to `_lapjvsp_rectangular`, a Python port of the
rectangular branch of scipy's `min_weight_full_bipartite_matching`; larger and
square chunks go to scipy, imported on first use, as the port is about 12
times slower on a 96-cell chunk (7 to 11 ms against 0.6 to 0.9 ms).  The
scheme commands on small configs (`twohint`, `verify-all`, `disks`) then
never load scipy, which cost a cold process about 0.29 s and 30 MB, nor
numpy.ma (`_distinct`).  The port makes LAPJVsp's tie choices, and a test
checks that it picks scipy's column for every row on tie-heavy matrices, so
both solvers give the same sums to the bit.
Float-zero cells (a positive Fraction below the float range) are left out:
they fit after every positive cell of a context and add 0.
"""

from __future__ import annotations

from functools import cached_property
from math import inf

import numpy as np

from .bounds import theorem_rows
from .prob import DomainError, record

CHUNK_CELLS = 128  # the most cells of several components that share one LAPJVsp call
SMALL_CHUNK_CELLS = 16  # the most cells of a rectangular chunk matched in Python, not by scipy


@record
class Cell:
    prob: float
    x: object
    views: tuple  # hashable context ids, one per revealable subset


def group_starts(keys: np.ndarray) -> np.ndarray:
    """For sorted `keys`, the index where each entry's run of equal keys starts."""
    idx = np.arange(len(keys))
    return np.maximum.accumulate(np.where(np.r_[True, keys[1:] != keys[:-1]], idx, 0))


def rank_groups(ctx: np.ndarray, key: np.ndarray, mass: np.ndarray, nk: int):
    """The distinct (context, key) pairs of the entries, keys below `nk` (codes
    context * nk + key, sorted), their masses merged in entry order, their ranks
    from 1 in each context by descending mass (ties by key: the sort is stable),
    and the pair of each entry."""
    keys, pair = np.unique(ctx * nk + key, return_inverse=True)
    merged = np.zeros(len(keys))
    np.add.at(merged, pair, mass)
    order = np.lexsort((-merged, keys // nk))
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys)) - group_starts(keys[order] // nk) + 1
    return keys, merged, rank, pair


def power_terms(masses, ks, rho: float) -> np.ndarray:
    """mass * k**rho per pair of a mass and a nonnegative integer k, each term
    the float `guessing.power_moment` adds (0**rho only where some k is 0):
    the powers are Python's, on ints, never numpy's."""
    ks = np.asarray(ks, dtype=np.int64)
    low = int(ks.min(initial=1))
    table = np.array([k**rho for k in range(low, int(ks.max(initial=0)) + 1)], dtype=float)
    return np.asarray(masses, dtype=float) * table[ks - low]


def in_order(terms) -> float:
    """The sequential sum of `terms` in array order (np.sum adds pairwise): `guessing.in_order`'s float."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def row_ids(*columns: np.ndarray) -> np.ndarray:
    """Dense ids 0..k-1 of the rows of nonnegative integer columns: equal rows, equal ids."""
    ids, span = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col in columns:
        base = int(col.max(initial=0)) + 1
        if span * base >= 1 << 62:  # re-densify before the mixed radix overflows
            ids = np.unique(ids, return_inverse=True)[1]
            span = int(ids.max(initial=0)) + 1
            if span * base >= 1 << 62:  # the column too: then span and base are at most the row count
                col = np.unique(col, return_inverse=True)[1]
                base = int(col.max(initial=0)) + 1
        ids, span = ids * base + col, span * base
    return np.unique(ids, return_inverse=True)[1]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, by np.unique's sort path: its plain call asks
    np.ma.is_masked, which imports numpy.ma (11 to 20 ms of a cold process)."""
    return np.unique(values, return_counts=True)[0]


def _first_seen(ids: np.ndarray) -> np.ndarray:
    """The same partition as `ids`, numbered by first appearance in row-major order."""
    uniq, first, inv = np.unique(ids.ravel(), return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(uniq))
    return rank[inv].reshape(ids.shape)


class Law:
    """A realized law {(x, y, hints...): prob} as columns over its positive-mass support.

    `x`, `y`: int codes into `xs`, `ys`; `hints`: one int column per hint;
    `mass`: float64, float(p) per row; `nums`: Python-int numerators over
    `scale` (a rational law) or None.
    """

    def __init__(self, xs, ys, x, y, hints, mass, nums=None, scale=None):
        self.xs, self.ys, self.x, self.y, self.hints, self.mass = tuple(xs), tuple(ys), x, y, hints, mass
        self.nums, self.scale = (None if scale is None else nums), scale

    @classmethod
    def on(cls, joint, hints: np.ndarray) -> "Law":
        """One realization per cell of `joint.support`, with its whole mass (the joint's own) and row of `hints`."""
        x, y, mass, _ = joint.support
        return cls(joint.x_alphabet, joint.y_alphabet, x, y, hints, mass, *joint.numerators)

    def __len__(self) -> int:
        return len(self.mass)

    def view(self, positions, hints: np.ndarray | None = None) -> "CellView":
        """The cells whose view k shows y and the columns `positions[k]` of
        `hints` (by default the law's own)."""
        hints = self.hints if hints is None else hints
        local = [row_ids(self.y, *hints[:, list(cols)].T) for cols in positions]
        offsets = np.cumsum([0] + [int(ids.max(initial=-1)) + 1 for ids in local[:-1]])
        return CellView(self.mass, self.x, _first_seen(np.stack(local, axis=1) + offsets), self.xs)


class CellView:
    """Cells as columns: float mass, x code, context ids (-1 past a cell's last view).

    Iterating gives `Cell`s with context ids as views.  Do not change the
    columns once read: the view keeps its rho-independent structure."""

    def __init__(self, prob: np.ndarray, x: np.ndarray, ctx: np.ndarray, xs: tuple):
        self.prob, self.x, self.ctx, self.xs = prob, x, ctx, xs
        self.n_contexts = int(ctx.max(initial=-1)) + 1
        self.memo: dict = {}

    def __len__(self) -> int:
        return len(self.prob)

    def __iter__(self):
        xs = self.xs
        for p, x, views in zip(self.prob.tolist(), self.x.tolist(), self.ctx.tolist()):
            yield Cell(p, xs[x], tuple(v for v in views if v >= 0))

    def prepared(self, key, build):
        """`build(self)`, kept on the view."""
        if key not in self.memo:
            self.memo[key] = build(self)
        return self.memo[key]

    @property
    def incidences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell, position, context) of every view, row-major."""
        cell, pos = np.nonzero(self.ctx >= 0)
        return cell, pos, self.ctx[cell, pos]


class SchemeCells:
    """A scheme record's `Law`, its cell views, prices and report rows.

    Bob's view k shows y and the hints `bob_positions[k]` of the `law` (a
    padded scheme's pad quotient), Eve's those of `eve_positions[k]` cut to
    their `public` part, which no pad shifts (by default Bob sees both hints
    and Eve's accomplice reveals one, whole).  `bob` is Bob's guessing or list
    moment, `eve` Eve's by the matching, and `rows` the four
    `bounds.theorem_rows` of suite "{suite}-{version}" on the scheme's (z, m,
    leak, secret) `sizes`.  A scheme declares `suite` and `sizes`, a padded one
    its `public`, and overrides only what its theorem changes.
    """

    bob_positions = ((0, 1),)
    eve_positions = ((0,), (1,))

    def public(self, hints: np.ndarray) -> np.ndarray:  # the part of each hint no pad shifts: Eve's contexts
        return hints

    def bob(self, rho: float, version: str | None = None) -> float:
        version = version or self.version
        if version == "guessing":
            self.bob_cells.prepared("one partition", _check_one_partition)
            return moment_for_constant(self.bob_cells, 0, rho)
        if version == "list":
            return support_moment(self.bob_cells, rho)
        raise DomainError(f"unknown version {version!r}")

    def eve(self, rho: float) -> float:
        return eve_exact_matching(self.eve_cells, rho)

    def rows(self, rho: float, version: str | None = None, instance: str = "") -> list:
        version = version or self.version
        bob, eve = self.bob(rho, version), self.eve(rho)
        return theorem_rows(f"{self.suite}-{version}", instance, self.joint, rho, version, bob, eve, self.sizes)

    @cached_property
    def bob_cells(self) -> CellView:
        return self.law.view(self.bob_positions)

    @cached_property
    def eve_cells(self) -> CellView:
        return self.law.view(self.eve_positions, self.public(self.law.hints))


def _check_one_partition(view: CellView) -> None:
    """Raise DomainError unless every position of `view` groups the cells as position 0 does."""
    if any((_first_seen(col) != _first_seen(view.ctx[:, 0])).any() for col in view.ctx.T[1:]):
        raise DomainError("two of Bob's views rank a cell differently: their guessers need not be his min-max optimum")


def _rank_table(ctx: np.ndarray, key: np.ndarray, mass: np.ndarray, nk: int) -> tuple:
    """What the descending-posterior order fixes for every rho: the first-seen
    index, rank and merged mass of each (context, key) pair, ranks ascending
    within a context; and the number of contexts."""
    ctx = _first_seen(ctx)
    keys, merged, rank, _ = rank_groups(ctx, key, mass, nk)
    seen = keys // nk
    order = np.lexsort((rank, seen))
    return seen[order], rank[order], merged[order], int(ctx.max(initial=-1)) + 1


def _table_moment(table: tuple, rho: float) -> float:
    """The grouped kernel: the optimal guessing moment of the key given the
    context, each context summed over its ranks, then the contexts in
    first-seen order, in sequence."""
    seen, rank, mass, n_ctx = table
    acc = np.zeros(n_ctx)
    np.add.at(acc, seen, power_terms(mass, rank, rho))  # in entry order
    return in_order(acc)


def moment_for_constant(view: CellView, k: int, rho: float) -> float:
    """The optimal guessing moment given view position k (every cell routed to it)."""
    return _table_moment(view.prepared(("rank", k), lambda v: _rank_table(v.ctx[:, k], v.x, v.prob, len(v.xs))), rho)


def support_moment(view: CellView, rho: float, reduce=max) -> float:
    """E[reduce over views of |{x : x possible given the view}|^rho], reduce min or max.

    Decoding-list sizes are support sizes, so membership is exact: every
    positive-mass cell counts.  Mass is summed per views tuple, in first-seen
    order, before the sizes are applied.
    """
    return in_order(power_terms(*view.prepared(("support", reduce), lambda v: _list_sizes(v, reduce)), rho))


def _list_sizes(view: CellView, reduce) -> tuple[np.ndarray, np.ndarray]:
    """Mass and reduced list size of each views tuple, in first-seen order."""
    cell, pos, ctx = view.incidences
    nx = len(view.xs)
    support = np.bincount(_distinct(ctx * nx + view.x[cell]) // nx, minlength=view.n_contexts)
    fill = 0 if reduce is max else np.iinfo(np.int64).max
    per_view = np.full(view.ctx.shape, fill, dtype=np.int64)
    per_view[cell, pos] = support[ctx]
    size = per_view.max(axis=1, initial=0) if reduce is max else per_view.min(axis=1, initial=fill)
    _, first, tuples = np.unique(row_ids(*(view.ctx + 1).T), return_index=True, return_inverse=True)
    mass = np.zeros(len(first))
    np.add.at(mass, tuples, view.prob)
    seen = np.argsort(first)
    return mass[seen], size[first[seen]]


def _components(n: int, keep: np.ndarray, cell: np.ndarray, ctx: np.ndarray, prob: np.ndarray) -> tuple:
    """The cells of the mask `keep` component by component (components of the
    graph whose edges are the kept cells' incidences (`cell`, `ctx`), contexts
    below `n`, in the order of their first cell), each heaviest by `prob` first
    (ties by cell index); and each component's size."""
    a, b = cell, len(keep) + ctx  # cell and context nodes of each incidence
    label = np.arange(len(keep) + n)  # every label is its own root
    while not np.array_equal(label[a], label[b]):
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, label[a], low)  # hook both roots onto the lower label
        np.minimum.at(label, label[b], low)
        while not np.array_equal(up := label[label], label):  # pointer jumping, to the roots
            label = up
    cells = np.flatnonzero(keep)
    labels = _first_seen(label[cells])
    return cells[np.lexsort((-prob[cells], labels))], np.bincount(labels)


def eve_exact_matching(view: CellView, rho: float) -> float:
    """Exact accomplice-optimal moment via a sparse min-cost assignment.

    Raises DomainError if two cells can merge (see module docstring).
    """
    chunks = view.prepared("slot graphs", _slot_graphs)
    return in_order([cost for chunk in chunks for cost in _matching_costs(chunk, rho)])


def _slot_graphs(view: CellView) -> list:
    """Each chunk's truncated slot graph, up to its rho-dependent weights: a
    chunk is a run of whole components, packed while it holds at most
    CHUNK_CELLS cells (a larger or square component is a chunk by itself).
    Rows come component by component, heaviest first; each row's incidences,
    ordered by their context's first column and expanded to their q columns,
    are its edges in CSR order, with no sort over the edges."""
    cell, _, ctx = view.incidences
    first = np.sort(np.unique(cell * view.n_contexts + ctx, return_index=True)[1])  # each view once
    cell, ctx = cell[first], ctx[first]
    if len(_distinct(ctx * len(view.xs) + view.x[cell])) < len(cell):
        raise DomainError("two cells with the same x share a context: the matching cannot price their merge")
    positive = view.prob > 0
    cell, ctx = cell[positive[cell]], ctx[positive[cell]]
    if np.count_nonzero(np.bincount(cell)) < np.count_nonzero(positive):
        raise DomainError("a cell of positive mass has no view: no accomplice map can route it")
    if not len(cell):
        return []
    cells, sizes = _components(view.n_contexts, positive, cell, ctx, view.prob)  # row r of the graph is cell cells[r]
    comp, row = np.zeros(len(view), dtype=np.int64), np.zeros(len(view), dtype=np.int64)
    comp[cells], row[cells] = np.repeat(np.arange(len(sizes)), sizes), np.arange(len(cells))
    by_cell = np.lexsort((cells, comp[cells]))  # the rows of each component in cell order
    ctx = _first_seen(ctx)  # contexts by first appearance among these incidences
    # Sorted incidence j is also slot column j: context c owns the columns
    # start..start + degree - 1, and column j is its position j - start + 1.
    order = np.lexsort((-view.prob[cell], ctx, comp[cell]))  # by context, then descending mass
    cell, ctx, mass = cell[order], ctx[order], view.prob[cell[order]]
    start = group_starts(ctx)
    # q: the cells of this context with mass >= this one's, ties included.
    run_ends = np.r_[(ctx[1:] != ctx[:-1]) | (mass[1:] != mass[:-1]), True]
    last = np.minimum.accumulate(np.where(run_ends, np.arange(len(ctx)), len(ctx))[::-1])[::-1]
    q = last - start + 1
    csr = np.lexsort((start, row[cell]))  # by row, then first column: each row's edges ascend
    q = q[csr]
    ends = np.cumsum(q)
    offset = np.arange(ends[-1]) - np.repeat(ends - q, q)  # position - 1
    e_col, e_mass = np.repeat(start[csr], q) + offset, np.repeat(mass[csr], q)
    indptr = np.r_[0, ends][np.searchsorted(row[cell[csr]], np.arange(len(cells) + 1))]
    row_bounds = np.r_[0, np.cumsum(sizes)].tolist()
    col_bounds = np.searchsorted(comp[cell], np.arange(len(sizes) + 1)).tolist()
    square = np.diff(row_bounds) == np.diff(col_bounds)  # one slot per cell
    cuts = [0]  # the first component of each chunk
    for c in range(1, len(sizes)):
        if square[c - 1] or square[c] or row_bounds[c + 1] - row_bounds[cuts[-1]] > CHUNK_CELLS:
            cuts.append(c)
    chunks = []
    for c0, c1 in zip(cuts, cuts[1:] + [len(sizes)]):
        r0, r1, i0, i1 = row_bounds[c0], row_bounds[c1], col_bounds[c0], col_bounds[c1]
        e0, e1 = indptr[r0], indptr[r1]
        back = by_cell[r0:r1] - r0
        graph = (view.prob[cells[r0:r1][back]], start[i0:i1] - i0, e_mass[e0:e1], offset[e0:e1], e_col[e0:e1] - i0)
        parts = [b - r0 for b in row_bounds[c0 : c1 + 1]]  # each component's cells in the chunk
        chunks.append((*graph, indptr[r0 : r1 + 1] - e0, (r1 - r0, i1 - i0), back, list(zip(parts, parts[1:]))))
    return chunks


def _matching_costs(chunk: tuple, rho: float) -> list:
    """Each component's min-cost assignment of its cells to their truncated
    slots, one LAPJVsp solve for the chunk; each component summed by np.sum,
    its cells in cell order."""
    prob, start, edge_mass, offset, indices, indptr, shape, back, parts = chunk
    weights = power_terms(edge_mass, offset + 1, rho)
    if shape[0] <= SMALL_CHUNK_CELLS and shape[0] < shape[1]:
        cols = np.array(_lapjvsp_rectangular(indptr.tolist(), indices.tolist(), weights.tolist(), shape[1]))
    else:
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import min_weight_full_bipartite_matching

        cols = min_weight_full_bipartite_matching(csr_array((weights, indices, indptr), shape=shape))[1]
    cols = cols[back]  # each cell's column, in cell order
    terms = power_terms(prob, cols - start[cols] + 1, rho)
    return [terms[a:b].sum() for a, b in parts]


def _lapjvsp_rectangular(first: list, kk: list, cc: list, nc: int) -> list:
    """The column of each row in LAPJVsp's min-cost full matching of a CSR
    matrix (indptr `first`, indices `kk`, data `cc`) with fewer rows than its
    `nc` columns: the choice of scipy's rectangular branch, ties included.

    Every row starts free and is augmented in turn by a Dijkstra search on
    reduced costs d = cc - v: `todo` holds the columns at the current minimum
    `low` at its front, taken from the end, and the scanned columns at its
    back; `ok` marks columns taken; `lab` is the row each column was reached from.
    """
    nr = len(first) - 1
    v, x, y, lab, todo = [0.0] * nc, [-1] * nr, [-1] * nc, [0] * nc, [0] * nc
    for i0 in range(nr):
        d, ok = [inf] * nc, [False] * nc
        low, td1, td2, last, j = inf, -1, nc - 1, nc, -1
        for t in range(first[i0], first[i0 + 1]):
            jj = kk[t]
            dj = d[jj] = cc[t] - v[jj]
            lab[jj] = i0
            if dj <= low:
                if dj < low:
                    td1, low = -1, dj
                td1 += 1
                todo[td1] = jj
        while j < 0:
            if low == inf:
                raise DomainError("a chunk of Eve's slot graph has no full matching")
            for jj in todo[: td1 + 1]:  # the columns at the minimum, a free one first
                if y[jj] < 0:
                    j = jj
                    break
                ok[jj] = True
            while j < 0 and td1 >= 0:  # scan the row matched to the last column taken
                j0, td1 = todo[td1], td1 - 1
                todo[td2], td2 = j0, td2 - 1
                i = y[j0]
                h = cc[first[i] + kk[first[i] : first[i + 1]].index(j0)] - v[j0] - low
                for t in range(first[i], first[i + 1]):
                    jj = kk[t]
                    if not ok[jj] and (vj := cc[t] - v[jj] - h) < d[jj]:
                        d[jj], lab[jj] = vj, i
                        if vj == low:
                            if y[jj] < 0:  # reached free at the minimum: augment at once
                                j = jj
                                break
                            td1 += 1
                            todo[td1], ok[jj] = jj, True
            if j < 0:  # a new minimum over the columns not taken
                low, last = inf, td2 + 1
                for jj in range(nc):
                    if d[jj] <= low and not ok[jj]:
                        if d[jj] < low:
                            td1, low = -1, d[jj]
                        td1 += 1
                        todo[td1] = jj
        for j0 in todo[last:]:
            v[j0] += d[j0] - low
        i = -1
        while i != i0:  # augment along the labels back to row i0
            i = lab[j]
            y[j] = i
            j, x[i] = x[i], j
    return x
