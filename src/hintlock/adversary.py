"""The adversary layer: a realized law as columns, and the oracles on its cells.

Every scheme builds its exact realized law {(x, y, hints...): prob} as a
`Law`: numpy columns over the positive-mass support, in law order -- int codes
for x and y, an int matrix of hints, float64 masses and, for a rational law,
Python-int numerators over one common denominator (exact checks sum integers
at any size).  A float mass is the float of its Fraction; numerator /
denominator in float64 is that only while both are at most 2^53, so beyond
that the division is Python's, on ints.  Read as a mapping, a `Law` is the
dict, built on first read; a dict handed to a scheme is coded once.

`Law.view(positions)` gives a `CellView`: per realization, one context id per
view position (a revealable hint subset; the context carries y and the hints
shown), ids numbered by first appearance.  On it: the guessing moment given a
routed context (`moment_for_constant`, `moment_for_assignment`), the list
moment with views reduced by min (list-forming Eve) or max (worst-case Bob)
(`support_moment`), and Eve's accomplice-optimal moment (`eve_ambiguity`).
A plain list of `Cell`s is coded into a view once per call.

A view keeps, from first use, what the descending-posterior order fixes for
every rho, grouped in numpy (unique, lexsort, add.at): per position the rank
table of the one grouped kernel (`_rank_table` on int columns: context, key,
mass, tie order, ranked by `guessing.rank_groups`; `moment_for_assignment`,
single-route enumeration components and `eve_floor` build theirs per call);
each cell's largest rank (Bob's upper end); per `reduce` the mass and list
size of each views tuple; Eve's mergeable verdict, components and slot graphs.
A rho then costs a t**rho table (Python's pow), one product per entry and one
LAPJVsp call per component.  Sums keep the dict reference's order, so every
float is its float: a (context, key) merge in entry order; in a context,
descending masses in sequence; contexts, cells and views tuples in first-seen
order, in sequence (`guessing.power_moment`; np.sum is pairwise).  Rank ties
go by repr(x).  Nothing is cached at module level.

Eve's exact ambiguity, min over accomplice maps of the optimal guessing
moment given (context, revealed values), reduces to a min-cost assignment:
within a context the optimal order pairs larger masses with smaller ranks, so
jointly choosing routes and ranks is a bipartite matching of cells to
(context, rank-position) slots with cost prob * position^rho.  The reduction
is exact whenever no two distinct cells share the same (x, context) pair;
otherwise routing both into that context would merge their posterior mass,
which the matching cannot price, and we fall back to exhaustive enumeration
of accomplice maps (or certified bounds when over budget).

The slot graph is sparse.  A context incident to d cells owns positions
1..d, and a cell is joined only to positions 1..q of each of its own
contexts, where q counts that context's incident cells with mass at least
the cell's own, ties included.  Some optimal assignment lists every context
by descending mass, so a cell at position t there has t - 1 predecessors of
no smaller mass, and t <= q: the truncated graph keeps an optimal
assignment.  Each connected component is solved by LAPJVsp (scipy's
`min_weight_full_bipartite_matching`, imported on first use).  Float-zero
cells (a positive Fraction below the float range) are left out: they fit
after every positive cell of a context and add 0.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .guessing import group_starts, in_order, power_moment, power_terms, rank_groups, sorted_moment
from .prob import BudgetExceededError, common_denominator


@dataclass(frozen=True)
class Cell:
    prob: float
    x: object
    views: tuple  # hashable context ids, one per revealable subset


def row_ids(*columns: np.ndarray) -> np.ndarray:
    """Dense ids 0..k-1 of the rows of nonnegative integer columns: equal rows, equal ids."""
    ids, span = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col in columns:
        base = int(col.max(initial=0)) + 1
        if span * base >= 1 << 62:  # re-densify before the mixed radix overflows
            ids = np.unique(ids, return_inverse=True)[1]
            span = int(ids.max(initial=0)) + 1
        ids, span = ids * base + col, span * base
    return np.unique(ids, return_inverse=True)[1]


def _first_seen(ids: np.ndarray) -> np.ndarray:
    """The same partition as `ids`, numbered by first appearance in row-major order."""
    uniq, first, inv = np.unique(ids.ravel(), return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(uniq))
    return rank[inv].reshape(ids.shape)


class Law(Mapping):
    """A realized law {(x, y, hints...): prob} as columns over its positive-mass support.

    `x`, `y`: int codes into `xs`, `ys`; `hints`: one int column per hint (the
    key's tail, or its third entry when `nested`); `mass`: float64; `nums`:
    Python-int numerators over `scale` (a rational law) or None.
    """

    def __init__(self, xs, ys, x, y, hints, nums, scale=None, nested=False, law=None):
        self.xs, self.ys, self.x, self.y, self.hints = tuple(xs), tuple(ys), x, y, hints
        self.nums, self.scale, self.nested, self._dict = (None if scale is None else nums), scale, nested, law
        if scale is None:
            self.mass = np.asarray(nums, dtype=float)
        elif scale <= 1 << 53 and max(nums, default=0) <= 1 << 53:  # exact in float64: one rounding
            self.mass = np.array(nums, dtype=np.int64) / float(scale)
        else:
            self.mass = np.array([n / scale for n in nums], dtype=float)

    @classmethod
    def coded(cls, law) -> "Law":
        """`law` itself if it is a Law, else the dict coded into columns."""
        if isinstance(law, Law):
            return law
        items = [(key, p) for key, p in law.items() if p > 0]
        nested = bool(items) and isinstance(items[0][0][2], tuple)
        xs, ys = {}, {}
        x = np.array([xs.setdefault(key[0], len(xs)) for key, _ in items], dtype=np.int64)
        y = np.array([ys.setdefault(key[1], len(ys)) for key, _ in items], dtype=np.int64)
        hints = np.array([key[2] if nested else key[2:] for key, _ in items], dtype=np.int64)
        nums, scale = common_denominator(p for _, p in items)
        return cls(xs, ys, x, y, hints.reshape(len(items), -1) if items else hints, nums, scale, nested, law)

    @classmethod
    def spread(cls, joint, rows, hints: np.ndarray, copies: int, exact: bool, nested: bool = False) -> "Law":
        """`copies` consecutive realizations per (x, y, mass) row of a source,
        each with mass / copies, and one row of `hints` per realization."""
        alphabets = (joint.x_alphabet, joint.y_alphabet)
        codes = [{v: i for i, v in enumerate(alphabet)} for alphabet in alphabets]
        x, y = (np.repeat(np.array([codes[k][row[k]] for row in rows], dtype=np.int64), copies) for k in range(2))
        if not exact:
            masses = np.repeat(np.array([float(w) for _, _, w in rows]) * (1.0 / copies), copies)
            return cls(*alphabets, x, y, hints, masses, nested=nested)
        nums, scale = common_denominator(w for _, _, w in rows)
        return cls(*alphabets, x, y, hints, np.repeat(np.array(nums, dtype=object), copies), scale * copies, nested)

    def as_dict(self) -> dict:
        if self._dict is None:
            xs, ys = self.xs, self.ys
            values = self.mass.tolist() if self.scale is None else [Fraction(n, self.scale) for n in self.nums]
            rows = zip(self.x.tolist(), self.y.tolist(), map(tuple, self.hints.tolist()))
            keys = ((xs[x], ys[y], h) if self.nested else (xs[x], ys[y], *h) for x, y, h in rows)
            self._dict = dict(zip(keys, values))
        return self._dict

    def __getitem__(self, key):
        return self.as_dict()[key]

    def __iter__(self):
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(self.mass) if self._dict is None else len(self._dict)

    def view(self, positions) -> "CellView":
        """The cells whose view k shows y and the hint columns `positions[k]`."""
        local = [row_ids(self.y, *self.hints[:, list(cols)].T) for cols in positions]
        offsets = np.cumsum([0] + [int(ids.max(initial=-1)) + 1 for ids in local[:-1]])
        return CellView(self.mass, self.x, _first_seen(np.stack(local, axis=1) + offsets), self.xs)


class CellView:
    """Cells as columns: float mass, x code, context ids (-1 past a cell's last view).

    Iterating gives `Cell`s with context ids as views.  Do not change the
    columns once read: the view keeps its rho-independent structure."""

    def __init__(self, prob: np.ndarray, x: np.ndarray, ctx: np.ndarray, xs: tuple):
        self.prob, self.x, self.ctx, self.xs = prob, x, ctx, xs
        # the rank of each x code in repr order (numpy compares str by code point, as Python does)
        self.xkey = np.argsort(np.argsort(np.array([repr(v) for v in xs], dtype=str), kind="stable"))
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


def as_view(cells) -> CellView:
    """A CellView as it is; a list of `Cell`s coded into one."""
    if isinstance(cells, CellView):
        return cells
    cells = list(cells)
    xs, ctx_ids = {}, {}
    ctx = np.full((len(cells), max((len(c.views) for c in cells), default=0)), -1, dtype=np.int64)
    for i, c in enumerate(cells):
        ctx[i, : len(c.views)] = [ctx_ids.setdefault(v, len(ctx_ids)) for v in c.views]
    x = np.array([xs.setdefault(c.x, len(xs)) for c in cells], dtype=np.int64)
    return CellView(np.array([c.prob for c in cells], dtype=float), x, ctx, tuple(xs))


class SchemeCells:
    """A scheme dataclass's law, coded once, and its cell views: Bob's view k
    shows y and the hints `bob_positions[k]`, Eve's those of `eve_positions[k]`.
    The defaults are two hints: Bob sees both, Eve's accomplice reveals one."""

    bob_positions = ((0, 1),)
    eve_positions = ((0,), (1,))

    def __post_init__(self):
        object.__setattr__(self, "law", Law.coded(self.law))

    @cached_property
    def bob_cells(self) -> CellView:
        return self.law.view(self.bob_positions)

    @cached_property
    def eve_cells(self) -> CellView:
        return self.law.view(self.eve_positions)


def _rank_table(ctx: np.ndarray, key: np.ndarray, mass: np.ndarray, tie: np.ndarray) -> tuple:
    """What the descending-posterior order fixes for every rho: the first-seen
    index, rank and merged mass of each (context, key) pair, ranks ascending
    within a context; and the number of contexts."""
    ctx = _first_seen(ctx)
    keys, merged, rank, _ = rank_groups(ctx, key, mass, tie)
    seen = keys // len(tie)
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


@dataclass(frozen=True)
class AmbiguityResult:
    value: float | None  # exact value when available
    lower: float
    upper: float
    method: str

    @property
    def exact(self) -> bool:
        return self.value is not None

    @property
    def bracket(self) -> tuple[float, float]:
        """(lower, upper), both the exact value when there is one."""
        return (self.value, self.value) if self.exact else (self.lower, self.upper)


def moment_for_assignment(cells, choice, rho: float) -> float:
    """Objective for one accomplice map: cells routed per `choice`, then sorted."""
    view = as_view(cells)
    routed = view.ctx[np.arange(len(view)), np.asarray(choice, dtype=np.int64)]
    return _table_moment(_rank_table(routed, view.x, view.prob, view.xkey), rho)


def moment_for_constant(cells, k: int, rho: float) -> float:
    """The optimal guessing moment given view position k (every cell routed to it)."""
    view = as_view(cells)
    return _table_moment(view.prepared(("rank", k), lambda v: _rank_table(v.ctx[:, k], v.x, v.prob, v.xkey)), rho)


def support_moment(cells, rho: float, reduce=max) -> float:
    """E[reduce over views of |{x : x possible given the view}|^rho], reduce min or max.

    Decoding-list sizes are support sizes, so membership is exact: every
    positive-mass cell counts.  Mass is summed per views tuple, in first-seen
    order, before the sizes are applied.
    """
    view = as_view(cells)
    return power_moment(*view.prepared(("support", reduce), lambda v: _list_sizes(v, reduce)), rho)


def _list_sizes(view: CellView, reduce) -> tuple[np.ndarray, np.ndarray]:
    """Mass and reduced list size of each views tuple, in first-seen order."""
    cell, pos, ctx = view.incidences
    nx = len(view.xs)
    support = np.bincount(np.unique(ctx * nx + view.x[cell]) // nx, minlength=view.n_contexts)
    fill = 0 if reduce is max else np.iinfo(np.int64).max
    per_view = np.full(view.ctx.shape, fill, dtype=np.int64)
    per_view[cell, pos] = support[ctx]
    size = per_view.max(axis=1, initial=0) if reduce is max else per_view.min(axis=1, initial=fill)
    _, first, tuples = np.unique(row_ids(*(view.ctx + 1).T), return_index=True, return_inverse=True)
    mass = np.zeros(len(first))
    np.add.at(mass, tuples, view.prob)
    seen = np.argsort(first)
    return mass[seen], size[first[seen]]


def _mergeable(view: CellView) -> bool:
    """True if two distinct cells could land in one context with the same x."""
    cell, _, ctx = view.incidences
    own = np.unique(cell * view.n_contexts + ctx)  # each cell's distinct contexts
    return len(np.unique(own % view.n_contexts * len(view.xs) + view.x[own // view.n_contexts])) < len(own)


def _components(view: CellView, keep: np.ndarray) -> list[np.ndarray]:
    """The cells of `keep` (ascending) per component of the shared-context
    graph, components in the order of their first cell."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    cell, _, ctx = view.incidences
    mask = np.isin(cell, keep)
    size = len(view) + view.n_contexts
    graph = coo_array((np.ones(int(mask.sum())), (cell[mask], len(view) + ctx[mask])), shape=(size, size))
    labels = _first_seen(connected_components(graph, directed=False)[1][keep])
    return np.split(keep[np.argsort(labels, kind="stable")], np.cumsum(np.bincount(labels))[:-1]) if len(keep) else []


def eve_exact_matching(cells, rho: float) -> float:
    """Exact accomplice-optimal moment via a sparse min-cost assignment.

    Raises BudgetExceededError if cells can merge (see module docstring); the
    caller should then use `eve_exact_enumeration` or bounds.
    """
    graphs = as_view(cells).prepared("slot graphs", _slot_graphs)
    if graphs is None:
        raise BudgetExceededError("mergeable cells: matching reduction is not exact here")
    total = 0.0
    for graph in graphs:
        total += _matching_cost(graph, rho)
    return total


def _slot_graphs(view: CellView) -> list | None:
    """Each component's truncated slot graph, up to its rho-dependent weights,
    or None when cells can merge."""
    if _mergeable(view):
        return None
    cell, _, ctx = view.incidences
    positive = view.prob[cell] > 0
    cell, ctx = cell[positive], ctx[positive]
    first = np.sort(np.unique(cell * view.n_contexts + ctx, return_index=True)[1])  # each view once
    cell, ctx = cell[first], ctx[first]
    if not len(cell):
        return []
    rows = _components(view, np.flatnonzero(view.prob > 0))
    comp, local = np.zeros(len(view), dtype=np.int64), np.zeros(len(view), dtype=np.int64)
    for c, members in enumerate(rows):
        comp[members], local[members] = c, np.arange(len(members))  # component, and row in it
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
    offset = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)  # position - 1
    e_cell, e_col = np.repeat(cell, q), np.repeat(start, q) + offset
    csr = np.lexsort((e_col, local[e_cell], comp[e_cell]))  # each component's CSR edge order
    e_cell, e_col, e_mass, offset = e_cell[csr], e_col[csr], np.repeat(mass, q)[csr], offset[csr]
    inc_bounds = np.flatnonzero(np.r_[True, comp[cell[1:]] != comp[cell[:-1]], True])
    edge_bounds = np.flatnonzero(np.r_[True, comp[e_cell[1:]] != comp[e_cell[:-1]], True])
    graphs = []
    for c, members in enumerate(rows):
        (i0, i1), (e0, e1) = inc_bounds[c : c + 2], edge_bounds[c : c + 2]
        indptr = np.r_[0, np.cumsum(np.bincount(local[e_cell[e0:e1]], minlength=len(members)))]
        graph = (view.prob[members], start[i0:i1] - i0, e_mass[e0:e1], offset[e0:e1], e_col[e0:e1] - i0, indptr)
        graphs.append((*graph, (len(members), int(i1 - i0))))
    return graphs


def _matching_cost(graph: tuple, rho: float) -> float:
    """Min-cost assignment of one component's cells to their truncated slots."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    prob, start, edge_mass, offset, indices, indptr, shape = graph
    weights = csr_array((power_terms(edge_mass, offset + 1, rho), indices, indptr), shape=shape)
    rows, cols = min_weight_full_bipartite_matching(weights)  # every row, sorted
    return float(power_terms(prob[rows], cols - start[cols] + 1, rho).sum())


def eve_exact_enumeration(cells, rho: float, budget_bits: int = 26) -> float:
    """Exact accomplice-optimal moment by exhausting deterministic maps.

    Valid for arbitrary cells (handles merging).  Components are enumerated
    independently; each must satisfy n_cells * log2(n_views) <= budget_bits.
    """
    view = as_view(cells)
    n_views = (view.ctx >= 0).sum(axis=1)
    total = 0.0
    for comp in _components(view, np.arange(len(view))):
        options = n_views[comp].tolist()
        bits = sum(math.log2(o) for o in options if o > 1)
        if bits > budget_bits:
            raise BudgetExceededError(f"component needs {bits:.1f} assignment bits > budget {budget_bits}")
        if all(o == 1 for o in options):
            total += _table_moment(_rank_table(view.ctx[comp, 0], view.x[comp], view.prob[comp], view.xkey), rho)
            continue
        total += _enumerate_component(view, comp, rho, options)
    return total


def _enumerate_component(view: CellView, comp: np.ndarray, rho, options) -> float:
    """Vectorized enumeration: per-context moment tables indexed by sub-mask.

    Contexts are taken in id order.  Table entries aggregate masses by x
    before sorting, so cells that merge inside a context are priced correctly.
    """
    views = view.ctx[comp].tolist()
    members_of = list(zip(view.x[comp].tolist(), view.prob[comp].tolist()))
    incidence = []  # per context: list of (cell index, option indices routing here)
    for ctx in np.unique(view.ctx[comp][view.ctx[comp] >= 0]).tolist():
        inc = [(i, ks) for i, vs in enumerate(views) if (ks := tuple(k for k, v in enumerate(vs) if v == ctx))]
        if len(inc) > 22:
            raise BudgetExceededError(f"context incident to {len(inc)} cells: table too large")
        incidence.append(inc)
    tables = []
    for inc in incidence:
        members = [members_of[i] for i, _ in inc]
        table = np.zeros(1 << len(inc))
        for mask in range(1, 1 << len(inc)):
            by_x: dict = {}
            for t, (x, p) in enumerate(members):
                if mask >> t & 1:
                    by_x[x] = by_x.get(x, 0.0) + p
            table[mask] = sorted_moment(by_x.values(), rho)
        tables.append(table)
    strides = np.cumprod([1] + options[:0:-1])[::-1]  # the product of the later cells' options
    total_assignments = int(strides[0]) * options[0]
    best = math.inf
    chunk = 1 << 18
    for start in range(0, total_assignments, chunk):
        idx = np.arange(start, min(start + chunk, total_assignments), dtype=np.int64)
        digits = [(idx // strides[i]) % options[i] for i in range(len(comp))]
        obj = np.zeros(len(idx))
        for inc, table in zip(incidence, tables):
            submask = np.zeros(len(idx), dtype=np.int64)
            for t, (i, ks) in enumerate(inc):
                hit = digits[i] == ks[0]
                for k in ks[1:]:
                    hit |= digits[i] == k
                submask |= hit.astype(np.int64) << t
            obj += table[submask]
        best = min(best, float(obj.min()))
    return best


def eve_local_search(cells, rho: float) -> float:
    """Alternating accomplice/guesser descent; a certified upper bound on Eve.

    Starts from each constant route, descends for at most 50 rounds, and keeps
    the best reachable value.  Every iterate corresponds to an actual deterministic
    accomplice map, so the result always upper-bounds the exact minimum.
    """
    view = as_view(cells)
    rows = np.arange(len(view))
    n_views = (view.ctx >= 0).sum(axis=1)
    cell, pos, ctx = view.incidences
    nx = len(view.xs)
    best = math.inf
    for k in range(view.ctx.shape[1]):
        choice = k % n_views
        val = moment_for_assignment(view, choice, rho)
        for _ in range(50):
            keys, _, rank, _ = rank_groups(view.ctx[rows, choice], view.x, view.prob, view.xkey)
            # unseen (ctx, x) would enter at the context's next free rank
            sizes = np.bincount(keys // nx, minlength=view.n_contexts)
            wanted = ctx * nx + view.x[cell]
            at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
            cost = np.full(view.ctx.shape, np.iinfo(np.int64).max, dtype=np.int64)
            cost[cell, pos] = np.where(keys[at] == wanted, rank[at], sizes[ctx] + 1)
            new_choice = cost.argmin(axis=1)  # the first best view
            new_val = moment_for_assignment(view, new_choice, rho)
            if new_val >= val - 1e-15:
                break
            choice, val = new_choice, new_val
        best = min(best, val)
    return best


def bob_minmax_bracket(cells, rho: float) -> tuple[float, float]:
    """(lower, upper) for Bob's min-max guessing ambiguity.

    lower: best fixed subset, i.e. max over view positions of the per-subset
    optimal moment.  upper: per-subset optimal guessers evaluated under the
    worst-case per-realization subset.  The bracket closes whenever every
    revealable subset pins down the same posterior (true for every scheme
    built here).
    """
    view = as_view(cells)
    if not len(view) or (view.ctx < 0).any():
        raise ValueError("all cells must offer the same number of views")
    lower = max(moment_for_constant(view, k, rho) for k in range(view.ctx.shape[1]))
    return lower, power_moment(*view.prepared("max ranks", _max_ranks), rho)


def _max_ranks(view: CellView) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's mass and its largest optimal rank over its views (views pooled)."""
    cell, pos, ctx = view.incidences
    _, _, rank, pair = rank_groups(ctx, view.x[cell], view.prob[cell], view.xkey)
    per_view = np.zeros(view.ctx.shape, dtype=np.int64)
    per_view[cell, pos] = rank[pair]
    return view.prob, per_view.max(axis=1)


def eve_ambiguity(cells, rho: float, floor) -> AmbiguityResult:
    """Eve's accomplice-optimal guessing moment: matching, else enumeration, else bounds.

    `floor` is a zero-argument callable returning a certified lower bound on
    Eve's moment; it is called only when neither exact oracle fits the
    budget, and the result is then the bracket [floor(), best reachable
    deterministic accomplice map].  With `floor=None` that case raises
    BudgetExceededError instead.
    """
    view = as_view(cells)
    try:
        val = eve_exact_matching(view, rho)
        return AmbiguityResult(val, val, val, "matching")
    except BudgetExceededError:
        pass
    try:
        val = eve_exact_enumeration(view, rho)
        return AmbiguityResult(val, val, val, "enumeration")
    except BudgetExceededError:
        if floor is None:
            raise
    return eve_bracket(view, rho, floor())


def eve_bracket(cells, rho: float, lower: float) -> AmbiguityResult:
    """Certified bracket for Eve: a given floor, and the best reachable accomplice map."""
    view = as_view(cells)
    constant = (moment_for_constant(view, k, rho) for k in range(int((view.ctx[0] >= 0).sum())))
    return AmbiguityResult(None, lower, min(eve_local_search(view, rho), min(constant)), "bounds")


def eve_floor(law: Law, rho: float, reveals) -> float:
    """max(1, count^-rho * the optimal guessing moment of (X, columns) given Y)
    over the (count, hint columns) pairs of `reveals`.

    A pair gives a certified floor on Eve when what she is shown, with the
    accomplice's choice, takes at most `count` values and, with X and Y,
    determines the columns; each scheme says why its pairs do.
    """
    tie = np.arange(len(law.mass))  # row ids are below the row count; ties do not change a moment
    return max(1.0, *(
        count ** (-rho) * _table_moment(_rank_table(law.y, row_ids(law.x, *cols), law.mass, tie), rho)
        for count, cols in reveals
    ))
