"""The adversary layer: one float view of a realized law, and the oracles on it.

Every scheme flattens its exact realized law {(x, y, hints...): prob} once
into *cells* through `cells(law, views)`: one `Cell(prob, x, views)` per
positive-mass realization, with the probability converted to float once.
`views` lists the contexts an observer can be shown for this realization (one
per revealable hint subset, each context id already carrying the side
information and the revealed values).  All ambiguities come from three
oracles on cells:

- the guessing moment of X given a routed context (`moment_for_constant`
  on a prepared view, `moment_for_assignment` for any accomplice map);
- the decoding-list moment, the support size of X given the views reduced by
  min (a list-forming Eve) or max (a worst-case Bob): `support_moment`;
- Eve's accomplice-optimal guessing moment: `eve_ambiguity`.

`cells` returns a `CellView`: a list of cells that keeps, from first use,
the structure the descending-posterior order fixes for every rho (grouped,
sorted masses per view position, each cell's largest rank, list sizes per
views tuple, Eve's components and slot graphs).  Each rho then costs a
t**rho table (Python's pow), one product per entry and one LAPJVsp call per
component.  Sums keep the per-call order, so every float is unchanged:
contexts over descending masses, then contexts, cells and views tuples in
first-seen order (added rank by rank and by `cumsum`, as np.sum is
pairwise).  The structure lives on the view, never in a module-level cache,
so it goes with the scheme holding the view; a plain list is prepared anew
on each call.

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
from dataclasses import dataclass

import numpy as np

from .guessing import group_masses, grouped_moment, sorted_moment
from .prob import BudgetExceededError


@dataclass(frozen=True)
class Cell:
    prob: float
    x: object
    views: tuple  # hashable context ids, one per revealable subset


class CellView(list):
    """Cells that keep their rho-independent structure; do not change them once read."""


def cells(law: dict, views) -> CellView:
    """The float view of a realized law {(x, ...): prob}: `views(key)` gives the contexts."""
    # float(p) > 0 settles all but float-zero cells without a slow Fraction comparison
    return CellView(Cell(f, key[0], views(key)) for key, p in law.items() if (f := float(p)) > 0 or p > 0)


def _prepared(cells: list[Cell], key, build):
    """`build(cells)`, kept on a CellView; a plain list is prepared on each call."""
    if not isinstance(cells, CellView):
        return build(cells)
    memo = vars(cells).setdefault("memo", {})
    if key not in memo:
        memo[key] = build(cells)
    return memo[key]


def _powers(n: int, rho: float) -> np.ndarray:
    """t**rho for t = 1..n, each the float Python's pow gives."""
    return np.array([t**rho for t in range(1, n + 1)], dtype=float)


def _in_order(terms: np.ndarray) -> float:
    """The sequential sum of `terms` in array order (np.sum adds pairwise)."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


class _RankTable:
    """Masses grouped by (context, key), each context in descending order.

    Contexts are laid out by decreasing size, so those holding rank t are a
    prefix; `moment` adds the terms rank by rank, then the contexts in
    first-seen order: `guessing.grouped_moment`'s order, float for float.
    """

    def __init__(self, triples):
        groups = [sorted(by_key.values(), reverse=True) for by_key in group_masses(triples).values()]
        by_size = sorted(range(len(groups)), key=lambda i: -len(groups[i]))
        self.columns = [
            np.array([groups[i][t] for i in by_size if len(groups[i]) > t])
            for t in range(len(groups[by_size[0]]) if groups else 0)
        ]
        self.first_seen = np.argsort(by_size)  # layout position of each context

    def moment(self, rho: float) -> float:
        powers = _powers(len(self.columns), rho)
        acc = np.zeros(len(self.first_seen))
        for t, column in enumerate(self.columns):
            acc[: len(column)] += column * powers[t]
        return _in_order(acc[self.first_seen])


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


def moment_for_assignment(cells: list[Cell], choice: list[int], rho: float) -> float:
    """Objective for one accomplice map: cells routed per `choice`, then sorted."""
    return grouped_moment(((c.views[k], c.x, c.prob) for c, k in zip(cells, choice)), rho)


def moment_for_constant(cells: list[Cell], k: int, rho: float) -> float:
    """The optimal guessing moment given view position k (every cell routed to it)."""
    table = _prepared(cells, ("rank", k), lambda cs: _RankTable((c.views[k], c.x, c.prob) for c in cs))
    return table.moment(rho)


def _weighted(masses: np.ndarray, sizes: np.ndarray, rho: float) -> float:
    """Sum of mass * size^rho in order, sizes positive integers."""
    return _in_order(masses * _powers(int(sizes.max(initial=0)), rho)[sizes - 1])


def support_moment(cells: list[Cell], rho: float, reduce=max) -> float:
    """E[reduce over views of |{x : x possible given the view}|^rho].

    Decoding-list sizes are support sizes, so membership is exact: every
    positive-mass cell counts.  Mass is summed per views tuple, in first-seen
    order, before the sizes are applied.
    """
    return _weighted(*_prepared(cells, ("support", reduce), lambda cs: _list_sizes(cs, reduce)), rho)


def _list_sizes(cells: list[Cell], reduce) -> tuple[np.ndarray, np.ndarray]:
    """Mass and reduced list size of each views tuple, in first-seen order."""
    supports: dict = {}
    mass: dict = {}
    for c in cells:
        for v in c.views:
            supports.setdefault(v, set()).add(c.x)
        mass[c.views] = mass.get(c.views, 0.0) + c.prob
    sizes = [reduce(len(supports[v]) for v in views) for views in mass]
    return np.array(list(mass.values()), dtype=float), np.array(sizes, dtype=np.int64)


def _context_ranks(triples) -> tuple[dict, dict]:
    """Grouped masses and the optimal rank of each (context, x); ties by repr(x)."""
    groups = group_masses(triples)
    ranks: dict = {}
    for ctx, by_x in groups.items():
        for r, x in enumerate(sorted(by_x, key=lambda x: (-by_x[x], repr(x))), start=1):
            ranks[(ctx, x)] = r
    return groups, ranks


def has_mergeable_cells(cells: list[Cell]) -> bool:
    """True if two distinct cells could land in one context with the same x."""
    seen = set()
    for cell in cells:
        for ctx in set(cell.views):
            key = (cell.x, ctx)
            if key in seen:
                return True
            seen.add(key)
    return False


def _components(cells: list[Cell]) -> list[list[Cell]]:
    """Split cells into connected components of the shared-context graph."""
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_ctx: dict = {}
    for i, cell in enumerate(cells):
        for ctx in cell.views:
            by_ctx.setdefault(ctx, []).append(i)
    for members in by_ctx.values():
        for j in members[1:]:
            a, b = find(members[0]), find(j)
            parent[a] = b
    comps: dict = {}
    for i in range(len(cells)):
        comps.setdefault(find(i), []).append(cells[i])
    return list(comps.values())


def eve_exact_matching(cells: list[Cell], rho: float) -> float:
    """Exact accomplice-optimal moment via a sparse min-cost assignment.

    Raises BudgetExceededError if cells can merge (see module docstring); the
    caller should then use `eve_exact_enumeration` or bounds.
    """
    graphs = _prepared(cells, "slot graphs", _slot_graphs)
    if graphs is None:
        raise BudgetExceededError("mergeable cells: matching reduction is not exact here")
    total = 0.0
    for graph in graphs:
        total += _matching_cost(graph, rho)
    return total


def _slot_graphs(cells: list[Cell]):
    """Each component's slot graph, or None when cells can merge."""
    if has_mergeable_cells(cells):
        return None
    return [_slot_graph(comp) for comp in _components([c for c in cells if c.prob > 0])]


def _slot_graph(comp: list[Cell]) -> tuple:
    """One component's truncated slot graph, up to its rho-dependent weights."""
    from scipy.sparse import csr_array

    ctx_ids: dict = {}
    inc_cell, inc_ctx = [], []
    for i, cell in enumerate(comp):
        for view in dict.fromkeys(cell.views):
            inc_cell.append(i)
            inc_ctx.append(ctx_ids.setdefault(view, len(ctx_ids)))
    prob = np.array([c.prob for c in comp])
    inc_cell, inc_ctx = np.array(inc_cell), np.array(inc_ctx)
    order = np.lexsort((-prob[inc_cell], inc_ctx))  # by context, then descending mass
    cell, ctx, mass = inc_cell[order], inc_ctx[order], prob[inc_cell[order]]
    # Sorted incidence j is also slot column j: context c owns the columns
    # start..start + degree - 1, and column j is its position j - start + 1.
    idx = np.arange(len(order))
    new_ctx = np.r_[True, ctx[1:] != ctx[:-1]]
    start = np.maximum.accumulate(np.where(new_ctx, idx, 0))
    # q: the cells of this context with mass >= this one's, ties included.
    run_ends = np.r_[new_ctx[1:] | (mass[1:] != mass[:-1]), True]
    last = np.minimum.accumulate(np.where(run_ends, idx, len(idx))[::-1])[::-1]
    q = last - start + 1
    offset = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)  # position - 1
    # The CSR layout of the edges; `data` numbers them, so edge e sits at data[e] - 1.
    shape = (len(comp), len(order))
    layout = csr_array((np.arange(1.0, len(offset) + 1), (np.repeat(cell, q), np.repeat(start, q) + offset)), shape=shape)
    edge = layout.data.astype(np.int64) - 1
    return prob, start, np.repeat(mass, q)[edge], offset[edge], layout.indices, layout.indptr, shape


def _matching_cost(graph: tuple, rho: float) -> float:
    """Min-cost assignment of one component's cells to their truncated slots."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    prob, start, edge_mass, offset, indices, indptr, shape = graph
    powers = _powers(int(offset.max()) + 1, rho)  # each weight is the float prob * t**rho
    weights = csr_array((edge_mass * powers[offset], indices, indptr), shape=shape)
    rows, cols = min_weight_full_bipartite_matching(weights)  # every row, sorted
    return float((prob[rows] * powers[cols - start[cols]]).sum())


def eve_exact_enumeration(cells: list[Cell], rho: float, budget_bits: int = 26) -> float:
    """Exact accomplice-optimal moment by exhausting deterministic maps.

    Valid for arbitrary cells (handles merging).  Components are enumerated
    independently; each must satisfy n_cells * log2(n_views) <= budget_bits.
    """
    total = 0.0
    for comp in _components(cells):
        options = [len(c.views) for c in comp]
        bits = sum(math.log2(o) for o in options if o > 1)
        if bits > budget_bits:
            raise BudgetExceededError(
                f"component needs {bits:.1f} assignment bits > budget {budget_bits}"
            )
        if all(o == 1 for o in options):
            total += moment_for_constant(comp, 0, rho)
            continue
        total += _enumerate_component(comp, rho)
    return total


def _enumerate_component(comp: list[Cell], rho: float) -> float:
    options = [len(c.views) for c in comp]
    contexts = sorted({ctx for c in comp for ctx in c.views}, key=repr)
    return _enumerate_component_tables(comp, rho, options, contexts)


def _enumerate_component_tables(comp, rho, options, contexts) -> float:
    """Vectorized enumeration: per-context moment tables indexed by sub-mask.

    Table entries aggregate masses by x before sorting, so cells that merge
    inside a context are priced correctly.
    """
    incidence = []  # per context: list of (cell index, option indices routing here)
    for ctx in contexts:
        inc = []
        for i, cell in enumerate(comp):
            ks = tuple(k for k, v in enumerate(cell.views) if v == ctx)
            if ks:
                inc.append((i, ks))
        if len(inc) > 22:
            raise BudgetExceededError(f"context incident to {len(inc)} cells: table too large")
        incidence.append(inc)
    tables = []
    for inc in incidence:
        d = len(inc)
        table = np.zeros(1 << d)
        members = [(comp[i].x, comp[i].prob) for i, _ in inc]
        for mask in range(1, 1 << d):
            by_x: dict = {}
            for t in range(d):
                if mask >> t & 1:
                    x, p = members[t]
                    by_x[x] = by_x.get(x, 0.0) + p
            table[mask] = sorted_moment(by_x.values(), rho)
        tables.append(table)
    strides = np.ones(len(comp), dtype=np.int64)
    for i in range(len(comp) - 2, -1, -1):
        strides[i] = strides[i + 1] * options[i + 1]
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


def eve_local_search(cells: list[Cell], rho: float) -> float:
    """Alternating accomplice/guesser descent; a certified upper bound on Eve.

    Starts from each constant route, descends for at most 50 rounds, and keeps
    the best reachable value.  Every iterate corresponds to an actual deterministic
    accomplice map, so the result always upper-bounds the exact minimum.
    """
    n_opt = max(len(c.views) for c in cells)
    best = math.inf
    starts = [[k % len(c.views) for c in cells] for k in range(n_opt)]
    for choice in starts:
        val = moment_for_assignment(cells, choice, rho)
        for _ in range(50):
            groups, ranks = _context_ranks((c.views[k], c.x, c.prob) for c, k in zip(cells, choice))
            # unseen (ctx, x) would enter at the context's next free rank
            sizes = {ctx: len(by_x) for ctx, by_x in groups.items()}
            new_choice = [
                min((ranks.get((ctx, c.x), sizes.get(ctx, 0) + 1), k) for k, ctx in enumerate(c.views))[1]
                for c in cells
            ]
            new_val = moment_for_assignment(cells, new_choice, rho)
            if new_val >= val - 1e-15:
                break
            choice, val = new_choice, new_val
        best = min(best, val)
    return best


def bob_minmax_bracket(cells: list[Cell], rho: float) -> tuple[float, float]:
    """(lower, upper) for Bob's min-max guessing ambiguity.

    lower: best fixed subset, i.e. max over view positions of the per-subset
    optimal moment.  upper: per-subset optimal guessers evaluated under the
    worst-case per-realization subset.  The bracket closes whenever every
    revealable subset pins down the same posterior (true for every scheme
    built here).
    """
    n_opt = {len(c.views) for c in cells}
    if len(n_opt) != 1:
        raise ValueError("all cells must offer the same number of views")
    lower = max(moment_for_constant(cells, k, rho) for k in range(n_opt.pop()))
    return lower, _weighted(*_prepared(cells, "max ranks", _max_ranks), rho)


def _max_ranks(cells: list[Cell]) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's mass and its largest optimal rank over its views."""
    _, ranks = _context_ranks((ctx, c.x, c.prob) for c in cells for ctx in c.views)
    worst = [max(ranks[(ctx, c.x)] for ctx in c.views) for c in cells]
    return np.array([c.prob for c in cells], dtype=float), np.array(worst, dtype=np.int64)


def eve_ambiguity(cells: list[Cell], rho: float, floor) -> AmbiguityResult:
    """Eve's accomplice-optimal guessing moment: matching, else enumeration, else bounds.

    `floor` is a zero-argument callable returning a certified lower bound on
    Eve's moment; it is called only when neither exact oracle fits the
    budget, and the result is then the bracket [floor(), best reachable
    deterministic accomplice map].  With `floor=None` that case raises
    BudgetExceededError instead.
    """
    try:
        val = eve_exact_matching(cells, rho)
        return AmbiguityResult(val, val, val, "matching")
    except BudgetExceededError:
        pass
    try:
        val = eve_exact_enumeration(cells, rho)
        return AmbiguityResult(val, val, val, "enumeration")
    except BudgetExceededError:
        if floor is None:
            raise
    return eve_bracket(cells, rho, floor())


def eve_bracket(cells: list[Cell], rho: float, lower: float) -> AmbiguityResult:
    """Certified bracket for Eve: a given floor, and the best reachable accomplice map."""
    upper = min(
        eve_local_search(cells, rho),
        min(moment_for_constant(cells, k, rho) for k in range(len(cells[0].views))),
    )
    return AmbiguityResult(None, lower, upper, "bounds")
