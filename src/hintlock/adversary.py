"""The adversary layer: one float view of a realized law, and the oracles on it.

Every scheme flattens its exact realized law {(x, y, hints...): prob} once
into *cells* through `cells(law, views)`: one `Cell(prob, x, views)` per
positive-mass realization, with the probability converted to float once.
`views` lists the contexts an observer can be shown for this realization (one
per revealable hint subset, each context id already carrying the side
information and the revealed values).  All ambiguities come from three
oracles on cells:

- the guessing moment of X given a routed context (`moment_for_assignment`,
  built on the one kernel `guessing.sorted_moment`);
- the decoding-list moment, the support size of X given the views reduced by
  min (a list-forming Eve) or max (a worst-case Bob): `support_moment`;
- Eve's accomplice-optimal guessing moment: `eve_ambiguity`.

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
from itertools import permutations, product

import numpy as np

from .guessing import group_masses, grouped_moment, sorted_moment
from .prob import BudgetExceededError


@dataclass(frozen=True)
class Cell:
    prob: float
    x: object
    views: tuple  # hashable context ids, one per revealable subset


def cells(law: dict, views) -> list[Cell]:
    """The float view of a realized law {(x, ...): prob}: `views(key)` gives the contexts."""
    return [Cell(float(p), key[0], views(key)) for key, p in law.items() if p > 0]


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
    return moment_for_assignment(cells, [k] * len(cells), rho)


def support_moment(cells: list[Cell], rho: float, reduce=max) -> float:
    """E[reduce over views of |{x : x possible given the view}|^rho].

    Decoding-list sizes are support sizes, so membership is exact: every
    positive-mass cell counts.  Mass is summed per views tuple, in first-seen
    order, before the sizes are applied.
    """
    supports: dict = {}
    mass: dict = {}
    for c in cells:
        for v in c.views:
            supports.setdefault(v, set()).add(c.x)
        mass[c.views] = mass.get(c.views, 0.0) + c.prob
    return sum(m * reduce(len(supports[v]) for v in views) ** rho for views, m in mass.items())


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
    if has_mergeable_cells(cells):
        raise BudgetExceededError("mergeable cells: matching reduction is not exact here")
    total = 0.0
    for comp in _components([c for c in cells if c.prob > 0]):
        total += _matching_cost(comp, rho)
    return total


def _matching_cost(comp: list[Cell], rho: float) -> float:
    """Min-cost assignment of one component's cells to their truncated slots."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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
    # Python's float pow, so each weight is the same float as prob * t**rho.
    powers = np.array([t**rho for t in range(1, int(q.max()) + 1)])
    graph = csr_array(
        (np.repeat(mass, q) * powers[offset], (np.repeat(cell, q), np.repeat(start, q) + offset)),
        shape=(len(comp), len(order)),
    )
    rows, cols = min_weight_full_bipartite_matching(graph)  # every row, sorted
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


def eve_strategy_pair_bruteforce(cells: list[Cell], x_alphabet: tuple, rho: float) -> float:
    """min over per-context rank tables of E[min over views of rank(x)]^rho.

    Factorial cross-check of the accomplice formulation; only for tiny
    instances (at most 10^7 table combinations).
    """
    contexts = sorted({ctx for c in cells for ctx in c.views}, key=repr)
    n = len(x_alphabet)
    perms = list(permutations(range(1, n + 1)))
    if len(perms) ** len(contexts) > 10**7:
        raise BudgetExceededError("strategy-pair enumeration too large")
    xi = {x: i for i, x in enumerate(x_alphabet)}
    best = math.inf
    for combo in product(perms, repeat=len(contexts)):
        table = dict(zip(contexts, combo))
        val = 0.0
        for cell in cells:
            r = min(table[ctx][xi[cell.x]] for ctx in cell.views)
            val += cell.prob * r**rho
        if val < best:
            best = val
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
    k_count = n_opt.pop()
    lower = max(moment_for_constant(cells, k, rho) for k in range(k_count))
    _, ranks = _context_ranks((ctx, c.x, c.prob) for c in cells for ctx in c.views)
    upper = sum(
        cell.prob * max(ranks[(ctx, cell.x)] for ctx in cell.views) ** rho for cell in cells
    )
    return lower, upper


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
