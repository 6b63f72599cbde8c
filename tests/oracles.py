"""Slow, independent oracles that the tests check the package against.

Nothing in `src/` imports this module.  It holds the brute-force and grid
cross-checks, and the earlier per-call implementations that the prepared
cell view, the batched rate-distortion solver and the integer-coded disk
checks must reproduce: the same floats, and the same exact verdicts.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from hintlock.adversary import Cell, _components, _context_ranks, has_mergeable_cells
from hintlock.distortion import DistortionSpec
from hintlock.exponents import RdQuery, variational_optimum
from hintlock.guessing import grouped_moment
from hintlock.prob import BudgetExceededError, DomainError, JointPmf, RenyiOrder, renyi_cond_entropy


# ---------------------------------------------------------------------------
# Eve and Bob: brute force, and the per-call oracles the prepared view replaced.
# ---------------------------------------------------------------------------


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


def moment_for_constant(cells, k: int, rho: float) -> float:
    """Every cell routed to view position k, grouped and sorted on each call."""
    return grouped_moment(((c.views[k], c.x, c.prob) for c in cells), rho)


def support_moment(cells, rho: float, reduce=max) -> float:
    """The dict-based list moment: mass per views tuple, then the sizes."""
    supports: dict = {}
    mass: dict = {}
    for c in cells:
        for v in c.views:
            supports.setdefault(v, set()).add(c.x)
        mass[c.views] = mass.get(c.views, 0.0) + c.prob
    return sum(m * reduce(len(supports[v]) for v in views) ** rho for views, m in mass.items())


def bob_minmax_bracket(cells, rho: float) -> tuple[float, float]:
    """Bob's bracket with the ranks rebuilt on each call."""
    lower = max(moment_for_constant(cells, k, rho) for k in range(len(cells[0].views)))
    _, ranks = _context_ranks((ctx, c.x, c.prob) for c in cells for ctx in c.views)
    upper = sum(cell.prob * max(ranks[(ctx, cell.x)] for ctx in cell.views) ** rho for cell in cells)
    return lower, upper


def eve_exact_matching(cells, rho: float) -> float:
    """The sparse matching with every component's slot graph built on each call."""
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


# ---------------------------------------------------------------------------
# Structural checks on realized laws, in Fraction arithmetic.
# ---------------------------------------------------------------------------


def check_reconstruction(scheme) -> bool:
    """Every size-nu subset of hints determines (V, W, pad) on the support."""
    for b in combinations(range(scheme.delta), scheme.nu):
        seen: dict = {}
        for (x, y, m), p in scheme.law.items():
            if p <= 0:
                continue
            key = (y, tuple(m[i] for i in b))
            val = (scheme.descriptor[(x, y)], tuple(m))
            if seen.setdefault(key, val) != val:
                return False
    return True


def check_eta_independence(scheme) -> bool:
    """The r-parts of any eta hints are uniform and independent of (X, Y, W).

    Exact: conditional mass of each observed r-part tuple must be exactly
    2^(-eta*r) for every positive-mass (x, y).
    """
    if scheme.eta == 0:
        return True
    exact = scheme.joint.exact
    target = Fraction(1, 1 << (scheme.eta * scheme.r)) if exact else 2.0 ** -(scheme.eta * scheme.r)
    for e in combinations(range(scheme.delta), scheme.eta):
        cond: dict = {}
        total: dict = {}
        for (x, y, m), p in scheme.law.items():
            if p <= 0:
                continue
            rparts = tuple(scheme.split_hint(m[i])[1] for i in e)
            cond[(x, y, rparts)] = cond.get((x, y, rparts), 0) + p
            total[(x, y)] = total.get((x, y), 0) + p
        for (x, y, _), mass in cond.items():
            want = target * total[(x, y)]
            # rational laws compare exactly; only float laws get a tolerance
            if mass != want and (exact or abs(mass - want) > 1e-12):
                return False
    return True


def pad_coordinate_laws(scheme) -> tuple[dict, dict]:
    """Conditional laws of a two-hint scheme's M1 padded coordinate and M2 pad, per (x, y)."""
    pad1: dict = {}
    pad2: dict = {}
    for (x, y, m1, m2), p in scheme.law.items():
        if p > 0:
            pad1.setdefault((x, y), {})
            pad2.setdefault((x, y), {})
            vt, u = m1 // scheme.c1, m2 // scheme.c2
            pad1[(x, y)][vt] = pad1[(x, y)].get(vt, 0) + p
            pad2[(x, y)][u] = pad2[(x, y)].get(u, 0) + p
    return pad1, pad2


# ---------------------------------------------------------------------------
# Rate-distortion: a grid search, the variational identity and the per-slice solver.
# ---------------------------------------------------------------------------


def rd_function_grid_oracle(
    q_joint: JointPmf, spec: DistortionSpec, steps: int | None = None, zoom: int | None = None
) -> float:
    """Independent certification of R(Q, Delta) by direct channel search.

    Only for a null context and |X|, |Xhat| <= 3: iteratively refined grids
    over the channel simplex, keeping the best feasible mutual information.
    Binary channels get a deep enough zoom for 1e-6 agreement.
    """
    if len(q_joint.y_alphabet) != 1:
        raise DomainError("grid oracle handles a null context only")
    nx, nh = len(spec.x_alphabet), len(spec.xhat_alphabet)
    if nx > 3 or nh > 3:
        raise DomainError("grid oracle limited to 3x3")
    if steps is None:
        steps = 81 if nh <= 2 else 9
    if zoom is None:
        zoom = 18 if nh <= 2 else 10
    px = np.array([float(p) for p in q_joint.y_column(0)])
    px = px / px.sum()
    d = np.array(spec.d)
    det_rows = np.eye(nh)[np.argmin(d, axis=1)]  # zero-distortion anchor channel

    def batch_eval(chans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = np.einsum("i,bij->bj", px, chans)
        joint = px[None, :, None] * chans
        ratio = np.where(joint > 0, chans / np.maximum(q[:, None, :], 1e-300), 1.0)
        mi = np.sum(joint * np.log2(np.maximum(ratio, 1e-300)), axis=(1, 2))
        ed = np.einsum("bij,ij->b", joint, d)
        return mi, ed

    center = det_rows.copy()
    width = 1.0
    best = math.inf
    for _ in range(zoom):
        row_opts = []
        for i in range(nx):
            opts = _simplex_rows(nh, steps, center[i], width)
            opts.append(center[i])
            opts.append(det_rows[i])
            row_opts.append(np.array(opts))
        counts = [len(o) for o in row_opts]
        idx = np.indices(counts).reshape(nx, -1)
        chans = np.stack([row_opts[i][idx[i]] for i in range(nx)], axis=1)
        chunk = 1 << 18
        best_ch = None
        for start in range(0, chans.shape[0], chunk):
            part = chans[start : start + chunk]
            mi, ed = batch_eval(part)
            ok = ed <= spec.delta + 1e-15
            if ok.any():
                k = int(np.where(ok, mi, np.inf).argmin())
                if mi[k] < best:
                    best = float(mi[k])
                    best_ch = part[k]
        if best_ch is not None:
            center = best_ch
        width *= 0.35
        steps = max(7, int(steps * 0.8))
    if not math.isfinite(best):
        raise DomainError("oracle found no feasible channel")
    return max(best, 0.0)


def _simplex_rows(nh: int, steps: int, center: np.ndarray, width: float) -> list[np.ndarray]:
    """Probability rows of length nh gridded around `center`."""
    if nh == 1:
        return [np.array([1.0])]
    axes = [np.clip(np.linspace(c - width, c + width, steps), 0.0, 1.0) for c in center[:-1]]
    rows = []
    if nh == 2:
        for a in axes[0]:
            rows.append(np.array([a, 1.0 - a]))
        return rows
    for a in axes[0]:
        for b in axes[1]:
            if a + b <= 1.0 + 1e-12:
                rows.append(np.array([a, b, max(0.0, 1.0 - a - b)]))
    return rows


def variational_value(p_joint: JointPmf, q: np.ndarray, v: np.ndarray, rho: float) -> float:
    """H(V|Q) - D(Q x V || P) / rho for explicit (Q, V)."""
    p = np.array([[float(t) for t in row] for row in p_joint.table])
    total = 0.0
    ny = p.shape[1]
    for j in range(ny):
        if q[j] <= 0:
            continue
        col = v[:, j]
        for i, vi in enumerate(col):
            if vi <= 0:
                continue
            if p[i, j] <= 0:
                return -math.inf
            total += q[j] * vi * (-math.log2(vi) - (math.log2(q[j] * vi / p[i, j])) / rho)
    return total


def variational_renyi_check(p_joint: JointPmf, rho: float, samples: int, seed: int = 7) -> float:
    """Max gap H_a(X|Y) - sup over sampled (Q, V); the optimizer closes it.

    Every sampled pair must stay below the entropy (the easy direction); the
    returned gap uses the closed-form optimizer and should be ~1e-12.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    h = renyi_cond_entropy(p_joint, RenyiOrder.from_rho(rho))
    nx, ny = len(p_joint.x_alphabet), len(p_joint.y_alphabet)
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(samples):
        q = rng.dirichlet(np.ones(ny))
        v = rng.dirichlet(np.ones(nx), size=ny).T
        val = variational_value(p_joint, q, v, rho)
        if val > h + 1e-9:
            raise AssertionError(f"variational lower bound exceeded the entropy: {val} > {h}")
        best = max(best, val)
    q, v, closed = variational_optimum(p_joint, rho)
    best = max(best, variational_value(p_joint, q, v, rho), closed)
    return h - best


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
