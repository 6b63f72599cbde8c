"""Asymptotic calculators: conditional rate-distortion, the tilted-source
functional, rate-distortion privacy exponents, and the variational identity
for conditional Renyi entropy.

The conditional rate-distortion function is computed by one batched
Blahut-Arimoto solver: each row of a (batch, nx, nh) tensor is one (law,
Lagrange multiplier, context slice) triple over the shared distortion matrix.
Every law runs its own sweep (log-spaced multipliers, then bisection on the
distortion): _FINE's, or _FAST's for the functional's search.  The
multiplier grid of all laws is one solve, and each further solve settles
_DEPTH bisection levels: every law still bisecting brings the midpoints of
all the paths its next levels could take, then walks its own path and drops
the rest.  A row's arithmetic depends only on its own slice and multiplier,
so this returns the bits of one solve per level (the tests check both, and R
against a fine-grid channel search at small alphabets).
A point whose E[d] provably exceeds Delta is not solved: every iterate has
E[d] >= 2^(-lam dmax) * corner, with corner = sum_y min_xh sum_x P(x, y)
d(x, xh) (proof in `_rates`, rounding margin in `_misses`).  Such a point
only raises its law's lo, so skipping it moves no bit; it spares the grid's
small multipliers, the slowest to converge.
Inside a solve the iterations run in blocks of 1, 1, 2, 4, then _BLOCK: the
iterates of a block are stacked in one buffer, at most _BLOCK + 1 times the q
array, and the stopping test is read once per block on all of them.  Each
row keeps its first iterate within tol, so the bits are those of a test read
after every iteration, and a long solve makes a few numpy calls per
iteration, not a dozen.  No block is longer than the steps run before it, so
a row that stops early (a Delta = 0 row stops after two) pays for at most as
many extra steps as it ran.
The tilted-source functional sup_Q [R(Q, Delta) - D(Q||P)/rho] is maximized
by seeded multi-start search, with all starts scored in one batched call and
the polished leaders and P closed in another.  It is reported with a bracket
whose upper end, the zero-distortion entropy, is a bound; its lower end is
the optimizer's best point, and that point's R is itself a primal (upper)
estimate, so the lower end is not certified.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import two_hint_exponents
from .distortion import DistortionSpec
from .prob import DomainError, JointPmf, RenyiOrder, kl_divergence, record, renyi_cond_entropy

LOG2 = math.log(2.0)
POLISH_EPS = 1e-6  # the polish stops once its step falls below this


@record
class RdQuery:
    """Optimizer controls for the functional search."""

    grid_points: int = 10_000
    polish_runs: int = 20
    polish_steps: int = 60
    seed: int = 20_240_817

    def __post_init__(self):
        if self.grid_points <= 0 or self.polish_runs < 0 or self.polish_steps < 0:
            raise DomainError("invalid controls")
        if self.seed < 0:
            raise DomainError(f"the seed must be a non-negative integer, not {self.seed}")


@record
class ExponentResult:
    value: float
    witness: JointPmf | None
    certified_bracket: tuple

    def __post_init__(self):
        lo, hi = self.certified_bracket
        if not (lo <= self.value + 1e-12 and self.value <= hi + 1e-12):
            raise DomainError("value outside its certified bracket")


# ---------------------------------------------------------------------------
# Conditional rate-distortion by batched Blahut-Arimoto.
# ---------------------------------------------------------------------------

_CHUNK = 256  # laws per batched solve; bounds the tensors at a few MB
_DEPTH = 3  # bisection levels settled by one solve (2^_DEPTH - 1 multipliers per law)
_BLOCK = 8  # the most Blahut-Arimoto iterations between two reads of the stopping test
# A Lagrange sweep: (iterations, tol, log-spaced multipliers, bisection levels).
_FINE = (400, 1e-10, 20, 60)  # rd_function and the functional's close
_FAST = (120, 1e-9, 8, 16)  # the functional's start scores and polish


def _blahut_arimoto(px: np.ndarray, lams: np.ndarray, d: np.ndarray, iters: int, tol: float):
    """min over channels of I(X; Xhat) + lam * E[d], one row per context slice.

    Row b pairs the slice law px[b] with the multiplier lams[b] over the shared
    distortion matrix d.  A row iterates until its reconstruction law moves by
    less than tol, or `iters` times, and then leaves the active set.  The
    iterations run in blocks of 1, 1, 2, 4, then _BLOCK (no block longer than
    the steps before it), each stacking its iterates in one buffer (at most
    _BLOCK + 1 times the q array); the stopping test is read once per block,
    on every stacked step, and a row that met it keeps its first iterate
    within tol.  So each row does the arithmetic and keeps the bits of a test
    read after every iteration.  Returns (mutual information bits, expected
    distortion) at each row's optimizer.
    """
    w = np.exp((-lams * LOG2)[:, None, None] * d)  # base-2 exponent tilt
    support = w > 0
    fallback = support / np.maximum(support.sum(axis=2, keepdims=True), 1)

    def channel(q, w, fallback):
        raw = q * w
        sums = raw.sum(axis=2, keepdims=True)
        if sums.min() >= 1e-300:  # then np.maximum(sums, 1e-300) is sums and no row falls back
            return np.divide(raw, sums, out=raw)
        return np.where(sums > 0, raw / np.maximum(sums, 1e-300), fallback)

    q = np.full((len(px), 1, d.shape[1]), 1.0 / d.shape[1])
    rows, qa, wa, fa, pa = np.arange(len(px)), q, w, fallback, px[:, None, :]  # the active rows
    ran = 0
    while len(rows) and ran < iters:
        block = min(_BLOCK, max(ran, 1), iters - ran)  # 1, 1, 2, 4, then _BLOCK: never more steps than have run
        ran += block
        steps = np.empty((block + 1, *qa.shape))
        steps[0] = qa
        for t in range(block):
            np.matmul(pa, channel(steps[t], wa, fa), out=steps[t + 1])
        met = (np.abs(steps[1:] - steps[:-1]).max(axis=3) < tol)[:, :, 0]  # (step, row)
        done = met.any(axis=0)
        qa = steps[block]
        if done.any():
            q[rows[done]] = steps[met.argmax(axis=0)[done] + 1, done]  # each row's first step within tol
            going = ~done
            rows, qa, wa, fa, pa = rows[going], qa[going], wa[going], fa[going], pa[going]
    q[rows] = qa
    ch = channel(q, w, fallback)
    joint = px[:, :, None] * ch
    ratio = np.where(joint > 0, ch / np.maximum(q, 1e-300), 1.0)
    mi = (joint * np.log2(np.maximum(ratio, 1e-300))).reshape(len(px), -1).sum(axis=1)
    ed = (joint * d).reshape(len(px), -1).sum(axis=1)
    return np.maximum(mi, 0.0), ed


def _misses(lam: float, delta: float, corner: float, dmax: float, roundings: int) -> bool:
    """Whether the float E[d] of a law's point at multiplier lam >= 0 exceeds delta,
    by the bound E[d] >= 2^(-lam dmax) * corner of `_rates`.

    The margin bounds the float rounding, u = 2^-53 each.  numpy's and the C
    library's exp are within 1 ulp (2u), and fl(fl(-lam ln 2) d) >=
    fl(fl(-lam ln 2) dmax), so every weight w the solver forms is at least this
    tilt times (1 - 4u).  The channel divides q w by the float sum of q w,
    which is at most (1 + u)^nh times that of q, so the proof holds with q
    scaled by its float sum.  Against the exact bound, the float E[d] of a law
    with nx symbols, nh reconstructions and ny contexts loses at most a factor
    (1 - u) per rounding: nh + 2 forming the channel, nx nh + 1 summing a
    slice's E[d], 2 ny weighting the slices, 1 normalizing a slice, and
    corner's own sums may round up by nx + ny.  `_rates` passes roundings =
    nx nh + nx + nh + 3 ny + 16, whose last 12 cover the 4u of the weights,
    this test's two products and underflow; prod (1 - u) >= 1 - roundings u.
    The bar is at least 2^-995 max(dmax, 1): then 2^(-lam dmax) > 2^-996, so
    every sum of q w stays above the solver's 1e-300 guard and no channel row
    takes its fallback, and all underflow costs less than 2^-79 of the bound.
    """
    bar = max(delta, 2.0**-995 * max(dmax, 1.0))
    return math.exp(-lam * LOG2 * dmax) * corner * (1 - roundings * 2.0**-53) > bar


def _midpoints(lo: float, hi: float, depth: int) -> list:
    """The geometric midpoints of the next `depth` bisection levels of [lo, hi],
    level by level: node i's midpoint splits its interval, and its children are
    node 2i + 1 (the midpoint met Delta and became hi) and 2i + 2 (it did not
    and became lo).  Each is the float the one-step-at-a-time loop computes."""
    tree, intervals = [], [(lo, hi)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            tree.append(math.sqrt(a * b))
            nxt += [(a, tree[-1]), (tree[-1], b)]
        intervals = nxt
    return tree


def _rates(laws: list, spec: DistortionSpec, sweep: tuple = _FINE) -> list:
    """R_{X|Y}(Q, Delta) in bits for each law Q, every solve batched across laws.

    Each law runs its own Lagrange sweep over its context slices: `sweep`'s
    log-spaced multipliers, then up to its count of bisection levels on the
    distortion.  The grid of all laws is one Blahut-Arimoto solve.  Each
    bisection solve carries, for every law still bisecting, the 2^depth - 1
    midpoints of its next `depth` levels (`_midpoints`, the floats the
    level-by-level loop would compute).  Each law then walks its own path
    down that tree: a feasible midpoint joins its best and becomes hi, any
    other becomes lo, and the exit rule is checked after every level.  Off-path
    points never reach best, and no row's bits depend on the rows beside it,
    so every value is the one-level-per-solve value.

    A grid, midpoint or last-resort (1e7) point that `_misses` Delta is not
    solved.  At lam >= 0 the solver's channel is ch(xh|x) = q(xh) w(x, xh) /
    sum_xh' q(xh') w(x, xh') with w = 2^(-lam d) <= 1 and sum q = 1, so
    ch(xh|x) >= q(xh) 2^(-lam dmax); summed over x, xh and the slices, E[d] >=
    2^(-lam dmax) * corner at every iterate.  So a point with 2^(-lam dmax) *
    corner above Delta (1 + margin), the margin a bound on the float rounding
    of E[d], is infeasible: it would only have become lo, and its I is never
    read.  The solved rows keep their bits, so no value moves.
    """
    if len(laws) > _CHUNK:
        return _rates(laws[:_CHUNK], spec, sweep) + _rates(laws[_CHUNK:], spec, sweep)
    if any(tuple(law.x_alphabet) != spec.x_alphabet for law in laws):
        raise DomainError("joint and distortion spec disagree on the source alphabet")
    iters, tol, multipliers, levels = sweep
    d = np.array(spec.d, dtype=float)
    delta, dmax, (nx, nh) = spec.delta, float(d.max()), d.shape
    columns = [law.masses.T.copy() for law in laws]
    slices = []  # per law: the context weights p(y) > 0 and the slice laws p(x|y)
    for cols in columns:
        py = cols.sum(axis=1)
        slices.append((py[py > 0], cols[py > 0] / py[py > 0, None]))

    def solve(points: list, lams: list, d: np.ndarray = d, iters: int = iters, tol: float = tol) -> list:
        """(I, E[d]) at each (law, multiplier) point: p(y)-weighted sums over the
        law's slices, in order; the sweep's solve unless told otherwise."""
        if not points:
            return []
        px = np.concatenate([slices[k][1] for k in points])
        lam_rows = np.repeat(np.asarray(lams, dtype=float), [len(slices[k][0]) for k in points])
        mi, ed = _blahut_arimoto(px, lam_rows, d, iters, tol)
        out, row = [], 0
        for k in points:
            mi_tot, ed_tot = 0.0, 0.0
            for py in slices[k][0]:
                mi_tot += py * mi[row]
                ed_tot += py * ed[row]
                row += 1
            out.append((mi_tot, ed_tot))
        return out

    if delta == 0.0:
        # R(Q, 0): a huge multiplier pins the channel onto the zero-distortion support
        big = np.where(d == 0.0, 0.0, 1e9)
        return [mi for mi, _ in solve(list(range(len(laws))), [1.0] * len(laws), big, 2000, 1e-13)]
    corners = []  # per law: the distortion of the best per-context constant reconstruction
    for cols in columns:
        corner = 0.0
        for col in cols:
            corner += float((col[:, None] * d).sum(axis=0).min())
        corners.append(corner)
    live = [k for k, corner in enumerate(corners) if corner > delta + 1e-15]
    roundings = [nx * nh + nx + nh + 3 * len(cols) + 16 for cols in columns]  # see _misses
    best, lo, hi = [None] * len(laws), [None] * len(laws), [None] * len(laws)

    def tried(pairs: list) -> list:
        """(I, E[d]) at each (law, multiplier) pair; a pair that `_misses` Delta is not
        solved and gets (nan, inf), so only its multiplier is read."""
        skip = [_misses(lam, delta, corners[k], dmax, roundings[k]) for k, lam in pairs]
        kept = [pair for pair, s in zip(pairs, skip) if not s]
        solved = iter(solve([k for k, _ in kept], [lam for _, lam in kept]))
        return [(math.nan, math.inf) if s else next(solved) for s in skip]

    def feasible(k: int, mi: float, ed: float) -> bool:
        """Whether a point of law k meets Delta; a feasible point's I joins the law's best."""
        if ed <= delta:
            best[k] = mi if best[k] is None else min(best[k], mi)
        return ed <= delta

    lams = np.logspace(-3, 3, multipliers)
    grid = [(k, lam) for k in live for lam in lams]
    for (k, lam), point in zip(grid, tried(grid)):
        if feasible(k, *point):
            hi[k] = lam if hi[k] is None else min(hi[k], lam)
        else:
            lo[k] = lam if lo[k] is None else max(lo[k], lam)
    stuck = [k for k in live if best[k] is None]  # every grid multiplier missed Delta
    for k, point in zip(stuck, tried([(k, 1e7) for k in stuck])):
        if not feasible(k, *point):
            raise DomainError("distortion target unreachable; check the spec")
        hi[k] = 1e7
    active = [k for k in live if lo[k] is not None]
    while active and levels:
        depth = min(_DEPTH, levels)
        levels -= depth
        trees = [_midpoints(lo[k], hi[k], depth) for k in active]
        points = iter(tried([(k, m) for k, tree in zip(active, trees) for m in tree]))
        going = []
        for k, tree in zip(active, trees):
            results, node = [next(points) for _ in tree], 0
            for _ in range(depth):  # walk the law's own path; off-path points never reach best
                if feasible(k, *results[node]):
                    hi[k], node = tree[node], 2 * node + 1
                else:
                    lo[k], node = tree[node], 2 * node + 2
                if hi[k] / lo[k] < 1 + 1e-12:
                    break
            else:
                going.append(k)
        active = going
    return [0.0 if b is None else max(b, 0.0) for b in best]


def rd_function(q_joint: JointPmf, spec: DistortionSpec) -> float:
    """Conditional rate-distortion R_{X|Y}(Q, Delta) in bits.

    The one-law case of the batched solver with the _FINE sweep: its
    log-spaced grid multipliers and all context slices go into one Blahut-Arimoto
    solve, then each solve over the slices settles _DEPTH bisection steps on
    the distortion (see `_rates`): a sweep that bisects 40 levels makes 15
    solves, not 41.  A multiplier with 2^(-lam dmax) * corner above Delta, by
    more than the rounding margin of `_misses`, is not solved, since E[d] is at
    least that bound (`_rates`); binary p = 0.3 at Delta = 0.05 solves 9 of
    its 20 grid multipliers.  The returned value is the smallest mutual
    information found at a feasible multiplier, a primal estimate from above;
    no dual bound certifies it from below.
    """
    return _rates([q_joint], spec)[0]


# ---------------------------------------------------------------------------
# The tilted-source functional and its privacy exponents.
# ---------------------------------------------------------------------------


def rd_exponent_functional(
    p_joint: JointPmf, spec: DistortionSpec, rho: float, controls: RdQuery = RdQuery()
) -> ExponentResult:
    """sup over source laws Q of [R(Q, Delta) - D(Q||P)/rho], with witness.

    Multi-start seeded search: the base law, the tilted closed-form optimum of
    the zero-distortion case and quasi-random Dirichlet draws are scored in
    one batched rate-distortion call with the _FAST sweep (each of its
    bisection solves settles _DEPTH levels of every start's own bisection, as
    `_rates` says, and each start gets the score it gets alone), then the
    leaders are polished one move at a time from their scores.  One _FINE
    call values the polished leaders and P itself, whose value is R(P, Delta)
    and the floor; the first leader of the largest value is the witness.  The
    bracket is [best found, H_a(X|Y)]: the functional is monotone in Delta
    and equals the entropy at Delta = 0, so only the upper end is a bound;
    the best found is the optimizer's estimate.
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    nx, ny = len(p_joint.x_alphabet), len(p_joint.y_alphabet)
    p = p_joint.masses
    upper = renyi_cond_entropy(p_joint, RenyiOrder.from_rho(rho))

    def q_of(vec: np.ndarray) -> JointPmf:
        vec = np.maximum(vec, 0.0)
        vec = vec / vec.sum()
        return JointPmf(
            p_joint.x_alphabet,
            p_joint.y_alphabet,
            tuple(tuple(float(v) for v in vec.reshape(nx, ny)[i]) for i in range(nx)),
        )

    def objectives(laws: list, sweep: tuple) -> list:
        divs = [kl_divergence(qj, p_joint) for qj in laws]
        finite = [k for k, div in enumerate(divs) if not math.isinf(div)]
        vals = [-math.inf] * len(laws)
        for k, r in zip(finite, _rates([laws[k] for k in finite], spec, sweep)):
            vals[k] = r - divs[k] / rho
        return vals

    rng = np.random.default_rng(controls.seed)
    tilt = 1.0 / (1.0 + rho)
    tilted = np.where(p > 0, p**tilt, 0.0)
    starts = [p.flatten(), np.full(nx * ny, 1.0 / (nx * ny)), (tilted / tilted.sum()).flatten()]
    n_grid = max(controls.grid_points - len(starts), 0)
    if n_grid:
        starts.extend(rng.dirichlet(np.ones(nx * ny), size=n_grid))
    scored = sorted(zip(objectives([*map(q_of, starts)], _FAST), range(len(starts))), reverse=True)
    polished = []
    for val, i in scored[: max(controls.polish_runs, 1)]:  # start ties go to the larger index
        vec = np.array(starts[i], dtype=float)
        step = 0.25
        for _ in range(controls.polish_steps):
            improved = False
            for k in range(nx * ny):
                for sign in (+1.0, -1.0):
                    cand = vec.copy()
                    cand[k] = max(cand[k] + sign * step, 0.0)
                    if cand.sum() <= 0:
                        continue
                    (v,) = objectives([q_of(cand)], _FAST)
                    if v > val + 1e-12:
                        vec, val = cand / cand.sum(), v
                        improved = True
            if not improved:
                step *= 0.5
                if step < POLISH_EPS:
                    break
        polished.append(q_of(vec))
    *vals, base = objectives([*polished, p_joint], _FINE)  # Q = P is always available
    best = vals.index(max(vals))  # the first leader of the largest value
    value = max(vals[best], base)
    return ExponentResult(value=value, witness=polished[best], certified_bracket=(value, upper + 1e-9))


def rd_privacy_exponent(
    r1: float, r2: float, rho: float, functional_value: float, e_bob: float | None = None
):
    """Privacy exponent with the functional standing in for the entropy rate."""
    return two_hint_exponents(r1, r2, rho, functional_value, e_bob)


# ---------------------------------------------------------------------------
# Variational identity for conditional Renyi entropy.
# ---------------------------------------------------------------------------


def variational_optimum(p_joint: JointPmf, rho: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form maximizer of H(V|Q) - D(Q x V || P)/rho over (Q, V).

    V tilts each context's column to the power 1/(1+rho); Q weights contexts
    exponentially in their per-context score.  Returns (q, v, value).
    """
    nx, ny = len(p_joint.x_alphabet), len(p_joint.y_alphabet)
    p = p_joint.masses
    tilt = 1.0 / (1.0 + rho)
    v = np.zeros((nx, ny))
    scores = np.zeros(ny)
    for j in range(ny):
        col = p[:, j]
        pos = col > 0
        if not pos.any():
            scores[j] = -math.inf
            continue
        w = np.where(pos, col**tilt, 0.0)
        v[:, j] = w / w.sum()
        ent = -np.sum(v[pos, j] * np.log2(v[pos, j]))
        div = np.sum(v[pos, j] * np.log2(v[pos, j] / col[pos]))
        scores[j] = ent - div / rho
    weights = np.where(np.isfinite(scores), 2.0 ** (rho * scores), 0.0)
    q = weights / weights.sum()
    value = math.log2(weights.sum()) / rho
    return q, v, value
