"""Asymptotic calculators: conditional rate-distortion, the tilted-source
functional, rate-distortion privacy exponents, and the variational identity
for conditional Renyi entropy.

The conditional rate-distortion function is computed by one batched
Blahut-Arimoto solver: each row of a (batch, nx, nh) tensor is one (law,
Lagrange multiplier, context slice) triple over the shared distortion matrix.
Every law runs its own sweep (log-spaced multipliers, then bisection on the
distortion), and each sweep step of all laws is one solve (the tests check
R against a fine-grid channel search at small alphabets).  The tilted-source
functional sup_Q [R(Q, Delta) - D(Q||P)/rho] is maximized by seeded
multi-start search, with all starts scored in one batched call, and reported
with a bracket whose upper end, the zero-distortion entropy, is a bound; its
lower end is the optimizer's best point, and that point's R is itself a
primal (upper) estimate, so the lower end is not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionSpec
from .prob import DomainError, JointPmf, RenyiOrder, kl_divergence, renyi_cond_entropy
from .twohint import two_hint_exponents

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class RdQuery:
    """Optimizer controls for the functional search."""

    grid_points: int = 10_000
    polish_runs: int = 20
    polish_steps: int = 60
    eps: float = 1e-6
    seed: int = 20_240_817
    ba_iters: int = 400
    ba_tol: float = 1e-10
    lambda_points: int = 20
    bisect_iters: int = 60

    def __post_init__(self):
        if self.grid_points <= 0 or self.polish_runs < 0 or self.polish_steps < 0:
            raise DomainError("invalid controls")
        if self.lambda_points < 1 or self.ba_iters < 1 or self.bisect_iters < 0:
            raise DomainError("the rate-distortion sweep needs a multiplier and an iteration")
        if not self.ba_tol > 0:
            raise DomainError("ba_tol must be positive")
        if not 0 < self.eps <= 1e-6:
            raise DomainError("eps must be positive and at most 1e-6")


@dataclass(frozen=True)
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


def _blahut_arimoto(px: np.ndarray, lams: np.ndarray, d: np.ndarray, iters: int, tol: float):
    """min over channels of I(X; Xhat) + lam * E[d], one row per context slice.

    Row b pairs the slice law px[b] with the multiplier lams[b] over the shared
    distortion matrix d.  A row iterates until its reconstruction law moves by
    less than tol, or `iters` times, and then leaves the active set.  Returns
    (mutual information bits, expected distortion) at each row's optimizer.
    """
    w = np.exp((-lams * LOG2)[:, None, None] * d)  # base-2 exponent tilt
    support = w > 0
    fallback = support / np.maximum(support.sum(axis=2, keepdims=True), 1)

    def channel(q, w, fallback):
        raw = q[:, None, :] * w
        sums = raw.sum(axis=2, keepdims=True)
        return np.where(sums > 0, raw / np.maximum(sums, 1e-300), fallback)

    q = np.full((len(px), d.shape[1]), 1.0 / d.shape[1])
    rows, qa, wa, fa, pa = np.arange(len(px)), q, w, fallback, px[:, None, :]  # the active rows
    for _ in range(iters):
        q_new = (pa @ channel(qa, wa, fa))[:, 0]
        done = np.abs(q_new - qa).max(axis=1) < tol
        qa = q_new
        if done.any():
            q[rows[done]] = qa[done]
            going = ~done
            rows, qa, wa, fa, pa = rows[going], qa[going], wa[going], fa[going], pa[going]
            if not len(rows):
                break
    q[rows] = qa
    ch = channel(q, w, fallback)
    joint = px[:, :, None] * ch
    ratio = np.where(joint > 0, ch / np.maximum(q[:, None, :], 1e-300), 1.0)
    mi = (joint * np.log2(np.maximum(ratio, 1e-300))).reshape(len(px), -1).sum(axis=1)
    ed = (joint * d).reshape(len(px), -1).sum(axis=1)
    return np.maximum(mi, 0.0), ed


def _rates(laws: list, spec: DistortionSpec, controls: RdQuery) -> list:
    """R_{X|Y}(Q, Delta) in bits for each law Q, every solve batched across laws.

    Each law runs its own Lagrange sweep (log-spaced multipliers, then
    bisection on the distortion), and every sweep step of all laws is one
    Blahut-Arimoto solve over their context slices.
    """
    if len(laws) > _CHUNK:
        return _rates(laws[:_CHUNK], spec, controls) + _rates(laws[_CHUNK:], spec, controls)
    if any(tuple(law.x_alphabet) != spec.x_alphabet for law in laws):
        raise DomainError("joint and distortion spec disagree on the source alphabet")
    d = np.array(spec.d, dtype=float)
    delta = spec.delta
    columns = [np.array([[float(v) for v in row] for row in law.table]).T.copy() for law in laws]
    slices = []  # per law: the context weights p(y) > 0 and the slice laws p(x|y)
    for cols in columns:
        py = cols.sum(axis=1)
        slices.append((py[py > 0], cols[py > 0] / py[py > 0, None]))

    def sweep(points: list, lams: list, d: np.ndarray, iters: int, tol: float) -> list:
        """(I, E[d]) at each (law, multiplier) point: p(y)-weighted sums over the
        law's slices, in order."""
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
        return [mi for mi, _ in sweep(list(range(len(laws))), [1.0] * len(laws), big, 2000, 1e-13)]
    live = []  # laws that no per-context constant reconstruction serves within Delta
    for k, cols in enumerate(columns):
        corner = 0.0
        for col in cols:
            corner += float((col[:, None] * d).sum(axis=0).min())
        if corner > delta + 1e-15:
            live.append(k)
    best, lo, hi = [None] * len(laws), [None] * len(laws), [None] * len(laws)

    def feasible(points: list, lams: list) -> list:
        """Sweep the points, keep each law's smallest feasible I, and return
        (law, multiplier, whether it meets Delta) per point."""
        res = sweep(points, lams, d, controls.ba_iters, controls.ba_tol)
        for k, (mi, ed) in zip(points, res):
            if ed <= delta:
                best[k] = mi if best[k] is None else min(best[k], mi)
        return [(k, lam, ed <= delta) for k, lam, (_, ed) in zip(points, lams, res)]

    lams = np.logspace(-3, 3, controls.lambda_points)
    for k, lam, ok in feasible([k for k in live for _ in lams], [lam for _ in live for lam in lams]):
        if ok:
            hi[k] = lam if hi[k] is None else min(hi[k], lam)
        else:
            lo[k] = lam if lo[k] is None else max(lo[k], lam)
    stuck = [k for k in live if best[k] is None]  # every grid multiplier missed Delta
    for k, lam, ok in feasible(stuck, [1e7] * len(stuck)):
        if not ok:
            raise DomainError("distortion target unreachable; check the spec")
        hi[k] = lam
    active = [k for k in live if lo[k] is not None]
    for _ in range(controls.bisect_iters):
        if not active:
            break
        for k, mid, ok in feasible(active, [math.sqrt(lo[k] * hi[k]) for k in active]):
            if ok:
                hi[k] = mid
            else:
                lo[k] = mid
        active = [k for k in active if not hi[k] / lo[k] < 1 + 1e-12]
    return [0.0 if b is None else max(b, 0.0) for b in best]


def rd_function(q_joint: JointPmf, spec: DistortionSpec, controls: RdQuery = RdQuery()) -> float:
    """Conditional rate-distortion R_{X|Y}(Q, Delta) in bits.

    The one-law case of the batched solver: all `lambda_points` log-spaced
    multipliers and all context slices go into one Blahut-Arimoto solve, then
    each bisection step on the distortion is one solve over the slices.  The
    returned value is the smallest mutual information found at a feasible
    multiplier, a primal estimate from above; no dual bound certifies it from
    below.
    """
    return _rates([q_joint], spec, controls)[0]


# ---------------------------------------------------------------------------
# The tilted-source functional and its privacy exponents.
# ---------------------------------------------------------------------------


def rd_exponent_functional(
    p_joint: JointPmf, spec: DistortionSpec, rho: float, controls: RdQuery = RdQuery()
) -> ExponentResult:
    """sup over source laws Q of [R(Q, Delta) - D(Q||P)/rho], with witness.

    Multi-start seeded search: the base law, the tilted closed-form optimum of
    the zero-distortion case and quasi-random Dirichlet draws are scored in
    one batched rate-distortion call (their bisections run in lockstep), then
    the leaders are polished one move at a time.  The bracket is [best found,
    H_a(X|Y)]: the functional is monotone in Delta and equals the entropy at
    Delta = 0, so only the upper end is a bound; the best found is the
    optimizer's estimate.
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    nx, ny = len(p_joint.x_alphabet), len(p_joint.y_alphabet)
    p = np.array([[float(v) for v in row] for row in p_joint.table])
    upper = renyi_cond_entropy(p_joint, RenyiOrder.from_rho(rho))

    def q_of(vec: np.ndarray) -> JointPmf:
        vec = np.maximum(vec, 0.0)
        vec = vec / vec.sum()
        return JointPmf(
            p_joint.x_alphabet,
            p_joint.y_alphabet,
            tuple(tuple(float(v) for v in vec.reshape(nx, ny)[i]) for i in range(nx)),
        )

    fast = RdQuery(
        grid_points=controls.grid_points,
        polish_runs=controls.polish_runs,
        eps=controls.eps,
        seed=controls.seed,
        ba_iters=120,
        ba_tol=1e-9,
        lambda_points=8,
        bisect_iters=16,
    )

    def objectives(vecs: list, query: RdQuery) -> list:
        laws = [q_of(v) for v in vecs]
        divs = [kl_divergence(qj, p_joint) for qj in laws]
        finite = [k for k, div in enumerate(divs) if not math.isinf(div)]
        vals = [-math.inf] * len(vecs)
        for k, r in zip(finite, _rates([laws[k] for k in finite], spec, query)):
            vals[k] = r - divs[k] / rho
        return vals

    def objective(vec: np.ndarray, fine: bool = False) -> float:
        return objectives([vec], controls if fine else fast)[0]

    rng = np.random.default_rng(controls.seed)
    tilt = 1.0 / (1.0 + rho)
    tilted = np.where(p > 0, p**tilt, 0.0)
    starts = [p.flatten(), np.full(nx * ny, 1.0 / (nx * ny)), (tilted / tilted.sum()).flatten()]
    n_grid = max(controls.grid_points - len(starts), 0)
    if n_grid:
        starts.extend(rng.dirichlet(np.ones(nx * ny), size=n_grid))
    scored = sorted(zip(objectives(starts, fast), range(len(starts))), reverse=True)
    best_val, best_vec = -math.inf, None
    for _, i in scored[: max(controls.polish_runs, 1)]:
        vec = np.array(starts[i], dtype=float)
        val = objective(vec)
        step = 0.25
        for _ in range(controls.polish_steps):
            improved = False
            for k in range(nx * ny):
                for sign in (+1.0, -1.0):
                    cand = vec.copy()
                    cand[k] = max(cand[k] + sign * step, 0.0)
                    if cand.sum() <= 0:
                        continue
                    v = objective(cand)
                    if v > val + 1e-12:
                        vec, val = cand / cand.sum(), v
                        improved = True
            if not improved:
                step *= 0.5
                if step < controls.eps:
                    break
        fine_val = objective(vec, fine=True)
        if fine_val > best_val:
            best_val, best_vec = fine_val, vec
    witness = q_of(best_vec)
    value = max(best_val, rd_function(p_joint, spec, controls))  # Q = P is always available
    return ExponentResult(value=value, witness=witness, certified_bracket=(value, upper + 1e-9))


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
    p = np.array([[float(v) for v in row] for row in p_joint.table])
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
