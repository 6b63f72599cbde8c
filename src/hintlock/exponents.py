"""Asymptotic calculators: conditional rate-distortion, the tilted-source
functional, rate-distortion privacy exponents, and the variational identity
for conditional Renyi entropy.

The conditional rate-distortion function is computed by alternating
minimization per context slice under a Lagrange sweep with bisection
refinement; an independent fine-grid channel search certifies it at small
alphabets.  The tilted-source functional sup_Q [R(Q, Delta) - D(Q||P)/rho]
is maximized by seeded multi-start search and reported with a bracket whose
upper end, the zero-distortion entropy, is a bound; its lower end is the
optimizer's best point, and that point's R is itself a primal (upper)
estimate, so the lower end is not certified.
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
        if self.grid_points <= 0 or self.polish_runs < 0:
            raise DomainError("invalid controls")
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
# Conditional rate-distortion via per-slice alternating minimization.
# ---------------------------------------------------------------------------


def _slice_ba(px: np.ndarray, dmat: np.ndarray, lam: float, iters: int, tol: float):
    """min over channels of I(X; Xhat) + lam * E[d] for one context slice.

    Returns (mutual information bits, expected distortion) at the optimizer.
    """
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


def _zero_distortion_rate(q_joint: JointPmf, spec: DistortionSpec) -> float:
    """R(Q, 0): minimum I over channels supported on zero-distortion pairs."""
    total = 0.0
    d = np.array(spec.d)
    for j in range(len(q_joint.y_alphabet)):
        col = np.array([float(p) for p in q_joint.y_column(j)])
        py = col.sum()
        if py <= 0:
            continue
        px = col / py
        allowed = d == 0.0
        # huge lambda pins the channel onto the zero-distortion support
        big = np.where(allowed, 0.0, 1e9)
        mi, _ = _slice_ba(px, big, 1.0, 2000, 1e-13)
        total += py * mi
    return total


def rd_function(q_joint: JointPmf, spec: DistortionSpec, controls: RdQuery = RdQuery()) -> float:
    """Conditional rate-distortion R_{X|Y}(Q, Delta) in bits.

    Lagrange sweep (log-spaced multipliers plus bisection on the distortion)
    with per-context alternating minimization; the returned value is the
    smallest mutual information found at a feasible multiplier, an estimate
    from above.  The dual value is tracked but not used, so nothing certifies
    the result from below.
    """
    if tuple(q_joint.x_alphabet) != spec.x_alphabet:
        raise DomainError("joint and distortion spec disagree on the source alphabet")
    delta = spec.delta
    if delta == 0.0:
        return _zero_distortion_rate(q_joint, spec)
    d = np.array(spec.d)
    ny = len(q_joint.y_alphabet)
    # zero-rate corner: a per-context constant reconstruction already meets Delta
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
    best_dual = 0.0
    lo, hi = None, None
    for lam in lams:
        mi, ed = sweep(float(lam))
        best_dual = max(best_dual, mi + lam * (ed - delta))
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
            best_dual = max(best_dual, mi + mid * (ed - delta))
            if ed <= delta:
                best_feasible = min(best_feasible, mi)
                hi = mid
            else:
                lo = mid
            if hi / lo < 1 + 1e-12:
                break
    return max(best_feasible, 0.0)


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


# ---------------------------------------------------------------------------
# The tilted-source functional and its privacy exponents.
# ---------------------------------------------------------------------------


def rd_exponent_functional(
    p_joint: JointPmf, spec: DistortionSpec, rho: float, controls: RdQuery = RdQuery()
) -> ExponentResult:
    """sup over source laws Q of [R(Q, Delta) - D(Q||P)/rho], with witness.

    Multi-start seeded search: the base law, the tilted closed-form optimum of
    the zero-distortion case, quasi-random Dirichlet draws, then local polish
    around the leaders.  The bracket is [best found, H_a(X|Y)]: the functional
    is monotone in Delta and equals the entropy at Delta = 0, while the best
    found is only the optimizer's estimate.
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

    def objective(vec: np.ndarray, fine: bool = False) -> float:
        qj = q_of(vec)
        div = kl_divergence(qj, p_joint)
        if math.isinf(div):
            return -math.inf
        r = rd_function(qj, spec, controls if fine else fast)
        return r - div / rho

    rng = np.random.default_rng(controls.seed)
    tilt = 1.0 / (1.0 + rho)
    tilted = np.where(p > 0, p**tilt, 0.0)
    starts = [p.flatten(), np.full(nx * ny, 1.0 / (nx * ny)), (tilted / tilted.sum()).flatten()]
    n_grid = max(controls.grid_points - len(starts), 0)
    if n_grid:
        starts.extend(rng.dirichlet(np.ones(nx * ny), size=n_grid))
    scored = sorted(((objective(v), i) for i, v in enumerate(starts)), reverse=True)
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
