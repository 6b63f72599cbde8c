"""Guessing a reconstruction within a distortion budget.

Guesses take the form "is the reconstruction xhat within average distortion
Delta of the source tuple?".  A guessing function orders the reconstruction
tuples; its success function ranks each source tuple by the first guess that
lands within Delta, and the reconstruction function records that first hit.
Every distortion table must offer a zero-distortion reconstruction for each
source symbol, which guarantees the scan terminates.

The rate-distortion task-encoding constructions below are the lossless ones
of `tasks` (the rank remainder, `offset_refinement` and
`shortest_lists_first`) applied to the success function's ranks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .guessing import GuessingFunction, in_order, power_moment, rank_row
from .prob import BudgetExceededError, DomainError, JointPmf, product_pmf, tuple_alphabet
from .tasks import offset_refinement, shortest_lists_first

BALL_SLACK = 1e-12  # float-mode boundary slack for "within Delta"


@dataclass(frozen=True)
class DistortionSpec:
    x_alphabet: tuple
    xhat_alphabet: tuple
    d: tuple  # |X| x |Xhat| nonnegative entries
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet", tuple(self.x_alphabet))
        object.__setattr__(self, "xhat_alphabet", tuple(self.xhat_alphabet))
        object.__setattr__(self, "d", tuple(tuple(row) for row in self.d))
        if len(self.d) != len(self.x_alphabet):
            raise DomainError("distortion table shape mismatch")
        if not self.delta >= 0:  # NaN fails this too
            raise DomainError("delta must be a nonnegative number")
        for i, row in enumerate(self.d):
            if len(row) != len(self.xhat_alphabet):
                raise DomainError("distortion table shape mismatch")
            if min(row, default=1) != 0:
                raise DomainError(
                    f"row {i}: every source symbol needs a zero-distortion reconstruction"
                )
            if not all(v >= 0 for v in row):
                raise DomainError("distortion entries must be nonnegative numbers")

    @classmethod
    def hamming(cls, alphabet, delta: float = 0.0) -> "DistortionSpec":
        n = len(alphabet)
        d = tuple(tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n))
        return cls(tuple(alphabet), tuple(alphabet), d, delta)

    def dist(self, x, xhat) -> float:
        return self.d[self.x_alphabet.index(x)][self.xhat_alphabet.index(xhat)]


def avg_distortion(x_tuple, xhat_tuple, spec: DistortionSpec) -> float:
    if len(x_tuple) != len(xhat_tuple):
        raise DomainError("tuples must have equal length")
    return sum(spec.dist(a, b) for a, b in zip(x_tuple, xhat_tuple)) / len(x_tuple)


def within(x_tuple, xhat_tuple, spec: DistortionSpec) -> bool:
    return avg_distortion(x_tuple, xhat_tuple, spec) <= spec.delta + BALL_SLACK


@dataclass(frozen=True)
class SuccessFunction:
    """Ranks of source tuples induced by a guessing order on reconstructions.

    For every (x, ctx), recon[(x, ctx)] is within Delta of x and
    ranks[(x, ctx)] == ghat.rank(recon[(x, ctx)], ctx): the rank of a source
    tuple is the guessing rank of its first within-Delta reconstruction.
    """

    ghat: GuessingFunction  # over xhat tuples, per context
    spec: DistortionSpec
    ranks: dict  # (x_tuple, ctx) -> rank of the first within-Delta guess
    recon: dict  # (x_tuple, ctx) -> the reconstruction at that rank
    certified_optimal: bool = False

    def moment(self, joint: JointPmf, rho: float) -> float:
        ranks = [self.ranks[(x, c)] for x in joint.x_alphabet for c in joint.y_alphabet]  # x-major
        return power_moment(joint.masses.ravel(), ranks, rho)

    def to_json(self) -> str:
        return json.dumps({repr(k): v for k, v in sorted(self.ranks.items(), key=repr)})


def success_function(
    ghat: GuessingFunction, spec: DistortionSpec, joint: JointPmf, certified: bool = False
) -> SuccessFunction:
    """Scan each context's guessing order for the first within-Delta hit."""
    ranks: dict = {}
    recon: dict = {}
    for c in ghat.context_alphabet:
        order = ghat.order(c)
        for x in joint.x_alphabet:
            for j, xhat in enumerate(order, start=1):
                if within(x, xhat, spec):
                    ranks[(x, c)] = j
                    recon[(x, c)] = xhat
                    break
            else:
                raise DomainError(f"no reconstruction within delta for {x!r}")
    return SuccessFunction(ghat, spec, ranks, recon, certified)


def _ball_matrix(x_tuples, xhat_tuples, spec: DistortionSpec) -> np.ndarray:
    return np.array([[within(x, xh, spec) for xh in xhat_tuples] for x in x_tuples])


def _permutation_table(n: int) -> np.ndarray:
    """Every order of range(n), one per row, in `itertools.permutations`'
    (lexicographic) order: the table for n - 1 behind each leading element in
    turn, its entries at or above that element shifted up by one."""
    perms = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, n + 1):
        lead = np.repeat(np.arange(k), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack([lead, rest + (rest >= lead)])
    return perms


def _best_orders(balls: np.ndarray, columns, rhos) -> list:
    """Per rho, per column of source masses, the guessing order of the
    reconstructions with the least moment, and that moment: one search over
    every order serves all rho, since only the position^rho weights depend on it."""
    perms = _permutation_table(balls.shape[1])
    positions = (balls[:, perms].argmax(axis=2) + 1).astype(float)  # each order's first within-Delta position
    best = []
    for rho in rhos:
        weights = positions**rho
        per_column = []
        for col in columns:
            moments = (col[:, None] * weights).sum(axis=0)
            k = int(moments.argmin())
            per_column.append((perms[k], float(moments[k])))
        best.append(per_column)
    return best


def brute_optimal_distortion_guessers(
    spec: DistortionSpec, joint: JointPmf, n: int, rhos, budget: int = 8
) -> list[tuple[SuccessFunction, float]]:
    """Exact factorial search over reconstruction orderings, one per rho in
    `rhos`; |Xhat|^n <= budget.

    This is the independent oracle every other distortion routine is checked
    against.  Contexts are optimized separately (the objective is additive),
    and one pass over the orders serves every rho.
    """
    if not all(rho > 0 for rho in rhos):
        raise DomainError("rho must be > 0")
    big = tuple_product(joint, n)
    xhat_tuples = tuple_alphabet(spec.xhat_alphabet, n)
    if len(xhat_tuples) > budget:
        raise BudgetExceededError(f"|Xhat|^n = {len(xhat_tuples)} exceeds budget {budget}")
    balls = _ball_matrix(big.x_alphabet, xhat_tuples, spec)
    out = []
    for best in _best_orders(balls, big.masses.T, rhos):  # per rho, one row per context
        ghat = GuessingFunction(xhat_tuples, big.y_alphabet, tuple(rank_row(order) for order, _ in best))
        out.append((success_function(ghat, spec, big, certified=True), in_order([moment for _, moment in best])))
    return out


def brute_optimal_distortion_guesser(
    spec: DistortionSpec, joint: JointPmf, n: int, rho: float, budget: int = 8
) -> tuple[SuccessFunction, float]:
    """`brute_optimal_distortion_guessers` at one rho."""
    return brute_optimal_distortion_guessers(spec, joint, n, [rho], budget)[0]


def greedy_cover_guesser(spec: DistortionSpec, joint: JointPmf, n: int) -> SuccessFunction:
    """Heuristic: repeatedly guess the reconstruction covering the most
    remaining posterior mass (ties by index).  Not certified optimal; measure
    its gap against the brute-force oracle where that is feasible."""
    big = tuple_product(joint, n)
    xhat_tuples = tuple_alphabet(spec.xhat_alphabet, n)
    balls = _ball_matrix(big.x_alphabet, xhat_tuples, spec)
    nh = len(xhat_tuples)
    rank_rows = []
    for col in big.masses.T:
        remaining = col.copy()
        order = []
        unused = list(range(nh))
        while remaining.sum() > 0 and unused:
            cover = [(float(remaining[balls[:, h]].sum()), h) for h in unused]
            _, h = max(cover, key=lambda t: (t[0], -t[1]))
            order.append(h)
            unused.remove(h)
            remaining = np.where(balls[:, h], 0.0, remaining)
        order.extend(unused)
        rank_rows.append(rank_row(order))
    ghat = GuessingFunction(xhat_tuples, big.y_alphabet, tuple(rank_rows))
    return success_function(ghat, spec, big)


def _tuple_wrap(joint: JointPmf) -> JointPmf:
    """Lift symbols to length-1 tuples so n = 1 shares the tuple code paths."""
    return JointPmf(
        tuple((x,) for x in joint.x_alphabet),
        joint.y_alphabet,
        joint.table,
    )


def tuple_product(joint: JointPmf, n: int) -> JointPmf:
    """The n-fold IID product on n-tuple symbols, for every n >= 1."""
    return product_pmf(joint, n) if n > 1 else _tuple_wrap(joint)


def rd_side_info_encoder(
    sf: SuccessFunction, joint: JointPmf, n: int, z_count: int, rho: float
) -> tuple[dict, dict]:
    """Descriptor Z from the reconstruction's rank remainder, plus bound checks.

    Returns (encoder map, report) where report carries the achieved moment,
    the ceil-moment target, and the cardinality floor.  Requires an
    oracle-certified optimal success function.
    """
    if not sf.certified_optimal:
        raise DomainError("side-information construction needs an oracle-certified optimal input")
    big = tuple_product(joint, n)
    enc = {(x, c): (sf.ranks[(x, c)] - 1) % z_count for c in big.y_alphabet for x in big.x_alphabet}
    ceils = [math.ceil(sf.ranks[(x, c)] / z_count) for x in big.x_alphabet for c in big.y_alphabet]  # x-major
    ceil_target = power_moment(big.masses.ravel(), ceils, rho)
    achieved = _optimal_rd_moment_given(big, sf.spec, enc, rho)
    floor = z_count ** (-rho) * sf.moment(big, rho)
    report = {"achieved": achieved, "ceil_target": ceil_target, "floor": max(1.0, floor)}
    return enc, report


def _optimal_rd_moment_given(big: JointPmf, spec: DistortionSpec, enc: dict, rho: float) -> float:
    """Exact optimal distortion-guessing moment given (ctx, Z): brute per cell group."""
    xhat_tuples = tuple_alphabet(spec.xhat_alphabet, len(big.x_alphabet[0]))
    balls = _ball_matrix(big.x_alphabet, xhat_tuples, spec)
    xi = {x: i for i, x in enumerate(big.x_alphabet)}
    groups: dict = {}
    for x, row in zip(big.x_alphabet, big.masses.tolist()):
        for c, p in zip(big.y_alphabet, row):
            if p > 0:
                groups.setdefault((c, enc[(x, c)]), []).append((x, p))
    if math.factorial(len(xhat_tuples)) > 50000:
        raise BudgetExceededError("refined-context oracle needs |Xhat|^n small")
    columns = []
    for members in groups.values():
        col = np.zeros(len(big.x_alphabet))
        for x, p in members:
            col[xi[x]] += p
        columns.append(col)
    return in_order([moment for _, moment in _best_orders(balls, columns, [rho])[0]])


def rd_encoder_from_guessing(
    sf: SuccessFunction, joint: JointPmf, n: int, omega: int, z_count: int, rho: float
) -> tuple[dict, dict, float]:
    """Offset/refinement task-encoder driven by the success function.

    Returns (encoder, lists of reconstructions, list moment).  The lists
    satisfy the fidelity requirement by construction (they contain the
    realized reconstruction) and E[|L|^rho] <= E[ceil(G_Delta/omega)^rho].
    """
    big = tuple_product(joint, n)
    describe = offset_refinement(len(sf.ghat.x_alphabet), omega, z_count)
    enc: dict = {}
    lists: dict = {}
    held = []  # (mass, list) of each positive-mass (x, ctx), x-major
    for x, row in zip(big.x_alphabet, big.masses.tolist()):
        for c, p in zip(big.y_alphabet, row):
            z = enc[(x, c)] = describe(sf.ranks[(x, c)])
            if p > 0:
                lists.setdefault((c, z), set()).add(sf.recon[(x, c)])
                held.append((p, (c, z)))
    lists = {k: tuple(sorted(v, key=repr)) for k, v in lists.items()}
    return enc, lists, power_moment([p for p, _ in held], [len(lists[k]) for _, k in held], rho)


def rd_guessing_from_lists(
    lists: dict, enc: dict, spec: DistortionSpec, joint: JointPmf, n: int
) -> SuccessFunction:
    """Order reconstruction lists by size to induce a guessing function.

    `lists` maps (ctx, z) to reconstruction tuples, `enc` maps (x_tuple, ctx)
    to z.  Every positive-mass (x, ctx) must have a within-Delta member in its
    list (fidelity); violations raise DomainError.
    """
    big = tuple_product(joint, n)
    for x, row in zip(big.x_alphabet, big.masses.tolist()):
        for c, p in zip(big.y_alphabet, row):
            if p > 0:
                members = lists.get((c, enc[(x, c)]), ())
                if not any(within(x, xh, spec) for xh in members):
                    raise DomainError(f"fidelity violation at ({x!r}, {c!r})")
    ghat = shortest_lists_first(lists, tuple_alphabet(spec.xhat_alphabet, n), big.y_alphabet)
    return success_function(ghat, spec, big)
