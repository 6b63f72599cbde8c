"""Guessing a reconstruction within a distortion budget.

Guesses take the form "is the reconstruction xhat within average distortion
Delta of the source tuple?".  A guessing function orders the reconstruction
tuples; its success function ranks each source tuple by the first guess that
lands within Delta, and the reconstruction function records that first hit.
Every distortion table must offer a zero-distortion reconstruction for each
source symbol, which guarantees the scan terminates.

The optimal order is found by a subset DP, not by ranking all m! orders of
the m = |Xhat|^n reconstructions (Held and Karp 1962).  Each source tuple
keeps the reconstructions within Delta of it as a bitmask.  The moment of an
order depends on it only through its prefixes: with U(S) the mass of the
source tuples that no guess in the set S covers, and S_k the first k guesses,

    E[G^rho] = sum_k k^rho (U(S_{k-1}) - U(S_k)) = sum_{k>=0} ((k+1)^rho - k^rho) U(S_k).

So the least moment from a guessed set S on is
V(S) = ((|S|+1)^rho - |S|^rho) U(S) + min over h not in S of V(S + h), with
V = 0 once U(S) = 0; a suffix pass over the 2^m subsets gives it in 2^m * m
steps per context.  The order is read greedily from the empty set, each tie
to the smallest index, which is the lexicographically first optimal order.
Each U(S) is its uncovered masses added in index order, so reconstructions
with equal balls tie exactly.  The chosen order's moment is then summed by
`power_moment` over the source tuples in order.  The m! search is the
reference in the tests.

The rate-distortion task-encoding constructions below are the lossless ones
of `tasks` (the rank remainder, `offset_refinement` and
`shortest_lists_first`) applied to the success function's ranks.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .guessing import GuessingFunction, in_order, power_moment, rank_row
from .prob import BudgetExceededError, DomainError, JointPmf, product_pmf, record, tuple_alphabet
from .tasks import offset_refinement, shortest_lists_first

BALL_SLACK = 1e-12  # float-mode boundary slack for "within Delta"
ORDER_BUDGET = 1 << 22  # the default bound on the order search's 2^m * m steps per context


@record
class DistortionSpec:
    x_alphabet: tuple
    xhat_alphabet: tuple
    d: tuple  # |X| x |Xhat| nonnegative entries
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet", tuple(self.x_alphabet))
        object.__setattr__(self, "xhat_alphabet", tuple(self.xhat_alphabet))
        object.__setattr__(self, "d", tuple(tuple(row) for row in self.d))
        for name, symbols in (("source", self.x_alphabet), ("reconstruction", self.xhat_alphabet)):
            repeated = [s for i, s in enumerate(symbols) if symbols.index(s) < i]  # `dist` reads the first only
            if repeated:
                raise DomainError(f"{name} symbol {repeated[0]!r} repeats: each symbol needs one row or column of d")
        if len(self.d) != len(self.x_alphabet):
            raise DomainError("distortion table shape mismatch")
        if not self.delta >= 0:  # NaN fails this too
            raise DomainError("delta must be a nonnegative number")
        for i, row in enumerate(self.d):
            if len(row) != len(self.xhat_alphabet):
                raise DomainError("distortion table shape mismatch")
            if not all(0 <= v < math.inf for v in row):  # 0 * inf is NaN in E[d]; before min, which NaN fools
                raise DomainError("distortion entries must be finite nonnegative numbers")
            if min(row, default=1) != 0:
                raise DomainError(f"row {i}: every source symbol needs a zero-distortion reconstruction")

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


@record
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
        return power_moment(chain.from_iterable(zip(*joint.columns)), ranks, rho)

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


def _balls(x_tuples, xhat_tuples, spec: DistortionSpec) -> list[int]:
    """Per source tuple, the bitmask of the reconstructions within Delta of it (bit h: xhat_tuples[h])."""
    return [sum(1 << h for h, xh in enumerate(xhat_tuples) if within(x, xh, spec)) for x in x_tuples]


def order_search_steps(contexts: int, m: int, budget: int) -> int:
    """The subset DP's 2^m * m steps for each of `contexts` contexts; past
    `budget`'s bit length, 2^m is cut to a power of two that already exceeds it."""
    return contexts * (m << min(m, budget.bit_length()))


def _optimal_orders(balls: list[int], m: int, columns, rhos) -> list:
    """Per rho, per column of source masses, an order of the m reconstructions
    with the least moment, and that moment: the subset DP of the module docstring."""
    full = (1 << m) - 1
    covers = [sum(1 << i for i, ball in enumerate(balls) if ball >> h & 1) for h in range(m)]
    free = [(1 << len(balls)) - 1] * (full + 1)  # the source tuples no guess in S covers
    for s in range(1, full + 1):
        low = s & -s
        free[s] = free[s ^ low] & ~covers[low.bit_length() - 1]
    sizes = [s.bit_count() for s in range(full + 1)]
    best: list = [[] for _ in rhos]
    for col in columns:
        mass = {}  # uncovered mass per set of source tuples, added in index order
        for f in free:
            if f not in mass:
                total, rest = 0.0, f
                while rest:
                    low = rest & -rest
                    total += col[low.bit_length() - 1]
                    rest ^= low
                mass[f] = total
        left = [mass[f] for f in free]
        for per_rho, rho in zip(best, rhos):
            order = _dp_order(left, sizes, m, rho)
            rank = rank_row(order)
            positions = [min(rank[h] for h in range(m) if ball >> h & 1) for ball in balls]
            per_rho.append((order, power_moment(col, positions, rho)))
    return best


def _dp_order(left: list, sizes: list, m: int, rho: float) -> list:
    """The lexicographically first order of least moment, given the uncovered
    mass `left[S]` and size `sizes[S]` of every guessed set S."""
    full, bits = len(left) - 1, [1 << h for h in range(m)]
    weight = [(k + 1) ** rho - k**rho for k in range(m)]
    cost = [0.0] * (full + 1)  # V(S): 0 once nothing is left uncovered
    for s in range(full - 1, -1, -1):
        if left[s] > 0:
            cost[s] = weight[sizes[s]] * left[s] + min([cost[s | b] for b in bits if not s & b])
    order, s = [], 0
    while s != full:
        h = min((h for h in range(m) if not s >> h & 1), key=lambda h: cost[s | 1 << h])  # the first least
        order.append(h)
        s |= 1 << h
    return order


def brute_optimal_distortion_guessers(
    spec: DistortionSpec, joint: JointPmf, n: int, rhos, budget: int = ORDER_BUDGET
) -> list[tuple[SuccessFunction, float]]:
    """Exact optimal reconstruction orderings, one per rho in `rhos`, by the
    subset DP; its 2^m * m steps per context, m = |Xhat|^n, at most `budget`.

    Every other distortion routine is checked against it, and it against the
    factorial search in the tests.  Contexts are optimized separately (the
    objective is additive), and the uncovered masses serve every rho.
    """
    if not all(rho > 0 for rho in rhos):
        raise DomainError("rho must be > 0")
    big = tuple_product(joint, n)
    m = len(spec.xhat_alphabet) ** n
    if order_search_steps(len(big.y_alphabet), m, budget) > budget:
        raise BudgetExceededError(f"the order search's 2^m*m steps per context, m = {m}, exceed budget {budget}")
    xhat_tuples = tuple_alphabet(spec.xhat_alphabet, n)
    balls = _balls(big.x_alphabet, xhat_tuples, spec)
    out = []
    for best in _optimal_orders(balls, m, big.columns, rhos):  # per rho, one row per context
        ghat = GuessingFunction(xhat_tuples, big.y_alphabet, tuple(rank_row(order) for order, _ in best))
        out.append((success_function(ghat, spec, big, certified=True), in_order([moment for _, moment in best])))
    return out


def brute_optimal_distortion_guesser(
    spec: DistortionSpec, joint: JointPmf, n: int, rho: float, budget: int = ORDER_BUDGET
) -> tuple[SuccessFunction, float]:
    """`brute_optimal_distortion_guessers` at one rho."""
    return brute_optimal_distortion_guessers(spec, joint, n, [rho], budget)[0]


def greedy_cover_guesser(spec: DistortionSpec, joint: JointPmf, n: int) -> SuccessFunction:
    """Heuristic: repeatedly guess the reconstruction covering the most
    remaining posterior mass (ties by index; each cover added in index order).
    Not certified optimal; measure its gap against the exact order search."""
    big = tuple_product(joint, n)
    xhat_tuples = tuple_alphabet(spec.xhat_alphabet, n)
    balls = _balls(big.x_alphabet, xhat_tuples, spec)
    nh = len(xhat_tuples)
    covers = [[i for i, ball in enumerate(balls) if ball >> h & 1] for h in range(nh)]
    rank_rows = []
    for col in big.columns:
        remaining = list(col)
        order = []
        unused = list(range(nh))
        while unused and any(p > 0 for p in remaining):
            h = max(unused, key=lambda h: in_order([remaining[i] for i in covers[h]]))  # the first largest
            order.append(h)
            unused.remove(h)
            for i in covers[h]:
                remaining[i] = 0.0
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
    ceil_target = power_moment(chain.from_iterable(zip(*big.columns)), ceils, rho)
    achieved = _optimal_rd_moment_given(big, sf.spec, enc, rho)
    floor = z_count ** (-rho) * sf.moment(big, rho)
    report = {"achieved": achieved, "ceil_target": ceil_target, "floor": max(1.0, floor)}
    return enc, report


def _optimal_rd_moment_given(big: JointPmf, spec: DistortionSpec, enc: dict, rho: float) -> float:
    """Exact optimal distortion-guessing moment given (ctx, Z): the order search per cell group."""
    xhat_tuples = tuple_alphabet(spec.xhat_alphabet, len(big.x_alphabet[0]))
    nx, groups = len(big.x_alphabet), {}  # (ctx, z) -> its column of masses
    for i, (x, row) in enumerate(zip(big.x_alphabet, big.table)):
        for j, (c, p) in enumerate(zip(big.y_alphabet, row)):
            if p > 0:
                groups.setdefault((c, enc[(x, c)]), [0.0] * nx)[i] += big.columns[j][i]
    m = len(xhat_tuples)
    if order_search_steps(len(groups), m, ORDER_BUDGET) > ORDER_BUDGET:
        raise BudgetExceededError("refined-context oracle needs |Xhat|^n small")
    balls = _balls(big.x_alphabet, xhat_tuples, spec)
    return in_order([moment for _, moment in _optimal_orders(balls, m, groups.values(), [rho])[0]])


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
    for x, row, floats in zip(big.x_alphabet, big.table, zip(*big.columns)):
        for c, p, w in zip(big.y_alphabet, row, floats):
            z = enc[(x, c)] = describe(sf.ranks[(x, c)])
            if p > 0:
                lists.setdefault((c, z), set()).add(sf.recon[(x, c)])
                held.append((w, (c, z)))
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
    for x, row in zip(big.x_alphabet, big.table):
        for c, p in zip(big.y_alphabet, row):
            if p > 0:
                members = lists.get((c, enc[(x, c)]), ())
                if not any(within(x, xh, spec) for xh in members):
                    raise DomainError(f"fidelity violation at ({x!r}, {c!r})")
    ghat = shortest_lists_first(lists, tuple_alphabet(spec.xhat_alphabet, n), big.y_alphabet)
    return success_function(ghat, spec, big)
