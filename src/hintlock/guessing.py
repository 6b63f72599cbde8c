"""Guessing functions, optimal guessing moments, and the side-information encoder.

A guessing function assigns, per observed context, a permutation rank to every
source symbol; the rho-th guessing moment E[G(X|ctx)^rho] is the ambiguity
measure used throughout.  The ranking rule is by descending posterior within a
context, ties by symbol index.  It has two forms: for sources, `JointPmf.ranks`
(kept on the joint; `optimal_guesser` reads it), a stable sort of each of
`JointPmf.columns` (so zero-posterior symbols rank after positive ones), and
for realized laws `adversary.rank_groups` on numpy columns, whose x codes are
the symbol indices.  Ties never change a moment, but they set a cell's rank,
which the eve-list builder's hints read.  Every expected power of a rank or
list size on the source side is summed by `power_moment`, on Python floats, so
this module, `tasks` and `distortion` load no numpy; the adversary keeps its
numpy kernels, whose terms and sums are this module's floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from typing import TYPE_CHECKING

from .bounds import bob_converse
from .prob import DomainError, JointPmf, RenyiOrder, rank_row, record, renyi_cond_entropy  # rank_row is re-exported

if TYPE_CHECKING:
    import numpy as np


@record
class GuessingFunction:
    """Per-context bijection from symbols to guess ranks 1..|X|."""

    x_alphabet: tuple
    context_alphabet: tuple
    ranks: tuple  # ranks[j][i] = rank of symbol i under context j, a permutation of 1..|X|

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet", tuple(self.x_alphabet))
        object.__setattr__(self, "context_alphabet", tuple(self.context_alphabet))
        object.__setattr__(self, "ranks", tuple(tuple(r) for r in self.ranks))
        n = len(self.x_alphabet)
        for row in self.ranks:
            if sorted(row) != list(range(1, n + 1)):
                raise DomainError("ranks must form a permutation of 1..|X| per context")

    def rank(self, x, ctx) -> int:
        return self.ranks[self.context_alphabet.index(ctx)][self.x_alphabet.index(x)]

    def order(self, ctx) -> tuple:
        """Symbols in guessing order for one context."""
        row = self.ranks[self.context_alphabet.index(ctx)]
        return tuple(s for _, s in sorted(zip(row, self.x_alphabet)))


def optimal_guesser(joint: JointPmf) -> GuessingFunction:
    """Rank symbols by descending posterior per context; ties by symbol index.

    `joint` is a JointPmf whose Y axis plays the role of the conditioning
    context.  Contexts of zero mass get the same deterministic index order.
    """
    return GuessingFunction(joint.x_alphabet, joint.y_alphabet, joint.ranks)  # a stable sort, kept on the joint


def guess_moment(g: GuessingFunction, joint: JointPmf, rho: float) -> float:
    """E[G(X|ctx)^rho] under the joint law."""
    if g.x_alphabet != joint.x_alphabet or g.context_alphabet != joint.y_alphabet:
        raise DomainError("guessing function defined on different alphabets")
    return power_moment(chain.from_iterable(joint.columns), chain.from_iterable(g.ranks), rho)  # y-major


def in_order(terms) -> float:
    """The sum of `terms` added one by one, left to right (from Python 3.12 `sum` compensates)."""
    total = 0.0
    for t in terms:
        total += t
    return total


def power_moment(masses, ks, rho: float) -> float:
    """Sum of mass * k**rho over paired masses and nonnegative integers ks,
    added left to right: float(mass) * int(k)**rho, the power Python's (a
    numpy integer's own power can differ in the last bit), each once per k."""
    total, powers = 0.0, {}
    for m, k in zip(masses, ks):
        if k not in powers:
            powers[k] = int(k) ** rho
        total += float(m) * powers[k]
    return total


def optimal_guess_moment(joint: JointPmf, rho: float) -> float:
    """min over guessing functions of E[G(X|ctx)^rho]: each context's masses, sorted descending, at ranks 1, 2, ..."""
    return in_order([power_moment(sorted(col, reverse=True), count(1), rho) for col in joint.columns])


def arikan_bounds(joint: JointPmf, rho: float) -> tuple[float, float]:
    """(lower, upper) bounds on the optimal guessing moment.

    upper = 2^(rho * H_a(X|Y)) at a = 1/(1+rho); lower = the same divided by
    (1+ln|X|)^rho, floored at 1.
    """
    if not rho > 0:
        raise DomainError("rho must be > 0")
    h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
    # the floor is Bob's converse when he is shown nothing (one value)
    return bob_converse(h, rho, 1, len(joint.x_alphabet), "guessing"), 2.0 ** (rho * h)


def side_info_encoder(joint: JointPmf, z_count: int) -> dict:
    """Optimal descriptor for a guessing decoder: f(x,ctx) = (rank-1) mod z_count.

    The induced optimal guesser given (ctx, Z) attains E[ceil(G*/z_count)^rho]
    exactly; `ceil_moment(joint, z_count, rho)` evaluates that target.
    """
    if z_count < 1:
        raise DomainError("z_count must be >= 1")
    g = optimal_guesser(joint)
    return {(x, c): (r - 1) % z_count for c, row in zip(g.context_alphabet, g.ranks) for x, r in zip(g.x_alphabet, row)}


def ceil_moment(joint: JointPmf, z_count: int, rho: float) -> float:
    """E[ceil(G*(X|ctx)/z_count)^rho] for the optimal guesser."""
    ceils = (-(-r // z_count) for r in chain.from_iterable(joint.ranks))
    return power_moment(chain.from_iterable(joint.columns), ceils, rho)  # y-major


def side_info_lower_bound(joint: JointPmf, z_count: int, rho: float) -> float:
    """Certified floor |Z|^(-rho) * min_G E[G^rho], at least 1, for any Z-law."""
    return max(1.0, z_count ** (-rho) * optimal_guess_moment(joint, rho))


def random_joint(
    rng: np.random.Generator,
    nx: int,
    nctx: int,
    exact: bool = False,
    zeros: float = 0.0,
) -> JointPmf:
    """A seeded random joint: flat-Dirichlet cells, optionally with planted zeros.

    With `exact=True` the float draw is snapped to a rational grid so support
    logic stays exact downstream.
    """
    import numpy as np

    w = rng.dirichlet(np.ones(nx * nctx))
    if zeros > 0.0:
        mask = rng.random(nx * nctx) < zeros
        if mask.all():
            mask[rng.integers(nx * nctx)] = False
        w = np.where(mask, 0.0, w)
        w = w / w.sum()
    if exact:
        denom = 1 << 32
        counts = np.floor(w * denom).astype(np.int64)
        counts[int(np.argmax(counts))] += denom - int(counts.sum())
        cells = [Fraction(int(c), denom) for c in counts]
    else:
        cells = [float(v) for v in w]
    table = [tuple(cells[i * nctx : (i + 1) * nctx]) for i in range(nx)]
    return JointPmf(tuple(range(nx)), tuple(range(nctx)), tuple(table))
