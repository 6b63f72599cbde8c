"""Slow, independent oracles that the tests check the package against.

Nothing in `src/` imports this module.  It holds the brute-force and grid
cross-checks, GF(2^l) arithmetic by shift-and-add (no tables), Eve's exhaustive map enumeration (exact on any cells) and local
search (an upper bound), the full padded laws that the schemes' pad quotients
stand for, and the earlier implementations that the columnar laws, the
prepared cell view, the batched rate-distortion solver and the algebraic disk
checks must reproduce: the same laws, the same floats, and the same exact
verdicts, the disk checks' by enumerating the full law.  Three records have
`dataclass(frozen=True)` twins here, which the `prob.record` decorator must
behave like.  Sums here add their
terms one by one, left to right, so the references do not depend on how a
Python version's `sum` adds floats.
"""

import dataclasses
import math
from fractions import Fraction
from itertools import combinations, count, permutations, product

import numpy as np
import pytest

from hintlock import adversary
from hintlock.adversary import Cell, CellView, Law
from hintlock.disks import DeltaHintScheme
from hintlock.distortion import DistortionSpec
from hintlock.exponents import RdQuery, variational_optimum
from hintlock.adversary import rank_groups
from hintlock.gf import PRIMITIVE_POLYS, field_make, rs_generator
from hintlock.guessing import GuessingFunction, power_moment, rank_row
from hintlock.prob import BudgetExceededError, DomainError, JointPmf, RenyiOrder, common_denominator, renyi_cond_entropy
from hintlock.tasks import StochTaskEncoder, encoder_from_guessing, s_alphabet_size
from hintlock.twohint import EveListScheme, SecretKeyScheme, TwoHintScheme


def in_sequence(terms) -> float:
    """The float sum of `terms`, added left to right."""
    total = 0.0
    for t in terms:
        total += t
    return total


def grouped_moment(triples, rho: float) -> float:
    """Optimal guessing moment of the key given the context, from (context, key, mass).

    The dict reference for the grouped kernel in `adversary`: masses of one
    (context, key) add up in entry order; contexts are summed in first-seen
    order, each over its masses in descending order.
    """
    groups: dict = {}
    for ctx, key, p in triples:
        by_key = groups.setdefault(ctx, {})
        by_key[key] = by_key.get(key, 0.0) + p
    return in_sequence(power_moment(sorted(by_key.values(), reverse=True), count(1), rho) for by_key in groups.values())


# ---------------------------------------------------------------------------
# The entropies on the numpy masses, which `prob` now reads as Python floats.
# ---------------------------------------------------------------------------


def renyi_on_masses(joint: JointPmf, a: float) -> float:
    """H_a(X|Y) in bits from `joint.masses`, for the orders whose sums stay in the float range."""
    cols = joint.masses.T.tolist()
    if a == 1.0:
        return shannon_on_masses(joint)
    if a == 0.0:
        biggest = max(sum(1 for p in col if p > 0) for col in cols)
        return math.log2(biggest) if biggest else 0.0
    if math.isinf(a):
        return -math.log2(sum(max(col) for col in cols))
    total = 0.0
    for col in cols:
        inner = sum(p**a for p in col if p > 0)
        if inner > 0:
            total += inner ** (1.0 / a)
    return (a / (1.0 - a)) * math.log2(total)


def shannon_on_masses(joint: JointPmf) -> float:
    """H(X|Y) in bits from `joint.masses`, with 0 log 0 = 0."""
    h = 0.0
    for col in joint.masses.T.tolist():
        py = sum(col)
        if py <= 0:
            continue
        for p in col:
            if p > 0:
                h -= p * math.log2(p / py)
    return h


def kl_on_masses(q: JointPmf, p: JointPmf) -> float:
    """D(q || p) in bits from the two joints' `masses`, summed x-major."""
    div = 0.0
    for qf, pf in zip(q.masses.ravel().tolist(), p.masses.ravel().tolist()):
        if qf == 0.0:
            continue
        if pf == 0.0:
            return math.inf
        div += qf * math.log2(qf / pf)
    return div


# ---------------------------------------------------------------------------
# Realized laws as dicts: the builders and the cell views the columns replaced,
# and the coders between the dicts, `Cell` lists and the package's columns.
# ---------------------------------------------------------------------------


def coded(law: dict) -> Law:
    """The dict {(x, y, hints...): prob}, or {(x, y, hints tuple): prob}, coded
    into columns: symbols numbered by first appearance, the positive masses
    over their common denominator."""
    items = [(key, p) for key, p in law.items() if p > 0]
    nested = bool(items) and isinstance(items[0][0][2], tuple)
    xs, ys = {}, {}
    x = np.array([xs.setdefault(key[0], len(xs)) for key, _ in items], dtype=np.int64)
    y = np.array([ys.setdefault(key[1], len(ys)) for key, _ in items], dtype=np.int64)
    hints = np.array([key[2] if nested else key[2:] for key, _ in items], dtype=np.int64)
    mass = np.array([float(p) for _, p in items], dtype=float)
    nums, scale = common_denominator(p for _, p in items)
    return Law(xs, ys, x, y, hints.reshape(len(items), -1) if items else hints, mass, nums, scale)


def law_dict(law: Law, nested: bool = False) -> dict:
    """The dict {(x, y, hints...): prob} of a `Law`, or with `nested` {(x, y,
    hints tuple): prob}; Fractions for a rational law."""
    xs, ys = law.xs, law.ys
    values = law.mass.tolist() if law.scale is None else [Fraction(n, law.scale) for n in law.nums]
    rows = zip(law.x.tolist(), law.y.tolist(), map(tuple, law.hints.tolist()))
    keys = ((xs[x], ys[y], h) if nested else (xs[x], ys[y], *h) for x, y, h in rows)
    return dict(zip(keys, values))


def scheme_law(scheme) -> dict:
    """A built scheme's law as its dict reference keys it: a delta-disk key holds its hints as one tuple."""
    return law_dict(scheme.law, isinstance(scheme, DeltaHintScheme))


def scheme_from_law(joint, law: dict, m1_size: int, m2_size: int, version: str = "guessing") -> TwoHintScheme:
    """Wrap an arbitrary realized law {(x, y, m1, m2): prob} for the verifiers.

    No pad is recorded (cs = 1, c1 = |M1|, c2 = |M2|), so its sizes are
    (|M1||M2|, |M1||M2|, |M1| + |M2|, min(|M1|, |M2|)); every ambiguity and
    converse check works directly on the law.  Eve's oracle rejects a law in
    which two realizations with the same x share a context, with DomainError.
    """
    return TwoHintScheme(joint, 1, m1_size, m2_size, m1_size, m2_size, version, coded(law))


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


def cells(law: dict, views) -> list[Cell]:
    """The float view of a realized law {(x, ...): prob}: `views(key)` gives the contexts."""
    return [Cell(f, key[0], views(key)) for key, p in law.items() if (f := float(p)) > 0 or p > 0]


def two_hint_eve_views(key) -> tuple:
    return (("h1", key[1], key[2]), ("h2", key[1], key[3]))


def bob_views(key) -> tuple:
    return (key[1:],)


def subset_views(tag: str, delta: int, size: int):
    """Views of a law keyed (x, y, hints): one context per size-`size` hint subset."""
    subsets = list(combinations(range(delta), size))
    return lambda key: tuple((tag, b, key[1], tuple(key[2][i] for i in b)) for b in subsets)


def descriptor_dict(joint, size: int, version: str) -> dict:
    """(x, y) -> z for every pair, from ranks sorted one context at a time: the
    reference of `tasks.descriptor_map`, which gives the values of the support
    cells.  Guessing: the rank's remainder mod size; list: the
    offset/refinement encoder with the largest omega that fits."""
    g = GuessingFunction(joint.x_alphabet, joint.y_alphabet, per_context_ranks(joint))
    if version == "guessing":
        pairs = zip(g.context_alphabet, g.ranks)
        return {(x, c): (r - 1) % size for c, row in pairs for x, r in zip(g.x_alphabet, row)}
    nx = len(joint.x_alphabet)
    omega = max(w for w in range(1, nx + 1) if w * s_alphabet_size(nx, w) <= size)
    return encoder_from_guessing(g, omega, size).mapping


def padded_law(items, cs: int, c1: int, c2: int, exact: bool, quotient: bool = False) -> dict:
    """Spread each (x, y, (v_s, v_1, v_2), mass) uniformly over the pad U, or
    put its whole mass at U = 0 (the pad quotient)."""
    inv_cs = Fraction(1, cs) if exact else 1.0 / cs
    law: dict = {}
    for x, y, (vs, v1, v2), w in items:
        for u in range(1 if quotient else cs):
            key = (x, y, ((vs + u) % cs) * c1 + v1, u * c2 + v2)
            law[key] = law.get(key, 0) + (w if quotient else w * inv_cs)
    return law


def two_hint_law(joint, cs: int, c1: int, c2: int, version: str) -> dict:
    zmap = descriptor_dict(joint, cs * c1 * c2, version)
    split = {k: (z % cs, (z // cs) % c1, z // (cs * c1)) for k, z in zmap.items()}
    return padded_law(((x, y, split[(x, y)], p) for x, y, p in joint.support_items()), cs, c1, c2, joint.exact)


def two_hint_spread(scheme) -> dict:
    """A two-hint scheme's full law, its pad quotient (x, y, M1, M2) at U = 0
    spread over the cs pads: U = u shifts M1's padded coordinate by u and sets M2's to u."""
    cs, c1, c2 = scheme.cs, scheme.c1, scheme.c2
    law: dict = {}
    for (x, y, m1, m2), p in law_dict(scheme.law).items():
        share = p * (Fraction(1, cs) if isinstance(p, Fraction) else 1.0 / cs)
        for u in range(cs):
            key = (x, y, ((m1 // c1 + u) % cs) * c1 + m1 % c1, u * c2 + m2)
            law[key] = law.get(key, 0) + share
    return law


def two_hint_quotient(joint, cs: int, c1: int, c2: int, version: str, public: bool = True) -> dict:
    """A pad quotient of the two-hint law, one key per source cell with its mass:
    Eve's (x, y, v_1, v_2), or Bob's (x, y, M1, M2) at pad 0."""
    zmap, law = descriptor_dict(joint, cs * c1 * c2, version), {}
    for x, y, p in joint.support_items():
        vs, v1, v2 = zmap[(x, y)] % cs, zmap[(x, y)] // cs % c1, zmap[(x, y)] // (cs * c1)
        law[(x, y, v1, v2) if public else (x, y, vs * c1 + v1, v2)] = p
    return law


def secret_hint_law(joint, c: int, ms_size: int, version: str) -> dict:
    zmap = descriptor_dict(joint, c * ms_size, version)
    return {(x, y, zmap[(x, y)] % c, zmap[(x, y)] // c): p for x, y, p in joint.support_items()}


def secret_key_law(joint, c: int, k_size: int, version: str, quotient: bool = False) -> dict:
    """The secret-key scheme's law over every key, or its key quotient: key 0 with the whole mass."""
    zmap = descriptor_dict(joint, c * k_size, version)
    inv_k = Fraction(1, k_size) if joint.exact else 1.0 / k_size
    law: dict = {}
    for x, y, p in joint.support_items():
        z = zmap[(x, y)]
        ms, mp = z % k_size, z // k_size
        for k in range(1 if quotient else k_size):
            law[(x, y, k, ((ms + k) % k_size) * c + mp)] = p if quotient else p * inv_k
    return law


def eve_list_law(joint, m1_size: int, m2_size: int, epsilon: float, quotient: bool = False) -> dict:
    """The eve-list scheme's law: the smoothed descriptors, ranked per (y, v1', v2'), then padded
    (or, for the pad quotient, each at U = 0 with its whole mass)."""
    cs = 1 + math.floor(math.log2(len(joint.x_alphabet)))
    c1, c2 = m1_size // cs, m2_size // cs
    zmap = descriptor_dict(joint, c1 * c2, "guessing")
    exact = joint.exact and float(epsilon).is_integer() and epsilon >= 0
    move_total = Fraction(1, 2 ** int(epsilon)) if exact else 2.0**-epsilon
    stay = 1 - move_total if exact else 1.0 - move_total
    smoothed: dict = {}
    for x, y, p in joint.support_items():
        for zp in range(c1 * c2):
            if c1 * c2 == 1:
                w = p
            elif zp == zmap[(x, y)]:
                w = p * stay
            else:
                w = p * move_total / (c1 * c2 - 1)
            if w > 0:
                smoothed[(x, y, zp)] = smoothed.get((x, y, zp), 0) + w
    groups: dict = {}
    xi = {x: i for i, x in enumerate(joint.x_alphabet)}
    for (x, y, zp), w in smoothed.items():
        groups.setdefault((y, zp), []).append((x, w))
    ranks = {}
    for ctx, members in groups.items():
        for r, (x, _) in enumerate(sorted(members, key=lambda kv: (-float(kv[1]), xi[kv[0]])), start=1):
            ranks[(ctx, x)] = r
    items = (
        (x, y, (math.floor(math.log2(ranks[((y, zp), x)])), zp % c1, zp // c1), w)
        for (x, y, zp), w in smoothed.items()
    )
    return padded_law(items, cs, c1, c2, exact, quotient)


def int_to_symbols(z: int, count: int, bits: int) -> tuple:
    """Big-endian split of an integer into `count` field symbols of `bits` bits."""
    return tuple((z >> bits * (count - 1 - i)) & ((1 << bits) - 1) for i in range(count))


def delta_descriptor(sch) -> dict:
    """A delta scheme's (x, y) -> (V symbols, W symbols) per support (x, y),
    x-major, each descriptor split on its own: what its law encodes."""
    nu, eta, p, r = sch.nu, sch.eta, sch.p, sch.r
    w_bits = (nu - eta) * r
    zmap, descriptor = descriptor_dict(sch.joint, 1 << (nu * p + w_bits), sch.version), {}
    for x, y, _ in sch.joint.support_items():
        z = zmap[(x, y)]
        descriptor[(x, y)] = (int_to_symbols(z >> w_bits, nu, p), int_to_symbols(z & ((1 << w_bits) - 1), nu - eta, r))
    return descriptor


def per_context_ranks(joint: JointPmf) -> tuple:
    """The optimal guesser's ranks, one context at a time: a sort by descending
    float mass, ties by symbol index."""
    nx, rows = len(joint.x_alphabet), []
    for j in range(len(joint.y_alphabet)):
        col = [float(p) for p in joint.y_column(j)]
        rows.append(rank_row(sorted(range(nx), key=lambda i: (-col[i], i))))
    return tuple(rows)


def delta_law(sch) -> dict:
    """A delta scheme's full law with one encode per (x, y, pad), as the
    construction reads, by the scheme's own generators (planted ones too)."""
    zero = np.zeros(sch.delta, dtype=np.int64)
    g_v, g_uw = sch.g_v, sch.g_uw
    n_pad, descriptor = 1 << (sch.eta * sch.r), delta_descriptor(sch)
    law = {}
    for x, y, prob in sch.joint.support_items():
        v_sym, w_sym = descriptor[(x, y)]
        mp = g_v.encode(np.array(v_sym)) if g_v else zero
        for pad in range(n_pad):
            mr = g_uw.encode(np.array(int_to_symbols(pad, sch.eta, sch.r) + w_sym)) if g_uw else zero
            law[(x, y, tuple(int(a) << sch.r | int(b) for a, b in zip(mp, mr)))] = prob / n_pad
    return law


def full_law(scheme) -> dict:
    """The full law of a built padded scheme (two-hint, secret-key, eve-list or
    delta-disk), over all its pads."""
    if isinstance(scheme, SecretKeyScheme):
        return secret_key_law(scheme.joint, scheme.c, scheme.k_size, scheme.version)
    if isinstance(scheme, EveListScheme):
        return eve_list_law(scheme.joint, scheme.m1_size, scheme.m2_size, scheme.epsilon)
    if isinstance(scheme, TwoHintScheme):
        return two_hint_law(scheme.joint, scheme.cs, scheme.c1, scheme.c2, scheme.version)
    return delta_law(scheme)


def delta_quotient(sch, public: bool = True) -> dict:
    """A pad quotient of a delta scheme's law, per (x, y) with the source's
    mass: Eve's, each hint's V-codeword coordinate; or Bob's, each hint at pad 0."""
    zero = np.zeros(sch.delta, dtype=np.int64)
    g_v = rs_generator(sch.nu, sch.delta, field_make(sch.p)) if sch.p else None
    g_uw = rs_generator(sch.nu, sch.delta, field_make(sch.r)) if sch.r and not public else None
    law, descriptor = {}, delta_descriptor(sch)
    for x, y, prob in sch.joint.support_items():
        v_sym, w_sym = descriptor[(x, y)]
        mp = g_v.encode(np.array(v_sym)) if g_v else zero
        if public:
            law[(x, y, tuple(int(a) for a in mp))] = prob
        else:
            mr = g_uw.encode(np.array((0,) * sch.eta + w_sym)) if g_uw else zero
            law[(x, y, tuple(int(a) << sch.r | int(b) for a, b in zip(mp, mr)))] = prob
    return law


# ---------------------------------------------------------------------------
# GF(2^l) without tables: the field the log/exp lookups of `gf` must reproduce.
# ---------------------------------------------------------------------------


def gf_mul(a: int, b: int, ell: int) -> int:
    """a * b in GF(2^ell) by shift-and-add, reduced by `gf.PRIMITIVE_POLYS[ell]`."""
    q, out = 1 << ell, 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & q:
            a ^= PRIMITIVE_POLYS[ell]
    return out


def gf_power(a: int, e: int, ell: int) -> int:
    """a^e in GF(2^ell), by e multiplications."""
    out = 1
    for _ in range(e):
        out = gf_mul(out, a, ell)
    return out


def gf_nonsingular(rows, ell: int) -> bool:
    """Whether a square matrix over GF(2^ell) is nonsingular, by Gaussian
    elimination on Python ints, each pivot inverted as a^(q-2)."""
    m = [[int(v) for v in row] for row in rows]
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = gf_power(m[col][col], (1 << ell) - 2, ell)
        for r in range(col + 1, len(m)):
            factor = gf_mul(m[r][col], inv, ell)
            m[r] = [v ^ gf_mul(factor, w, ell) for v, w in zip(m[r], m[col])]
    return True


# ---------------------------------------------------------------------------
# Eve and Bob: brute force, and the per-call oracles the prepared view replaced.
# ---------------------------------------------------------------------------


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


def components(cells: list[Cell]) -> list[list[Cell]]:
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


def context_ranks(triples) -> tuple[dict, dict]:
    """Grouped masses and the optimal rank of each (context, x); ties by repr(x)."""
    groups: dict = {}
    for ctx, x, p in triples:
        by_x = groups.setdefault(ctx, {})
        by_x[x] = by_x.get(x, 0.0) + p
    ranks: dict = {}
    for ctx, by_x in groups.items():
        for r, x in enumerate(sorted(by_x, key=lambda x: (-by_x[x], repr(x))), start=1):
            ranks[(ctx, x)] = r
    return groups, ranks


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
    for comp in components(cells):
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
    return in_sequence(m * reduce(len(supports[v]) for v in views) ** rho for views, m in mass.items())


def bob_minmax_bracket(cells, rho: float) -> tuple[float, float]:
    """Bob's bracket with the ranks rebuilt on each call: the best fixed
    subset, and the per-subset optimal guessers under the worst subset."""
    lower = max(moment_for_constant(cells, k, rho) for k in range(len(cells[0].views)))
    _, ranks = context_ranks((ctx, c.x, c.prob) for c in cells for ctx in c.views)
    upper = in_sequence(cell.prob * max(ranks[(ctx, cell.x)] for ctx in cell.views) ** rho for cell in cells)
    return lower, upper


def ranks_alike(cells) -> bool:
    """True if every view ranks each cell alike (views pooled, as in the bracket)."""
    _, ranks = context_ranks((ctx, c.x, c.prob) for c in cells for ctx in c.views)
    return all(len({ranks[(ctx, c.x)] for ctx in c.views}) == 1 for c in cells)


def eve_exact_matching(cells, rho: float) -> float:
    """The sparse matching with every component's slot graph built on each call."""
    if has_mergeable_cells(cells):
        raise DomainError("mergeable cells: matching reduction is not exact here")
    total = 0.0
    for comp in components([c for c in cells if c.prob > 0]):
        total += _matching_cost(comp, rho)
    return total


def _matching_cost(comp: list[Cell], rho: float) -> float:
    """Min-cost assignment of one component's cells to their truncated slots,
    its terms summed in component order."""
    positions = matching_positions(comp, rho)
    # Python's float pow, so each term is the same float as prob * t**rho.
    powers = np.array([t**rho for t in range(1, int(positions.max()) + 1)])
    return float((np.array([c.prob for c in comp]) * powers[positions - 1]).sum())


def matching_positions(comp: list[Cell], rho: float, heaviest_first: bool = True) -> np.ndarray:
    """Each cell's position in its context under LAPJVsp's min-cost assignment of
    one component's cells to their truncated slots.  The cells are the graph's
    rows heaviest first (ties in component order), as the package feeds them,
    or, with `heaviest_first` false, in component order."""
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
    feed = np.argsort(-prob, kind="stable") if heaviest_first else np.arange(len(comp))  # the cells in row order
    row = np.argsort(feed)  # the graph row of each cell
    powers = np.array([t**rho for t in range(1, int(q.max()) + 1)])
    graph = csr_array(
        (np.repeat(mass, q) * powers[offset], (row[np.repeat(cell, q)], np.repeat(start, q) + offset)),
        shape=(len(comp), len(order)),
    )
    cols = min_weight_full_bipartite_matching(graph)[1][row]  # every cell's column
    return cols - start[cols] + 1


# The fallbacks that once followed the matching: exhaustive enumeration of
# accomplice maps (exact on any cells, merging included) and a local search
# (an upper bound), on the prepared view's columns.


def moment_for_assignment(cells, choice, rho: float) -> float:
    """Objective for one accomplice map: cells routed per `choice`, then sorted."""
    view = as_view(cells)
    routed = view.ctx[np.arange(len(view)), np.asarray(choice, dtype=np.int64)]
    return adversary._table_moment(adversary._rank_table(routed, view.x, view.prob, len(view.xs)), rho)


def eve_exact_enumeration(cells, rho: float, budget_bits: int = 26) -> float:
    """Exact accomplice-optimal moment by exhausting deterministic maps.

    Valid for arbitrary cells (handles merging).  Components are enumerated
    independently; each must satisfy n_cells * log2(n_views) <= budget_bits.
    """
    view = as_view(cells)
    n_views = (view.ctx >= 0).sum(axis=1)
    total = 0.0
    cell, _, ctx = view.incidences
    cells, sizes = adversary._components(view.n_contexts, np.ones(len(view), dtype=bool), cell, ctx, view.prob)
    for comp in np.split(cells, np.cumsum(sizes)[:-1]):
        options = n_views[comp].tolist()
        bits = sum(math.log2(o) for o in options if o > 1)
        if bits > budget_bits:
            raise BudgetExceededError(f"component needs {bits:.1f} assignment bits > budget {budget_bits}")
        if all(o == 1 for o in options):
            table = adversary._rank_table(view.ctx[comp, 0], view.x[comp], view.prob[comp], len(view.xs))
            total += adversary._table_moment(table, rho)
            continue
        total += _enumerate_component(view, comp, rho, options)
    return total


def _enumerate_component(view, comp: np.ndarray, rho, options) -> float:
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
            table[mask] = power_moment(sorted(by_x.values(), reverse=True), count(1), rho)
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
    """Alternating accomplice/guesser descent; an upper bound on Eve.

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
            keys, _, rank, _ = rank_groups(view.ctx[rows, choice], view.x, view.prob, nx)
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


def per_call_values(reference: list, rho: float) -> tuple:
    """The per-call code's moment per view position, list moments by min and
    max, and matching value (None where the cells can merge)."""
    moments = [moment_for_constant(reference, k, rho) for k in range(len(reference[0].views))]
    try:
        eve = eve_exact_matching(reference, rho)
    except DomainError:
        eve = None
    return moments, [support_moment(reference, rho, reduce) for reduce in (min, max)], eve


def assert_same_as_per_call_code(view: CellView, reference: list, rhos) -> None:
    """Every oracle on `view` gives the per-call code's float (==, not approx)
    over `rhos` and back, and a list of mergeable cells makes the matching
    raise on every call.  The reference runs once per distinct rho."""
    expected = {rho: per_call_values(reference, rho) for rho in dict.fromkeys(rhos)}
    for rho in rhos + rhos[::-1]:
        moments, supports, eve = expected[rho]
        assert [adversary.moment_for_constant(view, k, rho) for k in range(len(moments))] == moments
        assert [adversary.support_moment(view, rho, reduce) for reduce in (min, max)] == supports
        if eve is None:
            with pytest.raises(DomainError):
                adversary.eve_exact_matching(view, rho)
        else:
            assert adversary.eve_exact_matching(view, rho) == eve


# ---------------------------------------------------------------------------
# Structural checks on realized laws, in Fraction arithmetic.
# ---------------------------------------------------------------------------


def check_reconstruction(scheme, law: dict | None = None) -> bool:
    """Every size-nu subset of hints determines (V, W, pad) on the support of
    the full law (by default `delta_law(scheme)`)."""
    law, descriptor = delta_law(scheme) if law is None else law, delta_descriptor(scheme)
    for b in combinations(range(scheme.delta), scheme.nu):
        seen: dict = {}
        for (x, y, m), p in law.items():
            if p <= 0:
                continue
            key = (y, tuple(m[i] for i in b))
            val = (descriptor[(x, y)], tuple(m))
            if seen.setdefault(key, val) != val:
                return False
    return True


def check_eta_independence(scheme, law: dict | None = None) -> bool:
    """The r-parts of any eta hints are uniform and independent of (X, Y, W).

    Exact: conditional mass of each observed r-part tuple of the full law (by
    default `delta_law(scheme)`) must be exactly 2^(-eta*r) for every
    positive-mass (x, y).
    """
    if scheme.eta == 0:
        return True
    law = delta_law(scheme) if law is None else law
    exact = scheme.joint.exact
    target = Fraction(1, 1 << (scheme.eta * scheme.r)) if exact else 2.0 ** -(scheme.eta * scheme.r)
    for e in combinations(range(scheme.delta), scheme.eta):
        cond: dict = {}
        total: dict = {}
        for (x, y, m), p in law.items():
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


def pad_coordinate_laws(scheme, law: dict) -> tuple[dict, dict]:
    """Conditional laws of M1's padded coordinate and M2's pad, per (x, y), in
    a two-hint scheme's full law."""
    pad1: dict = {}
    pad2: dict = {}
    for (x, y, m1, m2), p in law.items():
        if p > 0:
            pad1.setdefault((x, y), {})
            pad2.setdefault((x, y), {})
            vt, u = m1 // scheme.c1, m2 // scheme.c2
            pad1[(x, y)][vt] = pad1[(x, y)].get(vt, 0) + p
            pad2[(x, y)][u] = pad2[(x, y)].get(u, 0) + p
    return pad1, pad2


# ---------------------------------------------------------------------------
# Side information: descriptor moments and random stochastic encoders.
# ---------------------------------------------------------------------------


def encoder_guess_moment(joint: JointPmf, encoder: dict, rho: float) -> float:
    """Optimal guessing moment given (ctx, Z) for a deterministic descriptor map.

    `encoder` maps (x, ctx) to a descriptor value; the decoder observes the
    pair (ctx, z) and guesses with the posterior-sorted order.
    """
    return grouped_moment(
        (
            ((c, encoder[(x, c)]), x, float(joint.table[i][j]))
            for j, c in enumerate(joint.y_alphabet)
            for i, x in enumerate(joint.x_alphabet)
            if joint.table[i][j] > 0
        ),
        rho,
    )


def stochastic_side_info_moment(joint: JointPmf, z_rows: np.ndarray, rho: float) -> float:
    """Optimal guessing moment given (ctx, Z) for a stochastic Z-law.

    `z_rows[i, j, :]` is the conditional law of Z given (x_i, ctx_j).
    Used to certify that the deterministic remainder encoder beats random
    descriptor laws of the same cardinality.
    """
    total = 0.0
    for j in range(z_rows.shape[1]):
        col = np.array([float(p) for p in joint.y_column(j)])
        mass = col[:, None] * z_rows[:, j, :]  # shape (nx, nz): P(x, Z=z | ctx total mass)
        for masses in mass.T.tolist():  # each (ctx, z) is a context of its own
            total += power_moment(sorted(masses, reverse=True), count(1), rho)
    return total


def random_stoch_encoder(rng, joint: JointPmf, z_count: int, exact: bool = True) -> StochTaskEncoder:
    """Seeded random stochastic encoder with planted zero entries.

    Rows are rational by default so downstream support logic is exact.
    """
    z_alphabet = tuple(range(z_count))
    rows = {}
    for c in joint.y_alphabet:
        for x in joint.x_alphabet:
            k = int(rng.integers(1, z_count + 1))
            chosen = sorted(rng.choice(z_count, size=k, replace=False).tolist())
            weights = rng.integers(1, 8, size=k)
            denom = int(weights.sum())
            if exact:
                row = {z_alphabet[z]: Fraction(int(w), denom) for z, w in zip(chosen, weights)}
            else:
                row = {z_alphabet[z]: float(w) / denom for z, w in zip(chosen, weights)}
            rows[(x, c)] = row
    return StochTaskEncoder(joint.x_alphabet, joint.y_alphabet, z_alphabet, rows)


# ---------------------------------------------------------------------------
# Distortion: the factorial order search that the subset DP replaced.
# ---------------------------------------------------------------------------


def permutation_table(n: int) -> np.ndarray:
    """Every order of range(n), one per row, in `itertools.permutations`'
    (lexicographic) order: the table for n - 1 behind each leading element in
    turn, its entries at or above that element shifted up by one."""
    perms = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, n + 1):
        lead = np.repeat(np.arange(k), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack([lead, rest + (rest >= lead)])
    return perms


def table_orders(balls: np.ndarray, columns, rhos) -> list:
    """Per rho, per column of source masses, the order of the reconstructions
    with the least moment and that moment, over every order: the argmin of
    the lexicographic table, so the first of exactly tied orders.  `balls` is
    the |X| x m within-Delta matrix; one table serves every rho."""
    perms = permutation_table(balls.shape[1])
    positions = (balls[:, perms].argmax(axis=2) + 1).astype(float)  # each order's first within-Delta position
    best = []
    for rho in rhos:
        weights = positions**rho
        per_column = []
        for col in columns:
            moments = (np.asarray(col)[:, None] * weights).sum(axis=0)
            k = int(moments.argmin())
            per_column.append((perms[k], float(moments[k])))
        best.append(per_column)
    return best


def table_near_optima(balls: np.ndarray, col, rho: float, rel: float) -> tuple:
    """(the table's least moment, the distinct first-hit position vectors of
    the orders within `rel` relative of it)."""
    perms = permutation_table(balls.shape[1])
    positions = balls[:, perms].argmax(axis=2) + 1
    moments = (np.asarray(col)[:, None] * positions.astype(float) ** rho).sum(axis=0)
    least = float(moments.min())
    near = positions[:, moments <= least + rel * least]
    return least, {tuple(v) for v in near.T.tolist()}


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


def blahut_arimoto_per_iteration(px: np.ndarray, lams: np.ndarray, d: np.ndarray, iters: int, tol: float):
    """Reference: the batched solver with the stopping test read after every
    iteration, one numpy pass per step (`exponents._blahut_arimoto` reads it
    once per block of iterations and must return these bits)."""
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


def reference_rd_function(q_joint: JointPmf, spec: DistortionSpec, sweep: tuple) -> float:
    """Reference: the per-slice, per-multiplier Lagrange sweep with bisection;
    `sweep` is (iterations, tol, multipliers, bisection levels)."""
    iters, tol, multipliers, levels = sweep
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
            mi, ed = _slice_ba(px, d, lam, iters, tol)
            mi_tot += py * mi
            ed_tot += py * ed
        return mi_tot, ed_tot

    lams = np.logspace(-3, 3, multipliers)
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
        for _ in range(levels):
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


# ---------------------------------------------------------------------------
# Dataclass twins of three package records, the reference for `prob.record`.
# Each has its record's fields, defaults, `__post_init__` and `__qualname__`,
# so the two reprs compare directly.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReportRowTwin:
    __qualname__ = "ReportRow"
    suite: str
    instance: str
    check: str
    relation: str
    lhs: float
    rhs: float
    note: str = ""


@dataclasses.dataclass(frozen=True)
class RdQueryTwin:
    __qualname__ = "RdQuery"
    grid_points: int = 10_000
    polish_runs: int = 20
    polish_steps: int = 60
    seed: int = 20_240_817
    __post_init__ = RdQuery.__post_init__


@dataclasses.dataclass(frozen=True)
class DistortionSpecTwin:
    __qualname__ = "DistortionSpec"
    x_alphabet: tuple
    xhat_alphabet: tuple
    d: tuple
    delta: float
    __post_init__ = DistortionSpec.__post_init__
