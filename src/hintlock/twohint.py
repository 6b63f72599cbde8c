"""Two-hint storage schemes: construction, exact ambiguities, and verifiers.

Alice maps (X, Y) to a descriptor triple (v_s, v_1, v_2), draws a uniform pad
U on {0..c_s-1}, and stores M1 = (v_s + U mod c_s, v_1), M2 = (U, v_2).  Bob
sees both hints and recovers the descriptor; Eve sees the hint her accomplice
picks after observing the realization.  Everything here works on the realized
joint law, stored densely over its support, so all ambiguities are exact
expectations.

Scheme variants: the secret-hint scenario (Eve always sees the public hint),
the secret-key scenario (one hint, shared key as one-time pad), and the
full-support scheme that defeats a list-forming Eve.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .adversary import Cell, cells, eve_ambiguity, moment_for_constant, support_moment
from .adversary import eve_exact_matching  # noqa: F401  (re-exported: perfbench reaches the oracle here)
from .bounds import ExponentOutcome, bob_converse, bob_direct, list_room, privacy_exponent, theorem_rows
from .guessing import grouped_moment
from .prob import DomainError, JointPmf, RenyiOrder, common_denominator, renyi_cond_entropy
from .report import ReportRow
from .tasks import descriptor_map


# ---------------------------------------------------------------------------
# Realized laws.  Every scheme keeps its exact law {(x, y, obs...): prob} for
# the structural checks, and builds its float Bob and Eve cell views from it
# once (`adversary.cells`); every ambiguity below is computed on those views.
# ---------------------------------------------------------------------------


class _SchemeCells:
    """Bob sees every hint, key[1:]; Eve's contexts come from `eve_views`."""

    @staticmethod
    def eve_views(key) -> tuple:  # the accomplice reveals M1 or M2
        return (("h1", key[1], key[2]), ("h2", key[1], key[3]))

    @cached_property
    def bob_cells(self) -> list[Cell]:
        return cells(self.law, lambda key: (key[1:],))

    @cached_property
    def eve_cells(self) -> list[Cell]:
        return cells(self.law, self.eve_views)


def _padded_law(items, cs: int, c1: int, c2: int, exact: bool) -> dict:
    """Spread each (x, y, (v_s, v_1, v_2), mass) uniformly over the pad U.

    M1 = ((v_s + U) mod cs) * c1 + v_1 and M2 = U * c2 + v_2, each of the cs
    pad values carrying mass / cs.
    """
    inv_cs = Fraction(1, cs) if exact else 1.0 / cs
    law: dict = {}
    for x, y, (vs, v1, v2), w in items:
        for u in range(cs):
            key = (x, y, ((vs + u) % cs) * c1 + v1, u * c2 + v2)
            law[key] = law.get(key, 0) + w * inv_cs
    return law


def _split3(z: int, cs: int, c1: int) -> tuple[int, int, int]:
    return z % cs, (z // cs) % c1, z // (cs * c1)


@dataclass(frozen=True)
class TwoHintScheme(_SchemeCells):
    joint: JointPmf
    cs: int
    c1: int
    c2: int
    m1_size: int
    m2_size: int
    version: str
    descriptor: dict  # (x, y) -> (v_s, v_1, v_2)
    law: dict  # (x, y, m1, m2) -> prob; m1 = vtilde*c1+v1, m2 = u*c2+v2

    def pad_coordinate_laws(self) -> tuple[dict, dict]:
        """Conditional laws of M1's padded coordinate and M2's pad, per (x, y).

        Both must be exactly uniform over {0..cs-1} for every positive-mass
        (x, y): either hint alone then carries nothing through that slot.
        Rational masses are summed as integer numerators over one common
        denominator (`prob.common_denominator`) and returned as Fractions.
        """
        nums, scale = common_denominator(self.law.values())
        pad1: dict = {}
        pad2: dict = {}
        for (x, y, m1, m2), n in zip(self.law, nums):
            if n > 0:
                by_vt, by_u = pad1.setdefault((x, y), {}), pad2.setdefault((x, y), {})
                vt, u = m1 // self.c1, m2 // self.c2
                by_vt[vt] = by_vt.get(vt, 0) + n
                by_u[u] = by_u.get(u, 0) + n
        if scale is not None:
            fractions: dict = {}  # one Fraction per distinct numerator
            for by_pad in (*pad1.values(), *pad2.values()):
                for k, n in by_pad.items():
                    by_pad[k] = fractions[n] if n in fractions else fractions.setdefault(n, Fraction(n, scale))
        return pad1, pad2

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "two-hint",
                "version": self.version,
                "cs": self.cs,
                "c1": self.c1,
                "c2": self.c2,
                "m1_size": self.m1_size,
                "m2_size": self.m2_size,
                "descriptor": [[list(k), list(v)] for k, v in sorted(self.descriptor.items(), key=repr)],
                "source": json.loads(self.joint.to_json()),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TwoHintScheme":
        doc = json.loads(text)
        if doc.get("kind") != "two-hint":
            raise DomainError(f"not a two-hint scheme document: kind={doc.get('kind')!r}")
        joint = JointPmf.from_json(json.dumps(doc["source"]))
        cs, c1, c2 = doc["cs"], doc["c1"], doc["c2"]
        descriptor = {tuple(k): tuple(v) for k, v in doc["descriptor"]}
        law = _padded_law(
            ((x, y, descriptor[(x, y)], p) for x, y, p in joint.support_items()), cs, c1, c2, joint.exact
        )
        return cls(joint, cs, c1, c2, doc["m1_size"], doc["m2_size"], doc["version"], descriptor, law)


def build_two_hint(
    joint: JointPmf,
    cs: int,
    c1: int,
    c2: int,
    version: str = "guessing",
    m1_size: int | None = None,
    m2_size: int | None = None,
) -> TwoHintScheme:
    """Build the padded two-hint scheme for an admissible (cs, c1, c2)."""
    m1_size = m1_size if m1_size is not None else cs * c1
    m2_size = m2_size if m2_size is not None else cs * c2
    if min(cs, c1, c2) < 1:
        raise DomainError("cs, c1, c2 must be positive integers")
    if cs > min(m1_size, m2_size):
        raise DomainError(f"cs={cs} exceeds min(|M1|,|M2|)={min(m1_size, m2_size)}")
    if c1 > m1_size // cs:
        raise DomainError(f"c1={c1} exceeds floor(|M1|/cs)={m1_size // cs}")
    if c2 > m2_size // cs:
        raise DomainError(f"c2={c2} exceeds floor(|M2|/cs)={m2_size // cs}")
    size = cs * c1 * c2
    if version == "list" and not list_room(size, len(joint.x_alphabet)):
        raise DomainError(f"list version needs cs*c1*c2 > log2|X|+2: {size} is too small")
    zmap = descriptor_map(joint, size, version)
    descriptor = {k: _split3(z, cs, c1) for k, z in zmap.items()}
    law = _padded_law(
        ((x, y, descriptor[(x, y)], p) for x, y, p in joint.support_items()), cs, c1, c2, joint.exact
    )
    return TwoHintScheme(joint, cs, c1, c2, m1_size, m2_size, version, descriptor, law)


def scheme_from_law(
    joint: JointPmf, law: dict, m1_size: int, m2_size: int, version: str = "guessing"
) -> TwoHintScheme:
    """Wrap an arbitrary realized law {(x, y, m1, m2): prob} for the verifiers.

    Cardinality parameters cs, c1, c2 are recorded as 1 (they only matter for
    schemes built by `build_two_hint`); every ambiguity and converse check
    works directly on the law.
    """
    return TwoHintScheme(joint, 1, m1_size, m2_size, m1_size, m2_size, version, {}, law)


def bob_ambiguity(scheme, rho: float, version: str | None = None) -> float:
    """Bob's exact ambiguity given every hint (guessing moment or list moment)."""
    version = version or scheme.version
    if version == "guessing":
        return moment_for_constant(scheme.bob_cells, 0, rho)
    if version == "list":
        return support_moment(scheme.bob_cells, rho)
    raise DomainError(f"unknown version {version!r}")


def eve_ambiguity_exact(scheme, rho: float) -> float:
    """Exact accomplice-optimal guessing moment for Eve.

    Uses the assignment reduction when valid, otherwise exhaustive map
    enumeration; raises BudgetExceededError when neither fits the budget.
    """
    return eve_ambiguity(scheme.eve_cells, rho, None).value


def _eve_floor(scheme: TwoHintScheme, rho: float) -> float:
    """Certified lower bound on Eve when the exact oracles are out of budget.

    Revealing the accomplice's index and both coordinates can shrink the
    moment by at most the revealed cardinality; evaluated on the moment of
    (X, U) given Y, U the uniform pad, and on the moment of X given Y.
    """
    pos = [(x, y, m2 // scheme.c2, float(p)) for (x, y, _, m2), p in scheme.law.items() if p > 0]
    aug = grouped_moment(((y, x, p) for x, y, _, p in pos), rho)
    pair = grouped_moment(((y, (x, u), p) for x, y, u, p in pos), rho)
    z_count = scheme.cs * (scheme.c1 + scheme.c2)
    return max(1.0, z_count ** (-rho) * pair, (scheme.m1_size * scheme.m2_size) ** (-rho) * aug)


def eve_ambiguity_weak(scheme, rho: float) -> float:
    """Accomplice picks the hint before seeing the realization: min of two moments."""
    return min(moment_for_constant(scheme.eve_cells, k, rho) for k in range(2))


def verify_finite_blocklength(
    scheme: TwoHintScheme, rho: float, version: str | None = None, instance: str = ""
) -> list[ReportRow]:
    """Check the achievability and converse inequalities on the built scheme."""
    version = version or scheme.version
    m1, m2 = scheme.m1_size, scheme.m2_size
    a_b = bob_ambiguity(scheme, rho, version)
    eve = eve_ambiguity(scheme.eve_cells, rho, lambda: _eve_floor(scheme, rho))
    note = "" if eve.exact else "eve: bounds-only"
    a_e_weak = eve_ambiguity_weak(scheme, rho)
    suite = f"two-hint-{version}"
    sizes = (scheme.cs * scheme.c1 * scheme.c2, m1 * m2, scheme.c1 + scheme.c2, min(m1, m2))
    rows = theorem_rows(suite, instance, scheme.joint, rho, version, (a_b, a_b), eve.bracket, sizes, note)
    return [
        *rows,  # the last is Eve's converse, which caps the weak accomplice too
        ReportRow(suite, instance, f"eve-weak-converse-{version[0]}", "<=", a_e_weak, rows[-1].rhs, note),
        ReportRow(suite, instance, "eve-exact-below-weak", "<=", eve.lower, a_e_weak, note),
    ]


# ---------------------------------------------------------------------------
# Picking (cs, c1, c2) from a Bob-ambiguity budget.
# ---------------------------------------------------------------------------


class InfeasibleBoundError(ValueError):
    """The requested Bob bound is below the converse floor."""


def choose_triple(
    u_bound: float,
    m1_size: int,
    m2_size: int,
    renyi_value: float,
    rho: float,
    version: str = "guessing",
    nx: int | None = None,
) -> tuple[int, int, int]:
    """Pick (cs, c1, c2) guaranteeing Bob's ambiguity < u_bound.

    Implements the three-case rule; the returned triple is admissible and its
    direct bound `bounds.bob_direct` is at most u_bound.  Raises
    InfeasibleBoundError when u_bound is under the converse floor,
    DomainError when it is above the floor but below the achievability
    threshold this rule needs.
    """
    h = renyi_value
    if version == "list" and nx is None:
        raise DomainError("list version needs nx (for the log|X| terms)")
    swapped = m2_size > m1_size
    big, small = (m2_size, m1_size) if swapped else (m1_size, m2_size)

    def fits(z: int) -> bool:
        return bob_direct(h, rho, z, nx, version) <= u_bound

    if version == "list" and not list_room(big * small, nx):
        raise DomainError("list version needs |M1||M2| > log2|X| + 2")
    if nx is not None:
        floor = bob_converse(h, rho, big * small, nx, version)
        if u_bound < floor:
            raise InfeasibleBoundError(f"u_bound {u_bound} below converse floor {floor}")
    if not fits(big * small):
        raise DomainError(f"u_bound {u_bound} below the achievability threshold")
    if fits(small):
        triple = (small, 1, 1)
    elif fits(small * (big // small)):
        # the smallest multiplier that fits: the direct bound falls as it grows
        cb = 1 + bisect_left(range(1, big // small + 1), True, key=lambda c: fits(small * c))
        triple = (small, cb, 1)
    else:  # k = 1 fits: it is the big * small descriptor
        k = max(k for k in range(1, small + 1) if fits(k * (big // k) * (small // k)))
        triple = (k, big // k, small // k)
    cs, cb, csm = triple
    return (cs, csm, cb) if swapped else (cs, cb, csm)


# ---------------------------------------------------------------------------
# Secret hint: Eve always sees the public hint, never the secret one.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecretHintScheme(_SchemeCells):
    joint: JointPmf
    c: int
    mp_size: int
    ms_size: int
    version: str
    law: dict  # (x, y, m_public, m_secret) -> prob (deterministic descriptor)

    @staticmethod
    def eve_views(key) -> tuple:  # the public hint only
        return ((key[1], key[2]),)


def build_secret_hint(
    joint: JointPmf, c: int, ms_size: int, version: str = "guessing", mp_size: int | None = None
) -> SecretHintScheme:
    mp_size = mp_size if mp_size is not None else c
    if not 1 <= c <= mp_size:
        raise DomainError(f"need 1 <= c <= |Mp|, got c={c}, |Mp|={mp_size}")
    if version == "list" and not list_room(c * ms_size, len(joint.x_alphabet)):
        raise DomainError("list version needs c*|Ms| > log2|X| + 2")
    zmap = descriptor_map(joint, c * ms_size, version)
    law = {(x, y, zmap[(x, y)] % c, zmap[(x, y)] // c): p for x, y, p in joint.support_items()}
    return SecretHintScheme(joint, c, mp_size, ms_size, version, law)


def _verify_fixed_eve_hint(scheme, rho: float, instance: str, suite: str, sizes: tuple) -> list[ReportRow]:
    """Theorem rows for schemes where Eve always sees the same one hint."""
    a_b = bob_ambiguity(scheme, rho)
    a_e = moment_for_constant(scheme.eve_cells, 0, rho)
    version = scheme.version
    suite = f"{suite}-{version}"
    return theorem_rows(suite, instance, scheme.joint, rho, version, (a_b, a_b), (a_e, a_e), sizes)


def verify_secret_hint(scheme: SecretHintScheme, rho: float, instance: str = "") -> list[ReportRow]:
    c, mp, ms = scheme.c, scheme.mp_size, scheme.ms_size
    return _verify_fixed_eve_hint(scheme, rho, instance, "secret-hint", (c * ms, mp * ms, c, ms))


# ---------------------------------------------------------------------------
# Secret key: one public hint, the shared key pads the sensitive coordinate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecretKeyScheme(_SchemeCells):
    joint: JointPmf
    c: int
    k_size: int
    m_size: int
    version: str
    law: dict  # (x, y, k, m) -> prob with m = (ms + k mod |K|)*c + mp

    @staticmethod
    def eve_views(key) -> tuple:  # the stored hint, never the key
        return ((key[1], key[3]),)


def build_secret_key(
    joint: JointPmf, c: int, k_size: int, version: str = "guessing", m_size: int | None = None
) -> SecretKeyScheme:
    m_size = m_size if m_size is not None else c * k_size
    if k_size > m_size:
        raise DomainError("need |K| <= |M|")
    if c * k_size > m_size:
        raise DomainError(f"need c*|K| <= |M|: {c}*{k_size} > {m_size}")
    if version == "list" and not list_room(c * k_size, len(joint.x_alphabet)):
        raise DomainError("list version needs c*|K| > log2|X| + 2")
    zmap = descriptor_map(joint, c * k_size, version)
    inv_k = Fraction(1, k_size) if joint.exact else 1.0 / k_size
    law: dict = {}
    for x, y, p in joint.support_items():
        z = zmap[(x, y)]
        ms, mp = z % k_size, z // k_size
        for k in range(k_size):
            m = ((ms + k) % k_size) * c + mp
            law[(x, y, k, m)] = p * inv_k
    return SecretKeyScheme(joint, c, k_size, m_size, version, law)


def verify_secret_key(scheme: SecretKeyScheme, rho: float, instance: str = "") -> list[ReportRow]:
    c, ksz, msz = scheme.c, scheme.k_size, scheme.m_size
    return _verify_fixed_eve_hint(scheme, rho, instance, "secret-key", (c * ksz, msz, c, ksz))


# ---------------------------------------------------------------------------
# Defeating a list-forming Eve: full-support hints.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EveListScheme(_SchemeCells):
    joint: JointPmf
    cs: int
    c1: int
    c2: int
    m1_size: int
    m2_size: int
    epsilon: float
    law: dict  # (x, y, m1, m2) -> prob

    @cached_property
    def no_hint_cells(self) -> list[Cell]:  # the list Eve forms from Y alone
        return cells(self.law, lambda key: ((key[1],),))


def build_eve_list_scheme(
    joint: JointPmf, m1_size: int, m2_size: int, epsilon: float
) -> EveListScheme:
    """Scheme whose single-hint decoding lists equal the no-hint list exactly.

    The unpadded coordinates are resampled so every pair (v1, v2) has positive
    probability: stay with probability 1 - 2^-epsilon, otherwise move
    uniformly to one of the other pairs.
    """
    nx = len(joint.x_alphabet)
    cs = 1 + math.floor(math.log2(nx))
    if min(m1_size, m2_size) < cs:
        raise DomainError(f"need min(|M1|,|M2|) >= 1 + floor(log2|X|) = {cs}")
    c1, c2 = m1_size // cs, m2_size // cs
    if 1 - 2.0**-epsilon * (1 + 1.0 / (c1 * c2)) < 0:
        raise DomainError(f"epsilon {epsilon} makes the mixing weight negative")
    zmap = descriptor_map(joint, c1 * c2, "guessing")
    exact = joint.exact and float(epsilon).is_integer() and epsilon >= 0
    if exact:
        move_total = Fraction(1, 2 ** int(epsilon))
        stay = 1 - move_total
    else:
        move_total = 2.0**-epsilon
        stay = 1.0 - move_total
    # posterior-sorted ranks of X given (y, v1', v2') under the smoothed law
    smoothed: dict = {}
    for x, y, p in joint.support_items():
        z = zmap[(x, y)]
        for zp in range(c1 * c2):
            if c1 * c2 == 1:
                w = p
            elif zp == z:
                w = p * stay
            else:
                w = p * move_total / (c1 * c2 - 1)
            if w > 0:
                smoothed[(x, y, zp)] = smoothed.get((x, y, zp), 0) + w
    ranks: dict = {}
    groups: dict = {}
    xi = {x: i for i, x in enumerate(joint.x_alphabet)}
    for (x, y, zp), w in smoothed.items():
        groups.setdefault((y, zp), []).append((x, w))
    for ctx, members in groups.items():
        ordered = sorted(members, key=lambda kv: (-float(kv[1]), xi[kv[0]]))
        for r, (x, _) in enumerate(ordered, start=1):
            ranks[(ctx, x)] = r
    items = (
        (x, y, (math.floor(math.log2(ranks[((y, zp), x)])), zp % c1, zp // c1), w)
        for (x, y, zp), w in smoothed.items()
    )
    law = _padded_law(items, cs, c1, c2, exact)
    return EveListScheme(joint, cs, c1, c2, m1_size, m2_size, epsilon, law)


def eve_list_ambiguity(scheme: EveListScheme, rho: float) -> float:
    """E[min(|L given (Y, M1)|, |L given (Y, M2)|)^rho]."""
    return support_moment(scheme.eve_cells, rho, min)


def verify_eve_list(scheme: EveListScheme, rho: float, instance: str = "") -> list[ReportRow]:
    joint = scheme.joint
    h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
    nx = len(joint.x_alphabet)
    a_b = bob_ambiguity(scheme, rho, "list")
    a_e = eve_list_ambiguity(scheme, rho)
    no_hint = support_moment(scheme.no_hint_cells, rho)
    m = scheme.m1_size * scheme.m2_size
    # 1 + 2^(rho (h - log2|M1||M2| + 2 log2 cs + 3)): the guessing-form direct
    # bound at |M1||M2| / (4 cs^2) values, cs = 1 + floor(log2|X|)
    bob_dir = bob_direct(h, rho, m / (4 * scheme.cs**2), nx, "guessing")
    bob_conv = bob_converse(h, rho, m, nx, "list")
    suite = "eve-list"
    return [
        ReportRow(suite, instance, "bob-direct-list", "<=", a_b, bob_dir),
        ReportRow(suite, instance, "eve-equals-no-hint-list", "==", a_e, no_hint),
        ReportRow(suite, instance, "bob-converse-list", ">=", a_b, bob_conv),
        ReportRow(suite, instance, "eve-converse-list", "<=", a_e, no_hint),
    ]


# ---------------------------------------------------------------------------
# Asymptotics.
# ---------------------------------------------------------------------------


def two_hint_exponents(
    r1: float, r2: float, rho: float, entropy_rate: float, e_bob: float | None = None
) -> ExponentOutcome:
    """Privacy exponent (e_bob None) or modest privacy exponent for rate pair (r1, r2).

    The plain exponent is undetermined exactly at r1 + r2 = entropy rate; that
    input returns the achievable-side value with `boundary=True`.
    """
    if r1 <= 0 or r2 <= 0:
        raise DomainError("rates must be positive")
    out = privacy_exponent(r1 + r2, min(r1, r2), rho, entropy_rate, e_bob)
    if out.value == -math.inf:
        return out
    heff = entropy_rate if e_bob is None else max(entropy_rate - e_bob / rho, 0.0)
    return replace(out, witness=_rate_split(r1, r2, heff))


def _rate_split(r1: float, r2: float, h: float) -> tuple[float, float, float]:
    """The pad/plain rate triple used in the three-case achievability argument."""
    lo = min(r1, r2)
    if lo <= h / 2:
        split = (0.0, h - lo, lo)
    elif lo <= h:
        split = (2 * lo - h, h - lo, h - lo)
    else:
        split = (lo, 0.0, 0.0)
    return split
