"""Two-hint storage schemes: construction, exact ambiguities, and verifiers.

Alice maps (X, Y) to a descriptor triple (v_s, v_1, v_2), draws a uniform pad
U on {0..c_s-1}, and stores M1 = (v_s + U mod c_s, v_1), M2 = (U, v_2).  Bob
sees both hints and recovers the descriptor; Eve sees the hint her accomplice
picks after observing the realization.  Everything here works on realized
joint laws, stored densely over their support, so all ambiguities are exact
expectations.  A two-hint scheme keeps only its pad quotient, the realization
at U = 0 of each (x, y) with mass P(x, y): u -> (v_s + u) mod c_s is a
bijection of Z_cs, so both pad coordinates are uniform by construction, and
`adversary` prices both adversaries on the quotient.

Scheme variants: the secret-hint scenario (Eve always sees the public hint),
the secret-key scenario (one hint, shared key as one-time pad; its quotient is
the realization at key 0), and the full-support scheme that defeats a
list-forming Eve (its quotient: each smoothed (x, y, v1', v2') at U = 0).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

import numpy as np

from .adversary import CellView, Law, SchemeCells, moment_for_constant, rank_groups, support_moment
from .bounds import bob_converse, bob_direct, list_room, two_hint_exponents  # the last one is re-exported
from .prob import DomainError, JointPmf, RenyiOrder, record, renyi_cond_entropy
from .report import ReportRow
from .tasks import descriptor_map


# ---------------------------------------------------------------------------
# Realized laws.  Every scheme keeps its exact law {(x, y, h_1, h_2): prob}, a
# padded scheme its pad quotient, as columns (`adversary.Law`);
# `adversary.SchemeCells` prices Bob and Eve on it.
# ---------------------------------------------------------------------------

HINT_LIMIT = 1 << 62  # the most values of a hint: its int64 codes and their mixed radix stay exact


def _pad_hints(cs: int, c1: int, c2: int, split) -> np.ndarray:
    """The pad quotient's hints of the descriptors (v_s, v_1, v_2) = split(), run once both hints fit
    in int64: at pad U = 0, M1 = ((v_s + U) mod cs) * c1 + v_1 = v_s * c1 + v_1 and M2 = U * c2 + v_2 = v_2."""
    if max(cs * c1, cs * c2) > HINT_LIMIT:
        raise DomainError(f"a hint of cs*c1 = {cs * c1} or cs*c2 = {cs * c2} values exceeds 2^62")
    vs, v1, v2 = split()
    if not ((0 <= vs) & (vs < cs) & (0 <= v1) & (v1 < c1) & (0 <= v2) & (v2 < c2)).all():
        raise DomainError(f"a descriptor lies outside cs={cs}, c1={c1}, c2={c2}")
    return np.stack([vs * c1 + v1, v2], axis=1)


@record
class TwoHintScheme(SchemeCells):
    joint: JointPmf
    cs: int
    c1: int
    c2: int
    m1_size: int
    m2_size: int
    version: str
    law: Law  # the pad quotient (x, y, m1, m2) -> P(x, y) at U = 0: m1 = v_s*c1+v1, m2 = v2

    suite = "two-hint"

    @property
    def sizes(self) -> tuple:
        m1, m2 = self.m1_size, self.m2_size
        return self.cs * self.c1 * self.c2, m1 * m2, self.c1 + self.c2, min(m1, m2)

    def public(self, hints: np.ndarray) -> np.ndarray:  # (M1 mod c1, M2 mod c2) = (V1, V2)
        return hints % np.array([self.c1, self.c2])

    def rows(self, rho: float, version: str | None = None, instance: str = "") -> list[ReportRow]:
        """The theorem rows, then the weak accomplice's: Eve's converse caps it too."""
        version = version or self.version
        rows = super().rows(rho, version, instance)
        suite, eve, weak = rows[0].suite, rows[-1].lhs, eve_ambiguity_weak(self, rho)
        return [
            *rows,
            ReportRow(suite, instance, f"eve-weak-converse-{version[0]}", "<=", weak, rows[-1].rhs),
            ReportRow(suite, instance, "eve-exact-below-weak", "<=", eve, weak),
        ]

    def pad_coordinate_laws(self) -> tuple[dict, dict]:
        """Conditional laws of M1's padded coordinate and M2's pad, per (x, y).

        Both must be exactly uniform over {0..cs-1} for every positive-mass
        (x, y): either hint alone then carries nothing through that slot.  They
        are read off the pad quotient, one realization per (x, y): pad u
        carries P(x, y) / cs, at M1's coordinate (v_s + u) mod cs and at M2's
        u.  Rational masses are returned as Fractions, float ones as
        float(P) * (1.0 / cs).
        """
        law, cs = self.law, self.cs
        if law.nums is None:
            values = (law.mass * (1.0 / cs)).tolist()
        else:
            fractions: dict = {}  # one Fraction per distinct numerator
            scale = law.scale * cs
            values = [fractions[n] if n in fractions else fractions.setdefault(n, Fraction(n, scale)) for n in law.nums]
        pad1, pad2 = {}, {}
        for x, y, v_s, w in zip(law.x.tolist(), law.y.tolist(), (law.hints[:, 0] // self.c1).tolist(), values):
            xy = (law.xs[x], law.ys[y])
            pad1[xy] = {(v_s + u) % cs: w for u in range(cs)}
            pad2[xy] = dict.fromkeys(range(cs), w)
        return pad1, pad2

    def to_json(self) -> str:
        law, c1 = self.law, self.c1  # the descriptor (v_s, v_1, v_2) of each support (x, y), read off its hints
        cells = zip(law.x.tolist(), law.y.tolist(), *law.hints.T.tolist())
        descriptor = sorted((((law.xs[x], law.ys[y]), (m1 // c1, m1 % c1, m2)) for x, y, m1, m2 in cells), key=repr)
        if len({xy for xy, _ in descriptor}) < len(descriptor):  # only a law built outside `build_two_hint` can
            raise DomainError("a law with several realizations of one (x, y) has no descriptor to write")
        return json.dumps(
            {
                "kind": "two-hint",
                "version": self.version,
                "cs": self.cs,
                "c1": self.c1,
                "c2": self.c2,
                "m1_size": self.m1_size,
                "m2_size": self.m2_size,
                "descriptor": [[list(k), list(v)] for k, v in descriptor],
                "source": json.loads(self.joint.to_json()),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TwoHintScheme":
        doc = json.loads(text)
        if doc.get("kind") != "two-hint":
            raise DomainError(f"not a two-hint scheme document: kind={doc.get('kind')!r}")
        joint = JointPmf.from_json(json.dumps(doc["source"]))
        for key in ("cs", "c1", "c2", "m1_size", "m2_size"):
            if type(doc[key]) is not int:  # a JSON float (2.0 too) or a boolean
                raise DomainError(f"{key} must be a JSON integer, not {json.dumps(doc[key])}")
        cs, c1, c2 = doc["cs"], doc["c1"], doc["c2"]
        descriptor = {tuple(k): tuple(v) for k, v in doc["descriptor"]}
        cells = [descriptor[(x, y)] for x, y, _ in joint.support_items()]
        law = Law.on(joint, _pad_hints(cs, c1, c2, lambda: np.array(cells, dtype=np.int64).reshape(-1, 3).T))
        _check_admissible(cs, c1, c2, doc["m1_size"], doc["m2_size"], doc["version"])  # after the 2^62 check
        return cls(joint, cs, c1, c2, doc["m1_size"], doc["m2_size"], doc["version"], law)


def _check_admissible(cs: int, c1: int, c2: int, m1_size: int, m2_size: int, version: str) -> None:
    """Raise DomainError unless (cs, c1, c2) fits |M1| and |M2| and the version is known."""
    if min(cs, c1, c2) < 1:
        raise DomainError("cs, c1, c2 must be positive integers")
    if cs > min(m1_size, m2_size):
        raise DomainError(f"cs={cs} exceeds min(|M1|,|M2|)={min(m1_size, m2_size)}")
    if c1 > m1_size // cs:
        raise DomainError(f"c1={c1} exceeds floor(|M1|/cs)={m1_size // cs}")
    if c2 > m2_size // cs:
        raise DomainError(f"c2={c2} exceeds floor(|M2|/cs)={m2_size // cs}")
    if version not in ("guessing", "list"):
        raise DomainError(f"unknown version {version!r}")


def build_two_hint(
    joint: JointPmf,
    cs: int,
    c1: int,
    c2: int,
    version: str = "guessing",
    m1_size: int | None = None,
    m2_size: int | None = None,
) -> TwoHintScheme:
    """Build the padded two-hint scheme for an admissible (cs, c1, c2): its pad quotient, one row per support cell."""
    m1_size = m1_size if m1_size is not None else cs * c1
    m2_size = m2_size if m2_size is not None else cs * c2
    _check_admissible(cs, c1, c2, m1_size, m2_size, version)
    z = descriptor_map(joint, cs * c1 * c2, version)
    law = Law.on(joint, _pad_hints(cs, c1, c2, lambda: (z % cs, z // cs % c1, z // (cs * c1))))
    return TwoHintScheme(joint, cs, c1, c2, m1_size, m2_size, version, law)


def eve_ambiguity_weak(scheme, rho: float) -> float:
    """Accomplice picks the hint before seeing the realization: the min over
    Eve's views of the moment given that view (with one view, that moment)."""
    return min(moment_for_constant(scheme.eve_cells, k, rho) for k in range(len(scheme.eve_positions)))


def verify_finite_blocklength(
    scheme: SchemeCells, rho: float, version: str | None = None, instance: str = ""
) -> list[ReportRow]:
    """Check the achievability and converse inequalities on a built scheme of any kind here."""
    return scheme.rows(rho, version, instance)


verify_secret_hint = verify_secret_key = verify_eve_list = verify_finite_blocklength  # one verifier, every scheme


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


@record
class SecretHintScheme(SchemeCells):
    joint: JointPmf
    c: int
    mp_size: int
    ms_size: int
    version: str
    law: Law  # (x, y, m_public, m_secret) -> prob (deterministic descriptor)

    eve_positions = ((0,),)  # the public hint only
    suite = "secret-hint"

    @property
    def sizes(self) -> tuple:
        return self.c * self.ms_size, self.mp_size * self.ms_size, self.c, self.ms_size

    eve = eve_ambiguity_weak  # the guessing moment given the public hint


def build_secret_hint(
    joint: JointPmf, c: int, ms_size: int, version: str = "guessing", mp_size: int | None = None
) -> SecretHintScheme:
    mp_size = mp_size if mp_size is not None else c
    if not 1 <= c <= mp_size:
        raise DomainError(f"need 1 <= c <= |Mp|, got c={c}, |Mp|={mp_size}")
    z = descriptor_map(joint, c * ms_size, version)
    return SecretHintScheme(joint, c, mp_size, ms_size, version, Law.on(joint, np.stack([z % c, z // c], axis=1)))


# ---------------------------------------------------------------------------
# Secret key: one public hint, the shared key pads the sensitive coordinate.
# ---------------------------------------------------------------------------


@record
class SecretKeyScheme(SchemeCells):
    joint: JointPmf
    c: int
    k_size: int
    m_size: int
    version: str
    law: Law  # the key quotient (x, y, k, m) -> P(x, y) at k = 0: m = ((ms + k) mod |K|)*c + mp = ms*c + mp

    eve_positions = ((1,),)  # the stored hint, never the key
    suite = "secret-key"

    @property
    def sizes(self) -> tuple:
        return self.c * self.k_size, self.m_size, self.c, self.k_size

    def public(self, hints: np.ndarray) -> np.ndarray:  # M mod c = mp (and the key column, 0, stays 0)
        return hints % self.c

    eve = eve_ambiguity_weak  # the guessing moment given the stored hint


def build_secret_key(
    joint: JointPmf, c: int, k_size: int, version: str = "guessing", m_size: int | None = None
) -> SecretKeyScheme:
    m_size = m_size if m_size is not None else c * k_size
    if k_size > m_size:
        raise DomainError("need |K| <= |M|")
    if c * k_size > m_size:
        raise DomainError(f"need c*|K| <= |M|: {c}*{k_size} > {m_size}")
    if c * k_size > HINT_LIMIT:
        raise DomainError(f"a hint of c*|K| = {c * k_size} values exceeds 2^62")
    z = descriptor_map(joint, c * k_size, version)
    law = Law.on(joint, np.stack([np.zeros_like(z), (z % k_size) * c + z // k_size], axis=1))
    return SecretKeyScheme(joint, c, k_size, m_size, version, law)


# ---------------------------------------------------------------------------
# Defeating a list-forming Eve: full-support hints.
# ---------------------------------------------------------------------------


@record
class EveListScheme(SchemeCells):
    joint: JointPmf
    cs: int
    c1: int
    c2: int
    m1_size: int
    m2_size: int
    epsilon: float
    law: Law  # the pad quotient (x, y, m1, m2) -> smoothed mass at U = 0, one row per (x, y, v1', v2')

    version = "list"  # Bob's and Eve's lists
    public = TwoHintScheme.public

    @cached_property
    def no_hint_cells(self) -> CellView:  # the list Eve forms from Y alone
        return self.law.view([()])

    def eve(self, rho: float) -> float:
        """E[min(|L given (Y, M1)|, |L given (Y, M2)|)^rho]."""
        return support_moment(self.eve_cells, rho, min)

    def rows(self, rho: float, version: str | None = None, instance: str = "") -> list[ReportRow]:
        """Bob's list bounds, and Eve's list equal to the one she forms from Y alone."""
        h = renyi_cond_entropy(self.joint, RenyiOrder.from_rho(rho))
        nx = len(self.joint.x_alphabet)
        a_b, a_e = self.bob(rho), self.eve(rho)
        no_hint = support_moment(self.no_hint_cells, rho)
        m = self.m1_size * self.m2_size
        # 1 + 2^(rho (h - log2|M1||M2| + 2 log2 cs + 3)): the guessing-form direct
        # bound at |M1||M2| / (4 cs^2) values, cs = 1 + floor(log2|X|)
        bob_dir = bob_direct(h, rho, m / (4 * self.cs**2), nx, "guessing")
        bob_conv = bob_converse(h, rho, m, nx, "list")
        suite = "eve-list"
        return [
            ReportRow(suite, instance, "bob-direct-list", "<=", a_b, bob_dir),
            ReportRow(suite, instance, "eve-equals-no-hint-list", "==", a_e, no_hint),
            ReportRow(suite, instance, "bob-converse-list", ">=", a_b, bob_conv),
            ReportRow(suite, instance, "eve-converse-list", "<=", a_e, no_hint),
        ]


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
    n, exact = c1 * c2, joint.exact and float(epsilon).is_integer() and epsilon >= 0
    x, y, mass, _ = joint.support
    nums, scale = joint.numerators if exact else (mass, None)
    # the smoothed law: each support cell at each v' = zp in 0..n-1 (v1' = zp % c1, v2' = zp // c1), where positive
    cell, zp = np.repeat(np.arange(len(x)), n), np.tile(np.arange(n), len(x))
    stays = zp == descriptor_map(joint, n, "guessing")[cell]
    if n > 1 and exact:  # stay (e - 1) / e and move 1 / (e (n - 1)), e = 2^epsilon: integers over scale * e * (n - 1)
        e = 2 ** int(epsilon)
        nums = [nums[i] * (e - 1) * (n - 1) if s else nums[i] for i, s in zip(cell.tolist(), stays.tolist())]
        scale *= e * (n - 1)
        mass = np.array([k / scale for k in nums], dtype=float)
    elif n > 1:
        mass = np.where(stays, mass[cell] * (1.0 - 2.0**-epsilon), mass[cell] * 2.0**-epsilon / (n - 1))
        cell, zp, mass = cell[mass > 0], zp[mass > 0], mass[mass > 0]
        nums = mass
    _, _, rank, pair = rank_groups(y[cell] * n + zp, x[cell], mass, nx)
    vs = (np.frexp(rank[pair])[1] - 1).astype(np.int64)  # floor(log2) of X's posterior rank given (y, v1', v2')
    hints = _pad_hints(cs, c1, c2, lambda: (vs, zp % c1, zp // c1))
    law = Law(joint.x_alphabet, joint.y_alphabet, x[cell], y[cell], hints, mass, nums, scale)
    return EveListScheme(joint, cs, c1, c2, m1_size, m2_size, epsilon, law)
