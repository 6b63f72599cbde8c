"""Coded multi-disk hint schemes robust to disk failures.

Alice describes (X, Y) by a pair (V, W), spreads V over delta disks with an
MDS code over GF(2^p), and spreads W together with a uniform pad U using
nested MDS codes over GF(2^r), so that any nu hints determine (V, W, U)
while any eta hints are exactly independent of W.  Each hint carries s = p + r
bits: the p-bit coordinate of the V-codeword then the r-bit coordinate of the
padded codeword.

A scheme keeps its two generators and, as its law, the pad quotient: one
realization per support (x, y), at pad U = 0, with mass P(x, y).  Both
structural premises are decided on the generators by `gf.mds_check`, never by
enumerating the 2^(eta*r) pads: nu-recovery needs G_V and G_UW MDS, and
eta-independence needs the top eta rows of G_UW MDS.

Bob is shown the nu hints that maximize his ambiguity, Eve the eta hints that
minimize hers; both choices are made after the realization is known.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .adversary import Law, SchemeCells, eve_exact_matching, moment_for_constant
from .bounds import bob_converse, bob_direct, disk_exponents, eve_converse, eve_direct  # disk_exponents is re-exported
from .gf import GenMatrix, field_make, mds_check, rs_generator
from .prob import DomainError, JointPmf, RenyiOrder, record, renyi_cond_entropy
from .report import ReportRow, fmt
from .tasks import descriptor_map


def _admissible(p: int, r: int, delta: int) -> bool:
    """Each of p and r is 0 or at least ceil(log2 delta), so that both codes
    exist: an MDS code of length delta over GF(2^v) needs 2^v >= delta."""
    return all(v == 0 or v >= math.ceil(math.log2(delta)) for v in (p, r))


def disk_sizes(delta: int, nu: int, eta: int, s: int, r: int) -> tuple[int, int, int, int]:
    """The theorem's (z, m, leak, secret): Bob decodes nu*s - eta*r of his nu*s
    bits; Eve's eta hints leak their eta*p bits and which of at most delta^eta
    index tuples they are; (nu - eta)*s bits stay hidden from her."""
    return 2 ** (nu * s - eta * r), 2 ** (nu * s), delta**eta * 2 ** (eta * (s - r)), 2 ** ((nu - eta) * s)


@record
class DeltaHintScheme(SchemeCells):
    """Priced on its pad quotient, Eve reading each hint's V-codeword coordinate."""

    joint: JointPmf
    delta: int
    nu: int
    eta: int
    s: int
    p: int
    r: int
    version: str
    law: Law  # (x, y, one hint per disk) -> P(x, y): hint l is V G_V[:, l] << r | (0 || W) G_UW[:, l]
    g_v: GenMatrix | None  # nu x delta over GF(2^p); None when p = 0
    g_uw: GenMatrix | None  # nu x delta over GF(2^r), the pad U on its top eta rows; None when r = 0

    suite = "disks"

    @property
    def bob_positions(self) -> list:  # any nu hints
        return list(combinations(range(self.delta), self.nu))

    @property
    def eve_positions(self) -> list:  # any eta hints
        return list(combinations(range(self.delta), self.eta))

    @property
    def sizes(self) -> tuple:
        return disk_sizes(self.delta, self.nu, self.eta, self.s, self.r)

    def public(self, hints: np.ndarray) -> np.ndarray:
        return self.split_hint(hints)[0]

    def split_hint(self, h: int) -> tuple[int, int]:
        return h >> self.r, h & ((1 << self.r) - 1)


def _int_to_symbols(z: np.ndarray, count: int, bits: int) -> np.ndarray:
    """Big-endian split of the low count * bits bits of each integer into `count`
    field symbols of `bits` bits, one row per integer."""
    return (z[:, None] >> bits * np.arange(count - 1, -1, -1)) & ((1 << bits) - 1)


def build_delta_scheme(
    joint: JointPmf,
    delta: int,
    nu: int,
    eta: int,
    s: int,
    p: int,
    r: int,
    version: str = "guessing",
) -> DeltaHintScheme:
    """Build the nested-MDS hint scheme for admissible (p, r): its pad quotient, one row per support cell."""
    if not 0 <= eta < nu <= delta:
        raise DomainError(f"need 0 <= eta < nu <= delta, got eta={eta}, nu={nu}, delta={delta}")
    if p + r != s or not _admissible(p, r, delta):
        raise DomainError(f"need p + r = s with p and r each 0 or at least ceil(log2 delta), got p={p}, r={r}, s={s}")
    z = descriptor_map(joint, disk_sizes(delta, nu, eta, s, r)[0], version)  # nu*p + (nu-eta)*r bits
    v_sym, w_sym = _int_to_symbols(z >> ((nu - eta) * r), nu, p), _int_to_symbols(z, nu - eta, r)
    g_v = rs_generator(nu, delta, field_make(p)) if p > 0 else None
    g_uw = rs_generator(nu, delta, field_make(r)) if r > 0 else None
    if g_uw is not None and eta > 0 and not mds_check(g_uw.first_rows(eta)):
        raise DomainError("some eta hints do not fix the pad: Eve's pad quotient would not be exact")
    zeros = np.zeros((len(z), delta), dtype=np.int64)
    v = g_v.encode(v_sym) << r if g_v else zeros
    w = g_uw.encode(np.pad(w_sym, ((0, 0), (eta, 0)))) if g_uw else zeros  # the pad U = 0
    return DeltaHintScheme(joint, delta, nu, eta, s, p, r, version, Law.on(joint, v | w), g_v, g_uw)


# ---------------------------------------------------------------------------
# Structure, decided on the generators.
# ---------------------------------------------------------------------------


def check_reconstruction(scheme: DeltaHintScheme) -> bool:
    """Any nu hints determine (V, W, pad): every nu x nu column submatrix of
    G_V and of G_UW is nonsingular (`gf.mds_check`), so any nu coordinates of
    each codeword fix its message."""
    return all(mds_check(g) for g in (scheme.g_v, scheme.g_uw) if g is not None)


def check_eta_independence(scheme: DeltaHintScheme) -> bool:
    """The r-parts of any eta hints are uniform and independent of (X, Y, W).

    The r-parts of hints e are U G_top[:, e] + (0 || W) G_UW[:, e], with U
    uniform on GF(2^r)^eta and G_top the top eta rows of G_UW.  Every
    eta x eta column submatrix of G_top is nonsingular (`gf.mds_check`) if
    and only if U -> U G_top[:, e] is a bijection for every e, that is, if
    and only if for every (x, y) the r-parts are uniform: the coset coding of
    Ozarow and Wyner's wire-tap channel II.
    """
    return scheme.eta == 0 or scheme.g_uw is None or mds_check(scheme.g_uw.first_rows(scheme.eta))


# ---------------------------------------------------------------------------
# Theorem verification.
# ---------------------------------------------------------------------------


def verify_disk_theorems(
    scheme: DeltaHintScheme, rho: float, version: str | None = None, instance: str = ""
) -> list[ReportRow]:
    return scheme.rows(rho, version, instance)


def unequal_converse_rows(
    joint: JointPmf, law: Law | SchemeCells, sizes: tuple, nu: int, eta: int, rho: float, instance: str = ""
) -> list[ReportRow]:
    """Converse floors for arbitrary schemes whose disk l stores sizes[l] bits.

    `law` is a `Law` with one hint column per disk, for any encoder (hint l
    must fit in sizes[l] bits), or a scheme of len(sizes) disks priced on its
    own cell views (a built `DeltaHintScheme`: its pad quotient, Eve reading
    the hints' public parts).  Bob's side is his best fixed subset,
    a lower bound on his min-max ambiguity for any law, so a pass is sound;
    Eve's is exact, and a law in which two realizations with the same x share
    one of her contexts is rejected with DomainError.
    """
    if isinstance(law, SchemeCells):
        bob_view, eve_view = law.bob_cells, law.eve_cells
    else:
        bob_view, eve_view = (law.view(list(combinations(range(len(sizes)), k))) for k in (nu, eta))
    h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
    nx = len(joint.x_alphabet)
    ssort = sorted(sizes)
    bob_lo = max(moment_for_constant(bob_view, k, rho) for k in range(math.comb(len(sizes), nu)))
    eve_val = eve_exact_matching(eve_view, rho)
    bob_conv_g = bob_converse(h, rho, 2 ** sum(ssort[:nu]), nx, "guessing")
    eve_conv = eve_converse(h, rho, 2 ** sum(ssort[: nu - eta]), bob_lo)
    suite = "disks-unequal"
    return [
        ReportRow(suite, instance, "bob-converse-unequal-g", ">=", bob_lo, bob_conv_g),
        ReportRow(suite, instance, "eve-converse-unequal", "<=", eve_val, eve_conv),
    ]


def equal_size_envelope_rows(
    sizes: tuple, nu: int, eta: int, rho: float, h: float, nx: int, grid: int = 5
) -> list[ReportRow]:
    """Equal disks match the unequal converse box up to explicit polylog factors.

    For sampled Bob targets b on the unequal converse frontier, some
    admissible split (p, r) of the equal scheme's s-bar bits guarantees
    Bob <= 1 + F*(b - 1 + base) and F * Eve-floor >= the frontier's Eve value,
    where F collects the delta^eta and (1 + ln|X|) factors.
    """
    delta = len(sizes)
    ssort = sorted(sizes)
    sbar = sum(sizes) // delta
    admissible_r = [r for r in range(sbar + 1) if _admissible(sbar - r, r, delta)]
    factor = (
        (2 * delta) ** (rho * eta)
        * (delta**eta * (1 + math.log(nx))) ** rho
        * 2 ** (rho * (nu + 2))
        * (1 + math.log(nx)) ** rho
    )
    b_floor = bob_converse(h, rho, 2 ** sum(ssort[:nu]), nx, "guessing")
    base = 2 ** (rho * (h - nu * sbar + 1))
    rows = []
    for t in range(grid):
        b = b_floor * 2 ** (rho * t)
        e = eve_converse(h, rho, 2 ** sum(ssort[: nu - eta]), b)
        ok = False
        for r in admissible_r:
            z, _, leak, _ = disk_sizes(delta, nu, eta, sbar, r)
            bob_rhs = bob_direct(h, rho, z, nx, "guessing")
            eve_floor = eve_direct(h, rho, leak, nx)
            if bob_rhs <= 1 + factor * max(b - 1, base) and factor * eve_floor >= e:
                ok = True
                break
        instance = f"sizes={sizes},rho={fmt(rho)},b-step={t}"
        rows.append(ReportRow("disks-envelope", instance, "equal-size-covers-corner", ">=", 1.0 if ok else 0.0, 1.0))
    return rows


# ---------------------------------------------------------------------------
# Parameter selection and asymptotics.
# ---------------------------------------------------------------------------


def choose_pr(
    u_bound: float,
    s: int,
    nu: int,
    eta: int,
    delta: int,
    renyi_value: float,
    rho: float,
    version: str = "guessing",
    nx: int | None = None,
) -> tuple[int, int]:
    """Pick an admissible (p, r) whose Bob direct bound is at most u_bound.

    The widest pad wins: r is the largest width with r and p = s - r each 0
    or at least ceil(log2 delta) whose descriptor of nu*s - eta*r bits fits
    `bounds.bob_direct` under u_bound; raises DomainError when none does.
    """
    if version == "list" and nx is None:
        raise DomainError("list version needs nx")

    def fits(r: int) -> bool:
        return bob_direct(renyi_value, rho, disk_sizes(delta, nu, eta, s, r)[0], nx, version) <= u_bound

    if not fits(0):
        raise DomainError("u_bound below the achievability threshold")
    r = max((r for r in range(s + 1) if _admissible(s - r, r, delta) and fits(r)), default=None)
    if r is None:
        raise DomainError(f"no admissible split for s={s}, delta={delta}")
    return s - r, r
