"""Coded multi-disk hint schemes robust to disk failures.

Alice describes (X, Y) by a pair (V, W), spreads V over delta disks with an
MDS code over GF(2^p), and spreads W together with a uniform pad U using
nested MDS codes over GF(2^r), so that any nu hints determine (V, W, U)
while any eta hints are exactly independent of W.  Each hint carries s = p + r
bits: the p-bit coordinate of the V-codeword then the r-bit coordinate of the
padded codeword.

Bob is shown the nu hints that maximize his ambiguity, Eve the eta hints that
minimize hers; both choices are made after the realization is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .adversary import Law, SchemeCells, eve_exact_matching, moment_for_constant, row_ids
from .bounds import bob_converse, bob_direct, disk_exponents, eve_converse, eve_direct  # disk_exponents is re-exported
from .gf import field_make, rs_generator
from .prob import DomainError, JointPmf, RenyiOrder, renyi_cond_entropy
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


@dataclass(frozen=True)
class DeltaHintScheme(SchemeCells):
    """Priced on the pad quotient: 2^(eta*r) pads per (x, y), Eve reading each hint's V-codeword coordinate."""

    joint: JointPmf
    delta: int
    nu: int
    eta: int
    s: int
    p: int
    r: int
    version: str
    descriptor: dict  # (x, y) -> (V tuple, W tuple)
    law: Law  # (x, y, hints tuple) -> prob

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

    @property
    def pads(self) -> int:
        return 1 << (self.eta * self.r)

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
    """Build the nested-MDS hint scheme for admissible (p, r)."""
    if not 0 <= eta < nu <= delta:
        raise DomainError(f"need 0 <= eta < nu <= delta, got eta={eta}, nu={nu}, delta={delta}")
    if p + r != s or not _admissible(p, r, delta):
        raise DomainError(f"need p + r = s with p and r each 0 or at least ceil(log2 delta), got p={p}, r={r}, s={s}")
    zmap = descriptor_map(joint, disk_sizes(delta, nu, eta, s, r)[0], version)  # nu*p + (nu-eta)*r bits
    rows = list(joint.support_items())
    z = np.array(list(zmap.values()), dtype=np.int64)
    v_sym, w_sym = _int_to_symbols(z >> ((nu - eta) * r), nu, p), _int_to_symbols(z, nu - eta, r)
    descriptor = dict(zip(zmap, zip(map(tuple, v_sym.tolist()), map(tuple, w_sym.tolist()))))

    # Both codes are linear, so encode(u || w) = encode(u || 0) XOR encode(0 || w).
    n_pad, zeros = 1 << (eta * r), np.zeros((len(z), delta), dtype=np.int64)
    v = rs_generator(nu, delta, field_make(p)).encode(v_sym) << r if p > 0 else zeros
    w, pads = zeros, np.zeros((1, delta), dtype=np.int64)
    if r > 0:
        g_uw = rs_generator(nu, delta, field_make(r))
        w = g_uw.encode(np.pad(w_sym, ((0, 0), (eta, 0))))
        pads = g_uw.encode(np.pad(_int_to_symbols(np.arange(n_pad), eta, r), ((0, 0), (0, nu - eta))))
        if any(len(np.unique(pads[:, list(e)], axis=0)) < n_pad for e in combinations(range(delta), eta)):
            raise DomainError("some eta hints do not fix the pad: Eve's pad quotient would not be exact")
    index = {key: i for i, key in enumerate(zmap)}
    at = np.array([index[(x, y)] for x, y, _ in rows], dtype=np.int64)
    hints = (v[at, None] | (pads[None] ^ w[at, None])).reshape(len(rows) * n_pad, delta)
    law = Law.spread(joint, rows, hints, n_pad, joint.exact, nested=True)
    return DeltaHintScheme(joint, delta, nu, eta, s, p, r, version, descriptor, law)


# ---------------------------------------------------------------------------
# Exact recovery / secrecy checks on the realized law, on integer-coded arrays.
# ---------------------------------------------------------------------------


def _sums(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-id sums, each added up in array order."""
    out = np.zeros(int(ids.max()) + 1, dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


def check_reconstruction(scheme: DeltaHintScheme) -> bool:
    """Every size-nu subset of hints determines (V, W, pad) on the support."""
    law, ids = scheme.law, {}
    if not len(law.mass):
        return True
    xy = row_ids(law.x, law.y)
    first = np.unique(xy, return_index=True)[1]
    desc = [ids.setdefault(scheme.descriptor[(law.xs[law.x[i]], law.ys[law.y[i]])], len(ids)) for i in first.tolist()]
    whole = row_ids(np.array(desc, dtype=np.int64)[xy], *law.hints.T)
    for b in combinations(range(scheme.delta), scheme.nu):
        shown = row_ids(law.y, *law.hints[:, b].T)
        if row_ids(shown, whole).max() != shown.max():  # some shown hints fit two realizations
            return False
    return True


def check_eta_independence(scheme: DeltaHintScheme) -> bool:
    """The r-parts of any eta hints are uniform and independent of (X, Y, W).

    Exact: conditional mass of each observed r-part tuple must be exactly
    2^(-eta*r) for every positive-mass (x, y).  A rational law compares
    integer numerators as Python ints, exact at any size; only a float law
    gets a tolerance.
    """
    if scheme.eta == 0:
        return True
    law = scheme.law
    if not len(law.mass):
        return True
    n_pad = 1 << (scheme.eta * scheme.r)
    mass = law.mass if law.scale is None else np.array(law.nums, dtype=object)
    xy = row_ids(law.x, law.y)
    total = _sums(xy, mass)
    rparts = scheme.split_hint(law.hints)[1]
    for e in combinations(range(scheme.delta), scheme.eta):
        group = row_ids(xy, *rparts[:, e].T)
        cond = _sums(group, mass)
        owner = np.empty(len(cond), dtype=np.int64)
        owner[group] = xy
        if law.scale is not None:
            ok = cond * n_pad == total[owner]
        else:
            want = 2.0 ** -(scheme.eta * scheme.r) * total[owner]
            ok = (cond == want) | (np.abs(cond - want) <= 1e-12)
        if not np.all(ok):
            return False
    return True


# ---------------------------------------------------------------------------
# Theorem verification.
# ---------------------------------------------------------------------------


def verify_disk_theorems(
    scheme: DeltaHintScheme, rho: float, version: str | None = None, instance: str = ""
) -> list[ReportRow]:
    return scheme.rows(rho, version, instance)


def unequal_converse_rows(
    joint: JointPmf, law: Law | dict, sizes: tuple, nu: int, eta: int, rho: float, instance: str = ""
) -> list[ReportRow]:
    """Converse floors for arbitrary schemes whose disk l stores sizes[l] bits.

    `law` is a `Law` or a dict (x, y, hints tuple) -> prob, for any encoder
    (hint l must fit in sizes[l] bits).  Bob's side is his best fixed subset,
    a lower bound on his min-max ambiguity for any law, so a pass is sound;
    Eve's is exact, and a law in which two realizations with the same x share
    one of her contexts is rejected with DomainError.
    """
    law = Law.coded(law)
    h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
    nx = len(joint.x_alphabet)
    ssort = sorted(sizes)
    bob_view = law.view(list(combinations(range(len(sizes)), nu)))
    bob_lo = max(moment_for_constant(bob_view, k, rho) for k in range(math.comb(len(sizes), nu)))
    eve_val = eve_exact_matching(law.view(list(combinations(range(len(sizes)), eta))), rho)
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
