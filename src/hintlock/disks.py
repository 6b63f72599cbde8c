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
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .adversary import (
    AmbiguityResult,
    Cell,
    bob_minmax_bracket,
    cells,
    eve_ambiguity,
    support_moment,
)
from .adversary import eve_exact_matching  # noqa: F401  (re-exported: perfbench reaches the oracle here)
from .bounds import (
    ExponentOutcome,
    bob_converse,
    bob_direct,
    eve_converse,
    eve_direct,
    list_room,
    privacy_exponent,
    theorem_rows,
)
from .gf import field_make, rs_generator
from .guessing import grouped_moment
from .prob import (
    BudgetExceededError,
    DomainError,
    JointPmf,
    RenyiOrder,
    common_denominator,
    renyi_cond_entropy,
)
from .report import ReportRow
from .tasks import descriptor_map


def _admissible_pr(p: int, r: int, s: int, delta: int) -> None:
    if p + r != s:
        raise DomainError(f"need p + r = s, got {p}+{r} != {s}")
    need = math.ceil(math.log2(delta))
    for name, v in (("p", p), ("r", r)):
        if v != 0 and v < need:
            raise DomainError(f"{name}={v} must be 0 or at least ceil(log2 delta)={need}")


@dataclass(frozen=True)
class DeltaHintScheme:
    joint: JointPmf
    delta: int
    nu: int
    eta: int
    s: int
    p: int
    r: int
    version: str
    descriptor: dict  # (x, y) -> (V tuple, W tuple)
    law: dict  # (x, y, hints tuple) -> prob

    @cached_property
    def bob_cells(self) -> list[Cell]:
        return cells(self.law, _subset_views("B", self.delta, self.nu))

    @cached_property
    def eve_cells(self) -> list[Cell]:
        return cells(self.law, _subset_views("E", self.delta, self.eta))

    def share_blob(self, hints: tuple) -> bytes:
        width = max(1, (self.s + 7) // 8)
        return b"".join(int(h).to_bytes(width, "big") for h in hints)

    def unpack_blob(self, blob: bytes) -> tuple:
        width = max(1, (self.s + 7) // 8)
        vals = [int.from_bytes(blob[i * width : (i + 1) * width], "big") for i in range(self.delta)]
        return tuple(vals)

    def split_hint(self, h: int) -> tuple[int, int]:
        return h >> self.r, h & ((1 << self.r) - 1)


def _subset_views(tag: str, delta: int, size: int):
    """Views of a law keyed (x, y, hints): one context per size-`size` hint subset."""
    subsets = list(combinations(range(delta), size))
    return lambda key: tuple((tag, b, key[1], tuple(key[2][i] for i in b)) for b in subsets)


def _int_to_symbols(z: int, count: int, bits: int) -> tuple:
    """Big-endian split of an integer into `count` field symbols of `bits` bits."""
    if bits == 0 or count == 0:
        return (0,) * count
    out = []
    for i in range(count):
        shift = bits * (count - 1 - i)
        out.append((z >> shift) & ((1 << bits) - 1))
    return tuple(out)


def build_delta_scheme(
    joint: JointPmf,
    delta: int,
    nu: int,
    eta: int,
    s: int,
    p: int,
    r: int,
    version: str = "guessing",
    budget: int = 1 << 22,
) -> DeltaHintScheme:
    """Build the nested-MDS hint scheme for admissible (p, r)."""
    if not 0 <= eta < nu <= delta:
        raise DomainError(f"need 0 <= eta < nu <= delta, got eta={eta}, nu={nu}, delta={delta}")
    _admissible_pr(p, r, s, delta)
    desc_bits = nu * s - eta * r  # = nu*p + (nu-eta)*r
    if version == "list" and not list_room(2**desc_bits, len(joint.x_alphabet)):
        raise DomainError("list version needs 2^(nu*s - eta*r) > log2|X| + 2")
    support = sum(1 for row in joint.table for v in row if v > 0)
    if support << (eta * r) > budget:
        raise BudgetExceededError("realized support exceeds the enumeration budget")

    zmap = descriptor_map(joint, 1 << desc_bits, version)

    fp = field_make(p) if p > 0 else None
    fr = field_make(r) if r > 0 else None
    g_v = rs_generator(nu, delta, fp) if p > 0 else None
    g_uw = rs_generator(nu, delta, fr) if r > 0 else None

    w_bits = (nu - eta) * r
    descriptor: dict = {}
    for key, z in zmap.items():
        v_sym = _int_to_symbols(z >> w_bits, nu, p)
        w_sym = _int_to_symbols(z & ((1 << w_bits) - 1), nu - eta, r)
        descriptor[key] = (v_sym, w_sym)

    n_pad = 1 << (eta * r)
    inv_pad = Fraction(1, n_pad) if joint.exact else 1.0 / n_pad
    # Both codes are linear, so encode(u || w) = encode(u || 0) XOR encode(0 || w):
    # each pad and each distinct V or W symbol tuple is encoded once.
    def encode(g, sym: tuple) -> np.ndarray:
        return g.encode(np.array(sym)) if g is not None else np.zeros(delta, dtype=np.int64)

    pad_parts = np.array([encode(g_uw, _int_to_symbols(i, eta, r) + (0,) * (nu - eta)) for i in range(n_pad)])
    v_parts: dict = {}
    w_parts: dict = {}
    law: dict = {}
    for x, y, prob in joint.support_items():
        v_sym, w_sym = descriptor[(x, y)]
        if v_sym not in v_parts:
            v_parts[v_sym] = encode(g_v, v_sym) << r
        if w_sym not in w_parts:
            w_parts[w_sym] = encode(g_uw, (0,) * eta + w_sym)
        mass = prob * inv_pad
        for hints in (v_parts[v_sym] | (pad_parts ^ w_parts[w_sym])).tolist():
            law[(x, y, tuple(hints))] = mass
    return DeltaHintScheme(joint, delta, nu, eta, s, p, r, version, descriptor, law)


# ---------------------------------------------------------------------------
# Exact recovery / secrecy checks on the realized law, on integer-coded arrays.
# ---------------------------------------------------------------------------


def _support(scheme: DeltaHintScheme) -> tuple[list, np.ndarray, list, int | None]:
    """Positive-mass keys, their hints as a matrix, their masses (`common_denominator`)."""
    nums, scale = common_denominator(scheme.law.values())
    keys = [key for key, n in zip(scheme.law, nums) if n > 0]
    hints = np.array([key[2] for key in keys], dtype=np.int64).reshape(len(keys), scheme.delta)
    return keys, hints, [n for n in nums if n > 0], scale


def _ids(values) -> np.ndarray:
    """First-seen integer ids of hashable values."""
    ids: dict = {}
    return np.array([ids.setdefault(v, len(ids)) for v in values], dtype=np.int64)


def _row_ids(*columns: np.ndarray) -> np.ndarray:
    """Dense ids 0..k-1 of the rows of nonnegative integer columns: equal rows, equal ids."""
    ids = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        ids = np.unique(ids * (int(col.max()) + 1) + col, return_inverse=True)[1]
    return ids


def _sums(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-id sums, each added up in array order."""
    out = np.zeros(int(ids.max()) + 1, dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


def check_reconstruction(scheme: DeltaHintScheme) -> bool:
    """Every size-nu subset of hints determines (V, W, pad) on the support."""
    keys, hints, _, _ = _support(scheme)
    if not keys:
        return True
    y = _ids(key[1] for key in keys)
    whole = _row_ids(_ids(scheme.descriptor[key[:2]] for key in keys), *hints.T)
    for b in combinations(range(scheme.delta), scheme.nu):
        shown = _row_ids(y, *hints[:, b].T)
        if _row_ids(shown, whole).max() != shown.max():  # some shown hints fit two realizations
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
    keys, hints, masses, scale = _support(scheme)
    if not keys:
        return True
    n_pad = 1 << (scheme.eta * scheme.r)
    mass = np.array(masses, dtype=float if scale is None else object)
    xy = _ids(key[:2] for key in keys)
    total = _sums(xy, mass)
    rparts = scheme.split_hint(hints)[1]
    for e in combinations(range(scheme.delta), scheme.eta):
        group = _row_ids(xy, *rparts[:, e].T)
        cond = _sums(group, mass)
        owner = np.empty(len(cond), dtype=np.int64)
        owner[group] = xy
        if scale is not None:
            ok = cond * n_pad == total[owner]
        else:
            want = 2.0 ** -(scheme.eta * scheme.r) * total[owner]
            ok = (cond == want) | (np.abs(cond - want) <= 1e-12)
        if not np.all(ok):
            return False
    return True


# ---------------------------------------------------------------------------
# Ambiguities.
# ---------------------------------------------------------------------------


def bob_ambiguity_minmax(scheme: DeltaHintScheme, rho: float, version: str | None = None) -> AmbiguityResult:
    """Bob's min-max ambiguity; exact for the list version and whenever the
    per-subset-optimal bracket closes (it does for every built scheme)."""
    version = version or scheme.version
    if version == "list":
        val = support_moment(scheme.bob_cells, rho, max)
        return AmbiguityResult(val, val, val, "exact-list")
    lower, upper = bob_minmax_bracket(scheme.bob_cells, rho)
    if upper - lower <= 1e-12 * max(1.0, upper):
        return AmbiguityResult(upper, lower, upper, "bracket-closed")
    return AmbiguityResult(None, lower, upper, "bracket")


def eve_ambiguity_minmin(scheme: DeltaHintScheme, rho: float) -> AmbiguityResult:
    """Eve's exact min-min ambiguity, or a certified bracket when over budget."""
    return eve_ambiguity(scheme.eve_cells, rho, lambda: _eve_floor(scheme, rho))


def _eve_floor(scheme: DeltaHintScheme, rho: float) -> float:
    """Certified lower bound on Eve when the exact oracles are out of budget.

    Revealing the accomplice's subset index and eta hints multiplies the
    moment by at most (#subsets * 2^(eta*s))^-rho; evaluated on the moment of
    (X, hints) given Y, which refines (X, pad) because the hints are a
    function of (x, y, pad), and eta hints pin the pad given (X, Y) through
    the top MDS rows.
    """
    pair = grouped_moment(((y, (x, m), float(p)) for (x, y, m), p in scheme.law.items() if p > 0), rho)
    reveal = math.comb(scheme.delta, scheme.eta) * 2 ** (scheme.eta * scheme.s)
    return max(1.0, reveal ** (-rho) * pair)


# ---------------------------------------------------------------------------
# Theorem verification.
# ---------------------------------------------------------------------------


def verify_disk_theorems(
    scheme: DeltaHintScheme, rho: float, version: str | None = None, instance: str = ""
) -> list[ReportRow]:
    version = version or scheme.version
    delta, nu, eta, s, r = scheme.delta, scheme.nu, scheme.eta, scheme.s, scheme.r
    bob = bob_ambiguity_minmax(scheme, rho, version)
    eve = eve_ambiguity_minmin(scheme, rho)
    note = "" if (bob.exact and eve.exact) else "bounds-only sides flagged"
    # (z, m, leak, secret): Bob decodes nu*s - eta*r of his nu*s bits; Eve's
    # eta hints leak their eta*p bits and which of at most delta^eta index
    # tuples they are; (nu - eta)*s bits stay hidden from her.
    sizes = (2 ** (nu * s - eta * r), 2 ** (nu * s), delta**eta * 2 ** (eta * (s - r)), 2 ** ((nu - eta) * s))
    suite = f"disks-{version}"
    return theorem_rows(suite, instance, scheme.joint, rho, version, bob.bracket, eve.bracket, sizes, note)


def verify_unequal_converse(
    joint: JointPmf,
    law: dict,
    sizes: tuple,
    nu: int,
    eta: int,
    rho: float,
    instance: str = "",
) -> list[ReportRow]:
    """Converse floors for arbitrary schemes whose disk l stores sizes[l] bits.

    `law` maps (x, y, hints tuple) -> prob for any encoder (hint l must fit in
    sizes[l] bits).  Uses certifiable sides of the ambiguity brackets, so a
    pass is always sound.
    """
    delta = len(sizes)
    h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
    nx = len(joint.x_alphabet)
    ssort = sorted(sizes)
    bob_lo, _ = bob_minmax_bracket(cells(law, _subset_views("B", delta, nu)), rho)
    eve = eve_ambiguity(cells(law, _subset_views("E", delta, eta)), rho, lambda: 1.0)
    eve_val = eve.upper  # certified side for the "<=" check
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
    need = math.ceil(math.log2(delta))
    admissible_r = [0] + [r for r in range(need, sbar - need + 1)] + ([sbar] if sbar >= need else [])
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
            bob_rhs = bob_direct(h, rho, 2 ** (nu * sbar - eta * r), nx, "guessing")
            eve_floor = eve_direct(h, rho, delta**eta * 2 ** (eta * (sbar - r)), nx)
            if bob_rhs <= 1 + factor * max(b - 1, base) and factor * eve_floor >= e:
                ok = True
                break
        rows.append(
            ReportRow(
                "disks-envelope",
                f"sizes={sizes},b-step={t}",
                "equal-size-covers-corner",
                ">=",
                1.0 if ok else 0.0,
                1.0,
            )
        )
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
        return bob_direct(renyi_value, rho, 2 ** (nu * s - eta * r), nx, version) <= u_bound

    if not fits(0):
        raise DomainError("u_bound below the achievability threshold")
    need = math.ceil(math.log2(delta))
    admissible = [r for r in range(s + 1) if all(v == 0 or v >= need for v in (r, s - r))]
    r = max((r for r in admissible if fits(r)), default=None)
    if r is None:
        raise DomainError(f"no admissible split for s={s}, delta={delta}")
    return s - r, r


def disk_exponents(
    rate_s: float, nu: int, eta: int, rho: float, entropy_rate: float, e_bob: float | None = None
) -> ExponentOutcome:
    """Privacy exponent (or modest variant) for per-disk rate rate_s."""
    if rate_s < 0:
        raise DomainError("rate_s must be >= 0")
    return privacy_exponent(nu * rate_s, rate_s * (nu - eta), rho, entropy_rate, e_bob)
