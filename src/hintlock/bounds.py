"""The right-hand sides of the scheme theorems, written once.

Every scheme's theorem is the same four inequalities on Bob's and Eve's
ambiguities, with h = H_{1/(1+rho)}(X|Y) in bits: Bob's direct bound for a
descriptor of z values (task-encoding and guessing: Bunte-Lapidoth 2014,
Arikan 1996), Bob's converse when all he is shown takes m values, Eve's
direct bound when her view leaks `leak` values, and Eve's converse when
`secret` values stay hidden from her.  Only these four cardinalities change
from scheme to scheme, and the privacy exponents only Bob's and Eve's rates
(`two_hint_exponents` and `disk_exponents` state them for the two schemes).
Bob's two bounds are also Bunte-Lapidoth's task-encoding bounds
(`bunte_bounds`), which with Fact 1's census (`fact1_census`) are all that
`hintlock task` runs.
"""

from __future__ import annotations

import math

from .prob import DomainError, JointPmf, RenyiOrder, record, renyi_cond_entropy, replace
from .report import ReportRow


def list_room(z: int, nx: int) -> bool:
    """True when z > log2|X| + 2, the room the list version's direct bound needs."""
    return z > math.log2(nx) + 2


def bob_direct(h: float, rho: float, z: int, nx: int | None, version: str) -> float:
    """Bob's ambiguity is below this for a descriptor of z values (list: inf without `list_room`)."""
    if version == "guessing":
        return 1 + 2 ** (rho * (h - math.log2(z) + 1))
    if not list_room(z, nx):
        return math.inf
    return 1 + 2 ** (rho * (h - math.log2(z - math.log2(nx) - 2) + 2))


def bob_converse(h: float, rho: float, m: int, nx: int, version: str) -> float:
    """Bob's ambiguity is at least this when all he is shown takes m values."""
    if version == "guessing":
        return max(1.0, (1 + math.log(nx)) ** (-rho) * 2 ** (rho * (h - math.log2(m))))
    return max(1.0, 2 ** (rho * (h - math.log2(m))))


def eve_direct(h: float, rho: float, leak: int, nx: int) -> float:
    """Eve's guessing ambiguity is at least this when her view leaks `leak` values."""
    return (1 + math.log(nx)) ** (-rho) * 2 ** (rho * (h - math.log2(leak)))


def eve_converse(h: float, rho: float, secret: int, bob: float) -> float:
    """Eve's ambiguity is at most this when `secret` values hide X beyond Bob's `bob`."""
    return min(secret**rho * bob, 2 ** (rho * h))


def bunte_bounds(joint: JointPmf, z_count: int, rho: float) -> tuple[float | None, float]:
    """(achievability RHS or None, converse floor) for |Z|-ary task-encoding.

    The achievability bound applies only when |Z| > log2|X| + 2; otherwise it
    is returned as None.  The converse holds for every stochastic encoder.
    """
    if not rho > 0:
        raise DomainError("rho must be > 0")
    h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
    nx = len(joint.x_alphabet)
    ach = bob_direct(h, rho, z_count, nx, "list") if list_room(z_count, nx) else None
    return ach, bob_converse(h, rho, z_count, nx, "list")


def fact1_census(k: int) -> int:
    """|{m >= 1 : floor(log2 m) = floor(log2 k)}| = 2^floor(log2 k), always <= k."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    count = 2 ** math.floor(math.log2(k))
    assert count <= k
    return count


def theorem_rows(
    suite: str, instance: str, joint: JointPmf, rho: float, version: str, bob: float, eve: float, sizes: tuple
) -> list[ReportRow]:
    """The four theorem rows for Bob's and Eve's exact ambiguities.

    `sizes` is the scheme's (z, m, leak, secret); Eve's converse rides on Bob's value.
    """
    h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
    nx = len(joint.x_alphabet)
    z, m, leak, secret = sizes
    checks = [
        ("bob-direct", "<", bob, bob_direct(h, rho, z, nx, version)),
        ("eve-direct", ">=", eve, eve_direct(h, rho, leak, nx)),
        ("bob-converse", ">=", bob, bob_converse(h, rho, m, nx, version)),
        ("eve-converse", "<=", eve, eve_converse(h, rho, secret, bob)),
    ]
    tag = version[0]  # g / l
    return [ReportRow(suite, instance, f"{c}-{tag}", rel, lhs, rhs) for c, rel, lhs, rhs in checks]


@record
class ExponentOutcome:
    value: float  # -inf when Bob's constraint cannot be met
    witness: tuple | None  # (rate_pad, rate_1, rate_2) splitting, when achievable
    boundary: bool = False  # True when the rate sum sits exactly on the threshold


def privacy_exponent(
    bob_rate: float, eve_rate: float, rho: float, h: float, e_bob: float | None = None
) -> ExponentOutcome:
    """Privacy exponent (e_bob None) or modest privacy exponent, entropy rate h.

    Bob reads `bob_rate` bits per source symbol and `eve_rate` of them stay
    hidden from Eve.  The plain exponent is undetermined exactly at
    bob_rate = h; that input returns the achievable-side value with
    `boundary=True`.
    """
    if rho <= 0 or h < 0:
        raise DomainError("rho must be > 0 and the entropy rate >= 0")
    if e_bob is None:
        if bob_rate < h:
            return ExponentOutcome(-math.inf, None)
        return ExponentOutcome(rho * min(eve_rate, h), None, bob_rate == h)
    if e_bob < 0:
        raise DomainError("e_bob must be >= 0")
    if bob_rate < h - e_bob / rho:
        return ExponentOutcome(-math.inf, None)
    return ExponentOutcome(min(rho * eve_rate + e_bob, rho * h), None, False)


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


def disk_exponents(
    rate_s: float, nu: int, eta: int, rho: float, entropy_rate: float, e_bob: float | None = None
) -> ExponentOutcome:
    """Privacy exponent (or modest variant) for per-disk rate rate_s."""
    if rate_s < 0:
        raise DomainError("rate_s must be >= 0")
    if not 0 <= eta < nu:
        raise DomainError(f"need 0 <= eta < nu, got eta={eta}, nu={nu}")
    return privacy_exponent(nu * rate_s, rate_s * (nu - eta), rho, entropy_rate, e_bob)
