"""Finite probability spaces and conditional Renyi entropy.

Probabilities are backed either by float64 (default, tolerance 1e-9) or by
exact `fractions.Fraction` (rational mode).  Rational mode matters wherever
exact zeros decide supports: decoding lists, independence checks, and pad
secrecy all compare against exact zero, never against a tolerance.

All entropies are in bits (log base 2).  The conditional Renyi entropy of
order alpha is

    H_alpha(X|Y) = alpha/(1-alpha) * log2( sum_y ( sum_x P(x,y)^alpha )^(1/alpha) )

with the orders 0, 1 and infinity given by their explicit limit expressions
rather than numerical limits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

NORM_TOL = 1e-9

Number = float | Fraction


class DomainError(ValueError):
    """Parameter outside its mathematical domain (e.g. alpha < 0)."""


class NormalizationError(ValueError):
    """Probabilities negative or not summing to one."""


class AlphabetMismatchError(ValueError):
    """Two distributions live on different alphabets."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


def common_denominator(masses) -> tuple[list, int | None]:
    """(numerators, denominator): rational masses over their least common
    denominator, to sum and compare exactly at integer speed; (masses, None)
    if any mass is a float."""
    masses = list(masses)
    if not all(isinstance(p, (Fraction, int)) for p in masses):
        return masses, None
    scale = math.lcm(*{p.denominator for p in masses})
    return [p.numerator * (scale // p.denominator) for p in masses], scale


def _check_probs(probs: Sequence[Number], exact: bool) -> None:
    if exact and any(isinstance(p, float) for p in probs):
        raise NormalizationError("table mixes Fraction and float entries; use one kind")
    total = sum(probs)
    for p in probs:
        if p < 0:
            raise NormalizationError(f"negative probability {p}")
    if exact:
        if total != 1:
            raise NormalizationError(f"probabilities sum to {total}, not 1 (rational mode)")
    elif abs(float(total) - 1.0) > NORM_TOL:
        raise NormalizationError(f"probabilities sum to {float(total)!r}, not 1")


def _as_number(v: Any, exact: bool) -> Number:
    if exact:
        return v if isinstance(v, Fraction) else Fraction(str(v) if isinstance(v, float) else v)
    return float(v)


@dataclass(frozen=True)
class Pmf:
    """A probability mass function on a finite list of opaque symbols."""

    symbols: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "probs", tuple(self.probs))
        if len(self.symbols) != len(self.probs):
            raise NormalizationError("symbols and probs differ in length")
        if len(set(self.symbols)) != len(self.symbols):
            raise NormalizationError("duplicate symbol ids")
        _check_probs(self.probs, self.exact)

    @property
    def exact(self) -> bool:
        return any(isinstance(p, Fraction) for p in self.probs)

    @classmethod
    def of(cls, probs: Sequence, symbols: Sequence | None = None, exact: bool = False) -> "Pmf":
        sym = tuple(symbols) if symbols is not None else tuple(range(len(probs)))
        return cls(sym, tuple(_as_number(p, exact) for p in probs))

    @classmethod
    def uniform(cls, n: int, exact: bool = False) -> "Pmf":
        p = Fraction(1, n) if exact else 1.0 / n
        return cls(tuple(range(n)), (p,) * n)

    def prob(self, symbol) -> Number:
        return self.probs[self.symbols.index(symbol)]

    def support(self) -> tuple:
        return tuple(s for s, p in zip(self.symbols, self.probs) if p > 0)

    def to_json(self) -> str:
        if self.exact:
            p = [str(x) for x in self.probs]
        else:
            p = list(self.probs)
        return json.dumps({"x": list(self.symbols), "p": p})

    @classmethod
    def from_json(cls, text: str) -> "Pmf":
        doc = json.loads(text)
        probs = [Fraction(v) if isinstance(v, str) else float(v) for v in doc["p"]]
        return cls(tuple(doc["x"]), tuple(probs))


@dataclass(frozen=True)
class JointPmf:
    """A joint PMF on X x Y stored as a dense |X| x |Y| table."""

    x_alphabet: tuple
    y_alphabet: tuple
    table: tuple  # tuple of rows, one per x; each row a tuple over y

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet", tuple(self.x_alphabet))
        object.__setattr__(self, "y_alphabet", tuple(self.y_alphabet))
        object.__setattr__(self, "table", tuple(tuple(r) for r in self.table))
        if len(set(self.x_alphabet)) != len(self.x_alphabet):
            raise NormalizationError("duplicate x symbols")
        if len(set(self.y_alphabet)) != len(self.y_alphabet):
            raise NormalizationError("duplicate y symbols")
        if len(self.table) != len(self.x_alphabet) or any(
            len(r) != len(self.y_alphabet) for r in self.table
        ):
            raise NormalizationError("table shape does not match alphabets")
        _check_probs([p for row in self.table for p in row], self.exact)

    @property
    def exact(self) -> bool:
        return any(isinstance(p, Fraction) for row in self.table for p in row)

    @classmethod
    def of(cls, table: Sequence[Sequence], x_alphabet=None, y_alphabet=None, exact=False) -> "JointPmf":
        nx, ny = len(table), len(table[0])
        xa = tuple(x_alphabet) if x_alphabet is not None else tuple(range(nx))
        ya = tuple(y_alphabet) if y_alphabet is not None else tuple(range(ny))
        return cls(xa, ya, tuple(tuple(_as_number(p, exact) for p in row) for row in table))

    @classmethod
    def from_marginal(cls, pmf: Pmf) -> "JointPmf":
        """Embed a marginal PMF as a joint with a null (single-symbol) Y."""
        return cls(pmf.symbols, (0,), tuple((p,) for p in pmf.probs))

    def prob(self, x, y) -> Number:
        return self.table[self.x_alphabet.index(x)][self.y_alphabet.index(y)]

    def support_items(self):
        """(x, y, P(x, y)) for every positive-mass pair, x-major."""
        for x, row in zip(self.x_alphabet, self.table):
            for y, p in zip(self.y_alphabet, row):
                if p > 0:
                    yield x, y, p

    def y_column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.table)

    def to_json(self) -> str:
        if self.exact:
            p = [[str(v) for v in row] for row in self.table]
        else:
            p = [list(row) for row in self.table]
        return json.dumps({"x": list(self.x_alphabet), "y": list(self.y_alphabet), "p": p})

    @classmethod
    def from_json(cls, text: str) -> "JointPmf":
        doc = json.loads(text)
        table = tuple(
            tuple(Fraction(v) if isinstance(v, str) else float(v) for v in row) for row in doc["p"]
        )
        return cls(tuple(doc["x"]), tuple(doc["y"]), table)


@dataclass(frozen=True)
class RenyiOrder:
    """A Renyi order alpha in [0, inf]; alpha = 1/(1+rho) when used as a tilt."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0):
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")

    @classmethod
    def from_rho(cls, rho: float) -> "RenyiOrder":
        if not rho > 0:
            raise DomainError(f"rho must be > 0, got {rho}")
        return cls(1.0 / (1.0 + rho))

    @property
    def rho(self) -> float:
        if not (0 < self.alpha < 1):
            raise DomainError("rho is defined only for alpha in (0,1)")
        return 1.0 / self.alpha - 1.0


def _coerce_order(alpha) -> float:
    if isinstance(alpha, RenyiOrder):
        return alpha.alpha
    a = float(alpha)
    if not (a >= 0):
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    return a


def renyi_cond_entropy(joint: JointPmf, alpha) -> float:
    """Conditional Renyi entropy H_alpha(X|Y) in bits.

    Orders 0, 1 and infinity use their explicit limits: log of the largest
    per-context support size, the Shannon conditional entropy, and
    -log2 sum_y max_x P(x,y) respectively.  Zero-probability symbols never
    contribute to the sums.
    """
    a = _coerce_order(alpha)
    ny = len(joint.y_alphabet)
    cols = [[float(p) for p in joint.y_column(j)] for j in range(ny)]
    if a == 1.0:
        return shannon_cond_entropy(joint)
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


def shannon_cond_entropy(joint: JointPmf) -> float:
    """H(X|Y) in bits, with 0 log 0 = 0."""
    h = 0.0
    for j in range(len(joint.y_alphabet)):
        col = [float(p) for p in joint.y_column(j)]
        py = sum(col)
        if py <= 0:
            continue
        for p in col:
            if p > 0:
                h -= p * math.log2(p / py)
    return h


def kl_divergence(q: JointPmf | Pmf, p: JointPmf | Pmf) -> float:
    """D(q || p) in bits; +inf if q is not absolutely continuous w.r.t. p."""
    if isinstance(q, Pmf) != isinstance(p, Pmf):
        raise AlphabetMismatchError("cannot mix Pmf and JointPmf")
    if isinstance(q, Pmf):
        if q.symbols != p.symbols:
            raise AlphabetMismatchError("different alphabets")
        pairs = zip(q.probs, p.probs)
    else:
        if q.x_alphabet != p.x_alphabet or q.y_alphabet != p.y_alphabet:
            raise AlphabetMismatchError("different alphabets")
        pairs = zip(
            (v for row in q.table for v in row),
            (v for row in p.table for v in row),
        )
    div = 0.0
    for qv, pv in pairs:
        qf, pf = float(qv), float(pv)
        if qf == 0.0:
            continue
        if pf == 0.0:
            return math.inf
        div += qf * math.log2(qf / pf)
    return div


def tuple_alphabet(alphabet, n: int) -> tuple:
    """All n-tuples over `alphabet`, in lexicographic order of positions."""
    out = [()]
    for _ in range(n):
        out = [t + (s,) for t in out for s in alphabet]
    return tuple(out)


def product_pmf(joint: JointPmf, n: int, budget: int = 1 << 22) -> JointPmf:
    """The n-fold IID product, on n-tuple alphabets.

    Raises BudgetExceededError if the product table would exceed `budget`
    cells.  Satisfies H_alpha(X^n|Y^n) = n * H_alpha(X|Y).
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    nx, ny = len(joint.x_alphabet), len(joint.y_alphabet)
    if (nx * ny) ** n > budget:
        raise BudgetExceededError(f"({nx}*{ny})^{n} cells exceed budget {budget}")
    if n == 1:
        return joint

    xt = tuple_alphabet(joint.x_alphabet, n)
    yt = tuple_alphabet(joint.y_alphabet, n)
    xi = {s: i for i, s in enumerate(joint.x_alphabet)}
    yi = {s: i for i, s in enumerate(joint.y_alphabet)}
    one: Number = Fraction(1) if joint.exact else 1.0
    table = []
    for xs in xt:
        row = []
        for ys in yt:
            p = one
            for a, b in zip(xs, ys):
                p = p * joint.table[xi[a]][yi[b]]
            row.append(p)
        table.append(tuple(row))
    return JointPmf(tuple(xt), tuple(yt), tuple(table))


def validate(obj) -> list[str]:
    """Diagnostics for a mapping {'x':..., 'p':...} or {'x','y','p'}; [] if ok.

    Unlike the constructors this never raises: it reports fields that are not
    lists, columns that miss 'y', masses that are not numbers, negative mass,
    normalization gaps beyond 1e-9, and duplicate symbols as strings.
    """
    issues: list[str] = []
    if isinstance(obj, (Pmf, JointPmf)):
        return issues
    x = obj.get("x")
    p = obj.get("p")
    if x is None or p is None:
        return ["missing 'x' or 'p' field"]
    if not isinstance(x, (list, tuple)) or not isinstance(p, (list, tuple)):
        return ["'x' and 'p' must be lists"]
    y = obj.get("y")
    if y not in (None, []):
        if not isinstance(y, (list, tuple)):
            return ["'y' must be a list"]
        if not all(isinstance(row, (list, tuple)) and len(row) == len(y) for row in p):
            return [f"'p' must be a table with one column per 'y' symbol ({len(y)})"]
    if len(set(map(repr, x))) != len(x):
        issues.append("duplicate symbol ids in 'x'")
    flat: list[float] = []
    try:
        if p and isinstance(p[0], (list, tuple)):
            for row in p:
                flat.extend(float(Fraction(v)) if isinstance(v, str) else float(v) for v in row)
        else:
            flat = [float(Fraction(v)) if isinstance(v, str) else float(v) for v in p]
    except (TypeError, ValueError, ZeroDivisionError):
        return issues + ["'p' holds a mass that is not a number"]
    for v in flat:
        if v < 0:
            issues.append(f"negative mass {v}")
    gap = abs(sum(flat) - 1.0)
    if gap > NORM_TOL:
        issues.append(f"normalization gap {gap:.3e} exceeds {NORM_TOL}")
    return issues
