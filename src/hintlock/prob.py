"""Finite probability spaces and conditional Renyi entropy.

Probabilities are backed either by float64 (default, tolerance 1e-9) or by
exact `fractions.Fraction` (rational mode).  Rational mode matters wherever
exact zeros decide supports: decoding lists, independence checks, and pad
secrecy all compare against exact zero, never against a tolerance.  So a
`JointPmf`'s `table` is exact and decides supports.  What the schemes and
theorem rows read of a source is computed once, on first read, and kept on
the `JointPmf` (arrays read-only): `columns`, float(p) per entry (a positive
Fraction below the float range is 0.0) as Python floats per context, which
the entropies and the guessing layer read; `masses`, the same as a numpy
array; `ranks`, the optimal guesser's; `support`, the positive-mass cells as
numpy arrays, over which every scheme builder works; `numerators`, the
support's masses over one denominator; and `entropies`, by order.  This
module imports numpy only when `masses` or `support` is first read, so the
source side runs without it.

The package's frozen records (`Pmf`, `JointPmf` and the like in every
module) are made by `record`, not `dataclasses.dataclass`.  A cold `hintlock`
command is mostly interpreter start and imports, and `dataclasses` costs it
twice: its import loads `inspect`, `ast`, `dis` and `tokenize`, and each class
it decorates `exec`s its generated methods.  `replace` stands in for
`dataclasses.replace`.

All entropies are in bits (log base 2).  The conditional Renyi entropy of
order alpha is

    H_alpha(X|Y) = alpha/(1-alpha) * log2( sum_y ( sum_x P(x,y)^alpha )^(1/alpha) )

with the orders 0, 1 and infinity given by their explicit limit expressions
rather than numerical limits.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    import numpy as np

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


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def record(cls):
    """Make `cls` a frozen record of its annotated fields, in order.

    As `dataclass(frozen=True)` would: `__init__` takes the fields by position
    or keyword, a class attribute is a field's default, and `__post_init__`
    runs last; `==` and `hash` read the fields' values, `==` only against the
    same class; `repr` is `Name(field=...)`; setting or deleting an attribute
    raises `AttributeError` (`object.__setattr__` and `cached_property` write
    past it).  Unannotated class attributes stay class attributes.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    values = attrgetter(*names)  # one field's value itself, not a 1-tuple

    def bind(args, kwargs) -> dict:  # every field by name, or TypeError
        given = dict(zip(names, args))
        if len(args) > len(names) or not given.keys().isdisjoint(kwargs) or not kwargs.keys() <= set(names):
            raise TypeError(f"{cls.__name__}{names} got {len(args)} fields by position and {sorted(kwargs)} by keyword")
        bound = {**defaults, **given, **kwargs}
        if len(bound) < len(names):
            raise TypeError(f"{cls.__name__}() is missing {[n for n in names if n not in bound]}")
        return bound

    def __init__(self, *args, **kwargs):
        self.__dict__.update(bind(args, kwargs) if kwargs or len(args) != len(names) else zip(names, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    cls._fields = names
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    """A copy of record `obj` with `changes`, built and validated again by its `__init__`."""
    return type(obj)(**{n: getattr(obj, n) for n in obj._fields} | changes)


def common_denominator(masses) -> tuple[tuple, int | None]:
    """(numerators, denominator): rational masses over their least common
    denominator, to sum and compare exactly at integer speed; (masses, None)
    if any mass is a float."""
    masses = tuple(masses)
    if not all(isinstance(p, (Fraction, int)) for p in masses):
        return masses, None
    scale = math.lcm(*{p.denominator for p in masses})
    return tuple(p.numerator * (scale // p.denominator) for p in masses), scale


def rank_row(order) -> tuple:
    """Ranks 1..n of the indices 0..n-1 when they are guessed in `order`."""
    row = [0] * len(order)
    for r, i in enumerate(order, start=1):
        row[i] = r
    return tuple(row)


def _check_probs(probs: Sequence[Number], exact: bool) -> None:
    if exact and any(isinstance(p, float) for p in probs):
        raise NormalizationError("table mixes Fraction and float entries; use one kind")
    total = sum(probs)
    for p in probs:
        if not p >= 0:  # NaN fails this too
            raise NormalizationError(f"probability {p} is not a nonnegative number")
    if exact:
        if total != 1:
            raise NormalizationError(f"probabilities sum to {total}, not 1 (rational mode)")
    elif not abs(float(total) - 1.0) <= NORM_TOL:
        raise NormalizationError(f"probabilities sum to {float(total)!r}, not 1")


def _as_number(v: Any, exact: bool) -> Number:
    if exact:
        return v if isinstance(v, Fraction) else Fraction(str(v) if isinstance(v, float) else v)
    return float(v)


@record
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


@record
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

    @cached_property
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

    @cached_property
    def columns(self) -> tuple[tuple[float, ...], ...]:
        """The table as Python floats, one tuple per y (context), each entry float(p)."""
        return tuple(zip(*(map(float, row) for row in self.table)))

    @cached_property
    def masses(self) -> np.ndarray:
        """`columns` as a read-only float64 |X| x |Y| array, in C order."""
        import numpy as np

        masses = np.array(self.columns, dtype=float).T.copy()
        masses.flags.writeable = False
        return masses

    @cached_property
    def ranks(self) -> tuple[tuple[int, ...], ...]:
        """The optimal guesser's ranks per y: a stable sort of the column, descending (ties by index)."""
        return tuple(rank_row(sorted(range(len(col)), key=col.__getitem__, reverse=True)) for col in self.columns)

    @cached_property
    def support(self) -> tuple:
        """The cells of `support_items`, x-major, as read-only arrays: x codes, y codes, floats and `ranks`."""
        import numpy as np

        cells = [(i, j) for i, row in enumerate(self.table) for j, p in enumerate(row) if p]  # nonnegative: p > 0
        x, y = np.array(cells, dtype=np.int64).T
        arrays = (x.copy(), y.copy(), self.masses[x, y], np.array(self.ranks, dtype=np.int64)[y, x])
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def numerators(self) -> tuple:
        """`common_denominator` of the support's masses; for a float table, (its floats, None)."""
        if not self.exact:
            return self.support[2], None
        return common_denominator(self.table[i][j] for i, j in zip(*(a.tolist() for a in self.support[:2])))

    @cached_property
    def entropies(self) -> dict:  # `renyi_cond_entropy` by order
        return {}

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


@record
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
    contribute to the sums.  Where the direct sums leave the float range, at
    very large or very small orders, each column is scaled by its largest mass.
    Each order is computed once per joint and kept in `joint.entropies`.
    """
    a, memo = _coerce_order(alpha), joint.entropies
    if a not in memo:
        memo[a] = _renyi_cond_entropy(joint, a)
    return memo[a]


def _renyi_cond_entropy(joint: JointPmf, a: float) -> float:
    cols = joint.columns
    if a == 1.0:
        return shannon_cond_entropy(joint)
    if a == 0.0:
        biggest = max(sum(1 for p in col if p > 0) for col in cols)
        return math.log2(biggest) if biggest else 0.0
    if math.isinf(a):
        return -math.log2(sum(max(col) for col in cols))
    total = 0.0
    try:
        for col in cols:
            inner = sum(p**a for p in col if p > 0)
            if inner >= sys.float_info.min:
                total += inner ** (1.0 / a)
            elif (m := max(col)) > 0:  # p^a underflows at a large order: scale by the column's largest mass
                total += m * sum((p / m) ** a for p in col if p > 0) ** (1.0 / a)
    except OverflowError:
        total = math.inf
    if total < math.inf:
        return (a / (1.0 - a)) * math.log2(total)
    return _renyi_log_domain(cols, a)


def _renyi_log_domain(cols, a: float) -> float:
    """H_alpha(X|Y) at an order so small that the inner sums' 1/alpha-th powers
    overflow.  A column with largest mass m has inner sum m^alpha * s with
    s = sum (p/m)^alpha in [1, |X|], so its log2 is finite; the columns' terms
    are then added by log-sum-exp around the largest."""
    logs = []
    for col in cols:
        if (m := max(col)) > 0:
            logs.append(a * math.log2(m) + math.log2(sum((p / m) ** a for p in col if p > 0)))
    top = max(logs)
    return (top + a * math.log2(sum(2.0 ** ((v - top) / a) for v in logs))) / (1.0 - a)


def shannon_cond_entropy(joint: JointPmf) -> float:
    """H(X|Y) in bits, with 0 log 0 = 0."""
    h = 0.0
    for col in joint.columns:
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
        pairs = zip(map(float, q.probs), map(float, p.probs))
    else:
        if q.x_alphabet != p.x_alphabet or q.y_alphabet != p.y_alphabet:
            raise AlphabetMismatchError("different alphabets")
        pairs = zip(chain.from_iterable(zip(*q.columns)), chain.from_iterable(zip(*p.columns)))  # x-major
    div = 0.0
    for qf, pf in pairs:
        if qf == 0.0:
            continue
        if pf == 0.0:
            return math.inf
        div += qf * math.log2(qf / pf)
    return div


def tuple_alphabet(alphabet, n: int) -> tuple:
    """All n-tuples over `alphabet`, in lexicographic order of positions."""
    return tuple(product(alphabet, repeat=n))


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
    lists, columns that miss 'y', symbols that are JSON arrays or objects, masses
    that are not numbers (nor a JSON boolean), negative or NaN masses, gaps beyond
    1e-9 in the normalization (or NaN), and duplicate symbols as strings.
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
    if any(isinstance(s, (list, dict)) for s in [*x, *(y or ())]):
        issues.append("a symbol in 'x' or 'y' is a JSON array or object")
    if len(set(map(repr, x))) != len(x):
        issues.append("duplicate symbol ids in 'x'")
    def number(v) -> float:  # a number or a fraction string, the masses `cli` reads as Fraction(str(v))
        if isinstance(v, bool):
            raise TypeError("a JSON true or false is not a mass")
        return float(Fraction(v)) if isinstance(v, str) else float(v)

    try:
        flat = [number(v) for row in (p if p and isinstance(p[0], (list, tuple)) else [p]) for v in row]
    except (TypeError, ValueError, ZeroDivisionError):
        return issues + ["'p' holds a mass that is not a number"]
    for v in flat:
        if not v >= 0:  # NaN fails this too
            issues.append(f"mass {v} is not a nonnegative number")
    gap = abs(sum(flat) - 1.0)
    if not gap <= NORM_TOL:
        issues.append(f"normalization gap {gap:.3e} exceeds {NORM_TOL}")
    return issues
