"""GF(2^l) arithmetic tables and Reed-Solomon MDS generator matrices.

Field elements are ints in [0, 2^l); addition is XOR and multiplication goes
through exp/log tables built from a fixed primitive polynomial per degree.
The tables absorb zero: log[0] = 2(q - 1) and exp is 0 from 2(q - 1) on, so
a sum of two logs with a 0 among its factors lands in exp's zeros and
`FieldTable.mul` is one lookup, with no mask, on ints or broadcast int arrays.
`mul` and `inv` are the only lookups into the tables.
The generator matrix evaluates polynomials of degree < k at the points
0, 1, a, a^2, ..., so any k columns are a (generalized) Vandermonde system
and every k x k column submatrix is nonsingular.
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

from .prob import DomainError, record

# Primitive polynomial bitmasks (leading bit included) for degrees 1..16.
PRIMITIVE_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


@record
class FieldTable:
    ell: int
    primitive_poly: int
    exp: np.ndarray  # exp[i] = alpha^i for i < 2*(q-1), then 0 up to 4*(q-1): any sum of two logs
    log: np.ndarray  # log[v] = discrete log of v; log[0] = 2*(q-1), whose sums all land in exp's zeros

    @property
    def q(self) -> int:
        return 1 << self.ell

    def mul(self, a, b):
        """a * b on ints or broadcast int arrays; a numpy integer or array."""
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        """1 / a on an int or an int array; raises ZeroDivisionError on a 0 anywhere in a."""
        if not np.all(a):
            raise ZeroDivisionError("inverse of 0")
        return self.exp[(self.q - 1) - self.log[a]]


def field_make(ell: int) -> FieldTable:
    """Build exp/log tables for GF(2^ell), 1 <= ell <= 16."""
    if ell not in PRIMITIVE_POLYS:
        raise DomainError(f"unsupported field degree {ell}; supported: 1..16")
    q = 1 << ell
    poly = PRIMITIVE_POLYS[ell]
    exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
    log = np.full(q, 2 * (q - 1), dtype=np.int64)
    v = 1
    for i in range(q - 1):
        exp[i] = v
        log[v] = i
        v <<= 1
        if v & q:
            v ^= poly
    if v != 1:
        raise RuntimeError(f"polynomial {poly:#x} is not primitive for degree {ell}")
    exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
    return FieldTable(ell, poly, exp, log)


@record
class GenMatrix:
    k: int
    n: int
    field: FieldTable
    entries: np.ndarray  # shape (k, n), int64 field elements

    def first_rows(self, kprime: int) -> "GenMatrix":
        if not 1 <= kprime <= self.k:
            raise DomainError("row count out of range")
        return GenMatrix(kprime, self.n, self.field, self.entries[:kprime].copy())

    def encode(self, message: np.ndarray) -> np.ndarray:
        """message (length k, or one message per row) times the matrix, over the field."""
        message = np.asarray(message, dtype=np.int64)
        return np.bitwise_xor.reduce(self.field.mul(message[..., None], self.entries), axis=-2)


def rs_generator(k: int, n: int, field: FieldTable) -> GenMatrix:
    """Evaluation-style generator: columns evaluate z^i at 0, 1, a, a^2, ...

    Requires k <= n <= q.  Taking the first n columns (done here) or the first
    k' rows of the result again generates an MDS code.
    """
    q = field.q
    if not 1 <= k <= n <= q:
        raise DomainError(f"need 1 <= k <= n <= q, got k={k}, n={n}, q={q}")
    g = np.zeros((k, n), dtype=np.int64)
    g[0, 0] = 1
    g[:, 1:] = field.exp[np.arange(k)[:, None] * np.arange(n - 1) % (q - 1)]  # column j at alpha^(j-1)
    return GenMatrix(k, n, field, g)


def _batched_nonsingular(mats: np.ndarray, field: FieldTable) -> np.ndarray:
    """For a batch of k x k matrices over the field, which are nonsingular.

    Gaussian elimination run simultaneously over the whole batch with table
    lookups; returns a boolean vector.
    """
    b, k, _ = mats.shape
    a = mats.copy()
    ok = np.ones(b, dtype=bool)
    rows = np.arange(b)
    for col in range(k):
        sub = a[:, col:, col]  # candidate pivots per matrix
        piv = np.argmax(sub != 0, axis=1)
        has = sub[rows, piv] != 0
        ok &= has
        piv = np.where(has, piv + col, col)
        tmp = a[rows, piv].copy()
        a[rows, piv] = a[rows, col]
        a[rows, col] = tmp
        pivot = a[:, col, col].copy()
        pivot[pivot == 0] = 1  # dead matrices keep eliminating harmlessly
        factor = field.mul(a[:, col + 1 :, col], field.inv(pivot)[:, None])
        a[:, col + 1 :, col:] ^= field.mul(factor[:, :, None], a[:, None, col, col:])
    return ok


def mds_check(m: GenMatrix) -> bool:
    """Exhaustively test that every k x k column submatrix is nonsingular."""
    if m.k > m.n:
        raise DomainError("k must not exceed n")
    subsets = combinations(range(m.n), m.k)
    while batch := list(islice(subsets, 4096)):
        sel = np.array(batch)  # (b, k) column indices
        mats = m.entries[:, sel].transpose(1, 0, 2)  # (b, k, k)
        if not _batched_nonsingular(mats, m.field).all():
            return False
    return True
