"""GF(2^l) arithmetic tables and Reed-Solomon MDS generator matrices.

Field elements are ints in [0, 2^l); addition is XOR and multiplication goes
through exp/log tables built from a fixed primitive polynomial per degree.
The generator matrix evaluates polynomials of degree < k at the points
0, 1, a, a^2, ..., so any k columns are a (generalized) Vandermonde system
and every k x k column submatrix is nonsingular.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .prob import DomainError

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


@dataclass(frozen=True)
class FieldTable:
    ell: int
    primitive_poly: int
    exp: np.ndarray  # exp[i] = alpha^i, length 2*(q-1) for wraparound-free lookups
    log: np.ndarray  # log[v] = discrete log of v, log[0] unused

    @property
    def q(self) -> int:
        return 1 << self.ell

    def add(self, a, b):
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[int(self.log[a]) + int(self.log[b])])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.exp[(self.q - 1) - int(self.log[a])])

    def pow_alpha(self, e: int) -> int:
        return int(self.exp[e % (self.q - 1)])

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        la = self.log[np.broadcast_to(a, out.shape)[nz]]
        lb = self.log[np.broadcast_to(b, out.shape)[nz]]
        out[nz] = self.exp[la + lb]
        return out


def field_make(ell: int) -> FieldTable:
    """Build exp/log tables for GF(2^ell), 1 <= ell <= 16."""
    if ell not in PRIMITIVE_POLYS:
        raise DomainError(f"unsupported field degree {ell}; supported: 1..16")
    q = 1 << ell
    poly = PRIMITIVE_POLYS[ell]
    exp = np.zeros(max(2 * (q - 1), 2), dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    v = 1
    for i in range(q - 1):
        exp[i] = v
        log[v] = i
        v <<= 1
        if v & q:
            v ^= poly
    if v != 1:
        raise RuntimeError(f"polynomial {poly:#x} is not primitive for degree {ell}")
    for i in range(q - 1, exp.shape[0]):
        exp[i] = exp[i - (q - 1)]
    return FieldTable(ell, poly, exp, log)


@dataclass(frozen=True)
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
        out = np.zeros((*message.shape[:-1], self.n), dtype=np.int64)
        for i in range(self.k):
            out ^= self.field.mul_vec(message[..., i, None], self.entries[i])
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for row in self.entries:
            w.writerow([int(v) for v in row])
        return buf.getvalue()


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
    for j in range(1, n):
        point_log = j - 1  # column j evaluates at alpha^(j-1)
        for i in range(k):
            g[i, j] = field.pow_alpha(point_log * i)
    return GenMatrix(k, n, field, g)


def _batched_nonsingular(mats: np.ndarray, field: FieldTable) -> np.ndarray:
    """For a batch of k x k matrices over the field, which are nonsingular.

    Gaussian elimination run simultaneously over the whole batch with table
    lookups; returns a boolean vector.
    """
    b, k, _ = mats.shape
    a = mats.copy()
    ok = np.ones(b, dtype=bool)
    for col in range(k):
        sub = a[:, col:, col]  # candidate pivots per matrix
        piv = np.argmax(sub != 0, axis=1)
        has = sub[np.arange(b), piv] != 0
        ok &= has
        piv = np.where(has, piv + col, col)
        rows = np.arange(b)
        tmp = a[rows, piv].copy()
        a[rows, piv] = a[rows, col]
        a[rows, col] = tmp
        pivot = a[:, col, col].copy()
        pivot[pivot == 0] = 1  # dead matrices keep eliminating harmlessly
        inv_log = (field.q - 1) - field.log[pivot]
        below = a[:, col + 1 :, col]
        if below.size == 0:
            continue
        factor = np.zeros_like(below)
        nz = below != 0
        factor[nz] = field.exp[field.log[below[nz]] + inv_log[:, None].repeat(below.shape[1], 1)[nz]]
        rowvals = a[:, col, col:]
        prod = np.zeros((b, below.shape[1], rowvals.shape[1]), dtype=np.int64)
        nz2 = (factor[:, :, None] != 0) & (rowvals[:, None, :] != 0)
        lf = field.log[np.broadcast_to(factor[:, :, None], prod.shape)[nz2]]
        lr = field.log[np.broadcast_to(rowvals[:, None, :], prod.shape)[nz2]]
        prod[nz2] = field.exp[lf + lr]
        a[:, col + 1 :, col:] ^= prod
    return ok


def mds_check(m: GenMatrix) -> bool:
    """Exhaustively test that every k x k column submatrix is nonsingular."""
    k, n, batch = m.k, m.n, 4096
    if k > n:
        raise DomainError("k must not exceed n")
    cols = list(combinations(range(n), k))
    for start in range(0, len(cols), batch):
        chunk = cols[start : start + batch]
        sel = np.array(chunk)  # (b, k) column indices
        mats = m.entries[:, sel].transpose(1, 0, 2)  # (b, k, k)
        if not _batched_nonsingular(mats, m.field).all():
            return False
    return True
