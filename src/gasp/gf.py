"""Exact arithmetic and dense linear algebra over prime fields.

Everything here is integer-exact: no floating point anywhere.  Matrices
are immutable row-major tuples.  The systems solved here are N x N, one
row per server (N = 83 at (K, L, T) = (8, 8, 2)), small enough for plain
Gaussian elimination with pivoting by first nonzero entry.  ``det``
eliminates below each pivot; ``solve`` does forward elimination over the
columns right of each pivot only, then back-substitution on the
right-hand side.  Its caller is the codec's prepared decoder, which
solves once per plan for the KL rows of the inverse generalized
Vandermonde matrix that decoding reads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import ParameterError, SingularMatrixError

MODULUS_BITS = 62
_MODULUS_LIMIT = 1 << MODULUS_BITS

# Deterministic Miller-Rabin witness set, valid for every n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = max(n + 1, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class PrimeFieldSpec:
    """A prime modulus p with 2 <= p < 2**62, verified at construction."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not 2 <= self.p < _MODULUS_LIMIT:
            raise ParameterError(f"modulus must satisfy 2 <= p < 2**62, got {self.p!r}")
        if not is_prime(self.p):
            raise ParameterError(f"modulus {self.p} is not prime")


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable row-major matrix of residues."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.rows < 1 or self.cols < 1:
            raise ParameterError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ParameterError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def matrix_from_rows(p: int, rows: list[list[int]] | tuple) -> FieldMatrix:
    """Build a matrix with every entry reduced mod p."""
    if not rows or not rows[0]:
        raise ParameterError("matrix needs at least one row and column")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ParameterError("ragged rows")
    return FieldMatrix(len(rows), cols, tuple(e % p for r in rows for e in r))


def mat_mul(p: int, a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Product a @ b mod p: every entry is one row of a dotted with one column of b."""
    if a.cols != b.rows:
        raise ParameterError("shape mismatch in matrix product")
    a_rows = [a.row(i) for i in range(a.rows)]
    b_cols = [b.entries[j::b.cols] for j in range(b.cols)]
    entries = tuple(sum(map(operator.mul, row, col)) % p for row in a_rows for col in b_cols)
    return FieldMatrix(a.rows, b.cols, entries)


def generalized_vandermonde(p: int, points, exponents) -> FieldMatrix:
    """Matrix [points[n] ** j for j in exponents], exponents ascending."""
    pts = [x % p for x in points]
    exps = tuple(sorted(set(exponents)))
    if len(pts) != len(exps):
        raise ParameterError(
            f"need as many points as exponents, got {len(pts)} points and {len(exps)} exponents"
        )
    if exps and exps[0] < 0:
        raise ParameterError("exponents must be nonnegative")
    entries = tuple(pow(x, j, p) for x in pts for j in exps)
    return FieldMatrix(len(pts), len(exps), entries)


def det(p: int, m: FieldMatrix) -> int:
    """Determinant mod p via elimination with pivoting by first nonzero entry."""
    if m.rows != m.cols:
        raise ParameterError("determinant needs a square matrix")
    n = m.rows
    a = m.to_rows()
    result = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result % p
        pv = a[col][col] % p
        result = result * pv % p
        inv_pv = pow(pv, -1, p)
        for r in range(col + 1, n):
            factor = a[r][col] * inv_pv % p
            if factor:
                row_r, row_c = a[r], a[col]
                for c2 in range(col, n):
                    row_r[c2] = (row_r[c2] - factor * row_c[c2]) % p
    return result


def solve(p: int, m: FieldMatrix, rhs: FieldMatrix) -> FieldMatrix:
    """Solve m @ x = rhs exactly for all rhs columns in one elimination.

    Forward elimination keeps, for each pivot, only the normalized columns
    to its right (the upper triangle and the right-hand side); no row is
    rewritten left of the current pivot.  Back-substitution then produces
    x one row at a time, from the last row up.
    """
    if m.rows != m.cols:
        raise ParameterError("solve needs a square matrix")
    if rhs.rows != m.rows:
        raise ParameterError("right-hand side has wrong number of rows")
    n, w = m.rows, rhs.cols
    # Row r holds columns col.. of [m | rhs] while pivot col is eliminated.
    rows = [[e % p for e in m.row(i) + rhs.row(i)] for i in range(n)]
    upper = []  # upper[col]: the pivot row right of its unit diagonal
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][0]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        inv_pv = pow(head[0], -1, p)
        tail = [x * inv_pv % p for x in head[1:]]
        upper.append(tail)
        for r in range(col + 1, n):
            row = rows[r]
            factor = row[0]
            rows[r] = [(x - factor * y) % p for x, y in zip(row[1:], tail)]
    # x_col = b_col - sum over j > col of u[col][j] * x_j.  The solved rows
    # are kept per column, last row first, so each entry is one dot product.
    solved = [[] for _ in range(w)]
    for col in range(n - 1, -1, -1):
        tail = upper[col]
        coeffs = tail[:n - col - 1][::-1]
        b = tail[n - col - 1:]
        for c in range(w):
            xs = solved[c]
            xs.append((b[c] - sum(map(operator.mul, coeffs, xs))) % p)
    entries = tuple(solved[c][n - 1 - i] for i in range(n) for c in range(w))
    return FieldMatrix(n, w, entries)


def is_mds(p: int, m: FieldMatrix) -> bool:
    """True iff every maximal (rows x rows) minor has nonzero determinant.

    Enumerates every column subset, lexicographically; nothing is sampled.
    This is the oracle: ``harness.mds_audit`` calls it, and so does plan
    search for mask exponents that are not an arithmetic progression
    (grouped codes); progression masks use an O(N) certificate instead.
    """
    t, n = m.rows, m.cols
    if t > n:
        raise ParameterError(f"MDS check needs rows <= cols, got {t} x {n}")
    rows = [m.row(i) for i in range(t)]
    for cols in itertools.combinations(range(n), t):
        minor = FieldMatrix(t, t, tuple(rows[i][j] for i in range(t) for j in cols))
        if det(p, minor) == 0:
            return False
    return True
