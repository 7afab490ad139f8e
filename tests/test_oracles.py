"""The determinant by elimination, the tests' oracle for the GV node check.

The library decides whether a plan's generalized Vandermonde matrix is
invertible by comparing its nodes g ** e (``codec._distinct_nodes``), and
takes no determinant anywhere.  The tests check that decision, in plan
search, the decoder and ``harness.mds_audit``, against ``det`` here, and
compare matrices with literals through ``rows``.
"""

import random

import pytest

from gasp import gf
from gasp.errors import ParameterError
from gasp.gf import FieldMatrix

# Term set of the worked small example (K, L, T) = (3, 3, 2): N = 18.
J_332 = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 18, 19, 21, 22)


def rows(m: FieldMatrix) -> list[list[int]]:
    """The entries of m as a list of row lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def det(p: int, m: FieldMatrix) -> int:
    """Determinant mod p via elimination with pivoting by first nonzero entry."""
    if m.rows != m.cols:
        raise ParameterError("determinant needs a square matrix")
    n = m.rows
    a = rows(m)
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


def test_det_reference_value():
    m = gf.generalized_vandermonde(29, range(1, 19), J_332)
    assert det(29, m) == 20


def test_det_trivial():
    ident = FieldMatrix(4, 4, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    assert det(13, ident) == 1
    repeated = FieldMatrix(3, 3, (1, 2, 3, 4, 5, 6, 1, 2, 3))
    assert det(13, repeated) == 0
    with pytest.raises(ParameterError):
        det(13, FieldMatrix(2, 3, (0,) * 6))


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice([5, 13, 101, 2**31 - 1])
        n = rng.randint(1, 5)
        a, b = (FieldMatrix(n, n, tuple(rng.randrange(p) for _ in range(n * n))) for _ in "ab")
        assert det(p, gf.mat_mul(p, a, b)) == det(p, a) * det(p, b) % p
