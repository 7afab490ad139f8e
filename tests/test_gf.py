"""Prime-field arithmetic, determinants, solves, and the MDS check."""

import itertools
import random

import pytest

from gasp import gf
from gasp.errors import ParameterError, SingularMatrixError
from gasp.gf import FieldMatrix, PrimeFieldSpec

# Fixture from the worked small example: 18 points, 18 exponents, p = 29.
J_332 = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 18, 19, 21, 22)


def test_primality():
    assert gf.is_prime(2)
    assert gf.is_prime(29)
    assert gf.is_prime(2**61 - 1)
    assert not gf.is_prime(1)
    assert not gf.is_prime(25)
    assert not gf.is_prime(561)  # Carmichael
    assert gf.next_prime(396) == 397


def test_field_spec_validation():
    PrimeFieldSpec(29)
    with pytest.raises(ParameterError):
        PrimeFieldSpec(28)
    with pytest.raises(ParameterError):
        PrimeFieldSpec(1)
    with pytest.raises(ParameterError):
        PrimeFieldSpec(2**62 + 11)


def test_matrix_construction():
    m = gf.matrix_from_rows(5, [[6, 7], [8, 9]])
    assert m.entries == (1, 2, 3, 4)
    assert m.at(1, 0) == 3
    with pytest.raises(ParameterError):
        FieldMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ParameterError):
        gf.matrix_from_rows(5, [[1, 2], [3]])


def test_generalized_vandermonde_examples():
    m = gf.generalized_vandermonde(5, (2, 3), (0, 1))
    assert m.to_rows() == [[1, 2], [1, 3]]

    big = gf.generalized_vandermonde(29, range(1, 19), J_332)
    assert big.row(0) == (1,) * 18

    # classical Vandermonde when the exponents are 0..N-1
    cls = gf.generalized_vandermonde(7, (2, 3, 5), (0, 1, 2))
    assert cls.to_rows() == [[1, 2, 4], [1, 3, 2], [1, 5, 4]]

    with pytest.raises(ParameterError):
        gf.generalized_vandermonde(7, (1, 2), (0, 1, 2))


def test_det_reference_value():
    m = gf.generalized_vandermonde(29, range(1, 19), J_332)
    assert gf.det(29, m) == 20


def test_det_trivial():
    ident = FieldMatrix(4, 4, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    assert gf.det(13, ident) == 1
    repeated = gf.matrix_from_rows(13, [[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert gf.det(13, repeated) == 0
    with pytest.raises(ParameterError):
        gf.det(13, FieldMatrix(2, 3, (0,) * 6))


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice([5, 13, 101, 2**31 - 1])
        n = rng.randint(1, 5)
        a = gf.matrix_from_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        b = gf.matrix_from_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        assert gf.det(p, gf.mat_mul(p, a, b)) == gf.det(p, a) * gf.det(p, b) % p


def test_vandermonde_invertible_iff_distinct():
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([11, 101, 997])
        n = rng.randint(2, 6)
        points = [rng.randrange(p) for _ in range(n)]
        m = gf.generalized_vandermonde(p, points, range(n))
        assert (gf.det(p, m) != 0) == (len(set(points)) == n)


def test_solve_examples():
    ident = FieldMatrix(3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    rhs = gf.matrix_from_rows(7, [[1], [2], [3]])
    assert gf.solve(7, ident, rhs) == rhs

    m = gf.matrix_from_rows(5, [[1, 2], [1, 3]])
    sol = gf.solve(5, m, gf.matrix_from_rows(5, [[0], [1]]))
    assert sol.entries == (3, 1)

    singular = gf.matrix_from_rows(5, [[1, 1], [2, 2]])
    with pytest.raises(SingularMatrixError):
        gf.solve(5, singular, gf.matrix_from_rows(5, [[0], [1]]))


def test_solve_roundtrip_multi_rhs():
    rng = random.Random(2)
    for _ in range(30):
        p = rng.choice([7, 29, 10007])
        n = rng.randint(1, 6)
        w = rng.randint(1, 4)
        m = gf.matrix_from_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if gf.det(p, m) == 0:
            continue
        rhs = gf.matrix_from_rows(p, [[rng.randrange(p) for _ in range(w)] for _ in range(n)])
        sol = gf.solve(p, m, rhs)
        assert gf.mat_mul(p, m, sol) == rhs


def test_is_mds_examples():
    points = list(range(1, 19))
    p_matrix = gf.matrix_from_rows(
        29, [[pow(x, 9, 29) for x in points], [pow(x, 12, 29) for x in points]]
    )
    assert gf.is_mds(29, p_matrix)

    with_zero_col = gf.matrix_from_rows(7, [[1, 0, 2], [3, 0, 4]])
    assert not gf.is_mds(7, with_zero_col)

    row = gf.matrix_from_rows(7, [[1, 2, 3, 4, 5, 6]])
    assert gf.is_mds(7, row)

    with pytest.raises(ParameterError):
        gf.is_mds(7, gf.matrix_from_rows(7, [[1], [2]]))


def test_is_mds_agrees_with_direct_enumeration():
    rng = random.Random(4)
    for _ in range(30):
        p = rng.choice([5, 7, 11])
        t = rng.randint(1, 3)
        n = rng.randint(t, 7)
        m = gf.matrix_from_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(t)])
        direct = all(
            gf.det(p, FieldMatrix(t, t, tuple(m.at(i, j) for i in range(t) for j in cols)))
            for cols in itertools.combinations(range(n), t)
        )
        assert gf.is_mds(p, m) == direct


def test_mat_mul_matches_triple_loop():
    # Oracle: the schoolbook triple loop, reduced after every multiply-add.
    rng = random.Random(13)
    dims = [(1, 1, 1), (1, 6, 1), (1, 3, 5), (4, 1, 3), (5, 3, 1), (2, 7, 3), (3, 3, 3)]
    dims += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(12)]
    for p in (5, 11383, gf.next_prime(2**61)):
        for n, m, q in dims:
            a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            b = [[rng.randrange(p) for _ in range(q)] for _ in range(m)]
            expected = [[0] * q for _ in range(n)]
            for i in range(n):
                for j in range(q):
                    for x in range(m):
                        expected[i][j] = (expected[i][j] + a[i][x] * b[x][j]) % p
            got = gf.mat_mul(p, gf.matrix_from_rows(p, a), gf.matrix_from_rows(p, b))
            assert (got.rows, got.cols) == (n, q)
            assert got.to_rows() == expected, (p, n, m, q)
        top = gf.matrix_from_rows(p, [[p - 1] * 4] * 2)
        assert gf.mat_mul(p, top, gf.matrix_from_rows(p, [[p - 1]] * 4)).entries == (4 % p,) * 2


def test_mat_ops():
    a = gf.matrix_from_rows(5, [[1, 2], [3, 4]])
    b = gf.matrix_from_rows(5, [[2, 0], [1, 3]])
    assert gf.mat_mul(5, a, b).to_rows() == [[4, 1], [0, 2]]
    with pytest.raises(ParameterError):
        gf.mat_mul(5, a, FieldMatrix(3, 2, (0,) * 6))
