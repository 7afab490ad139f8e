"""Prime-field arithmetic, determinants, and the MDS check."""

import itertools
import random

import pytest

from gasp import gf
from gasp.errors import BudgetExceededError, ParameterError
from gasp.gf import FieldMatrix, PrimeFieldSpec

# Fixture from the worked small example: 18 points, 18 exponents, p = 29.
J_332 = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 18, 19, 21, 22)
# The largest prime below 2**62, the widest modulus a field admits.
P62 = 2**62 - 57


def _raw(rows):
    # A FieldMatrix literal: entries kept as given, not reduced.
    return FieldMatrix(len(rows), len(rows[0]), tuple(e for r in rows for e in r))


def test_primality():
    assert gf.is_prime(2)
    assert gf.is_prime(29)
    assert gf.is_prime(2**61 - 1)
    assert not gf.is_prime(1)
    assert not gf.is_prime(25)
    assert not gf.is_prime(561)  # Carmichael
    assert gf.next_prime(396) == 397
    assert gf.is_prime(P62) and gf.next_prime(P62) > 2**62


def test_field_spec_validation():
    PrimeFieldSpec(29)
    with pytest.raises(ParameterError):
        PrimeFieldSpec(28)
    with pytest.raises(ParameterError):
        PrimeFieldSpec(1)
    with pytest.raises(ParameterError):
        PrimeFieldSpec(2**62 + 11)


def test_matrix_construction():
    m = FieldMatrix(2, 2, [1, 2, 3, 4])
    assert m.entries == (1, 2, 3, 4)
    assert m.row(1) == (3, 4)
    with pytest.raises(ParameterError):
        FieldMatrix(2, 2, (1, 2, 3))
    # Dimensions must be positive ints: a float dimension used to construct
    # and then break encode's slicing with a bare TypeError.
    for rows, cols in ((2.0, 2.0), (2.0, 2), (2, 2.0), (True, 4), ("2", 2), (0, 4), (-2, -2)):
        with pytest.raises(ParameterError):
            FieldMatrix(rows, cols, (1, 2, 3, 4))


def test_generalized_vandermonde_examples():
    m = gf.generalized_vandermonde(5, (2, 3), (0, 1))
    assert m.to_rows() == [[1, 2], [1, 3]]

    big = gf.generalized_vandermonde(29, range(1, 19), J_332)
    assert big.row(0) == (1,) * 18

    # classical Vandermonde when the exponents are 0..N-1
    cls = gf.generalized_vandermonde(7, (2, 3, 5), (0, 1, 2))
    assert cls.to_rows() == [[1, 2, 4], [1, 3, 2], [1, 5, 4]]

    # Any shape, columns in the caller's order: neither sorted nor deduplicated.
    rect = gf.generalized_vandermonde(7, (1, 2, 3), (2, 0, 2, 1))
    assert rect.to_rows() == [[1, 1, 1, 1], [4, 1, 4, 2], [2, 1, 2, 3]]

    with pytest.raises(ParameterError):
        gf.generalized_vandermonde(7, (1, 2), (0, -1))


def test_det_reference_value():
    m = gf.generalized_vandermonde(29, range(1, 19), J_332)
    assert gf.det(29, m) == 20


def test_det_trivial():
    ident = FieldMatrix(4, 4, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    assert gf.det(13, ident) == 1
    repeated = _raw([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert gf.det(13, repeated) == 0
    with pytest.raises(ParameterError):
        gf.det(13, FieldMatrix(2, 3, (0,) * 6))


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice([5, 13, 101, 2**31 - 1])
        n = rng.randint(1, 5)
        a = _raw([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        b = _raw([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        assert gf.det(p, gf.mat_mul(p, a, b)) == gf.det(p, a) * gf.det(p, b) % p


def test_vandermonde_invertible_iff_distinct():
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([11, 101, 997])
        n = rng.randint(2, 6)
        points = [rng.randrange(p) for _ in range(n)]
        m = gf.generalized_vandermonde(p, points, range(n))
        assert (gf.det(p, m) != 0) == (len(set(points)) == n)


def test_is_mds_examples():
    points = list(range(1, 19))
    p_matrix = _raw([[pow(x, 9, 29) for x in points], [pow(x, 12, 29) for x in points]])
    assert gf.is_mds(29, p_matrix)

    with_zero_col = _raw([[1, 0, 2], [3, 0, 4]])
    assert not gf.is_mds(7, with_zero_col)

    row = _raw([[1, 2, 3, 4, 5, 6]])
    assert gf.is_mds(7, row)

    with pytest.raises(ParameterError):
        gf.is_mds(7, _raw([[1], [2]]))


def _vanishing_minors(p, m):
    # Oracle: one determinant per maximal minor, in lexicographic order.
    t = m.rows
    return [
        cols
        for cols in itertools.combinations(range(m.cols), t)
        if gf.det(p, FieldMatrix(t, t, tuple(m.row(i)[j] for i in range(t) for j in cols))) == 0
    ]


def _from_columns(columns):
    # Entries go through the FieldMatrix constructor as given, unreduced.
    t = len(columns[0])
    return FieldMatrix(t, len(columns), tuple(col[i] for i in range(t) for col in columns))


def _lift(p, columns, rng):
    # The same residues, each moved by a multiple of p, negative or >= p.
    return [[e + p * rng.randint(-3, 3) for e in col] for col in columns]


def _combination(p, t, columns, rng):
    # A combination of columns of length t with nonzero coefficients.
    coeffs = [rng.randrange(1, p) for _ in columns]
    return [sum(a * col[i] for a, col in zip(coeffs, columns)) % p for i in range(t)]


def test_is_mds_agrees_with_direct_enumeration():
    # Every shape with T <= 5 and N <= 9 over six fields, and T <= 4,
    # N <= 8 over a field above 2**61, where the two-row keys are large
    # residues: random entries, Vandermonde-type matrices (distinct nonzero
    # points, powers e0 .. e0 + T - 1, so every minor is nonzero), and the
    # same matrices with a zero column, two equal columns, a column that is
    # another times a scalar other than 1, or a rank-deficient prefix.
    # About half of all matrices hold unreduced entries.
    rng = random.Random(4)
    cases = []
    big = gf.next_prime(2**61)
    for p, t_max, n_max in [(p, 5, 9) for p in (2, 3, 5, 7, 11, 13)] + [(big, 4, 8)]:
        for t in range(1, t_max + 1):
            for n in range(t, n_max + 1):
                for _ in range(3):
                    cases.append((p, [[rng.randrange(p) for _ in range(t)] for _ in range(n)]))
                if n >= p:
                    continue
                e0 = rng.randrange(3)
                points = rng.sample(range(1, p), n)
                good = [[pow(x, e0 + i, p) for i in range(t)] for x in points]
                cases.append((p, good))
                zero = [col[:] for col in good]
                zero[rng.randrange(n)] = [0] * t
                cases.append((p, zero))
                if n >= 2:
                    i, j = rng.sample(range(n), 2)
                    cases.append((p, good[:i] + [good[j]] + good[i + 1:]))
                    if p > 2:
                        scale = rng.randrange(2, p)
                        scaled = [scale * e % p for e in good[j]]
                        cases.append((p, good[:i] + [scaled] + good[i + 1:]))
                if t >= 2:
                    d = rng.randrange(1, t)
                    prefix = good[:d] + [_combination(p, t, good[:d], rng)] + good[d + 1:]
                    cases.append((p, prefix))
    verdicts = set()
    for p, columns in cases:
        if rng.random() < 0.5:
            columns = _lift(p, columns, rng)
        m = _from_columns(columns)
        expected = not _vanishing_minors(p, m)
        assert gf.is_mds(p, m) == expected, (p, columns)
        verdicts.add((m.rows, m.rows == m.cols, expected))
    # Passes and failures at every T, with T < N and with T = N.
    assert verdicts == set(itertools.product(range(1, 6), (False, True), (False, True)))


@pytest.mark.parametrize("p, t, n", [(7, 1, 4), (13, 2, 5), (13, 3, 6), (11, 4, 7), (13, 5, 7), (31, 5, 9)])
def test_is_mds_finds_the_last_minor(p, t, n):
    # Only the lexicographically last minor vanishes: its last column is a
    # combination of the T - 1 columns before it, and every other T-subset
    # of a Vandermonde-type matrix stays independent.  The walk reaches
    # that subset last, so it must not stop early.
    rng = random.Random(p * 100 + t * 10 + n)
    last = tuple(range(n - t, n))
    for _ in range(200):
        columns = [[pow(x, i, p) for i in range(t)] for x in rng.sample(range(1, p), n - 1)]
        columns.append(_combination(p, t, columns[n - t:], rng))
        m = _from_columns(_lift(p, columns, rng))
        if _vanishing_minors(p, m) == [last]:
            break
    else:
        pytest.fail("no matrix found whose only vanishing minor is the last")
    assert not gf.is_mds(p, m)


def test_is_mds_refuses_a_walk_over_budget():
    # C(60, 8) * 60 is about 1.5e11 entry steps.  The refusal must come
    # before the walk: a zero first column would end it at the first node.
    wide = FieldMatrix(10, 60, (0,) * 600)
    with pytest.raises(BudgetExceededError, match=f"budget is {gf.MDS_WALK_BUDGET}$"):
        gf.is_mds(7, wide)


def test_is_mds_takes_no_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("gf.det ran inside gf.is_mds")

    monkeypatch.setattr(gf, "det", refuse)
    p, points = 1483, range(1, 40)
    assert gf.is_mds(p, _raw([[pow(x, e, p) for x in points] for e in range(4)]))


def _triple_loop(p, a, b):
    # Oracle: the schoolbook triple loop, reduced after every multiply-add.
    n, m, q = len(a), len(b), len(b[0])
    expected = [[0] * q for _ in range(n)]
    for i in range(n):
        for j in range(q):
            for x in range(m):
                expected[i][j] = (expected[i][j] + a[i][x] * b[x][j]) % p
    return expected


def _slot_bytes(p, m):
    return ((m * (p - 1) ** 2).bit_length() + 7) // 8


def test_mat_mul_matches_triple_loop():
    rng = random.Random(13)
    dims = [(1, 1, 1), (1, 6, 1), (1, 3, 5), (4, 1, 3), (5, 3, 1), (2, 7, 3), (3, 3, 3)]
    dims += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(12)]
    for p in (5, 11383, gf.next_prime(2**61)):
        for n, m, q in dims:
            a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            b = [[rng.randrange(p) for _ in range(q)] for _ in range(m)]
            expected = _triple_loop(p, a, b)
            got = gf.mat_mul(p, _raw(a), _raw(b))
            assert (got.rows, got.cols) == (n, q)
            assert got.to_rows() == expected, (p, n, m, q)
        top = _raw([[p - 1] * 4] * 2)
        assert gf.mat_mul(p, top, _raw([[p - 1]] * 4)).entries == (4 % p,) * 2

    # The encode, server and decode products of an (8,8,2) multiplication
    # of a 128x64 by a 64x128 matrix, all on the packed branch.
    for n, m, q in ((83, 10, 1024), (16, 64, 16), (64, 83, 256)):
        a = [[rng.randrange(11383) for _ in range(m)] for _ in range(n)]
        b = [[rng.randrange(11383) for _ in range(q)] for _ in range(m)]
        got = gf.mat_mul(11383, _raw(a), _raw(b))
        assert got.to_rows() == _triple_loop(11383, a, b), (n, m, q)

    # Every slot width: 1 byte; 2 bytes; 3 and 4 bytes (4-byte slots); 5
    # and 8 bytes (8-byte slots); wider, which takes the schoolbook branch.
    # Each width is checked on raw literals, entries shifted by multiples
    # of p to lie above p - 1 or below 0, and on all-(p-1) operands, whose
    # slot sums m*(p-1)**2 reach the bound the width is chosen for.
    widths = [(5, 15), (5, 16), (251, 1), (251, 2), (11383, 33), (11383, 83),
              (2**31 - 1, 4), (2**31 - 1, 5), (P62, 64)]
    assert [_slot_bytes(p, m) for p, m in widths] == [1, 2, 2, 3, 4, 5, 8, 9, 17]
    for p, m in widths:
        a = [[rng.randrange(p) for _ in range(m)] for _ in range(3)]
        b = [[rng.randrange(p) for _ in range(9)] for _ in range(m)]
        shifted = [_raw([[e + p * rng.randint(-3, 3) for e in r] for r in x]) for x in (a, b)]
        got = gf.mat_mul(p, *shifted)
        assert got.to_rows() == _triple_loop(p, a, b), (p, m)
        top = gf.mat_mul(p, _raw([[p - 1] * m] * 3), _raw([[p - 1] * 9] * m))
        assert top.entries == (m % p,) * 27, (p, m)

    # All-(p-1) operands at the widest inner dimension, on both sides of
    # the column cut.
    cut = gf._PACK_MIN_COLS
    for p in (5, 11383, 2**31 - 1, P62):
        for n, q in ((1, 1), (2, 3), (2, cut), (4, 2 * cut)):
            top = gf.mat_mul(p, _raw([[p - 1] * 400] * n), _raw([[p - 1] * q] * 400))
            assert top.entries == (400 % p,) * (n * q), (p, n, q)


def test_mat_ops():
    a = _raw([[1, 2], [3, 4]])
    b = _raw([[2, 0], [1, 3]])
    assert gf.mat_mul(5, a, b).to_rows() == [[4, 1], [0, 2]]
    with pytest.raises(ParameterError):
        gf.mat_mul(5, a, FieldMatrix(3, 2, (0,) * 6))
