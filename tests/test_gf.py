"""Prime-field arithmetic, power matrices, and the MDS check."""

import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from gasp import gf
from gasp.degree_table import SchemeParams
from gasp.errors import BudgetExceededError, ParameterError
from gasp.gf import FieldMatrix, PrimeFieldSpec
from gasp.schemes import code_for_scheme, gasp_grouped
from test_oracles import J_332, det, generalized_vandermonde, is_mds, mask_matrix, row, rows

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


# psi_k, the smallest strong pseudoprime to each of the first k prime
# bases, k = 1..13; psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
       341_550_071_728_321, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
       3_317_044_064_679_887_385_961_981)


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit, i)))
    return flags


def _strong_probable_prime(n, bases):
    # Miller-Rabin as first written: every base, after trial division by each.
    if n < 2 or any(n % w == 0 for w in bases if n != w):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in bases:
        x = pow(w, d, n)
        if n == w or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_agrees_with_a_sieve():
    flags = _sieve(10**5)
    assert [n for n in range(-3, 10**5) if gf.is_prime(n)] == [n for n in range(10**5) if flags[n]]


def test_is_prime_refuses_the_strong_pseudoprimes_to_its_bases():
    assert not any(map(gf.is_prime, PSI))
    # psi_12 is a strong pseudoprime to all twelve bases up to 37, so it
    # needs the base 41.
    assert PSI[8] == 399_165_290_221 * 798_330_580_441
    assert gf.next_prime(PSI[8] - 1) > PSI[8]
    # Products of two primes near each bound, below and above it.
    for bound in PSI:
        root = math.isqrt(bound)
        below = next(q for q in range(root, 1, -1) if gf.is_prime(q))
        above = gf.next_prime(root)
        far = gf.next_prime(10**3)
        near = gf.next_prime(bound // far)
        products = (below * below, below * above, above * above, far * near)
        assert min(products) < bound < max(products), bound
        assert not any(map(gf.is_prime, products)), bound


def test_is_prime_verdicts_match_twelve_bases_below_two_to_the_62():
    # Below 2**62 < psi_12 the twelve bases up to 37 are proven, so fewer
    # bases chosen by the size of n must give the same verdicts.
    rng = random.Random(29)
    twelve = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    numbers = [rng.randrange(2**bits) | 1 for bits in range(2, 63) for _ in range(40)]
    numbers += [q for bound in PSI[:8] for q in range(bound - 200, bound + 200)]
    numbers += [P62, 2**61 - 1, 2**62 - 1]
    verdicts = [gf.is_prime(n) for n in numbers]
    assert verdicts == [_strong_probable_prime(n, twelve) for n in numbers]
    assert sum(verdicts) > 100


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
    assert m.entries == (1, 2, 3, 4) and type(m.entries) is tuple
    assert row(m, 1) == (3, 4)
    # The checks run in this order, each with its own message: entries
    # that are no Sequence, then the dimensions, then the entry count.
    for entries, kind in ((None, "NoneType"), (1.5, "float"), (5, "int"), ({1, 2, 3, 4}, "set")):
        with pytest.raises(ParameterError, match=f"^entries must be a Sequence, got {kind}$"):
            FieldMatrix(2, 2, entries)
    with pytest.raises(ParameterError, match="^entries must be a Sequence, got NoneType$"):
        FieldMatrix(2.0, 0, None)
    # Dimensions must be positive ints: a float dimension used to construct
    # and then break encode's slicing with a bare TypeError.
    for rows, cols in ((2.0, 2.0), (2.0, 2), (2, 2.0), (True, 4), (4, False), ("2", 2), (0, 4),
                       (2, -2), (-2, -2)):
        with pytest.raises(ParameterError, match="^matrix dimensions must be positive ints$"):
            FieldMatrix(rows, cols, (1, 2, 3, 4))
    with pytest.raises(ParameterError, match="^matrix dimensions must be positive ints$"):
        FieldMatrix(0, 4, [1, 2, 3])
    for entries in ((1, 2, 3), [1, 2, 3, 4, 5]):
        with pytest.raises(ParameterError, match=f"^expected 4 entries, got {len(entries)}$"):
            FieldMatrix(2, 2, entries)

    # A matrix is a frozen value.
    same = FieldMatrix(rows=2, cols=2, entries=(1, 2, 3, 4))
    assert m == same and hash(m) == hash(same) and m is not same
    assert m != FieldMatrix(4, 1, (1, 2, 3, 4)) and m != FieldMatrix(2, 2, (1, 2, 3, 5))
    assert repr(m) == "FieldMatrix(rows=2, cols=2, entries=(1, 2, 3, 4))"
    assert len({m, same, FieldMatrix(1, 4, (1, 2, 3, 4))}) == 2
    for name in ("rows", "cols", "entries"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, (1,) * 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(m, name)
    # Other names are refused too: a frozen slotted dataclass raises
    # TypeError for them on Python 3.10 and 3.11.
    with pytest.raises((AttributeError, TypeError)):
        m.other = 1
    assert [f.name for f in dataclasses.fields(FieldMatrix)] == ["rows", "cols", "entries"]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(m, protocol)) == m
    assert copy.copy(m) == copy.deepcopy(m) == m
    assert dataclasses.replace(m, rows=4, cols=1) == FieldMatrix(4, 1, (1, 2, 3, 4))
    with pytest.raises(ParameterError, match="^expected 6 entries, got 4$"):
        dataclasses.replace(m, rows=3)


def test_generalized_vandermonde_examples():
    # The oracle takes any points.
    m = generalized_vandermonde(5, (2, 3), (0, 1))
    assert rows(m) == [[1, 2], [1, 3]]

    big = generalized_vandermonde(29, range(1, 19), J_332)
    assert row(big, 0) == (1,) * 18

    # classical Vandermonde when the exponents are 0..N-1
    cls = generalized_vandermonde(7, (2, 3, 5), (0, 1, 2))
    assert rows(cls) == [[1, 2, 4], [1, 3, 2], [1, 5, 4]]

    # The library takes the generator: points 1, 3, 2 = 3 ** 0, 3 ** 1, 3 ** 2
    # over F_7.  Any shape, columns in the caller's order: neither sorted
    # nor deduplicated.
    rect = gf._generalized_vandermonde(7, 3, 3, (2, 0, 2, 1))
    assert rows(rect) == [[1, 1, 1, 1], [2, 1, 2, 3], [4, 1, 4, 2]]
    assert rect == generalized_vandermonde(7, (1, 3, 2), (2, 0, 2, 1))

    with pytest.raises(ParameterError):
        generalized_vandermonde(7, (1, 2), (0, -1))


def test_generalized_vandermonde_matches_points_oracle():
    # The running-product columns against one pow per entry at the points
    # g ** 0 .. g ** (n - 1): g = 0 (points 1, 0, 0, ...), g = 1 (all
    # ones), g = p - 1 (alternating signs), a g of full order, and g
    # outside [0, p); exponents unsorted, repeated, holding 0 or not, and
    # larger than p.
    rng = random.Random(24)
    exponent_sets = [(0,), (5,), (0, 1, 2), (3, 1, 2), (2, 2, 0, 2), (7, 0, 7, 1, 30), (40, 12)]
    for p in (2, 7, 29, 11383, 2**61 - 1):
        for g in sorted({0, 1, 2 % p, p - 1, p + 3, -2}):
            for n in (1, 2, 5, 33):
                for exponents in exponent_sets + [[rng.randrange(3 * p) for _ in range(4)]]:
                    points = [pow(g, j, p) for j in range(n)]
                    want = generalized_vandermonde(p, points, exponents)
                    got = gf._generalized_vandermonde(p, g, n, exponents)
                    assert got == want, (p, g, n, exponents)


@pytest.mark.parametrize("fn", [gf.is_prime, gf.next_prime], ids=["is_prime", "next_prime"])
@pytest.mark.parametrize("n", [7.0, 7.5, None, True, False], ids=repr)
def test_primality_refuses_a_non_int(fn, n):
    # is_prime(7.0) was True and is_prime(True) False; next_prime(False)
    # was 2; None and 7.5 raised a bare TypeError.
    with pytest.raises(ParameterError, match=f"^n must be an int, got {n!r}$"):
        fn(n)


def test_vandermonde_invertible_iff_distinct():
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([11, 101, 997])
        n = rng.randint(2, 6)
        points = [rng.randrange(p) for _ in range(n)]
        m = generalized_vandermonde(p, points, range(n))
        assert (det(p, m) != 0) == (len(set(points)) == n)


def test_is_mds_examples():
    points = list(range(1, 19))
    p_matrix = _raw([[pow(x, 9, 29) for x in points], [pow(x, 12, 29) for x in points]])
    assert is_mds(29, p_matrix)

    with_zero_col = _raw([[1, 0, 2], [3, 0, 4]])
    assert not is_mds(7, with_zero_col)

    row = _raw([[1, 2, 3, 4, 5, 6]])
    assert is_mds(7, row)

    with pytest.raises(ParameterError):
        is_mds(7, _raw([[1], [2]]))


def _vanishing_minors(p, m):
    # Oracle: one determinant per maximal minor, in lexicographic order.
    t = m.rows
    return [
        cols
        for cols in itertools.combinations(range(m.cols), t)
        if det(p, FieldMatrix(t, t, tuple(row(m, i)[j] for i in range(t) for j in cols))) == 0
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
        assert is_mds(p, m) == expected, (p, columns)
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
    assert not is_mds(p, m)


def test_is_mds_refuses_a_walk_over_budget():
    # C(60, 8) * 60 is about 1.5e11 entry steps.  The refusal must come
    # before the walk: a zero first column would end it at the first node.
    wide = FieldMatrix(10, 60, (0,) * 600)
    with pytest.raises(BudgetExceededError, match=f"budget is {gf.MDS_WALK_BUDGET}$"):
        is_mds(7, wide)


def test_is_mds_takes_no_determinant():
    # The library has no determinant and no check of an arbitrary matrix:
    # the elimination and the walk over all subsets are the tests' oracles.
    assert not any(hasattr(gf, name) for name in ("det", "is_mds", "_is_geometric"))
    p, points = 1483, range(1, 40)
    assert is_mds(p, _raw([[pow(x, e, p) for x in points] for e in range(4)]))


def test_anchored_walk_matches_full_walk(monkeypatch):
    # gf._is_power_mds against the oracle's walk over all subsets, on the
    # points g ** 0 .. g ** (N - 1), g = 2 .. 13, over three fields, for
    # the alpha masks of every grouped code with K <= 5 and G = 2 .. K - 1.
    # N is the code's server count up to K = 4; the K = 5 masks take
    # N = 12 and 20, where the full walk stays cheap.  Over F_31 most g
    # have order below N, so points repeat; over F_1447 the (4,4,4) G = 2
    # masks fail at every g here, and over F_13,915,081 nearly all pass.
    # Masks that are a progression take the certificate instead, which the
    # grid keeps as a control.
    walks = []
    walk = gf._mds_walk

    def spy(p, rows):
        walks.append(len(rows))
        return walk(p, rows)

    monkeypatch.setattr(gf, "_mds_walk", spy)
    verdicts = set()
    for k in (3, 4, 5):
        for groups in range(2, k):
            masks = gasp_grouped(k, groups).alpha[k:]
            n_code = code_for_scheme(SchemeParams(k, k, k), "grouped", g=groups).n_servers
            for n in (n_code,) if k < 5 else (12, 20):
                for p in (31, 1447, 13_915_081):
                    for g in range(2, 14):
                        expected = is_mds(p, mask_matrix(p, g, n, masks))
                        del walks[:]
                        got = gf._is_power_mds(p, g, n, masks)
                        assert got == expected, (k, groups, n, p, g)
                        assert walks in ([], [k])
                        path = "walk" if walks else "certificate"
                        repeated = len({pow(g, i, p) for i in range(n)}) < n
                        verdicts.add((path, expected, repeated))
    # The walk passes, fails on distinct points and fails on repeated ones.
    assert {("walk", True, False), ("walk", False, False), ("walk", False, True)} <= verdicts
    assert {path for path, _, _ in verdicts} == {"walk", "certificate"}


def test_anchored_walk_decides_a_matrix_over_the_full_walk_budget():
    # The (6,6,6) G = 4 alpha masks at the code's fallback field, g = 2:
    # the full walk of this 6 x 84 matrix would cost C(84, 4) * 84, about
    # 1.6e8 steps, over MDS_WALK_BUDGET; anchored at column 0 it costs
    # C(83, 3) * 84, about 7.7e6, and passes.
    masks = gasp_grouped(6, 4).alpha[6:]
    n = code_for_scheme(SchemeParams(6, 6, 6), "grouped", g=4).n_servers
    p = gf.next_prime(4 * math.comb(n, 6))
    assert (n, p) == (84, 1_625_926_193)
    assert gf._is_power_mds(p, 2, n, masks)
    with pytest.raises(BudgetExceededError):
        is_mds(p, mask_matrix(p, 2, n, masks))


def test_anchored_walk_refuses_a_walk_over_budget():
    # The (7,7,7) G = 2 alpha masks over N = 98 points: even anchored at
    # column 0 the walk costs C(97, 4) * 98, about 3.4e8 steps.  g = 0
    # is decided directly and never walks, so it has no budget to exceed.
    masks = gasp_grouped(7, 2).alpha[7:]
    with pytest.raises(BudgetExceededError, match=f"budget is {gf.MDS_WALK_BUDGET}$"):
        gf._is_power_mds(1_000_003, 2, 98, masks)
    assert not gf._is_power_mds(1_000_003, 0, 98, masks)


@pytest.mark.parametrize("p", [1_625_926_193, 2**61 - 1])
def test_walk_leaf_matches_minors_at_large_p(p):
    # A first column (1, 0, 0) is the pivot with nothing to eliminate, so
    # the walk's only leaf gets rows 1 and 2 after column 0 as its u and v.
    # Its verdict must be that every 3 x 3 minor on columns {0, c, d} is
    # nonzero, for leaves whose v holds no zero, one zero or two zeros,
    # with keys that are distinct or that collide.
    rng = random.Random(p % 1000)
    verdicts = set()
    for zeros in (0, 1, 2):
        for collide in (False, True):
            for _ in range(10):
                m = rng.randrange(4, 12)
                u = [rng.randrange(1, p) for _ in range(m)]
                v = [rng.randrange(1, p) for _ in range(m)]
                for c in rng.sample(range(m), zeros):
                    v[c] = 0
                if collide:
                    c, d = rng.sample([i for i in range(m) if v[i]], 2)
                    scale = rng.randrange(2, p)
                    u[d], v[d] = u[c] * scale % p, v[c] * scale % p
                rows = [[1] + [rng.randrange(p) for _ in range(m)], [0] + u, [0] + v]
                expected = all(
                    det(p, FieldMatrix(3, 3, tuple(row[j] for row in rows for j in (0, c, d))))
                    for c, d in itertools.combinations(range(1, m + 1), 2)
                )
                assert gf._mds_walk(p, rows) == expected, (zeros, collide, u, v)
                verdicts.add((zeros, expected))
    assert verdicts == {(0, True), (0, False), (1, True), (1, False), (2, False)}


_LEAF_KINDS = ("distinct", "one zero", "two zeros", "(0, 0)", "collide")


def _leaf_node(p, rng, pivot, kind, m):
    # The three rows (a, b, e) of a node at depth T - 3, over its first
    # column and the m columns after it, and the (u, v) that eliminating
    # that column leaves.  The column's first nonzero dot is in row `pivot`
    # (None: every dot is zero); u and v hold `kind` among the m columns.
    u = [rng.randrange(1, p) for _ in range(m)]
    v = [rng.randrange(1, p) for _ in range(m)]
    c, d = rng.sample(range(m), 2)
    if kind == "one zero":
        v[c] = 0
    elif kind == "two zeros":
        v[c] = v[d] = 0
    elif kind == "(0, 0)":
        u[c] = v[c] = 0
    elif kind == "collide":
        scale = rng.randrange(2, p)
        u[d], v[d] = u[c] * scale % p, v[c] * scale % p
    w = [rng.randrange(p) for _ in range(m)]
    if pivot is None:
        return [[0] + w, [0] + u, [0] + v], u, v
    dots = [0] * pivot + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(2 - pivot)]
    rows = [w, w, w]
    # Row i is its target plus dots[i] / dots[pivot] times the pivot row,
    # so eliminating the pivot leaves the target.
    for i, target in zip([i for i in range(3) if i != pivot], (u, v)):
        f = dots[i] * pow(dots[pivot], -1, p) % p
        rows[i] = [(x + f * y) % p for x, y in zip(target, w)]
    return [[x] + r for x, r in zip(dots, rows)], u, v


def test_walk_last_level_matches_minors():
    # T = 4 and 5 rows whose first T - 3 columns are the unit vectors e_0 ..
    # e_(T-4): each is the pivot of its level with nothing to eliminate, so
    # the walk's first node with three rows left holds the last three rows
    # after them, as _leaf_node built them.  Its first column puts the
    # first nonzero dot in row 0, 1 or 2 of that node, or has none, and the
    # (u, v) it leaves hold distinct keys, one or two v = 0 columns, a
    # (0, 0) column or two colliding keys.  The walk must agree with the
    # elimination determinant on every column subset that holds column 0,
    # over F_7 and F_13, where zeros are common, and at p = 2**61 - 1.
    rng = random.Random(40)
    reached, verdicts = set(), set()
    for p, t in itertools.product((7, 13, 2**61 - 1), (4, 5)):
        for pivot in (0, 1, 2, None):
            for kind in _LEAF_KINDS if pivot is not None else ("distinct",):
                for _ in range(3):
                    m = rng.randrange(3, 7)
                    node, u, v = _leaf_node(p, rng, pivot, kind, m)
                    n = t - 3 + 1 + m
                    units = [[int(i == r) for i in range(t - 3)] for r in range(t - 3)]
                    rows = [unit + [rng.randrange(p) for _ in range(m + 1)] for unit in units]
                    rows += [[0] * (t - 3) + row for row in node]
                    expected = all(
                        det(p, FieldMatrix(t, t, tuple(row[j] for row in rows for j in (0,) + s)))
                        for s in itertools.combinations(range(1, n), t - 1)
                    )
                    assert gf._mds_walk(p, rows) == expected, (t, pivot, kind, rows)
                    keys = [x * pow(y, -1, p) % p for x, y in zip(u, v) if y]
                    reached.add((
                        pivot,
                        any(x == y == 0 for x, y in zip(u, v)),
                        v.count(0),
                        len(set(keys)) < len(keys),
                    ))
                    verdicts.add((pivot is None, kind, expected))
    # Every pivot row, each with a (0, 0) column as its only v = 0, exactly
    # one v = 0 column, two of them, and colliding and distinct keys.
    for pivot in (0, 1, 2):
        assert {
            (pivot, True, 1, False), (pivot, False, 1, False), (pivot, False, 0, True)
        } <= reached
        assert any(r[0] == pivot and not r[1] and r[2] == 2 for r in reached)
    assert any(r[0] is None for r in reached)
    # All-zero dots, two zeros and a (0, 0) column always fail; distinct keys
    # pass at least once.
    assert (True, "distinct", False) in verdicts and (True, "distinct", True) not in verdicts
    for kind in ("two zeros", "(0, 0)"):
        assert (False, kind, True) not in verdicts
    assert (False, "distinct", True) in verdicts


def _triple_loop(p, a, b):
    # Oracle: the schoolbook triple loop, reduced after every multiply-add.
    n, m, q = len(a), len(b), len(b[0])
    expected = [[0] * q for _ in range(n)]
    for i in range(n):
        for j in range(q):
            for x in range(m):
                expected[i][j] = (expected[i][j] + a[i][x] * b[x][j]) % p
    return expected


def _slot_bytes(p, m, bound=None):
    # Bytes of the slot bound m * A * A for operands at most A, by default p - 1.
    bound = p - 1 if bound is None else bound
    return ((m * bound**2).bit_length() + 7) // 8


def _byte_bound(p):
    # The largest int whose bytes stay within those of p - 1: no byte above
    # its top byte, and that byte no larger.  Operands up to it pack as given.
    shift = 8 * (((p - 1).bit_length() + 7) // 8 - 1)
    return ((((p - 1) >> shift) + 1) << shift) - 1


# (rows of a, columns of b) of products that take the packed branch, one
# per orientation: b's rows packed, and a's columns packed.
PACKED_SHAPES = ((3, 24), (24, 3))


def test_mat_mul_matches_triple_loop():
    rng = random.Random(13)
    assert all(n * q >= gf._PACK_MIN_ENTRIES for n, q in PACKED_SHAPES)
    dims = [(1, 1, 1), (1, 6, 1), (1, 3, 5), (4, 1, 3), (5, 3, 1), (2, 7, 3), (3, 3, 3)]
    dims += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(12)]
    for p in (5, 11383, gf.next_prime(2**61)):
        for n, m, q in dims:
            a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            b = [[rng.randrange(p) for _ in range(q)] for _ in range(m)]
            expected = _triple_loop(p, a, b)
            got = gf.mat_mul(p, _raw(a), _raw(b))
            assert (got.rows, got.cols) == (n, q)
            assert rows(got) == expected, (p, n, m, q)
        top = _raw([[p - 1] * 4] * 2)
        assert gf.mat_mul(p, top, _raw([[p - 1]] * 4)).entries == (4 % p,) * 2

    # The encode, server and decode products of an (8,8,2) multiplication
    # of a 128x64 by a 64x128 matrix, which pack b's rows, and those of a
    # (4,4,3) session on 2x2 blocks, whose encode and decode pack a's columns.
    for n, m, q in ((83, 10, 1024), (16, 64, 16), (64, 83, 256), (33, 7, 4), (16, 33, 4)):
        a = [[rng.randrange(11383) for _ in range(m)] for _ in range(n)]
        b = [[rng.randrange(11383) for _ in range(q)] for _ in range(m)]
        got = gf.mat_mul(11383, _raw(a), _raw(b))
        assert rows(got) == _triple_loop(11383, a, b), (n, m, q)

    # Slot bounds m*(p-1)**2 of 1, 2, 3, 4, 5, 8, 9 and 17 bytes, which
    # pack at the width of m*A*A for the byte bound A (at (11383, 33) one
    # byte more), the ones above 8 bytes in two or three 8-byte words.
    # Each width is checked in both orientations on raw literals, entries
    # shifted by multiples of p to lie above p - 1 or below 0, and on
    # all-(p-1) operands.
    widths = [(5, 15), (5, 16), (251, 1), (251, 2), (11383, 33), (11383, 83),
              (2**31 - 1, 4), (2**31 - 1, 5), (P62, 64)]
    assert [_slot_bytes(p, m) for p, m in widths] == [1, 2, 2, 3, 4, 5, 8, 9, 17]
    for (p, m), (n, q) in itertools.product(widths, PACKED_SHAPES):
        a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        b = [[rng.randrange(p) for _ in range(q)] for _ in range(m)]
        shifted = [_raw([[e + p * rng.randint(-3, 3) for e in r] for r in x]) for x in (a, b)]
        got = gf.mat_mul(p, *shifted)
        assert rows(got) == _triple_loop(p, a, b), (p, m, n)
        top = gf.mat_mul(p, _raw([[p - 1] * m] * n), _raw([[p - 1] * q] * m))
        assert top.entries == (m % p,) * (n * q), (p, m, n)

    # Every exact slot width from 1 to 17 bytes, with bounds just below and
    # just above 2**64 (8 and 9 bytes) and 2**128 (16 and 17 bytes), in
    # both orientations.  Reduced operands and operands up to the byte
    # bound A, those in [p, A] too, pack as given, so the slot bound is
    # m*A*A; all-A operands reach it.  Operands with an entry above A, at
    # or above 2**64 or below 0, on either side, are reduced first.  At
    # (257, 255) and (11383, 33) m*A*A takes one byte more than m*(p-1)**2.
    exact = [(5, 15), (139, 3), (4093, 1), (24571, 7), (257, 255), (131071, 64), (11383, 33),
             (11862013, 2), (16777213, 83), (1912602623, 5), (1912602623, 6),
             (21474836479, 9), (1099511627689, 1), (2199023255531, 33), (140737488355213, 4),
             (1688849860263901, 6), (7036874417766359, 100), (648518346341351309, 3),
             (2**61 - 1, 64), (2**61 - 1, 65), (P62, 64)]
    got_widths = [_slot_bytes(p, m, _byte_bound(p)) for p, m in exact]
    assert got_widths == [1, 2, 3, 4, 4, 5, 5, 6, 7, 8, 9, 9, 10, 11, 12, 13, 14, 15, 16, 17, 17]
    assert [_slot_bytes(p, m) for p, m in ((257, 255), (11383, 33))] == [3, 4]
    for p, m in exact:
        bound = _byte_bound(p)
        assert p - 1 <= bound < 2 * p, p
        assert (bound.bit_length() + 7) // 8 == ((p - 1).bit_length() + 7) // 8, p
    for (p, m), (n, q) in itertools.product(exact, PACKED_SHAPES):
        bound = _byte_bound(p)
        for lo, hi in ((0, p), (0, bound + 1), (p, bound + 1)):
            if lo < hi:
                a = [[rng.randrange(lo, hi) for _ in range(m)] for _ in range(n)]
                b = [[rng.randrange(lo, hi) for _ in range(q)] for _ in range(m)]
                assert rows(gf.mat_mul(p, _raw(a), _raw(b))) == _triple_loop(p, a, b), (p, m, n)
        for e in (bound, bound + 1):
            top = gf.mat_mul(p, _raw([[e] * m] * n), _raw([[e] * q] * m))
            assert top.entries == (m * e * e % p,) * (n * q), (p, m, n, e)
        a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        b = [[rng.randrange(p) for _ in range(q)] for _ in range(m)]
        above = 256 ** ((bound.bit_length() + 7) // 8)  # a 1 in the byte above p - 1's
        for outside in (bound + 1, above, 2**64 - 1, 2**64, 2**64 + p, 2**70 + 1, -1, -(2**64)):
            for side in (0, 1):
                given, want = ([[r[:] for r in x] for x in (a, b)] for _ in range(2))
                given[side][-1][-1], want[side][-1][-1] = outside, outside % p
                got = gf.mat_mul(p, _raw(given[0]), _raw(given[1]))
                assert rows(got) == _triple_loop(p, *want), (p, m, n, outside, side)
        zeros = gf.mat_mul(p, _raw([[0] * m] * n), _raw([[0] * q] * m))
        assert zeros.entries == (0,) * (n * q), (p, m, n)
        assert gf.mat_mul(p, _raw(a), _raw([[0] * q] * m)).entries == (0,) * (n * q), (p, m, n)

    # All-(p-1) operands at the widest inner dimension, on both sides of
    # the size cut (n * q = 63 and 64) and of the orientation cut (n = q
    # and n = q + 1).
    for p in (5, 11383, 2**31 - 1, P62):
        for n, q in ((1, 1), (7, 9), (9, 7), (1, 64), (64, 1), (4, 16), (16, 4), (8, 8), (9, 8),
                     (8, 9)):
            top = gf.mat_mul(p, _raw([[p - 1] * 400] * n), _raw([[p - 1] * q] * 400))
            assert top.entries == (400 % p,) * (n * q), (p, n, q)


def test_mat_mul_branches(monkeypatch):
    # The schoolbook branch takes products of fewer than 64 entries; the
    # packed branch packs b's rows when a has no more rows than b has
    # columns, and a's columns, taken as strided slices, otherwise.  A
    # one-shot mat_mul and a kept _FixedFactor take the same steps, and a
    # kept factor packs its columns at its first tall product only.
    calls = []
    for name in ("_operands", "_pack", "_multiply"):
        monkeypatch.setattr(gf, name, functools.partial(_spy, calls, name, getattr(gf, name)))
    packs_b = ["_operands", "_pack", "_multiply"]
    packs_a = ["_operands", "_pack", "_operands", "_multiply"]
    cases = {(1, 63): [], (63, 1): [], (7, 9): [], (1, 64): packs_b, (8, 8): packs_b,
             (64, 1): packs_a, (9, 8): packs_a}
    for (n, q), want in cases.items():
        a, b = _raw([[3] * 5] * n), _raw([[2] * q] * 5)
        del calls[:]
        product = gf.mat_mul(7, a, b)
        assert product.entries == (30 % 7,) * (n * q) and calls == want, (n, q)
        factor = gf._FixedFactor(7, a)
        del calls[:]
        assert factor @ b == product and calls == want, (n, q)
        del calls[:]
        assert list(factor.rows(b)) == [row(product, i) for i in range(n)], (n, q)
        assert calls == (["_operands", "_multiply"] if want == packs_a else want), (n, q)


def _spy(calls, name, fn, *args):
    calls.append(name)
    return fn(*args)


def test_fixed_factor_products_match_mat_mul_and_triple_loop():
    # A kept left factor of residues, its columns packed at its first tall
    # product at the width fixed by p, against right operands of residues,
    # of entries in [p, A] up to the byte bound A, of entries shifted below
    # 0 and to 2**64 and above, and all A.  Its products, as a matrix and
    # as rows, equal the triple loop and a one-shot mat_mul; only tall
    # products of at least 64 entries pack its columns.  Shapes sit just
    # below, at and just above 64 entries in each orientation, and at
    # n = q and n = q + 1.  At (257, 255) and (11383, 33) all-(p-1) columns
    # against all-A operands need the width of m * A * A, one byte more
    # than m * (p-1)**2.
    rng = random.Random(26)
    shapes = ((21, 3), (16, 4), (13, 5), (9, 8), (3, 21), (4, 16), (5, 13), (8, 8))
    for p in (2, 3, 251, 257, 11383, 65537, 2**31 - 1, 2**61 - 1):
        bound = _byte_bound(p)
        inner = (1, 7, 40) + {257: (255,), 11383: (33,)}.get(p, ())
        for (n, q), m in itertools.product(shapes, inner):
            a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            factor = gf._FixedFactor(p, _raw(a))
            top = gf._FixedFactor(p, _raw([[p - 1] * m] * n))
            operands = (
                [[rng.randrange(p) for _ in range(q)] for _ in range(m)],
                [[rng.randrange(p, bound + 1) if p < bound else p - 1 for _ in range(q)]
                 for _ in range(m)],
                [[rng.randrange(p) + rng.choice((-p, 2**64, 2**70 + p)) for _ in range(q)]
                 for _ in range(m)],
                [[bound] * q for _ in range(m)],
            )
            tall = n > q and n * q >= gf._PACK_MIN_ENTRIES
            for b in operands:
                want = _triple_loop(p, a, [[e % p for e in r] for r in b])
                got = factor @ _raw(b)
                assert rows(got) == want and got == gf.mat_mul(p, _raw(a), _raw(b)), (p, n, m, q)
                assert (factor.columns is not None) == tall, (p, n, q)
                assert list(factor.rows(_raw(b))) == [tuple(r) for r in want], (p, n, m, q)
                peak = top @ _raw(b)
                assert rows(peak) == _triple_loop(p, [[p - 1] * m] * n, b), (p, n, m, q)
    with pytest.raises(ParameterError):
        gf._FixedFactor(7, _raw([[1] * 3] * 30)) @ _raw([[1]] * 2)


def test_mat_mul_is_transpose_of_transposed_product():
    # a @ b = (b^T @ a^T)^T on random shapes, each side of the orientation
    # cut, with entries reduced or not; a kept factor of a gives the same
    # rows, then the same matrix from the columns its first product packed.
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice((2, 7, 11383, 2**31 - 1, 2**61 - 1, P62))
        n, m, q = rng.randint(1, 40), rng.randint(1, 12), rng.randint(1, 40)
        lo, hi = rng.choice(((0, p), (-3 * p, 3 * p), (0, 2**64)))
        a = _raw([[rng.randrange(lo, hi) for _ in range(m)] for _ in range(n)])
        b = _raw([[rng.randrange(lo, hi) for _ in range(q)] for _ in range(m)])
        at, bt = (_raw([list(c) for c in zip(*rows(x))]) for x in (a, b))
        product = gf.mat_mul(p, a, b)
        assert rows(product) == [list(c) for c in zip(*rows(gf.mat_mul(p, bt, at)))]
        factor = gf._FixedFactor(p, a)
        assert list(factor.rows(b)) == [row(product, i) for i in range(n)]
        assert factor @ b == product


def test_mat_mul_refuses_entries_that_are_no_ints():
    # The schoolbook branch computed with a float entry and returned float
    # entries; the packed branches failed in array('Q') with a bare TypeError.
    ints = [[1, 2, 3]] * 64
    for n, q in ((2, 2), (1, 63), (1, 64), (64, 1), (8, 8)):
        for bad in (1.5, 2.0, Fraction(1, 2), Decimal(3), None, "x", 1j):
            for side in (0, 1):
                a, b = [[e for e in r] for r in ints[:n]], [[2] * q for _ in range(3)]
                [a, b][side][-1][-1] = bad
                for low in (0, -5):  # an entry below 0 packs only after a reduction
                    [a, b][side][0][0] = low
                    with pytest.raises(ParameterError, match="^matrix entries must be ints$"):
                        gf.mat_mul(7, _raw(a), _raw(b))
                    if side == 1:
                        with pytest.raises(ParameterError, match="^matrix entries must be ints$"):
                            gf._FixedFactor(7, _raw(a)) @ _raw(b)
    # bool is an int subclass, taken as 0 or 1.
    assert gf.mat_mul(7, _raw([[True, 2]]), _raw([[3], [False]])).entries == (3,)


def test_mat_ops():
    a = _raw([[1, 2], [3, 4]])
    b = _raw([[2, 0], [1, 3]])
    assert rows(gf.mat_mul(5, a, b)) == [[4, 1], [0, 2]]
    with pytest.raises(ParameterError):
        gf.mat_mul(5, a, FieldMatrix(3, 2, (0,) * 6))
    # A modulus outside [2, 2**62) failed with ZeroDivisionError,
    # OverflowError or a ValueError from the packed branch, and an operand
    # that is no FieldMatrix with AttributeError.
    wide = FieldMatrix(8, 8, tuple(range(64)))
    for p in (0, 1, -7, 2**62, 2**64 + 13, 7.0):
        for x in (a, wide):
            with pytest.raises(ParameterError, match="^modulus must satisfy 2 <= p < 2"):
                gf.mat_mul(p, x, x)
    for left, right in ((((1,),), b), (a, ((1,), (2,))), (None, b), (a, [[1], [2]])):
        with pytest.raises(ParameterError, match="^[ab] must be a FieldMatrix, got"):
            gf.mat_mul(7, left, right)
