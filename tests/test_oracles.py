"""Brute-force oracles the tests check the library against.

The library decides whether a plan's generalized Vandermonde matrix is
invertible by comparing its nodes g ** e (``codec._distinct_nodes``), and
takes no determinant anywhere.  The tests check that decision, in plan
search, the decoder and ``harness.mds_audit``, against ``det`` here, and
compare matrices with literals through ``rows``; ``row`` reads one row.

``is_mds`` decides whether every maximal minor of any matrix is nonzero
by walking all its column subsets.  The library's mask check,
``gf._is_power_mds``, takes a generator instead of a matrix and walks only
the subsets that hold column 0; the tests check it, with plan search and
``harness.mds_audit``, against ``is_mds`` here, and ``is_mds`` against
``det`` on every minor.

``generalized_vandermonde`` is the power-matrix builder as first
written, one ``pow`` per entry of [x ** e] for any points x.  The
library's ``gf._generalized_vandermonde`` takes a generator instead of
points and builds each column by running products; the tests check it
against this one, and the GV determinants of plans use this one.

``gasp_big_oracle``, ``gasp_small_oracle`` and ``gasp_grouped_oracle``
are the three mask constructions as first written, each laying out its
own exponents and orientation.  The library builds all three from one
layout, ``schemes._layout``; the tests check it against these.

``terms`` and ``count_terms`` read a degree table entry by entry: its
term set J and its size N.  The library derives J once per code, in the
``schemes.PolynomialCode`` constructor, and counts grouped codes as
bitmask sumsets; the tests hold both, and the closed-form server counts,
against these.  ``grouped_sweep_oracle`` is ``schemes.grouped_sweep`` as
first written: one ``gasp_grouped`` code per G and the OR of beta's mask
shifted by every alpha exponent; the library builds the mask runs' shifts
from one prefix table per sweep, and the tests check it against this.
``optimize_gasp_oracle`` is ``schemes.optimize_gasp`` as first written:
every pair K <= L under the closed forms' lower bound, about N ln(N) / 2
pairs; the library bisects one L per K and stops K at sqrt(N), and the
tests and CI check it against this.
``points`` takes one ``pow`` per evaluation point of a plan, and
``kakar_rate`` is the gap-free baseline's rate at the Kakar heuristic's
(K, L).
``stack_oracle`` is ``codec._stack`` as first written: one slice per
row of each block, joined per call.  The library builds one index map
per shape and gathers with it in one ``operator.itemgetter`` call, from
row-major or column-major entries; the tests check every map, and
encode's and decode's layouts, against this one.

``privacy_audit`` is the exhaustive privacy audit as first written: one
``codec.encode`` call per (secret, mask stack) and ``Counter``
multisets, at any block shapes.  ``harness.exhaustive_privacy_audit``
enumerates one-entry blocks only and computes a chunk of secrets'
shares under all mask stacks in one ``codec._shares`` product; its
verdicts are checked against this one here, at one-entry blocks and,
as a check of its reduction to them, at wider blocks.
"""

import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from gasp import codec, gf, harness
from gasp.codec import BlockShapes, EvaluationPlan
from gasp.degree_table import ExponentAssignment, SchemeParams, outer_sum
from gasp.errors import BudgetExceededError, ParameterError
from gasp.gf import FieldMatrix, PrimeFieldSpec
from gasp.schemes import (
    OptimizationResult,
    _n_big,
    _n_small,
    code_for_scheme,
    download_rate,
    gasp_grouped,
    kakar_heuristic,
    rate_r2,
)

# Term set of the worked small example (K, L, T) = (3, 3, 2): N = 18.
J_332 = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 18, 19, 21, 22)


def row(m: FieldMatrix, i: int) -> tuple[int, ...]:
    """Row i of m, a slice of its row-major entries."""
    return m.entries[i * m.cols:(i + 1) * m.cols]


def rows(m: FieldMatrix) -> list[list[int]]:
    """The entries of m as a list of row lists."""
    return [list(row(m, i)) for i in range(m.rows)]


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


def is_mds(p: int, m: FieldMatrix) -> bool:
    """True iff every maximal (rows x rows) minor of m has nonzero determinant.

    Every T-subset of the N columns is decided exactly.  The subsets are
    walked depth first in lexicographic order, and subsets with a common
    prefix share its elimination.  At depth d the walk has chosen d
    linearly independent columns S and holds a basis of the T - d vectors
    orthogonal to all of them, starting from the identity basis, each
    vector v kept as the row v @ m of its dots with the columns that may
    still be chosen.  If every dot with a column c is zero, c lies in
    span(S), so some T-subset holding S and c is singular; otherwise the
    first nonzero dot is the pivot, and eliminating it leaves a basis
    orthogonal to S and c.  With two vectors u, v left, det[S, c, d] is
    nonzero iff (u_c, v_c) and (u_d, v_d) are not parallel: no pair may
    be (0, 0), and the keys u_c / v_c (p when v_c = 0) must be distinct.
    T = 1 asks only that no entry is zero.

    The walk costs about C(N, T - 2) * N entry steps and is refused above
    ``gf.MDS_WALK_BUDGET``, as the library's walk is.  Entries may be any
    ints; they are reduced mod p first.
    """
    t, n = m.rows, m.cols
    if t > n:
        raise ParameterError(f"MDS check needs rows <= cols, got {t} x {n}")
    cost = math.comb(n, max(t - 2, 0)) * n
    if cost > gf.MDS_WALK_BUDGET:
        raise BudgetExceededError(
            f"MDS check of {t} x {n} needs {cost} steps, budget is {gf.MDS_WALK_BUDGET}"
        )

    def extend(rows):
        if len(rows) == 1:
            return 0 not in rows[0]
        if len(rows) == 2:
            u, v = rows
            if 0 in map(operator.or_, u, v):
                return False
            keys = [x * pow(y, -1, p) % p if y else p for x, y in zip(u, v)]
            return len(set(keys)) == len(keys)
        return all(choose(rows, c) for c in range(len(rows[0]) - len(rows) + 1))

    def choose(rows, c):
        dots = [row[c] for row in rows]
        k = next((i for i, x in enumerate(dots) if x), None)
        if k is None:
            return False
        tail = rows[k][c + 1:]
        inv_pv = pow(dots[k], -1, p)
        rest = []
        for i, row in enumerate(rows):
            if i != k:
                factor = dots[i] * inv_pv % p
                rest.append([(x - factor * y) % p for x, y in zip(row[c + 1:], tail)])
        return extend(rest)

    return extend([[e % p for e in row(m, i)] for i in range(t)])


def generalized_vandermonde(p: int, points, exponents) -> FieldMatrix:
    """Power matrix [x ** e mod p], a row per point and a column per exponent, as given."""
    exps = tuple(exponents)
    if any(e < 0 for e in exps):
        raise ParameterError("exponents must be nonnegative")
    pts = tuple(points)
    return FieldMatrix(len(pts), len(exps), tuple(pow(x, e, p) for x in pts for e in exps))


def mask_matrix(p: int, g: int, n: int, exponents) -> FieldMatrix:
    """The power matrix [(g ** j) ** e mod p], a row per exponent e and a column per j < n."""
    points = [pow(g, j, p) for j in range(n)]
    return FieldMatrix(len(exponents), n, tuple(pow(x, e, p) for e in exponents for x in points))


def gasp_big_oracle(params: SchemeParams) -> ExponentAssignment:
    """``schemes.gasp_big`` as first written, each orientation spelled out."""
    k, l, t = params.k, params.l, params.t
    masks = tuple(k * l + i for i in range(t))
    if l <= k:
        alpha = tuple(range(k)) + masks
        beta = tuple(k * j for j in range(l)) + masks
    else:
        alpha = tuple(l * i for i in range(k)) + masks
        beta = tuple(range(l)) + masks
    return ExponentAssignment(alpha, beta)


def gasp_small_oracle(params: SchemeParams) -> ExponentAssignment:
    """``schemes.gasp_small`` as first written, each orientation spelled out."""
    k, l, t = params.k, params.l, params.t
    if k <= l:
        alpha = tuple(range(k)) + tuple(k * l + k * i for i in range(t))
        beta = tuple(k * j for j in range(l)) + tuple(k * l + i for i in range(t))
    else:
        alpha = tuple(l * i for i in range(k)) + tuple(k * l + i for i in range(t))
        beta = tuple(range(l)) + tuple(k * l + l * i for i in range(t))
    return ExponentAssignment(alpha, beta)


def gasp_grouped_oracle(k: int, g: int) -> ExponentAssignment:
    """``schemes.gasp_grouped`` as first written: G runs of Q, then a run of R."""
    q, r = divmod(k, g)
    masks = [k * k + grp * k + i for grp in range(g) for i in range(q)]
    masks += [k * k + g * k + i for i in range(r)]
    alpha = tuple(range(k)) + tuple(masks)
    beta = tuple(k * j for j in range(k)) + tuple(k * k + i for i in range(k))
    return ExponentAssignment(alpha, beta)


def terms(table) -> tuple[int, ...]:
    """Distinct entries of a degree table, ascending: the term set J of its code."""
    return tuple(sorted(set(itertools.chain.from_iterable(table))))


def count_terms(assignment: ExponentAssignment, params: SchemeParams) -> int:
    """Number of distinct degree-table entries, the server count N, by brute force."""
    return len(terms(outer_sum(assignment, params)))


def grouped_sweep_oracle(k: int) -> list[tuple[int, int, Fraction]]:
    """(G, N, rate) for G = 1..K at K = L = T, one ``gasp_grouped`` code per G.

    Bit b of the mask is set iff b is in beta, so the mask shifted by a
    holds a + beta, and the OR over alpha holds the whole table.
    """
    params = SchemeParams(k, k, k)
    rows = []
    for g in range(1, k + 1):
        assignment = gasp_grouped(k, g)
        mask = 0
        for b in assignment.beta:
            mask |= 1 << b
        table = 0
        for a in assignment.alpha:
            table |= mask << a
        n = table.bit_count()
        rows.append((g, n, download_rate(params, n)))
    return rows


def optimize_gasp_oracle(n: int, t: int) -> OptimizationResult:
    """Best (K, L) for N workers: every pair K <= L under the search's bound.

    Both closed forms are at least (K+1)(L+1) + T - 2, so L stops at
    (N+1-K-T) // (K+1); rates are compared by cross-multiplied ints, ties
    broken toward smaller K+L, then smaller K.  N and T must form a valid
    pool, N >= 2T+1 >= 3.
    """
    best_k, best_l, best_n = 1, 1, _n_big(1, 1, t)
    for k in range(1, (n - t) // 2 + 1):
        for l in range(k, (n + 1 - k - t) // (k + 1) + 1):
            n_used = min(_n_small(k, l, t), _n_big(k, l, t))
            if n_used > n:
                continue
            gain = k * l * best_n - best_k * best_l * n_used
            if gain > 0 or gain == 0 and (k + l, k) < (best_k + best_l, best_k):
                best_k, best_l, best_n = k, l, n_used
    return OptimizationResult(best_k, best_l, best_n, Fraction(best_k * best_l, best_n))


def points(plan: EvaluationPlan) -> tuple[int, ...]:
    """The evaluation points g ** 0, ..., g ** (N-1) of a plan, one ``pow`` each."""
    return tuple(pow(plan.generator, n, plan.field.p) for n in range(len(plan.exponents)))


def stack_oracle(m: FieldMatrix, k: int, l: int) -> FieldMatrix:
    """Split m into a k x l grid of blocks; block (i, j) becomes row i*l + j, flattened row-major."""
    rows, cols = m.rows // k, m.cols // l
    entries = tuple(itertools.chain.from_iterable(
        m.entries[r * m.cols + j * cols:r * m.cols + (j + 1) * cols]
        for i in range(k) for j in range(l) for r in range(i * rows, (i + 1) * rows)
    ))
    return FieldMatrix(k * l, rows * cols, entries)


def kakar_rate(n: int, t: int) -> Fraction:
    """Rate of the gap-free baseline at the heuristic's (K, L) for N workers."""
    return rate_r2(SchemeParams(*kakar_heuristic(n, t), t))


def test_det_reference_value():
    m = generalized_vandermonde(29, range(1, 19), J_332)
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


def privacy_audit(params, p, shapes=None, plan=None, zero_masks=False) -> bool:
    """The exhaustive audit's verdict, by one ``codec.encode`` per (secret, mask stack)."""
    code = code_for_scheme(params, "auto")
    if shapes is None:
        shapes = BlockShapes(params.k, 1, params.l)
    if plan is None:
        plan = codec.find_evaluation_plan(code, field=PrimeFieldSpec(p))
    t = params.t
    block_rows, block_cols = shapes.r // params.k, shapes.t // params.l
    a_shape, b_shape = (shapes.r, shapes.s), (shapes.s, shapes.t)
    r_shape, s_shape = (t, block_rows * shapes.s), (t, shapes.s * block_cols)
    mask_values = range(1) if zero_masks else range(p)
    subsets = list(itertools.combinations(range(code.n_servers), t))

    def matrices(shape, values):
        for flat in itertools.product(values, repeat=math.prod(shape)):
            yield FieldMatrix(*shape, flat)

    def side_is_private(secret_shape, mask_shape, shares_of) -> bool:
        mask_stacks = list(matrices(mask_shape, mask_values))
        reference = None
        for secret in matrices(secret_shape, range(p)):
            counters = [Counter() for _ in subsets]
            for masks in mask_stacks:
                shares = [m.entries for m in shares_of(secret, masks)]
                for counter, subset in zip(counters, subsets):
                    counter[tuple(shares[i] for i in subset)] += 1
            if reference is None:
                reference = counters
            elif counters != reference:
                return False
        return True

    def encode(a, b, r_masks, s_masks):
        return codec._encode_with_masks(a, b, code, plan, shapes, r_masks, s_masks)

    zero_a, zero_b, zero_r, zero_s = (
        FieldMatrix(*dims, (0,) * math.prod(dims)) for dims in (a_shape, b_shape, r_shape, s_shape)
    )
    return side_is_private(
        a_shape, r_shape, lambda a, masks: encode(a, zero_b, masks, zero_s).f_shares
    ) and side_is_private(
        b_shape, s_shape, lambda b, masks: encode(zero_a, b, zero_r, masks).g_shares
    )


def _plan(params, p, generator):
    # None is the verified plan; g = 0 puts two servers at the point 0, and
    # g = -1, that is p - 1, has order 2, so the points repeat 1, p - 1, 1, ...
    if generator is None:
        return None
    exponents = code_for_scheme(params, "auto").exponents
    return EvaluationPlan(PrimeFieldSpec(p), generator % p, exponents)


# Codes, fields and block shapes (None: the audit's own K x 1 by 1 x L) at
# which the oracle runs.  The exhaustive audit runs at one-entry blocks
# whatever the shapes, and its verdict must equal the oracle's at wider
# ones too.
AUDIT_GRID = [
    (SchemeParams(1, 1, 1), 5, None),
    (SchemeParams(1, 1, 1), 7, None),
    (SchemeParams(1, 1, 2), 7, None),
    (SchemeParams(2, 2, 1), 11, None),
    (SchemeParams(1, 1, 1), 5, BlockShapes(1, 1, 2)),
    (SchemeParams(1, 1, 1), 5, BlockShapes(2, 1, 1)),
    (SchemeParams(1, 1, 1), 5, BlockShapes(1, 2, 1)),
]


@pytest.mark.parametrize("generator", [None, 0, -1])
@pytest.mark.parametrize("zero_masks", [False, True])
@pytest.mark.parametrize("params, p, shapes", AUDIT_GRID)
def test_exhaustive_audit_matches_oracle(params, p, shapes, zero_masks, generator):
    plan = _plan(params, p, generator)
    expected = privacy_audit(params, p, shapes=shapes, plan=plan, zero_masks=zero_masks)
    assert harness.exhaustive_privacy_audit(params, p, plan=plan, zero_masks=zero_masks) == expected


# The library audit runs at one-entry blocks whatever the shapes, so the
# rows with shapes would repeat the (1,1,1)/F_5 run of the first row; the
# test above compares the audit with the oracle at those shapes.
@pytest.mark.parametrize("generator", [None, 0, -1])
@pytest.mark.parametrize("zero_masks", [False, True])
@pytest.mark.parametrize("params, p, shapes", [row for row in AUDIT_GRID if row[2] is None])
def test_exhaustive_audit_chunk_boundaries(monkeypatch, params, p, shapes, zero_masks, generator):
    # The column cap is set so that every share product holds one secret,
    # then so that each side holds two secrets per product, which splits
    # its p ** K or p ** L secrets unevenly, p being odd.  One secret's
    # columns are its M = p ** T mask stacks (one with zero masks).  The
    # verdict must equal the default run's and the oracle's, and no
    # product may pass the cap unless one secret's columns alone do.
    plan = _plan(params, p, generator)
    expected = privacy_audit(params, p, shapes=shapes, plan=plan, zero_masks=zero_masks)

    def audit():
        return harness.exhaustive_privacy_audit(params, p, plan=plan, zero_masks=zero_masks)

    assert audit() == expected
    one_secret = (1 if zero_masks else p) ** params.t
    shipped, products = codec._shares, []

    def counted_shares(p, g, n, exponents, data, masks, rows, cols):
        products.append(cols)
        return shipped(p, g, n, exponents, data, masks, rows, cols)

    monkeypatch.setattr(codec, "_shares", counted_shares)
    for cap in (1, 2 * one_secret):
        monkeypatch.setattr(harness, "AUDIT_CHUNK_COLUMNS", cap)
        products.clear()
        assert audit() == expected, cap
        assert products and all(cols <= cap or cols == one_secret for cols in products), cap
        if expected and cap > 1:
            # A passing audit reaches every chunk: pairs, then one secret alone.
            assert {cap, cap // 2} <= set(products)


@pytest.mark.parametrize(
    "zero_masks, generator", [(True, None), (True, 0), (True, -1), (False, 0)]
)
def test_exhaustive_audit_matches_oracle_on_wide_blocks(zero_masks, generator):
    # r/K, s and t/L are all 2, so blocks and masks have four entries.  A
    # passing verdict here takes the oracle 2 * 5 ** 8 encodes, one per
    # (secret, mask stack), so only the cases that stop at the second
    # secret or have one mask stack are compared.  The audit runs at
    # one-entry blocks, and its verdict must be the oracle's here too.
    params, p, shapes = SchemeParams(1, 1, 1), 5, BlockShapes(2, 2, 2)
    plan = _plan(params, p, generator)
    expected = privacy_audit(params, p, shapes=shapes, plan=plan, zero_masks=zero_masks)
    assert expected is False
    assert harness.exhaustive_privacy_audit(params, p, plan=plan, zero_masks=zero_masks) is expected
