"""Exact arithmetic and dense linear algebra over prime fields.

Everything here is integer-exact: no floating point anywhere.  Matrices
are immutable row-major tuples.  Nothing here takes a determinant.  The
library's plans are invertible by construction, its decoder is built by
Lagrange interpolation, and whether a plan's generalized Vandermonde
matrix is invertible is decided in O(N) by the node check in ``codec``,
for plan search, the decoder and ``harness.mds_audit`` alike; the tests
keep a determinant by elimination as the oracle for that check and for
``is_mds``.
``generalized_vandermonde`` is the one builder of power matrices
[x_n ** e_j] with a row per point: encode's two share matrices.
``is_mds`` walks the column subsets depth first, shares one elimination
among all subsets with a common prefix, and decides every subset under
a node with two rows left by one test that the ratios of those rows are
distinct.  ``is_power_mds`` is the mask condition of a plan, shared by
plan search and ``harness.mds_audit``: its docstring proves the O(N)
certificate for exponents in arithmetic progression, and for any other
exponents it runs the walk of ``is_mds``.  On geometric points
x_n = x_0 * r ** n, as a plan's points g ** n are, that walk is
anchored: column n + a of [x_n ** e_i] is diag(r ** (a * e_i)) times
column n, so the minor on a column set S is a nonzero multiple of the
minor on S - min(S), which holds column 0.  Only the subsets that hold
column 0 are walked, about N / (T - 2) times fewer steps than all of
them.

``mat_mul`` computes the user's encode, every server's product and the
decode.  Except on narrow shapes it multiplies by Kronecker substitution.
Both operands are first reduced mod p.  Row k of b becomes one Python
int whose slot j, ``width`` bytes wide, holds b[k][j]; row i of the
product is then the single sum of big-integer products
a[i][0]*packed[0] + ... + a[i][m-1]*packed[m-1], which CPython computes
in C.  Slot j of that sum is exactly a[i][0]*b[0][j] + ... +
a[i][m-1]*b[m-1][j]: every term lies in [0, (p-1)**2], so a slot never
exceeds m*(p-1)**2, and the slots are byte-aligned and wide enough to
hold that bound.  No slot carries into the next, and no term is
negative, so none borrows from it.  One ``to_bytes`` call unpacks a row
and each slot is reduced mod p.  The width is rounded up to 1, 2, 4 or 8
bytes, so ``array`` packs the slots and ``memoryview.cast`` reads them
back.  A bound that needs more than 8 bytes, m*(p-1)**2 >= 2**64 (p
above about 2**32 / sqrt(m)), sends the product to the schoolbook loop.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from dataclasses import dataclass
from math import comb

from .errors import BudgetExceededError, ParameterError

MODULUS_BITS = 62
_MODULUS_LIMIT = 1 << MODULUS_BITS

# mat_mul packs b when a has at least two rows and b at least this many
# columns; its docstring gives the measurements behind the number.
_PACK_MIN_COLS = 8
# Slot widths in bytes that ``array`` packs and ``memoryview.cast`` unpacks,
# and the bound the widest of them, 8 bytes, holds.
_SLOT_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}
_SLOT_LIMIT = 1 << 64
_BYTE_ORDER = sys.byteorder

# is_mds refuses a walk whose cost, C(N, T - 2) * N entries, exceeds this.
MDS_WALK_BUDGET = 10**8

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
        # Most callers pass a tuple already; copying it again is pure cost.
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))
        # A float dimension passes the checks below, then breaks slicing.
        rows, cols = self.rows, self.cols
        if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
            raise ParameterError("matrix dimensions must be positive ints")
        if len(self.entries) != rows * cols:
            raise ParameterError(f"expected {rows * cols} entries, got {len(self.entries)}")

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]


def mat_mul(p: int, a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Product a @ b mod p; entries of a and b may be any ints.

    Shapes where a has one row or b has fewer than ``_PACK_MIN_COLS`` = 8
    columns take the schoolbook branch: each entry is one row of a dotted
    with one column of b, then reduced.  So do products whose slot bound
    m*(p-1)**2 does not fit in 8 bytes.  All other shapes take the packed
    branch described in the module docstring.

    Why that rule: packing costs about one step per entry of b and of the
    product on top of the m big-integer terms per row, so it pays only when
    each packed row serves several rows of a and holds several columns.
    With one row in a, packing b alone touches every entry of b once,
    which is all the work the schoolbook branch does.  Measured on
    CPython 3.11 (2 CPUs), schoolbook time over packed time at
    p = 11,383, by rows of a and q = columns of b, geometric mean over
    m = columns of a in {1, 2, 8, 64}:

    ========  =====  =====  =====  =====  =====
    rows(a)   q = 4  q = 6  q = 8  q = 16 q = 64
    ========  =====  =====  =====  =====  =====
    1          0.58   0.69   0.73   0.91   1.33
    2          0.68   0.84   0.80   1.33   2.05
    3          0.68   1.00   1.14   1.55   2.28
    16         0.95   1.10   1.44   2.11   3.63
    ========  =====  =====  =====  =====  =====

    The boundary is not sharp: 2 rows by 8 columns still lose 20%, and
    16 rows by 6 columns would gain 10%; one column count keeps the rule a
    single constant.  At p = 7 the numbers are within about 25% of these.
    The protocol's large products gain most: at (K, L, T) = (8, 8, 2),
    p = 11,383, best of 5, encode (83x10 by 10x1024) ran 6.2x faster than
    the schoolbook loop, a server's 16x64 by 64x16 product 2.6x and decode
    (64x83 by 83x256) 5.8x.  The exhaustive audit computes one side's
    shares under all M mask stacks of a secret in one product, whose
    columns are M times a block's entries, so it packs once that reaches
    8.  The schoolbook side keeps the 2x2 products of small sessions, the
    audit's products with masks pinned to zero and moduli above about
    2**32 / sqrt(m), which no workload here uses.
    """
    if a.cols != b.rows:
        raise ParameterError("shape mismatch in matrix product")
    n, m, q = a.rows, a.cols, b.cols
    # Every product entry sums m terms of at most (p-1)**2; the bound is
    # computed only for shapes that may pack.
    if n < 2 or q < _PACK_MIN_COLS or (bound := m * (p - 1) ** 2) >= _SLOT_LIMIT:
        a_rows = [a.row(i) for i in range(n)]
        b_cols = [b.entries[j::q] for j in range(q)]
        entries = tuple(sum(map(operator.mul, row, col)) % p for row in a_rows for col in b_cols)
        return FieldMatrix(n, q, entries)
    a_entries = [e % p for e in a.entries]
    # Bytes per slot, rounded up to a power of two.
    width = 1 << ((bound.bit_length() + 7) // 8 - 1).bit_length()
    code = _SLOT_TYPECODES[width]
    slots = array(code, [e % p for e in b.entries]).tobytes()
    step = q * width
    packed = [int.from_bytes(slots[k:k + step], _BYTE_ORDER) for k in range(0, m * step, step)]
    entries = []
    for i in range(0, n * m, m):
        row = sum(map(operator.mul, a_entries[i:i + m], packed)).to_bytes(step, _BYTE_ORDER)
        entries.extend(map(operator.mod, memoryview(row).cast(code), itertools.repeat(p)))
    return FieldMatrix(n, q, tuple(entries))


def generalized_vandermonde(p: int, points, exponents) -> FieldMatrix:
    """Power matrix [x ** e mod p], a row per point and a column per exponent.

    Both keep the caller's order.  This builds encode's share matrices.
    """
    exps = tuple(exponents)
    if any(e < 0 for e in exps):
        raise ParameterError("exponents must be nonnegative")
    pts = tuple(points)
    return FieldMatrix(len(pts), len(exps), tuple(pow(x, e, p) for x in pts for e in exps))


def is_mds(p: int, m: FieldMatrix) -> bool:
    """True iff every maximal (rows x rows) minor has nonzero determinant.

    Every T-subset of the N columns is decided exactly, none is sampled,
    so True is a proof.  The subsets are walked depth first in
    lexicographic order, and subsets with a common prefix share its
    elimination.  At depth d the walk has chosen d linearly independent
    columns S and holds a basis of the T - d vectors orthogonal to all
    of them; at depth 0 that is the identity basis.  Each basis vector v
    is kept as the row v @ m of its dot products with the columns that
    may still be chosen, so adding column c reads column c of those rows:

    * if every dot is zero, c lies in span(S).  The walk only tries a c
      that leaves at least T - 1 - d columns after it, so some T-subset
      contains S and c, its minor vanishes, and the check returns False;
    * otherwise the first nonzero dot is the pivot.  Eliminating it from
      the other rows leaves a basis of the T - d - 1 vectors orthogonal
      to S and c, and the walk goes one level down on the columns after c.

    The walk stops at depth T - 2, where two vectors u and v remain.  For
    columns c and d after the prefix, det[S, c, d] is nonzero iff the
    2 x 2 minor u_c v_d - u_d v_c is, that is iff the pairs (u_c, v_c)
    and (u_d, v_d) are not parallel.  So every pair is decided at once:
    no pair (u_c, v_c) may be (0, 0), and the keys u_c / v_c mod p, with
    the key p standing in when v_c = 0, must be pairwise distinct.  That
    costs one inverse per column and one set; T = 2 is the whole walk,
    and T = 1 asks only that no entry is zero.  Every T-subset is decided
    as one prefix plus one pair.

    The walk visits C(N - T + d, d) nodes at depth d, C(N - 1, T - 2) in
    all.  Making a node updates fewer than T rows of at most N entries,
    and a two-row node computes at most N keys, so the walk costs about
    C(N, T - 2) * N entry steps, not the C(N, T) of one test per minor.
    If that count (N when T = 1) exceeds ``MDS_WALK_BUDGET`` = 10**8, the
    check raises :class:`BudgetExceededError` before doing any work.  The
    walk holds one set of rows per level, at most T * T * N entries, and
    never a list of subsets.  Entries may be any ints; they are reduced
    mod p first.

    This is the general check and the tests' oracle for
    :func:`is_power_mds`, which shares its walk for mask exponents that
    are not an arithmetic progression (grouped codes), restricted to the
    subsets that hold column 0 when the points are geometric, and decides
    progression masks by the O(N) certificate its docstring proves.
    """
    t, n = m.rows, m.cols
    if t > n:
        raise ParameterError(f"MDS check needs rows <= cols, got {t} x {n}")
    return _mds_walk(p, [[e % p for e in m.row(i)] for i in range(t)], anchored=False)


def _mds_walk(p: int, rows: list[list[int]], anchored: bool) -> bool:
    """The walk of :func:`is_mds` on T reduced rows of N entries, T <= N.

    With ``anchored`` and T >= 3, the top level takes only column 0, so
    only the T-subsets that hold column 0 are decided; the docstring of
    :func:`is_power_mds` proves that this decides all of them when the
    columns come from geometric points.  That walk visits C(N - 2, T - 3)
    nodes and costs about C(N - 1, T - 3) * N steps, which is checked
    against ``MDS_WALK_BUDGET`` as the full walk's cost is.
    """
    t, n = len(rows), len(rows[0])
    anchored = anchored and t > 2
    cost = (comb(n - 1, t - 3) if anchored else comb(n, max(t - 2, 0))) * n
    if cost > MDS_WALK_BUDGET:
        raise BudgetExceededError(
            f"MDS check of {t} x {n} needs {cost} steps, budget is {MDS_WALK_BUDGET}"
        )

    def extend(rows: list[list[int]]) -> bool:
        # rows[i][j] = v_i . (column j after the last one chosen), for a
        # basis v of the vectors orthogonal to the chosen columns.
        if len(rows) == 1:
            return 0 not in rows[0]
        if len(rows) == 2:
            u, v = rows
            # Residues are nonnegative, so x | y is 0 only for the pair (0, 0).
            if 0 in map(operator.or_, u, v):
                return False
            keys = [x * pow(y, -1, p) % p if y else p for x, y in zip(u, v)]
            return len(set(keys)) == len(keys)
        return all(choose(rows, c) for c in range(len(rows[0]) - len(rows) + 1))

    def choose(rows: list[list[int]], c: int) -> bool:
        # Add column c to the chosen ones and walk every subset that extends them.
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

    return choose(rows, 0) if anchored else extend(rows)


def is_progression(exponents) -> bool:
    """True iff the exponents are e0, e0 + d, e0 + 2d, ...; one or two always are."""
    return len({b - a for a, b in zip(exponents, exponents[1:])}) <= 1


def _is_geometric(p: int, points) -> bool:
    """True iff x_0 != 0 and x_(n+1) = r * x_n mod p for one ratio r != 0."""
    x0 = points[0] % p
    if not x0:
        return False
    r = points[1] * pow(x0, -1, p) % p
    return r != 0 and all((y - r * x) % p == 0 for x, y in zip(points, points[1:]))


def is_power_mds(p: int, points, exponents) -> bool:
    """True iff every T x T minor of the power matrix [x_n ** e_i] is nonzero.

    The matrix has one row per exponent and one column per point, so
    with T exponents and N points this is the mask condition of a GASP
    plan: any T servers' shares of one side are jointly uniform.  It is
    the single decision behind plan search (``codec.find_evaluation_plan``)
    and the algebraic audit (``harness.mds_audit``).

    *Progression certificate.*  When the T exponents form a progression
    e0 + d*i (T = 1 counts as one), the minor on points x_1..x_T factors
    as prod x_j ** e0 times the Vandermonde determinant of the x_j ** d,
    so it is nonzero iff each x_j ** e0 is nonzero and, for T >= 2, the
    x_j ** d are pairwise distinct.  That holds for every T-subset iff it
    holds for all N points at once: since T <= N, a zero entry or a
    colliding pair of d-th powers extends to a T-subset whose minor
    vanishes.  So the small and big codes, whose mask exponents are
    progressions, are decided in O(N).

    *Anchored walk.*  Any other exponent set, such as the runs of a
    grouped code, is decided by the minor walk of :func:`is_mds`.  When
    the points are geometric, x_n = x_0 * r ** n with x_0 and r nonzero
    mod p, as every plan's points g ** n are for g != 0, the walk needs
    only the subsets that hold column 0.  Column n + a of the matrix is
    diag(r ** (a * e_i)) times column n, so for a column set S with
    smallest member a, the submatrix on S is diag(r ** (a * e_i)) times
    the submatrix on S - a, and its minor is r ** (a * sum e_i), a
    nonzero factor, times the minor on S - a.  S - a lies in 0..N-1 and
    holds column 0, so every minor vanishes iff one that holds column 0
    does.  The proof uses the points only, not the exponents.  Deciding
    those subsets costs about C(N - 1, T - 3) * N steps, N / (T - 2)
    times fewer than the full walk's C(N, T - 2) * N (18 times at N = 36,
    T = 4).  Points that are not geometric, such as a zero point or an
    arbitrary set, take the full walk.  Either walk raises
    :class:`BudgetExceededError` when its own cost exceeds
    ``MDS_WALK_BUDGET``.  Checking that the points are geometric is O(N)
    and runs only for exponents that are no progression.
    """
    t, n = len(exponents), len(points)
    if t > n:
        raise ParameterError(f"MDS check needs rows <= cols, got {t} x {n}")
    if not is_progression(exponents):
        rows = [[pow(x, e, p) for x in points] for e in exponents]
        return _mds_walk(p, rows, anchored=_is_geometric(p, points))
    e0 = exponents[0]
    if not all(pow(x, e0, p) for x in points):
        return False
    return t == 1 or len({pow(x, exponents[1] - e0, p) for x in points}) == n
