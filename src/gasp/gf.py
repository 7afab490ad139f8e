"""Exact arithmetic and dense linear algebra over prime fields.

Everything here is integer-exact: no floating point anywhere.  Matrices
are immutable row-major tuples.  Nothing here takes a determinant.  The
library's plans are invertible by construction, its decoder is built by
Lagrange interpolation, and whether a plan's generalized Vandermonde
matrix is invertible is decided in O(N) by the node check in ``codec``,
for the decoder and for ``codec._conditions``, the one plan verifier
that plan search and ``harness.mds_audit`` share; the tests keep a
determinant by elimination as the oracle for that check.
``generalized_vandermonde`` is the one builder of power matrices
[(g ** n) ** e_j] with a row per point g ** n: encode's two share
matrices.  It builds each exponent's column by running products, the
rows ``is_power_mds`` builds; the tests keep the builder over any
points, one ``pow`` per entry, as its oracle.
``is_power_mds`` is the mask condition of a plan with generator g, for
``codec._conditions``: every maximal minor of [(g ** n) ** e_i] is
nonzero.  It decides g = 0 directly, exponents in arithmetic progression
by an O(N) certificate, and any others by a walk over the column subsets
that hold column 0, which suffices since the points g ** n are
geometric; its docstring has the proofs.  The walk shares one
elimination among all subsets with a common prefix and decides every
subset under a node with two rows left by one test that the ratios of
those rows are distinct.  The tests keep the walk over all subsets of
any matrix as their oracle.

``mat_mul`` computes the user's encode, every server's product and the
decode.  Except on small products it multiplies by Kronecker
substitution, for every modulus p < 2**62, and packs along the
product's long side.  When a has no more rows than b has columns, row k
of b becomes one Python int whose slot j, ``width`` bytes wide, holds
b[k][j]; row i of the product is then the single sum of big-integer
products a[i][0]*packed[0] + ... + a[i][m-1]*packed[m-1], which CPython
computes in C.  When a is taller than b is wide, as encode's N x (K+T)
power matrix and decode's KL x N rows are against blocks of fewer
entries than there are servers, column k of a becomes the packed int
instead, and column j of the product is the single sum
b[0][j]*packed[0] + ... + b[m-1][j]*packed[m-1], b's column j taken as
one strided slice of its entries, in C.  Either way the packed ints run
along the long side and the sums number the short side.  Every entry
of a and b lies in [0, A], so each term of a slot lies in [0, A*A], a
slot never exceeds m*A*A, and ``width`` is the exact byte count of
m*A*A.  No slot carries into the next, and no term is negative, so none
borrows from it.  The operands are taken as they are when
``array('Q')`` accepts all their entries and every entry's bytes stay
within those of p - 1: no byte above p - 1's top byte, and that byte no
larger than p - 1's.  A is the largest such int,
(t + 1) * 256**(k - 1) - 1 for p - 1 of k bytes with top byte t, which
is below 2 * p.  Otherwise an operand is reduced mod p first, into
[0, p - 1].  So the width depends on m and p alone.  The sums are
joined into one little-endian buffer and each slot is reduced mod p
once.  Slots of 1, 2 or 4 bytes are read as they are, others are copied
into whole 8-byte words, and a slot of several words is combined as the
sum of word_i * (2**(64*i) mod p) before its one mod.  One packing core
serves every product: ``_pack`` turns rows into ints and ``_multiply``
sums rows of multipliers against them.  ``_product`` runs every
product and keeps a tall product's packed columns in a
``_FixedFactor``, as ``mat_mul``'s docstring describes.  A tall
product's entries come column by column: ``_FixedFactor.rows`` slices
each row of the product from them, and ``mat_mul`` and ``@`` join those
rows into a matrix.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb

from .errors import BudgetExceededError, ParameterError, check_type

MODULUS_BITS = 62
_MODULUS_LIMIT = 1 << MODULUS_BITS

# mat_mul packs when the product has at least this many entries; its
# docstring gives the measurements behind the number.
_PACK_MIN_ENTRIES = 64

# What mat_mul raises for an operand entry that is no int.
_NOT_INTS = "matrix entries must be ints"

# is_power_mds refuses a walk whose cost, C(N - 1, T - 3) * N entries, exceeds this.
MDS_WALK_BUDGET = 10**8

# Miller-Rabin to the first k of these primes as bases is proven correct for
# every n below psi_k, the smallest strong pseudoprime to all k of them
# (Jaeschke, Math. Comp. 1993; Sorenson and Webster, Math. Comp. 2017).
# is_prime also divides by each of them first.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# (psi_k, k), by increasing psi_k; psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
_MR_BASES = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, with as many bases as the size of n needs.

    n is first divided by the primes up to 43.  The bases are then the
    first k primes for the smallest k whose psi_k exceeds n (``_MR_BASES``),
    so the answer is proven for every n below psi_13, about 3.3e24.  That
    covers every modulus a field admits: p < 2**62 needs at most the
    twelve bases up to 37, and the prime 1,399 of a (4,4,3) session one.
    No such bound is known above psi_13, so there n is tested to all
    fourteen primes up to 43, and True means only that n is a strong
    probable prime to them.
    """
    if n < 2:
        return False
    for w in _SMALL_PRIMES:
        if n == w:
            return True
        if n % w == 0:
            return False
    k = next((k for bound, k in _MR_BASES if n < bound), len(_SMALL_PRIMES))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _SMALL_PRIMES[:k]:
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


@dataclass(frozen=True, slots=True, init=False)
class FieldMatrix:
    """Immutable row-major matrix of residues.

    A small session builds about a hundred of these, so ``__init__`` is
    written out: it checks its arguments and then sets each slot once
    through the slot's own descriptor, as a frozen class must, without
    the per-field ``object.__setattr__`` of a generated one.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        # Most callers pass a tuple already; copying it again is pure cost.
        if type(entries) is not tuple:
            check_type("entries", entries, Sequence)
            entries = tuple(entries)
        # A float dimension passes the checks below, then breaks slicing.
        if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
            raise ParameterError("matrix dimensions must be positive ints")
        if len(entries) != rows * cols:
            raise ParameterError(f"expected {rows * cols} entries, got {len(entries)}")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)


_set_rows, _set_cols, _set_entries = (
    FieldMatrix.__dict__[name].__set__ for name in ("rows", "cols", "entries")
)


def mat_mul(p: int, a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Product a @ b mod p, for 2 <= p < 2**62; entries of a and b may be any ints.

    An entry that is no int, such as a float, raises
    :class:`ParameterError` on either branch.

    Products of fewer than ``_PACK_MIN_ENTRIES`` = 64 entries take the
    schoolbook branch: each entry is one row of a dotted with one column
    of b, then reduced.  All others take the packed branch described in
    the module docstring, whatever the modulus, packing b's rows when a
    has no more rows than b has columns and a's columns otherwise.

    Why that rule: the schoolbook branch makes one Python-level dot
    product per entry of the product, while the packed branch costs a
    fixed set-up and one step per entry of a, of b and of the product,
    all in C, on top of one big-integer term per entry of the short
    operand; so what decides is the product's size.  Packing a's columns
    adds taking them as strided slices and turning the product's columns
    into rows, and breaks even later than packing b's rows, at about 64
    entries, where the one rule is set.  Measured on CPython 3.11 (2
    CPUs, shared host), schoolbook time over packed time by the
    product's short side (rows of a, or columns of b) and long side,
    geometric mean over m = columns of a in {1, 2, 8, 64}; each cell
    reads "b's rows packed / a's columns packed", the short side being
    a's rows in the first and b's columns in the second:

    =====  ===========  ===========  ===========  ===========  ===========  ===========
    p = 11,383
    ---------------------------------------------------------------------------------
    short  long 4       long 8       long 16      long 24      long 33      long 64
    =====  ===========  ===========  ===========  ===========  ===========  ===========
    1      0.40 / 0.26  0.55 / 0.34  0.76 / 0.55  0.90 / 0.65  1.04 / 0.77  1.47 / 0.95
    2      0.52 / 0.35  0.76 / 0.54  1.12 / 0.79  1.36 / 0.97  1.63 / 1.05  2.10 / 1.32
    3      0.62 / 0.43  0.93 / 0.71  1.39 / 1.19  1.69 / 1.30  1.95 / 1.59  2.58 / 2.00
    4      0.67 / 0.67  1.03 / 0.76  1.50 / 1.14  1.93 / 1.46  2.24 / 1.37  2.82 / 2.00
    8                   1.35 / 1.42  2.05 / 1.54  2.55 / 1.90  2.87 / 2.20  3.61 / 2.80
    16                               2.51 / 2.48  3.06 / 2.37  3.50 / 3.18  4.36 / 3.49
    =====  ===========  ===========  ===========  ===========  ===========  ===========

    =====  ===========  ===========  ===========  ===========  ===========  ===========
    p = 2**61 - 1
    ---------------------------------------------------------------------------------
    short  long 4       long 8       long 16      long 24      long 33      long 64
    =====  ===========  ===========  ===========  ===========  ===========  ===========
    1      0.43 / 0.33  0.65 / 0.50  0.79 / 0.62  0.93 / 0.77  0.98 / 0.91  1.23 / 1.03
    2      0.60 / 0.46  0.87 / 0.69  1.10 / 0.94  1.41 / 1.09  1.45 / 1.21  1.61 / 1.51
    3      0.76 / 0.60  1.06 / 0.76  1.21 / 1.10  1.52 / 1.41  1.64 / 1.39  1.79 / 1.54
    4      0.79 / 0.82  1.13 / 1.07  1.48 / 1.39  1.64 / 1.49  1.81 / 1.56  1.73 / 1.58
    8                   1.26 / 1.67  1.64 / 1.70  2.31 / 1.89  2.02 / 1.80  2.21 / 2.43
    16                               2.05 / 2.17  2.29 / 1.84  2.18 / 2.16  2.57 / 2.45
    =====  ===========  ===========  ===========  ===========  ===========  ===========

    Repeated runs differ by up to about 15%, and square shapes (short =
    long) take the same branch in both cells.  Packing a's columns breaks
    even at 64 entries (0.95 to 1.39 at 1 by 64 and 4 by 16) and gains
    above.  Packing b's rows gains from about 32 entries, so below the
    cut it would still gain up to about 40%, at 2 by 24 or 3 by 16,
    where packing a's columns loses at most 3% or gains at most 19%.
    One size keeps the rule one symmetric constant.  The protocol's
    large products gain most, and all pack b's rows.  Best of 5, at
    (K, L, T) = (8, 8, 2), encode (83x10 by 10x1024) ran 6.4x faster
    than the schoolbook loop at p = 11,383 and 3.3x at p = 2**61 - 1, a
    server's 16x64 by 64x16 product 3.1x and 3.6x, and decode (64x83 by
    83x256) 7.9x and 5.0x.

    Every product, one-shot or with a factor the codec keeps, runs in
    ``_product``.  A tall one packs a's columns into a ``_FixedFactor``
    of a: ``mat_mul`` makes one per call, and the codec keeps one per
    plan for each left factor the plan fixes, so a tall product takes
    the same steps either way, and a kept factor packs its columns
    once.  A (4,4,3) session on 2x2 blocks packs a's columns in encode
    (33x7 by 7x4) and decode (16x33 by 33x4), once per plan.  The
    exhaustive audit computes one side's shares under all M mask stacks
    of a secret in one product, whose columns are M times a block's
    entries, so it packs once the product reaches 64 entries.  The
    schoolbook side keeps the 2x2 products of small sessions and the
    audit's products with masks pinned to zero.
    """
    entries, by_column = _product(p, a, b, None)
    return _matrix(a.rows, b.cols, entries, by_column)


class _FixedFactor:
    """A left factor a of products a @ b mod p, which keeps a's packed columns.

    The codec keeps one per plan for each factor the plan fixes, so that
    a's columns are packed at its first tall product only: their width,
    the bytes of m * A * A, is fixed by a's m columns and p, and holds
    for every b.
    """

    __slots__ = ("p", "matrix", "columns")

    def __init__(self, p: int, matrix: FieldMatrix) -> None:
        self.p, self.matrix, self.columns = p, matrix, None

    def __matmul__(self, b: FieldMatrix) -> FieldMatrix:
        """a @ b mod p, as ``mat_mul`` computes it."""
        entries, by_column = _product(self.p, self.matrix, b, self)
        return _matrix(self.matrix.rows, b.cols, entries, by_column)

    def rows(self, b: FieldMatrix) -> Iterator[tuple[int, ...]]:
        """The rows of a @ b mod p in turn, each one slice of the entries as they are computed.

        A row is sliced only when the caller takes it.
        """
        entries, by_column = _product(self.p, self.matrix, b, self)
        n, q = self.matrix.rows, b.cols
        if by_column:
            return (entries[i::n] for i in range(n))
        return (entries[i:i + q] for i in range(0, n * q, q))


def _product(
    p: int, a: FieldMatrix, b: FieldMatrix, kept: _FixedFactor | None
) -> tuple[tuple[int, ...], bool]:
    """The entries of a @ b mod p, and whether they run column by column, not row by row.

    A tall product packs a's columns into ``kept``, a ``_FixedFactor`` of
    a, at its first tall product, and into a new one when there is none.
    """
    if a.cols != b.rows:
        raise ParameterError("shape mismatch in matrix product")
    n, m, q = a.rows, a.cols, b.cols
    if n * q < _PACK_MIN_ENTRIES:
        b_cols = [b.entries[j::q] for j in range(q)]
        try:
            entries = tuple([
                sum(map(operator.mul, r, c)) % p
                for i in range(0, n * m, m) for r in (a.entries[i:i + m],) for c in b_cols
            ])
        except TypeError:
            raise ParameterError(_NOT_INTS) from None
        # Every entry of a and b reaches an entry of the product, and a sum
        # of ints is an int, while one float, Fraction or Decimal makes the
        # sum one.  So one sum in C checks every entry's type.
        if type(sum(entries)) is not int:
            raise ParameterError(_NOT_INTS)
        return entries, False
    bound = _byte_bound(p)
    width = ((m * bound * bound).bit_length() + 7) // 8
    if n <= q:
        # Pack b's rows; a's rows multiply them.
        entries, words = _operands(p, a.entries + b.entries)
        packed = _pack(p, words[8 * n * m:], q, width)
        a_rows = (entries[i:i + m] for i in range(0, n * m, m))
        return _multiply(p, a_rows, packed, q, width), False
    # Pack a's columns, taken as strided slices; b's columns multiply them.
    if kept is None:
        kept = _FixedFactor(p, a)
    if kept.columns is None:
        columns = tuple(itertools.chain.from_iterable(a.entries[k::m] for k in range(m)))
        kept.columns = _pack(p, _operands(p, columns)[1], n, width)
    entries = _operands(p, b.entries)[0]
    return _multiply(p, (entries[j::q] for j in range(q)), kept.columns, n, width), True


def _matrix(rows: int, cols: int, entries: tuple[int, ...], by_column: bool) -> FieldMatrix:
    """The matrix of ``_product``'s entries, which it joins into rows if they run by column."""
    if by_column:
        entries = tuple(itertools.chain.from_iterable(entries[i::rows] for i in range(rows)))
    return FieldMatrix(rows, cols, entries)


def _pack(p: int, words: bytes, cols: int, width: int) -> list[int]:
    """One int per row of the matrix whose entries are ``words``, 8 bytes each.

    Slot j of row k's int, ``width`` bytes wide, holds entry j of row k:
    the low bytes of its word, those within p - 1's, whose higher bytes
    ``_operands`` has found zero.
    """
    slots = bytearray(len(words) // 8 * width)
    for j in range(((p - 1).bit_length() + 7) // 8):
        slots[j::width] = words[j::8]
    step = cols * width
    view = memoryview(slots)
    return [int.from_bytes(view[k:k + step], "little") for k in range(0, len(slots), step)]


def _multiply(p: int, rows, packed: list[int], cols: int, width: int) -> tuple[int, ...]:
    """Each row of multipliers dotted with the packed ints, ``cols`` slots read per row."""
    step = cols * width
    product = b"".join(sum(map(operator.mul, row, packed)).to_bytes(step, "little") for row in rows)
    return _unpack(p, product, width)


def _operands(p: int, entries) -> tuple[tuple[int, ...] | list[int], bytes]:
    """The entries and their little-endian 8-byte words, each at most ``_byte_bound(p)``.

    The entries are kept as they are when ``array('Q')`` accepts them and
    their bytes stay within those of p - 1, which one ``translate`` per
    byte column decides in C.  Otherwise they are reduced mod p.  An
    entry that ``array('Q')`` refuses for its type raises ParameterError.
    """
    size = ((p - 1).bit_length() + 7) // 8
    top = (p - 1) >> 8 * (size - 1)
    try:
        raw = _little_endian(array("Q", entries)).tobytes()
    except OverflowError:
        pass  # an entry below 0 or at least 2**64
    except TypeError:
        raise ParameterError(_NOT_INTS) from None
    else:
        if not raw[size - 1::8].translate(None, bytes(range(top + 1))) and not any(
            raw[j::8].translate(None, b"\0") for j in range(size, 8)
        ):
            return entries, raw
    try:
        entries = list(map(operator.mod, entries, itertools.repeat(p)))
        return entries, _little_endian(array("Q", entries)).tobytes()
    except TypeError:
        raise ParameterError(_NOT_INTS) from None


def _byte_bound(p: int) -> int:
    """The largest int whose bytes stay within those of p - 1; it is below 2 * p."""
    shift = 8 * (((p - 1).bit_length() + 7) // 8 - 1)
    return ((((p - 1) >> shift) + 1) << shift) - 1


def _little_endian(words: array) -> array:
    """``words`` with little-endian items, the byte order of packed slots."""
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _unpack(p: int, data: bytes, width: int) -> tuple[int, ...]:
    """The little-endian ``width``-byte slots of ``data``, each reduced mod p."""
    if width in (1, 2, 4):
        # The unsigned 1-, 2- and 4-byte array codes.
        code, per = "BHI"[width // 2], 1
    else:
        # Each slot becomes ``per`` whole 8-byte words, low word first.
        code, per = "Q", (width + 7) // 8
        stride = 8 * per
        if width < stride:
            words = bytearray(len(data) // width * stride)
            for j in range(width):
                words[j::stride] = data[j::width]
            data = words
    # A view of the buffer on a little-endian host, a swapped copy elsewhere.
    if sys.byteorder == "little":
        words = memoryview(data).cast(code)
    else:
        words = _little_endian(array(code, data))
    slots = words[::per]
    for i in range(1, per):
        weight = pow(2, 64 * i, p)
        slots = map(operator.add, slots, map(operator.mul, words[i::per], itertools.repeat(weight)))
    return tuple(map(operator.mod, slots, itertools.repeat(p)))


def generalized_vandermonde(p: int, g: int, n: int, exponents) -> FieldMatrix:
    """Power matrix [(g ** i) ** e mod p], a row per point g ** i, i < n.

    It has a column per exponent, in the caller's order.  Column e is
    (g ** e) ** 0 ... (g ** e) ** (n - 1), built by running products as
    ``is_power_mds`` builds its rows, so the matrix takes one ``pow`` per
    exponent instead of one per entry.  This builds encode's share
    matrices.
    """
    exps = tuple(exponents)
    if any(e < 0 for e in exps):
        raise ParameterError("exponents must be nonnegative")
    columns = [_geometric(p, pow(g, e, p), n) for e in exps]
    return FieldMatrix(n, len(exps), tuple(itertools.chain.from_iterable(zip(*columns))))


def is_progression(exponents) -> bool:
    """True iff the exponents are e0, e0 + d, e0 + 2d, ...; one or two always are."""
    return len({b - a for a, b in zip(exponents, exponents[1:])}) <= 1


def _geometric(p: int, r: int, n: int) -> list[int]:
    """r ** 0, ..., r ** (n - 1) mod p, by running products."""
    row = [1] * n
    for i in range(1, n):
        row[i] = row[i - 1] * r % p
    return row


def is_power_mds(p: int, g: int, n: int, exponents) -> bool:
    """True iff every T x T minor of the power matrix [(g ** j) ** e_i] is nonzero.

    The matrix has a row per exponent and a column per point g ** j,
    j < N: the mask condition of a GASP plan with generator g, under which
    any T servers' shares of one side are jointly uniform.  Plan search
    and ``harness.mds_audit`` decide it here, through the one plan
    verifier ``codec._conditions``.  A row
    (g ** e) ** 0 .. (g ** e) ** (N-1) is built by running products.

    *g = 0.*  The points are 1, 0, 0, ...: column 0 is all ones and every
    other column is z, z_i = 1 iff e_i = 0.  A T-subset that holds two
    copies of z is singular, and T <= N forces one unless T = 1 or
    T = N = 2.  So the check passes iff T = 1 and either N = 1 or
    e_0 = 0 (z is no zero column), or T = N = 2 and z is not parallel to
    the ones.

    *Progression certificate.*  When the T exponents form a progression
    e0 + d*i (T = 1 counts as one), the minor on points x_1..x_T factors
    as prod x_j ** e0 times the Vandermonde determinant of the x_j ** d,
    so it is nonzero iff each x_j ** e0 is nonzero and, for T >= 2, the
    x_j ** d are pairwise distinct.  For g != 0 no point is zero.  A
    colliding pair of d-th powers (g ** d) ** j extends to a T-subset
    whose minor vanishes, since T <= N, so the check passes iff those N
    powers are distinct: O(N) for the small and big codes.

    *Anchored walk.*  Any other exponent set, such as the runs of a
    grouped code, has T >= 3 and goes to :func:`_mds_walk`, which decides
    the subsets that hold column 0.  That decides all of them: column
    j + a is diag(g ** (a * e_i)) times column j, so for a column set S
    with smallest member a, the minor on S is g ** (a * sum e_i), a
    nonzero factor, times the minor on S - a, which holds column 0.
    """
    t = len(exponents)
    if t > n:
        raise ParameterError(f"MDS check needs rows <= cols, got {t} x {n}")
    g %= p
    if not g:
        zero = [e == 0 for e in exponents]
        if t == 1:
            return n == 1 or zero[0]
        return t == n == 2 and zero[0] != zero[1]
    if is_progression(exponents):
        return t == 1 or len(set(_geometric(p, pow(g, exponents[1] - exponents[0], p), n))) == n
    return _mds_walk(p, [_geometric(p, pow(g, e, p), n) for e in exponents])


def _mds_walk(p: int, rows: list[list[int]]) -> bool:
    """True iff every T-subset of the columns that holds column 0 is independent.

    ``rows`` are T >= 3 rows of N reduced entries.  No subset is sampled,
    so True is a proof.  The subsets are walked depth first in
    lexicographic order, and subsets with a common prefix share its
    elimination.  At depth d the walk has chosen d linearly independent
    columns S and holds a basis of the T - d vectors orthogonal to all
    of them, starting from the identity basis, each vector v kept as the
    row v @ m of its dots with the columns that may still be chosen.
    Adding column c reads column c of those rows.  If every dot is zero,
    c lies in span(S): some T-subset holds S and c, its minor vanishes,
    and the check returns False.  Otherwise the first nonzero dot is the
    pivot; eliminating it from the other rows leaves a basis orthogonal
    to S and c, and the walk goes down on the columns after c.  Depth 0
    takes column 0 only.

    At depth T - 2 two vectors u and v remain, and for columns c and d
    after the prefix, det[S, c, d] is nonzero iff (u_c, v_c) and
    (u_d, v_d) are not parallel.  So every pair is decided at once: no
    pair may be (0, 0), and the keys u_c / v_c, with p standing in when
    v_c = 0, must be pairwise distinct.  The inverses take one ``pow``
    per leaf by batch inversion (Montgomery 1987): with P_c the product of
    the v before c, 1 / v_c = P_c / P_(c+1), and walking back from the
    one inverse 1 / P_N, each 1 / P_c is 1 / P_(c+1) times v_c.

    The walk visits C(N - 2, T - 3) nodes, each updating fewer than T
    rows of at most N entries, so it costs about C(N - 1, T - 3) * N
    entry steps, not the C(N, T) of one test per minor.  Above
    ``MDS_WALK_BUDGET`` = 10**8 it raises :class:`BudgetExceededError`
    before doing any work.  It holds one set of rows per level and never
    a list of subsets.  The tests' oracle is the walk over all subsets.
    """
    t, n = len(rows), len(rows[0])
    cost = comb(n - 1, t - 3) * n
    if cost > MDS_WALK_BUDGET:
        raise BudgetExceededError(
            f"MDS check of {t} x {n} needs {cost} steps, budget is {MDS_WALK_BUDGET}"
        )

    def extend(rows: list[list[int]]) -> bool:
        # rows[i][j] = v_i . (column j after the last one chosen), for a
        # basis v of the vectors orthogonal to the chosen columns.
        if len(rows) > 2:
            return all(choose(rows, c) for c in range(len(rows[0]) - len(rows) + 1))
        u, v = rows
        # Residues are nonnegative, so x | y is 0 only for the pair (0, 0).
        if 0 in map(operator.or_, u, v):
            return False
        # Keys u_c / v_c, with p for v_c = 0: two p keys collide, and one
        # collides with nothing, so its column is dropped.
        zeros = v.count(0)
        if zeros > 1:
            return False
        if zeros:
            u, v = zip(*[(x, y) for x, y in zip(u, v) if y])
        # before[c] = v_0 ... v_(c-1); inv = 1 / (v_0 ... v_c), walked backwards.
        before, acc = [], 1
        for y in v:
            before.append(acc)
            acc = acc * y % p
        inv = pow(acc, -1, p)
        keys = []
        for x, b, y in zip(reversed(u), reversed(before), reversed(v)):
            keys.append(x * b * inv % p)
            inv = inv * y % p
        return len(set(keys)) == len(keys)

    def choose(rows: list[list[int]], c: int) -> bool:
        # Add column c to the chosen ones and walk every subset that extends them.
        dots = [row[c] for row in rows]
        k = next((i for i, x in enumerate(dots) if x), None)
        if k is None:
            return False
        tail = rows[k][c + 1:]
        # Negated, so that each entry is one nonnegative sum: x - f*y is slower.
        neg_inv_pv = -pow(dots[k], -1, p)
        rest = []
        for i, row in enumerate(rows):
            if i != k:
                factor = dots[i] * neg_inv_pv % p
                rest.append([(x + factor * y) % p for x, y in zip(row[c + 1:], tail)])
        return extend(rest)

    return choose(rows, 0)
