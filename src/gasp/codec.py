"""The secure multiplication pipeline: plan search, encode, evaluate, decode.

The user splits A into K row blocks and B into L column blocks, hides
each side behind T uniformly random mask matrices, and ships one masked
linear combination of blocks per server.  Each server multiplies its two
shares; the user interpolates the product polynomial from the N returned
matrices and reads every block product A_k B_l off its own coefficient.

Blocks have one layout, the stack: a matrix whose row j is block j
flattened row-major.  Every change of layout is one gather, an
``operator.itemgetter`` over an index map that :func:`_stack` builds
once per shape and caches.  A side's T masks are T more blocks (one
T-row stack), so its data blocks followed by its masks form one stack,
and all N shares of that side are a single product of the N x (K+T)
power matrix [a_n ** alpha_j] (for B, N x (L+T) and beta_j), built by
``gf._generalized_vandermonde`` from the plan's generator and N,
with that stack; row n is server n's share.  The N responses, one per
row, form decode's stack.
Only the KL coefficients at alpha_k + beta_l carry block products, so
decode multiplies the response stack by the KL matching rows of the
inverse generalized Vandermonde matrix, and one gather takes A @ B's
entries straight from that product's, in the order ``gf._product``
returns them.  All three left factors, the two power matrices and those
KL x N rows, are fixed by the plan, so each is built once per plan and
cached as a ``gf._FixedFactor``, which packs its columns at its first
tall product and keeps them; so are the indices of the KL rows.  Encode
takes the shares as the rows of the factor's product.

An evaluation plan is a field F_p and a generator g: server n evaluates
at g ** n.  The code carries its term set J, derived once from its
degree table by the :class:`schemes.PolynomialCode` constructor;
nothing here rebuilds the table, and a plan is checked against the code
by comparing the two tuples.
The generalized Vandermonde matrix [x_n ** e_j] over J is then
[y_j ** n], an ordinary Vandermonde matrix in the nodes y_j = g ** e_j,
so it is invertible exactly when those N nodes are pairwise distinct
(:func:`_distinct_nodes`), and its inverse's rows are Lagrange basis
polynomials, built from one master polynomial with no elimination.
Plan search scans g = 2, 3, ... and returns the first g whose nodes are
distinct and whose two T x N mask power matrices have every maximal
minor invertible, which is what makes any T shares jointly uniform.
That mask condition is decided from the generator by
``gf._is_power_mds``, whose docstring holds the proofs of the O(N)
certificate that covers the small and big codes and of the minor walk
anchored at column 0 that decides grouped codes.  Plan search and
``harness.mds_audit`` decide all three conditions through one verifier,
:func:`_conditions`.  A grouped code that the default field refuses is
planned over a larger fallback field, described in
:func:`find_evaluation_plan`.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import random
from array import array
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, islice, repeat

from . import gf
from .errors import (
    ParameterError,
    PlanSearchError,
    SingularMatrixError,
    _Value,
    check_int,
    check_positive,
    check_type,
)
from .gf import FieldMatrix, PrimeFieldSpec
from .schemes import PolynomialCode

# Plan search tries the generators 2, 3, ... up to this many of them.
MAX_CANDIDATES = 200


class BlockShapes(_Value):
    """Full matrix sizes: A is r x s, B is s x t."""

    r: int
    s: int
    t: int

    def __init__(self, r: int, s: int, t: int) -> None:
        for name, value in (("r", r), ("s", s), ("t", t)):
            check_positive(name, value)
            object.__setattr__(self, name, value)


class EvaluationPlan(_Value):
    """Field, generator g, and the exponent set J used to interpolate.

    Server n evaluates at the point g ** n, for n < N = len(J).  Plans
    produced by :func:`find_evaluation_plan` are verified; building one
    directly checks types and ranges only, which the audit tests use to
    construct deliberately broken plans: g = 0 gives a zero point, and a
    g of small multiplicative order repeats points.
    """

    field: PrimeFieldSpec
    generator: int
    exponents: tuple[int, ...]

    def __init__(self, field: PrimeFieldSpec, generator: int, exponents: tuple[int, ...]) -> None:
        check_type("field", field, PrimeFieldSpec)
        check_type("exponents", exponents, Sequence)
        exps = tuple(exponents)
        # A float generator passes the range check, then breaks pow.
        if type(generator) is not int or not 0 <= generator < field.p:
            raise ParameterError(f"generator must be an int in [0, p), got {generator!r}")
        # Float or bool exponents compare equal to the code's int term set.
        # Each check is one pass in C: the types, the least, then the order.
        if not exps:
            raise ParameterError("exponents must be non-empty")
        if set(map(type, exps)) != {int} or min(exps) < 0:
            raise ParameterError(f"exponents must be nonnegative ints, got {exps!r}")
        if not all(map(int.__lt__, exps, exps[1:])):
            raise ParameterError("exponents must be strictly increasing")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "exponents", exps)


class ShareBundle(_Value):
    """Per-server encoded matrices f(a_n) and g(a_n)."""

    field: PrimeFieldSpec
    f_shares: tuple[FieldMatrix, ...]
    g_shares: tuple[FieldMatrix, ...]

    def __init__(
        self, field: PrimeFieldSpec, f_shares: tuple[FieldMatrix, ...],
        g_shares: tuple[FieldMatrix, ...],
    ) -> None:
        # server_evaluate reads field.p and each share's shape.  The shares'
        # types are checked in one pass in C; only a failure looks for the
        # first bad share, whose message names it.
        check_type("field", field, PrimeFieldSpec)
        for name, shares in (("f_shares", f_shares), ("g_shares", g_shares)):
            check_type(name, shares, Sequence)
            if not all(map(isinstance, shares, repeat(FieldMatrix))):
                for i, share in enumerate(shares):
                    check_type(f"{name}[{i}]", share, FieldMatrix)
        if len(f_shares) != len(g_shares):
            raise ParameterError("share lists must have equal length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "f_shares", f_shares)
        object.__setattr__(self, "g_shares", g_shares)


class CostReport(_Value):
    """Total symbols moved: N(rs/K + st/L) up, N rt/(KL) down."""

    upload_symbols: int
    download_symbols: int


def default_field(code: PolynomialCode) -> PrimeFieldSpec:
    """Smallest prime above max(J) * N.

    The multiplicative group then has order at least max(J) * N, so small
    generators usually have order above max(J), which makes the nodes
    g ** e, e in J, distinct.  Usually, not always: the benchmark's grouped
    (4,4,4) G = 2 code first plans at g = 21 over its default p = 1,447.
    Some grouped codes find no generator at all over this field, such as
    (5,5,5) with G = 2 or 3 and (6,6,6) with G = 2, 3 or 4; plan search
    then rescans once over its fallback field, the smallest prime above
    4 * C(N, T), as :func:`find_evaluation_plan` describes.
    """
    check_type("code", code, PolynomialCode)
    return PrimeFieldSpec(gf.next_prime(code.exponents[-1] * code.n_servers))


def _powers(p: int, base: int, exponents) -> tuple[int, ...]:
    return tuple(pow(base, e, p) for e in exponents)


def _distinct_nodes(nodes: tuple[int, ...]) -> bool:
    """True iff the nodes g ** e mod p (``_powers``) are pairwise distinct.

    The generalized Vandermonde matrix [(g ** n) ** e_j] is [y_j ** n],
    the ordinary Vandermonde matrix in the nodes y_j = g ** e_j, whose
    determinant prod_{i < j} (y_j - y_i) is nonzero mod p exactly when
    no two nodes are equal.  The decoder and :func:`_conditions`, for
    plan search and ``harness.mds_audit``, decide GV invertibility here,
    in O(N).
    """
    return len(set(nodes)) == len(nodes)


def find_evaluation_plan(
    code: PolynomialCode,
    field: PrimeFieldSpec | None = None,
    seed: int = 0,
) -> EvaluationPlan:
    """The plan with the smallest generator g >= 2 that passes every condition.

    Each candidate g is checked exactly, with no sampling: first the
    nodes g ** e, e in J, for pairwise distinctness (the generalized
    Vandermonde matrix is invertible iff they are), then the alpha-mask
    and the beta-mask power matrices for every maximal minor nonzero, by
    ``gf._is_power_mds`` on g: an O(N) certificate for mask exponents
    in arithmetic progression (the small and big codes), and otherwise
    the exact minor walk anchored at column 0, which the points g ** n
    allow since they are geometric, and which raises
    :class:`BudgetExceededError` above ``gf.MDS_WALK_BUDGET``.  Only the
    accepted g becomes an :class:`EvaluationPlan`.  At most
    ``MAX_CANDIDATES`` generators are tried; a failed search raises
    :class:`PlanSearchError` with the number of candidates rejected for
    each condition.  ``seed`` is unused: the search is deterministic, and
    the keyword stays only for callers that still pass it.

    Without a ``field``, the search runs over :func:`default_field`.  If
    that scan fails and a mask side is no progression (a grouped code),
    it rescans once over the fallback field p = next_prime(4 * C(N, T)),
    and that scan's result or error is the search's.  The size is a
    heuristic: if each of the C(N, T) minors of a side vanished at a
    random g with chance about 1 / p, all of them would pass with chance
    about 3 / 4.  It only picks p; every verdict there is still exact.
    At that field g = 2 passes for every grouped code with K <= 6 that
    the default field refuses.  A plan the default field finds is never
    replaced, and an explicit ``field`` is scanned alone.
    """
    check_type("code", code, PolynomialCode)
    if field is not None:
        return _scan_generators(code, field)
    try:
        return _scan_generators(code, default_field(code))
    except PlanSearchError:
        if gf._is_progression(code.alpha_masks) and gf._is_progression(code.beta_masks):
            raise
    fallback = gf.next_prime(4 * math.comb(code.n_servers, code.params.t))
    return _scan_generators(code, PrimeFieldSpec(fallback))


def _scan_generators(code: PolynomialCode, field: PrimeFieldSpec) -> EvaluationPlan:
    """Scan g = 2, 3, ... over one field, as :func:`find_evaluation_plan` describes."""
    check_type("field", field, PrimeFieldSpec)
    p, n = field.p, code.n_servers
    if p <= n:
        raise ParameterError(f"field must satisfy p > N, got p={p}, N={n}")
    rejections = {"gv": 0, "alpha_mds": 0, "beta_mds": 0}
    candidates = range(2, min(p, 2 + MAX_CANDIDATES))
    for g in candidates:
        reason = next((name for name, ok in _conditions(code, p, g) if not ok), None)
        if reason is None:
            return EvaluationPlan(field, g, code.exponents)
        rejections[reason] += 1
    raise PlanSearchError(len(candidates), rejections)


def _conditions(code: PolynomialCode, p: int, g: int) -> Iterator[tuple[str, bool]]:
    """The three conditions of a plan with generator g over F_p, each with its verdict.

    In search order: ``"gv"``, the nodes g ** e, e in J, are pairwise
    distinct (:func:`_distinct_nodes`), so the generalized Vandermonde
    matrix is invertible; ``"alpha_mds"`` and ``"beta_mds"``, every
    maximal minor of that side's mask power matrix is nonzero
    (``gf._is_power_mds``).  Each verdict is decided only when the
    caller takes it.  Plan search stops at the first failure, and
    ``harness.mds_audit`` reads all three: both decide a plan here.
    """
    n = code.n_servers
    yield "gv", _distinct_nodes(_powers(p, g, code.exponents))
    yield "alpha_mds", gf._is_power_mds(p, g, n, code.alpha_masks)
    yield "beta_mds", gf._is_power_mds(p, g, n, code.beta_masks)


def _check_plan(code: PolynomialCode, plan: EvaluationPlan) -> None:
    check_type("code", code, PolynomialCode)
    check_type("plan", plan, EvaluationPlan)
    if plan.exponents != code.exponents:
        raise ParameterError("plan exponents do not match the code's term set")


def _block_sizes(code: PolynomialCode, shapes: BlockShapes) -> tuple[int, int]:
    """(r/K, t/L): the rows of A's row blocks and the columns of B's column blocks."""
    check_type("code", code, PolynomialCode)
    check_type("shapes", shapes, BlockShapes)
    k, l = code.params.k, code.params.l
    if shapes.r % k:
        raise ParameterError(f"K={k} must divide r={shapes.r}")
    if shapes.t % l:
        raise ParameterError(f"L={l} must divide t={shapes.t}")
    return shapes.r // k, shapes.t // l


def _check_matrix(name: str, m: FieldMatrix, rows: int, cols: int, p: int) -> None:
    check_type(name, m, FieldMatrix)
    if (m.rows, m.cols) != (rows, cols):
        raise ParameterError(f"{name} must be {rows} x {cols}, got {m.rows} x {m.cols}")
    if not _residues(m.entries, p):
        raise ParameterError(f"{name} entries must be int residues reduced mod {p}")


def _residues(entries: tuple, p: int) -> bool:
    # Exactness needs int entries: a float passes the range check, then rounds.
    # Each check is one pass in C: the entry types, then min and max.
    return set(map(type, entries)) == {int} and min(entries) >= 0 and max(entries) < p


def _response_entries(responses, rows: int, cols: int, p: int) -> tuple[int, ...]:
    """The responses' entries in turn, each response checked as ``_check_matrix`` checks it.

    The types and shapes are checked one response at a time, the entries
    in one pass over them all; only a failure looks for the first bad
    response, whose message names it.
    """
    ok = all(isinstance(r, FieldMatrix) and (r.rows, r.cols) == (rows, cols) for r in responses)
    if ok:
        entries = tuple(chain.from_iterable(r.entries for r in responses))
        ok = _residues(entries, p)
    if not ok:
        for i, resp in enumerate(responses):
            _check_matrix(f"responses[{i}]", resp, rows, cols, p)
    return entries


def random_matrix(p: int, rows: int, cols: int, rng: random.Random) -> FieldMatrix:
    """A rows x cols matrix of ``rng.randrange(p)`` draws, row-major.

    The draws run ``randrange``'s own rejection loop in C: take
    p.bit_length() random bits and keep the value if it is below p.  That
    gives the same values and leaves ``rng`` in the same state as
    ``randrange`` on a ``random.Random``, at about a quarter of the time.
    A modulus outside [2, 2**62) raises :class:`ParameterError`, as for
    p <= 0 the loop would never end, and so do ``rows`` and ``cols`` that
    are no positive ints and an ``rng`` that is no ``random.Random``.
    """
    gf._check_modulus(p)
    check_positive("rows", rows)
    check_positive("cols", cols)
    check_type("rng", rng, random.Random)
    draws = filter(p.__gt__, map(rng.getrandbits, repeat(p.bit_length())))
    return FieldMatrix(rows, cols, tuple(islice(draws, rows * cols)))


def _entropy_matrix(p: int, rows: int, cols: int) -> FieldMatrix:
    """A rows x cols matrix of uniform residues mod p from ``os.urandom``, row-major.

    A draw reads 8-byte words as ``array('Q')``, keeps each word's low
    p.bit_length() bits and keeps the values below p: ``random_matrix``'s
    rejection rule, so every residue is equally likely.  A value is kept
    with chance at least 1/2, so one draw of twice the missing count
    usually fills the matrix, and a short draw is topped up by the next.
    """
    need = rows * cols
    low_bits = (1 << p.bit_length()) - 1
    kept: list[int] = []
    while len(kept) < need:
        words = array("Q", os.urandom(16 * (need - len(kept))))
        kept.extend(filter(p.__gt__, map(low_bits.__and__, words)))
    return FieldMatrix(rows, cols, tuple(kept[:need]))


@functools.lru_cache(maxsize=16)
def _stack(rows: int, cols: int, k: int, l: int, by_column: bool) -> Callable[[tuple], tuple]:
    """The gather that splits a rows x cols matrix into a k x l grid of blocks.

    Block (i, j) becomes row i*l + j of the stack, flattened row-major.
    The gather takes the matrix's entries, row-major or, if
    ``by_column``, column-major, and returns the stack's entries
    row-major, in one C call: an ``operator.itemgetter`` over the index
    map, which is built once per shape and cached.  An identity map, as
    for any split of a row-major matrix into row blocks, gathers with
    ``tuple``, which returns a tuple as it is.  That covers the one-entry
    matrix, where an itemgetter of one index would return a bare entry.

    The split swaps the middle two axes of the entry index (block row,
    row in block, block column, column), so it also undoes itself:
    splitting a stack of k*l blocks, each with ``rows // k`` rows, into
    a k x ``rows // k`` grid yields the unsplit matrix's entries in
    row-major order.
    """
    block_rows, block_cols = rows // k, cols // l
    row_step, col_step = (1, rows) if by_column else (cols, 1)
    index = [
        r * row_step + c * col_step
        for i in range(0, rows, block_rows) for j in range(0, cols, block_cols)
        for r in range(i, i + block_rows) for c in range(j, j + block_cols)
    ]
    if all(map(int.__eq__, index, range(rows * cols))):
        return tuple
    return operator.itemgetter(*index)


def _shares(
    p: int, g: int, n: int, exponents, data: FieldMatrix, masks: FieldMatrix,
    rows: int, cols: int,
) -> tuple[FieldMatrix, ...]:
    """One side's shares: [(g ** i) ** e_j] @ (data stack, then mask stack), row i for server i."""
    powers = _power_matrix(p, g, n, tuple(exponents))
    stack = FieldMatrix(len(exponents), data.cols, data.entries + masks.entries)
    return tuple(FieldMatrix(rows, cols, row) for row in powers.rows(stack))


@functools.lru_cache(maxsize=16)
def _power_matrix(p: int, g: int, n: int, exponents: tuple[int, ...]) -> gf._FixedFactor:
    """Encode's N x (K+T) or N x (L+T) power matrix of a plan, built once."""
    return gf._FixedFactor(p, gf._generalized_vandermonde(p, g, n, exponents))


def encode(
    a: FieldMatrix,
    b: FieldMatrix,
    code: PolynomialCode,
    plan: EvaluationPlan,
    shapes: BlockShapes,
    seed: int | None = None,
) -> ShareBundle:
    """Produce one masked share pair per server.

    Server n receives f(a_n) = sum_k A_k a_n^alpha[k] + sum_t R_t
    a_n^alpha[K+t] and the matching g(a_n).  Each side is computed as
    one product: the N x (K+T) matrix [a_n ** alpha_j], built once per
    plan, times the stack of A's K row blocks and the R masks (for g,
    [a_n ** beta_j] times B's L column blocks and the S masks).  Masks
    are uniform, one T-row stack per side, R before S.  Without a
    ``seed`` they come from the operating system's entropy, one bulk
    ``os.urandom`` draw per stack.  An int ``seed`` draws them from
    ``random.Random(seed)`` instead, to replay a simulation: anyone who
    knows the seed knows the masks, so seeded shares hide nothing.
    """
    _check_plan(code, plan)
    if seed is not None:
        check_int("seed", seed)
    p = plan.field.p
    block_rows, block_cols = _block_sizes(code, shapes)
    _check_matrix("A", a, shapes.r, shapes.s, p)
    _check_matrix("B", b, shapes.s, shapes.t, p)
    sizes = (block_rows * shapes.s, shapes.s * block_cols)
    if seed is None:
        r_masks, s_masks = (_entropy_matrix(p, code.params.t, size) for size in sizes)
    else:
        rng = random.Random(seed)
        r_masks, s_masks = (random_matrix(p, code.params.t, size, rng) for size in sizes)
    return _encode_with_masks(a, b, code, plan, shapes, r_masks, s_masks)


def _encode_with_masks(
    a: FieldMatrix,
    b: FieldMatrix,
    code: PolynomialCode,
    plan: EvaluationPlan,
    shapes: BlockShapes,
    r_masks: FieldMatrix,
    s_masks: FieldMatrix,
) -> ShareBundle:
    """:func:`encode`'s shares under the given mask stacks, with no input checks.

    ``r_masks`` is the T x (r/K * s) stack that hides A's row blocks and
    ``s_masks`` the T x (s * t/L) stack that hides B's column blocks:
    row i of each is mask i, flattened row-major.
    """
    p, g, n = plan.field.p, plan.generator, code.n_servers
    k, l = code.params.k, code.params.l
    r, s, t = shapes.r, shapes.s, shapes.t
    block_rows, block_cols = r // k, t // l
    a_stack = FieldMatrix(k, block_rows * s, _stack(r, s, k, 1, False)(a.entries))
    b_stack = FieldMatrix(l, s * block_cols, _stack(s, t, 1, l, False)(b.entries))
    f_shares = _shares(p, g, n, code.assignment.alpha, a_stack, r_masks, block_rows, s)
    g_shares = _shares(p, g, n, code.assignment.beta, b_stack, s_masks, s, block_cols)
    return ShareBundle(plan.field, f_shares, g_shares)


def server_evaluate(bundle: ShareBundle, n: int) -> FieldMatrix:
    """What server n computes: the product of its two shares."""
    check_type("bundle", bundle, ShareBundle)
    # A float index passes the range check, then breaks tuple indexing.
    if type(n) is not int or not 0 <= n < len(bundle.f_shares):
        raise ParameterError(f"server index must be an int in [0, N), got {n!r}")
    return gf.mat_mul(bundle.field.p, bundle.f_shares[n], bundle.g_shares[n])


@functools.lru_cache(maxsize=8)
def _needed(
    exponents: tuple[int, ...], alpha: tuple[int, ...], beta: tuple[int, ...]
) -> tuple[int, ...]:
    """The rows of GV^-1 that decode needs: the index in J of alpha_k + beta_l, in (k, l) order."""
    index = {e: i for i, e in enumerate(exponents)}
    return tuple(index[x + y] for x in alpha for y in beta)


@functools.lru_cache(maxsize=8)
def _decoder(
    p: int, generator: int, exponents: tuple[int, ...], needed: tuple[int, ...]
) -> gf._FixedFactor:
    """Rows ``needed`` of GV^-1, GV = [(g ** n) ** e_j], as a len(needed) x N fixed factor.

    GV[n][j] = y_j ** n for the nodes y_j = g ** e_j, so row j of GV^-1
    holds the coefficients of the Lagrange basis polynomial
    L_j(z) = prod_{i != j} (z - y_i) / prod_{i != j} (y_j - y_i): the sum
    over n of L_j's z ** n coefficient times y_k ** n is L_j(y_k), which is
    1 at k = j and 0 elsewhere.  The master polynomial P(z) = prod (z - y_i)
    is built once, in O(N^2); each row's numerator is then P / (z - y_j),
    one synthetic division, and its denominator one product, both O(N).
    Colliding nodes make GV singular and raise :class:`SingularMatrixError`,
    which the cache does not keep.
    """
    nodes = _powers(p, generator, exponents)
    if not _distinct_nodes(nodes):
        raise SingularMatrixError("nodes g ** e collide: the Vandermonde matrix is singular")
    master = [1]  # coefficients of P, lowest degree first
    for y in nodes:
        master = [(a - y * b) % p for a, b in zip([0] + master, master + [0])]
    entries = []
    for j in needed:
        y = nodes[j]
        quotient = [1]  # P / (z - y), highest degree first
        for c in master[-2:0:-1]:
            quotient.append((c + y * quotient[-1]) % p)
        scale = pow(math.prod(y - x for x in nodes if x != y), -1, p)
        entries.extend(c * scale % p for c in reversed(quotient))
    return gf._FixedFactor(p, FieldMatrix(len(needed), len(nodes), tuple(entries)))


def decode(
    responses: tuple[FieldMatrix, ...],
    code: PolynomialCode,
    plan: EvaluationPlan,
    shapes: BlockShapes,
) -> FieldMatrix:
    """Recover the full product A @ B from all N server responses.

    The responses, stacked one per row, hold the product polynomial at
    the N points, so GV^-1 times that stack is the stack of its N
    coefficients.  The coefficient at exponent alpha[k] + beta[l] is
    exactly A_k B_l, so decode computes only those KL rows, in (k, l)
    order: one product of the prepared KL x N rows of GV^-1 with the
    response stack.  The prepared rows are built from Lagrange basis
    polynomials at the first decode on a plan, packed, and reused after
    that, and so are their indices.  The product's KL rows are the stack
    of A @ B's k x r/K grid of blocks (:func:`_stack` undoes itself), so
    one cached gather reads A @ B's entries straight from the product's,
    row by row or, on the tall route, column by column.
    """
    _check_plan(code, plan)
    p = plan.field.p
    k, l = code.params.k, code.params.l
    block_rows, block_cols = _block_sizes(code, shapes)
    n = code.n_servers
    check_type("responses", responses, Sequence)
    if len(responses) != n:
        raise ParameterError(f"need all {n} responses, got {len(responses)}")
    entries = _response_entries(responses, block_rows, block_cols, p)
    rhs = FieldMatrix(n, block_rows * block_cols, entries)
    needed = _needed(plan.exponents, code.assignment.alpha[:k], code.assignment.beta[:l])
    decoder = _decoder(p, plan.generator, plan.exponents, needed)
    products, by_column = gf._product(p, decoder.matrix, rhs, decoder)
    gather = _stack(k * l, block_rows * block_cols, k, block_rows, by_column)
    return FieldMatrix(shapes.r, shapes.t, gather(products))


def cost(code: PolynomialCode, shapes: BlockShapes) -> CostReport:
    """Exact symbol counts for one full multiplication."""
    block_rows, block_cols = _block_sizes(code, shapes)
    n = code.n_servers
    return CostReport(n * (block_rows + block_cols) * shapes.s, n * block_rows * block_cols)
