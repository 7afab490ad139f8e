"""The secure multiplication pipeline: plan search, encode, evaluate, decode.

The user splits A into K row blocks and B into L column blocks, hides
each side behind T uniformly random mask matrices, and ships one masked
linear combination of blocks per server.  Each server multiplies its two
shares; the user interpolates the product polynomial from the N returned
matrices and reads every block product A_k B_l off its own coefficient.

Blocks and shares have one layout, the stack: a matrix whose row j is
block j flattened row-major.  A side's data blocks followed by its T
masks form one stack, so all N shares of that side are a single product
of the N x (K+T) power matrix [a_n ** alpha_j] (for B, N x (L+T) and
beta_j), built by :func:`gf.generalized_vandermonde`, with that stack;
row n is server n's share.  Decode stacks the N responses the same way.
Only the KL coefficients at alpha_k + beta_l carry block products, so
decode multiplies the response stack by the KL matching rows of the
inverse generalized Vandermonde matrix.  Those prepared KL x N rows
are built once per plan and cached, and A @ B is reassembled from the
product's KL rows.

An evaluation plan is a field F_p and a generator g: server n evaluates
at g ** n.  The code carries its term set J, built once from its degree
table by :func:`schemes.build_code`; nothing here rebuilds the table,
and a plan is checked against the code by comparing the two tuples.
The generalized Vandermonde matrix [x_n ** e_j] over J is then
[y_j ** n], an ordinary Vandermonde matrix in the nodes y_j = g ** e_j,
so it is invertible exactly when those N nodes are pairwise distinct,
and its inverse's rows are Lagrange basis polynomials, built from one
master polynomial with no elimination.  Plan search scans g = 2, 3, ...
and returns the first g whose nodes are distinct and whose two T x N
mask power matrices have every maximal minor invertible, which is what
makes any T shares jointly uniform.  That mask condition is decided by
:func:`gf.is_power_mds`, whose docstring holds the proof of the O(N)
certificate that covers the small and big codes; the audit calls the
same function.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import chain

from . import gf
from .errors import ParameterError, PlanSearchError, SingularMatrixError
from .gf import FieldMatrix, PrimeFieldSpec
from .schemes import PolynomialCode

# Plan search tries the generators 2, 3, ... up to this many of them.
MAX_CANDIDATES = 200


@dataclass(frozen=True)
class BlockShapes:
    """Full matrix sizes: A is r x s, B is s x t."""

    r: int
    s: int
    t: int

    def __post_init__(self) -> None:
        for name, value in (("r", self.r), ("s", self.s), ("t", self.t)):
            if type(value) is not int or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class EvaluationPlan:
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        # A float generator passes the range check, then breaks pow.
        if type(self.generator) is not int or not 0 <= self.generator < self.field.p:
            raise ParameterError(f"generator must be an int in [0, p), got {self.generator!r}")
        # Float or bool exponents compare equal to the code's int term set.
        if any(type(e) is not int or e < 0 for e in self.exponents):
            raise ParameterError(f"exponents must be nonnegative ints, got {self.exponents!r}")
        if list(self.exponents) != sorted(set(self.exponents)):
            raise ParameterError("exponents must be strictly increasing")

    @property
    def points(self) -> tuple[int, ...]:
        """The evaluation points g ** 0, ..., g ** (N-1), one per server."""
        return _powers(self.field.p, self.generator, range(len(self.exponents)))


@dataclass(frozen=True)
class MaskSet:
    """The T random matrices added to each side before sharing."""

    r_masks: tuple[FieldMatrix, ...]
    s_masks: tuple[FieldMatrix, ...]


@dataclass(frozen=True)
class ShareBundle:
    """Per-server encoded matrices f(a_n) and g(a_n)."""

    field: PrimeFieldSpec
    f_shares: tuple[FieldMatrix, ...]
    g_shares: tuple[FieldMatrix, ...]

    def __post_init__(self) -> None:
        if len(self.f_shares) != len(self.g_shares):
            raise ParameterError("share lists must have equal length")

    @property
    def n_servers(self) -> int:
        return len(self.f_shares)


@dataclass(frozen=True)
class CostReport:
    """Total symbols moved: N(rs/K + st/L) up, N rt/(KL) down."""

    upload_symbols: int
    download_symbols: int


def default_field(code: PolynomialCode) -> PrimeFieldSpec:
    """Smallest prime above max(J) * N.

    The multiplicative group then has order at least max(J) * N, so small
    generators usually have order above max(J), which makes the nodes
    g ** e, e in J, distinct; g = 2 is accepted at every default field
    the tests and the benchmark use.
    """
    return PrimeFieldSpec(gf.next_prime(code.exponents[-1] * code.n_servers))


def _powers(p: int, base: int, exponents) -> tuple[int, ...]:
    return tuple(pow(base, e, p) for e in exponents)


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
    :func:`gf.is_power_mds`: an O(N) certificate for mask exponents in
    arithmetic progression (the small and big codes), and otherwise the
    exact walk of :func:`gf.is_mds`, which raises
    :class:`BudgetExceededError` above ``gf.MDS_WALK_BUDGET``.  At most
    ``MAX_CANDIDATES`` generators are tried; a failed search raises
    :class:`PlanSearchError` with the number of candidates rejected for
    each condition.  ``seed`` is unused: the search is deterministic, and
    the keyword stays only for callers that still pass it.
    """
    if field is None:
        field = default_field(code)
    p, n = field.p, code.n_servers
    if p <= n:
        raise ParameterError(f"field must satisfy p > N, got p={p}, N={n}")
    exponents = code.exponents
    rejections = {"gv": 0, "alpha_mds": 0, "beta_mds": 0}
    candidates = range(2, min(p, 2 + MAX_CANDIDATES))
    for g in candidates:
        plan = EvaluationPlan(field, g, exponents)
        if len(set(_powers(p, g, exponents))) < n:
            reason = "gv"
        elif not gf.is_power_mds(p, plan.points, code.alpha_masks):
            reason = "alpha_mds"
        elif not gf.is_power_mds(p, plan.points, code.beta_masks):
            reason = "beta_mds"
        else:
            return plan
        rejections[reason] += 1
    raise PlanSearchError(len(candidates), rejections)


def _check_plan(code: PolynomialCode, plan: EvaluationPlan) -> None:
    if plan.exponents != code.exponents:
        raise ParameterError("plan exponents do not match the code's term set")


def _check_shapes(code: PolynomialCode, shapes: BlockShapes) -> None:
    if shapes.r % code.params.k:
        raise ParameterError(f"K={code.params.k} must divide r={shapes.r}")
    if shapes.t % code.params.l:
        raise ParameterError(f"L={code.params.l} must divide t={shapes.t}")


def _check_matrix(name: str, m: FieldMatrix, rows: int, cols: int, p: int) -> None:
    # A missing response (None) or a list of rows would fail below on .rows.
    if not isinstance(m, FieldMatrix):
        raise ParameterError(f"{name} must be a FieldMatrix, got {type(m).__name__}")
    if (m.rows, m.cols) != (rows, cols):
        raise ParameterError(f"{name} must be {rows} x {cols}, got {m.rows} x {m.cols}")
    # Exactness needs int entries: a float passes the range check, then rounds.
    # Each check is one pass in C: the entry types, then min and max.
    if set(map(type, m.entries)) != {int} or min(m.entries) < 0 or max(m.entries) >= p:
        raise ParameterError(f"{name} entries must be int residues reduced mod {p}")


def random_matrix(p: int, rows: int, cols: int, rng: random.Random) -> FieldMatrix:
    return FieldMatrix(rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))


def _stack(m: FieldMatrix, k: int, l: int) -> FieldMatrix:
    """Split m into a k x l grid of blocks; block (i, j) becomes row i*l + j.

    The split swaps the middle two axes of the entry index (block row,
    row in block, block column, column), so it also undoes itself:
    splitting a stack of k*l blocks, each with ``rows`` rows, into a
    k x ``rows`` grid yields the unsplit matrix's entries in row-major order.
    """
    rows, cols = m.rows // k, m.cols // l
    entries = tuple(chain.from_iterable(
        m.entries[r * m.cols + j * cols:r * m.cols + (j + 1) * cols]
        for i in range(k) for j in range(l) for r in range(i * rows, (i + 1) * rows)
    ))
    return FieldMatrix(k * l, rows * cols, entries)


def _shares(
    p: int, points, exponents, data: FieldMatrix, masks, rows: int, cols: int
) -> tuple[FieldMatrix, ...]:
    """One side's shares: [x_n ** e_j] @ (data stack, then masks), one row per server."""
    mask_entries = tuple(chain.from_iterable(m.entries for m in masks))
    stack = FieldMatrix(len(exponents), data.cols, data.entries + mask_entries)
    product = gf.mat_mul(p, gf.generalized_vandermonde(p, points, exponents), stack)
    return tuple(FieldMatrix(rows, cols, product.row(n)) for n in range(product.rows))


def encode(
    a: FieldMatrix,
    b: FieldMatrix,
    code: PolynomialCode,
    plan: EvaluationPlan,
    shapes: BlockShapes,
    seed: int = 0,
    masks: MaskSet | None = None,
) -> ShareBundle:
    """Produce one masked share pair per server.

    Server n receives f(a_n) = sum_k A_k a_n^alpha[k] + sum_t R_t
    a_n^alpha[K+t] and the matching g(a_n).  Each side is computed as
    one product: the N x (K+T) matrix [a_n ** alpha_j] times the stack
    of A's K row blocks and the R masks (for g, [a_n ** beta_j] times
    B's L column blocks and the S masks).  Masks are drawn from a
    seeded uniform source, R before S, unless injected via ``masks``
    (for audits).
    """
    p = plan.field.p
    params = code.params
    _check_plan(code, plan)
    _check_shapes(code, shapes)
    _check_matrix("A", a, shapes.r, shapes.s, p)
    _check_matrix("B", b, shapes.s, shapes.t, p)

    block_rows = shapes.r // params.k
    block_cols = shapes.t // params.l
    if masks is None:
        rng = random.Random(seed)
        masks = MaskSet(
            r_masks=tuple(
                random_matrix(p, block_rows, shapes.s, rng) for _ in range(params.t)
            ),
            s_masks=tuple(
                random_matrix(p, shapes.s, block_cols, rng) for _ in range(params.t)
            ),
        )
    else:
        for i, m in enumerate(masks.r_masks):
            _check_matrix(f"r_masks[{i}]", m, block_rows, shapes.s, p)
        for i, m in enumerate(masks.s_masks):
            _check_matrix(f"s_masks[{i}]", m, shapes.s, block_cols, p)
        if len(masks.r_masks) != params.t or len(masks.s_masks) != params.t:
            raise ParameterError(f"need T={params.t} masks per side")

    points = plan.points
    f_shares = _shares(
        p, points, code.assignment.alpha, _stack(a, params.k, 1), masks.r_masks,
        block_rows, shapes.s,
    )
    g_shares = _shares(
        p, points, code.assignment.beta, _stack(b, 1, params.l), masks.s_masks,
        shapes.s, block_cols,
    )
    return ShareBundle(plan.field, f_shares, g_shares)


def server_evaluate(bundle: ShareBundle, n: int) -> FieldMatrix:
    """What server n computes: the product of its two shares."""
    # A float index passes the range check, then breaks tuple indexing.
    if type(n) is not int or not 0 <= n < bundle.n_servers:
        raise ParameterError(f"server index must be an int in [0, N), got {n!r}")
    return gf.mat_mul(bundle.field.p, bundle.f_shares[n], bundle.g_shares[n])


@functools.lru_cache(maxsize=8)
def _decoder(
    p: int, generator: int, exponents: tuple[int, ...], needed: tuple[int, ...]
) -> FieldMatrix:
    """Rows ``needed`` of GV^-1, GV = [(g ** n) ** e_j], as a len(needed) x N matrix.

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
    if len(set(nodes)) < len(nodes):
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
    return FieldMatrix(len(needed), len(nodes), tuple(entries))


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
    polynomials at the first decode on a plan and reused after that.
    The KL product rows are reassembled into A @ B.
    """
    p = plan.field.p
    params = code.params
    _check_plan(code, plan)
    _check_shapes(code, shapes)
    n = code.n_servers
    if len(responses) != n:
        raise ParameterError(f"need all {n} responses, got {len(responses)}")
    block_rows = shapes.r // params.k
    block_cols = shapes.t // params.l
    for i, resp in enumerate(responses):
        _check_matrix(f"responses[{i}]", resp, block_rows, block_cols, p)

    rhs = FieldMatrix(
        n, block_rows * block_cols, tuple(chain.from_iterable(r.entries for r in responses))
    )
    exp_index = {e: i for i, e in enumerate(plan.exponents)}
    alpha, beta = code.assignment.alpha[:params.k], code.assignment.beta[:params.l]
    needed = tuple(exp_index[x + y] for x in alpha for y in beta)
    products = gf.mat_mul(p, _decoder(p, plan.generator, plan.exponents, needed), rhs)
    return FieldMatrix(shapes.r, shapes.t, _stack(products, params.k, block_rows).entries)


def cost(code: PolynomialCode, shapes: BlockShapes) -> CostReport:
    """Exact symbol counts for one full multiplication."""
    _check_shapes(code, shapes)
    n = code.n_servers
    k, l = code.params.k, code.params.l
    upload = n * (shapes.r * shapes.s // k + shapes.s * shapes.t // l)
    download = n * shapes.r * shapes.t // (k * l)
    return CostReport(upload_symbols=upload, download_symbols=download)
