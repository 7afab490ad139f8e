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
beta_j) with that stack; row n is server n's share.  Decode stacks the N
responses the same way.  Only the KL coefficients at alpha_k + beta_l
carry block products, so decode multiplies the response stack by the KL
matching rows of the inverse generalized Vandermonde matrix.  Those
prepared KL x N rows are eliminated once per plan and cached, and
A @ B is reassembled from the product's KL rows.

An evaluation plan fixes the field and the N evaluation points.  A plan
is only returned once three conditions have been verified: the
generalized Vandermonde matrix over the code's exponent set is
invertible, and the two T x N mask power matrices have every maximal
minor invertible, which is what makes any T shares jointly uniform.
The small and big codes put each side's masks on an arithmetic
progression of exponents, which reduces the second condition to an O(N)
certificate: every point's power at the first exponent is nonzero and
the points' powers at the common difference are distinct.  Other mask
exponents, such as the runs of grouped codes, are checked by enumerating
all C(N, T) minors with :func:`gf.is_mds`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import chain

from . import gf
from .degree_table import outer_sum, terms
from .errors import (
    ParameterError,
    PlanSearchError,
    PlanVerificationError,
)
from .gf import FieldMatrix, PrimeFieldSpec
from .schemes import PolynomialCode

DEFAULT_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class BlockShapes:
    """Full matrix sizes: A is r x s, B is s x t."""

    r: int
    s: int
    t: int

    def __post_init__(self) -> None:
        for name, value in (("r", self.r), ("s", self.s), ("t", self.t)):
            if not isinstance(value, int) or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def _check_points(points) -> None:
    # The rule of _check_matrix: a float point passes the range check, then breaks pow.
    if any(type(x) is not int for x in points):
        raise ParameterError("evaluation points must be ints")


@dataclass(frozen=True)
class EvaluationPlan:
    """Field, evaluation points, and the exponent set used to interpolate.

    Plans produced by :func:`find_evaluation_plan` are verified; building
    one directly performs shape checks only, which the audit helpers use
    to construct deliberately broken plans.
    """

    field: PrimeFieldSpec
    points: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.points) != len(self.exponents):
            raise ParameterError("need as many points as exponents")
        _check_points(self.points)
        if any(not 0 <= x < self.field.p for x in self.points):
            raise ParameterError("points must be reduced residues")
        if list(self.exponents) != sorted(set(self.exponents)):
            raise ParameterError("exponents must be strictly increasing")


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


def code_exponents(code: PolynomialCode) -> tuple[int, ...]:
    """Ascending term set of the code's degree table."""
    return terms(outer_sum(code.assignment, code.params))


def default_field(code: PolynomialCode) -> PrimeFieldSpec:
    """Smallest prime above max(J) * N: headroom for rejection sampling."""
    exps = code_exponents(code)
    return PrimeFieldSpec(gf.next_prime(max(exps) * code.n_servers))


def _power_rows(p: int, points, exponents) -> FieldMatrix:
    """Matrix [x_n ** e_i]: one row per exponent, one column per point."""
    entries = tuple(pow(x % p, e, p) for e in exponents for x in points)
    return FieldMatrix(len(exponents), len(points), entries)


def _mask_mds(p: int, points, mask_exponents) -> bool:
    """True iff every T x T minor of the mask power matrix [x_n ** e_i] is nonzero.

    When the T exponents form a progression e0 + d*i (T = 1 counts as
    one), the minor on points x_1..x_T factors as prod x_j ** e0 times
    the Vandermonde determinant of the x_j ** d, so it is nonzero iff
    each x_j ** e0 is nonzero and, for T >= 2, the x_j ** d are pairwise
    distinct.  That holds for every T-subset iff it holds for all N
    points at once: since T <= N, a zero entry or a colliding pair of
    d-th powers extends to a T-subset whose minor vanishes.  Any other
    exponent set falls back to enumerating the C(N, T) minors.
    """
    t, n = len(mask_exponents), len(points)
    if t > n:
        raise ParameterError(f"MDS check needs rows <= cols, got {t} x {n}")
    e0 = mask_exponents[0]
    d = mask_exponents[1] - e0 if t > 1 else 0
    if any(e != e0 + d * i for i, e in enumerate(mask_exponents)):
        return gf.is_mds(p, _power_rows(p, points, mask_exponents))
    if not all(pow(x, e0, p) for x in points):
        return False
    return t == 1 or len({pow(x, d, p) for x in points}) == n


def _plan_rejection(code: PolynomialCode, plan: EvaluationPlan) -> str | None:
    """The first plan condition the points fail, in checking order, or None."""
    p = plan.field.p
    if gf.det(p, gf.generalized_vandermonde(p, plan.points, plan.exponents)) == 0:
        return "gv"
    if not _mask_mds(p, plan.points, code.alpha_masks):
        return "alpha_mds"
    if not _mask_mds(p, plan.points, code.beta_masks):
        return "beta_mds"
    return None


def find_evaluation_plan(
    code: PolynomialCode,
    field: PrimeFieldSpec | None = None,
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    points: tuple[int, ...] | None = None,
) -> EvaluationPlan:
    """Find (or verify) N distinct nonzero points passing all conditions.

    Candidate points are drawn by rejection, reproducibly from ``seed``,
    and each is checked exactly, with no sampling: first the generalized
    Vandermonde determinant, then the alpha-mask and the beta-mask power
    matrices for every maximal minor nonzero.  For mask exponents in
    arithmetic progression (the small and big codes) that last check is
    an O(N) certificate; other mask exponents (grouped codes) enumerate
    all C(N, T) minors.  Passing ``points`` skips the search and verifies
    that exact assignment, raising :class:`PlanVerificationError` if it
    fails.  A failed search raises :class:`PlanSearchError` with the
    number of candidates rejected for each condition.
    """
    if field is None:
        field = default_field(code)
    n = code.n_servers
    if field.p <= n:
        raise ParameterError(f"field must satisfy p > N, got p={field.p}, N={n}")
    exponents = code_exponents(code)

    if points is not None:
        _check_points(points)
        plan = EvaluationPlan(field, tuple(x % field.p for x in points), exponents)
        if len(set(plan.points)) != n:
            raise PlanVerificationError("points must be distinct")
        if _plan_rejection(code, plan) is not None:
            raise PlanVerificationError("supplied points fail the plan conditions")
        return plan

    rng = random.Random(seed)
    rejections = {"gv": 0, "alpha_mds": 0, "beta_mds": 0}
    for _ in range(max_attempts):
        candidate = tuple(rng.sample(range(1, field.p), n))
        plan = EvaluationPlan(field, candidate, exponents)
        reason = _plan_rejection(code, plan)
        if reason is None:
            return plan
        rejections[reason] += 1
    raise PlanSearchError(max_attempts, rejections)


def _check_plan(code: PolynomialCode, plan: EvaluationPlan) -> None:
    if plan.exponents != code_exponents(code):
        raise ParameterError("plan exponents do not match the code's term set")


def _check_shapes(code: PolynomialCode, shapes: BlockShapes) -> None:
    if shapes.r % code.params.k:
        raise ParameterError(f"K={code.params.k} must divide r={shapes.r}")
    if shapes.t % code.params.l:
        raise ParameterError(f"L={code.params.l} must divide t={shapes.t}")


def _check_matrix(name: str, m: FieldMatrix, rows: int, cols: int, p: int) -> None:
    if (m.rows, m.cols) != (rows, cols):
        raise ParameterError(f"{name} must be {rows} x {cols}, got {m.rows} x {m.cols}")
    # Exactness needs int entries: a float passes the range check, then rounds.
    if any(type(e) is not int or not 0 <= e < p for e in m.entries):
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
    powers = FieldMatrix(
        len(points), len(exponents), tuple(pow(x, e, p) for x in points for e in exponents)
    )
    product = gf.mat_mul(p, powers, stack)
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

    f_shares = _shares(
        p, plan.points, code.assignment.alpha, _stack(a, params.k, 1), masks.r_masks,
        block_rows, shapes.s,
    )
    g_shares = _shares(
        p, plan.points, code.assignment.beta, _stack(b, 1, params.l), masks.s_masks,
        shapes.s, block_cols,
    )
    return ShareBundle(plan.field, f_shares, g_shares)


def server_evaluate(bundle: ShareBundle, n: int) -> FieldMatrix:
    """What server n computes: the product of its two shares."""
    if not 0 <= n < bundle.n_servers:
        raise ParameterError(f"server index {n} out of range")
    return gf.mat_mul(bundle.field.p, bundle.f_shares[n], bundle.g_shares[n])


@functools.lru_cache(maxsize=8)
def _decoder(
    p: int, points: tuple[int, ...], exponents: tuple[int, ...], needed: tuple[int, ...]
) -> FieldMatrix:
    """Rows ``needed`` of GV^-1, GV = [x_n ** e_j], as a len(needed) x N matrix.

    Row i of GV^-1 is column i of the solution Y of GV^T Y = I, so one
    solve whose right-hand side holds only the unit columns e_i, i in
    ``needed``, yields every row decode reads.  A singular GV raises
    :class:`SingularMatrixError`, which the cache does not keep.
    """
    n, m = len(points), len(needed)
    units = FieldMatrix(n, m, tuple(int(i == j) for i in range(n) for j in needed))
    y = gf.solve(p, _power_rows(p, points, exponents), units)
    return FieldMatrix(m, n, tuple(chain.from_iterable(y.entries[j::m] for j in range(m))))


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
    response stack.  The prepared rows are built by one elimination at
    the first decode on a plan and reused after that.  The KL product
    rows are reassembled into A @ B.
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
    products = gf.mat_mul(p, _decoder(p, plan.points, plan.exponents, needed), rhs)
    return FieldMatrix(shapes.r, shapes.t, _stack(products, params.k, block_rows).entries)


def cost(code: PolynomialCode, shapes: BlockShapes) -> CostReport:
    """Exact symbol counts for one full multiplication."""
    _check_shapes(code, shapes)
    n = code.n_servers
    k, l = code.params.k, code.params.l
    upload = n * (shapes.r * shapes.s // k + shapes.s * shapes.t // l)
    download = n * shapes.r * shapes.t // (k * l)
    return CostReport(upload_symbols=upload, download_symbols=download)
