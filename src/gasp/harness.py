"""End-to-end simulation of the servers and empirical privacy audits.

Privacy is checked two ways.  ``mds_audit`` re-derives the algebraic
sufficient conditions (invertible generalized Vandermonde matrix, both
mask power matrices MDS) from the code and the generator, by the
functions plan search calls: the O(N) node check
``codec._distinct_nodes`` and :func:`gf.is_power_mds` on each mask side;
their docstrings hold the proofs.  The small and big codes are decided
in O(N) per side, so the audit reaches every plan that ``demo`` makes
for them; only a grouped code's side walks its minors and may raise
:class:`BudgetExceededError` above ``gf.MDS_WALK_BUDGET``.
At tiny scale, ``exhaustive_privacy_audit`` checks the real thing: that
for every T-subset of colluding servers the multiset of observed shares,
over all mask values, is identical regardless of the secrets, i.e. that
observations carry zero information.  Every share comes from
``codec.encode`` itself, one call per secret: all mask stacks of a
secret sit side by side in one wide instance, whose shares hold each
stack's shares as fixed slices (the proof is in the audit's docstring).
Each subset's multiset is a sorted list of observed share tuples, which
Python compares in C.

The audit enumerates one side at a time: every A with every R mask
stack, then every B with every S mask stack.  The f-shares depend only
on (A, R) and the g-shares only on (B, S), so the joint count of an
observation (u, v) under secrets (A, B) is F_A[u] * G_B[v], with F_A and
G_B one side's multisets.  Those products agree for all (A, B) iff F_A
is the same for every A and G_B for every B (sum over v: the total |G_B|
is the same for every B), so the two sides decide the joint verdict
exactly.  Here a, b, r and s count the entries of A, B, one R mask and
one S mask (a stack of T masks has T*r or T*s); the work is
(p ** (a + T*r) + p ** (b + T*s)) * C(N, T) steps, where the joint
enumeration took p ** (a + b + T*r + T*s) * C(N, T).  Exact
distribution equality is the strongest checkable statement, so nothing
is sampled; requests above ``AUDIT_BUDGET`` steps are refused.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from dataclasses import dataclass
from math import comb

from . import codec, gf
from .codec import BlockShapes, CostReport, EvaluationPlan, MaskSet, ShareBundle
from .degree_table import SchemeParams
from .errors import BudgetExceededError, ParameterError, VerificationError, check_type
from .gf import FieldMatrix, PrimeFieldSpec
from .schemes import PolynomialCode, code_for_scheme

# exhaustive_privacy_audit refuses an enumeration of more steps than this.
AUDIT_BUDGET = 10**8


@dataclass(frozen=True)
class MdsAuditReport:
    """Results of re-checking the three conditions of a plan."""

    gv_det_nonzero: bool
    p_mds: bool
    q_mds: bool

    @property
    def all_pass(self) -> bool:
        return self.gv_det_nonzero and self.p_mds and self.q_mds


@dataclass(frozen=True)
class SessionTranscript:
    """Everything one simulated multiplication produced."""

    code: PolynomialCode
    plan: EvaluationPlan
    shapes: BlockShapes
    matrix_a: FieldMatrix
    matrix_b: FieldMatrix
    shares: ShareBundle
    responses: tuple[FieldMatrix, ...]
    product: FieldMatrix
    cost_report: CostReport
    # Timings vary run to run, so they take no part in equality or hashing.
    stage_seconds: dict[str, float] = dataclasses.field(compare=False)

    def summary(self) -> str:
        lines = [
            f"scheme={self.code.scheme_label}",
            f"k={self.code.params.k}",
            f"l={self.code.params.l}",
            f"t={self.code.params.t}",
            f"n_servers={self.code.n_servers}",
            f"p={self.plan.field.p}",
            f"upload_symbols={self.cost_report.upload_symbols}",
            f"download_symbols={self.cost_report.download_symbols}",
        ]
        return "\n".join(lines)


def run_sdmm(
    params: SchemeParams,
    scheme: str = "auto",
    shapes: BlockShapes | None = None,
    field: PrimeFieldSpec | None = None,
    seed: int = 0,
    g: int | None = None,
) -> SessionTranscript:
    """Build a code, find a plan, multiply random inputs, verify, report.

    Fully deterministic given the seed, which drives the secret inputs
    and the masks; the plan depends on the code and the field only.
    ``stage_seconds`` of the transcript holds the ``time.perf_counter``
    seconds of each stage: ``plan`` (code and plan search), ``encode``
    (random inputs and shares), ``evaluate`` (the N server products),
    ``decode``, and ``verify`` (the direct product check and the cost
    count).
    """
    stage_seconds = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stage_seconds[stage] = now - clock
        clock = now

    code = code_for_scheme(params, scheme, g=g)
    if shapes is None:
        shapes = BlockShapes(params.k, 1, params.l)
    check_type("shapes", shapes, BlockShapes)
    plan = codec.find_evaluation_plan(code, field=field)
    lap("plan")

    rng = random.Random(seed)
    a = codec.random_matrix(plan.field.p, shapes.r, shapes.s, rng)
    b = codec.random_matrix(plan.field.p, shapes.s, shapes.t, rng)
    bundle = codec.encode(a, b, code, plan, shapes, seed=rng.randrange(2**32))
    lap("encode")
    responses = tuple(codec.server_evaluate(bundle, n) for n in range(code.n_servers))
    lap("evaluate")
    product = codec.decode(responses, code, plan, shapes)
    lap("decode")
    if product != gf.mat_mul(plan.field.p, a, b):
        raise VerificationError("decoded product does not match direct multiplication")
    report = codec.cost(code, shapes)
    lap("verify")
    return SessionTranscript(
        code=code,
        plan=plan,
        shapes=shapes,
        matrix_a=a,
        matrix_b=b,
        shares=bundle,
        responses=responses,
        product=product,
        cost_report=report,
        stage_seconds=stage_seconds,
    )


def mds_audit(code: PolynomialCode, plan: EvaluationPlan) -> MdsAuditReport:
    """Re-verify the three sufficient conditions from the code and the generator.

    The nodes g ** e and the points g ** n are rebuilt from the plan's
    generator.  The GV condition is decided by ``codec._distinct_nodes``
    and each mask side by :func:`gf.is_power_mds`, the functions plan
    search calls; the tests check both against brute force over a grid.
    A plan whose exponents are not the code's term set is refused, as
    ``encode`` refuses it.
    """
    codec._check_plan(code, plan)
    p, points = plan.field.p, plan.points
    return MdsAuditReport(
        gv_det_nonzero=codec._distinct_nodes(p, plan.generator, plan.exponents),
        p_mds=gf.is_power_mds(p, points, code.alpha_masks),
        q_mds=gf.is_power_mds(p, points, code.beta_masks),
    )


def exhaustive_privacy_audit(
    params: SchemeParams,
    p: int,
    shapes: BlockShapes | None = None,
    plan: EvaluationPlan | None = None,
    seed: int = 0,
    zero_masks: bool = False,
) -> bool:
    """Exact distributional privacy check by total enumeration, one side at a time.

    For every T-subset of servers and every secret A, collect
    the observed f-share tuples over all R mask stacks; then do the
    same for every B and the S mask stacks.  Every share comes from
    ``codec.encode`` with the enumerated masks injected and the other
    side's secret and masks at zero, so the audit checks the shipped
    encoder.  Returns True iff, on each side, every secret gives the
    same multisets as the first one.  With ``zero_masks`` the masks are
    pinned to zero instead of enumerated (one zero stack per side), which
    models a broken scheme and should make the audit fail.

    Checking the sides apart decides exactly what comparing the joint
    observations of (A, B) would.  Since f depends only on (A, R) and g
    only on (B, S), the joint count of an observation (u, v) is
    F_A[u] * G_B[v], where F_A and G_B are the side multisets above.
    If F_A and G_B are the same for every A and every B, so are their
    products.  Conversely, summing the joint counts over v gives
    |G_B| * F_A, and |G_B| is the number of S-mask stacks whatever B is,
    so equal joint counts force equal F_A; likewise for G_B.

    Only T-subsets are checked, and that loses nothing: the shares a
    smaller coalition sees are part of what some T-subset sees, so if no
    T-subset learns anything, neither does a smaller one.

    All M mask stacks of one secret are encoded by one ``codec.encode``
    call on a wide instance whose inner dimension s is s * M.  Write
    interleave_w(x_1, ..., x_M) for the first w entries of each x_c in
    turn, then the next w of each, and so on (:func:`_interleave`).  On
    the A side, w = s: A' repeats each row of A M times, so its row block
    k, flattened, is interleave_s(A_k, ..., A_k), and row t of R' is
    interleave_s(R_t of stack 1, ..., R_t of stack M).  On the B side,
    w = s * t/L, a whole block: B' is B stacked M times, so its column
    block l, flattened, is B_l repeated M times, and row t of S'
    concatenates S_t of every stack.  Either way every row of the wide
    stack, blocks then masks, is interleave_w of that row of the M
    narrow stacks.  Server n's share is the sum over j of x_n ** e_j
    times stack row j, computed entry by entry, and interleave_w only
    moves entries, so the wide share is interleave_w of the M narrow
    shares: columns c*s ... (c+1)*s of each row of the f-share, and rows
    c*s ... (c+1)*s of the g-share, are exactly what encoding stack c
    alone gives.  The multisets are then compared as sorted lists of
    share tuples.

    Raises :class:`BudgetExceededError` before doing any work if the
    enumeration would exceed ``AUDIT_BUDGET`` elementary steps, counted as
    (p ** (a + T*r) + p ** (b + T*s)) * C(N, T) for a, b the
    entries of A and B and r, s those of one R and one S mask (T*r and
    T*s are 0 with ``zero_masks``).  ``seed`` is unused, since plan
    search is deterministic; the keyword stays only for callers that
    still pass it.
    """
    field = PrimeFieldSpec(p)
    code = code_for_scheme(params, "auto")
    if shapes is None:
        shapes = BlockShapes(params.k, 1, params.l)
    if plan is None:
        plan = codec.find_evaluation_plan(code, field=field)
    codec._check_plan(code, plan)
    if plan.field.p != p:
        raise ParameterError("plan field does not match audit field")
    n = code.n_servers
    block_rows, block_cols = codec._block_sizes(code, shapes)

    t = params.t
    a_shape, b_shape = (shapes.r, shapes.s), (shapes.s, shapes.t)
    r_shape, s_shape = (t, block_rows * shapes.s), (t, shapes.s * block_cols)
    # Masks pinned to zero enumerate the single value 0.
    mask_values = range(1) if zero_masks else range(p)
    # Per side: every secret times every mask stack, once per T-subset.
    steps = comb(n, t) * (
        p ** math.prod(a_shape) * len(mask_values) ** math.prod(r_shape)
        + p ** math.prod(b_shape) * len(mask_values) ** math.prod(s_shape)
    )
    if steps > AUDIT_BUDGET:
        raise BudgetExceededError(
            f"audit needs {steps} steps, budget is {AUDIT_BUDGET}; not sampling"
        )

    subsets = list(itertools.combinations(range(n), t))

    def side_is_private(a_side: bool, secret_size: int, mask_size: int) -> bool:
        # Per subset, the sorted observed share tuples over all mask stacks,
        # compared between every secret and the first one.
        stacks = list(itertools.product(mask_values, repeat=mask_size))
        reference = None
        for secret in itertools.product(range(p), repeat=secret_size):
            columns = _wide_encode(code, plan, shapes, a_side, secret, stacks)
            observed = [
                sorted(zip(*[column for i in subset for column in columns[i]]))
                for subset in subsets
            ]
            if reference is None:
                reference = observed
            elif observed != reference:
                return False
        return True

    return side_is_private(
        True, math.prod(a_shape), math.prod(r_shape)
    ) and side_is_private(False, math.prod(b_shape), math.prod(s_shape))


def _wide_encode(
    code: PolynomialCode,
    plan: EvaluationPlan,
    shapes: BlockShapes,
    a_side: bool,
    secret: tuple[int, ...],
    stacks: list[tuple[int, ...]],
) -> list[list[tuple[int, ...]]]:
    """One side's shares under every mask stack, from one ``codec.encode`` call.

    ``secret`` is A (``a_side``) or B and each of the M ``stacks`` one
    T-mask stack for that side, all flattened row-major; the other side
    is zero.  Returns, server by server, the :func:`_columns` of its
    wide share: zipped, they give its share under each stack in order.
    """
    t, count = code.params.t, len(stacks)
    block_rows, block_cols = codec._block_sizes(code, shapes)
    wide = BlockShapes(shapes.r, shapes.s * count, shapes.t)

    def zeros(rows, cols) -> FieldMatrix:
        return FieldMatrix(rows, cols, (0,) * (rows * cols))

    if a_side:
        chunk = shapes.s
        a = FieldMatrix(shapes.r, wide.s, _interleave((secret,) * count, chunk))
        r_masks = FieldMatrix(t, block_rows * wide.s, _interleave(stacks, chunk))
        b, s_masks = zeros(wide.s, shapes.t), zeros(t, wide.s * block_cols)
    else:
        chunk = shapes.s * block_cols
        b = FieldMatrix(wide.s, shapes.t, secret * count)
        s_masks = FieldMatrix(t, wide.s * block_cols, _interleave(stacks, chunk))
        a, r_masks = zeros(shapes.r, wide.s), zeros(t, block_rows * wide.s)
    bundle = codec.encode(a, b, code, plan, wide, masks=MaskSet(r_masks, s_masks))
    shares = bundle.f_shares if a_side else bundle.g_shares
    return [_columns(share.entries, chunk, count) for share in shares]


def _interleave(flats, chunk: int) -> tuple[int, ...]:
    """Equal-length tuples laid side by side, ``chunk`` entries at a time.

    The result holds chunk 0 of every tuple in order, then chunk 1 of
    every tuple, and so on; ``chunk`` must divide the common length.
    """
    return tuple(itertools.chain.from_iterable(
        flat[j:j + chunk] for j in range(0, len(flats[0]), chunk) for flat in flats
    ))


def _columns(entries, chunk: int, count: int) -> list[tuple[int, ...]]:
    """Undo :func:`_interleave` of ``count`` tuples, by position.

    Column i holds entry i of every tuple in order, so zipping the
    columns gives back the tuples.
    """
    span = chunk * count
    return [
        entries[start + i:start + span:chunk]
        for start in range(0, len(entries), span)
        for i in range(chunk)
    ]
