"""End-to-end simulation of the servers and empirical privacy audits.

Privacy is checked two ways.  ``mds_audit`` re-derives the algebraic
sufficient conditions (invertible generalized Vandermonde matrix, both
mask power matrices MDS) from scratch.  Its MDS checks walk all C(N, T)
minors in about C(N, T - 2) * N steps and raise
:class:`BudgetExceededError` above ``gf.MDS_WALK_BUDGET`` = 10**8 steps:
the big (4,4,6) code (about 5.3e6 steps) passes, while (4,4,8) needs
about 5.0e8 and (16,16,8) about 9.8e14, so those are refused.  At tiny
scale, ``exhaustive_privacy_audit`` checks the real thing: that for every
T-subset of colluding servers the multiset of observed shares, over all
mask values, is identical regardless of the secrets, i.e. that
observations carry zero information.  Every share comes from
``codec.encode`` itself.

The audit enumerates one side at a time: every A with every T-tuple of
R masks, then every B with every T-tuple of S masks.  The f-shares
depend only on (A, R) and the g-shares only on (B, S), so the joint
count of an observation (u, v) under secrets (A, B) is F_A[u] * G_B[v],
with F_A and G_B one side's multisets.  Those products agree for all
(A, B) iff F_A is the same for every A and G_B for every B (sum over v:
the total |G_B| is the same for every B), so the two sides decide the
joint verdict exactly.  Here a, b, r and s count the entries of A, B,
one R mask and one S mask; the work is (p ** (a + T*r) + p ** (b + T*s))
* C(N, T) steps, where the joint enumeration took
p ** (a + b + T*r + T*s) * C(N, T).  Exact distribution equality is the
strongest checkable statement, so nothing is sampled; requests above
``AUDIT_BUDGET`` steps are refused.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from math import comb

from . import codec, gf
from .codec import BlockShapes, CostReport, EvaluationPlan, MaskSet, ShareBundle
from .degree_table import SchemeParams
from .errors import BudgetExceededError, ParameterError, VerificationError
from .gf import FieldMatrix, PrimeFieldSpec
from .schemes import PolynomialCode, code_for_scheme

# exhaustive_privacy_audit refuses an enumeration of more steps than this.
AUDIT_BUDGET = 10**8


@dataclass(frozen=True)
class MdsAuditReport:
    """Results of independently re-checking the three plan conditions."""

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
    """Re-verify the three sufficient conditions from scratch.

    Deliberately does not reuse the plan-search internals: the matrices
    are rebuilt here from the code and the plan's points g ** n alone, and
    the generalized Vandermonde matrix gets a full determinant.  A plan
    whose exponents are not the code's term set is refused, as ``encode``
    refuses it.
    """
    codec._check_plan(code, plan)
    p = plan.field.p
    gv = gf.generalized_vandermonde(p, plan.points, plan.exponents)
    p_rows = [[pow(x, e, p) for x in plan.points] for e in code.alpha_masks]
    q_rows = [[pow(x, e, p) for x in plan.points] for e in code.beta_masks]
    return MdsAuditReport(
        gv_det_nonzero=gf.det(p, gv) != 0,
        p_mds=gf.is_mds(p, gf.matrix_from_rows(p, p_rows)),
        q_mds=gf.is_mds(p, gf.matrix_from_rows(p, q_rows)),
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

    For every T-subset of servers and every secret A, count
    the observed f-share tuples over all T-tuples of R masks; then do the
    same for every B and the S masks.  Every share comes from
    ``codec.encode`` with the enumerated masks injected and the other
    side's secret and masks at zero, so the audit checks the shipped
    encoder.  Returns True iff, on each side, every secret gives the
    same multisets as the first one.  With ``zero_masks`` the masks are
    pinned to zero instead of enumerated, which models a broken scheme
    and should make the audit fail.

    Checking the sides apart decides exactly what comparing the joint
    observations of (A, B) would.  Since f depends only on (A, R) and g
    only on (B, S), the joint count of an observation (u, v) is
    F_A[u] * G_B[v], where F_A and G_B are the side multisets above.
    If F_A and G_B are the same for every A and every B, so are their
    products.  Conversely, summing the joint counts over v gives
    |G_B| * F_A, and |G_B| is the number of S-mask tuples whatever B is,
    so equal joint counts force equal F_A; likewise for G_B.

    Only T-subsets are checked, and that loses nothing: the shares a
    smaller coalition sees are part of what some T-subset sees, so if no
    T-subset learns anything, neither does a smaller one.

    Raises :class:`BudgetExceededError` before doing any work if the
    enumeration would exceed ``AUDIT_BUDGET`` elementary steps, counted as
    (p ** (a + T*r) + p ** (b + T*s)) * C(N, T) for a, b the
    entries of A and B and r, s those of one R and one S mask (T*r and
    T*s are 0 with ``zero_masks``).  ``seed`` is unused, since plan
    search is deterministic; the keyword stays only for callers that
    still pass it.
    """
    field = PrimeFieldSpec(p)
    if shapes is None:
        shapes = BlockShapes(params.k, 1, params.l)
    code = code_for_scheme(params, "auto")
    if plan is None:
        plan = codec.find_evaluation_plan(code, field=field)
    if plan.field.p != p:
        raise ParameterError("plan field does not match audit field")
    n = code.n_servers
    codec._check_shapes(code, shapes)

    t = params.t
    a_shape, b_shape = (shapes.r, shapes.s), (shapes.s, shapes.t)
    r_shape, s_shape = (shapes.r // params.k, shapes.s), (shapes.s, shapes.t // params.l)
    masks_per_side = 0 if zero_masks else t
    steps = comb(n, t) * (
        p ** (math.prod(a_shape) + masks_per_side * math.prod(r_shape))
        + p ** (math.prod(b_shape) + masks_per_side * math.prod(s_shape))
    )
    if steps > AUDIT_BUDGET:
        raise BudgetExceededError(
            f"audit needs {steps} steps, budget is {AUDIT_BUDGET}; not sampling"
        )

    def matrix_tuples(shape, count: int, values):
        # Every count-tuple of matrices of this shape with entries drawn from values.
        rows, cols = shape
        size = rows * cols
        for flat in itertools.product(values, repeat=count * size):
            yield tuple(
                FieldMatrix(rows, cols, flat[i * size:(i + 1) * size]) for i in range(count)
            )

    subsets = list(itertools.combinations(range(n), t))
    # Masks pinned to zero enumerate the single value 0.
    mask_values = range(1) if zero_masks else range(p)

    def side_is_private(secret_shape, mask_shape, shares_of) -> bool:
        # Per subset, the multiset of observed share tuples over all mask tuples,
        # compared between every secret and the first one.
        mask_tuples = list(matrix_tuples(mask_shape, t, mask_values))
        reference = None
        for (secret,) in matrix_tuples(secret_shape, 1, range(p)):
            counters = [Counter() for _ in subsets]
            for masks in mask_tuples:
                shares = [m.entries for m in shares_of(secret, masks)]
                for counter, subset in zip(counters, subsets):
                    counter[tuple(shares[i] for i in subset)] += 1
            if reference is None:
                reference = counters
            elif counters != reference:
                return False
        return True

    def zeros(shape) -> FieldMatrix:
        return FieldMatrix(*shape, (0,) * math.prod(shape))

    def encode(a, b, r_masks, s_masks) -> ShareBundle:
        return codec.encode(a, b, code, plan, shapes, masks=MaskSet(r_masks, s_masks))

    zero_a, zero_b = zeros(a_shape), zeros(b_shape)
    zero_r, zero_s = (zeros(r_shape),) * t, (zeros(s_shape),) * t
    return side_is_private(
        a_shape, r_shape, lambda a, masks: encode(a, zero_b, masks, zero_s).f_shares
    ) and side_is_private(
        b_shape, s_shape, lambda b, masks: encode(zero_a, b, zero_r, masks).g_shares
    )
