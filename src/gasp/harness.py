"""End-to-end simulation of the servers and empirical privacy audits.

Privacy is checked two ways.  ``mds_audit`` re-derives the algebraic
sufficient conditions (invertible generalized Vandermonde matrix, both
mask power matrices MDS) from scratch, at any scale.  At tiny scale,
``exhaustive_privacy_audit`` checks the real thing: for every subset of
colluding servers and every pair of secret inputs it enumerates all mask
values, encodes each through ``codec.encode`` itself, and demands that the
resulting multiset of observed shares be identical regardless of the
secrets, i.e. that observations carry zero information.  Exact
distribution equality is the strongest checkable statement, so nothing
is sampled; oversized requests are refused.
"""

from __future__ import annotations

import dataclasses
import itertools
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

DEFAULT_AUDIT_BUDGET = 10**8


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
    subset_size: int | None = None,
    shapes: BlockShapes | None = None,
    plan: EvaluationPlan | None = None,
    seed: int = 0,
    zero_masks: bool = False,
    max_steps: int = DEFAULT_AUDIT_BUDGET,
) -> bool:
    """Exact distributional privacy check by total enumeration.

    For every ``subset_size``-subset of servers, enumerate every pair of
    secret inputs and every mask assignment, and compare the multiset of
    observed share tuples across secrets.  Every share comes from
    ``codec.encode`` with the enumerated masks injected, so the audit
    checks the shipped encoder.  Returns True iff the multisets are
    identical everywhere.  With ``zero_masks`` the masks are pinned
    to zero instead of enumerated, which models a broken scheme and
    should make the audit fail.

    Raises :class:`BudgetExceededError` before doing any work if the
    enumeration would exceed ``max_steps`` elementary steps.  ``seed`` is
    unused, since plan search is deterministic; the keyword stays only
    for callers that still pass it.
    """
    field = PrimeFieldSpec(p)
    t_sub = params.t if subset_size is None else subset_size
    if shapes is None:
        shapes = BlockShapes(params.k, 1, params.l)
    code = code_for_scheme(params, "auto")
    if plan is None:
        plan = codec.find_evaluation_plan(code, field=field)
    if plan.field.p != p:
        raise ParameterError("plan field does not match audit field")
    n = code.n_servers
    if not 1 <= t_sub <= n:
        raise ParameterError(f"subset size must be in 1..{n}, got {t_sub}")

    k, l, t = params.k, params.l, params.t
    if shapes.r % k or shapes.t % l:
        raise ParameterError("shapes must respect the block partition")
    block_rows = shapes.r // k
    block_cols = shapes.t // l
    a_block = block_rows * shapes.s
    b_block = shapes.s * block_cols
    a_syms = shapes.r * shapes.s
    b_syms = shapes.s * shapes.t
    mask_syms = 0 if zero_masks else t * a_block + t * b_block
    steps = p ** (a_syms + b_syms + mask_syms) * comb(n, t_sub)
    if steps > max_steps:
        raise BudgetExceededError(
            f"audit needs {steps} steps, budget is {max_steps}; not sampling"
        )

    zero_a = FieldMatrix(shapes.r, shapes.s, (0,) * a_syms)
    zero_b = FieldMatrix(shapes.s, shapes.t, (0,) * b_syms)
    zero_r = (FieldMatrix(block_rows, shapes.s, (0,) * a_block),) * t
    zero_s = (FieldMatrix(shapes.s, block_cols, (0,) * b_block),) * t

    def mask_tuples(rows: int, cols: int) -> list[tuple[FieldMatrix, ...]]:
        # Every T-tuple of rows x cols masks, split from one flat enumeration.
        size = rows * cols
        return [
            tuple(FieldMatrix(rows, cols, flat[i * size:(i + 1) * size]) for i in range(t))
            for flat in itertools.product(range(p), repeat=t * size)
        ]

    r_combos = [zero_r] if zero_masks else mask_tuples(block_rows, shapes.s)
    s_combos = [zero_s] if zero_masks else mask_tuples(shapes.s, block_cols)

    def encode(a: FieldMatrix, b: FieldMatrix, r_masks, s_masks) -> ShareBundle:
        return codec.encode(a, b, code, plan, shapes, masks=MaskSet(r_masks, s_masks))

    # f shares depend only on (A, R-masks) and g shares only on (B, S-masks),
    # so each side is encoded with the other side's secret and masks at zero.
    f_by_secret = []
    for a_flat in itertools.product(range(p), repeat=a_syms):
        a = FieldMatrix(shapes.r, shapes.s, a_flat)
        f_by_secret.append([
            tuple(m.entries for m in encode(a, zero_b, masks, zero_s).f_shares)
            for masks in r_combos
        ])
    g_by_secret = []
    for b_flat in itertools.product(range(p), repeat=b_syms):
        b = FieldMatrix(shapes.s, shapes.t, b_flat)
        g_by_secret.append([
            tuple(m.entries for m in encode(zero_a, b, zero_r, masks).g_shares)
            for masks in s_combos
        ])

    subsets = list(itertools.combinations(range(n), t_sub))
    reference: list[Counter] | None = None
    for f_tables in f_by_secret:
        for g_tables in g_by_secret:
            counters = [Counter() for _ in subsets]
            for f_shares in f_tables:
                for g_shares in g_tables:
                    for si, subset in enumerate(subsets):
                        obs = tuple((f_shares[i], g_shares[i]) for i in subset)
                        counters[si][obs] += 1
            if reference is None:
                reference = counters
            elif counters != reference:
                return False
    return True
