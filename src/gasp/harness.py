"""End-to-end simulation of the servers and empirical privacy audits.

Privacy is checked two ways.  ``mds_audit`` re-derives the algebraic
sufficient conditions (invertible generalized Vandermonde matrix, both
mask power matrices MDS) from the code and the generator, by the
verifier plan search calls, ``codec._conditions``: the O(N) node check
and ``gf._is_power_mds`` on each mask side, whose docstrings hold the
proofs.  The small and big codes are decided in O(N) per side, so the
audit reaches every plan that ``demo`` makes for them; only a grouped
code's side walks its minors and may raise :class:`BudgetExceededError`
above ``gf.MDS_WALK_BUDGET``.
At tiny scale, ``exhaustive_privacy_audit`` checks the real thing: that
for every T-subset of colluding servers the multiset of observed shares,
over all mask values, is identical regardless of the secrets, i.e. that
observations carry zero information.  It enumerates blocks and masks of
one entry, A K x 1 and B 1 x L, and that decides every block shape:
entry c of a share combines entry c of each block and each mask only,
and mask entries are independent, so wider blocks are independent
copies of one-entry blocks (the audit's docstring has the proof).
Every share comes from the codec's own share product,
``codec._shares``, one product per chunk of secrets: a side's mask
stacks sit side by side, repeated once per secret of the chunk, so
each (secret, stack) pair's share is one fixed column of the result.
A chunk holds at most ``AUDIT_CHUNK_COLUMNS`` share columns, or one
secret if that secret's stacks alone need more, which bounds the
memory of one product.  Each observation is keyed by one base-p
integer whose digits are its share entries, and each subset's multiset
is the sorted list of those keys, which Python sorts and compares in C.

The audit enumerates one side at a time: every A with every R mask
stack, then every B with every S mask stack.  The f-shares depend only
on (A, R) and the g-shares only on (B, S), so the joint count of an
observation (u, v) under secrets (A, B) is F_A[u] * G_B[v], with F_A and
G_B one side's multisets.  Those products agree for all (A, B) iff F_A
is the same for every A and G_B for every B (sum over v: the total |G_B|
is the same for every B), so the two sides decide the joint verdict
exactly.  A has K entries, B has L and a stack of masks T, so the work
is (p ** (K + T) + p ** (L + T)) * C(N, T) steps, where the joint
enumeration took p ** (K + L + 2T) * C(N, T).  Exact distribution
equality is the strongest checkable statement, so nothing is sampled;
requests above ``AUDIT_BUDGET`` steps are refused.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import random
import time
from collections.abc import Iterator
from itertools import repeat
from math import comb

from . import codec, gf
from .codec import BlockShapes, CostReport, EvaluationPlan, ShareBundle
from .degree_table import SchemeParams
from .errors import BudgetExceededError, ParameterError, VerificationError, check_int, check_type
from .errors import _Value
from .gf import FieldMatrix, PrimeFieldSpec
from .schemes import PolynomialCode, code_for_scheme

# exhaustive_privacy_audit refuses an enumeration of more steps than this.
AUDIT_BUDGET = 10**8
# exhaustive_privacy_audit puts at most this many share columns in one
# product, unless one secret's mask stacks alone need more.
AUDIT_CHUNK_COLUMNS = 2**16


class MdsAuditReport(_Value):
    """Results of re-checking the three conditions of a plan."""

    gv_det_nonzero: bool
    p_mds: bool
    q_mds: bool

    @property
    def all_pass(self) -> bool:
        return self.gv_det_nonzero and self.p_mds and self.q_mds


class SessionTranscript(_Value):
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
    Seeded masks are for simulation only: anyone who knows the seed can
    rebuild them and strip them from the shares, so real inputs go
    through ``codec.encode`` without a seed, whose masks come from
    ``os.urandom``.
    ``stage_seconds`` of the transcript holds the ``time.perf_counter``
    seconds of each stage: ``plan`` (code and plan search), ``encode``
    (random inputs and shares), ``evaluate`` (the N server products),
    ``decode``, and ``verify`` (the direct product check and the cost
    count).
    """
    check_int("seed", seed)
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
    codec._block_sizes(code, shapes)  # a bad shape fails before plan search
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
    return SessionTranscript(code, plan, shapes, a, b, bundle, responses, product, report, stage_seconds)


def mds_audit(code: PolynomialCode, plan: EvaluationPlan) -> MdsAuditReport:
    """Re-verify the three sufficient conditions from the code and the generator.

    The nodes g ** e and the points g ** n are rebuilt from the plan's
    generator, and all three conditions are decided by
    ``codec._conditions``, the verifier plan search calls; the tests
    check it against brute force over a grid.  A plan whose exponents
    are not the code's term set is refused, as ``encode`` refuses it.
    """
    codec._check_plan(code, plan)
    verdicts = dict(codec._conditions(code, plan.field.p, plan.generator))
    return MdsAuditReport(verdicts["gv"], verdicts["alpha_mds"], verdicts["beta_mds"])


def exhaustive_privacy_audit(
    params: SchemeParams,
    p: int,
    plan: EvaluationPlan | None = None,
    seed: int = 0,
    zero_masks: bool = False,
) -> bool:
    """Exact distributional privacy check by total enumeration, one side at a time.

    For every T-subset of servers and every secret A, collect
    the observed f-shares over all R mask stacks; then do the
    same for every B and the S mask stacks.  Every share comes from
    ``codec._shares``, the share product that ``codec.encode`` runs, so
    the audit checks the shipped share routine; ``encode``'s input checks
    and mask drawing, which it skips, are covered by the codec tests.
    Returns True iff, on each side, every secret gives the same
    multisets as the first one.  With ``zero_masks`` the masks are
    pinned to zero instead of enumerated (one zero stack per side),
    which models a broken scheme and should make the audit fail.  A is
    K x 1 and B is 1 x L, so each block and each mask has one entry.

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

    Only one-entry blocks are checked, and that loses nothing either:
    the verdict at blocks of w entries, any shapes with K | r and L | t,
    is the verdict here.  Entry c of every share is the same power-matrix
    combination of entry c of each block and of each mask, and each
    mask entry is drawn on its own (uniform, or pinned to zero).  So
    what a T-subset sees at width w is w independent observations, the
    one of column c a width-1 observation of the blocks' column c, and
    its distribution is the product of their width-1 distributions.  If
    every one-entry secret gives the same width-1 distribution, so does
    every column, and so does their product.  Conversely, if two
    one-entry secrets give different width-1 distributions, two wide
    secrets that hold them in column 0 and agree elsewhere differ in
    column 0's marginal.

    One ``codec._shares`` call covers a chunk of secrets, each under all
    M = p ** T mask stacks (one with ``zero_masks``).  Column m of the
    T x M mask matrix is stack m, and each secret's data column is
    repeated M times, so row n of the result holds server n's share
    under secret 0 with stacks 0, 1, ..., M - 1, then under secret 1,
    and so on (``_side_shares``).  A chunk holds as many secrets as fit
    in ``AUDIT_CHUNK_COLUMNS`` columns, and at least one, which bounds
    the memory of one product.  An observation of a T-subset, its T
    share entries, is keyed by the one base-p integer whose T digits
    are those entries, which is injective on them; so each subset's
    multiset is the sorted list of its M keys, and two multisets are
    equal iff those lists are.

    Raises :class:`BudgetExceededError`, before any mask stack or secret
    is listed, if the enumeration would exceed ``AUDIT_BUDGET``
    elementary steps, counted as (p ** K + p ** L) * p ** T * C(N, T),
    with p ** T taken as 1 under ``zero_masks``.  ``seed`` is unused, since plan search is
    deterministic; the keyword stays only for callers that still pass
    it.
    """
    check_type("params", params, SchemeParams)
    field = PrimeFieldSpec(p)
    code = code_for_scheme(params, "auto")
    if plan is None:
        plan = codec.find_evaluation_plan(code, field=field)
    codec._check_plan(code, plan)
    if plan.field.p != p:
        raise ParameterError("plan field does not match audit field")
    n, t = code.n_servers, params.t
    # Masks pinned to zero enumerate the single value 0.
    mask_values = range(1) if zero_masks else range(p)
    m = len(mask_values) ** t
    # Per side: every secret times every mask stack, once per T-subset.
    steps = comb(n, t) * (p ** params.k + p ** params.l) * m
    if steps > AUDIT_BUDGET:
        raise BudgetExceededError(
            f"audit needs {steps} steps, budget is {AUDIT_BUDGET}; not sampling"
        )

    subsets = list(itertools.combinations(range(n), t))
    # Column j of the T x M mask matrix is mask stack j.
    stacks = itertools.product(mask_values, repeat=t)
    masks = FieldMatrix(t, m, tuple(itertools.chain.from_iterable(zip(*stacks))))

    def side_is_private(exponents, blocks: int) -> bool:
        # Per subset, the sorted keys of the observations over all mask
        # stacks, compared between every secret and the first one.
        values = itertools.product(range(p), repeat=blocks)
        reference = [None] * len(subsets)
        per_chunk = max(1, AUDIT_CHUNK_COLUMNS // m)
        for chunk in iter(lambda: list(itertools.islice(values, per_chunk)), []):
            shares = _side_shares(plan, exponents, chunk, masks)
            keys = [share.entries for share in shares]
            for index, observed in enumerate(_subset_keys(keys, subsets, p)):
                if reference[index] is None:
                    reference[index] = sorted(observed[:m])
                want = reference[index]
                if any(sorted(observed[j:j + m]) != want for j in range(0, len(observed), m)):
                    return False
        return True

    return side_is_private(code.assignment.alpha, params.k) and side_is_private(
        code.assignment.beta, params.l
    )


def _side_shares(
    plan: EvaluationPlan, exponents, secrets: list[tuple[int, ...]], masks: FieldMatrix
) -> tuple[FieldMatrix, ...]:
    """One side's 1 x (C * M) shares of C secrets of one-entry blocks, each under M mask stacks.

    ``secrets`` holds the C secrets, each the tuple of its blocks'
    entries in block order, and ``masks`` is the T x M matrix whose
    column m is stack m.  Column c * M + m of server n's share is its
    share of secret c under stack m.
    """
    m, count = masks.cols, len(secrets)
    cols = m * count
    # Row b of the data stack: block b of each secret, M times over.
    data = FieldMatrix(len(secrets[0]), cols, tuple(itertools.chain.from_iterable(
        repeat(entry, m) for row in zip(*secrets) for entry in row
    )))
    repeated = FieldMatrix(masks.rows, cols, tuple(itertools.chain.from_iterable(
        masks.entries[j:j + m] * count for j in range(0, len(masks.entries), m)
    )))
    p, g, n = plan.field.p, plan.generator, len(plan.exponents)
    return codec._shares(p, g, n, exponents, data, repeated, 1, cols)


def _subset_keys(keys: list[tuple[int, ...]], subsets, base: int) -> Iterator[list[int]]:
    """Each subset's observation keys: one base-``base`` integer per column of ``keys``.

    A key's digits are the subset's servers' ``keys`` in that column, in
    subset order, highest first; each is in [0, ``base``), so a key is
    injective on its digits.
    ``itertools.combinations`` yields its subsets in runs that share all
    but the last server, so the higher digits are shifted once per run.
    """
    head = shifted = None
    for subset in subsets:
        if subset[:-1] != head:
            head, shifted = subset[:-1], repeat(0)
            for i in head:
                # Each head digit goes in, then everything moves up one place.
                shifted = list(map(operator.mul, map(operator.add, shifted, keys[i]), repeat(base)))
        yield list(map(operator.add, shifted, keys[subset[-1]]))
