"""End-to-end simulation of the servers and empirical privacy audits.

Privacy is checked two ways.  ``mds_audit`` re-derives the algebraic
sufficient conditions (invertible generalized Vandermonde matrix, both
mask power matrices MDS) from the code and the generator, by the
verifier plan search calls, ``codec._conditions``: the O(N) node check
and :func:`gf.is_power_mds` on each mask side, whose docstrings hold the
proofs.  The small and big codes are decided in O(N) per side, so the
audit reaches every plan that ``demo`` makes for them; only a grouped
code's side walks its minors and may raise :class:`BudgetExceededError`
above ``gf.MDS_WALK_BUDGET``.
At tiny scale, ``exhaustive_privacy_audit`` checks the real thing: that
for every T-subset of colluding servers the multiset of observed shares,
over all mask values, is identical regardless of the secrets, i.e. that
observations carry zero information.  Every share comes from the
codec's own block layout and share product (``codec._stack`` and
``codec._shares``), one product per chunk of secrets: a side's mask
stacks sit side by side, repeated once per secret of the chunk, so each
(secret, stack) pair's shares are fixed column slices of the result
(see the audit's docstring).  A chunk holds at most
``AUDIT_CHUNK_COLUMNS`` share columns, or one secret if that secret's
stacks alone need more, which bounds the memory of one product.  Each
observation is keyed by one base-p integer whose digits are its
residues, and each subset's multiset is the sorted list of those keys,
which Python sorts and compares in C.

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
import operator
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from math import comb

from . import codec, gf
from .codec import BlockShapes, CostReport, EvaluationPlan, ShareBundle
from .degree_table import SchemeParams
from .errors import BudgetExceededError, ParameterError, VerificationError, check_int, check_type
from .gf import FieldMatrix, PrimeFieldSpec
from .schemes import PolynomialCode, code_for_scheme

# exhaustive_privacy_audit refuses an enumeration of more steps than this.
AUDIT_BUDGET = 10**8
# exhaustive_privacy_audit puts at most this many share columns in one
# product, unless one secret's mask stacks alone need more.
AUDIT_CHUNK_COLUMNS = 2**16


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
    ``codec._stack`` and ``codec._shares``, the block layout and the
    share product that ``codec.encode`` runs, so the audit checks the
    shipped share routine; ``encode``'s input checks and mask drawing,
    which it skips, are covered by the codec tests.  Returns True iff,
    on each side, every secret gives the same multisets as the first
    one.  With ``zero_masks`` the masks are pinned to zero instead of
    enumerated (one zero stack per side), which models a broken scheme
    and should make the audit fail.  A is K x 1 and B is 1 x L, so each
    block has one entry.

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

    One ``codec._shares`` call covers a chunk of secrets, each under all
    M mask stacks.  A block has w entries (r/K * s for A, s * t/L for
    B; 1 at the shapes above, and more at the other shapes that
    ``_exhaustive_audit`` takes).  The side's M stacks sit side by side
    as one T x (w * M) mask matrix, built once and repeated once per
    secret of the chunk, and each secret's data stack is repeated M
    times the same way.  A
    product with column groups side by side is the products side by
    side, so row n of the result holds server n's share under secret 0
    with stacks 0, 1, ..., M - 1, then under secret 1, and so on.  A
    chunk holds as many secrets as fit in ``AUDIT_CHUNK_COLUMNS``
    columns, and at least one, which bounds the memory of one product.
    An observation of a T-subset, its T shares of w residues each, is
    keyed by the one base-p integer whose T * w digits are those
    residues, which is injective on them; so each subset's multiset is
    the sorted list of its M keys, and two multisets are equal iff
    those lists are.

    Raises :class:`BudgetExceededError` before doing any work if the
    enumeration would exceed ``AUDIT_BUDGET`` elementary steps, counted as
    (p ** (a + T*r) + p ** (b + T*s)) * C(N, T) for a, b the
    entries of A and B and r, s those of one R and one S mask (T*r and
    T*s are 0 with ``zero_masks``).  ``seed`` is unused, since plan
    search is deterministic; the keyword stays only for callers that
    still pass it.
    """
    check_type("params", params, SchemeParams)
    shapes = BlockShapes(params.k, 1, params.l)
    return _exhaustive_audit(params, p, shapes, plan, zero_masks)


def _exhaustive_audit(
    params: SchemeParams,
    p: int,
    shapes: BlockShapes,
    plan: EvaluationPlan | None = None,
    zero_masks: bool = False,
) -> bool:
    """:func:`exhaustive_privacy_audit` with A r x s and B s x t, for ``shapes`` (r, s, t)."""
    field = PrimeFieldSpec(p)
    code = code_for_scheme(params, "auto")
    if plan is None:
        plan = codec.find_evaluation_plan(code, field=field)
    codec._check_plan(code, plan)
    if plan.field.p != p:
        raise ParameterError("plan field does not match audit field")
    n = code.n_servers
    block_rows, block_cols = codec._block_sizes(code, shapes)

    t = params.t
    a_shape, b_shape = (shapes.r, shapes.s), (shapes.s, shapes.t)
    r_width, s_width = block_rows * shapes.s, shapes.s * block_cols
    # Masks pinned to zero enumerate the single value 0.
    mask_values = range(1) if zero_masks else range(p)
    # Per side: every secret times every mask stack, once per T-subset.
    steps = comb(n, t) * (
        p ** math.prod(a_shape) * len(mask_values) ** (t * r_width)
        + p ** math.prod(b_shape) * len(mask_values) ** (t * s_width)
    )
    if steps > AUDIT_BUDGET:
        raise BudgetExceededError(
            f"audit needs {steps} steps, budget is {AUDIT_BUDGET}; not sampling"
        )

    subsets = list(itertools.combinations(range(n), t))

    def side_is_private(exponents, grid, secret_shape, width: int) -> bool:
        # Per subset, the sorted keys of the observations over all mask
        # stacks, compared between every secret and the first one.
        stacks = list(itertools.product(mask_values, repeat=t * width))
        masks = FieldMatrix(t, width * len(stacks), _interleave(stacks, width))
        per_chunk = max(1, AUDIT_CHUNK_COLUMNS // masks.cols)
        rows, cols = secret_shape
        values = itertools.product(range(p), repeat=rows * cols)
        m, reference = len(stacks), [None] * len(subsets)
        for chunk in iter(lambda: list(itertools.islice(values, per_chunk)), []):
            # The chunk's secrets one below another.
            flat = tuple(itertools.chain.from_iterable(chunk))
            secrets = FieldMatrix(len(chunk) * rows, cols, flat)
            shares = _side_shares(plan, exponents, secrets, grid, masks, width)
            keys = [_as_ints([s.entries[i::width] for i in range(width)], p) for s in shares]
            for index, observed in enumerate(_subset_keys(keys, subsets, p ** width)):
                if reference[index] is None:
                    reference[index] = sorted(observed[:m])
                want = reference[index]
                if any(sorted(observed[j:j + m]) != want for j in range(0, len(observed), m)):
                    return False
        return True

    return side_is_private(
        code.assignment.alpha, (params.k, 1), a_shape, r_width
    ) and side_is_private(code.assignment.beta, (1, params.l), b_shape, s_width)


def _side_shares(
    plan: EvaluationPlan,
    exponents,
    secrets: FieldMatrix,
    grid: tuple[int, int],
    masks: FieldMatrix,
    width: int,
) -> tuple[FieldMatrix, ...]:
    """One side's 1 x (width * M * C) shares of C secrets, each under M mask stacks, at once.

    ``secrets`` holds the C secrets one below another, ``grid`` is one
    secret's block grid and ``width`` a block's entries, and ``masks`` is
    the T x (width * M) matrix of the M stacks side by side.  Columns
    (c * M + m) * width ... (c * M + m + 1) * width of server n's share are
    its share of secret c under stack m.
    """
    blocks = grid[0] * grid[1]
    count, copies = len(secrets.entries) // (blocks * width), masks.cols // width
    # Splitting the C secrets as one C * grid[0] x grid[1] grid puts block b
    # of secret c at row c * blocks + b of the stack.
    stacked = codec._stack(secrets, count * grid[0], grid[1]).entries
    cols = masks.cols * count
    data = FieldMatrix(blocks, cols, tuple(itertools.chain.from_iterable(
        stacked[j:j + width] * copies
        for b in range(blocks) for j in range(b * width, len(stacked), blocks * width)
    )))
    repeated = FieldMatrix(masks.rows, cols, tuple(itertools.chain.from_iterable(
        masks.entries[j:j + masks.cols] * count
        for j in range(0, len(masks.entries), masks.cols)
    )))
    p, g, n = plan.field.p, plan.generator, len(plan.exponents)
    return codec._shares(p, g, n, exponents, data, repeated, 1, cols)


def _as_ints(columns, base: int) -> list[int]:
    """One base-``base`` integer per index, whose digits, highest first, are the columns' entries.

    The columns are equal-length sequences of ints in [0, base), so the
    result is injective on the tuples of their entries.
    """
    value, *rest = columns
    for column in rest:
        value = map(operator.add, map(operator.mul, value, repeat(base)), column)
    return list(value)


def _subset_keys(keys: list[list[int]], subsets, base: int) -> Iterator[list[int]]:
    """Each subset's observation keys: ``_as_ints`` of its servers' ``keys`` in subset order.

    ``itertools.combinations`` yields its subsets in runs that share all
    but the last server, so the higher digits are shifted once per run.
    """
    head = shifted = None
    for subset in subsets:
        if subset[:-1] != head:
            head, shifted = subset[:-1], repeat(0)
            if head:
                # A zero lowest digit shifts the head's keys up one place.
                shifted = _as_ints([keys[i] for i in head] + [repeat(0)], base)
        yield list(map(operator.add, shifted, keys[subset[-1]]))


def _interleave(flats, chunk: int) -> tuple[int, ...]:
    """Equal-length tuples laid side by side, ``chunk`` entries at a time.

    The result holds chunk 0 of every tuple in order, then chunk 1 of
    every tuple, and so on; ``chunk`` must divide the common length.
    """
    return tuple(itertools.chain.from_iterable(
        flat[j:j + chunk] for j in range(0, len(flats[0]), chunk) for flat in flats
    ))
