"""Plan search, encoding, server evaluation, decoding, and cost accounting."""

import itertools
import math
import random

import pytest

from gasp import codec, degree_table, gf, harness, schemes
from gasp.codec import BlockShapes, MaskSet
from gasp.degree_table import SchemeParams
from gasp.errors import ParameterError, PlanSearchError, SingularMatrixError
from gasp.gf import FieldMatrix, PrimeFieldSpec
from gasp.schemes import code_for_scheme
from test_oracles import det, generalized_vandermonde, is_mds, mask_matrix, points, row


def fixture_code():
    return code_for_scheme(SchemeParams(3, 3, 2), "auto")


def fixture_plan():
    return codec.find_evaluation_plan(fixture_code(), PrimeFieldSpec(29))


def test_fixture_plan_accepted():
    plan = fixture_plan()
    assert plan.generator == 2
    assert points(plan) == tuple(pow(2, n, 29) for n in range(18))
    assert plan.exponents == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 18, 19, 21, 22)
    assert det(29, generalized_vandermonde(29, points(plan), plan.exponents)) != 0
    assert harness.mds_audit(fixture_code(), plan).all_pass


def test_plan_points_are_powers_of_the_generator():
    # gf._geometric builds the points of a plan by running products; each
    # must equal one pow, at g = 0 (1, 0, 0, ...), g = 1 (all ones),
    # g = p - 1 (alternating signs) and a generator of full order.
    for p in (2, 7, 29, 11383, 2**61 - 1):
        for g in sorted({0, 1, 2 % p, p - 1}):
            for n in (1, 2, 3, 17, 64):
                plan = codec.EvaluationPlan(PrimeFieldSpec(p), g, range(n))
                assert tuple(gf._geometric(p, g, n)) == points(plan), (p, g, n)


def test_plan_field_too_small():
    with pytest.raises(ParameterError):
        codec.find_evaluation_plan(fixture_code(), PrimeFieldSpec(17))
    # A bare modulus instead of a PrimeFieldSpec used to fail on field.p.
    with pytest.raises(ParameterError, match="field must be a PrimeFieldSpec, got int"):
        codec.find_evaluation_plan(fixture_code(), field=5)


def test_plan_search_tiny_field():
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(7))
    assert (plan.generator, points(plan)) == (2, (1, 2, 4))
    # re-verification from scratch
    assert det(7, generalized_vandermonde(7, points(plan), plan.exponents)) != 0


def test_plan_search_deterministic_and_bounded(monkeypatch):
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    # The unused seed changes nothing.
    a = codec.find_evaluation_plan(code, PrimeFieldSpec(7), seed=3)
    assert a == codec.find_evaluation_plan(code, PrimeFieldSpec(7), seed=4)
    # A field with room for more than MAX_CANDIDATES generators tries no
    # more; over F_1009 no g in 2..201 has g ** 2 == 1 or g == 1.
    monkeypatch.setattr(gf, "is_power_mds", lambda p, g, n, exponents: False)
    with pytest.raises(PlanSearchError) as err:
        codec.find_evaluation_plan(code, PrimeFieldSpec(1009))
    assert err.value.attempts == codec.MAX_CANDIDATES == 200
    assert err.value.rejections == {"gv": 0, "alpha_mds": 200, "beta_mds": 0}


def test_plan_search_refusal_counts_every_generator():
    # Over F_23 the group has order 22 and J holds both 0 and 22, so every
    # g has g ** 0 == g ** 22: all 21 generators 2..22 fail on the nodes.
    with pytest.raises(PlanSearchError) as err:
        codec.find_evaluation_plan(fixture_code(), PrimeFieldSpec(23))
    assert err.value.attempts == 21
    assert err.value.rejections == {"gv": 21, "alpha_mds": 0, "beta_mds": 0}
    assert str(err.value) == "no valid generator among 21 candidates: gv 21"


def test_non_int_points_rejected():
    # The generator fixes every point, so it is what must be an int: a
    # float passed the range check and then broke pow, and a bool would
    # pass as 0 or 1.
    for generator in (2.0, "2", True, None):
        with pytest.raises(ParameterError):
            codec.EvaluationPlan(PrimeFieldSpec(7), generator, (0, 1, 2))
    for generator in (-1, 7):
        with pytest.raises(ParameterError):
            codec.EvaluationPlan(PrimeFieldSpec(7), generator, (0, 1, 2))
    # So must the field be a PrimeFieldSpec: a bare modulus failed on field.p.
    with pytest.raises(ParameterError):
        codec.EvaluationPlan(7, 2, (0, 1, 2))
    # Exponents likewise: a float or bool exponent compared equal to the
    # int one, passed the term-set check, and then broke pow in decode.
    for exponents in ((0.0, 1.0, 2.0), (0, 1, 2.0), (False, True, 2), (-1, 0, 1), ("0", "1")):
        with pytest.raises(ParameterError):
            codec.EvaluationPlan(PrimeFieldSpec(7), 2, exponents)
    # The types and signs are checked first, then the order; a list becomes a tuple.
    for exponents, message in (
        ((3, -1), r"^exponents must be nonnegative ints, got \(3, -1\)$"),
        ((1.0, 2), r"^exponents must be nonnegative ints, got \(1\.0, 2\)$"),
        ((2, "1"), r"^exponents must be nonnegative ints, got \(2, '1'\)$"),
        ((-1, 0.5), r"^exponents must be nonnegative ints, got \(-1, 0\.5\)$"),
        ((2, 1), "^exponents must be strictly increasing$"),
        ((0, 2, 2), "^exponents must be strictly increasing$"),
    ):
        with pytest.raises(ParameterError, match=message):
            codec.EvaluationPlan(PrimeFieldSpec(7), 2, exponents)
    assert codec.EvaluationPlan(PrimeFieldSpec(7), 2, [0, 2, 5]).exponents == (0, 2, 5)


def test_plan_refuses_an_empty_exponent_tuple():
    # Every code has N >= 1 terms, so a plan with none can serve no code.
    for exponents in ((), []):
        with pytest.raises(ParameterError, match="^exponents must be non-empty$"):
            codec.EvaluationPlan(PrimeFieldSpec(7), 2, exponents)


def test_mask_mds_matches_full_enumeration():
    # Oracle grid: gf.is_power_mds against the walk over every maximal
    # minor, at every g in F_p: g = 0, whose points are 1, 0, 0, ..., g = 1,
    # whose points all coincide, and every g of small order.  Exponent sets
    # hold 0 or not, and are progressions or not; whenever
    # gcd(d, p - 1) > 1, d-th powers collide.
    progressions = [
        tuple(e0 + d * i for i in range(t))
        for t in (1, 2, 3) for d in (1, 2, 3, 4) for e0 in (0, 1, 5)
    ]
    others = [(0, 1, 3), (2, 5, 6), (16, 17, 20, 21)]  # the last: grouped (4,4,4), G = 2
    verdicts = set()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        for exponents in progressions + others:
            t = len(exponents)
            for n in (t, t + 2):
                for g in range(p):
                    expected = is_mds(p, mask_matrix(p, g, n, exponents))
                    got = gf.is_power_mds(p, g, n, exponents)
                    assert got == expected, (p, g, n, exponents)
                    verdicts.add((expected, min(g, 2), exponents in others, 0 in exponents))
    # Passes and failures at g = 0, at g = 1 and at other g, with and
    # without a zero exponent, on both paths, except where no matrix can
    # pass: g = 1 with T >= 2, and g = 0 with T >= 3, which every
    # non-progression has.
    never = {(True, 1, True, zero) for zero in (False, True)}
    never |= {(True, 0, True, zero) for zero in (False, True)}
    assert verdicts == set(itertools.product((True, False), (0, 1, 2), (False, True), (False, True))) - never
    with pytest.raises(ParameterError):
        gf.is_power_mds(7, 2, 2, (1, 2, 3))


def _oracle_rejection(code, field, g):
    # The plan conditions by determinant and full minor enumeration.
    p, exponents, n = field.p, code.exponents, code.n_servers
    points = tuple(pow(g, j, p) for j in range(n))
    if det(p, generalized_vandermonde(p, points, exponents)) == 0:
        return "gv"
    if not is_mds(p, mask_matrix(p, g, n, code.alpha_masks)):
        return "alpha_mds"
    if not is_mds(p, mask_matrix(p, g, n, code.beta_masks)):
        return "beta_mds"
    return None


def test_generator_scan_matches_oracle():
    # Every small and big code with K, L <= 3 and T <= 2, and the grouped
    # (3,3,3) codes, at the default field, at p = next_prime(2**61), and at
    # the three smallest primes above N, where generators of small order
    # are rejected on the nodes and on the masks.  The accepted g passes
    # the oracle and every smaller g fails it; a refusal counts the
    # oracle's reasons.
    params = [SchemeParams(k, l, t) for k in range(1, 4) for l in range(1, 4) for t in (1, 2)]
    codes = [code_for_scheme(pr, s) for pr in params for s in ("small", "big")]
    codes += [code_for_scheme(SchemeParams(3, 3, 3), "grouped", g=g) for g in (2, 3)]
    outcomes = set()
    for code in codes:
        fields = [codec.default_field(code), PrimeFieldSpec(gf.next_prime(2**61))]
        p = code.n_servers
        for _ in range(3):
            p = gf.next_prime(p)
            fields.append(PrimeFieldSpec(p))
        for field in fields:
            rejections = {"gv": 0, "alpha_mds": 0, "beta_mds": 0}
            try:
                plan = codec.find_evaluation_plan(code, field)
            except PlanSearchError as err:
                for g in range(2, min(field.p, 2 + codec.MAX_CANDIDATES)):
                    rejections[_oracle_rejection(code, field, g)] += 1
                assert err.rejections == rejections, (code.params, field)
                outcomes.add("refused")
            else:
                assert _oracle_rejection(code, field, plan.generator) is None
                for g in range(2, plan.generator):
                    rejections[_oracle_rejection(code, field, g)] += 1
                outcomes.add("accepted")
            outcomes.update(reason for reason, n in rejections.items() if n)
    assert outcomes == {"accepted", "refused", "gv", "alpha_mds", "beta_mds"}


def test_every_plan_passes_the_audits():
    # Every plan returned over the round-trip grid passes a full GV
    # determinant and the minor walk on both mask sides, and the audit.
    for k, l, t in itertools.product(range(1, 5), range(1, 5), range(1, 4)):
        for scheme in ("small", "big"):
            code = code_for_scheme(SchemeParams(k, l, t), scheme)
            plan = codec.find_evaluation_plan(code)
            assert _oracle_rejection(code, plan.field, plan.generator) is None
            assert harness.mds_audit(code, plan).all_pass, (k, l, t, scheme)


def test_plan_search_enumerates_minors_only_for_grouped_codes(monkeypatch):
    # Counts the minor walk of gf.is_power_mds by shape.
    calls = []
    walk = gf._mds_walk

    def counting_walk(p, rows):
        calls.append((len(rows), len(rows[0])))
        return walk(p, rows)

    monkeypatch.setattr(gf, "_mds_walk", counting_walk)
    small = code_for_scheme(SchemeParams(4, 4, 3), "small")
    plan = codec.find_evaluation_plan(small, PrimeFieldSpec(137))  # g = 2 fails on alpha
    assert plan.generator == 3
    codec.find_evaluation_plan(code_for_scheme(SchemeParams(2, 2, 3), "big"))
    assert calls == []

    # The grouped alpha masks 16, 17, 20, 21 are no progression: one walk
    # of the 4 x 36 mask matrix per generator, 2 to 21; the beta masks
    # 16..19 are a progression.
    grouped = code_for_scheme(SchemeParams(4, 4, 4), "grouped", g=2)
    grouped_plan = codec.find_evaluation_plan(grouped)
    assert grouped_plan.generator == 21
    assert calls == [(4, 36)] * 20

    # The audit decides each side by the same function: the progression
    # certificate for both small-code sides, one walk for the grouped alpha side.
    del calls[:]
    assert harness.mds_audit(small, plan).all_pass
    assert calls == []
    assert harness.mds_audit(grouped, grouped_plan).all_pass
    assert calls == [(4, 36)]


def test_fallback_field_only_when_the_default_field_refuses_a_grouped_code(monkeypatch):
    # (5,5,5) G = 2 finds no generator over its default field; without a
    # field, plan search rescans over next_prime(4 * C(N, T)) and g = 2
    # passes there.  Given the default field explicitly, it scans that alone.
    code = code_for_scheme(SchemeParams(5, 5, 5), "grouped", g=2)
    field = codec.default_field(code)
    with pytest.raises(PlanSearchError) as err:
        codec.find_evaluation_plan(code, field)
    assert err.value.rejections == {"gv": 2, "alpha_mds": 198, "beta_mds": 0}
    plan = codec.find_evaluation_plan(code)
    assert plan.field.p == gf.next_prime(4 * math.comb(55, 5)) == 13_915_081
    assert plan.generator == 2
    assert harness.mds_audit(code, plan).all_pass

    # With every mask check failing, a grouped code whose masks are both
    # progressions (G = 3 at K = 4) is refused over its default field
    # alone, and one whose alpha masks are not is rescanned once.
    fields = []
    # append returns None, so every mask check records its field and fails.
    monkeypatch.setattr(gf, "is_power_mds", lambda p, g, n, exponents: fields.append(p))
    progression = code_for_scheme(SchemeParams(4, 4, 4), "grouped", g=3)
    with pytest.raises(PlanSearchError):
        codec.find_evaluation_plan(progression)
    assert set(fields) == {codec.default_field(progression).p}
    del fields[:]
    with pytest.raises(PlanSearchError):
        codec.find_evaluation_plan(code)
    assert set(fields) == {field.p, 13_915_081}


# (K, G) -> (p, g) of the plan that plan search returns for the grouped
# (K,K,K) code, recorded before the mask check took the generator.
GROUPED_PLANS = {
    (1, 1): (7, 2),
    (2, 1): (113, 2), (2, 2): (127, 3),
    (3, 1): (509, 2), (3, 2): (631, 3), (3, 3): (631, 3),
    (4, 1): (1483, 2), (4, 2): (1447, 21), (4, 3): (1931, 2), (4, 4): (1931, 2),
    (5, 1): (3433, 2), (5, 2): (13_915_081, 2), (5, 3): (21_846_059, 2),
    (5, 4): (4591, 2), (5, 5): (4591, 2),
}


def test_grouped_plans_pinned():
    # Every grouped code with K <= 5 and every G keeps its plan.
    for k in range(1, 6):
        for groups in range(1, k + 1):
            code = code_for_scheme(SchemeParams(k, k, k), "grouped", g=groups)
            plan = codec.find_evaluation_plan(code)
            assert (plan.field.p, plan.generator) == GROUPED_PLANS[k, groups], (k, groups)
    assert len(GROUPED_PLANS) == 15


def test_default_field_heuristic():
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    assert codec.default_field(code).p == 7
    assert codec.default_field(fixture_code()).p == 397


def test_encode_hand_example():
    # one block per side, one mask: f(x) = A + R x over F_5 at points 1, 2, 4
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5))
    assert points(plan) == (1, 2, 4)
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    masks = MaskSet(r_masks=FieldMatrix(1, 1, (3,)), s_masks=FieldMatrix(1, 1, (2,)))
    bundle = codec.encode(a, b, code, plan, shapes, masks=masks)
    assert tuple(s.entries[0] for s in bundle.f_shares) == ((2 + 3) % 5, (2 + 6) % 5, (2 + 12) % 5)
    assert tuple(s.entries[0] for s in bundle.g_shares) == ((3 + 2) % 5, (3 + 4) % 5, (3 + 8) % 5)


def _grid_block(m, rows, cols, i, j):
    entries = (row(m, i * rows + r)[j * cols + c] for r in range(rows) for c in range(cols))
    return FieldMatrix(rows, cols, tuple(entries))


def _split(stack, rows, cols):
    # The blocks of a stack: row i is block i, flattened row-major.
    return [FieldMatrix(rows, cols, row(stack, i)) for i in range(stack.rows)]


def _naive_shares(p, points, exponents, blocks):
    # Oracle: server n's share is sum_j x_n ** e_j * block_j, entry by entry.
    assert len(exponents) == len(blocks)
    shares = []
    for x in points:
        acc = [0] * len(blocks[0].entries)
        for e, block in zip(exponents, blocks):
            c = pow(x, e, p)
            for idx, v in enumerate(block.entries):
                acc[idx] = (acc[idx] + c * v) % p
        shares.append(FieldMatrix(blocks[0].rows, blocks[0].cols, tuple(acc)))
    return tuple(shares)


@pytest.mark.parametrize(
    "scheme, k, l, t, g",
    [
        ("small", 2, 3, 1, None),
        ("small", 2, 3, 3, None),
        ("small", 2, 2, 1, None),
        ("small", 3, 2, 2, None),
        ("big", 2, 3, 1, None),
        ("big", 2, 2, 2, None),
        ("big", 3, 2, 1, None),
        ("big", 3, 2, 3, None),
        ("grouped", 3, 3, 3, 2),
    ],
)
def test_encode_matches_naive_sum(scheme, k, l, t, g):
    code = code_for_scheme(SchemeParams(k, l, t), scheme, g=g)
    plan = codec.find_evaluation_plan(code)
    p = plan.field.p
    rows, s, cols = 2, 3, 2  # non-square blocks: A's are 2 x 3, B's 3 x 2
    shapes = BlockShapes(k * rows, s, l * cols)
    rng = random.Random(k * 100 + l * 10 + t)
    a = codec.random_matrix(p, shapes.r, s, rng)
    b = codec.random_matrix(p, s, shapes.t, rng)
    a_blocks = [_grid_block(a, rows, s, i, 0) for i in range(k)]
    b_blocks = [_grid_block(b, s, cols, 0, j) for j in range(l)]

    # Seeded masks: T row-side masks, then T column-side masks, one stream,
    # drawn here as separate matrices to pin the order encode draws its stacks in.
    mask_rng = random.Random(99)
    r_masks = [codec.random_matrix(p, rows, s, mask_rng) for _ in range(t)]
    s_masks = [codec.random_matrix(p, s, cols, mask_rng) for _ in range(t)]
    injected = MaskSet(
        codec.random_matrix(p, t, rows * s, rng), codec.random_matrix(p, t, s * cols, rng)
    )
    injected_r, injected_s = _split(injected.r_masks, rows, s), _split(injected.s_masks, s, cols)
    alpha, beta = code.assignment.alpha, code.assignment.beta
    cases = [(99, None, r_masks, s_masks), (0, injected, injected_r, injected_s)]
    for seed, masks, rs, ss in cases:
        bundle = codec.encode(a, b, code, plan, shapes, seed=seed, masks=masks)
        assert bundle.f_shares == _naive_shares(p, points(plan), alpha, a_blocks + rs)
        assert bundle.g_shares == _naive_shares(p, points(plan), beta, b_blocks + ss)
        responses = tuple(codec.server_evaluate(bundle, n) for n in range(code.n_servers))
        assert codec.decode(responses, code, plan, shapes) == gf.mat_mul(p, a, b)


@pytest.mark.parametrize(
    "scheme, k, l, t, g",
    [("small", 3, 2, 1, None), ("big", 2, 2, 3, None), ("grouped", 3, 3, 3, 2)],
)
def test_each_side_depends_only_on_its_own_inputs(scheme, k, l, t, g):
    # The exhaustive privacy audit encodes each side with the other side's
    # secret and masks at zero; that is exact only because the f-shares
    # depend on (A, R) alone and the g-shares on (B, S) alone.
    code = code_for_scheme(SchemeParams(k, l, t), scheme, g=g)
    plan = codec.find_evaluation_plan(code)
    p = plan.field.p
    shapes = BlockShapes(2 * k, 3, 2 * l)
    rng = random.Random(k * 100 + l * 10 + t)

    def inputs():
        return (
            codec.random_matrix(p, shapes.r, shapes.s, rng),
            codec.random_matrix(p, shapes.s, shapes.t, rng),
            codec.random_matrix(p, t, 2 * shapes.s, rng),
            codec.random_matrix(p, t, shapes.s * 2, rng),
        )

    def encode(a, b, r_masks, s_masks):
        return codec.encode(a, b, code, plan, shapes, masks=MaskSet(r_masks, s_masks))

    (a, b, r, s), (a2, b2, r2, s2) = inputs(), inputs()
    base = encode(a, b, r, s)
    new_g_side = encode(a, b2, r, s2)
    new_f_side = encode(a2, b, r2, s)
    assert new_g_side.f_shares == base.f_shares and new_g_side.g_shares != base.g_shares
    assert new_f_side.g_shares == base.g_shares and new_f_side.f_shares != base.f_shares


def test_non_int_entries_rejected():
    # A float passes the range check 0 <= e < p, but its shares are floats
    # and this decode used to return (0.0,) instead of 15.
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(gf.next_prime(2**61)))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (3,))
    b = FieldMatrix(1, 1, (5,))
    one = FieldMatrix(1, 1, (1,))
    one_float = FieldMatrix(1, 1, (1.0,))
    with pytest.raises(ParameterError):
        codec.encode(FieldMatrix(1, 1, (3.0,)), b, code, plan, shapes)
    with pytest.raises(ParameterError):
        codec.encode(a, FieldMatrix(1, 1, (5.0,)), code, plan, shapes)
    with pytest.raises(ParameterError):
        codec.encode(a, b, code, plan, shapes, masks=MaskSet(one_float, one))
    with pytest.raises(ParameterError):
        codec.encode(a, b, code, plan, shapes, masks=MaskSet(one, one_float))

    bundle = codec.encode(a, b, code, plan, shapes)
    responses = [codec.server_evaluate(bundle, n) for n in range(3)]
    assert codec.decode(tuple(responses), code, plan, shapes).entries == (15,)
    responses[1] = FieldMatrix(1, 1, (float(responses[1].entries[0]),))
    with pytest.raises(ParameterError):
        codec.decode(tuple(responses), code, plan, shapes)


def test_decode_names_the_first_bad_response():
    # decode checks the types and shapes response by response and the
    # entries in one pass; the first bad response in order, whatever its
    # fault, is the one named, as when each was checked in full in turn.
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5))
    shapes = BlockShapes(1, 1, 2)
    good = FieldMatrix(1, 2, (1, 4))
    faults = {
        "type": None, "shape": FieldMatrix(2, 1, (1, 4)), "float": FieldMatrix(1, 2, (1.0, 4)),
        "negative": FieldMatrix(1, 2, (1, -1)), "unreduced": FieldMatrix(1, 2, (5, 4)),
    }
    pairs = itertools.product(itertools.combinations(range(3), 2), faults, faults)
    for (i, j), first, second in pairs:
        responses = [good] * 3
        responses[i], responses[j] = faults[first], faults[second]
        want = None
        try:
            codec._check_matrix(f"responses[{i}]", faults[first], 1, 2, 5)
        except ParameterError as exc:
            want = str(exc)
        with pytest.raises(ParameterError) as raised:
            codec.decode(tuple(responses), code, plan, shapes)
        assert str(raised.value) == want and want.startswith(f"responses[{i}] "), (first, second)


def test_non_matrix_inputs_rejected():
    # A server that did not answer (None) or a raw list of rows gets a
    # typed error, not an AttributeError on .rows.
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    bundle = codec.encode(a, b, code, plan, shapes)
    responses = [codec.server_evaluate(bundle, n) for n in range(3)]
    for bad in (None, [[1]]):
        broken = tuple(responses[:1] + [bad] + responses[2:])
        with pytest.raises(ParameterError, match=r"responses\[1\] must be a FieldMatrix"):
            codec.decode(broken, code, plan, shapes)
    with pytest.raises(ParameterError, match="A must be a FieldMatrix, got list"):
        codec.encode([[2]], b, code, plan, shapes)
    # No response list at all, and a plain pair of masks instead of a MaskSet,
    # used to raise a bare TypeError and AttributeError.
    with pytest.raises(ParameterError, match="responses must be a Sequence, got NoneType"):
        codec.decode(None, code, plan, shapes)
    with pytest.raises(ParameterError, match="masks must be a MaskSet, got tuple"):
        codec.encode(a, b, code, plan, shapes, masks=(a, b))
    # "an" before a vowel.
    with pytest.raises(ParameterError, match="^plan must be an EvaluationPlan, got NoneType$"):
        harness.mds_audit(code, None)
    with pytest.raises(ParameterError, match="^assignment must be an ExponentAssignment, got"):
        degree_table.outer_sum(None, code.params)


_CODE_221 = code_for_scheme(SchemeParams(2, 2, 1), "auto")
_A_21, _B_12 = FieldMatrix(2, 1, (1, 2)), FieldMatrix(1, 2, (3, 4))


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda plan: codec.encode(_A_21, _B_12, _CODE_221, plan, (2, 1, 2)), "shapes"),
        (lambda plan: codec.cost(_CODE_221, (2, 1, 2)), "shapes"),
        (lambda plan: codec.encode(_A_21, _B_12, _CODE_221, None, BlockShapes(2, 1, 2)), "plan"),
        (lambda plan: codec.find_evaluation_plan(None), "code"),
        (lambda plan: harness.mds_audit(_CODE_221, None), "plan"),
        (lambda plan: harness.run_sdmm((2, 2, 1)), "params"),
        (lambda plan: harness.exhaustive_privacy_audit(
            SchemeParams(1, 1, 1), 5, shapes=(1, 1, 1)), "shapes"),
        (lambda plan: harness.run_sdmm(SchemeParams(2, 2, 1), shapes=(2, 1, 2)), "shapes"),
        (lambda plan: harness.exhaustive_privacy_audit(None, 7), "params"),
        (lambda plan: harness.exhaustive_privacy_audit(
            SchemeParams(1, 1, 1), 7, plan=(1, 2)), "plan"),
        (lambda plan: codec.cost(None, BlockShapes(2, 1, 2)), "code"),
        (lambda plan: codec.server_evaluate(None, 0), "bundle"),
        (lambda plan: degree_table.outer_sum(None, _CODE_221.params), "assignment"),
        (lambda plan: degree_table.is_decodable(
            (_CODE_221.assignment.alpha, _CODE_221.assignment.beta), _CODE_221.params),
         "assignment"),
        (lambda plan: degree_table.is_t_secure_assignment(_CODE_221.assignment, -1), "params"),
        (lambda plan: schemes.PolynomialCode(_CODE_221.params, [0, 1, 2], "big"), "assignment"),
        (lambda plan: schemes.PolynomialCode(None, _CODE_221.assignment, "big"), "params"),
    ],
    ids=["encode-shapes", "cost-shapes", "encode-plan", "plan-search-code", "audit-plan",
         "session-params", "exhaustive-shapes", "session-shapes", "exhaustive-params",
         "exhaustive-plan", "cost-code", "server-bundle", "outer-sum-assignment",
         "decodable-assignment", "t-secure-params",
         "polynomial-code-assignment", "polynomial-code-params"],
)
def test_wrong_argument_types_raise_parameter_error(call, expected):
    # A tuple of sizes, a tuple of parameters, a list, -1 or None used to
    # fail on an attribute with a bare AttributeError.
    plan = codec.find_evaluation_plan(_CODE_221)
    # "an" before a vowel: "plan must be an EvaluationPlan", "shapes must be a BlockShapes".
    article = "(a [^AEIOU]|an [AEIOU])"
    with pytest.raises(ParameterError, match=f"^{expected} must be {article}[A-Za-z]*, got"):
        call(plan)


def test_encode_zero_masks_degenerate():
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    zero = FieldMatrix(1, 1, (0,))
    bundle = codec.encode(a, b, code, plan, shapes, masks=MaskSet(zero, zero))
    assert all(s == a for s in bundle.f_shares)


def test_encode_shape_errors():
    code = fixture_code()
    plan = fixture_plan()
    with pytest.raises(ParameterError):
        codec.encode(
            FieldMatrix(4, 2, (0,) * 8),
            FieldMatrix(2, 3, (0,) * 6),
            code,
            plan,
            BlockShapes(4, 2, 3),
        )
    with pytest.raises(ParameterError):
        codec.encode(
            FieldMatrix(3, 2, (0,) * 6),
            FieldMatrix(2, 3, (0,) * 6),
            code,
            plan,
            BlockShapes(6, 2, 3),
        )
    # Injected masks are one T-row stack per side; T = 2 here, and each mask
    # of the r x s = 3 x 2 problem is 1 x 2 on A's side and 2 x 1 on B's.
    a, b = FieldMatrix(3, 2, (0,) * 6), FieldMatrix(2, 3, (0,) * 6)
    shapes = BlockShapes(3, 2, 3)
    zeros = FieldMatrix(2, 2, (0,) * 4)
    assert len(codec.encode(a, b, code, plan, shapes, masks=MaskSet(zeros, zeros)).f_shares) == 18
    one_mask = FieldMatrix(1, 2, (0,) * 2)
    bad_masks = [
        MaskSet(one_mask, zeros),  # T - 1 rows
        MaskSet(zeros, FieldMatrix(3, 2, (0,) * 6)),  # T + 1 rows
        MaskSet(zeros, FieldMatrix(2, 3, (0,) * 6)),  # rows of the wrong width
        MaskSet((one_mask, one_mask), (one_mask, one_mask)),  # one matrix per mask
    ]
    for masks in bad_masks:
        with pytest.raises(ParameterError):
            codec.encode(a, b, code, plan, shapes, masks=masks)


def test_encode_draws_its_masks_from_the_seed():
    # R then S, each a T-row stack drawn row-major, one Random(seed).randrange(p)
    # per entry: T = 2, and each mask of the 3 x 2 by 2 x 3 problem has 2 entries.
    code, plan, shapes = fixture_code(), fixture_plan(), BlockShapes(3, 2, 3)
    a = FieldMatrix(3, 2, (1, 2, 3, 4, 5, 6))
    b = FieldMatrix(2, 3, (6, 5, 4, 3, 2, 1))
    for seed in (0, 11, 2**40):
        rng = random.Random(seed)
        draws = tuple(rng.randrange(29) for _ in range(8))
        masks = MaskSet(FieldMatrix(2, 2, draws[:4]), FieldMatrix(2, 2, draws[4:]))
        drawn = codec.encode(a, b, code, plan, shapes, seed=seed)
        assert drawn == codec.encode(a, b, code, plan, shapes, masks=masks), seed
    rng = random.Random(5)
    want = FieldMatrix(2, 3, tuple(rng.randrange(11383) for _ in range(6)))
    assert codec.random_matrix(11383, 2, 3, random.Random(5)) == want


def test_block_shapes_validation():
    assert BlockShapes(1, 2, 3).s == 2
    # bool is an int subclass; True used to pass as a size of 1.
    for bad in (0, -1, 1.5, True):
        for dims in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(ParameterError):
                BlockShapes(*dims)


def test_server_evaluate():
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    masks = MaskSet(FieldMatrix(1, 1, (3,)), FieldMatrix(1, 1, (2,)))
    bundle = codec.encode(a, b, code, plan, shapes, masks=masks)
    # at point 1: (2+3)(3+2) = 25 = 0 mod 5
    assert codec.server_evaluate(bundle, 0).entries == (0,)

    zero_b = FieldMatrix(1, 1, (0,))
    zmask = MaskSet(FieldMatrix(1, 1, (0,)), FieldMatrix(1, 1, (0,)))
    zero_bundle = codec.encode(a, zero_b, code, plan, shapes, masks=zmask)
    assert all(
        codec.server_evaluate(zero_bundle, n).entries == (0,) for n in range(3)
    )
    # Out of range, or not an int: a float index used to reach tuple
    # indexing and raise a bare TypeError.
    for n in (5, 3, -1, 1.0, 0.0, True, "0", None):
        with pytest.raises(ParameterError):
            codec.server_evaluate(bundle, n)


def test_share_bundle_refuses_a_field_or_share_of_the_wrong_type():
    # server_evaluate used to raise a bare AttributeError on these: None has
    # no .p, and an int share no .cols.
    share = FieldMatrix(1, 1, (2,))
    codec.ShareBundle(PrimeFieldSpec(5), (share,), (share,))
    with pytest.raises(ParameterError, match="^field must be a PrimeFieldSpec, got NoneType$"):
        codec.ShareBundle(None, (share,), (share,))
    with pytest.raises(ParameterError, match=r"^f_shares\[1\] must be a FieldMatrix, got int$"):
        codec.ShareBundle(PrimeFieldSpec(5), (share, 3), (share, share))
    with pytest.raises(ParameterError, match=r"^g_shares\[0\] must be a FieldMatrix, got NoneType$"):
        codec.ShareBundle(PrimeFieldSpec(5), (share,), (None,))


def test_share_bundle_refuses_share_lists_of_different_lengths():
    share = FieldMatrix(1, 1, (2,))
    with pytest.raises(ParameterError, match="^share lists must have equal length$"):
        codec.ShareBundle(PrimeFieldSpec(5), (share, share), (share,))


def test_block_sizes_refuse_a_column_count_that_l_does_not_divide():
    # K = 3 divides r = 3, so the check on t is the one that fails.
    with pytest.raises(ParameterError, match="^L=3 must divide t=4$"):
        codec.cost(fixture_code(), BlockShapes(3, 2, 4))


def test_decode_tiny_product():
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    bundle = codec.encode(a, b, code, plan, shapes, seed=0)
    responses = tuple(codec.server_evaluate(bundle, n) for n in range(3))
    assert codec.decode(responses, code, plan, shapes).entries == (1,)


def test_decode_zero_input():
    code = fixture_code()
    plan = fixture_plan()
    shapes = BlockShapes(3, 2, 3)
    a = FieldMatrix(3, 2, (0,) * 6)
    b = codec.random_matrix(29, 2, 3, random.Random(1))
    bundle = codec.encode(a, b, code, plan, shapes, seed=1)
    responses = tuple(codec.server_evaluate(bundle, n) for n in range(18))
    assert codec.decode(responses, code, plan, shapes) == FieldMatrix(3, 3, (0,) * 9)


def test_decode_full_fixture_pipeline():
    code = fixture_code()
    plan = fixture_plan()
    rng = random.Random(0)
    shapes = BlockShapes(6, 4, 9)
    a = codec.random_matrix(29, 6, 4, rng)
    b = codec.random_matrix(29, 4, 9, rng)
    bundle = codec.encode(a, b, code, plan, shapes, seed=0)
    responses = tuple(codec.server_evaluate(bundle, n) for n in range(18))
    assert codec.decode(responses, code, plan, shapes) == gf.mat_mul(29, a, b)


def test_decode_requires_all_responses():
    code = fixture_code()
    plan = fixture_plan()
    shapes = BlockShapes(3, 1, 3)
    with pytest.raises(ParameterError):
        codec.decode((FieldMatrix(1, 1, (0,)),) * 17, code, plan, shapes)


def test_plan_of_another_code_rejected():
    # Both (2,2,2) codes need N = 11 servers, but their term sets differ, so
    # a big-code plan interpolates the small code's product at the wrong
    # exponents.
    params = SchemeParams(2, 2, 2)
    small = code_for_scheme(params, "small")
    big = code_for_scheme(params, "big")
    assert small.n_servers == big.n_servers == 11
    big_plan = codec.find_evaluation_plan(big, PrimeFieldSpec(1009))
    shapes = BlockShapes(2, 2, 2)
    rng = random.Random(3)
    a = codec.random_matrix(1009, 2, 2, rng)
    b = codec.random_matrix(1009, 2, 2, rng)
    with pytest.raises(ParameterError):
        codec.encode(a, b, small, big_plan, shapes, seed=0)

    small_plan = codec.find_evaluation_plan(small, PrimeFieldSpec(1009))
    bundle = codec.encode(a, b, small, small_plan, shapes, seed=0)
    responses = tuple(codec.server_evaluate(bundle, n) for n in range(11))
    with pytest.raises(ParameterError):
        codec.decode(responses, small, big_plan, shapes)


def test_decode_mask_independent():
    code = fixture_code()
    plan = fixture_plan()
    shapes = BlockShapes(3, 2, 3)
    rng = random.Random(8)
    a = codec.random_matrix(29, 3, 2, rng)
    b = codec.random_matrix(29, 2, 3, rng)
    outputs = []
    for mask_seed in (101, 202):
        bundle = codec.encode(a, b, code, plan, shapes, seed=mask_seed)
        responses = tuple(codec.server_evaluate(bundle, n) for n in range(18))
        outputs.append(codec.decode(responses, code, plan, shapes))
    assert outputs[0] == outputs[1] == gf.mat_mul(29, a, b)


def _decoder_grid():
    for k, l, t in itertools.product(range(1, 5), range(1, 5), range(1, 4)):
        for scheme in ("small", "big"):
            yield code_for_scheme(SchemeParams(k, l, t), scheme)
    for k in range(1, 4):
        for g in range(1, k + 1):
            yield code_for_scheme(SchemeParams(k, k, k), "grouped", g=g)
    yield code_for_scheme(SchemeParams(8, 8, 2), "small")


def test_prepared_decoder_matches_full_solve():
    rng = random.Random(5)
    for code in _decoder_grid():
        for field in (None, PrimeFieldSpec(gf.next_prime(2**61))):
            plan = codec.find_evaluation_plan(code, field=field)
            p, n = plan.field.p, code.n_servers
            index = {e: i for i, e in enumerate(plan.exponents)}
            k, l = code.params.k, code.params.l
            alpha, beta = code.assignment.alpha[:k], code.assignment.beta[:l]
            needed = tuple(index[x + y] for x in alpha for y in beta)
            rows = codec._decoder(p, plan.generator, plan.exponents, needed).matrix
            # GV is invertible, so rows @ GV = the unit rows fixes the rows uniquely.
            gv = generalized_vandermonde(p, points(plan), plan.exponents)
            assert det(p, gv) != 0
            identity_rows = tuple(int(i == j) for i in needed for j in range(n))
            assert gf.mat_mul(p, rows, gv) == FieldMatrix(len(needed), n, identity_rows)

            shapes = BlockShapes(k * rng.randint(1, 2), rng.randint(1, 2), l * rng.randint(1, 2))
            a = codec.random_matrix(p, shapes.r, shapes.s, rng)
            b = codec.random_matrix(p, shapes.s, shapes.t, rng)
            bundle = codec.encode(a, b, code, plan, shapes, seed=rng.randrange(2**30))
            responses = tuple(codec.server_evaluate(bundle, i) for i in range(n))
            decoded = codec.decode(responses, code, plan, shapes)
            assert decoded == gf.mat_mul(p, a, b)


def test_cached_factors_match_per_call_products():
    # Every share equals its row of a per-call mat_mul of the points-built
    # power matrix with the stack, and every decode the per-call product of
    # the decoder rows with the response stack, reassembled, which is A @ B.
    # Block shapes: 2 x s blocks of A and s x 2 blocks of B with 2s < N, whose
    # 2 x 2 block products have fewer entries than KL (encode and decode pack
    # the fixed factor's columns once the product has 64 entries), and blocks
    # of N + 1 entries on each side whose block product has KL entries
    # (encode and decode keep mat_mul's rows).
    rng = random.Random(26)
    tall = set()
    for code in _decoder_grid():
        k, l, n = code.params.k, code.params.l, code.n_servers
        for field in (None, PrimeFieldSpec(gf.next_prime(2**61))):
            plan = codec.find_evaluation_plan(code, field=field)
            p, t = plan.field.p, code.params.t
            below = BlockShapes(2 * k, max(1, (n - 1) // 2), 2 * l)
            for shapes in (below, BlockShapes(k, n + 1, l * k * l)):
                block_rows, block_cols = shapes.r // k, shapes.t // l
                for side, rows, width in (("encode", n, block_rows * shapes.s),
                                          ("decode", k * l, block_rows * block_cols)):
                    tall.add((side, rows > width and rows * width >= gf._PACK_MIN_ENTRIES))
                a = codec.random_matrix(p, shapes.r, shapes.s, rng)
                b = codec.random_matrix(p, shapes.s, shapes.t, rng)
                masks = MaskSet(codec.random_matrix(p, t, block_rows * shapes.s, rng),
                                codec.random_matrix(p, t, shapes.s * block_cols, rng))
                bundle = codec.encode(a, b, code, plan, shapes, masks=masks)
                sides = ((code.assignment.alpha, codec._stack(a, k, 1), masks.r_masks,
                          bundle.f_shares), (code.assignment.beta, codec._stack(b, 1, l),
                                             masks.s_masks, bundle.g_shares))
                for exponents, data, mask_stack, shares in sides:
                    stack = FieldMatrix(len(exponents), data.cols, data.entries + mask_stack.entries)
                    powers = generalized_vandermonde(p, points(plan), exponents)
                    product = gf.mat_mul(p, powers, stack)
                    assert [s.entries for s in shares] == [row(product, i) for i in range(n)]
                responses = tuple(codec.server_evaluate(bundle, i) for i in range(n))
                index = {e: i for i, e in enumerate(plan.exponents)}
                alpha, beta = code.assignment.alpha[:k], code.assignment.beta[:l]
                needed = tuple(index[x + y] for x in alpha for y in beta)
                rows = codec._decoder(p, plan.generator, plan.exponents, needed).matrix
                rhs = FieldMatrix(n, block_rows * block_cols,
                                  tuple(e for r in responses for e in r.entries))
                products = gf.mat_mul(p, rows, rhs)
                decoded = codec.decode(responses, code, plan, shapes)
                assert decoded.entries == codec._stack(products, k, block_rows).entries
                assert decoded == gf.mat_mul(p, a, b), (code.params, p, shapes)
    assert tall == set(itertools.product(("encode", "decode"), (False, True)))


def test_second_decode_runs_no_elimination(monkeypatch):
    # Each plan's two power matrices and its decoder rows are built once,
    # however many times it encodes and decodes.
    codec._decoder.cache_clear()
    codec._power_matrix.cache_clear()
    builds = []
    shipped = gf.generalized_vandermonde

    def counted(p, g, n, exponents):
        builds.append(tuple(exponents))
        return shipped(p, g, n, exponents)

    monkeypatch.setattr(gf, "generalized_vandermonde", counted)
    code = fixture_code()
    plan = fixture_plan()
    shapes = BlockShapes(3, 2, 6)
    rng = random.Random(12)
    for hits in (0, 1, 2):
        a = codec.random_matrix(29, 3, 2, rng)
        b = codec.random_matrix(29, 2, 6, rng)
        bundle = codec.encode(a, b, code, plan, shapes, seed=rng.randrange(2**30))
        responses = tuple(codec.server_evaluate(bundle, n) for n in range(18))
        assert codec.decode(responses, code, plan, shapes) == gf.mat_mul(29, a, b)
        info = codec._decoder.cache_info()
        assert (info.misses, info.hits) == (1, hits)
        info = codec._power_matrix.cache_info()
        assert (info.misses, info.hits) == (2, 2 * hits)
        assert builds == [code.assignment.alpha, code.assignment.beta]
    # A singular plan encodes, but its decoder raises and is never cached.
    singular = codec.EvaluationPlan(PrimeFieldSpec(29), 28, code.exponents)
    bundle = codec.encode(a, b, code, singular, shapes, seed=1)
    responses = tuple(codec.server_evaluate(bundle, n) for n in range(18))
    for attempt in (2, 3):
        with pytest.raises(SingularMatrixError):
            codec.decode(responses, code, singular, shapes)
        info = codec._decoder.cache_info()
        assert (info.misses, info.currsize) == (attempt, 1)


def test_singular_plan_raises_on_every_decode():
    # g = 28 = -1 has order 2 over F_29: every node g ** e is 1 or 28, so
    # the Lagrange denominators vanish.  The collision is a typed error,
    # never a bare ValueError from pow(0, -1, p), and it is not cached.
    codec._decoder.cache_clear()
    code = fixture_code()
    plan = codec.EvaluationPlan(PrimeFieldSpec(29), 28, code.exponents)
    responses = (FieldMatrix(1, 1, (0,)),) * 18
    for attempt in range(1, 4):
        with pytest.raises(SingularMatrixError):
            codec.decode(responses, code, plan, BlockShapes(3, 1, 3))
        assert codec._decoder.cache_info().misses == attempt


def test_roundtrip_full_small_grid():
    # Every (K, L, T) up to 4, two random shape/seed draws each; the
    # acceptance suite adds depth (100 runs) at its chosen points.
    rng = random.Random(123)
    for k in range(1, 5):
        for l in range(1, 5):
            for t in range(1, 5):
                params = SchemeParams(k, l, t)
                code = code_for_scheme(params, "auto")
                plan = codec.find_evaluation_plan(code)
                p = plan.field.p
                for _ in range(2):
                    shapes = BlockShapes(
                        k * rng.randint(1, 3), rng.randint(1, 4), l * rng.randint(1, 3)
                    )
                    a = codec.random_matrix(p, shapes.r, shapes.s, rng)
                    b = codec.random_matrix(p, shapes.s, shapes.t, rng)
                    bundle = codec.encode(
                        a, b, code, plan, shapes, seed=rng.randrange(2**30)
                    )
                    responses = tuple(
                        codec.server_evaluate(bundle, n) for n in range(code.n_servers)
                    )
                    assert codec.decode(responses, code, plan, shapes) == gf.mat_mul(
                        p, a, b
                    )


def test_plan_soundness_reverify():
    for scheme in ("small", "big"):
        params = SchemeParams(2, 2, 2)
        for field in (None, PrimeFieldSpec(1009), PrimeFieldSpec(gf.next_prime(2**61))):
            plan = codec.find_evaluation_plan(code_for_scheme(params, scheme), field)
            fresh = code_for_scheme(params, scheme)
            p = plan.field.p
            assert det(p, generalized_vandermonde(p, points(plan), plan.exponents)) != 0
            for exps in (fresh.alpha_masks, fresh.beta_masks):
                assert is_mds(p, mask_matrix(p, plan.generator, fresh.n_servers, exps))


def test_cost_examples():
    big_22 = code_for_scheme(SchemeParams(2, 2, 6), "big")
    assert big_22.n_servers == 19
    report = codec.cost(big_22, BlockShapes(4, 4, 4))
    assert report.upload_symbols == 19 * (8 + 8)
    assert report.download_symbols == 19 * 4

    tiny = code_for_scheme(SchemeParams(1, 1, 1), "big")
    r = codec.cost(tiny, BlockShapes(2, 3, 4))
    assert r.upload_symbols == 3 * (2 * 3 + 3 * 4)
    assert r.download_symbols == 3 * 2 * 4


def test_cost_upload_drop_at_balanced_split():
    # Same worker count, same matrix sizes: splitting both sides beats
    # splitting one side four ways by exactly 20 percent of upload.
    big_22 = code_for_scheme(SchemeParams(2, 2, 6), "big")
    big_41 = code_for_scheme(SchemeParams(4, 1, 6), "big")
    assert big_22.n_servers == big_41.n_servers == 19
    shapes = BlockShapes(4, 4, 4)
    up_22 = codec.cost(big_22, shapes).upload_symbols
    up_41 = codec.cost(big_41, shapes).upload_symbols
    assert up_22 * 5 == up_41 * 4


def test_cost_symmetry():
    # With r = t, exchanging the row partition with the column partition
    # changes neither the upload nor the download total.
    code_a = code_for_scheme(SchemeParams(2, 3, 2), "big")
    code_b = code_for_scheme(SchemeParams(3, 2, 2), "big")
    shapes = BlockShapes(6, 5, 6)
    assert codec.cost(code_a, shapes) == codec.cost(code_b, shapes)
