"""Plan search, encoding, server evaluation, decoding, and cost accounting."""

import itertools
import random

import pytest

from gasp import codec, gf, harness
from gasp.codec import BlockShapes, MaskSet
from gasp.degree_table import SchemeParams
from gasp.errors import ParameterError, PlanSearchError, PlanVerificationError
from gasp.gf import FieldMatrix, PrimeFieldSpec
from gasp.schemes import code_for_scheme, gasp_auto


def fixture_code():
    return gasp_auto(SchemeParams(3, 3, 2))


def fixture_plan():
    return codec.find_evaluation_plan(
        fixture_code(), PrimeFieldSpec(29), points=tuple(range(1, 19))
    )


def test_fixture_plan_accepted():
    plan = fixture_plan()
    assert plan.points == tuple(range(1, 19))
    assert plan.exponents == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 18, 19, 21, 22)
    assert gf.det(29, gf.generalized_vandermonde(29, plan.points, plan.exponents)) == 20


def test_plan_field_too_small():
    with pytest.raises(ParameterError):
        codec.find_evaluation_plan(fixture_code(), PrimeFieldSpec(17))


def test_plan_search_tiny_field():
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(7), seed=0)
    assert len(set(plan.points)) == 3
    assert all(1 <= x <= 6 for x in plan.points)
    # re-verification from scratch
    assert gf.det(7, gf.generalized_vandermonde(7, plan.points, plan.exponents)) != 0


def test_plan_feasible_over_f7_by_exhaustion():
    # Oracle for the tiny search: enumerate every ordered triple of
    # distinct nonzero residues and confirm some assignment verifies.
    import itertools

    code = gasp_auto(SchemeParams(1, 1, 1))
    feasible = 0
    for triple in itertools.permutations(range(1, 7), 3):
        gv = gf.generalized_vandermonde(7, triple, (0, 1, 2))
        p_row = gf.matrix_from_rows(7, [[x % 7 for x in triple]])
        if gf.det(7, gv) != 0 and gf.is_mds(7, p_row):
            feasible += 1
    assert feasible > 0
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(7), seed=11)
    assert len(plan.points) == 3


def test_plan_search_deterministic_and_bounded():
    code = gasp_auto(SchemeParams(1, 1, 1))
    a = codec.find_evaluation_plan(code, PrimeFieldSpec(7), seed=3)
    b = codec.find_evaluation_plan(code, PrimeFieldSpec(7), seed=3)
    assert a == b
    with pytest.raises(PlanSearchError) as err:
        codec.find_evaluation_plan(code, PrimeFieldSpec(7), max_attempts=0)
    assert err.value.attempts == 0


def test_forced_points_must_verify():
    code = gasp_auto(SchemeParams(1, 1, 1))
    with pytest.raises(PlanVerificationError):
        # duplicate point: generalized Vandermonde is singular
        codec.find_evaluation_plan(code, PrimeFieldSpec(7), points=(1, 1, 2))
    with pytest.raises(PlanVerificationError):
        # zero point kills the mask power matrices
        codec.find_evaluation_plan(code, PrimeFieldSpec(7), points=(0, 1, 2))


def test_non_int_points_rejected():
    # A float point passed the range check and then failed inside pow.
    with pytest.raises(ParameterError):
        codec.EvaluationPlan(PrimeFieldSpec(7), (1.5, 2, 4), (0, 1, 2))
    # Checked before reduction: "1" % 7 would raise a bare TypeError.
    for points in ((1.0, 2.0, 4.0), ("1", 2, 4)):
        with pytest.raises(ParameterError):
            codec.find_evaluation_plan(
                gasp_auto(SchemeParams(1, 1, 1)), PrimeFieldSpec(7), points=points
            )


def _mask_matrix(p, points, exponents):
    return gf.matrix_from_rows(p, [[pow(x, e, p) for x in points] for e in exponents])


def test_mask_mds_matches_full_enumeration():
    # Oracle grid: the O(N) certificate against every maximal minor.  Point
    # sets hold 0 and, whenever gcd(d, p - 1) > 1, colliding d-th powers.
    rng = random.Random(0)
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
                if n > p:
                    continue
                point_sets = [tuple(range(n))]
                point_sets += [tuple(rng.sample(range(p), n)) for _ in range(4)]
                if n < p:
                    point_sets.append(tuple(range(1, n + 1)))
                for points in point_sets:
                    expected = gf.is_mds(p, _mask_matrix(p, points, exponents))
                    got = codec._mask_mds(p, points, exponents)
                    assert got == expected, (p, points, exponents)
                    verdicts.add((expected, 0 in points, exponents in others))
    # Passes and failures, with and without a zero point, on both paths.
    assert verdicts == set(itertools.product((True, False), repeat=3))
    with pytest.raises(ParameterError):
        codec._mask_mds(7, (1, 2), (1, 2, 3))


def _reference_search(code, field, seed):
    # The plan search with every mask minor enumerated: same draws, same order.
    p, exponents = field.p, codec.code_exponents(code)
    rng = random.Random(seed)
    rejections = {"gv": 0, "alpha_mds": 0, "beta_mds": 0}
    for _ in range(codec.DEFAULT_MAX_ATTEMPTS):
        points = tuple(rng.sample(range(1, p), code.n_servers))
        if gf.det(p, gf.generalized_vandermonde(p, points, exponents)) == 0:
            rejections["gv"] += 1
        elif not gf.is_mds(p, _mask_matrix(p, points, code.alpha_masks)):
            rejections["alpha_mds"] += 1
        elif not gf.is_mds(p, _mask_matrix(p, points, code.beta_masks)):
            rejections["beta_mds"] += 1
        else:
            return points, rejections
    raise AssertionError("reference search failed")


def test_plan_search_matches_full_enumeration():
    # Every small and big code with T <= 2 and K, L <= 4, the T = 3 codes
    # with K, L <= 2, and the (4,4,3) small code at p = 1399, whose alpha
    # side the certificate rejects for some seeds.
    params = [
        SchemeParams(k, l, t)
        for k in range(1, 5) for l in range(1, 5) for t in (1, 2, 3)
        if t < 3 or max(k, l) <= 2
    ]
    codes = [code_for_scheme(pr, s) for pr in params for s in ("small", "big")]
    codes.append(code_for_scheme(SchemeParams(4, 4, 3), "small"))
    rejected = set()
    for code in codes:
        field = codec.default_field(code)
        for seed in range(10):
            points, rejections = _reference_search(code, field, seed)
            assert codec.find_evaluation_plan(code, field, seed=seed).points == points
            attempts = sum(rejections.values())
            if attempts:
                # Stopping just short of the accepted candidate reports the
                # reference's rejections reason by reason.
                with pytest.raises(PlanSearchError) as err:
                    codec.find_evaluation_plan(code, field, seed=seed, max_attempts=attempts)
                assert err.value.rejections == rejections
                rejected.update((code.params, side) for side, n in rejections.items() if n)
    assert {side for _, side in rejected} == {"alpha_mds", "beta_mds"}
    assert (SchemeParams(4, 4, 3), "alpha_mds") in rejected


def test_plan_search_enumerates_minors_only_for_grouped_codes(monkeypatch):
    calls = []
    full_is_mds = gf.is_mds

    def counting_is_mds(p, m):
        calls.append((m.rows, m.cols))
        return full_is_mds(p, m)

    monkeypatch.setattr(gf, "is_mds", counting_is_mds)
    small = code_for_scheme(SchemeParams(4, 4, 3), "small")
    plan = codec.find_evaluation_plan(small, seed=2)  # rejects two candidates first
    codec.find_evaluation_plan(code_for_scheme(SchemeParams(2, 2, 3), "big"), seed=0)
    assert calls == []

    # The grouped masks 16, 17, 20, 21 are no progression: full enumeration.
    grouped = code_for_scheme(SchemeParams(4, 4, 4), "grouped", g=2)
    with pytest.raises(PlanSearchError) as err:
        codec.find_evaluation_plan(grouped, seed=0, max_attempts=3)
    assert calls == [(4, 36)] * 3
    assert str(err.value) == "no valid evaluation points after 3 attempts: alpha_mds 3"

    # The audit stays on full enumeration, one call per side.
    del calls[:]
    assert harness.mds_audit(small, plan).all_pass
    assert calls == [(3, 33), (3, 33)]


def test_default_field_heuristic():
    code = gasp_auto(SchemeParams(1, 1, 1))
    assert codec.default_field(code).p == 7
    assert codec.default_field(fixture_code()).p == 397


def test_encode_hand_example():
    # one block per side, one mask: f(x) = A + R x over F_5 at points 1, 2, 4
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5), points=(1, 2, 4))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    masks = MaskSet(
        r_masks=(FieldMatrix(1, 1, (3,)),),
        s_masks=(FieldMatrix(1, 1, (2,)),),
    )
    bundle = codec.encode(a, b, code, plan, shapes, masks=masks)
    assert tuple(s.entries[0] for s in bundle.f_shares) == ((2 + 3) % 5, (2 + 6) % 5, (2 + 12) % 5)
    assert tuple(s.entries[0] for s in bundle.g_shares) == ((3 + 2) % 5, (3 + 4) % 5, (3 + 8) % 5)


def _grid_block(m, rows, cols, i, j):
    entries = (m.at(i * rows + r, j * cols + c) for r in range(rows) for c in range(cols))
    return FieldMatrix(rows, cols, tuple(entries))


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
    plan = codec.find_evaluation_plan(code, seed=0)
    p = plan.field.p
    rows, s, cols = 2, 3, 2  # non-square blocks: A's are 2 x 3, B's 3 x 2
    shapes = BlockShapes(k * rows, s, l * cols)
    rng = random.Random(k * 100 + l * 10 + t)
    a = codec.random_matrix(p, shapes.r, s, rng)
    b = codec.random_matrix(p, s, shapes.t, rng)
    a_blocks = [_grid_block(a, rows, s, i, 0) for i in range(k)]
    b_blocks = [_grid_block(b, s, cols, 0, j) for j in range(l)]

    # Seeded masks: T row-side masks, then T column-side masks, one stream.
    mask_rng = random.Random(99)
    r_masks = [codec.random_matrix(p, rows, s, mask_rng) for _ in range(t)]
    s_masks = [codec.random_matrix(p, s, cols, mask_rng) for _ in range(t)]
    injected = MaskSet(
        tuple(codec.random_matrix(p, rows, s, rng) for _ in range(t)),
        tuple(codec.random_matrix(p, s, cols, rng) for _ in range(t)),
    )
    alpha, beta = code.assignment.alpha, code.assignment.beta
    cases = [(99, None, r_masks, s_masks), (0, injected, injected.r_masks, injected.s_masks)]
    for seed, masks, rs, ss in cases:
        bundle = codec.encode(a, b, code, plan, shapes, seed=seed, masks=masks)
        assert bundle.f_shares == _naive_shares(p, plan.points, alpha, a_blocks + list(rs))
        assert bundle.g_shares == _naive_shares(p, plan.points, beta, b_blocks + list(ss))
        responses = tuple(codec.server_evaluate(bundle, n) for n in range(code.n_servers))
        assert codec.decode(responses, code, plan, shapes) == gf.mat_mul(p, a, b)


def test_non_int_entries_rejected():
    # A float passes the range check 0 <= e < p, but its shares are floats
    # and this decode used to return (0.0,) instead of 15.
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(gf.next_prime(2**61)), seed=0)
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
        codec.encode(a, b, code, plan, shapes, masks=MaskSet((one_float,), (one,)))
    with pytest.raises(ParameterError):
        codec.encode(a, b, code, plan, shapes, masks=MaskSet((one,), (one_float,)))

    bundle = codec.encode(a, b, code, plan, shapes)
    responses = [codec.server_evaluate(bundle, n) for n in range(3)]
    assert codec.decode(tuple(responses), code, plan, shapes).entries == (15,)
    responses[1] = FieldMatrix(1, 1, (float(responses[1].entries[0]),))
    with pytest.raises(ParameterError):
        codec.decode(tuple(responses), code, plan, shapes)


def test_encode_zero_masks_degenerate():
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5), points=(1, 2, 4))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    zero = FieldMatrix(1, 1, (0,))
    bundle = codec.encode(
        a, b, code, plan, shapes, masks=MaskSet((zero,), (zero,))
    )
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


def test_server_evaluate():
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5), points=(1, 2, 4))
    shapes = BlockShapes(1, 1, 1)
    a = FieldMatrix(1, 1, (2,))
    b = FieldMatrix(1, 1, (3,))
    masks = MaskSet((FieldMatrix(1, 1, (3,)),), (FieldMatrix(1, 1, (2,)),))
    bundle = codec.encode(a, b, code, plan, shapes, masks=masks)
    # at point 1: (2+3)(3+2) = 25 = 0 mod 5
    assert codec.server_evaluate(bundle, 0).entries == (0,)

    zero_b = FieldMatrix(1, 1, (0,))
    zmask = MaskSet((FieldMatrix(1, 1, (0,)),), (FieldMatrix(1, 1, (0,)),))
    zero_bundle = codec.encode(a, zero_b, code, plan, shapes, masks=zmask)
    assert all(
        codec.server_evaluate(zero_bundle, n).entries == (0,) for n in range(3)
    )
    with pytest.raises(ParameterError):
        codec.server_evaluate(bundle, 5)


def test_decode_tiny_product():
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5), points=(1, 2, 4))
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
    big_plan = codec.find_evaluation_plan(big, PrimeFieldSpec(1009), seed=0)
    shapes = BlockShapes(2, 2, 2)
    rng = random.Random(3)
    a = codec.random_matrix(1009, 2, 2, rng)
    b = codec.random_matrix(1009, 2, 2, rng)
    with pytest.raises(ParameterError):
        codec.encode(a, b, small, big_plan, shapes, seed=0)

    small_plan = codec.find_evaluation_plan(small, PrimeFieldSpec(1009), seed=0)
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


def test_roundtrip_full_small_grid():
    # Every (K, L, T) up to 4, two random shape/seed draws each; the
    # acceptance suite adds depth (100 runs) at its chosen points.
    rng = random.Random(123)
    for k in range(1, 5):
        for l in range(1, 5):
            for t in range(1, 5):
                params = SchemeParams(k, l, t)
                code = gasp_auto(params)
                plan = codec.find_evaluation_plan(code, seed=0)
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
    rng = random.Random(77)
    for seed in (rng.randrange(10**6) for _ in range(5)):
        code = gasp_auto(SchemeParams(2, 2, 2))
        plan = codec.find_evaluation_plan(code, seed=seed)
        fresh = gasp_auto(SchemeParams(2, 2, 2))
        p = plan.field.p
        assert gf.det(p, gf.generalized_vandermonde(p, plan.points, plan.exponents)) != 0
        for exps in (fresh.alpha_masks, fresh.beta_masks):
            rows = [[pow(x, e, p) for x in plan.points] for e in exps]
            assert gf.is_mds(p, gf.matrix_from_rows(p, rows))


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
