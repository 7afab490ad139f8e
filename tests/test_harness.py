"""Simulated sessions, the algebraic audit, and the exhaustive privacy audit."""

import dataclasses
import random

import pytest

from gasp import codec, gf, harness
from gasp.codec import BlockShapes, EvaluationPlan
from gasp.degree_table import SchemeParams
from gasp.errors import BudgetExceededError, ParameterError, VerificationError
from gasp.gf import FieldMatrix, PrimeFieldSpec
from gasp.schemes import code_for_scheme
from test_oracles import det, is_mds, points


def _matrix(rows):
    return FieldMatrix(len(rows), len(rows[0]), tuple(e for r in rows for e in r))


def test_run_sdmm_fixture():
    transcript = harness.run_sdmm(
        SchemeParams(3, 3, 2),
        scheme="small",
        shapes=BlockShapes(6, 4, 9),
        field=PrimeFieldSpec(29),
        seed=0,
    )
    assert transcript.code.n_servers == 18
    assert transcript.plan.field.p == 29
    assert transcript.product.rows == 6 and transcript.product.cols == 9
    assert "n_servers=18" in transcript.summary()
    assert "p=29" in transcript.summary()


def test_run_sdmm_tiny_auto():
    transcript = harness.run_sdmm(SchemeParams(1, 1, 1), seed=0)
    assert transcript.code.n_servers == 3
    assert transcript.code.scheme_label == "big"


def test_run_sdmm_degenerate_shapes():
    transcript = harness.run_sdmm(
        SchemeParams(2, 3, 2), shapes=BlockShapes(2, 1, 3), seed=4
    )
    assert transcript.product.rows == 2 and transcript.product.cols == 3


def test_run_sdmm_deterministic():
    first = harness.run_sdmm(SchemeParams(2, 2, 1), seed=9)
    second = harness.run_sdmm(SchemeParams(2, 2, 1), seed=9)
    for field in dataclasses.fields(first):
        if field.name == "stage_seconds":
            continue
        assert getattr(first, field.name) == getattr(second, field.name)


def test_run_sdmm_stage_seconds():
    transcript = harness.run_sdmm(SchemeParams(2, 2, 1), seed=9)
    stages = transcript.stage_seconds
    assert list(stages) == ["plan", "encode", "evaluate", "decode", "verify"]
    assert all(isinstance(s, float) and s >= 0 for s in stages.values())
    # Timings take no part in equality or hashing.
    again = harness.run_sdmm(SchemeParams(2, 2, 1), seed=9)
    assert again == transcript and hash(again) == hash(transcript)


@pytest.mark.parametrize(
    "scheme, k, l, t, g",
    [("small", 4, 4, 3, None), ("big", 4, 4, 4, None), ("grouped", 4, 4, 4, 2)],
)
def test_run_sdmm_runs_no_det_or_solve(scheme, k, l, t, g):
    # Plans are invertible by construction and decode interpolates, so a
    # session solves no linear system, for every scheme; the library has no
    # determinant to take.  A grouped code's mask check walks its T x T
    # minors by shared elimination.  The grouped (4,4,4), G = 2 session
    # succeeds at its default field p = 1447, with g = 21.
    codec._decoder.cache_clear()
    transcript = harness.run_sdmm(
        SchemeParams(k, l, t), scheme=scheme, shapes=BlockShapes(2 * k, 2, 2 * l), g=g, seed=1
    )
    assert transcript.plan.field == codec.default_field(transcript.code)
    assert transcript.product == gf.mat_mul(
        transcript.plan.field.p, transcript.matrix_a, transcript.matrix_b
    )
    if scheme == "grouped":
        assert (transcript.plan.field.p, transcript.plan.generator) == (1447, 21)


def test_run_sdmm_decodes_every_grouped_code_up_to_k5():
    # Every grouped (K,K,K) with K <= 5 and G = 1 .. K decodes A @ B.  All
    # plan over their default field except (5,5,5) with G = 2 and 3, which
    # the default field refuses and the fallback field next_prime(4 * C(N, T))
    # serves at g = 2.  The (4,4,4) plans stay where they were.
    fallback = {(5, 2): (13_915_081, 2), (5, 3): (21_846_059, 2)}
    kept = {(4, 2): (1447, 21), (4, 3): (1931, 2)}
    for k in range(1, 6):
        for g in range(1, k + 1):
            transcript = harness.run_sdmm(
                SchemeParams(k, k, k), scheme="grouped", g=g, shapes=BlockShapes(2 * k, 2, k)
            )
            plan = transcript.plan
            assert transcript.product == gf.mat_mul(
                plan.field.p, transcript.matrix_a, transcript.matrix_b
            )
            if (k, g) in fallback:
                assert (plan.field.p, plan.generator) == fallback[k, g]
            else:
                assert plan.field == codec.default_field(transcript.code), (k, g)
            if (k, g) in kept:
                assert (plan.field.p, plan.generator) == kept[k, g]


def test_run_sdmm_refuses_a_wrong_decoded_product(monkeypatch):
    # The session checks decode against the direct product: one entry off
    # by one fails it.
    decode = codec.decode

    def wrong_decode(responses, code, plan, shapes):
        product = decode(responses, code, plan, shapes)
        first = (product.entries[0] + 1) % plan.field.p
        return FieldMatrix(product.rows, product.cols, (first, *product.entries[1:]))

    monkeypatch.setattr(codec, "decode", wrong_decode)
    message = "^decoded product does not match direct multiplication$"
    with pytest.raises(VerificationError, match=message):
        harness.run_sdmm(SchemeParams(2, 2, 1))


def test_run_sdmm_checks_shapes_before_plan_search(monkeypatch):
    # K = 3 does not divide r = 4; plan search must not run first.
    def no_search(*args, **kwargs):
        pytest.fail("plan search ran before the shape check")

    monkeypatch.setattr(codec, "find_evaluation_plan", no_search)
    with pytest.raises(ParameterError, match="K=3 must divide r=4"):
        harness.run_sdmm(SchemeParams(3, 3, 2), shapes=BlockShapes(4, 2, 6))


def test_run_sdmm_refuses_group_count_without_grouped_scheme():
    # Ignoring G = 2 would build and report the big code as if it were asked for.
    with pytest.raises(ParameterError):
        harness.run_sdmm(SchemeParams(4, 4, 4), g=2)


def test_run_sdmm_refuses_field_of_wrong_type():
    # A bare modulus instead of a PrimeFieldSpec used to fail on field.p.
    with pytest.raises(ParameterError):
        harness.run_sdmm(SchemeParams(1, 1, 1), field=5)


def test_mds_audit_fixture_passes():
    code = code_for_scheme(SchemeParams(3, 3, 2), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(29))
    report = harness.mds_audit(code, plan)
    assert report.gv_det_nonzero and report.p_mds and report.q_mds
    assert report.all_pass


def test_mds_audit_duplicated_point():
    # g = 12 has order 4 over F_29, so the 18 points repeat 1, 12, 28, 17.
    code = code_for_scheme(SchemeParams(3, 3, 2), "auto")
    plan = EvaluationPlan(PrimeFieldSpec(29), 12, code.exponents)
    assert points(plan)[:5] == (1, 12, 28, 17, 1)
    report = harness.mds_audit(code, plan)
    assert not report.gv_det_nonzero
    assert not report.all_pass


def test_mds_audit_zero_point():
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = EvaluationPlan(PrimeFieldSpec(7), 0, (0, 1, 2))
    assert points(plan) == (1, 0, 0)
    report = harness.mds_audit(code, plan)
    assert not report.p_mds


def test_mds_audit_rejects_plan_of_other_code():
    # Both (2,2,2) codes need N = 11 servers but their term sets differ; the
    # big-code plan is verified for the big code only.
    params = SchemeParams(2, 2, 2)
    small = code_for_scheme(params, "small")
    big = code_for_scheme(params, "big")
    big_plan = codec.find_evaluation_plan(big, PrimeFieldSpec(1009))
    assert len(points(big_plan)) == small.n_servers
    assert harness.mds_audit(big, big_plan).all_pass
    with pytest.raises(ParameterError):
        harness.mds_audit(small, big_plan)


def test_mds_audit_matches_oracle_at_every_generator():
    # Every g in range(p), including g = 0 and generators of small order, at
    # the four smallest primes above N.  The oracle rebuilds the points and
    # the term set itself, eliminates the full GV matrix to its determinant
    # and walks every minor of each mask side with the oracle's is_mds.  The
    # grouped (4,4,4), G = 2 alpha masks 16, 17, 20, 21 are no progression,
    # so the audit walks them.
    codes = [code_for_scheme(SchemeParams(2, 2, 2), s) for s in ("small", "big")]
    codes += [code_for_scheme(SchemeParams(k, k, k), "grouped", g=2) for k in (3, 4)]
    verdicts = set()
    for code in codes:
        alpha, beta = code.assignment.alpha, code.assignment.beta
        exponents = tuple(sorted({x + y for x in alpha for y in beta}))
        p = code.n_servers
        for _ in range(4):
            p = gf.next_prime(p)
            for g in range(p):
                points = [pow(g, n, p) for n in range(code.n_servers)]
                gv = [[pow(x, e, p) for e in exponents] for x in points]
                masks = [[[pow(x, e, p) for x in points] for e in side]
                         for side in (code.alpha_masks, code.beta_masks)]
                expected = (
                    det(p, _matrix(gv)) != 0,
                    *(is_mds(p, _matrix(rows)) for rows in masks),
                )
                report = harness.mds_audit(code, EvaluationPlan(PrimeFieldSpec(p), g, exponents))
                got = (report.gv_det_nonzero, report.p_mds, report.q_mds)
                assert got == expected, (code.scheme_label, code.params, p, g)
                verdicts.update(enumerate(got))
                verdicts.add(("all_pass", report.all_pass))
    # Each verdict, and the joint one, both passes and fails somewhere.
    assert verdicts == {(i, v) for i in (0, 1, 2, "all_pass") for v in (True, False)}


def test_mds_audit_reaches_big_t8():
    # The progression certificate decides both mask sides in O(N); a minor
    # walk here would need about 5.0e8 steps, over its 1e8 budget.
    code = code_for_scheme(SchemeParams(4, 4, 8), "big")
    plan = codec.find_evaluation_plan(code)
    assert (code.n_servers, plan.field.p, plan.generator) == (47, 2179, 2)
    assert harness.mds_audit(code, plan).all_pass


def test_exhaustive_audit_t1():
    assert harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5)


def test_exhaustive_audit_every_verified_plan():
    # Any plan the search accepts should pass the distributional check.
    params = SchemeParams(1, 1, 1)
    code = code_for_scheme(params, "auto")
    for p in (5, 7):
        plan = codec.find_evaluation_plan(code, PrimeFieldSpec(p))
        assert harness.exhaustive_privacy_audit(params, p, plan=plan), p


def test_exhaustive_audit_zero_masks_fails():
    assert not harness.exhaustive_privacy_audit(
        SchemeParams(1, 1, 1), 5, zero_masks=True
    )


def test_exhaustive_audit_t2():
    # Five servers and five distinct nonzero points need p >= 7; see the
    # acceptance suite for the full discussion.
    assert harness.exhaustive_privacy_audit(SchemeParams(1, 1, 2), 7)


def test_exhaustive_audit_corrupted_plan_fails():
    # g = 0 puts servers 1 and 2 at the point 0, where f(0) = A leaks.
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = EvaluationPlan(PrimeFieldSpec(5), 0, code.exponents)
    assert not harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5, plan=plan)


def test_exhaustive_audit_budget_refusal(monkeypatch):
    # p ** T mask stacks are about 1e28 here; the refusal must come from
    # the step count alone, before any stack is listed.
    with pytest.raises(BudgetExceededError):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 3), 2**31 - 1)
    monkeypatch.setattr(harness, "AUDIT_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5)


def test_exhaustive_audit_budget_counts_each_side(monkeypatch):
    # Each side alone: (p ** K + p ** L) * p ** T * C(N, T)
    # = (5 + 5) * 5 * C(3, 1) = 150 at (1,1,1) over F_5.
    monkeypatch.setattr(harness, "AUDIT_BUDGET", 149)
    with pytest.raises(BudgetExceededError, match="needs 150 steps"):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5)
    monkeypatch.setattr(harness, "AUDIT_BUDGET", 150)
    assert harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5)


@pytest.mark.parametrize("k, l, t", [(2, 1, 2), (1, 2, 2), (2, 2, 1)])
def test_exhaustive_audit_reach_over_f11(k, l, t):
    # (2,1,2) and (1,2,2) need about 4.1e8 joint (A, B) steps, past the
    # default budget of 1e8; one side at a time they need under 1e6.
    assert harness.exhaustive_privacy_audit(SchemeParams(k, l, t), 11)
    assert not harness.exhaustive_privacy_audit(SchemeParams(k, l, t), 11, zero_masks=True)


def test_exhaustive_audit_rejects_mismatched_plan():
    code = code_for_scheme(SchemeParams(1, 1, 1), "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(7))
    with pytest.raises(ParameterError):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5, plan=plan)


def test_exhaustive_audit_rejects_plan_of_other_code():
    # A verified (1,1,2) plan has five points; the (1,1,1) code uses three.
    other = codec.find_evaluation_plan(code_for_scheme(SchemeParams(1, 1, 2), "auto"), PrimeFieldSpec(7))
    with pytest.raises(ParameterError):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 7, plan=other)


def test_exhaustive_audit_runs_codec_share_routine(monkeypatch):
    # A share routine that ignores its masks must fail the audit and change
    # encode's shares, which is only possible if both call codec._shares.
    shipped = codec._shares

    def leaky_shares(p, g, n, exponents, data, masks, rows, cols):
        zeroed = FieldMatrix(masks.rows, masks.cols, (0,) * len(masks.entries))
        return shipped(p, g, n, exponents, data, zeroed, rows, cols)

    params, shapes = SchemeParams(1, 1, 1), BlockShapes(1, 1, 1)
    code = code_for_scheme(params, "auto")
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5))
    one = FieldMatrix(1, 1, (1,))
    masks = FieldMatrix(1, 1, (2,)), FieldMatrix(1, 1, (3,))
    honest = codec._encode_with_masks(one, one, code, plan, shapes, *masks)
    assert harness.exhaustive_privacy_audit(params, 5)
    monkeypatch.setattr(codec, "_shares", leaky_shares)
    assert not harness.exhaustive_privacy_audit(params, 5)
    assert codec._encode_with_masks(one, one, code, plan, shapes, *masks) != honest


@pytest.mark.parametrize(
    "params, shapes",
    [
        (SchemeParams(1, 1, 1), BlockShapes(1, 1, 1)),
        (SchemeParams(2, 2, 2), BlockShapes(2, 1, 2)),
        (SchemeParams(3, 2, 2), BlockShapes(3, 1, 2)),
    ],
)
def test_side_shares_slices_are_narrow_encodes(params, shapes):
    # Each (secret, mask stack) column of the audit's one share product per
    # chunk of secrets is exactly the share that encoding that pair alone
    # gives, at the audit's one-entry blocks (shapes K x 1 by 1 x L).
    # Each side's chunk holds two secrets under five stacks.
    code = code_for_scheme(params, "auto")
    plan = codec.find_evaluation_plan(code)
    p, t = plan.field.p, params.t
    rng = random.Random(params.k * 100 + params.l * 10 + t)
    a_secrets = [codec.random_matrix(p, shapes.r, 1, rng) for _ in range(2)]
    b_secrets = [codec.random_matrix(p, 1, shapes.t, rng) for _ in range(2)]
    stacks = [codec.random_matrix(p, t, 1, rng) for _ in range(5)]
    # Column m of the mask matrix is stack m.
    masks = FieldMatrix(t, len(stacks), tuple(m.entries[i] for i in range(t) for m in stacks))
    zero_a = FieldMatrix(shapes.r, 1, (0,) * shapes.r)
    zero_b = FieldMatrix(1, shapes.t, (0,) * shapes.t)
    zero_masks = FieldMatrix(t, 1, (0,) * t)

    def encode(a, b, r_masks, s_masks):
        return codec._encode_with_masks(a, b, code, plan, shapes, r_masks, s_masks)

    for a_side, exponents, secrets in (
        (True, code.assignment.alpha, a_secrets),
        (False, code.assignment.beta, b_secrets),
    ):
        wide = harness._side_shares(plan, exponents, [s.entries for s in secrets], masks)
        assert len(wide) == code.n_servers
        assert {(share.rows, share.cols) for share in wide} == {(1, 2 * len(stacks))}
        for c, secret in enumerate(secrets):
            for m, stack in enumerate(stacks):
                if a_side:
                    narrow = encode(secret, zero_b, stack, zero_masks).f_shares
                else:
                    narrow = encode(zero_a, secret, zero_masks, stack).g_shares
                column = c * len(stacks) + m
                for share, expected in zip(wide, narrow):
                    assert share.entries[column:column + 1] == expected.entries
