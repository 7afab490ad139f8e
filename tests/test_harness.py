"""Simulated sessions, the algebraic audit, and the exhaustive privacy audit."""

import dataclasses

import pytest

from gasp import codec, harness
from gasp.codec import BlockShapes, EvaluationPlan, MaskSet
from gasp.degree_table import SchemeParams
from gasp.errors import BudgetExceededError, ParameterError
from gasp.gf import FieldMatrix, PrimeFieldSpec
from gasp.schemes import code_for_scheme, gasp_auto


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
        if field.name == "wall_seconds":
            continue
        assert getattr(first, field.name) == getattr(second, field.name)


def test_mds_audit_fixture_passes():
    code = gasp_auto(SchemeParams(3, 3, 2))
    plan = codec.find_evaluation_plan(
        code, PrimeFieldSpec(29), points=tuple(range(1, 19))
    )
    report = harness.mds_audit(code, plan)
    assert report.gv_det_nonzero and report.p_mds and report.q_mds
    assert report.all_pass


def test_mds_audit_duplicated_point():
    code = gasp_auto(SchemeParams(3, 3, 2))
    points = (1,) + tuple(range(1, 18))
    exps = codec.code_exponents(code)
    plan = EvaluationPlan(PrimeFieldSpec(29), points, exps)
    report = harness.mds_audit(code, plan)
    assert not report.gv_det_nonzero
    assert not report.all_pass


def test_mds_audit_zero_point():
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = EvaluationPlan(PrimeFieldSpec(7), (0, 1, 2), (0, 1, 2))
    report = harness.mds_audit(code, plan)
    assert not report.p_mds


def test_mds_audit_rejects_plan_of_other_code():
    # Both (2,2,2) codes need N = 11 servers but their term sets differ; the
    # big-code plan is verified for the big code only.
    params = SchemeParams(2, 2, 2)
    small = code_for_scheme(params, "small")
    big = code_for_scheme(params, "big")
    big_plan = codec.find_evaluation_plan(big, PrimeFieldSpec(1009), seed=0)
    assert len(big_plan.points) == small.n_servers
    assert harness.mds_audit(big, big_plan).all_pass
    with pytest.raises(ParameterError):
        harness.mds_audit(small, big_plan)


def test_exhaustive_audit_t1():
    assert harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5)


def test_exhaustive_audit_every_verified_plan():
    # Any plan the search accepts should pass the distributional check.
    params = SchemeParams(1, 1, 1)
    code = gasp_auto(params)
    for seed in range(5):
        plan = codec.find_evaluation_plan(code, PrimeFieldSpec(5), seed=seed)
        assert harness.exhaustive_privacy_audit(params, 5, plan=plan), seed


def test_exhaustive_audit_zero_masks_fails():
    assert not harness.exhaustive_privacy_audit(
        SchemeParams(1, 1, 1), 5, zero_masks=True
    )


def test_exhaustive_audit_t2():
    # Five servers and five distinct nonzero points need p >= 7; see the
    # acceptance suite for the full discussion.
    assert harness.exhaustive_privacy_audit(SchemeParams(1, 1, 2), 7)


def test_exhaustive_audit_corrupted_plan_fails():
    # A plan with the point 0 leaks: server 0 sees f(0) = A directly.
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = EvaluationPlan(PrimeFieldSpec(5), (0, 1, 2), codec.code_exponents(code))
    assert not harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5, plan=plan)


def test_exhaustive_audit_budget_refusal():
    with pytest.raises(BudgetExceededError):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5, max_steps=10)


def test_exhaustive_audit_rejects_mismatched_plan():
    code = gasp_auto(SchemeParams(1, 1, 1))
    plan = codec.find_evaluation_plan(code, PrimeFieldSpec(7), seed=0)
    with pytest.raises(ParameterError):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5, plan=plan)


def test_exhaustive_audit_rejects_plan_of_other_code():
    # A verified (1,1,2) plan has five points; the (1,1,1) code uses three.
    other = codec.find_evaluation_plan(gasp_auto(SchemeParams(1, 1, 2)), PrimeFieldSpec(7))
    with pytest.raises(ParameterError):
        harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 7, plan=other)


def test_exhaustive_audit_runs_shipped_encoder(monkeypatch):
    # An encoder that ignores its masks must fail the audit, which is only
    # possible if the audit's shares come from codec.encode.
    shipped = codec.encode

    def leaky_encode(a, b, code, plan, shapes, masks):
        def zeroed(ms):
            return tuple(FieldMatrix(m.rows, m.cols, (0,) * len(m.entries)) for m in ms)

        return shipped(
            a, b, code, plan, shapes, masks=MaskSet(zeroed(masks.r_masks), zeroed(masks.s_masks))
        )

    assert harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5)
    monkeypatch.setattr(codec, "encode", leaky_encode)
    assert not harness.exhaustive_privacy_audit(SchemeParams(1, 1, 1), 5)


@pytest.mark.parametrize("shapes", [BlockShapes(1, 1, 2), BlockShapes(2, 1, 1)])
def test_exhaustive_audit_multi_entry_blocks(shapes):
    params = SchemeParams(1, 1, 1)
    assert harness.exhaustive_privacy_audit(params, 5, shapes=shapes)
    assert not harness.exhaustive_privacy_audit(params, 5, shapes=shapes, zero_masks=True)
