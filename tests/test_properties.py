"""Property tests: decode inverts encode on random codes, shapes and masks."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gasp import codec, gf
from gasp.codec import BlockShapes
from gasp.degree_table import SchemeParams
from gasp.schemes import code_for_scheme


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    scheme=st.sampled_from(["small", "big"]),
    k=st.integers(1, 4),
    l=st.integers(1, 4),
    t=st.integers(1, 4),
    block_rows=st.integers(1, 3),
    inner=st.integers(1, 3),
    block_cols=st.integers(1, 3),
    plan_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_inverts_encode(scheme, k, l, t, block_rows, inner, block_cols, plan_seed, seed):
    code = code_for_scheme(SchemeParams(k, l, t), scheme)
    plan = codec.find_evaluation_plan(code, seed=plan_seed)
    p = plan.field.p
    shapes = BlockShapes(k * block_rows, inner, l * block_cols)
    rng = random.Random(seed)
    # Several products on one plan: every decode after the first reuses
    # the prepared rows.
    for _ in range(3):
        a = codec.random_matrix(p, shapes.r, shapes.s, rng)
        b = codec.random_matrix(p, shapes.s, shapes.t, rng)
        bundle = codec.encode(a, b, code, plan, shapes, seed=rng.randrange(2**32))
        responses = tuple(codec.server_evaluate(bundle, n) for n in range(code.n_servers))
        assert codec.decode(responses, code, plan, shapes) == gf.mat_mul(p, a, b)
