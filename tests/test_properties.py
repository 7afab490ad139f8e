"""Property tests: decode inverts encode on random codes, shapes and masks;
the packed matrix product equals the triple loop; the closed-form server
counts equal the term-counting oracle and never fall below the
optimizer's loop bound."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gasp import codec, gf
from gasp.codec import BlockShapes
from gasp.degree_table import SchemeParams, count_terms
from gasp.schemes import code_for_scheme, gasp_big, gasp_small, n_big_closed, n_small_closed
from test_gf import _raw, _triple_loop
from test_oracles import rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    scheme=st.sampled_from(["small", "big"]),
    k=st.integers(1, 4),
    l=st.integers(1, 4),
    t=st.integers(1, 4),
    block_rows=st.integers(1, 3),
    inner=st.integers(1, 3),
    block_cols=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_inverts_encode(scheme, k, l, t, block_rows, inner, block_cols, seed):
    code = code_for_scheme(SchemeParams(k, l, t), scheme)
    plan = codec.find_evaluation_plan(code)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from([2, 5, 251, 11383, 2**31 - 1, 2**61 - 1, 2**62 - 57]),
    n=st.integers(1, 24),
    m=st.integers(1, 24),
    q=st.integers(1, 24),
    entries=st.sampled_from(["reduced", "above", "below", "both"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mat_mul_matches_triple_loop_random_shapes(p, n, m, q, entries, seed):
    # Raw entries outside [0, p): both branches must reduce them.
    rng = random.Random(seed)
    lo, hi = {
        "reduced": (0, p), "above": (0, 4 * p), "below": (-3 * p, p), "both": (-3 * p, 3 * p)
    }[entries]
    a = [[rng.randrange(lo, hi) for _ in range(m)] for _ in range(n)]
    b = [[rng.randrange(lo, hi) for _ in range(q)] for _ in range(m)]
    got = gf.mat_mul(p, _raw(a), _raw(b))
    assert rows(got) == _triple_loop(p, a, b)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 40), l=st.integers(1, 40), data=st.data())
def test_closed_form_counts_match_oracle(k, l, data):
    # Beyond the 12 x 12 grid of the acceptance suite: K, L up to 40.
    t = data.draw(st.integers(1, 2 * max(k, l) + 3), label="t")
    params = SchemeParams(k, l, t)
    assert n_small_closed(params) == count_terms(gasp_small(params), params)
    assert n_big_closed(params) == count_terms(gasp_big(params), params)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 40), l=st.integers(1, 40), data=st.data())
def test_closed_forms_respect_the_optimizer_bound(k, l, data):
    # optimize_gasp stops L at (N+1-K-T) // (K+1) because both counts are
    # at least (K+1)(L+1) + T - 2; a closed form that dips below it would
    # let the search skip a pair that fits.
    t = data.draw(st.integers(1, 2 * max(k, l) + 3), label="t")
    params = SchemeParams(k, l, t)
    bound = (k + 1) * (l + 1) + t - 2
    assert min(n_small_closed(params), n_big_closed(params)) >= bound
