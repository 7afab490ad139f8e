"""Property tests: decode inverts encode on random codes, shapes and masks;
the packed matrix product equals the triple loop; the closed-form server
counts equal the term-counting oracle, never fall below the optimizer's
loop bound, and rise along L while count/L falls; every code has between
1 and N masks a side."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gasp import codec, gf
from gasp.codec import BlockShapes
from gasp.degree_table import (
    ExponentAssignment,
    SchemeParams,
    is_decodable,
    is_t_secure_assignment,
)
from gasp.schemes import (
    PolynomialCode,
    code_for_scheme,
    gasp_big,
    gasp_small,
    n_big_closed,
    n_small_closed,
)
from test_gf import _raw, _triple_loop
from test_oracles import count_terms, rows


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
    entries=st.sampled_from(["reduced", "above", "below", "both", "huge"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mat_mul_matches_triple_loop_random_shapes(p, n, m, q, entries, seed):
    # Raw entries outside [0, p): both branches must reduce them.
    rng = random.Random(seed)
    lo, hi = {
        "reduced": (0, p), "above": (0, 4 * p), "below": (-3 * p, p), "both": (-3 * p, 3 * p),
        "huge": (0, 2**70),
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
    # optimize_gasp bisects each K's L over [K, (N+1-K-T) // (K+1)] and
    # stops K at sqrt(N+2-T) - 1 because both counts are at least
    # (K+1)(L+1) + T - 2; a closed form that dips below it would let the
    # search skip a pair that fits.
    t = data.draw(st.integers(1, 2 * max(k, l) + 3), label="t")
    params = SchemeParams(k, l, t)
    bound = (k + 1) * (l + 1) + t - 2
    assert min(n_small_closed(params), n_big_closed(params)) >= bound


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 40),
    l=st.integers(1, 80),
    near=st.sampled_from(["random", "big switch", "small switch"]),
    data=st.data(),
)
def test_counts_rise_and_counts_per_l_fall_along_l(k, l, near, data):
    # The lemma behind optimize_gasp's bisection: for K <= L, each closed
    # form and their min rise strictly from L to L+1, and count/L falls
    # strictly.  Big switches at L = T; small, for T >= K, between L and
    # L+1 when K(L-1)+1 < T <= KL+1, above 2 max(K, L) + 3 once K >= 3.
    l = max(k, l)
    if near == "small switch":
        t = max(1, k * (l - 1) + 1 + data.draw(st.integers(-k, k), label="shift"))
    else:
        t = data.draw(st.integers(1, 2 * l + 3), label="t")
        if near == "big switch":
            l = max(k, t + data.draw(st.integers(-2, 1), label="shift"))
    here, there = SchemeParams(k, l, t), SchemeParams(k, l + 1, t)
    for count in (n_small_closed, n_big_closed, lambda p: min(n_small_closed(p), n_big_closed(p))):
        a, b = count(here), count(there)
        assert a < b, (here, count)
        assert b * l < a * (l + 1), (here, count)


def test_every_code_has_one_to_n_masks_a_side():
    # gf._is_power_mds takes 1 <= T <= N from its caller, codec._conditions,
    # and does not check it: a valid code's T distinct mask exponents of
    # one side, each added to the other side's first exponent, are T
    # distinct entries of J.  Every code the constructor accepts bears
    # that out: the small and big codes of a grid, every grouped code
    # with K <= 8, and random assignments.
    def check(code):
        t = code.params.t
        assert len(code.alpha_masks) == len(code.beta_masks) == t
        assert 1 <= t <= code.n_servers, code

    for k, l in itertools.product(range(1, 9), repeat=2):
        for t in range(1, 2 * max(k, l) + 4):
            for scheme in ("small", "big"):
                check(code_for_scheme(SchemeParams(k, l, t), scheme))
    for k in range(1, 9):
        for g in range(1, k + 1):
            check(code_for_scheme(SchemeParams(k, k, k), "grouped", g=g))

    accepted = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 5), l=st.integers(1, 5), t=st.integers(1, 6), data=st.data())
    def random_code(k, l, t, data):
        # Exponents from a narrow range meet the constructor's refusals
        # and the fewest servers; a wide range gives N = (K+T)(L+T).
        top = data.draw(st.sampled_from([k + l + t, 4 * (k + l + t), 2**40]), label="top")
        alpha, beta = (
            data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size), label=name)
            for name, size in (("alpha", k + t), ("beta", l + t))
        )
        params, assignment = SchemeParams(k, l, t), ExponentAssignment(alpha, beta)
        if is_decodable(assignment, params) and is_t_secure_assignment(assignment, params):
            code = PolynomialCode(params, assignment, "random")
            check(code)
            accepted.append(code.n_servers)

    random_code()
    # The constructor accepts 59 of the 300 drawn assignments, N = 4 the least.
    assert len(accepted) >= 50 and min(accepted) < 10
