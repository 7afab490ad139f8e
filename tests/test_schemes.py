"""Scheme constructions, closed-form counts, rates, and the optimizers."""

import functools
from fractions import Fraction

import pytest

from gasp.degree_table import SchemeParams, count_terms, outer_sum, terms
from gasp.errors import ParameterError
from gasp.schemes import (
    code_for_scheme,
    download_rate,
    format_rate,
    gasp_auto,
    gasp_big,
    gasp_grouped,
    gasp_small,
    grouped_sweep,
    kakar_heuristic,
    kakar_rate,
    n_big_closed,
    n_small_closed,
    optimize_gasp,
    rate_r1,
    rate_r2,
    rate_report,
)


def grid(max_kl=12):
    for k in range(1, max_kl + 1):
        for l in range(1, max_kl + 1):
            for t in range(1, 2 * max(k, l) + 4):
                yield SchemeParams(k, l, t)


def test_gasp_big_examples():
    p444 = SchemeParams(4, 4, 4)
    a = gasp_big(p444)
    assert a.alpha == (0, 1, 2, 3, 16, 17, 18, 19)
    assert a.beta == (0, 4, 8, 12, 16, 17, 18, 19)

    a = gasp_big(SchemeParams(3, 3, 2))
    assert a.alpha == (0, 1, 2, 9, 10)
    assert a.beta == (0, 3, 6, 9, 10)

    a = gasp_big(SchemeParams(1, 1, 1))
    assert a.alpha == (0, 1)
    assert a.beta == (0, 1)


def test_gasp_big_swapped_orientation():
    # K < L: the fine and coarse progressions trade places.
    a = gasp_big(SchemeParams(2, 5, 3))
    assert a.alpha == (0, 5, 10, 11, 12)
    assert a.beta == (0, 1, 2, 3, 4, 10, 11, 12)


def test_gasp_small_examples():
    a = gasp_small(SchemeParams(3, 3, 2))
    assert a.alpha == (0, 1, 2, 9, 12)
    assert a.beta == (0, 3, 6, 9, 10)

    a = gasp_small(SchemeParams(4, 4, 4))
    assert a.alpha[4:] == (16, 20, 24, 28)

    a = gasp_small(SchemeParams(1, 1, 1))
    assert a.alpha == (0, 1)
    assert a.beta == (0, 1)


def test_gasp_small_swapped_orientation():
    a = gasp_small(SchemeParams(3, 2, 1))
    assert a.alpha == (0, 2, 4, 6)
    assert a.beta == (0, 1, 6)


def test_gasp_auto_choice():
    code = gasp_auto(SchemeParams(3, 3, 2))
    assert code.scheme_label == "small"
    assert code.n_servers == 18

    code = gasp_auto(SchemeParams(20, 20, 25))
    assert code.scheme_label == "big"
    assert code.n_servers == 2 * 400 + 50 - 1 == 849

    code = gasp_auto(SchemeParams(1, 1, 5))
    assert code.scheme_label == "big"
    assert code.n_servers == 11


def test_grouped_masks_published_values():
    assert gasp_grouped(8, 4).alpha[8:] == (64, 65, 72, 73, 80, 81, 88, 89)
    assert gasp_grouped(9, 4).alpha[9:] == (81, 82, 90, 91, 99, 100, 108, 109, 117)
    assert gasp_grouped(4, 1).alpha[4:] == (16, 17, 18, 19)
    # the two-group middle scheme at K = L = T = 4
    assert gasp_grouped(4, 2).alpha[4:] == (16, 17, 20, 21)


def test_grouped_k12_g3_is_three_groups_of_four():
    # Three groups of size Q = 4; pinned so the construction cannot drift
    # toward the four-groups-of-three variant.
    assert gasp_grouped(12, 3).alpha[12:] == (
        144, 145, 146, 147, 156, 157, 158, 159, 168, 169, 170, 171,
    )


def test_grouped_endpoints_collapse():
    for k in range(1, 13):
        params = SchemeParams(k, k, k)
        assert gasp_grouped(k, 1) == gasp_big(params)
        assert gasp_grouped(k, k) == gasp_small(params)


def test_grouped_spec_division():
    # 9 = 2*4 + 1: four runs of two masks at 81 + 9i, then one left-over
    # mask at 81 + 4*9.
    assert gasp_grouped(9, 4).alpha[9:] == (81, 82, 90, 91, 99, 100, 108, 109, 117)
    with pytest.raises(ParameterError):
        gasp_grouped(4, 5)
    with pytest.raises(ParameterError):
        gasp_grouped(4, 0)


def test_grouped_all_valid():
    for k in range(1, 13):
        params = SchemeParams(k, k, k)
        for g in range(1, k + 1):
            code = code_for_scheme(params, "grouped", g=g)
            assert code.scheme_label == f"grouped({g})"


def test_n_big_closed_examples():
    assert n_big_closed(SchemeParams(3, 3, 2)) == 19
    assert n_big_closed(SchemeParams(4, 4, 4)) == 39
    assert n_big_closed(SchemeParams(6, 6, 6)) == 83


def test_n_small_closed_examples():
    assert n_small_closed(SchemeParams(3, 3, 2)) == 18
    assert n_small_closed(SchemeParams(4, 4, 4)) == 41
    assert n_small_closed(SchemeParams(9, 9, 9)) == 186


def test_closed_forms_match_oracle_small_grid():
    # The full grid runs in the acceptance suite; spot the small corner here.
    for params in grid(max_kl=6):
        assert n_small_closed(params) == count_terms(gasp_small(params), params)
        assert n_big_closed(params) == count_terms(gasp_big(params), params)


def test_closed_form_symmetry():
    for k in range(1, 9):
        for l in range(1, 9):
            for t in range(1, 12):
                a, b = SchemeParams(k, l, t), SchemeParams(l, k, t)
                assert n_big_closed(a) == n_big_closed(b)
                assert n_small_closed(a) == n_small_closed(b)


def test_dominance_and_small_beats_big():
    for params in grid(max_kl=8):
        assert n_big_closed(params) <= (params.k + params.t) * (params.l + 1) - 1
        if params.t < min(params.k, params.l):
            assert n_small_closed(params) <= n_big_closed(params)


def test_schemes_always_valid_codes():
    # Every code carries the term set of its degree table, built once in
    # build_code; the brute-force oracles must agree with it.
    codes = [code_for_scheme(params, s) for params in grid(max_kl=6) for s in ("small", "big")]
    codes += [
        code_for_scheme(SchemeParams(k, k, k), "grouped", g=g)
        for k in range(1, 7) for g in range(1, k + 1)
    ]
    for code in codes:
        assert code.exponents == terms(outer_sum(code.assignment, code.params)), code
        assert code.n_servers == count_terms(code.assignment, code.params), code


def test_download_rate_rendering():
    assert format_rate(download_rate(SchemeParams(9, 9, 1), 148)) == "0.547"
    assert format_rate(download_rate(SchemeParams(6, 6, 1), 73)) == "0.493"
    assert format_rate(download_rate(SchemeParams(1, 1, 1), 1)) == "1.000"
    # the one documented half-up disagreement with the published table
    assert format_rate(Fraction(36, 83)) == "0.434"
    with pytest.raises(ParameterError):
        download_rate(SchemeParams(1, 1, 1), 0)


def test_baseline_rates():
    assert rate_r1(3, 2) == Fraction(9, 25)
    assert rate_r2(SchemeParams(3, 3, 2)) == Fraction(9, 19)
    assert rate_r2(SchemeParams(1, 1, 1)) == Fraction(1, 3)
    # K and T are positive ints: (0, 0) used to raise a bare ZeroDivisionError.
    for k, t in ((0, 0), (0, 2), (3, 0), (3.0, 2), (3, 2.0), (True, 1), (3, -1)):
        with pytest.raises(ParameterError, match="must be a positive integer"):
            rate_r1(k, t)


def test_rate_report():
    report = rate_report(SchemeParams(3, 3, 2))
    assert (report.n_small, report.n_big, report.n_gasp) == (18, 19, 18)
    assert report.rate_gasp == Fraction(1, 2)
    assert report.rate_r1 == Fraction(9, 25)
    assert report.rate_r2 == Fraction(9, 19)
    assert rate_report(SchemeParams(2, 3, 1)).rate_r1 is None


def test_kakar_heuristic_values():
    assert kakar_heuristic(50, 5) == (12, 2)
    assert (12 + 5) * (2 + 1) - 1 == 50
    assert kakar_heuristic(50, 24) == (1, 1)
    assert kakar_heuristic(3, 1) == (1, 1)
    # N and T are ints with T >= 1 and N >= 2T+1; T = 0 used to answer (4, 1)
    # and a float N a float K.
    for n, t in ((4, 2), (7, 0), (7, -1), (5.0, 2), (5, 2.0), (True, 1), (7, True)):
        with pytest.raises(ParameterError):
            kakar_heuristic(n, t)
        with pytest.raises(ParameterError):
            kakar_rate(n, t)


def test_kakar_fits_worker_pool():
    # Every valid pool gets a pair with K, L >= 1 that fits it.
    for n in range(3, 301):
        for t in range(1, (n - 1) // 2 + 1):
            k, l = kakar_heuristic(n, t)
            assert k >= 1 and l >= 1 and (k + t) * (l + 1) - 1 <= n, (n, t)


@functools.lru_cache(maxsize=None)
def _enumerated_servers(k, l, t):
    # min(n_small, n_big) by enumerating both tables; cached because the
    # pool sweep below asks for the same (K, L, T) under many N.
    params = SchemeParams(k, l, t)
    return min(
        count_terms(gasp_small(params), params),
        count_terms(gasp_big(params), params),
    )


def _optimize_oracle(n, t):
    # Independent route: brute force with enumerated (not closed-form)
    # counts, over every K, L with KL <= N rather than the search's bound.
    best = None
    for k in range(1, n + 1):
        for l in range(1, n // k + 1):
            n_used = _enumerated_servers(k, l, t)
            if n_used > n:
                continue
            key = (-Fraction(k * l, n_used), k + l, k)
            if best is None or key < best[0]:
                best = (key, (k, l, n_used, Fraction(k * l, n_used)))
    return best[1]


@pytest.mark.parametrize("n,t", [(50, 1), (50, 24), (3, 1), (30, 4)])
def test_optimize_gasp_matches_independent_oracle(n, t):
    got = optimize_gasp(n, t)
    expected = _optimize_oracle(n, t)
    assert (got.k, got.l, got.n_used, got.rate) == expected


def test_optimize_gasp_matches_independent_oracle_on_every_small_pool():
    # Every valid (N, T) with N <= 30: the search's loop bound and its
    # integer rate comparison against the enumerated counts and Fractions.
    for n in range(3, 31):
        for t in range(1, (n - 1) // 2 + 1):
            got = optimize_gasp(n, t)
            assert (got.k, got.l, got.n_used, got.rate) == _optimize_oracle(n, t), (n, t)


def test_optimize_gasp_examples():
    best = optimize_gasp(50, 1)
    assert (best.k, best.l, best.n_used, best.rate) == (6, 6, 48, Fraction(3, 4))
    best = optimize_gasp(50, 24)
    assert (best.k, best.l, best.n_used, best.rate) == (1, 1, 49, Fraction(1, 49))
    best = optimize_gasp(3, 1)
    assert (best.k, best.l, best.n_used, best.rate) == (1, 1, 3, Fraction(1, 3))
    # A float N used to raise a bare TypeError.
    for n, t in ((4, 2), (7, 0), (5.0, 2), (5, 2.0), (True, 1), (7, True)):
        with pytest.raises(ParameterError):
            optimize_gasp(n, t)


def test_optimize_never_below_kakar():
    for n in range(3, 61):
        for t in range(1, (n - 1) // 2 + 1):
            assert optimize_gasp(n, t).rate >= kakar_rate(n, t), (n, t)


def test_grouped_sweep_published_tables():
    k6 = [(g, n) for g, n, _ in grouped_sweep(6)]
    assert k6 == [(1, 83), (2, 73), (3, 74), (4, 84), (5, 87), (6, 87)]
    k9 = [n for _, n, _ in grouped_sweep(9)]
    assert k9 == [179, 153, 148, 157, 174, 176, 180, 186, 186]
    rates9 = [format_rate(r) for _, _, r in grouped_sweep(9)]
    assert rates9[2] == "0.547"
    k36 = {g: n for g, n, _ in grouped_sweep(36)}
    assert [k36[g] for g in range(1, 9)] == [2663, 2068, 1894, 1825, 1821, 1792, 1825, 1830]
    assert (k36[34], k36[35], k36[36]) == (2664, 2697, 2697)


def test_grouped_sweep_matches_count_terms():
    # The bitmask sumset count against the brute-force oracle, every G.
    for k in range(1, 41):
        params = SchemeParams(k, k, k)
        expected = [count_terms(gasp_grouped(k, g), params) for g in range(1, k + 1)]
        assert [n for _, n, _ in grouped_sweep(k)] == expected, k


def test_grouped_sweep_trivial():
    assert grouped_sweep(1) == [(1, 3, Fraction(1, 3))]
    # None and a string used to raise a bare TypeError from k < 1.
    for k in (0, -1, None, "a", 2.0, True):
        with pytest.raises(ParameterError, match="^k must be a positive integer"):
            grouped_sweep(k)


def test_grouped_tail_groups_coincide():
    # Group counts 5 and 6 at K=6 give the same runs, hence the same count.
    assert gasp_grouped(6, 5) == gasp_grouped(6, 6)


def test_code_for_scheme_rejects_bad_input():
    with pytest.raises(ParameterError):
        code_for_scheme(SchemeParams(2, 3, 2), "grouped", g=1)
    with pytest.raises(ParameterError):
        code_for_scheme(SchemeParams(2, 2, 2), "grouped")
    with pytest.raises(ParameterError):
        code_for_scheme(SchemeParams(2, 2, 2), "nonsense")
    # Only grouped codes have groups; a group count elsewhere is refused, not ignored.
    for scheme in ("small", "big", "auto"):
        with pytest.raises(ParameterError):
            code_for_scheme(SchemeParams(4, 4, 4), scheme, g=2)
    # G and K are ints: True used to build a code labelled grouped(True), and
    # a float G or K raised a bare TypeError.
    for g in (True, 2.0):
        with pytest.raises(ParameterError):
            code_for_scheme(SchemeParams(3, 3, 3), "grouped", g=g)
    with pytest.raises(ParameterError):
        gasp_grouped(3.0, 1)
