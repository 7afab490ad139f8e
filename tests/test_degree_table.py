"""Degree-table construction, term counting, and the two gate predicates."""

import random

import pytest

from gasp.degree_table import (
    ExponentAssignment,
    SchemeParams,
    is_decodable,
    is_t_secure_assignment,
    outer_sum,
)
from gasp.errors import ParameterError
from gasp.schemes import gasp_big, gasp_grouped, gasp_small
from test_oracles import count_terms, terms

P332 = SchemeParams(3, 3, 2)
SMALL_332 = ExponentAssignment((0, 1, 2, 9, 12), (0, 3, 6, 9, 10))
J_332 = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 18, 19, 21, 22)


def test_params_validation():
    with pytest.raises(ParameterError):
        SchemeParams(0, 1, 1)
    with pytest.raises(ParameterError):
        SchemeParams(1, 1, -2)
    # bool is an int subclass; True used to pass as 1.
    for args in ((True, 1, 1), (1, True, 1), (1, 1, True), (1.0, 1, 1)):
        with pytest.raises(ParameterError):
            SchemeParams(*args)


def test_assignment_validation():
    with pytest.raises(ParameterError):
        ExponentAssignment((0, -1), (0, 1))
    with pytest.raises(ParameterError):
        ExponentAssignment((2**62,), (2**62,))
    for alpha, beta in (((False, True), (False, True)), ((0, 1), (0, True)), ((0, 1.0), (0, 1))):
        with pytest.raises(ParameterError):
            ExponentAssignment(alpha, beta)
    # largest admissible pair is fine
    ExponentAssignment((2**62,), (2**62 - 1,))


def test_assignment_refuses_an_empty_side():
    for alpha, beta, name in (((), (0,), "alpha"), ((0,), (), "beta")):
        with pytest.raises(ParameterError, match=f"^{name} must be non-empty$"):
            ExponentAssignment(alpha, beta)


def test_outer_sum_reference_table():
    table = outer_sum(SMALL_332, P332)
    assert table[0] == (0, 3, 6, 9, 10)
    assert table[-1] == (12, 15, 18, 21, 22)
    assert table[3] == (9, 12, 15, 18, 19)


def test_outer_sum_trivial_cases():
    zero = outer_sum(ExponentAssignment((0, 0), (0, 0)), SchemeParams(1, 1, 1))
    assert zero == ((0, 0), (0, 0))
    table = outer_sum(ExponentAssignment((0, 1), (5, 7)), SchemeParams(1, 1, 1))
    assert table == ((5, 7), (6, 8))


def test_outer_sum_length_mismatch():
    with pytest.raises(ParameterError):
        outer_sum(ExponentAssignment((0, 1), (0, 1)), P332)


def test_beta_length_mismatch():
    # alpha has its K+T = 5 entries, beta 4 of its L+T = 5.
    with pytest.raises(ParameterError, match=r"^beta has 4 entries, expected L\+T=5$"):
        outer_sum(ExponentAssignment((0, 1, 2, 9, 12), (0, 3, 6, 9)), P332)


def test_terms_reference_set():
    assert terms(outer_sum(SMALL_332, P332)) == J_332


def test_terms_trivial():
    zero = outer_sum(ExponentAssignment((0, 0), (0, 0)), SchemeParams(1, 1, 1))
    assert terms(zero) == (0,)
    two = outer_sum(ExponentAssignment((0, 1), (5, 7)), SchemeParams(1, 1, 1))
    assert terms(two) == (5, 6, 7, 8)


def test_count_terms_reference_values():
    assert count_terms(SMALL_332, P332) == 18
    p444 = SchemeParams(4, 4, 4)
    assert count_terms(gasp_small(p444), p444) == 41
    assert count_terms(gasp_big(p444), p444) == 39


def test_partition_regions_scheme_form():
    # For every big-scheme table the data block alpha[:K] + beta[:L] covers
    # 0..KL-1 exactly, and for L <= K the upper-right block alpha[:K] +
    # beta[L:] is T runs of K consecutive integers, one per mask column.
    for k, l, t in [(3, 3, 2), (4, 2, 3), (1, 5, 2), (2, 2, 4)]:
        params = SchemeParams(k, l, t)
        assignment = gasp_big(params)
        alpha, beta = assignment.alpha[:k], assignment.beta
        assert sorted(a + b for a in alpha for b in beta[:l]) == list(range(k * l))
        if l <= k:
            upper_right = {a + b for a in alpha for b in beta[l:]}
            runs = {k * l + off + i for off in range(t) for i in range(k)}
            assert upper_right == runs


def test_is_decodable_examples():
    assert is_decodable(SMALL_332, P332)
    assert not is_decodable(
        ExponentAssignment((0, 0), (0, 0)), SchemeParams(1, 1, 1)
    )
    p9 = SchemeParams(9, 9, 9)
    assert is_decodable(gasp_grouped(9, 4), p9)


def test_is_t_secure_examples():
    assert is_t_secure_assignment(SMALL_332, P332)
    assert not is_t_secure_assignment(
        ExponentAssignment((0, 5, 5), (0, 1, 2)), SchemeParams(1, 1, 2)
    )
    for k, l, t in [(1, 1, 1), (2, 5, 3), (6, 2, 8)]:
        params = SchemeParams(k, l, t)
        assert is_t_secure_assignment(gasp_big(params), params)
        assert is_t_secure_assignment(gasp_small(params), params)


def test_shift_invariance():
    # Adding a constant to alpha shifts every entry but changes no predicate.
    rng = random.Random(11)
    for _ in range(50):
        k, l, t = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        params = SchemeParams(k, l, t)
        alpha = tuple(rng.randrange(100) for _ in range(k + t))
        beta = tuple(rng.randrange(100) for _ in range(l + t))
        c = rng.randrange(10**6)
        base = ExponentAssignment(alpha, beta)
        shifted = ExponentAssignment(tuple(a + c for a in alpha), beta)
        t_base = outer_sum(base, params)
        t_shift = outer_sum(shifted, params)
        assert t_shift == tuple(
            tuple(e + c for e in row) for row in t_base
        )
        assert count_terms(base, params) == count_terms(shifted, params)
        assert is_decodable(base, params) == is_decodable(shifted, params)
        assert is_t_secure_assignment(base, params) == is_t_secure_assignment(
            shifted, params
        )


def test_count_bound_and_equality_condition():
    rng = random.Random(3)
    for _ in range(60):
        k, l, t = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        params = SchemeParams(k, l, t)
        assignment = ExponentAssignment(
            tuple(rng.randrange(30) for _ in range(k + t)),
            tuple(rng.randrange(30) for _ in range(l + t)),
        )
        n = count_terms(assignment, params)
        cells = (k + t) * (l + t)
        assert n <= cells
        all_entries = [
            e for row in outer_sum(assignment, params) for e in row
        ]
        assert (n == cells) == (len(set(all_entries)) == len(all_entries))


def test_decodable_implies_extra_term():
    # The KL data entries are distinct and at least one mask entry lies
    # outside them, so a decodable table has more than KL terms.
    rng = random.Random(19)
    checked = 0
    for _ in range(300):
        k, l, t = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        params = SchemeParams(k, l, t)
        assignment = ExponentAssignment(
            tuple(rng.randrange(25) for _ in range(k + t)),
            tuple(rng.randrange(25) for _ in range(l + t)),
        )
        if is_decodable(assignment, params):
            checked += 1
            assert count_terms(assignment, params) >= k * l + 1
    assert checked > 10
