"""Degree-table combinatorics for gapped polynomial codes.

A code is described by two exponent vectors: ``alpha``, with one entry per
row block of A plus one per random mask, and ``beta`` likewise for B.  The
addition table alpha (+) beta, built by ``outer_sum`` as a tuple of rows,
collects every exponent of x appearing in f(x)g(x).  Its distinct
entries, ascending, are the term set J that decode interpolates, and
their number is the number of servers N; the
:class:`gasp.schemes.PolynomialCode` constructor derives J once per code.
The predicates below decide whether every block product A_k B_l can be
read off the interpolated coefficients (decodability) and whether the
mask exponents are pairwise distinct (security); the constructor refuses
an assignment that fails either.

Everything in this module is a pure function on immutable values.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .errors import ParameterError, _Value, check_positive, check_type

ENTRY_BITS = 63
_ENTRY_LIMIT = 1 << ENTRY_BITS


class SchemeParams(_Value):
    """Problem size: K row blocks of A, L column blocks of B, tolerance T."""

    k: int
    l: int
    t: int

    def __init__(self, k: int, l: int, t: int) -> None:
        for name, value in (("k", k), ("l", l), ("t", t)):
            check_positive(name, value)
            object.__setattr__(self, name, value)


class ExponentAssignment(_Value):
    """The exponent vectors alpha (length K+T) and beta (length L+T)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __init__(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> None:
        vectors = []
        for name, vec in (("alpha", alpha), ("beta", beta)):
            check_type(name, vec, Sequence)
            vec = tuple(vec)
            if not vec:
                raise ParameterError(f"{name} must be non-empty")
            # Bools and floats are refused.  Each check is one pass in C:
            # the entry types, then the least entry.
            if set(map(type, vec)) != {int} or min(vec) < 0:
                raise ParameterError(f"{name} entries must be nonnegative integers")
            vectors.append(vec)
        alpha, beta = vectors
        # Table entries are pairwise sums; reject anything that could not be
        # stored in a 63-bit word.
        if max(alpha) + max(beta) >= _ENTRY_LIMIT:
            raise ParameterError("table entries would exceed 63 bits")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _check_lengths(assignment: ExponentAssignment, params: SchemeParams) -> None:
    check_type("assignment", assignment, ExponentAssignment)
    check_type("params", params, SchemeParams)
    if len(assignment.alpha) != params.k + params.t:
        raise ParameterError(
            f"alpha has {len(assignment.alpha)} entries, expected K+T={params.k + params.t}"
        )
    if len(assignment.beta) != params.l + params.t:
        raise ParameterError(
            f"beta has {len(assignment.beta)} entries, expected L+T={params.l + params.t}"
        )


def outer_sum(
    assignment: ExponentAssignment, params: SchemeParams
) -> tuple[tuple[int, ...], ...]:
    """The (K+T) x (L+T) degree table as rows: entry (i, j) = alpha[i] + beta[j]."""
    _check_lengths(assignment, params)
    return tuple(tuple(a + b for b in assignment.beta) for a in assignment.alpha)


def is_decodable(assignment: ExponentAssignment, params: SchemeParams) -> bool:
    """True iff every data exponent alpha[k]+beta[l], k < K, l < L, is unique
    in the whole table, so each block product owns its own coefficient."""
    _check_lengths(assignment, params)
    counts = Counter(a + b for a in assignment.alpha for b in assignment.beta)
    return all(
        counts[assignment.alpha[i] + assignment.beta[j]] == 1
        for i in range(params.k)
        for j in range(params.l)
    )


def is_t_secure_assignment(assignment: ExponentAssignment, params: SchemeParams) -> bool:
    """True iff the T mask exponents are pairwise distinct on both sides."""
    _check_lengths(assignment, params)
    alpha_masks = assignment.alpha[params.k:]
    beta_masks = assignment.beta[params.l:]
    return len(set(alpha_masks)) == params.t and len(set(beta_masks)) == params.t
