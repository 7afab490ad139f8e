"""Degree-table combinatorics for gapped polynomial codes.

A code is described by two exponent vectors: ``alpha``, with one entry per
row block of A plus one per random mask, and ``beta`` likewise for B.  The
addition table alpha (+) beta, built by ``outer_sum`` as a tuple of rows,
collects every exponent of x appearing in f(x)g(x).  Its distinct
entries, ascending, are the term set J that decode interpolates, and
their number is the number of servers N; :func:`gasp.schemes.build_code`
builds the table once and stores J on the code.  The predicates below
decide whether every block product A_k B_l can be read off the
interpolated coefficients (decodability) and whether the mask exponents
are pairwise distinct (security).

Everything in this module is a pure function on immutable values, and
``count_terms`` is deliberately brute force: it is the oracle against
which the tests hold the closed-form server counts in :mod:`gasp.schemes`
and the grouped sweep's bitmask count.  No library path calls it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ParameterError, check_positive

ENTRY_BITS = 63
_ENTRY_LIMIT = 1 << ENTRY_BITS


@dataclass(frozen=True)
class SchemeParams:
    """Problem size: K row blocks of A, L column blocks of B, tolerance T."""

    k: int
    l: int
    t: int

    def __post_init__(self) -> None:
        for name, value in (("k", self.k), ("l", self.l), ("t", self.t)):
            check_positive(name, value)


@dataclass(frozen=True)
class ExponentAssignment:
    """The exponent vectors alpha (length K+T) and beta (length L+T)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))
        for name, vec in (("alpha", self.alpha), ("beta", self.beta)):
            if not vec:
                raise ParameterError(f"{name} must be non-empty")
            if any(type(e) is not int or e < 0 for e in vec):
                raise ParameterError(f"{name} entries must be nonnegative integers")
        # Table entries are pairwise sums; reject anything that could not be
        # stored in a 63-bit word.
        if max(self.alpha) + max(self.beta) >= _ENTRY_LIMIT:
            raise ParameterError("table entries would exceed 63 bits")


def _check_lengths(assignment: ExponentAssignment, params: SchemeParams) -> None:
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


def terms(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Distinct table entries, ascending: the term set J of the code."""
    return tuple(sorted({e for row in table for e in row}))


def count_terms(assignment: ExponentAssignment, params: SchemeParams) -> int:
    """Number of distinct table entries, the server count N, by brute force."""
    _check_lengths(assignment, params)
    return len({a + b for a in assignment.alpha for b in assignment.beta})


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
