"""Exponent-vector constructions and their closed-form server counts.

The big, small and grouped codes are one layout with three settings,
built by ``_layout``.  A "unit" side of m blocks (m = K or L) holds the
data exponents 0 .. m-1; the other side holds the multiples 0, m, 2m,
... of m and the masks KL, ..., KL+T-1.  The unit side's masks are runs
of consecutive integers in the gaps of the degree table, run (a, length)
starting at KL + a*m:

* big: the larger side is the unit side, with the one run (0, T); it is
  better once T reaches min(K, L);
* small: the smaller side is the unit side, with the T runs (i, 1), so
  its cross terms collapse onto the coarse progression already in the
  table; it wins when T < min(K, L);
* grouped, for square problems K = L = T: alpha is the unit side, with
  G runs (i, Q), Q = floor(K/G), then (G, R) when R = K - Q*G > 0.  It
  interpolates between big (G = 1) and small (G = K).

Server counts have closed forms for small and big, piecewise in K, L, T
and symmetric in K and L, so each is written for one orientation (big
over max(K, L) and min(K, L), small in ``_n_small``).  The grouped
family has none, and ``grouped_sweep`` counts it as a sumset of
bitmasks.  ``optimize_gasp`` searches (K, L) on the closed forms in
ints, under a lower bound on both of them.  A code is made only by the
:class:`PolynomialCode` constructor, which refuses an assignment that is
not decodable or not T-secure and derives the term set J.  The tests
hold the closed forms and the grouped count against a brute-force term
count (``count_terms`` in ``tests/test_oracles.py``).  All rates are
exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .degree_table import (
    ExponentAssignment,
    SchemeParams,
    is_decodable,
    is_t_secure_assignment,
)
from .errors import ParameterError, check_positive, check_type


@dataclass(frozen=True)
class PolynomialCode:
    """A valid code: parameters, exponent vectors, a label, and its term set J.

    The constructor refuses an assignment that is not decodable or not
    T-secure, and derives J, the distinct sums alpha_i + beta_j of the
    degree table in ascending order, once per code; N = len(J).
    """

    params: SchemeParams
    assignment: ExponentAssignment
    scheme_label: str
    exponents: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        check_type("scheme_label", self.scheme_label, str)
        params, assignment = self.params, self.assignment
        if not is_decodable(assignment, params):
            raise ParameterError(f"{self.scheme_label} assignment is not decodable for {params}")
        if not is_t_secure_assignment(assignment, params):
            raise ParameterError(f"{self.scheme_label} assignment is not {params.t}-secure")
        exponents = sorted({a + b for a in assignment.alpha for b in assignment.beta})
        object.__setattr__(self, "exponents", tuple(exponents))

    @property
    def n_servers(self) -> int:
        return len(self.exponents)

    @property
    def alpha_masks(self) -> tuple[int, ...]:
        return self.assignment.alpha[self.params.k:]

    @property
    def beta_masks(self) -> tuple[int, ...]:
        return self.assignment.beta[self.params.l:]


@dataclass(frozen=True)
class RateReport:
    """Server counts and rates of the combined scheme and both baselines."""

    n_small: int
    n_big: int
    n_gasp: int
    rate_gasp: Fraction
    rate_r1: Fraction | None
    rate_r2: Fraction


@dataclass(frozen=True)
class OptimizationResult:
    """Best (K, L) found for a fixed worker pool."""

    k: int
    l: int
    n_used: int
    rate: Fraction


def _klt(params: SchemeParams) -> tuple[int, int, int]:
    """(K, L, T) of ``params`` once its type is checked; each reader of params here starts so."""
    check_type("params", params, SchemeParams)
    return params.k, params.l, params.t


def _layout(params: SchemeParams, unit_is_alpha: bool, runs) -> ExponentAssignment:
    """The one GASP layout: a unit side, the multiples of its size, and mask runs.

    The unit side (alpha if ``unit_is_alpha``, else beta) holds the data
    exponents 0 .. m-1, m its block count, then for each run (a, length)
    the masks KL + a*m, ..., KL + a*m + length - 1.  The other side holds
    the multiples 0, m, 2m, ... of m, then the masks KL, ..., KL+T-1.
    """
    k, l, t = params.k, params.l, params.t
    m, n = (k, l) if unit_is_alpha else (l, k)
    unit = tuple(range(m)) + tuple(k * l + a * m + i for a, length in runs for i in range(length))
    other = tuple(range(0, m * n, m)) + tuple(range(k * l, k * l + t))
    return ExponentAssignment(unit, other) if unit_is_alpha else ExponentAssignment(other, unit)


def gasp_big(params: SchemeParams) -> ExponentAssignment:
    """Masks on both sides are KL, KL+1, ..., KL+T-1.

    For L <= K the data exponents are 0..K-1 down the rows and multiples
    of K across the columns; for K < L the two progressions trade places.
    """
    k, l, t = _klt(params)
    return _layout(params, l <= k, [(0, t)])


def gasp_small(params: SchemeParams) -> ExponentAssignment:
    """Masks on the finer side stride by the fine block count.

    For K <= L: alpha masks are KL, KL+K, ..., KL+K(T-1) and beta masks
    are KL, KL+1, ..., KL+T-1.  For L < K the roles swap.
    """
    k, l, t = _klt(params)
    return _layout(params, k <= l, [(i, 1) for i in range(t)])


def gasp_grouped(k: int, g: int) -> ExponentAssignment:
    """Grouped masks for the square case K = L = T.

    The alpha masks form G runs of Q = floor(K/G) consecutive integers,
    run number i starting at K*K + i*K, plus one final run of R = K - Q*G
    integers starting at K*K + G*K when R > 0.  Beta is the same as in
    the big construction.  G=1 reproduces big, G=K reproduces small.
    """
    # bool is an int subclass, and a float G or K breaks range().
    if type(k) is not int or type(g) is not int or not 1 <= g <= k:
        raise ParameterError(f"group count must be an int 1 <= G <= K, got G={g!r}, K={k!r}")
    q, r = divmod(k, g)
    runs = [(grp, q) for grp in range(g)] + [(g, r)] * (r > 0)
    return _layout(SchemeParams(k, k, k), True, runs)


def _n_big(k: int, l: int, t: int) -> int:
    hi, lo = max(k, l), min(k, l)
    return (hi + t) * (lo + 1) - 1 if t < hi else 2 * k * l + 2 * t - 1


def n_big_closed(params: SchemeParams) -> int:
    """Closed-form server count of the big construction."""
    return _n_big(*_klt(params))


def _n_small(k: int, l: int, t: int) -> int:
    # The count is symmetric in K and L; the piecewise form is for k <= l.
    # Branch boundaries meet: the floor term makes t = k and t = k(l-1)+1
    # agree across branches.
    if l < k:
        k, l = l, k
    if t == 1 and t < k:
        return k * l + k + l
    if 2 <= t < k:
        return k * l + k + l + t * t + t - 3
    if k <= t <= k * (l - 1) + 1:
        return k * l + k * t + l + 2 * t - 3 - (t - 2) // k
    return 2 * k * l + k * t - k + t


def n_small_closed(params: SchemeParams) -> int:
    """Closed-form server count of the small construction."""
    return _n_small(*_klt(params))


def download_rate(params: SchemeParams, n: int) -> Fraction:
    """Ratio of desired output blocks to downloaded blocks, KL/N."""
    k, l, _ = _klt(params)
    check_positive("n", n)
    return Fraction(k * l, n)


def rate_r1(k: int, t: int) -> Fraction:
    """Baseline rate K^2/(K+T)^2 of the square-partition competitor."""
    check_positive("k", k)
    check_positive("t", t)
    return Fraction(k * k, (k + t) * (k + t))


def n_gap_free(params: SchemeParams) -> int:
    """Server count (K+T)(L+1)-1 of the gap-free competitor."""
    k, l, t = _klt(params)
    return (k + t) * (l + 1) - 1


def rate_r2(params: SchemeParams) -> Fraction:
    """Baseline rate KL/((K+T)(L+1)-1) of the gap-free competitor."""
    return download_rate(params, n_gap_free(params))


def rate_report(params: SchemeParams) -> RateReport:
    """Counts and rates of both constructions plus the literature baselines."""
    n_small = n_small_closed(params)  # checks the type of params first
    n_big = n_big_closed(params)
    n_gasp = n_small if params.t < min(params.k, params.l) else n_big
    return RateReport(
        n_small=n_small,
        n_big=n_big,
        n_gasp=n_gasp,
        rate_gasp=download_rate(params, n_gasp),
        rate_r1=rate_r1(params.k, params.t) if params.k == params.l else None,
        rate_r2=rate_r2(params),
    )


def _check_pool(n: int, t: int) -> None:
    # bool is an int subclass, and a float N would make K and L floats.
    check_positive("t", t)
    if type(n) is not int or n < 2 * t + 1:
        raise ParameterError(f"need an int N >= 2T+1, got N={n!r}, T={t}")


def kakar_heuristic(n: int, t: int) -> tuple[int, int]:
    """Near-optimal (K, L) for the gap-free baseline with N workers.

    L is the smallest positive integer at least -3/2 + sqrt(1/4 + N/T),
    then K = floor((N+1)/(L+1)) - T, so (K+T)(L+1) - 1 <= N: the pair
    fits the pool.  N and T must be ints with T >= 1 and N >= 2T+1, and
    then K >= 1, so every valid pool gets an answer.  If L = 1, then
    K = floor((N+1)/2) - T >= 1 because N+1 >= 2T+2.  If L >= 2, then
    L-1 failed the test, which squared reads T*L*(L+1) < N.  So
    N+1 - (T+1)(L+1) >= T*L*(L+1) + 2 - (T+1)(L+1) = (L-1)(T(L+1) - 1),
    which is nonnegative, and K >= (T+1) - T = 1.
    """
    _check_pool(n, t)
    # l_hat >= -3/2 + sqrt(1/4 + n/t)  <=>  (2*t*l_hat + 3*t)^2 >= t^2 + 4*n*t
    d = t * t + 4 * n * t
    l_hat = 1
    while (2 * t * l_hat + 3 * t) ** 2 < d:
        l_hat += 1
    k_hat = (n + 1 - t * (l_hat + 1)) // (l_hat + 1)
    assert k_hat >= 1 and n_gap_free(SchemeParams(k_hat, l_hat, t)) <= n
    return k_hat, l_hat


def optimize_gasp(n: int, t: int) -> OptimizationResult:
    """Exact search for the best (K, L) whose combined scheme fits N workers.

    Maximizes KL / min(n_small, n_big) over every (K, L) that fits, with
    ties broken toward smaller K+L, then smaller K.  N and T must be ints
    with T >= 1 and N >= 2T+1, and then there is always an answer:
    (K, L) = (1, 1) needs n_big = 2T+1 <= N servers.  Rates are compared
    by cross-multiplying ints; only the winner gets a ``Fraction``.  Both
    counts are symmetric in K and L, so a pair and its mirror image tie on
    rate and on K+L, and the one with K <= L wins; the search walks only
    L >= K.

    Every branch of both closed forms is at least B = (K+1)(L+1) + T - 2,
    so a pair fits only if B <= N, that is L <= (N+1-K-T) // (K+1), and
    no L >= 1 is left once 2K > N-T.  Branch by branch, count - B is:

    * big, T < max(K, L): (T-1)*min(K, L), since for L <= K the count is
      (K+T)(L+1) - 1 and the other orientation is its mirror image;
    * big, T >= max(K, L): 2KL + 2T - 1 - B = (K-1)(L-1) + T - 1;
    * small, in the orientation k <= l of ``_n_small`` (B is
      symmetric in K and L):
      - l = 1 forces k = 1, which the last two branches cover;
      - t = 1 < k: 0;
      - 2 <= t < k: t*t - 2;
      - k <= t <= k(l-1)+1: k(t-1) + (t-2) - (t-2)//k, where
        (t-2)//k <= t-2 for t >= 2, and both are -1 at t = 1;
      - t > k(l-1)+1: (k-1)(l-1) + k(t-1).

    All of these are nonnegative for K, L, T >= 1.
    """
    _check_pool(n, t)
    best_k, best_l, best_n = 1, 1, _n_big(1, 1, t)
    for k in range(1, (n - t) // 2 + 1):
        for l in range(k, (n + 1 - k - t) // (k + 1) + 1):
            n_used = min(_n_small(k, l, t), _n_big(k, l, t))
            if n_used > n:
                continue
            gain = k * l * best_n - best_k * best_l * n_used
            if gain > 0 or gain == 0 and (k + l, k) < (best_k + best_l, best_k):
                best_k, best_l, best_n = k, l, n_used
    rate = Fraction(best_k * best_l, best_n)
    return OptimizationResult(k=best_k, l=best_l, n_used=best_n, rate=rate)


def _sumset_size(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    # Bit b of the mask is set iff b is in beta, so the mask shifted by a
    # holds a + beta, and the OR over alpha holds the whole table.
    mask = 0
    for b in beta:
        mask |= 1 << b
    table = 0
    for a in alpha:
        table |= mask << a
    return table.bit_count()


def grouped_sweep(k: int) -> list[tuple[int, int, Fraction]]:
    """(G, N, rate) for every group count G = 1..K at K = L = T.

    No closed form is known for the grouped count.  N is the size of the
    sumset alpha + beta, read off bitmasks: beta becomes the int with bit
    b set for each b in beta, so N = popcount(OR over a in alpha of
    (mask << a)), K + T shifts instead of (K+T)(L+T) set inserts.  Every
    alpha exponent is below K*K + G*K + K <= 2K^2 + K (``gasp_grouped``)
    and every beta exponent below K^2 + K, so the table fits in
    3K^2 + 2K bits for every K.  The tests hold it against a brute-force
    count of the table's distinct entries.
    """
    check_positive("k", k)
    params = SchemeParams(k, k, k)
    rows = []
    for g in range(1, k + 1):
        assignment = gasp_grouped(k, g)
        n = _sumset_size(assignment.alpha, assignment.beta)
        rows.append((g, n, download_rate(params, n)))
    return rows


def code_for_scheme(params: SchemeParams, scheme: str, g: int | None = None) -> PolynomialCode:
    """Build a validated code by scheme name: small, big, auto, or grouped.

    The group count ``g`` is required for grouped codes and refused for
    the others, which have no groups.
    """
    k, l, t = _klt(params)
    if g is not None and scheme != "grouped":
        raise ParameterError(f"a group count G applies only to the grouped scheme, not {scheme!r}")
    if scheme == "auto":
        scheme = "small" if t < min(k, l) else "big"
    if scheme == "small":
        return PolynomialCode(params, gasp_small(params), "small")
    if scheme == "big":
        return PolynomialCode(params, gasp_big(params), "big")
    if scheme == "grouped":
        if g is None:
            raise ParameterError("grouped scheme needs a group count G")
        if not (k == l == t):
            raise ParameterError("grouped scheme is defined only for K = L = T")
        return PolynomialCode(params, gasp_grouped(k, g), f"grouped({g})")
    raise ParameterError(f"unknown scheme {scheme!r}")


def format_rate(rate: Fraction) -> str:
    """Render a rate with exactly three decimals, rounding half-up."""
    check_type("rate", rate, Fraction)
    if rate < 0:
        raise ParameterError(f"rate must be nonnegative, got {rate}")
    scaled = (2000 * rate.numerator + rate.denominator) // (2 * rate.denominator)
    return f"{scaled // 1000}.{scaled % 1000:03d}"
