"""Bessel functions of the first kind J_k and zeros of J_0.

Self-contained implementation: an ascending power series below a fixed
cutoff, the Hankel large-argument expansion above it, and upward recurrence
for higher orders. No third-party special-function library is involved, so
the test suite can check this module against an independent quadrature rule.

Supported domain is k <= 10 and |x| <= 60, which comfortably covers every
rescaled drive amplitude this package scans (A/omega <= 6).
"""

from __future__ import annotations

import math

from .errors import ValidationError

MAX_ORDER = 10
MAX_ARGUMENT = 60.0

# Above this |x| the power series loses accuracy to cancellation (largest
# term grows like e^|x|); below it the Hankel expansion is not yet converged
# enough. Both sides are good to ~1e-12 absolute at the boundary.
_SERIES_CUTOFF = 14.0

# Absolute error bound of bessel_j on its domain; measured headroom is ~100x.
ABS_ERROR_BOUND = 1e-10


def _check_domain(k: int, x: float) -> None:
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValidationError(f"order must be an integer, got {k!r}")
    if k < 0 or k > MAX_ORDER:
        raise ValidationError(f"order must be in [0, {MAX_ORDER}], got {k}")
    if not math.isfinite(x):
        raise ValidationError(f"argument must be finite, got {x!r}")
    if abs(x) > MAX_ARGUMENT:
        raise ValidationError(
            f"argument must satisfy |x| <= {MAX_ARGUMENT}, got {x!r}"
        )


def _series(k: int, x: float) -> float:
    """Ascending series sum_m (-1)^m (x/2)^(k+2m) / (m! (m+k)!), x >= 0."""
    half = 0.5 * x
    term = 1.0
    for i in range(1, k + 1):
        term *= half / i
    total = term
    neg_quarter_sq = -half * half
    m = 1
    while m <= 250:
        term *= neg_quarter_sq / (m * (m + k))
        total += term
        if abs(term) <= 1e-18 * (1.0 + abs(total)):
            break
        m += 1
    return total


def _hankel(k: int, x: float) -> float:
    """Large-argument expansion via the outgoing-wave series, x > k."""
    mu = 4.0 * k * k
    term = 1.0 + 0.0j
    total = term
    m = 1
    while m <= 40:
        term = term * (1j * (mu - (2 * m - 1) ** 2) / (8.0 * m * x))
        if abs(term) > abs(total):
            break  # asymptotic tail started to diverge; stop at smallest term
        total += term
        if abs(term) < 1e-18:
            break
        m += 1
    chi = x - (0.5 * k + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    return amp * (math.cos(chi) * total.real - math.sin(chi) * total.imag)


def bessel_j(k: int, x: float) -> float:
    """Bessel function of the first kind J_k(x).

    Accepts k in [0, 10] and |x| <= 60; absolute error stays below 1e-10
    over that box. Negative arguments use the parity J_k(-x) = (-1)^k J_k(x).
    """
    _check_domain(k, x)
    ax = abs(x)
    sign = -1.0 if (x < 0.0 and k % 2 == 1) else 1.0
    if ax <= _SERIES_CUTOFF:
        return sign * _series(k, ax)
    j_prev = _hankel(0, ax)
    if k == 0:
        return sign * j_prev
    j_cur = _hankel(1, ax)
    # Upward recurrence is stable here because ax > cutoff > k.
    for order in range(1, k):
        j_prev, j_cur = j_cur, (2.0 * order / ax) * j_cur - j_prev
    return sign * j_cur


MAX_ZERO_INDEX = 5


def j0_zero(n: int) -> float:
    """n-th positive zero of J_0 (1-based), by bisection.

    The n-th zero lies strictly inside [(n - 3/4) pi, (n + 1/4) pi], which
    gives a sign change to bisect on. Accuracy is far below the documented
    1e-8 because the bracket is shrunk to ~1e-13.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError(f"zero index must be an integer, got {n!r}")
    if n < 1 or n > MAX_ZERO_INDEX:
        raise ValidationError(
            f"zero index must be in [1, {MAX_ZERO_INDEX}], got {n}"
        )
    lo = (n - 0.75) * math.pi
    hi = (n + 0.25) * math.pi
    f_lo = bessel_j(0, lo)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        f_mid = bessel_j(0, mid)
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
