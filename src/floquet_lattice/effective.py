"""High-frequency closed-form model for the three-site chain.

When the drive frequency dominates every coupling, averaging over the fast
oscillation renormalizes the two boundary couplings by J_0 of the rescaled
drive amplitudes:

    i b1' = omega0 J01 b2
    i b2' = omega0 J01 b1 + omega0 J02 b3
    i b3' = omega0 J02 b2

with J01 = J_0(a1/omega), J02 = J_0(a2/omega). The b_j are the slowly
varying site amplitudes in the frame that absorbs the oscillating on-site
phases; the frame change leaves |b_j| = |a_j|, so populations compare
directly to the numerical propagation. This module gives the couplings and
the closed-form site-1 population from (1, 0, 0) at t = 0,
``analytic_p1``: an independent oracle for the integrator at large omega.
Second-order coupling is not included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import SystemSpec
from .specfun import bessel_j


@dataclass(frozen=True)
class EffectiveParams:
    """Renormalized couplings of the averaged model and its slow rate.

    ``k_rate`` is the slow oscillation angular frequency
    omega0 * sqrt(J01^2 + J02^2).
    """

    j01: float
    j02: float
    k_rate: float


def effective_params(spec: SystemSpec) -> EffectiveParams:
    """Averaged-model couplings of the given spec.

    Requires a three-site spec. Raises if both renormalized couplings vanish
    (drive amplitudes at J_0 zeros on both ends), where the averaged model
    freezes.
    """
    if spec.n_sites != 3:
        raise ValidationError("the averaged model is defined for n_sites=3 only")
    j01 = bessel_j(0, spec.a1 / spec.omega)
    j02 = bessel_j(0, spec.a2 / spec.omega)
    s = j01 * j01 + j02 * j02
    if s < 1e-20:
        raise ValidationError(
            "both boundary couplings are renormalized to (numerically) zero; "
            "the averaged dynamics is frozen"
        )
    return EffectiveParams(j01=j01, j02=j02, k_rate=spec.omega0 * math.sqrt(s))


def analytic_p1(params: EffectiveParams, t):
    """Site-1 occupation probability of the averaged model from (1, 0, 0)
    at t = 0: |b1|^2 = (J02^2/S + (J01^2/S) cos(K t))^2 with
    S = J01^2 + J02^2. Accepts scalar or array ``t``; the result has period
    2 pi / K.
    """
    s = params.j01**2 + params.j02**2
    inner = params.j02**2 / s + (params.j01**2 / s) * np.cos(
        params.k_rate * np.asarray(t, dtype=float)
    )
    return inner**2

