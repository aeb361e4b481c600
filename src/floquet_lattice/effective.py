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
the closed-form site-1 population from (1, 0, 0), ``analytic_p1``: an
independent oracle for the integrator at large omega. Second-order coupling
is not included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import SystemSpec, require_state
from .propagator import StateVector
from .specfun import bessel_j


@dataclass(frozen=True)
class EffectiveParams:
    """Renormalized couplings of the averaged model and its slow rate.

    ``k_rate`` is the slow oscillation angular frequency
    omega0 * sqrt(J01^2 + J02^2). ``from_site1`` records whether the
    initial state was (1, 0, 0), the only start ``analytic_p1`` covers.
    """

    j01: float
    j02: float
    k_rate: float
    from_site1: bool


def effective_params(spec: SystemSpec, initial: StateVector) -> EffectiveParams:
    """Averaged-model couplings for the given spec and initial state.

    Requires a three-site spec and a unit-norm three-site state. Raises if
    both renormalized couplings vanish (drive amplitudes at J_0 zeros on
    both ends), where the averaged model freezes.
    """
    if spec.n_sites != 3:
        raise ValidationError("the averaged model is defined for n_sites=3 only")
    j01 = bessel_j(0, spec.a1 / spec.omega)
    j02 = bessel_j(0, spec.a2 / spec.omega)
    b0 = require_state("initial state", initial.amplitudes, 3)
    s = j01 * j01 + j02 * j02
    if s < 1e-20:
        raise ValidationError(
            "both boundary couplings are renormalized to (numerically) zero; "
            "the averaged dynamics is frozen"
        )
    from_site1 = bool(
        abs(b0[0] - 1.0) < 1e-12 and abs(b0[1]) < 1e-12 and abs(b0[2]) < 1e-12
    )
    return EffectiveParams(
        j01=j01,
        j02=j02,
        k_rate=spec.omega0 * math.sqrt(s),
        from_site1=from_site1,
    )


def analytic_p1(params: EffectiveParams, t):
    """Site-1 occupation probability of the averaged model.

    Valid only for constants captured from the initial state (1, 0, 0),
    where |b1|^2 = (J02^2/S + (J01^2/S) cos(K t))^2 with S = J01^2 + J02^2.
    Accepts scalar or array ``t``; the result has period 2 pi / K.
    """
    if not params.from_site1:
        raise ValidationError(
            "analytic_p1 requires constants captured from the (1, 0, 0) state"
        )
    s = params.j01**2 + params.j02**2
    inner = params.j02**2 / s + (params.j01**2 / s) * np.cos(
        params.k_rate * np.asarray(t, dtype=float)
    )
    return inner**2

