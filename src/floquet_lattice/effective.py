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
directly to the numerical propagation. This module solves the averaged
system in closed form and serves as an independent oracle for the
integrator at large omega. Second-order coupling is not included.
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
    """Renormalized couplings and solution constants of the averaged model.

    ``k_rate`` is the slow oscillation angular frequency
    omega0 * sqrt(J01^2 + J02^2). ``c1``, ``c2``, ``c3`` parametrize the
    closed-form solution for the initial state captured at construction;
    ``gamma`` is the amplitude of the stationary component proportional to
    (J02, 0, -J01), kept separately so the solution stays well defined when
    J01 = 0 (where c1 = -gamma * J01 carries no information).
    """

    omega0: float
    j01: float
    j02: float
    k_rate: float
    c1: complex
    c2: complex
    c3: complex
    gamma: complex
    from_site1: bool


def _solve_constants(omega0: float, j01: float, j02: float,
                     initial: StateVector) -> EffectiveParams:
    b0 = require_state("initial state", initial.amplitudes, 3)
    s = j01 * j01 + j02 * j02
    if s < 1e-20:
        raise ValidationError(
            "both boundary couplings are renormalized to (numerically) zero; "
            "the averaged dynamics is frozen and has no solution constants"
        )
    root_s = math.sqrt(s)
    gamma = (j02 * b0[0] - j01 * b0[2]) / s
    c3 = -1j * (j01 * b0[0] + j02 * b0[2]) / root_s
    from_site1 = bool(
        abs(b0[0] - 1.0) < 1e-12 and abs(b0[1]) < 1e-12 and abs(b0[2]) < 1e-12
    )
    return EffectiveParams(
        omega0=omega0,
        j01=j01,
        j02=j02,
        k_rate=omega0 * root_s,
        c1=complex(-gamma * j01),
        c2=complex(b0[1]),
        c3=complex(c3),
        gamma=complex(gamma),
        from_site1=from_site1,
    )


def effective_params(spec: SystemSpec, initial: StateVector) -> EffectiveParams:
    """Closed-form solution constants for the given spec and initial state.

    Requires a three-site spec. Raises if both renormalized couplings vanish
    (drive amplitudes at J_0 zeros on both ends), where the averaged model
    freezes and the constants are undefined.
    """
    if spec.n_sites != 3:
        raise ValidationError("the averaged model is defined for n_sites=3 only")
    j01 = bessel_j(0, spec.a1 / spec.omega)
    j02 = bessel_j(0, spec.a2 / spec.omega)
    return _solve_constants(spec.omega0, j01, j02, initial)


def _evaluate(params: EffectiveParams, t):
    """Closed-form b(t); t may be a scalar or an array."""
    t = np.asarray(t, dtype=float)
    root_s = math.sqrt(params.j01**2 + params.j02**2)
    kt = params.k_rate * t
    osc = params.c2 * np.sin(kt) - params.c3 * np.cos(kt)
    b1 = params.gamma * params.j02 - 1j * (params.j01 / root_s) * osc
    b2 = params.c2 * np.cos(kt) + params.c3 * np.sin(kt)
    b3 = -params.gamma * params.j01 - 1j * (params.j02 / root_s) * osc
    return np.stack([b1, b2, b3], axis=-1)


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


@dataclass(frozen=True)
class RotatingTrajectory:
    """Sampled closed-form solution in the averaged (rotating) frame."""

    times: np.ndarray
    amplitudes: np.ndarray


def effective_propagate(
    params: EffectiveParams,
    initial: StateVector,
    t_final: float,
    n_samples: int = 1001,
) -> RotatingTrajectory:
    """Evaluate the closed form for ``initial`` on a uniform time grid.

    No numerical integration is involved; the norm is conserved exactly up
    to rounding. Constants are re-solved for the supplied initial state, so
    ``params`` only needs to carry the couplings.
    """
    if t_final <= 0.0:
        raise ValidationError("t_final must be positive")
    if n_samples < 2:
        raise ValidationError("n_samples must be >= 2")
    solved = _solve_constants(params.omega0, params.j01, params.j02, initial)
    times = np.linspace(0.0, t_final, n_samples)
    return RotatingTrajectory(times=times, amplitudes=_evaluate(solved, times))
