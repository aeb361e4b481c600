"""Independent checks for the benchmark's workloads.

The reference side of every check here is computed without the package's
numerics: the one-period operator comes from ``scipy.integrate.solve_ivp``
(DOP853) and from this module's own RK4 written as per-step matrices,
Min(P1) from eigen-powers of the operator, branch matching from
``scipy.optimize.linear_sum_assignment`` and the averaged-model P1 from a
quadrature J0. Only documented constants are taken from the package.

Every bound is derived from the method that produced the value:

* ``OperatorReference.bound``: RK4 is fourth order, so its error at step h is
  (16/15) |U_h - U_{h/2}| to leading order (step halving). The estimate is
  accurate to O(h |H|) <= 2 % at h = T/2000 on these drives; the factor 2
  covers that next-order term. The DOP853 reference's own error is bounded
  by its distance to a solve at a ten times looser tolerance, and rounding
  by 4 stages x steps x n units in the last place.
* quasi-energies: an eigenvalue of a perturbed normal matrix moves by at
  most the perturbation's norm (Bauer-Fike), i.e. its phase by
  2 asin(|dU| / 2).
* Min(P1) and population series: the package folds the same RK4
  discretisation, so it may differ from the eigen-power evaluation only by
  rounding, carried through ``periods`` products.
* matching: the package may pick any assignment within OVERLAP_AMBIGUITY
  of the optimum (it breaks near-ties by quasi-energy proximity).
* averaged P1: the package's J0 carries at most ABS_ERROR_BOUND, carried
  through the closed form by its partial derivatives.

Every comparison is written so that NaN fails it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from floquet_lattice.floquet import OVERLAP_AMBIGUITY
from floquet_lattice.propagator import NORM_FAILURE_BOUND
from floquet_lattice.specfun import ABS_ERROR_BOUND

ULP = np.finfo(float).eps
# First two positive zeros of J0 (Abramowitz & Stegun, table 9.5).
J0_ZEROS = (2.404825557695773, 5.520078110286311)
MIN_P1_NEAR_ZERO = 0.05
QUADRATURE_POINTS = 256
POWER_CHUNK = 250  # periods per eigen-power block: (steps + 1) x 250 amplitudes


def within(diff, bound) -> bool:
    """True when every |diff| <= bound; NaN anywhere makes it False."""
    return bool(np.all(np.abs(diff) <= bound))


def in_range(values, lo, hi, open_lo=False) -> bool:
    values = np.asarray(values)
    lower = values > lo if open_lo else values >= lo
    return bool(np.all(lower & (values <= hi)))


# ---------------------------------------------------------------------------
# One-period operators


def _hamiltonian_parts(spec):
    """(static couplings, drive diagonal) with H(t) = H0 + cos(omega t) D."""
    n = spec.n_sites
    h0 = np.zeros((n, n))
    for j in range(n - 1):
        h0[j, j + 1] = h0[j + 1, j] = spec.omega0
    for j in range(n - 2):
        h0[j, j + 2] = h0[j + 2, j] = spec.nu0
    drive = np.zeros((n, n))
    drive[0, 0] += spec.a1
    drive[-1, -1] += spec.a2
    return h0, drive


def rk4_step_matrices(spec, steps: int) -> np.ndarray:
    """(steps, n, n) matrices R_k with y_{k+1} = R_k y_k for classical RK4.

    H is linear in the state, so one RK4 step is the stability polynomial
    I + h/6 (A0 + 2 K2 + 2 K3 + K4) with A = -i H at the three nodes.
    """
    h0, drive = _hamiltonian_parts(spec)
    n = spec.n_sites
    h = spec.period / steps
    t = np.arange(steps) * h

    def a_at(times):
        c = np.cos(spec.omega * times)[:, None, None]
        return -1j * (h0 + c * drive)

    a0, am, a1 = a_at(t), a_at(t + 0.5 * h), a_at(t + h)
    eye = np.eye(n)
    k2 = am @ (eye + 0.5 * h * a0)
    k3 = am @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    return eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_operator(spec, steps: int, site: int | None = None):
    """U = R_{steps-1} ... R_0, plus the given site's row of every prefix."""
    mats = rk4_step_matrices(spec, steps)
    v = np.eye(spec.n_sites, dtype=complex)
    rows = None
    if site is not None:
        rows = np.empty((steps + 1, spec.n_sites), dtype=complex)
        rows[0] = v[site - 1]
    for k in range(steps):
        v = mats[k] @ v
        if rows is not None:
            rows[k + 1] = v[site - 1]
    return v, rows


def dop853_operator(spec, tol: float) -> np.ndarray:
    """One-period operator from an adaptive DOP853 solve of i U' = H(t) U."""
    h0, drive = _hamiltonian_parts(spec)
    n = spec.n_sites

    def rhs(t, y):
        return (-1j * (h0 + math.cos(spec.omega * t) * drive)
                @ y.reshape(n, n)).ravel()

    sol = solve_ivp(rhs, (0.0, spec.period), np.eye(n, dtype=complex).ravel(),
                    method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[:, -1].reshape(n, n)


class OperatorReference:
    """Reference one-period operator of one spec, with the RK4 error bound.

    ``bound`` bounds |U_rk4 - U_exact|_F for the package's RK4 at ``steps``
    per period; ``anchor_ok`` records that this module's RK4 agrees with
    the DOP853 solve within that bound.
    """

    def __init__(self, spec, steps: int, site: int | None = None):
        self.spec = spec
        self.steps = steps
        self.rk4, self.rows = rk4_operator(spec, steps, site)
        half, _ = rk4_operator(spec, 2 * steps)
        self.exact = dop853_operator(spec, 1e-13)
        ref_error = np.linalg.norm(dop853_operator(spec, 1e-12) - self.exact)
        self.rounding = 4.0 * steps * spec.n_sites * ULP
        richardson = (16.0 / 15.0) * np.linalg.norm(self.rk4 - half)
        self.bound = 2.0 * richardson + ref_error + self.rounding
        self.anchor_ok = within(
            np.linalg.norm(self.rk4 - self.exact), self.bound)
        lam, self.vectors = np.linalg.eig(self.exact)
        self.quasienergies = -np.angle(lam) * spec.omega / (2.0 * math.pi)

    def quasienergy_bound(self) -> float:
        """Largest quasi-energy shift an operator error of ``bound`` allows."""
        phase = 2.0 * math.asin(min(1.0, 0.5 * self.bound))
        return phase * self.spec.omega / (2.0 * math.pi)


def circular_distance(a, b, omega: float):
    d = np.abs(np.asarray(a) - np.asarray(b)) % omega
    return np.minimum(d, omega - d)


def quasienergies_match(eps, ref: OperatorReference) -> bool:
    """Package quasi-energies of one point against the reference operator.

    The two sets are paired by an optimal assignment on circular distance,
    so near-degenerate pairs cannot be matched crosswise.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != ref.quasienergies.shape or not np.all(np.isfinite(eps)):
        return False
    cost = circular_distance(eps[:, None], ref.quasienergies[None, :],
                             ref.spec.omega)
    rows, cols = linear_sum_assignment(cost)
    return within(cost[rows, cols], ref.quasienergy_bound())


def reference_gap(ref: OperatorReference, vec_a, vec_b) -> float:
    """Gap of the two reference modes that overlap most with vec_a, vec_b."""
    vecs = ref.vectors
    ov_a = np.abs(vecs.conj().T @ vec_a)
    ov_b = np.abs(vecs.conj().T @ vec_b)
    ia = int(np.argmax(ov_a))
    ov_b[ia] = -1.0
    ib = int(np.argmax(ov_b))
    eps = ref.quasienergies
    return float(circular_distance(eps[ia], eps[ib], ref.spec.omega))


# ---------------------------------------------------------------------------
# Min(P1) from eigen-powers


class EigenPowers:
    """Site amplitudes at every integrator step from eigen-powers of U.

    a(tau_s + m T) = r_s . U^m a0 = (r_s W) diag(lambda^m) W^{-1} a0, with
    (lambda, W) from numpy.linalg.eig, replaces the repeated products. r_s
    is row ``site`` of the reference RK4's prefix product after s steps.
    """

    def __init__(self, op: OperatorReference, site: int):
        n = op.spec.n_sites
        self.op = op
        self.anchor_ok = op.anchor_ok
        self.lam, w = np.linalg.eig(op.rk4)
        a0 = np.zeros(n, dtype=complex)
        a0[site - 1] = 1.0
        self.c = np.linalg.solve(w, a0)
        self.b = op.rows @ w
        self.cond = np.linalg.cond(w)

    def _amplitudes(self, b, periods):
        """b @ U^m a0 for m in ``periods``, one column per period."""
        return b @ (self.lam[:, None] ** periods[None, :] * self.c[:, None])

    def population_bound(self, periods: int) -> float:
        """Largest rounding difference of a population after ``periods``.

        The package's and this module's RK4 products differ by op.rounding
        per period; that difference, the package's repeated products and the
        eigen-power evaluation (scaled by cond(W)) are carried through
        ``periods`` periods, then squared into P = |a|^2.
        """
        n = self.op.spec.n_sites
        amp_err = ((periods + 1) * self.op.rounding
                   + (self.cond + 1.0) * (periods + 2 * n) * n * ULP)
        return 2.0 * amp_err + amp_err**2

    def min_population(self, periods: int) -> float:
        """Min over every integrator step of ``periods`` periods."""
        value = math.inf
        for start in range(0, periods, POWER_CHUNK):
            m = np.arange(start, min(periods, start + POWER_CHUNK))
            amp = self._amplitudes(self.b, m)
            value = min(value, float(np.min(amp.real**2 + amp.imag**2)))
        return value

    def population_series(self, periods: int, stride: int):
        """(times, populations) at every ``stride``-th step, then t = periods T.

        Samples run period by period, each from its start up to the step
        before the next period's start, as the package writes them.
        """
        steps = self.op.steps
        amp = self._amplitudes(self.b[:-1:stride], np.arange(periods))
        final = self._amplitudes(self.b[-1:], np.array([periods - 1]))
        pops = np.concatenate([amp.flatten(order="F"), final[0]])
        pops = pops.real**2 + pops.imag**2
        h = self.op.spec.period / steps
        times = np.arange(pops.size, dtype=float) * (h * stride)
        times[-1] = periods * self.op.spec.period
        return times, pops


def series_matches(rows, powers: EigenPowers, periods: int, stride: int,
                   a2: float | None = None) -> bool:
    """Rows (t, p1) or (t, a2, p1) of a population series against powers.

    Times and a2 are written in shortest round-trip form, so they may differ
    from the reference only by the rounding of the product that made them.
    """
    rows = np.asarray(rows, dtype=float)
    times, pops = powers.population_series(periods, stride)
    width = 2 if a2 is None else 3
    if rows.shape != (times.size, width):
        return False
    ok = within(rows[:, 0] - times, 4 * ULP * times[-1])
    if a2 is not None:
        ok &= within(rows[:, 1] - a2, 4 * ULP * abs(a2))
    return ok and within(rows[:, -1] - pops, powers.population_bound(periods))


class MinP1Reference:
    """Min over every integrator step of |a_site|^2, with its rounding bound."""

    def __init__(self, op: OperatorReference, site: int, periods: int):
        self.powers = EigenPowers(op, site)
        self.value = self.powers.min_population(periods)
        self.bound = self.powers.population_bound(periods)
        self.anchor_ok = op.anchor_ok


# ---------------------------------------------------------------------------
# Branch matching


def matching_is_optimal(prev_vectors, next_vectors) -> bool:
    """The identity pairing of consecutive branch vectors is optimal.

    Rows of each argument are the branch vectors at one grid point, in
    branch order. The package's pairing must reach the overlap optimum
    within OVERLAP_AMBIGUITY, plus the rounding of an n-term sum.
    """
    overlap = np.abs(np.asarray(prev_vectors).conj() @ np.asarray(next_vectors).T)
    if not np.all(np.isfinite(overlap)):
        return False
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    n = overlap.shape[0]
    shortfall = overlap[rows, cols].sum() - np.trace(overlap)
    return within(shortfall, OVERLAP_AMBIGUITY + 2 * n * ULP)


def population_sums_ok(avg_populations) -> bool:
    """Averaged populations of every mode sum to 1 within the norm gate."""
    sums = np.sum(np.asarray(avg_populations), axis=-1)
    return within(sums - 1.0, NORM_FAILURE_BOUND)


# ---------------------------------------------------------------------------
# Averaged three-site model


def j0_quadrature(x):
    """J0(x) = (1/pi) int_0^pi cos(x sin tau) d tau by the trapezoid rule.

    The integrand has period pi, so the rule with M = QUADRATURE_POINTS
    intervals errs by 2 sum_k J_{2kM}(x), led by 2 J_{2M}(x) <=
    2 (e |x| / 4M)^{2M}: far below rounding for |x| <= 60.
    """
    tau = np.linspace(0.0, math.pi, QUADRATURE_POINTS + 1)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f = np.cos(x[:, None] * np.sin(tau)[None, :])
    return np.trapezoid(f, tau, axis=1) / math.pi


def averaged_p1(omega0, j01, j02, t):
    """(P1, dP1/dJ01, dP1/dJ02) of the averaged chain from site 1.

    P1 = F^2, F = (J02^2 + J01^2 cos(K t)) / S, S = J01^2 + J02^2,
    K = omega0 sqrt(S).
    """
    s = j01**2 + j02**2
    k = omega0 * np.sqrt(s)
    cos_kt, sin_kt = np.cos(k * t), np.sin(k * t)
    f = (j02**2 + j01**2 * cos_kt) / s
    df_dk = -(j01**2 / s) * sin_kt * t
    df_d1 = (2 * j01 * cos_kt * s - (j02**2 + j01**2 * cos_kt) * 2 * j01) / s**2 \
        + df_dk * omega0 * j01 / np.sqrt(s)
    df_d2 = (2 * j02 * s - (j02**2 + j01**2 * cos_kt) * 2 * j02) / s**2 \
        + df_dk * omega0 * j02 / np.sqrt(s)
    return f**2, 2 * f * df_d1, 2 * f * df_d2


def heatmap_matches_closed_form(rows, spec) -> bool:
    """Rows (t, a2, p1) of an averaged-model heatmap against the closed form.

    The allowed deviation is the package's J0 error carried through the
    partial derivatives, doubled for second-order terms, plus rounding.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] == 0:
        return False
    t, a2, p1 = rows.T
    j01 = float(j0_quadrature(spec.a1 / spec.omega)[0])
    a2_values, inverse = np.unique(a2, return_inverse=True)
    j02 = j0_quadrature(a2_values / spec.omega)[inverse]
    expected, d1, d2 = averaged_p1(spec.omega0, j01, j02, t)
    bound = 2.0 * (np.abs(d1) + np.abs(d2)) * ABS_ERROR_BOUND + 64 * ULP
    return within(p1 - expected, bound)


def min_p1_dips_at_zeros(ratios, min_p1) -> bool:
    """Min(P1) < 0.05 at every grid point within one cell of z1 and z2.

    At a J0 zero the right boundary decouples in the averaged model and
    site 1 empties completely; 0.05 is the criterion the package's
    acceptance suite states for this landscape.
    """
    ratios = np.asarray(ratios, dtype=float)
    min_p1 = np.asarray(min_p1, dtype=float)
    cell = (ratios[-1] - ratios[0]) / (ratios.size - 1)
    for z in J0_ZEROS:
        near = np.abs(ratios - z) <= cell * (1.0 + 1e-9)
        if not near.any() or not np.all(min_p1[near] < MIN_P1_NEAR_ZERO):
            return False
    return True
