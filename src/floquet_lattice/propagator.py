"""Time-domain propagation of i da/dt = H(t) a.

The integrator is a fixed-step classical Runge-Kutta (4th order) with the
step tied to the drive period, h = T / steps_per_period. States are rows of
a (batch, n_sites) array so independent systems (scan points, basis columns)
advance in lockstep. Every per-row arithmetic path is slice-based and
batch-size independent, which makes results bitwise identical no matter how
a workload is chunked across workers.

Because H is T-periodic and steps are period-commensurate, a horizon of M
periods factors through the one-period map: a(m T + tau) = V(tau) U^m a(0).
The folded helpers below exploit that to evaluate long-horizon population
series and minima at a fraction of the step count; they compose exactly the
same RK4 one-step maps, so they agree with direct stepping to rounding.

Every one-period quantity goes through one primitive, ``basis_sweep``: it
propagates the site basis over one period for a batch of a2 values and
returns the one-period operators U(T, 0). ``monodromy``, ``one_period_table``,
``propagation_norm_drift`` and branch tracking all call it; the only other
users of the stepping kernel are ``propagate`` (the direct step loop, kept as
the reference the folded paths are tested against) and ``period_average``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, ValidationError
from .model import SystemSpec

# Hard failure bound on |sum_j |a_j|^2 - 1| during stepping. Exceeding it
# means the step size is too coarse for the drive amplitude in play.
NORM_FAILURE_BOUND = 1e-6

# Tolerance for user-supplied initial states.
STATE_NORM_TOL = 1e-9

DEFAULT_STEPS_PER_PERIOD = 2000
MIN_STEPS_PER_PERIOD = 100


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes on the site basis at a single time."""

    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 2:
            raise ValidationError("state must be a vector of >= 2 amplitudes")

    @property
    def n_sites(self) -> int:
        return self.amplitudes.size

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def basis_state(n_sites: int, site: int) -> StateVector:
    """Unit amplitude on one site (1-based index), zero elsewhere."""
    if site < 1 or site > n_sites:
        raise ValidationError(f"site must be in [1, {n_sites}], got {site}")
    amps = np.zeros(n_sites, dtype=complex)
    amps[site - 1] = 1.0
    return StateVector(amplitudes=amps, time=0.0)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution of the driven-chain evolution.

    ``min_populations`` holds, per site, the minimum of |a_j|^2 over every
    integrator step of the run (not just the stored samples), so stride
    decimation never hides an intra-stride dip. ``max_norm_deviation`` is the
    worst |norm^2 - 1| seen at any step.
    """

    spec: SystemSpec
    times: np.ndarray
    amplitudes: np.ndarray
    step_size: float
    steps_per_period: int
    stride: int
    min_populations: np.ndarray
    max_norm_deviation: float

    @property
    def n_samples(self) -> int:
        return self.times.size

    def state(self, i: int) -> StateVector:
        return StateVector(amplitudes=self.amplitudes[i], time=float(self.times[i]))


# ---------------------------------------------------------------------------
# RK4 kernel


def _rhs(out, y, cos_t, omega0, nu0, amps):
    """out = -i H(t) y for row states y (B, n); amps is (B, 2) edge drive."""
    out[:, :] = 0.0
    out[:, 1:] += y[:, :-1]
    out[:, :-1] += y[:, 1:]
    if omega0 != 1.0:
        out *= omega0
    if nu0 != 0.0:
        out[:, 2:] += nu0 * y[:, :-2]
        out[:, :-2] += nu0 * y[:, 2:]
    out[:, 0] += (cos_t * amps[:, 0]) * y[:, 0]
    out[:, -1] += (cos_t * amps[:, 1]) * y[:, -1]
    out *= -1j
    return out


def _rk4_advance(y, amps, omega0, nu0, omega, h, nsteps, t0=0.0, on_step=None):
    """Advance row states in place by nsteps; returns max norm deviation.

    ``on_step(i, y)`` is invoked with the state at sample index i (before the
    i-th step), and once more with (nsteps, y) after the final step. Rows are
    assumed to be unit-norm states; the hard NORM_FAILURE_BOUND is enforced
    at every step; a NaN or infinite norm fails it too.
    """
    k1 = np.empty_like(y)
    k2 = np.empty_like(y)
    k3 = np.empty_like(y)
    k4 = np.empty_like(y)
    tmp = np.empty_like(y)
    max_dev = 0.0
    for i in range(nsteps):
        if on_step is not None:
            on_step(i, y)
        t = t0 + i * h
        _rhs(k1, y, math.cos(omega * t), omega0, nu0, amps)
        np.multiply(k1, 0.5 * h, out=tmp)
        tmp += y
        cos_mid = math.cos(omega * (t + 0.5 * h))
        _rhs(k2, tmp, cos_mid, omega0, nu0, amps)
        np.multiply(k2, 0.5 * h, out=tmp)
        tmp += y
        _rhs(k3, tmp, cos_mid, omega0, nu0, amps)
        np.multiply(k3, h, out=tmp)
        tmp += y
        _rhs(k4, tmp, math.cos(omega * (t + h)), omega0, nu0, amps)
        k2 += k3
        k2 *= 2.0
        k1 += k4
        k1 += k2
        k1 *= h / 6.0
        y += k1
        dev = float(np.max(np.abs(np.sum(y.real**2 + y.imag**2, axis=1) - 1.0)))
        if not (dev <= NORM_FAILURE_BOUND):
            raise IntegrationFailure(
                f"norm drift {dev:.3e} exceeds {NORM_FAILURE_BOUND:.0e} "
                f"at t={t + h!r}; increase steps_per_period",
                time=t + h,
            )
        if dev > max_dev:
            max_dev = dev
    if on_step is not None:
        on_step(nsteps, y)
    return max_dev


def _edge_amps(spec: SystemSpec, batch: int) -> np.ndarray:
    amps = np.empty((batch, 2))
    amps[:, 0] = spec.a1
    amps[:, 1] = spec.a2
    return amps


def _step_size(spec: SystemSpec, steps_per_period) -> float:
    """h = T / steps_per_period, after checking steps_per_period."""
    if (isinstance(steps_per_period, bool)
            or not isinstance(steps_per_period, (int, np.integer))
            or steps_per_period < MIN_STEPS_PER_PERIOD):
        raise ValidationError(
            f"steps_per_period must be an integer >= {MIN_STEPS_PER_PERIOD}, "
            f"got {steps_per_period!r}"
        )
    return spec.period / steps_per_period


def basis_sweep(spec: SystemSpec, a2_values, steps_per_period: int,
                on_step=None):
    """Propagate the site basis over one period at every a2 in ``a2_values``.

    The other fields of ``spec`` are shared by all points. Returns the
    (points, n, n) stack of one-period operators U(T, 0) and the worst norm
    deviation of any basis image at any step. ``on_step(i, y)`` sees the
    (points * n, n) batch at every step as in _rk4_advance: rows
    p*n .. p*n + n - 1 are the images of the n basis states at point p, i.e.
    U_p transposed.
    """
    h = _step_size(spec, steps_per_period)
    n = spec.n_sites
    y = np.tile(np.eye(n, dtype=complex), (np.size(a2_values), 1))
    amps = _edge_amps(spec, y.shape[0])
    amps[:, 1] = np.repeat(a2_values, n)
    max_dev = _rk4_advance(y, amps, spec.omega0, spec.nu0, spec.omega, h,
                           steps_per_period, on_step=on_step)
    return y.reshape(-1, n, n).transpose(0, 2, 1), max_dev


def period_average(spec: SystemSpec, a2_values, vectors: np.ndarray,
                   steps_per_period: int) -> np.ndarray:
    """Trapezoid one-period average of |a_j(t)|^2 starting from ``vectors``.

    ``vectors`` is (points, modes, n); every row of point p evolves at
    a2_values[p] and the other fields of ``spec``. Returns (points, modes, n).
    """
    h = _step_size(spec, steps_per_period)
    p, m, n = vectors.shape
    y = np.array(vectors, dtype=complex).reshape(p * m, n)
    acc = 0.5 * (y.real**2 + y.imag**2)

    def accumulate(i, yy):
        if 0 < i < steps_per_period:
            np.add(acc, yy.real**2 + yy.imag**2, out=acc)
        elif i == steps_per_period:
            np.add(acc, 0.5 * (yy.real**2 + yy.imag**2), out=acc)

    amps = _edge_amps(spec, p * m)
    amps[:, 1] = np.repeat(a2_values, m)
    _rk4_advance(y, amps, spec.omega0, spec.nu0, spec.omega, h,
                 steps_per_period, on_step=accumulate)
    return (acc / steps_per_period).reshape(p, m, n)


# ---------------------------------------------------------------------------
# Public propagation


def propagate(
    spec: SystemSpec,
    initial: StateVector,
    t_final: float,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
    stride: int = 1,
) -> Trajectory:
    """Integrate the driven chain from ``initial`` up to ``t_final``.

    The horizon is rounded to the nearest whole step h = T/steps_per_period.
    With ``stride`` > 1 only every stride-th sample is stored (it must divide
    the total step count); minima and the norm check still see every step.

    Raises IntegrationFailure if the norm drifts beyond the hard bound at
    any step, carrying the offending time.
    """
    if initial.n_sites != spec.n_sites:
        raise ValidationError(
            f"initial state has {initial.n_sites} sites, spec has {spec.n_sites}"
        )
    if initial.norm_error() > STATE_NORM_TOL:
        raise ValidationError(
            f"initial state norm deviates by {initial.norm_error():.2e} "
            f"(tolerance {STATE_NORM_TOL:.0e})"
        )
    if t_final <= initial.time:
        raise ValidationError("t_final must exceed the initial time")
    h = _step_size(spec, steps_per_period)
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    nsteps = max(1, int(round((t_final - initial.time) / h)))
    if nsteps % stride != 0:
        raise ValidationError(
            f"stride {stride} must divide the total step count {nsteps}"
        )

    n_stored = nsteps // stride + 1
    stored = np.empty((n_stored, spec.n_sites), dtype=complex)
    min_pops = np.ones(spec.n_sites)

    def collect(i, y):
        np.minimum(min_pops, y.real[0] ** 2 + y.imag[0] ** 2, out=min_pops)
        if i % stride == 0:
            stored[i // stride] = y[0]

    y = initial.amplitudes[np.newaxis, :].copy()
    max_dev = _rk4_advance(
        y,
        _edge_amps(spec, 1),
        spec.omega0,
        spec.nu0,
        spec.omega,
        h,
        nsteps,
        t0=initial.time,
        on_step=collect,
    )
    times = initial.time + h * stride * np.arange(n_stored)
    return Trajectory(
        spec=spec,
        times=times,
        amplitudes=stored,
        step_size=h * stride,
        steps_per_period=steps_per_period,
        stride=stride,
        min_populations=min_pops,
        max_norm_deviation=max_dev,
    )


def _check_site(n_sites: int, site: int) -> int:
    if not isinstance(site, int) or isinstance(site, bool):
        raise ValidationError(f"site must be an integer, got {site!r}")
    if site < 1 or site > n_sites:
        raise ValidationError(f"site must be in [1, {n_sites}], got {site}")
    return site - 1


def min_population(traj: Trajectory, site: int) -> float:
    """Minimum of |a_site|^2 over every integrator step of the run."""
    if traj.times.size == 0:
        raise ValidationError("trajectory is empty")
    return float(traj.min_populations[_check_site(traj.spec.n_sites, site)])


def site_population_series(traj: Trajectory, site: int):
    """(times, |a_site|^2) arrays over the stored samples."""
    j = _check_site(traj.spec.n_sites, site)
    return traj.times, np.abs(traj.amplitudes[:, j]) ** 2


# ---------------------------------------------------------------------------
# Period-folded evaluation (long horizons via the one-period map)


@dataclass(frozen=True)
class PeriodTable:
    """One-period propagation data for a batch of scan points.

    ``monodromies[b]`` is the one-period operator U_b. ``site_rows[s, b, :]``
    are coefficients c with a_site(tau_s) = c . a(0) for point b, at each of
    the steps_per_period + 1 intra-period sample times.
    """

    monodromies: np.ndarray
    site_rows: np.ndarray
    steps_per_period: int
    period: float
    max_norm_deviation: float


def one_period_table(
    base_spec: SystemSpec,
    a2_values: np.ndarray,
    steps_per_period: int,
    site: int = 1,
) -> PeriodTable:
    """Propagate the full basis over one period for many a2 values at once."""
    n = base_spec.n_sites
    col = _check_site(n, site)
    b = np.size(a2_values)
    _step_size(base_spec, steps_per_period)  # checked before it sizes rows
    rows = np.empty((steps_per_period + 1, b, n), dtype=complex)

    def collect(i, y):
        rows[i] = y[:, col].reshape(b, n)

    monodromies, max_dev = basis_sweep(base_spec, a2_values, steps_per_period,
                                       on_step=collect)
    return PeriodTable(
        monodromies=monodromies.copy(),
        site_rows=rows,
        steps_per_period=steps_per_period,
        period=base_spec.period,
        max_norm_deviation=max_dev,
    )


def _period_starts(u: np.ndarray, a0: np.ndarray, periods: int,
                   period: float) -> tuple[np.ndarray, float]:
    """(columns w_m = U^m a0 for m = 0..periods, their worst norm drift);
    a drift above NORM_FAILURE_BOUND, or NaN, raises IntegrationFailure."""
    n = a0.size
    w = np.empty((n, periods + 1), dtype=complex)
    cur = a0.astype(complex)
    for m in range(periods + 1):
        w[:, m] = cur
        cur = u @ cur
    drift = float(np.max(np.abs(np.sum(w.real**2 + w.imag**2, axis=0) - 1.0)))
    if not (drift <= NORM_FAILURE_BOUND):
        raise IntegrationFailure(
            f"norm drift {drift:.3e} exceeds {NORM_FAILURE_BOUND:.0e} "
            "across periods; increase steps_per_period",
            time=periods * period,
        )
    return w, drift


def folded_min_population(
    table: PeriodTable, point: int, initial: np.ndarray, periods: int
) -> tuple[float, float]:
    """(min |a_site|^2 over every step of ``periods`` periods, norm deviation).

    Exactly the RK4 evolution of ``initial``, evaluated through powers of the
    one-period map instead of re-stepping every period. The sample set covers
    every integrator step from t=0 through t = periods * T inclusive.
    """
    w, drift = _period_starts(table.monodromies[point], initial, periods,
                              table.period)
    p = np.abs(table.site_rows[:, point, :] @ w[:, :periods]) ** 2
    return float(p.min()), max(drift, table.max_norm_deviation)


def folded_population_series(
    table: PeriodTable,
    point: int,
    initial: np.ndarray,
    periods: int,
    stride: int = 1,
):
    """(times, populations) of the observed site over ``periods`` periods.

    Samples every ``stride``-th integrator step plus the final time; stride
    must divide steps_per_period.
    """
    spp = table.steps_per_period
    if spp % stride != 0:
        raise ValidationError(f"stride {stride} must divide {spp}")
    if periods < 1:
        raise ValidationError("periods must be >= 1")
    w, _ = _period_starts(table.monodromies[point], initial, periods,
                          table.period)
    rows = table.site_rows[::stride, point, :]      # (spp/stride + 1, n)
    amp = rows[:-1] @ w[:, :periods]                # (s, m) samples
    pops = np.abs(amp) ** 2
    series = pops.flatten(order="F")
    h = table.period / spp
    times = np.arange(series.size) * (h * stride)
    # final sample at t = periods * T
    last_row = table.site_rows[-1, point, :]
    final = float(np.abs(last_row @ w[:, periods - 1]) ** 2)
    times = np.concatenate([times, [periods * table.period]])
    series = np.concatenate([series, [final]])
    return times, series


def propagation_norm_drift(
    spec: SystemSpec,
    periods: int,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
    initial_site: int = 1,
) -> float:
    """Max |norm^2 - 1| over every integrator step of a ``periods``-long run.

    Uses the folded decomposition with the full one-period state table, so
    the check covers each intra-period sample of each period without
    re-stepping the whole horizon. Like ``propagate`` over the same horizon,
    it raises IntegrationFailure once the drift passes NORM_FAILURE_BOUND.
    """
    n = spec.n_sites
    _step_size(spec, steps_per_period)  # checked before it sizes tables
    tables = np.empty((steps_per_period + 1, n, n), dtype=complex)

    def collect(i, y):
        tables[i] = y

    (u,), _ = basis_sweep(spec, [spec.a2], steps_per_period, on_step=collect)
    a0 = basis_state(n, initial_site).amplitudes
    w, _ = _period_starts(u, a0, periods, spec.period)
    # a(m T + tau_s) = tables[s]^T w_m; norms over the whole (s, m) grid.
    states = np.matmul(tables.transpose(0, 2, 1), w[:, :periods])
    norms = np.sum(states.real**2 + states.imag**2, axis=1)
    dev = float(np.max(np.abs(norms - 1.0)))
    final_dev = float(abs(np.sum(np.abs(w[:, periods]) ** 2) - 1.0))
    return max(dev, final_dev)
