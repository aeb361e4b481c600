"""Time-domain propagation of i da/dt = H(t) a.

The integrator is a fixed-step classical Runge-Kutta (4th order) with the
step tied to the drive period, h = T / steps_per_period.

Because H is T-periodic and steps are period-commensurate, a horizon of M
periods factors through the one-period map: a(m T + tau) = V(tau) U^m a(0).
The folded helpers below exploit that to evaluate long-horizon population
series and minima at a fraction of the step count; they compose exactly the
same RK4 one-step maps, so they agree with direct stepping to rounding.

Every one-period quantity goes through the step-matrix kernel. The equation
is linear, so one RK4 step is multiplication by a fixed n x n matrix R_k, the
RK4 stability polynomial of the step. Only H's (N, N) entry depends on a2,
so R_k(a2) = sum_j a2^j C_kj, j = 0..4, with coefficients shared by every
scan point. ``_sweep`` carries a (points, k, n) stack of row states over
one period: per block of steps it builds the coefficients, evaluates every
point's R_k by Horner's rule and applies them with one ``np.matmul`` per
step; the norm gate reads the norms of a block's states in one reduction.
Each buffer it allocates (a block's coefficients, step matrices or states)
is sized from one byte budget, CHUNK_BYTES, so memory stays flat in the
step count and the batch width. A point's result is the same for any
batch size: its arithmetic is elementwise or one matrix product of its own,
and the coefficient blocks depend on n and the step count alone. That is
what makes worker-count invariance exact.

``basis_sweep`` starts the sweep from the site basis and returns the
one-period operators U(T, 0); ``monodromy``, ``one_period_table``,
``propagation_norm_drift`` and branch tracking call it. ``period_average``
starts it from mode vectors. ``propagate`` keeps the direct step loop
(``_rk4_advance``, row states advanced by slice arithmetic) as the
independent reference the kernel and the folded paths are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, ValidationError
from .model import SystemSpec, static_hamiltonian

# Hard failure bound on |sum_j |a_j|^2 - 1| during stepping. Exceeding it
# means the step size is too coarse for the drive amplitude in play.
NORM_FAILURE_BOUND = 1e-6

# Tolerance for user-supplied initial states.
STATE_NORM_TOL = 1e-9

DEFAULT_STEPS_PER_PERIOD = 2000
MIN_STEPS_PER_PERIOD = 100

# Byte budget of each buffer of the step-matrix kernel: a block's step
# coefficients, and its step matrices and states at every point.
CHUNK_BYTES = 1 << 18


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


# ---------------------------------------------------------------------------
# Step-matrix kernel


def _step_coefficients(spec: SystemSpec, h: float, t: np.ndarray,
                       work: np.ndarray | None = None) -> np.ndarray:
    """(5, L, n, n) transposed coefficients C_j^T of the steps starting at t.

    One RK4 step of the linear equation da/dt = A(t) a, A = -i H, maps a to
    R a with

        R = I + h/6 (A0 + 2 K2 + 2 K3 + K4),  K2 = Am (I + h/2 A0),
        K3 = Am (I + h/2 K2),  K4 = A1 (I + h K3),

    A0, Am, A1 taken at t, t + h/2, t + h. A = M + c (P + a2 Q) with
    M = -i H0 and the one-entry drive matrices P (-i a1 at site 1) and Q
    (-i at site N), so R = sum_j a2^j C_j, j = 0..4, with coefficients
    shared by every scan point. They are built transposed, as rows act:
    (A X)^T = X^T M^T + c X^T (P + a2 Q) is one matrix product over the
    whole block plus two column updates. ``work`` is (3, >= 5 L n n)
    scratch; the result is a view of work[0].
    """
    n, steps = spec.n_sites, t.size
    size = 5 * steps * n * n
    if work is None:
        work = np.empty((3, size), dtype=complex)
    acc, x, y = (buf[:size].reshape(5, steps, n, n) for buf in work)
    mt = -1j * static_hamiltonian(spec).T
    eye = np.eye(n)

    def a_times(src, dst, c):
        d = src.shape[0]
        np.matmul(src.reshape(-1, n), mt, out=dst[:d].reshape(-1, n))
        dst[d] = 0.0
        dst[:d, :, :, 0] += src[..., 0] * ((-1j * spec.a1) * c)[:, np.newaxis]
        dst[1:d + 1, :, :, -1] += src[..., -1] * (-1j * c)[:, np.newaxis]
        return dst[:d + 1]

    w = spec.omega
    c_mid = np.cos(w * (t + 0.5 * h))
    x[0] = eye
    k = a_times(x[:1], y, np.cos(w * t))
    acc[:2] = k
    acc[2:] = 0.0
    for dst, c, scale in ((x, c_mid, 0.5 * h), (y, c_mid, 0.5 * h),
                          (x, np.cos(w * (t + h)), h)):
        k *= scale
        k[0] += eye
        k = a_times(k, dst, c)
        d = k.shape[0]
        acc[:d] += k
        if d < 5:  # K2 and K3 enter twice
            acc[:d] += k
    acc *= h / 6.0
    acc[0] += eye
    return acc


def _step_matrices(coef: np.ndarray, a2: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """sum_j a2^j coef[j] for every step of ``coef`` and every a2, into
    ``out`` (L, points, n, n).

    Horner's rule on the real and imaginary parts: the same elementwise
    operations for every point, whatever the batch size.
    """
    cf = coef.view(np.float64)[:, :, np.newaxis]
    rf = out.view(np.float64)
    x = a2.reshape(1, -1, 1, 1)
    np.multiply(cf[4], x, out=rf)
    for j in (3, 2, 1):
        rf += cf[j]
        rf *= x
    rf += cf[0]
    return out


def _sweep(spec: SystemSpec, a2_values, y0: np.ndarray, steps_per_period: int,
           on_chunk=None):
    """Carry the (points, k, n) row states ``y0`` over one period.

    Point p evolves at a2_values[p] and the other fields of ``spec``. Steps
    go in blocks: the coefficients of a block of steps (blocks fixed by n
    and the step count alone), then, per sub-block of steps, the transposed
    step matrices of every point by Horner's rule and one ``np.matmul`` per
    step over the points. Every buffer is sized from CHUNK_BYTES. The norm
    gate reads the norms of every state of a sub-block in one reduction; the
    first failing step raises IntegrationFailure with its time.

    ``on_chunk(first, states)`` sees the states at sample indices first,
    first + 1, ... as a (samples, points, k, n) array: once with the initial
    states (first = 0), then after every sub-block. The array is reused, so
    the callback copies what it keeps. Returns (final states, worst norm
    deviation of any state at any step).
    """
    h = _step_size(spec, steps_per_period)
    a2 = np.asarray(a2_values, dtype=float).reshape(-1)
    cur = np.array(y0, dtype=complex)
    p, k, n = cur.shape
    if on_chunk is not None:
        on_chunk(0, cur[np.newaxis])
    coef_steps = max(1, CHUNK_BYTES // (5 * 16 * n * n))
    work = np.empty((3, 5 * coef_steps * n * n), dtype=complex)
    block = max(1, min(coef_steps,
                       CHUNK_BYTES // (16 * max(p, 1) * n * max(n, k))))
    rbuf = np.empty((block, p, n, n), dtype=complex)
    states = np.empty((block, p, k, n), dtype=complex)
    max_dev = 0.0
    for c0 in range(0, steps_per_period, coef_steps):
        c1 = min(c0 + coef_steps, steps_per_period)
        coef = _step_coefficients(spec, h, np.arange(c0, c1) * h, work)
        for s0 in range(c0, c1, block):
            count = min(block, c1 - s0)
            r = _step_matrices(coef[:, s0 - c0:s0 - c0 + count], a2,
                               rbuf[:count])
            y = states[:count]
            prev = cur
            for i in range(count):
                np.matmul(prev, r[i], out=y[i])
                prev = y[i]
            cur[...] = prev
            norms = np.sum(y.real**2 + y.imag**2, axis=-1)
            dev = np.abs(norms - 1.0).reshape(count, -1).max(axis=1)
            bad = ~(dev <= NORM_FAILURE_BOUND)
            if bad.any():
                i = int(np.argmax(bad))
                t = (s0 + i) * h
                raise IntegrationFailure(
                    f"norm drift {dev[i]:.3e} exceeds {NORM_FAILURE_BOUND:.0e} "
                    f"at t={t + h!r}; increase steps_per_period",
                    time=t + h,
                )
            max_dev = max(max_dev, float(dev.max()))
            if on_chunk is not None:
                on_chunk(s0 + 1, y)
    return cur, max_dev


def basis_sweep(spec: SystemSpec, a2_values, steps_per_period: int,
                on_chunk=None):
    """Propagate the site basis over one period at every a2 in ``a2_values``.

    The other fields of ``spec`` are shared by all points. Returns the
    (points, n, n) stack of one-period operators U(T, 0) and the worst norm
    deviation of any basis image at any step. ``on_chunk`` is as in
    ``_sweep``: row j of point p's state is the image of basis state j,
    i.e. the states are U(t_s, 0) transposed.
    """
    n = spec.n_sites
    eye = np.broadcast_to(np.eye(n, dtype=complex), (np.size(a2_values), n, n))
    y, max_dev = _sweep(spec, a2_values, eye, steps_per_period, on_chunk)
    return y.transpose(0, 2, 1), max_dev


def period_average(spec: SystemSpec, a2_values, vectors: np.ndarray,
                   steps_per_period: int) -> np.ndarray:
    """Trapezoid one-period average of |a_j(t)|^2 starting from ``vectors``.

    ``vectors`` is (points, modes, n); every row of point p evolves at
    a2_values[p] and the other fields of ``spec``. Returns (points, modes, n).
    """
    acc = np.zeros(np.shape(vectors))

    def accumulate(first, states):
        for i, pop in enumerate(states.real**2 + states.imag**2, first):
            if 0 < i < steps_per_period:
                np.add(acc, pop, out=acc)
            else:
                np.add(acc, 0.5 * pop, out=acc)

    _sweep(spec, a2_values, vectors, steps_per_period, on_chunk=accumulate)
    return acc / steps_per_period


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

    def collect(first, states):
        rows[first:first + len(states)] = states[..., col]

    monodromies, max_dev = basis_sweep(base_spec, a2_values, steps_per_period,
                                       on_chunk=collect)
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

    def collect(first, states):
        tables[first:first + len(states)] = states[:, 0]

    (u,), _ = basis_sweep(spec, [spec.a2], steps_per_period, on_chunk=collect)
    a0 = basis_state(n, initial_site).amplitudes
    w, _ = _period_starts(u, a0, periods, spec.period)
    # a(m T + tau_s) = tables[s]^T w_m; norms over the whole (s, m) grid.
    states = np.matmul(tables.transpose(0, 2, 1), w[:, :periods])
    norms = np.sum(states.real**2 + states.imag**2, axis=1)
    dev = float(np.max(np.abs(norms - 1.0)))
    final_dev = float(abs(np.sum(np.abs(w[:, periods]) ** 2) - 1.0))
    return max(dev, final_dev)
