"""Time-domain propagation of i da/dt = H(t) a.

The integrator is a fixed-step classical Runge-Kutta (4th order) with the
step tied to the drive period, h = T / steps_per_period.

Because H is T-periodic and steps are period-commensurate, a horizon of M
periods factors through the one-period map: a(t0 + m T + tau) =
V(tau) U^m a(t0). ``propagate`` and the folded helpers below evaluate every
integrator step of a long horizon that way, from one period of stepping;
they compose exactly the same RK4 one-step maps, so they agree with direct
stepping to rounding.

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
``propagate`` (and through it ``propagation_norm_drift``) and branch
tracking call it. ``period_average`` starts it from mode vectors. The
direct step loop, row states advanced by slice arithmetic, lives in the
tests as the independent reference the kernel and every folded path are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, ValidationError
from .model import SystemSpec, require_int, static_hamiltonian

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


def _step_size(spec: SystemSpec, steps_per_period) -> float:
    """h = T / steps_per_period, after checking steps_per_period."""
    require_int("steps_per_period", steps_per_period, MIN_STEPS_PER_PERIOD)
    return spec.period / steps_per_period


def _norm_gate(dev: float, time: float, where: str) -> None:
    """IntegrationFailure at ``time`` unless ``dev`` is within
    NORM_FAILURE_BOUND; NaN fails too."""
    if not (dev <= NORM_FAILURE_BOUND):
        raise IntegrationFailure(
            f"norm drift {dev:.3e} exceeds {NORM_FAILURE_BOUND:.0e} {where}; "
            "increase steps_per_period",
            time=time,
        )


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
           on_chunk=None, t0: float = 0.0):
    """Carry the (points, k, n) row states ``y0`` over one period from t0.

    Point p evolves at a2_values[p] and the other fields of ``spec``. Steps
    go in blocks: the coefficients of a block of steps (blocks fixed by n
    and the step count alone), then, per sub-block of steps, the transposed
    step matrices of every point by Horner's rule and one ``np.matmul`` per
    step over the points. Every buffer is sized from CHUNK_BYTES. The norm
    gate reads the norms of every state of a sub-block in one reduction; the
    first failing step raises IntegrationFailure with its time. Overflow and
    NaN in the arithmetic are left for that gate to report.

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
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, steps_per_period, coef_steps):
            c1 = min(c0 + coef_steps, steps_per_period)
            coef = _step_coefficients(spec, h, t0 + np.arange(c0, c1) * h,
                                      work)
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
                    t = t0 + (s0 + i) * h
                    _norm_gate(float(dev[i]), t + h, f"at t={t + h!r}")
                max_dev = max(max_dev, float(dev.max()))
                if on_chunk is not None:
                    on_chunk(s0 + 1, y)
    return cur, max_dev


def basis_sweep(spec: SystemSpec, a2_values, steps_per_period: int,
                on_chunk=None, t0: float = 0.0):
    """Propagate the site basis over one period at every a2 in ``a2_values``.

    The other fields of ``spec`` are shared by all points. Returns the
    (points, n, n) stack of one-period operators U(t0 + T, t0) and the worst
    norm deviation of any basis image at any step; the gate fails on any
    basis image. ``on_chunk`` is as in ``_sweep``: row j of point p's state
    is the image of basis state j, i.e. the states are U(t_s, t0) transposed.
    """
    n = spec.n_sites
    eye = np.broadcast_to(np.eye(n, dtype=complex), (np.size(a2_values), n, n))
    y, max_dev = _sweep(spec, a2_values, eye, steps_per_period, on_chunk, t0)
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

    One basis sweep over the period from ``initial.time`` gives the table
    V(tau_s), and the state at step m * steps_per_period + s is
    V(tau_s) U^m a(t0). The horizon is folded over blocks of periods sized
    from CHUNK_BYTES, so memory holds the stored samples, the table, one
    vector per period and one block, never every step.

    Raises IntegrationFailure if the norm drifts beyond the hard bound at
    any step of the horizon, carrying the time of the first such step. Like
    ``monodromy``, the sweep also gates the image of every basis state over
    the first period, so a step size too coarse for any of them fails even
    where this state alone would pass.
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

    n, spp, t0 = spec.n_sites, steps_per_period, initial.time
    # table[j, s] is row state s of basis image j, s < spp
    table = np.empty((n, spp, n), dtype=complex)

    def collect(first, states):
        last = min(first + len(states), spp)
        table[:, first:last] = states[:last - first, 0].transpose(1, 0, 2)

    (u,), _ = basis_sweep(spec, [spec.a2], spp, on_chunk=collect, t0=t0)
    w, _ = _period_starts(u, initial.amplitudes, nsteps // spp)
    table = table.reshape(n, spp * n)

    stored = np.empty((nsteps // stride + 1, n), dtype=complex)
    min_pops = np.ones(n)
    max_dev = 0.0
    block = max(1, CHUNK_BYTES // (16 * spp * n))
    for m0 in range(0, w.shape[1], block):
        j0 = m0 * spp  # samples j0, j0 + 1, ... in step order
        amps = (w[:, m0:m0 + block].T @ table).reshape(-1, n)[:nsteps + 1 - j0]
        pops = amps.real**2 + amps.imag**2
        dev = np.abs(pops.sum(axis=1) - 1.0)
        if j0 == 0:
            dev[0] = 0.0  # the initial state is no step's result
        bad = ~(dev <= NORM_FAILURE_BOUND)
        if bad.any():
            i = int(np.argmax(bad))
            t = t0 + (j0 + i - 1) * h
            _norm_gate(float(dev[i]), t + h,
                       f"across periods, first at t={t + h!r}")
        max_dev = max(max_dev, float(dev.max()))
        np.minimum(min_pops, pops.min(axis=0), out=min_pops)
        first = -j0 % stride
        stored[(j0 + first) // stride:(j0 + len(amps) - 1) // stride + 1] = (
            amps[first::stride])
    times = t0 + h * stride * np.arange(stored.shape[0])
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


def _period_starts(u: np.ndarray, a0: np.ndarray,
                   periods: int) -> tuple[np.ndarray, float]:
    """(columns w_m = U^m a0 for m = 0..periods, their worst norm drift)."""
    n = a0.size
    w = np.empty((n, periods + 1), dtype=complex)
    cur = a0.astype(complex)
    for m in range(periods + 1):
        w[:, m] = cur
        cur = u @ cur
    return w, float(np.max(np.abs(np.sum(w.real**2 + w.imag**2, axis=0) - 1.0)))


def folded_min_population(
    table: PeriodTable, point: int, initial: np.ndarray, periods: int
) -> tuple[float, float]:
    """(min |a_site|^2 over every step of ``periods`` periods, norm deviation).

    Exactly the RK4 evolution of ``initial``, evaluated through powers of the
    one-period map instead of re-stepping every period. The sample set covers
    every integrator step from t=0 through t = periods * T inclusive.
    """
    w, drift = _period_starts(table.monodromies[point], initial, periods)
    _norm_gate(drift, periods * table.period, "across periods")
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
    w, drift = _period_starts(table.monodromies[point], initial, periods)
    _norm_gate(drift, periods * table.period, "across periods")
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
    """Max |norm^2 - 1| over every integrator step of a ``periods``-long run
    from ``initial_site``: ``propagate``'s report, storing only the ends.

    Like ``propagate``, it raises IntegrationFailure once the drift passes
    NORM_FAILURE_BOUND.
    """
    return propagate(spec, basis_state(spec.n_sites, initial_site),
                     periods * spec.period, steps_per_period,
                     stride=periods * steps_per_period).max_norm_deviation
