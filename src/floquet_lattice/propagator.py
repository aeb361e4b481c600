"""Time-domain propagation of i da/dt = H(t) a.

The integrator is a fixed-step classical Runge-Kutta (4th order) with the
step tied to the drive period, h = T / steps_per_period.

Because H is T-periodic and steps are period-commensurate, a horizon of M
periods factors through the one-period map: a(t0 + m T + tau) =
V(tau) U^m a(t0). ``propagate`` and the folded helpers below evaluate every
integrator step of a long horizon that way, from one period of stepping;
they compose exactly the same RK4 one-step maps, so they agree with direct
stepping to rounding. One fold, ``_fold``, forms every such product a
block of periods at a time, so memory is bounded whatever the horizon.

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
what makes worker-count invariance exact when ``map_chunks``, the one
thread pool, splits a scan's grid points into chunks.

``basis_sweep`` starts the sweep from the site basis and returns the
one-period operators U(T, 0); ``monodromy``, branch tracking and, through
``_row_table``, ``one_period_table`` and ``propagate`` (and through it
``propagation_norm_drift``) call it. ``period_average`` starts it from mode vectors. The
direct step loop, row states advanced by slice arithmetic, lives in the
tests as the independent reference the kernel and every folded path are
checked against.

Min(P1) skips the fold blocks that cannot hold the minimum, and stays
exact. The drive is diagonal, so it drops out of dP/dt for the observed
site's population P, and |dP/dt| <= L = ||H0[site, :]|| (for site 1,
sqrt(omega0^2 + nu0^2)) whatever a1 and a2 are: the population form of the
Mandelstam-Tamm speed bound (1945). One RK4 step therefore moves P by at
most c = L h plus a margin (``_step_change``) made of the norm gate's
1e-6 slack in that bound, RK4's one-step deviation from the exact flow at
||H|| h, and rounding. ``folded_min_population`` evaluates every
COARSE_STRIDE-th step of every period; between two such samples P >=
(P_l + P_r) / 2 - k c / 2 (Piyavskii-Shubert, 1972). It then forms the
fold's own blocks in ascending order of that bound, stopping once the next
bound is at or above the running minimum. Each formed block is the
product ``_fold`` forms, so the minimum is the full fold's float. The
recipes evaluate 9.2 % (fig4), 8.8 % (fig8), 7.2 % (fig6), 15.5 % (fig7),
21.3 % (fig5) and 40.3 % (fig2) of their blocks.

The period starts U^m a0 come from ``_period_starts``, one ``np.matmul``
per period over a stack of operators; each point's floats are those of
its own matrix-vector products. ``propagate`` passes a stack of one. A
scan's points get theirs a group at a time: ``_table_starts`` keeps one
group on the table, as many points as fit STARTS_BYTES (512 KiB, less
than the 1.25 MB the sweep has freed by then).
"""

from __future__ import annotations

import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailure, ValidationError
from .model import (SystemSpec, require_int, require_site, require_state,
                    static_hamiltonian)

# Hard failure bound on |sum_j |a_j|^2 - 1| during stepping. Exceeding it
# means the step size is too coarse for the drive amplitude in play.
NORM_FAILURE_BOUND = 1e-6

DEFAULT_STEPS_PER_PERIOD = 2000
MIN_STEPS_PER_PERIOD = 100

# Byte budget of each buffer of the step-matrix kernel: a block's step
# coefficients, and its step matrices and states at every point.
CHUNK_BYTES = 1 << 18

# Steps between the coarse samples that bound each fold block's minimum
# (``folded_min_population``). The coarse products cost 1/COARSE_STRIDE of
# the full fold, and a wider stride loosens the bounds by L h per step. On
# the fig4 scan (2 workers, one BLAS thread) 10 / 20 / 40 evaluated 8.1 /
# 9.2 / 10.8 % of the blocks in 1.41-1.58 / 1.15-1.28 / 1.04-1.27 s; on
# fig2's 200 periods, 37.7 / 40.3 / 43.0 %. 20 is as fast as 40 within
# the host's spread and evaluates fewer blocks on short horizons.
COARSE_STRIDE = 20

# Byte budget of one group of period starts (``_table_starts``). It lives
# while the fold runs, after the sweep has freed its 1.25 MB of buffers.
# On the fig4 scan (2 workers, one BLAS thread, 3 runs each) 1 point /
# 512 KiB / 768 KiB / 1 MiB / 2 MiB took 2.4-2.8 / 1.5 / 1.2-1.4 /
# 1.2-1.4 / 1.1-1.4 s, at +0.0 / +0.5 / +0.7 / +1.1 / +3.4 MB of peak RSS
# over the full fold (4.7-5.9 s). 512 KiB, 4 points at N = 4 and 2 at
# N = 6 over 2000 periods, keeps the peak within +1 MB.
STARTS_BYTES = 1 << 19


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


def basis_state(n_sites: int, site: int) -> StateVector:
    """Unit amplitude on one site (1-based index), zero elsewhere."""
    amps = np.zeros(n_sites, dtype=complex)
    amps[require_site("site", site, n_sites)] = 1.0
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


def _step_size(spec: SystemSpec, steps_per_period) -> float:
    """h = T / steps_per_period, after checking steps_per_period."""
    require_int("steps_per_period", steps_per_period, MIN_STEPS_PER_PERIOD)
    return spec.period / steps_per_period


def _norm_gate(dev: np.ndarray, t0: float, k0: int, h: float,
               where: str) -> float:
    """The worst of ``dev``, the norm deviations after steps k0, k0 + 1, ...
    from t0 with step h; IntegrationFailure at the first one not within
    NORM_FAILURE_BOUND (NaN fails too), at the end of its step.

    ``where`` is formatted with that time as ``t``.
    """
    bad = ~(dev <= NORM_FAILURE_BOUND)
    if bad.any():
        i = int(np.argmax(bad))
        t = t0 + (k0 + i) * h + h
        raise IntegrationFailure(
            f"norm drift {float(dev[i]):.3e} exceeds {NORM_FAILURE_BOUND:.0e} "
            f"{where.format(t=t)}; increase steps_per_period",
            time=t,
        )
    return float(dev.max())


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
                max_dev = max(max_dev,
                              _norm_gate(dev, t0, s0, h, "at t={t!r}"))
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


def map_chunks(fn, n_items: int, workers: int) -> list:
    """[fn(idx) for idx in at most ``workers`` chunks of consecutive
    indices 0..n_items-1], in order: the package's one thread pool.

    More than one chunk runs on a thread pool, whose threads overlap in the
    kernel's matrix products (they release the interpreter lock). A point's
    result does not depend on its batch, so results do not depend on
    ``workers``. A single chunk runs in the calling thread, so Ctrl-C stops
    it.
    """
    chunks = np.array_split(np.arange(n_items), max(1, min(workers, n_items)))
    if len(chunks) == 1:
        return [fn(chunks[0])]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(fn, chunks))


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
    V(tau_s) U^m a(t0), evaluated by ``_fold``. Memory holds the stored
    samples, the table, one vector per period and one block of periods,
    never every step.

    Raises IntegrationFailure if the norm drifts beyond the hard bound at
    any step of the horizon, carrying the time of the first such step. Like
    ``monodromy``, the sweep also gates the image of every basis state over
    the first period, so a step size too coarse for any of them fails even
    where this state alone would pass.
    """
    a0 = require_state("initial state", initial.amplitudes, spec.n_sites)
    if t_final <= initial.time:
        raise ValidationError("t_final must exceed the initial time")
    h = _step_size(spec, steps_per_period)
    require_int("stride", stride, 1)
    nsteps = max(1, int(round((t_final - initial.time) / h)))
    if nsteps % stride != 0:
        raise ValidationError(
            f"stride {stride} must divide the total step count {nsteps}"
        )

    n, spp, t0 = spec.n_sites, steps_per_period, initial.time
    (u,), rows, _ = _row_table(spec, [spec.a2], spp, list(range(n)), t0)
    (w,), _ = _period_starts(u[np.newaxis], a0, nsteps // spp)

    stored = np.empty((nsteps // stride + 1, n), dtype=complex)
    min_pops = np.ones(n)
    max_dev = 0.0
    for m0, block in _fold(rows[:spp, 0].reshape(spp * n, n), w):
        for m in range(m0, m0 + block.shape[1]):
            j0 = m * spp  # samples j0, j0 + 1, ... in step order
            amps = block[:, m - m0].reshape(spp, n)[:nsteps + 1 - j0]
            pops = amps.real**2 + amps.imag**2
            dev = np.abs(pops.sum(axis=1) - 1.0)
            if j0 == 0:
                dev[0] = 0.0  # the initial state is no step's result
            max_dev = max(max_dev, _norm_gate(
                dev, t0, j0 - 1, h, "across periods, first at t={t!r}"))
            np.minimum(min_pops, pops.min(axis=0), out=min_pops)
            first = -j0 % stride
            stored[(j0 + first) // stride:(j0 + len(amps) - 1) // stride + 1] = (
                amps[first::stride])
        del block, amps  # freed before ``_fold`` forms the next block
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


def min_population(traj: Trajectory, site: int) -> float:
    """Minimum of |a_site|^2 over every integrator step of the run."""
    if traj.times.size == 0:
        raise ValidationError("trajectory is empty")
    j = require_site("site", site, traj.spec.n_sites)
    return float(traj.min_populations[j])


def site_population_series(traj: Trajectory, site: int):
    """(times, |a_site|^2) arrays over the stored samples."""
    j = require_site("site", site, traj.spec.n_sites)
    return traj.times, np.abs(traj.amplitudes[:, j]) ** 2


# ---------------------------------------------------------------------------
# Period-folded evaluation (long horizons via the one-period map)


@dataclass(frozen=True)
class PeriodTable:
    """One-period propagation data for a batch of scan points.

    ``monodromies[b]`` is the one-period operator U_b. ``site_rows[s, b, :]``
    are coefficients c with a_site(tau_s) = c . a(0) for point b, at each of
    the steps_per_period + 1 intra-period sample times. ``step_change[b]``
    bounds |P_{s+1} - P_s| for the observed site between any two
    consecutive steps at point b (see ``_step_change``).
    """

    monodromies: np.ndarray
    site_rows: np.ndarray
    steps_per_period: int
    period: float
    max_norm_deviation: float
    step_change: np.ndarray
    # (first point, periods, initial state, starts, drifts) of the last
    # group of period starts ``_table_starts`` formed, or None
    _starts: list = field(default_factory=lambda: [None], init=False,
                          repr=False, compare=False)


def one_period_table(
    base_spec: SystemSpec,
    a2_values: np.ndarray,
    steps_per_period: int,
    site: int = 1,
) -> PeriodTable:
    """Propagate the full basis over one period for many a2 values at once."""
    col = require_site("site", site, base_spec.n_sites)
    monodromies, rows, max_dev = _row_table(base_spec, a2_values,
                                            steps_per_period, [col])
    return PeriodTable(
        monodromies=monodromies.copy(),
        site_rows=rows[:, :, 0],
        steps_per_period=steps_per_period,
        period=base_spec.period,
        max_norm_deviation=max_dev,
        step_change=_step_change(base_spec, a2_values, steps_per_period, col),
    )


def _step_change(spec: SystemSpec, a2_values, steps_per_period: int,
                 col: int) -> np.ndarray:
    """Per a2, a bound c on the change of P = |a_col|^2 over one RK4 step.

    c = L h (1 + NORM_FAILURE_BOUND) + 2 eps + 16 n machine epsilons:

    * The exact flow. The drive is diagonal, so it drops out of dP/dt:
      |dP/dt| = 2 |Im(a_col^* sum_k H0[col, k] a_k)| <= 2 sqrt(P (N^2 - P)) L
      <= N^2 L, with L = ||H0[col, :]|| and N^2 the squared norm, which the
      norm gate keeps within 1 + NORM_FAILURE_BOUND.
    * The RK4 step leaves that flow by its local error eps. The step
      matches the flow through h^4; the h^5 remainder is a sum of products
      of H and its time derivatives, ||d^j H/dt^j|| <= omega^j max |a|, so
      with Lam = ||H0||_inf + max(|a1|, |a2|) + omega (at least
      ||H||_2 + omega) it is about (Lam h)^5 / 5!. Ten times that is taken:
      RK4 loses (||H|| h)^6 / 72 of the norm per step, so the gate keeps
      ||H|| h near 0.2 or below, and omega h <= 2 pi / 100. An amplitude
      error eps moves P by at most 2 eps.
    * Rounding in the sweep's step (Horner's rule and one matrix product)
      moves P by under 16 n machine epsilons.

    At the recipes Lam h is about 0.023, so the last two terms are 3e-6 of
    the first.
    """
    h0 = static_hamiltonian(spec)
    h = spec.period / steps_per_period
    lam = (np.abs(h0).sum(axis=1).max() + spec.omega
           + np.maximum(abs(spec.a1), np.abs(np.asarray(a2_values, float))))
    return (np.linalg.norm(h0[col]) * h * (1.0 + NORM_FAILURE_BOUND)
            + 2.0 * 10.0 * (lam * h) ** 5 / 120.0
            + 16 * spec.n_sites * np.finfo(float).eps).reshape(-1)


def _row_table(spec: SystemSpec, a2_values, steps_per_period: int,
               sites: list[int], t0: float = 0.0):
    """(U(t0 + T, t0) per point, rows, worst norm deviation), rows[s, p, i]
    being row sites[i] of point p's U(t_s, t0), s = 0..steps_per_period."""
    _step_size(spec, steps_per_period)  # checked before it sizes rows
    shape = (steps_per_period + 1, np.size(a2_values), len(sites),
             spec.n_sites)
    # The table gets an anonymous mapping of its own, unmapped when its
    # last view goes. From malloc, fig4 scans repeated for 16 s peaked
    # 13.5 MB higher in 2 to 6 of 8 runs, with two table-sized regions
    # resident in one thread arena (a freed table beside the next one).
    rows = np.frombuffer(mmap.mmap(-1, 16 * max(1, math.prod(shape))),
                         dtype=complex, count=math.prod(shape)).reshape(shape)

    def collect(first, states):  # row j of a state is U(t_s, t0)[:, j]
        rows[first:first + len(states)] = states[..., sites].swapaxes(-1, -2)

    u, max_dev = basis_sweep(spec, a2_values, steps_per_period,
                             on_chunk=collect, t0=t0)
    return u, rows, max_dev


def _period_starts(u: np.ndarray, a0: np.ndarray,
                   periods: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, drift) for a (points, n, n) stack ``u`` of one-period operators.

    w[p, :, m] = U_p^m a0 for m = 0..periods, one ``np.matmul`` over the
    stack per period; drift[p] is the worst norm drift of point p's starts.
    Each point's floats are those of its own matrix-vector products.
    """
    w = np.empty(u.shape[:2] + (periods + 1,), dtype=complex)
    cur = np.empty(u.shape[:2] + (1,), dtype=complex)
    cur[:, :, 0] = a0
    for m in range(periods + 1):
        w[:, :, m] = cur[:, :, 0]
        cur = u @ cur
    drift = [np.max(np.abs(np.sum(x.real**2 + x.imag**2, axis=0) - 1.0))
             for x in w]
    return w, np.array(drift)


def _block_edges(n_rows: int, total: int) -> list[tuple[int, int]]:
    """(m0, m1) of every block of period starts ``_fold`` forms.

    The width b fills CHUNK_BYTES, rounded down to a multiple of 8 (at least
    8), and a lone last column, which numpy would hand to a matrix-vector
    product, joins the block before it: no edge cuts a BLAS column panel, so
    every value is the float of the one product rows @ w.
    """
    b = max(8, CHUNK_BYTES // (16 * n_rows) // 8 * 8)
    starts = list(range(0, max(total - 1, 1), b))
    return list(zip(starts, starts[1:] + [total]))


def _fold(rows: np.ndarray, w: np.ndarray):
    """Yield (m0, rows @ w[:, m0:m1]) over the blocks of ``_block_edges``."""
    for m0, m1 in _block_edges(len(rows), w.shape[1]):
        yield m0, rows @ w[:, m0:m1]


def _table_starts(table: PeriodTable, point, initial, periods):
    """Checked, drift-gated period starts (n, periods + 1) of one point.

    Starts are formed for a group of points from ``point`` on, as many as
    fit STARTS_BYTES, and the table keeps that one group: a scan that asks
    for its points in order forms each point's starts once, in one
    ``np.matmul`` per period for the whole group. Each point is gated only
    when it is asked for.
    """
    count, n = table.monodromies.shape[:2]
    require_int("point", point, 0)
    if point >= count:
        raise ValidationError(f"point must be < {count}, got {point}")
    require_int("periods", periods, 1)
    initial = require_state("initial state", initial, n)
    group = table._starts[0]
    if (group is None or group[1] != periods
            or not group[0] <= point < group[0] + len(group[3])
            or not np.array_equal(group[2], initial)):
        table._starts[0] = group = None  # freed before the next is formed
        size = max(1, STARTS_BYTES // (16 * n * (periods + 1)))
        w, drift = _period_starts(table.monodromies[point:point + size],
                                  initial, periods)
        group = (point, periods, np.array(initial), w, drift)
        table._starts[0] = group
    first, _, _, w, drift = group
    j = point - first  # h = 0: a failure is timed at the horizon's end
    return w[j], _norm_gate(drift[j:j + 1], periods * table.period, 0, 0.0,
                            "across periods")


def _block_bounds(rows: np.ndarray, w: np.ndarray, edges,
                  step_change: float) -> np.ndarray:
    """A lower bound on the least |rows @ w|^2 of every block of ``edges``.

    Every COARSE_STRIDE-th row and the last one are evaluated for every
    column, through ``_fold``. Between two such samples k steps apart no
    step's value is below (P_l + P_r) / 2 - k c / 2, c = ``step_change``:
    it lies within j c of P_l and (k - j) c of P_r, j steps in, and the
    larger of those two lower bounds is at least their mean. Each computed
    value is within 2 n machine epsilons of the exact product's, so four
    times that covers both sides.
    """
    spp = len(rows) - 1
    coarse = np.r_[0:spp:COARSE_STRIDE, spp]
    slack = (0.5 * np.diff(coarse)[:, np.newaxis] * step_change
             + 8 * rows.shape[1] * np.finfo(float).eps)
    column_low = np.empty(w.shape[1])
    for m0, amps in _fold(rows[coarse], w):
        column_low[m0:m0 + amps.shape[1]] = _interval_low(amps, slack)
    return np.minimum.reduceat(column_low, [m0 for m0, _ in edges])


def _interval_low(amps: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Per column of coarse samples, min of (P_l + P_r) / 2 - ``slack``.

    Its temporaries, made in place, are gone before ``_fold`` forms the
    next block, so the pruned fold peaks below the full fold.
    """
    pops = np.abs(amps)
    pops *= pops
    low = pops[:-1] + pops[1:]
    low *= 0.5
    low -= slack
    return low.min(axis=0)


def folded_min_population(
    table: PeriodTable, point: int, initial: np.ndarray, periods: int
) -> tuple[float, float]:
    """(min |a_site|^2 over every step of ``periods`` periods, norm deviation).

    Exactly the RK4 evolution of ``initial``, evaluated through powers of the
    one-period map instead of re-stepping every period. The sample set covers
    every integrator step from t=0 through t = periods * T inclusive.

    Only the ``_fold`` blocks that can hold the minimum are formed: in
    ascending order of their lower bound (``_block_bounds``), each exactly
    as ``_fold`` forms it, until the next bound is at or above the running
    minimum. So the result is the float the full fold gives.
    """
    w, drift = _table_starts(table, point, initial, periods)
    w = w[:, :periods]
    rows = table.site_rows[:, point]
    edges = _block_edges(len(rows), periods)
    bounds = _block_bounds(rows, w, edges, table.step_change[point])
    low = np.inf
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] >= low:
            break
        m0, m1 = edges[i]
        low = np.minimum(low, (np.abs(rows @ w[:, m0:m1]) ** 2).min())
    return float(low), max(drift, table.max_norm_deviation)


def check_stride(stride, steps_per_period: int) -> None:
    """ValidationError unless ``stride`` is an integer >= 1 that divides
    ``steps_per_period``, as a folded series' stride must."""
    require_int("stride", stride, 1)
    if steps_per_period % stride != 0:
        raise ValidationError(
            f"stride {stride} must divide {steps_per_period}")


def folded_population_series(
    table: PeriodTable, point: int, initial: np.ndarray, periods: int,
    stride: int = 1,
):
    """(times, populations) of the observed site over ``periods`` periods.

    Samples every ``stride``-th integrator step plus the final time; stride
    must divide steps_per_period.
    """
    spp = table.steps_per_period
    check_stride(stride, spp)
    w, _ = _table_starts(table, point, initial, periods)
    rows = table.site_rows[:, point]
    k = spp // stride  # samples per period
    series = np.empty(periods * k + 1)
    for m0, amps in _fold(rows[:-1:stride], w[:, :periods]):
        series[m0 * k:(m0 + amps.shape[1]) * k] = (
            np.abs(amps) ** 2).ravel(order="F")
    series[-1] = np.abs(rows[-1] @ w[:, periods - 1]) ** 2  # t = periods * T
    times = np.arange(series.size) * (table.period / spp * stride)
    times[-1] = periods * table.period
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
