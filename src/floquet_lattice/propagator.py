"""Time-domain propagation of i da/dt = H(t) a.

The integrator is a fixed-step classical Runge-Kutta (4th order) with the
step tied to the drive period, h = T / steps_per_period.

Because H is T-periodic and steps are period-commensurate, a horizon of M
periods from t = 0 factors through the one-period map: a(m T + tau) =
V(tau) U^m a(0). ``propagate`` and the folded helpers below evaluate
every integrator step of a long horizon that way, from one period of
stepping; they compose exactly the same RK4 one-step maps, so they agree
with direct stepping to rounding. One fold, ``_fold``, forms every such
product a block of periods at a time, so memory is bounded whatever the
horizon.

Every one-period quantity goes through the step-matrix kernel. The equation
is linear, so one RK4 step is multiplication by a fixed n x n matrix R_k, the
RK4 stability polynomial of the step. Only H's (N, N) entry depends on a2,
so R_k(a2) = sum_j a2^j C_kj, j = 0..4, with coefficients shared by every
scan point. ``_sweep`` carries a (points, k, n) stack of row states over
one period: per block of steps it builds the coefficients, evaluates every
point's R_k by Horner's rule and applies them with one ``np.matmul`` per
step; the norm gate reads the norms of a block's states in one reduction.
Each buffer it allocates (a block's coefficients with their two build
scratches, step matrices or states) is sized from one byte budget,
CHUNK_BYTES, so memory stays flat in the step count and the batch width. A
point's result is the same for any batch size: its arithmetic is
elementwise or one matrix product of its own, and the coefficient blocks
depend on n and the step count alone. The kernel owns its state buffers,
all C-contiguous whatever the layout of the states it is given, so each
point's matrix is contiguous and every product of it is the same BLAS call
in a batch of one as in a batch of many. That is what makes worker-count
invariance exact when ``map_chunks``, the one thread pool, splits a scan's
grid points into chunks.

Horner's rule runs only on the trailing corner where a2 enters. With
A = M + c (P + a2 Q) and Q the one entry at site N, every term of C_k1..C_k4
holds a Q and at most three factors M, so those coefficients vanish outside
the sites within three hops of N (six with nu0 != 0). ``_corner`` reads the
corner [k:, k:] off each coefficient block's own zeros: 4 x 4 at N = 8,
7 x 7 at N = 8 with nu0 = 0.2, 4 of 5 sites at fig7 and 4 of 6 at fig8, the
whole matrix at fig2..fig6 (k = 0, where the rule writes straight into the
step matrices as before). Elsewhere c1..c4 are +-0 and C_k0 = I + ... has
no -0 (the identity's +0 absorbs it), so ((((c4 x + c3) x + c2) x + c1) x
+ c0 returns c0 for any finite x, and every point's R_k there is C_k0,
copied: every operator keeps the float of Horner's rule over the whole
matrix. The rule runs on a contiguous copy of the corner's coefficients,
in a scratch allocated once per sweep from the same budget. On a 61-point
spectrum scan (one BLAS thread) that cut Horner's rule from about 0.20 to
0.11 s at N = 8, and the scan from 0.46-0.47 to 0.39 s; at N = 24 from
3.6-3.8 to 2.4-2.5 s.

``basis_sweep`` starts the sweep from the site basis and returns the
one-period operators U(T, 0); ``monodromy`` and branch tracking call it.
``period_average`` starts it from mode vectors. ``_row_table``, behind
``one_period_table`` and ``propagate``, sweeps the basis over the whole
period and keeps every step's rows. The direct step loop, row states
advanced by slice arithmetic, lives in the tests as the independent
reference the kernel and every folded path are checked against.

Spectrum sweeps stop about T / 2, by time reversal (Haake, *Quantum
Signatures of Chaos*, ch. 4), and operator sweeps at T / 4 where nu0 = 0
(below). Both drives are a_j cos(omega t) and H0 is real symmetric, so
H(T - t) = H(t). The step spp - 1 - k takes A at the nodes of step k in
reverse order, and with symmetric A the RK4 polynomial with
reversed nodes is the transposed one, term by term through h^4
((A_m A_0)^T = A_0 A_m): R_(spp-1-k) = R_k^T. So with W_s = U(t_s, 0) and
m = floor(spp / 2), U = W_m^T W_(spp-m): V^T V with V = W_m at an even
step count, and W_m^T R_m W_m at an odd one, whose middle step R_m is its
own mirror. That is the same floats up to the rounding of one more
product (<= 2.4e-14 at the recipes and at 1001 and 2001 steps), and
W_(spp-s) = (W_s^T)^-1 U, which makes the populations along an
eigenvector at step spp - s those of its conjugate at step s.
``basis_sweep`` and ``period_average`` use this at every step count; see
them for the norm gate at t = T and for the guard that keeps the
whole-period average where a mode is not real up to a phase. Only the
row tables, which read each step's states (``one_period_table``,
``propagate`` and Min(P1)), sweep the whole period.

At nu0 = 0 the operators need only a quarter period, by the generalized
parity of driven lattices (Grifoni and Hanggi, Phys. Rep. 304, 229 (1998),
sec. 4). S = diag((-1)^j) flips the sign of the nearest-neighbour hopping
and leaves the diagonal drive alone, and cos(omega (T/2 - t)) =
-cos(omega t), so reflection about T / 4 gives H(T/2 - t) = -S H(t) S,
i.e. A(T/2 - t) = S conj(A(t)) S for A = -i H. The step spp/2 - 1 - k takes
A at the nodes of step k reflected, in reverse order, so by the argument
above its RK4 polynomial is step k's transposed and conjugated under S:
R_(spp/2-1-k) = S R_k^+ S. This holds for RK4's steps themselves, not only
for the exact flow, which is why the factor is Q^+ and not Q^-1 (the steps
are not unitary; at 500 steps Q^-1 is off by about 2e-7). With
Q = U(T/4, 0), V = S Q^+ S Q and U = V^T V. ``basis_sweep`` takes this
branch when ``spec.nu0 == 0.0`` exactly and the step count is divisible by
4; nu0 = 0.2 breaks the identity by 0.06-0.12, and a small nu0 is not zero.
Period averages keep the half sweep: a quarter-period trapezoid differs
from the whole one by up to 4.8e-2.

Min(P1) skips the fold blocks that cannot hold the minimum, and stays
exact. The drive is diagonal, so it drops out of dP/dt for the observed
site's population P, and |dP/dt| <= L = ||H0[site, :]|| (for site 1,
sqrt(omega0^2 + nu0^2)) whatever a1 and a2 are: the population form of the
Mandelstam-Tamm speed bound (1945). One RK4 step therefore moves P by at
most c = L h plus a margin (``_step_change``) made of the norm gate's
1e-6 slack in that bound, RK4's one-step deviation from the exact flow at
||H|| h, and rounding. ``_group_pass`` evaluates every COARSE_STRIDE-th
step of every period; between two such samples P >= (P_l + P_r) / 2 -
k c / 2 (Piyavskii-Shubert, 1972). ``folded_min_population`` then forms the
fold's own blocks in ascending order of that bound, stopping once the next
bound is at or above the running minimum. Each formed block is the
product ``_fold`` forms, so the minimum is the full fold's float. The
recipes evaluate 9.2 % (fig4), 8.8 % (fig8), 7.2 % (fig6), 15.5 % (fig7),
21.3 % (fig5) and 40.3 % (fig2) of their blocks.

The period starts U^m a0 come from ``_period_starts``, one ``np.matmul``
per period over a stack of operators. Each point's floats are those of its
own matrix-vector products, so starts regenerated from any one of them are
the floats of the unbroken recurrence. ``propagate`` and
``folded_population_series`` pass a stack of one. Min(P1) keeps no
point's full starts. ``_group_pass`` runs the recurrence for a group of
points, as many as fit STARTS_BYTES, a slab of periods at a time. Per
point it keeps the start of every fold block as a checkpoint (Griewank's
checkpointing, 1992), the blocks' bounds and the starts' norm drift, and
drops each slab once read. ``folded_min_population`` regenerates the
starts of the blocks it forms from their checkpoints. The table keeps one
group, so a scan that asks for its points in order runs each point's
recurrence once.
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
# coefficients with the two scratches that build them, and its step
# matrices and states at every point.
CHUNK_BYTES = 1 << 18

# Steps between the coarse samples that bound each fold block's minimum
# (``_group_pass``). The coarse products cost 1/COARSE_STRIDE of
# the full fold, and a wider stride loosens the bounds by L h per step. On
# the fig4 scan (2 workers, one BLAS thread) 10 / 20 / 40 evaluated 8.1 /
# 9.2 / 10.8 % of the blocks in 1.41-1.58 / 1.15-1.28 / 1.04-1.27 s; on
# fig2's 200 periods, 37.7 / 40.3 / 43.0 %. 20 is as fast as 40 within
# the host's spread and evaluates fewer blocks on short horizons.
COARSE_STRIDE = 20

# Byte budget of one group of ``_group_pass``: per point, a checkpoint
# and a bound per fold block and one slab of starts. It lives while the
# fold runs, after the sweep has freed its 0.75 MB of buffers. Over 2000
# periods at 2000 steps a group holds 18 points at N = 4 (fig4) and 12 at
# N = 6 (fig8); over 200 periods, 57 at N = 3 (fig2). Keeping every
# point's full starts, the same budget held 4, 2 and 54. With one BLAS
# thread (3 runs each) the fig4 scan took 1.2-1.4 s with 1 worker and
# 1.1-1.4 s with 2, against 1.55-1.65 and 1.3-1.7 s with full starts;
# fig8 1.6-1.9 and 1.7-2.0 s against 2.0-2.2 and 1.9-2.4 s. The traced
# peak of 120 points' folds fell from 1127 to 924 KB at fig4, 1005 to
# 915 KB at fig8 and 1098 to 954 KB at fig2.
STARTS_BYTES = 1 << 19

# Bound on the population error a mode's departure from a real vector (up to
# a phase) may cause in a half-period average (``period_average``); points
# above it are averaged over the whole period. The recipes' modes reach
# 6.4e-12 near fig4's and fig8's crossings, so no point falls back there,
# and the bound stays below RK4's own 1e-10 departure from unitarity.
POPULATION_GUARD = 1e-11

# Byte budget of a sub-block's step matrices and of its states in the
# spectrum's quarter and half sweeps (``basis_sweep`` and
# ``period_average``), which keep no rows. Narrow sub-blocks trade some
# time for working memory: on the 61-point N = 8 scan (one BLAS thread)
# CHUNK_BYTES gave a traced peak of 1.44 MB in 0.20 s and this budget
# 0.78 MB in 0.24 s (whole-period sweeps: 2.00 MB, 0.39 s). At 563 points
# (fig6) a sub-block is one step under either budget, and a gap probe's
# one point keeps whole coefficient blocks.
SPECTRUM_STEP_BYTES = CHUNK_BYTES // 4


def basis_state(n_sites: int, site: int) -> np.ndarray:
    """Complex amplitudes with unit amplitude on one site (1-based index),
    zero elsewhere."""
    amps = np.zeros(n_sites, dtype=complex)
    amps[require_site("site", site, n_sites)] = 1.0
    return amps


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


def _corner(coef: np.ndarray) -> int:
    """The smallest k such that coef[1:] is exactly zero outside [k:, k:]:
    the trailing corner of the step matrices where a2 enters.

    Row k and column k are read in turn from k = 0, so the whole-matrix
    corner of a short chain costs two small reductions.
    """
    n = coef.shape[-1]
    for k in range(n):
        if coef[1:, :, k, k:].any() or coef[1:, :, k:, k].any():
            return k
    return n


def _step_matrices(coef: np.ndarray, a2: np.ndarray, out: np.ndarray,
                   corner: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """sum_j a2^j coef[j] for every step of ``coef`` and every a2, into
    ``out`` (L, points, n, n).

    Horner's rule on the real and imaginary parts: the same elementwise
    operations for every point, whatever the batch size. ``corner`` is
    coef[:, :, k:, k:], contiguous, with coef[1:] exactly zero outside it
    (``_corner``); by default k = 0. The rule runs on the corner only, in
    ``scratch``, a flat complex buffer of at least L points (n - k)^2
    entries, or straight into ``out`` when k = 0. Elsewhere every point's
    matrix is coef[0], copied: the rule's float there, since c1..c4 are +-0
    and coef[0] has no -0.
    """
    if corner is None:
        corner = coef
    k, m = coef.shape[-1] - corner.shape[-1], corner.shape[-1]
    target = out
    if k:
        c0 = coef[0, :, np.newaxis]
        out[..., :k, :] = c0[..., :k, :]
        out[..., k:, :k] = c0[..., k:, :k]
        target = scratch[:math.prod(out.shape[:2]) * m * m].reshape(
            out.shape[:2] + (m, m))
    cf = corner.view(np.float64)[:, :, np.newaxis]
    rf = target.view(np.float64)
    x = a2.reshape(1, -1, 1, 1)
    np.multiply(cf[4], x, out=rf)
    for j in (3, 2, 1):
        rf += cf[j]
        rf *= x
    rf += cf[0]
    if k:
        out[..., k:, k:] = target
    return out


def _sweep(spec: SystemSpec, a2_values, y0: np.ndarray, steps_per_period: int,
           on_chunk=None, stop: int | None = None,
           step_bytes: int = CHUNK_BYTES):
    """Carry the (points, k, n) row states ``y0`` from t = 0 over the first
    ``stop`` steps of a period (all of them by default).

    Point p evolves at a2_values[p] and the other fields of ``spec``. Steps
    go in blocks: the coefficients of a block of steps (blocks fixed by n
    and the step count alone), then, per sub-block of steps, the transposed
    step matrices of every point by Horner's rule and one ``np.matmul`` per
    step over the points. Every buffer is sized from CHUNK_BYTES, or the
    step matrices and states of a sub-block from ``step_bytes``. The states
    are carried in C-contiguous buffers of the kernel's own, whatever the
    layout of ``y0``, so each point's step products and its final states do
    not depend on the caller's memory layout or on the batch. The norm
    gate reads the norms of every state of a sub-block in one reduction; the
    first failing step raises IntegrationFailure with its time and the a2 of
    its worst point. Overflow and NaN in the arithmetic are left for that
    gate to report. The step is h = T / steps_per_period and the blocks are
    those of the whole period whatever ``stop`` is, so a sweep to ``stop``
    is, bit for bit, the first ``stop`` steps of the whole sweep.

    ``on_chunk(first, states)`` sees the states at sample indices first,
    first + 1, ... as a (samples, points, k, n) array: once with the initial
    states (first = 0), then after every sub-block. The array is reused, so
    the callback copies what it keeps. Returns (final states, worst norm
    deviation of any state at any step).
    """
    h = _step_size(spec, steps_per_period)
    stop = steps_per_period if stop is None else stop
    a2 = np.asarray(a2_values, dtype=float).reshape(-1)
    cur = np.array(y0, dtype=complex, order="C")
    p, k, n = cur.shape
    if on_chunk is not None:
        on_chunk(0, cur[np.newaxis])
    coef_steps = max(1, CHUNK_BYTES // (3 * 5 * 16 * n * n))
    work = np.empty((3, 5 * coef_steps * n * n), dtype=complex)
    block = max(1, min(coef_steps,
                       step_bytes // (16 * max(p, 1) * n * max(n, k))))
    rbuf = np.empty((block, p, n, n), dtype=complex)
    scratch = np.empty(0, dtype=complex)  # the corner's, once one is needed
    states = np.empty((block, p, k, n), dtype=complex)
    max_dev = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, stop, coef_steps):
            c1 = min(c0 + coef_steps, steps_per_period)
            coef = _step_coefficients(spec, h, np.arange(c0, c1) * h, work)
            c1 = min(c1, stop)
            edge = _corner(coef)
            corner = coef[:, :, edge:, edge:]
            if edge:  # work[1] is free once the coefficients are built
                corner = work[1, :corner.size].reshape(corner.shape)
                corner[...] = coef[:, :, edge:, edge:]
                if scratch.size < block * p * (n - edge) ** 2:
                    scratch = np.empty(block * p * (n - edge) ** 2,
                                       dtype=complex)
            for s0 in range(c0, c1, block):
                count = min(block, c1 - s0)
                steps = slice(s0 - c0, s0 - c0 + count)
                r = _step_matrices(coef[:, steps], a2, rbuf[:count],
                                   corner[:, steps], scratch)
                y = states[:count]
                prev = cur
                for i in range(count):
                    np.matmul(prev, r[i], out=y[i])
                    prev = y[i]
                cur[...] = prev
                max_dev = max(max_dev, _sweep_gate(
                    np.sum(y.real**2 + y.imag**2, axis=-1), a2, s0, h))
                if on_chunk is not None:
                    on_chunk(s0 + 1, y)
    return cur, max_dev


def _sweep_gate(norms: np.ndarray, a2: np.ndarray, s0: int, h: float) -> float:
    """``_norm_gate`` on the squared norms (steps, points, k) of the states
    after steps s0, s0 + 1, ...: the worst deviation, or IntegrationFailure
    naming the a2 of the worst point at the first failing step.

    A passing sub-block costs one gate call; the worst point is looked for
    only once that call has failed, and its error is raised outside the
    handler, so it is not chained to the first."""
    dev = np.abs(norms - 1.0).reshape(len(norms), -1).max(axis=1)
    try:
        return _norm_gate(dev, 0.0, s0, h, "at t={t!r}")
    except IntegrationFailure:
        pass
    i = int(np.argmax(~(dev <= NORM_FAILURE_BOUND)))
    worst = np.abs(norms[i] - 1.0).reshape(a2.size, -1).max(axis=1)
    point = int(np.argmax(worst))  # the first NaN, if there is one
    return _norm_gate(dev, 0.0, s0, h,
                      f"at a2={float(a2[point])!r}, t={{t!r}}")


def basis_sweep(spec: SystemSpec, a2_values, steps_per_period: int):
    """Propagate the site basis over one period at every a2 in ``a2_values``.

    The other fields of ``spec`` are shared by all points. Returns the
    (points, n, n) stack of one-period operators U(T, 0) and the worst
    norm deviation of any basis image at any step and of any column of U;
    the gate fails on any of them.

    Both drives are a_j cos(omega t) and H0 is real symmetric, so
    H(T - t) = H(t): the RK4 step whose nodes mirror step k's about T / 2
    has the transposed matrix of step k (module docstring). The sweep
    therefore stops after ceil(spp / 2) steps, keeping the row states Y_m
    after m = floor(spp / 2), and returns U = Y_m Y_(spp-m)^T, in exact
    arithmetic the whole sweep's product: V^T V with V = U(T/2, 0) at an
    even step count, W_m^T R_m W_m at an odd one. The second half's states
    are never formed, so U's column norms go through the norm gate, at
    t = T. Only ``_row_table``, which keeps every step's rows, sweeps the
    whole period.

    At ``spec.nu0 == 0.0`` exactly and a step count divisible by 4 the
    sweep stops at T / 4 instead: with Q = U(T/4, 0) and S = diag((-1)^j),
    V = S Q^+ S Q for the RK4 maps (module docstring), and U = V^T V as
    above, within 3.5e-14 of the whole sweep at the recipes. Any other
    nu0, however small, and any other step count keep the half sweep.
    The norm gate reads U's columns at t = T, as on the half branch.
    """
    n, spp = spec.n_sites, steps_per_period
    eye = np.broadcast_to(np.eye(n, dtype=complex), (np.size(a2_values), n, n))
    quarter = spec.nu0 == 0.0 and spp % 4 == 0
    mid = spp // 4 if quarter else spp // 2
    stop = mid if quarter else spp - mid
    kept = []  # Y_mid, where the sweep runs past it

    def keep(first, states):
        if first <= mid < min(first + len(states), stop):
            kept.append(states[mid - first].copy())

    y, max_dev = _sweep(spec, a2_values, eye, spp, keep, stop=stop,
                        step_bytes=SPECTRUM_STEP_BYTES)
    if quarter:  # y = Q^T, and V^T = Q^T (S conj(Q) S)
        s = (-1.0) ** np.arange(n)
        y = np.matmul(y, np.outer(s, s) * y.conj().transpose(0, 2, 1))
    # y y^T on y itself where the sweep stops at mid: one buffer times its
    # own transpose is BLAS syrk, whose U is exactly symmetric, while a
    # copy of it goes through gemm, whose U is not
    x = kept[0] if kept else y
    u = np.matmul(x, y.transpose(0, 2, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # the gate reports
        norms = np.sum(u.real**2 + u.imag**2, axis=1)
    a2 = np.asarray(a2_values, dtype=float).reshape(-1)
    h = spec.period / spp
    return u, max(max_dev, _sweep_gate(norms[np.newaxis], a2, spp - 1, h))


def period_average(spec: SystemSpec, a2_values, vectors: np.ndarray,
                   steps_per_period: int) -> np.ndarray:
    """Trapezoid one-period average of |a_j(t)|^2 starting from ``vectors``.

    ``vectors`` is (points, modes, n), each row an eigenvector of its
    point's one-period operator U (``basis_sweep``); every row of point p
    evolves at a2_values[p] and the other fields of ``spec``. Returns
    (points, modes, n).

    The average comes from half a period. With W_s = U(t_s, 0), time
    reversal gives W_(spp-s) = (W_s^T)^-1 U for the RK4 maps
    (``basis_sweep``) at either parity of spp, which is conj(W_s) U where
    W_s is unitary. So along an eigenvector v the populations at step
    spp - s are those of conj(v) at step s, and the full trapezoid is
    (half(v) + half(conj v)) / 2, half being the trapezoid over [0, T / 2]
    divided by spp / 2 (``_trapezoid``): at an odd spp = 2 m + 1, T / 2
    falls between steps m and m + 1, and half is
    (P_0 / 2 + P_1 + ... + P_m) / (spp / 2). In terms of the half-period
    average A_j of W^+ E_j W, that is v^+ Re(A_j) v. Each row is swept as
    the real unit vector r along the real part of e^(-i theta) v, theta
    chosen so that s = v^T v is e^(2 i theta) |s|: half(r) = r^T Re(A_j) r,
    and with v = e^(i theta) (x + i y), x orthogonal to y, it differs from
    v^+ Re(A_j) v by at most q = |y|^2 / |x|^2 = (|v|^2 - |s|) /
    (|v|^2 + |s|), as 0 <= Re(A_j) <= 1. A mode of a simple eigenvalue is
    real up to a phase, q at rounding level (<= 6.4e-12 at every recipe's
    point). A point where any mode has q above POPULATION_GUARD, as at a
    degenerate eigenvalue, is averaged over the whole period instead. The
    guard reads each point's own vectors, so a point's result does not
    depend on its batch. What is left is RK4's departure from unitarity,
    which the identity assumes away: about 1e-10 at the recipes, beside
    populations' 2.9e-9 step-size error.
    """
    vectors = np.asarray(vectors)
    a2 = np.asarray(a2_values, dtype=float).reshape(-1)
    spp = steps_per_period
    real, half = _real_modes(vectors)
    out = np.empty(vectors.shape)
    if half.any():
        out[half] = _trapezoid(spec, a2[half], real if half.all() else
                               real[half], spp, spp / 2)
    if not half.all():
        out[~half] = _trapezoid(spec, a2[~half], vectors[~half], spp, spp)
    return out


def _real_modes(vectors: np.ndarray):
    """(r, ok) for the (points, modes, n) ``vectors``: r[p, m] is the real
    unit vector along the real part of e^(-i theta) v, v = vectors[p, m],
    and ok[p] says that every mode of point p has q <= POPULATION_GUARD
    (``period_average``). A row with v^T v = 0 or NaN has no such r and
    fails the guard."""
    s = np.sum(vectors * vectors, axis=-1)
    size = np.abs(s)
    norm = np.sum(vectors.real**2 + vectors.imag**2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (norm - size) / (norm + size)
        phase = np.sqrt(size / s)[..., np.newaxis]
        real = vectors.real * phase.real - vectors.imag * phase.imag
        real /= np.linalg.norm(real, axis=-1, keepdims=True)
    return real, np.all(q <= POPULATION_GUARD, axis=1)


def _trapezoid(spec: SystemSpec, a2_values, vectors: np.ndarray,
               steps_per_period: int, span: float) -> np.ndarray:
    """Trapezoid average of |a_j|^2 over the first ``span`` steps from
    ``vectors`` (points, modes, n), as ``_sweep`` carries them.

    ``span`` is spp / 2 or spp. The sweep runs floor(span) steps; samples
    0 and ``span``, where that is a sample, weigh 1/2, the others 1, and
    the sum is divided by ``span``. At a half-integer span, the half
    period of an odd spp = 2 m + 1, that is the trapezoid over [0, T / 2]:
    its last interval, from step m to T / 2, has P_m at both ends by the
    mirror identity (``period_average``).
    """
    acc = np.zeros(np.shape(vectors))

    def accumulate(first, states):
        for i, pop in enumerate(states.real**2 + states.imag**2, first):
            if 0 < i < span:
                np.add(acc, pop, out=acc)
            else:
                np.add(acc, 0.5 * pop, out=acc)

    _sweep(spec, a2_values, vectors, steps_per_period, on_chunk=accumulate,
           stop=int(span), step_bytes=SPECTRUM_STEP_BYTES)
    return acc / span


def map_chunks(fn, n_items: int, workers: int) -> list:
    """[fn(idx) for idx in at most ``workers`` chunks of consecutive
    indices 0..n_items-1], in order: the package's one thread pool.

    More than one chunk runs on a thread pool, whose threads overlap in the
    kernel's matrix products (they release the interpreter lock). A point's
    result does not depend on its batch, so results do not depend on
    ``workers``. A single chunk runs in the calling thread, so Ctrl-C stops
    it.

    Two threads gain little, because they overlap only inside NumPy calls
    long enough to outlast the lock's hand-offs. On 2 vCPUs with one BLAS
    thread a thread pair ran 0.95-1.12x as fast as one thread on 35 us
    calls, 1.63-1.77x on 0.8 ms calls and about 2x on 5 ms calls. The
    sweep's and the fold's calls are tens of microseconds: a stacked
    120-point 4 x 4 ``np.matmul`` (about 70 us) ran slower on two threads
    than on one, while two processes each ran half of fig4's fold at one
    thread's speed. ``workers`` must be an integer >= 1.
    """
    require_int("workers", workers, 1)
    chunks = np.array_split(np.arange(n_items), max(1, min(workers, n_items)))
    if len(chunks) == 1:
        return [fn(chunks[0])]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(fn, chunks))


# ---------------------------------------------------------------------------
# Public propagation


def propagate(
    spec: SystemSpec,
    initial: np.ndarray,
    t_final: float,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
    stride: int = 1,
) -> Trajectory:
    """Integrate the driven chain from the amplitudes ``initial`` at t = 0
    up to ``t_final``.

    The horizon is rounded to the nearest whole step h = T/steps_per_period.
    With ``stride`` > 1 only every stride-th sample is stored (it must divide
    the total step count); minima and the norm check still see every step.
    A horizon that is not finite, or whose step count does not fit np.intp,
    is a ValidationError.

    One basis sweep over the first period gives the table V(tau_s), and the
    state at step m * steps_per_period + s is V(tau_s) U^m a(0), evaluated
    by ``_fold``. Memory holds the stored samples, the table, one vector per
    period and one block of periods, never every step.

    Raises IntegrationFailure if the norm drifts beyond the hard bound at
    any step of the horizon, carrying the time of the first such step. Like
    ``monodromy``, the sweep also gates the image of every basis state over
    the first period, so a step size too coarse for any of them fails even
    where this state alone would pass.
    """
    a0 = require_state("initial state", initial, spec.n_sites)
    h = _step_size(spec, steps_per_period)
    require_int("stride", stride, 1)
    steps = t_final / h
    if not 0.0 < steps < math.inf:  # NaN fails too
        raise ValidationError(f"t_final {t_final!r} is not a finite time > 0")
    nsteps = max(1, int(round(steps)))
    check_step_count(nsteps)
    if nsteps % stride != 0:
        raise ValidationError(
            f"stride {stride} must divide the total step count {nsteps}"
        )

    n, spp = spec.n_sites, steps_per_period
    (u,), rows, _ = _row_table(spec, [spec.a2], spp, list(range(n)))
    (w,) = _period_starts(u[np.newaxis], a0, nsteps // spp + 1)

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
                dev, 0.0, j0 - 1, h, "across periods, first at t={t!r}"))
            np.minimum(min_pops, pops.min(axis=0), out=min_pops)
            first = -j0 % stride
            stored[(j0 + first) // stride:(j0 + len(amps) - 1) // stride + 1] = (
                amps[first::stride])
        del block, amps  # freed before ``_fold`` forms the next block
    times = h * stride * np.arange(stored.shape[0])
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
    # the _StartsGroup ``_group_pass`` formed last, or None
    _group: list = field(default_factory=lambda: [None], init=False,
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
               sites: list[int]):
    """(U(T, 0) per point, rows, worst norm deviation), rows[s, p, i] being
    row sites[i] of point p's U(t_s, 0), s = 0..steps_per_period."""
    _step_size(spec, steps_per_period)  # checked before it sizes rows
    shape = (steps_per_period + 1, np.size(a2_values), len(sites),
             spec.n_sites)
    # The table gets an anonymous mapping of its own, unmapped when its
    # last view goes. From malloc, fig4 scans repeated for 16 s peaked
    # 13.5 MB higher in 2 to 6 of 8 runs, with two table-sized regions
    # resident in one thread arena (a freed table beside the next one).
    rows = np.frombuffer(mmap.mmap(-1, 16 * max(1, math.prod(shape))),
                         dtype=complex, count=math.prod(shape)).reshape(shape)

    def collect(first, states):  # row j of a state is U(t_s, 0)[:, j]
        rows[first:first + len(states)] = states[..., sites].swapaxes(-1, -2)

    n = spec.n_sites
    eye = np.broadcast_to(np.eye(n, dtype=complex), (np.size(a2_values), n, n))
    y, max_dev = _sweep(spec, a2_values, eye, steps_per_period, collect)
    return y.transpose(0, 2, 1), rows, max_dev


def _period_starts(u: np.ndarray, a0: np.ndarray, count: int) -> np.ndarray:
    """w[p, :, m] = U_p^m a0 for m = 0..count - 1, for a (points, n, n)
    stack ``u`` of one-period operators and a0 of shape (n,) or (points, n).

    One ``np.matmul`` per period over the stack. Each point's floats are
    those of its own matrix-vector products, so starts regenerated from any
    one of them are the floats the unbroken recurrence gives.
    """
    w = np.empty(u.shape[:2] + (count,), dtype=complex)
    cur = np.empty(u.shape[:2] + (1,), dtype=complex)
    cur[:, :, 0] = a0
    w[:, :, 0] = a0
    for m in range(1, count):
        cur = u @ cur
        w[:, :, m] = cur[:, :, 0]
    return w


def _start_drift(w: np.ndarray) -> np.ndarray:
    """Per point, the worst norm drift of the (points, n, columns) starts w.

    With two columns or more numpy adds the sites in order, as it does
    for one point's (n, columns) starts.
    """
    norms = w.real**2
    norms += w.imag**2
    return np.abs(np.sum(norms, axis=1) - 1.0).max(axis=1)


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


def _checked_point(table: PeriodTable, point, initial, periods) -> np.ndarray:
    """``initial`` as checked amplitudes, after checking ``point`` and
    ``periods`` against the table."""
    count, n = table.monodromies.shape[:2]
    require_int("point", point, 0)
    if point >= count:
        raise ValidationError(f"point must be < {count}, got {point}")
    require_int("periods", periods, 1)
    return require_state("initial state", initial, n)


def _drift_gate(table: PeriodTable, drift: np.ndarray, periods: int) -> float:
    """``_norm_gate`` on a point's starts drift, of shape (1,); h = 0: a
    failure is timed at the horizon's end."""
    return _norm_gate(drift, periods * table.period, 0, 0.0, "across periods")


@dataclass(frozen=True)
class _StartsGroup:
    """What ``_group_pass`` keeps of points first, first + 1, ... of a table:
    per point, the start U^m0 a0 of every fold block (m0, m1) of ``edges``,
    a lower bound on each block's least population, and the starts' worst
    norm drift over periods 0..periods."""

    first: int
    periods: int
    initial: np.ndarray
    edges: list[tuple[int, int]]
    checkpoints: np.ndarray  # (points, blocks, n)
    bounds: np.ndarray  # (points, blocks)
    drift: np.ndarray  # (points,)


def _group_pass(table: PeriodTable, first: int, initial: np.ndarray,
                periods: int) -> _StartsGroup:
    """The period starts of points first, first + 1, ... of ``table``, as
    many as fit STARTS_BYTES, reduced to what their folds need.

    The recurrence runs over the whole group a slab of periods at a time:
    the slabs are the blocks ``_fold`` forms from the coarse rows, every
    COARSE_STRIDE-th step of a period and the last one. From each slab's
    starts it keeps, per point, the checkpoint of every fold block that
    begins in it, the norm drift, and the block bounds. Between two coarse
    samples k steps apart no step's value is below (P_l + P_r) / 2 - k c / 2,
    c = the point's ``step_change``: it lies within j c of P_l and
    (k - j) c of P_r, j steps in, and the larger of those two lower bounds
    is at least their mean. Every k is COARSE_STRIDE but the last, which
    may be less, so the widest k serves all. Each computed value is within
    2 n machine epsilons of the exact product's, so four times that covers
    both sides. A point holds n (blocks + slab) starts, not n (periods + 1).
    """
    n = table.monodromies.shape[1]
    spp = table.steps_per_period
    coarse = np.r_[0:spp:COARSE_STRIDE, spp]
    edges = _block_edges(spp + 1, periods)
    slabs = _block_edges(len(coarse), periods)
    width = max(m1 - m0 for m0, m1 in slabs) + 1
    size = max(1, STARTS_BYTES // (16 * n * (len(edges) + width)
                                   + 8 * len(edges)))
    u = table.monodromies[first:first + size]
    block_first = np.array([m0 for m0, _ in edges])
    checkpoints = np.empty((len(u), len(edges), n), dtype=complex)
    bounds = np.full((len(u), len(edges)), np.inf)
    drift = np.zeros(len(u))
    gap = 0.5 * np.diff(coarse).max()
    eps = 8 * n * np.finfo(float).eps
    start = initial
    with np.errstate(over="ignore", invalid="ignore"):  # the gate reports
        for s0, s1 in slabs:
            w = _period_starts(u, start, s1 - s0 + 1)  # and the next start
            start = w[:, :, -1].copy()
            np.maximum(drift, _start_drift(w), out=drift)
            # blocks k0..k1 - 1 begin in the slab, blocks i0..k1 - 1 meet it
            k0, k1 = np.searchsorted(block_first, [s0, s1])
            i0 = np.searchsorted(block_first, s0, "right") - 1
            checkpoints[:, k0:k1] = w[:, :, block_first[k0:k1] - s0].swapaxes(
                1, 2)
            cuts = np.maximum(block_first[i0:k1], s0) - s0
            for j, p in enumerate(range(first, first + len(u))):
                rows = table.site_rows[coarse, p]
                low = _interval_low(rows @ w[j, :, :s1 - s0],
                                    gap * table.step_change[p] + eps)
                part = bounds[j, i0:k1]
                np.minimum(part, np.minimum.reduceat(low, cuts), out=part)
            del w  # freed before the next slab is formed
    return _StartsGroup(first, periods, np.array(initial), edges, checkpoints,
                        bounds, drift)


def _starts_group(table: PeriodTable, point, initial, periods) -> _StartsGroup:
    """The group that holds ``point``, after checking the arguments.

    The table keeps one group, so a scan that asks for its points in order
    runs each point's starts once, in one ``np.matmul`` per period for the
    whole group; any other query forms a new group from ``point`` on.
    """
    initial = _checked_point(table, point, initial, periods)
    group = table._group[0]
    if (group is None or group.periods != periods
            or not group.first <= point < group.first + len(group.drift)
            or not np.array_equal(group.initial, initial)):
        table._group[0] = group = None  # freed before the next is formed
        group = table._group[0] = _group_pass(table, point, initial, periods)
    return group


def _interval_low(amps: np.ndarray, slack: float) -> np.ndarray:
    """Per column of coarse samples, min of (P_l + P_r) / 2 - ``slack``.

    x -> x / 2 - slack is monotone, so it is applied to each column's least
    P_l + P_r: the same floats as applying it to every interval. A caller
    that passes the product itself keeps no reference to it, so it is freed
    once its populations are taken, and the pruned fold peaks below the
    full fold.
    """
    pops = np.abs(amps)
    del amps
    pops *= pops
    return (pops[:-1] + pops[1:]).min(axis=0) * 0.5 - slack


def folded_min_population(
    table: PeriodTable, point: int, initial: np.ndarray, periods: int
) -> tuple[float, float]:
    """(min |a_site|^2 over every step of ``periods`` periods, norm deviation).

    Exactly the RK4 evolution of ``initial``, evaluated through powers of the
    one-period map instead of re-stepping every period. The sample set covers
    every integrator step from t=0 through t = periods * T inclusive.

    Only the ``_fold`` blocks that can hold the minimum are formed: in
    ascending order of their lower bound (``_group_pass``), each exactly as
    ``_fold`` forms it, from starts regenerated from the block's
    checkpoint, until the next bound is at or above the running minimum.
    So the result is the float the full fold gives.
    """
    group = _starts_group(table, point, initial, periods)
    j = point - group.first
    drift = _drift_gate(table, group.drift[j:j + 1], periods)
    rows = table.site_rows[:, point]
    bounds = group.bounds[j]
    low = np.inf
    for i, w in _block_starts(table.monodromies[point], group.checkpoints[j],
                              group.edges, np.argsort(bounds, kind="stable")):
        if bounds[i] >= low:
            break
        # fl(x x) is monotone in x >= 0; a NumPy scalar's ** 2 is C pow
        low = np.minimum(low, np.square(np.abs(rows @ w).min()))
    return float(low), max(drift, table.max_norm_deviation)


def _block_starts(u: np.ndarray, checkpoints: np.ndarray, edges, order):
    """Yield (i, starts of fold block i) for the blocks i of ``order``.

    The starts are regenerated from the blocks' checkpoints 1, 2, 4, ...
    blocks at a time, in one ``np.matmul`` per period over copies of the
    one-period operator ``u``. A caller that stops early has regenerated at
    most twice the blocks it looked at.
    """
    done = 0
    while done < len(order):
        batch = order[done:2 * done + 1]
        width = max(edges[i][1] - edges[i][0] for i in batch)
        w = _period_starts(np.broadcast_to(u, (len(batch),) + u.shape),
                           checkpoints[batch], width)
        for i, starts in zip(batch, w):
            m0, m1 = edges[i]
            yield i, starts[:, :m1 - m0]
        done += len(batch)


def check_step_count(steps: int) -> None:
    """ValidationError unless ``steps`` integrator steps fit np.intp."""
    if steps > np.iinfo(np.intp).max:
        raise ValidationError(
            f"a horizon of {steps} steps is too long: at most "
            f"{np.iinfo(np.intp).max} steps can be indexed")


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
    initial = _checked_point(table, point, initial, periods)
    w = _period_starts(table.monodromies[point:point + 1], initial,
                       periods + 1)
    _drift_gate(table, _start_drift(w), periods)
    w = w[0]
    rows = table.site_rows[:, point]
    k = spp // stride  # samples per period
    series = np.empty(periods * k + 1)
    for m0, amps in _fold(rows[:-1:stride], w[:, :periods]):
        series[m0 * k:(m0 + amps.shape[1]) * k] = (
            np.abs(amps) ** 2).ravel(order="F")
    # t = periods * T; a NumPy scalar's ** 2 is C pow, the array's x x
    series[-1] = np.square(np.abs(rows[-1] @ w[:, periods - 1]))
    times = np.arange(series.size) * (table.period / spp * stride)
    times[-1] = periods * table.period
    return times, series

