"""Independent oracles shared by the test modules.

These deliberately avoid the package's own evaluation paths: the Bessel
oracle is a composite trapezoid rule on the integral representation, the
static-spectrum oracle is a dense Hermitian eigensolve of the undriven
coupling matrix, the averaged-Hamiltonian oracle is the same eigensolve
with every coupling renormalized by the quadrature J_0, and the propagation
oracle is a direct RK4 step loop over row states, H(t) applied by slice
arithmetic at every step of the horizon. The Hamiltonian reference
assembles H(t) as one dense matrix (from the package's coupling matrix),
which the step loop's slice arithmetic is checked against. The step-matrix
oracle runs Horner's rule over every entry of the step matrices. The
period-fold oracle evaluates a whole horizon as one product of a period's
site rows with every period start. The branch-matching oracle scores every
one of the n! permutations.
"""

import itertools
import math

import numpy as np

from floquet_lattice import (IntegrationFailure, SystemSpec, Trajectory,
                             static_hamiltonian)
from floquet_lattice.floquet import OVERLAP_AMBIGUITY
from floquet_lattice.propagator import NORM_FAILURE_BOUND


def bessel_quadrature(k: int, x: float, n_points: int = 16384) -> float:
    """J_k(x) = (1/pi) * integral_0^pi cos(k tau - x sin tau) d tau.

    The integrand extends to an even, 2pi-periodic smooth function, so the
    composite trapezoid rule converges spectrally; n_points >= 1e4 leaves
    the error at rounding level for |x| <= 60, k <= 10.
    """
    tau = np.linspace(0.0, np.pi, n_points + 1)
    f = np.cos(k * tau - x * np.sin(tau))
    return float(np.trapezoid(f, tau) / np.pi)


def bisect_zero(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection against an arbitrary sign-changing callable."""
    f_lo = fn(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def static_eigenvalues(n: int, omega0: float, nu0: float = 0.0) -> np.ndarray:
    """Sorted spectrum of the undriven chain (independent dense eigensolve)."""
    h = np.zeros((n, n))
    for j in range(n - 1):
        h[j, j + 1] = h[j + 1, j] = omega0
    for j in range(n - 2):
        h[j, j + 2] = h[j + 2, j] = nu0
    return np.sort(np.linalg.eigvalsh(h))


def averaged_hamiltonian(spec) -> np.ndarray:
    """First-order high-frequency Hamiltonian of the driven chain.

    In the frame b_j = a_j exp(i d_j sin(omega t) / omega), with on-site
    drive amplitudes d = (a1, 0, ..., 0, a2), the coupling between sites j
    and k picks up the phase exp(i (d_j - d_k) sin(omega t) / omega), whose
    period average is J_0((d_j - d_k) / omega). The frame change is
    T-periodic, so the eigenvalues of this matrix are the quasi-energies to
    first order. J_0 comes from the quadrature oracle, not the package.
    """
    n = spec.n_sites
    drive = np.zeros(n)
    drive[0] += spec.a1
    drive[-1] += spec.a2
    h = np.zeros((n, n))
    for step, coupling in ((1, spec.omega0), (2, spec.nu0)):
        for j in range(n - step):
            k = j + step
            h[j, k] = h[k, j] = coupling * bessel_quadrature(
                0, (drive[j] - drive[k]) / spec.omega
            )
    return h


def averaged_eigenvalues(spec) -> np.ndarray:
    """Sorted spectrum of ``averaged_hamiltonian(spec)``."""
    return np.sort(np.linalg.eigvalsh(averaged_hamiltonian(spec)))


def fold_into_zone(values: np.ndarray, omega: float) -> np.ndarray:
    """Fold real energies into (-omega/2, omega/2]."""
    folded = np.mod(np.asarray(values, dtype=float) + 0.5 * omega, omega) - 0.5 * omega
    folded[folded <= -0.5 * omega] += omega  # exact lower edge maps to +omega/2
    return folded


def circular_match(eps_a, eps_b, omega: float) -> float:
    """Max circular distance between two sorted quasi-energy multisets."""
    a = np.sort(np.asarray(eps_a, dtype=float))
    b = np.sort(np.asarray(eps_b, dtype=float))
    d = np.abs(a - b) % omega
    return float(np.max(np.minimum(d, omega - d)))


def hamiltonian_at(spec: SystemSpec, t: float) -> np.ndarray:
    """Dense instantaneous Hamiltonian H(t), assembled as a matrix.

    Diagonal: a1 cos(omega t) at site 1 and a2 cos(omega t) at site N, zero
    elsewhere. Off-diagonal: the package's ``static_hamiltonian``, omega0
    one step off the diagonal, nu0 two steps off, nothing beyond.
    """
    h = static_hamiltonian(spec).astype(complex)
    c = math.cos(spec.omega * t)
    h[0, 0] = spec.a1 * c
    h[-1, -1] = spec.a2 * c
    return h


# ---------------------------------------------------------------------------
# Direct RK4 step loop


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


def direct_propagate(spec, initial, t_final, steps_per_period, stride=1):
    """``propagate``'s Trajectory from stepping every step of the horizon.

    Same sampling as the package: the amplitudes ``initial`` at t = 0, the
    horizon rounded to whole steps, every stride-th sample stored, minima
    over every sample and the worst norm deviation over every step.
    """
    h = spec.period / steps_per_period
    nsteps = max(1, int(round(t_final / h)))
    assert nsteps % stride == 0
    stored = np.empty((nsteps // stride + 1, spec.n_sites), dtype=complex)
    min_pops = np.ones(spec.n_sites)

    def collect(i, y):
        np.minimum(min_pops, y.real[0] ** 2 + y.imag[0] ** 2, out=min_pops)
        if i % stride == 0:
            stored[i // stride] = y[0]

    y = np.array(initial, dtype=complex)[np.newaxis, :]
    max_dev = _rk4_advance(y, _edge_amps(spec, 1), spec.omega0, spec.nu0,
                           spec.omega, h, nsteps, on_step=collect)
    return Trajectory(
        spec=spec,
        times=h * stride * np.arange(stored.shape[0]),
        amplitudes=stored,
        step_size=h * stride,
        steps_per_period=steps_per_period,
        stride=stride,
        min_populations=min_pops,
        max_norm_deviation=max_dev,
    )


def whole_matrix_step_matrices(coef, a2, out, *_):
    """``propagator._step_matrices``' R = sum_j a2^j coef[j] by Horner's rule
    over all n^2 entries of every step matrix, into ``out`` (L, points, n,
    n). It takes the kernel's arguments and ignores its corner and scratch,
    so it can stand in for the kernel inside a sweep."""
    cf = coef.view(np.float64)[:, :, np.newaxis]
    rf = out.view(np.float64)
    x = np.asarray(a2).reshape(1, -1, 1, 1)
    np.multiply(cf[4], x, out=rf)
    for j in (3, 2, 1):
        rf += cf[j]
        rf *= x
    rf += cf[0]
    return out


# ---------------------------------------------------------------------------
# One-product period fold


def _starts(table, point, initial, periods):
    """Columns U^m a0 for m = 0..periods - 1."""
    u = table.monodromies[point]
    w = np.empty((u.shape[0], periods), dtype=complex)
    cur = np.asarray(initial, dtype=complex)
    for m in range(periods):
        w[:, m] = cur
        cur = u @ cur
    return w


def one_product_min_population(table, point, initial, periods):
    """``folded_min_population``'s minimum from one (steps + 1) x periods
    product of every site row with every period start."""
    w = _starts(table, point, initial, periods)
    return float((np.abs(table.site_rows[:, point, :] @ w) ** 2).min())


def one_product_population_series(table, point, initial, periods, stride):
    """``folded_population_series``'s (times, populations) from one product
    of the stride rows with every period start, plus the end-of-horizon
    sample from the end-of-period row."""
    spp = table.steps_per_period
    w = _starts(table, point, initial, periods)
    rows = table.site_rows[::stride, point, :]
    series = (np.abs(rows[:-1] @ w) ** 2).flatten(order="F")
    final = np.square(np.abs(table.site_rows[-1, point, :] @ w[:, -1]))
    times = np.arange(series.size + 1) * (table.period / spp * stride)
    times[-1] = periods * table.period
    return times, np.append(series, final)


# ---------------------------------------------------------------------------
# Full enumeration of mode matchings


def enumerate_best_permutation(prev_vecs, next_vecs, prev_eps, next_eps, omega):
    """``_best_permutation``'s (permutation, ambiguous) from all n! scores.

    Every permutation is scored by summing its overlaps in row order; the
    best is the first max-score permutation in lexicographic order, and the
    near-ties (within OVERLAP_AMBIGUITY of it) are resolved by the smallest
    summed circular quasi-energy gap, first candidate on ties.
    """
    n = len(prev_eps)
    overlap = np.abs(prev_vecs.conj() @ next_vecs.T)
    best_perm, best_score = None, -1.0
    scores = []
    for perm in itertools.permutations(range(n)):
        score = float(sum(overlap[i, perm[i]] for i in range(n)))
        scores.append((score, perm))
        if score > best_score:
            best_score, best_perm = score, perm
    near = [
        (score, perm) for score, perm in scores
        if best_score - score < OVERLAP_AMBIGUITY and perm != best_perm
    ]
    ambiguous = bool(near)
    if ambiguous:
        def eps_cost(perm):
            total = 0
            for i in range(n):
                d = abs(prev_eps[i] - next_eps[perm[i]]) % omega
                total = total + min(d, omega - d)
            return total
        candidates = [(best_score, best_perm)] + near
        best_perm = min(candidates, key=lambda item: eps_cost(item[1]))[1]
    return best_perm, ambiguous
