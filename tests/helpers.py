"""Independent oracles shared by the test modules.

These deliberately avoid the package's own evaluation paths: the Bessel
oracle is a composite trapezoid rule on the integral representation, the
static-spectrum oracle is a dense Hermitian eigensolve of the undriven
coupling matrix, the averaged-Hamiltonian oracle is the same eigensolve
with every coupling renormalized by the quadrature J_0, and the propagation
oracle is a direct RK4 step loop over row states, H(t) applied by slice
arithmetic at every step of the horizon.
"""

import math

import numpy as np

from floquet_lattice import IntegrationFailure, SystemSpec, Trajectory
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

    Same sampling as the package: the horizon rounded to whole steps from
    ``initial.time``, every stride-th sample stored, minima over every
    sample and the worst norm deviation over every step.
    """
    h = spec.period / steps_per_period
    nsteps = max(1, int(round((t_final - initial.time) / h)))
    assert nsteps % stride == 0
    stored = np.empty((nsteps // stride + 1, spec.n_sites), dtype=complex)
    min_pops = np.ones(spec.n_sites)

    def collect(i, y):
        np.minimum(min_pops, y.real[0] ** 2 + y.imag[0] ** 2, out=min_pops)
        if i % stride == 0:
            stored[i // stride] = y[0]

    y = initial.amplitudes[np.newaxis, :].copy()
    max_dev = _rk4_advance(y, _edge_amps(spec, 1), spec.omega0, spec.nu0,
                           spec.omega, h, nsteps, t0=initial.time,
                           on_step=collect)
    return Trajectory(
        spec=spec,
        times=initial.time + h * stride * np.arange(stored.shape[0]),
        amplitudes=stored,
        step_size=h * stride,
        steps_per_period=steps_per_period,
        stride=stride,
        min_populations=min_pops,
        max_norm_deviation=max_dev,
    )
