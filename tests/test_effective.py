import math

import numpy as np
import pytest

from floquet_lattice import (
    StateVector,
    SystemSpec,
    ValidationError,
    analytic_p1,
    basis_state,
    effective_params,
    effective_propagate,
    j0_zero,
    propagate,
    site_population_series,
)

from helpers import averaged_eigenvalues, bessel_quadrature


def spec3(**kw):
    base = dict(n_sites=3, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0, omega=10.0)
    base.update(kw)
    return SystemSpec(**base)


E1 = basis_state(3, 1)


def test_reference_couplings():
    params = effective_params(spec3(), E1)
    j01 = bessel_quadrature(0, 2.2)
    assert params.j01 == pytest.approx(j01, abs=1e-10)
    assert abs(params.j01 - 0.110362) < 1e-6
    assert params.j02 == 1.0
    assert params.k_rate == pytest.approx(math.sqrt(j01**2 + 1.0), abs=1e-10)
    assert params.k_rate == pytest.approx(1.0060714835240094, abs=1e-9)


def test_averaged_hamiltonian_oracle_matches_k_rate():
    # without second-order coupling the N-site averaged Hamiltonian of the
    # test helpers is the three-site closed form: eigenvalues 0, +-k_rate
    for a2 in (0.0, 10.0, 22.0, 24.0, 33.0):
        spec = spec3(a2=a2)
        k = effective_params(spec, E1).k_rate
        assert np.max(np.abs(averaged_eigenvalues(spec) - [-k, 0.0, k])) < 1e-10


def test_symmetric_drive_constants():
    params = effective_params(spec3(a1=22.0, a2=22.0), E1)
    assert params.c1 == pytest.approx(-0.5, abs=1e-12)
    assert params.c3 == pytest.approx(-1j / math.sqrt(2.0), abs=1e-12)
    assert params.c2 == 0.0


def test_constants_at_bessel_zero():
    params = effective_params(spec3(a2=j0_zero(1) * 10.0), E1)
    assert abs(params.c1) < 1e-12
    assert abs(abs(params.c3) - 1.0) < 1e-12


def test_analytic_p1_at_origin():
    params = effective_params(spec3(a2=13.0), E1)
    assert analytic_p1(params, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_analytic_p1_reduces_to_cos_squared_at_zero_coupling():
    # with J02 = 0 only sites 1 and 2 exchange: P1 = cos^2(K t), which
    # vanishes first at t = pi / (2 K)
    params = effective_params(spec3(a2=j0_zero(1) * 10.0), E1)
    t_quarter = math.pi / (2.0 * params.k_rate)
    assert analytic_p1(params, t_quarter) == pytest.approx(0.0, abs=1e-12)
    assert analytic_p1(params, 2 * t_quarter) == pytest.approx(1.0, abs=1e-12)


def test_analytic_p1_floor_at_cdt_point():
    params = effective_params(spec3(), E1)
    t_half = math.pi / params.k_rate
    floor = analytic_p1(params, t_half)
    j01 = params.j01
    expected = ((1.0 - j01**2) / (1.0 + j01**2)) ** 2
    assert floor == pytest.approx(expected, abs=1e-12)
    assert floor == pytest.approx(0.9524461307750679, abs=1e-9)


def test_analytic_p1_symmetric_drive_vanishes():
    params = effective_params(spec3(a2=22.0), E1)
    assert analytic_p1(params, math.pi / params.k_rate) == pytest.approx(0.0, abs=1e-12)


def test_analytic_p1_requires_site1_start():
    params = effective_params(spec3(a2=5.0), basis_state(3, 2))
    with pytest.raises(ValidationError):
        analytic_p1(params, 0.1)


def test_minimum_branches_on_dense_grid():
    # whichever renormalized coupling dominates decides whether P1 can
    # actually reach zero
    for a2_ratio, expect_zero in ((2.0, False), (2.3, True)):
        params = effective_params(spec3(a2=a2_ratio * 10.0), E1)
        t = np.linspace(0.0, 2.0 * math.pi / params.k_rate, 200001)
        values = analytic_p1(params, t)
        s = params.j01**2 + params.j02**2
        if expect_zero:
            assert values.min() < 1e-8
        else:
            floor = ((params.j02**2 - params.j01**2) / s) ** 2
            assert values.min() == pytest.approx(floor, abs=1e-8)


def test_closed_form_norm_and_ode_residual():
    rng = np.random.default_rng(9)
    params = effective_params(spec3(a2=17.0), E1)
    k = params.omega0
    h_eff = np.array([
        [0.0, k * params.j01, 0.0],
        [k * params.j01, 0.0, k * params.j02],
        [0.0, k * params.j02, 0.0],
    ])
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    state = StateVector(raw / np.linalg.norm(raw))
    traj = effective_propagate(params, state, t_final=40.0, n_samples=257)
    norms = np.sum(np.abs(traj.amplitudes) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    delta = 1e-5
    for t in rng.uniform(delta, 40.0, size=8):
        t = float(t)
        plus = effective_propagate(params, state, t + delta, n_samples=2).amplitudes[-1]
        minus = effective_propagate(params, state, t - delta, n_samples=2).amplitudes[-1]
        here = effective_propagate(params, state, t, n_samples=2).amplitudes[-1]
        deriv = (plus - minus) / (2.0 * delta)
        assert np.max(np.abs(1j * deriv - h_eff @ here)) < 1e-8


def test_periodic_return():
    params = effective_params(spec3(a2=13.0), E1)
    t_rabi = 2.0 * math.pi / params.k_rate
    traj = effective_propagate(params, E1, t_final=t_rabi, n_samples=3)
    assert abs(abs(traj.amplitudes[-1][0]) ** 2 - 1.0) < 1e-12


def test_two_level_reduction_at_zero_coupling():
    # J02 = 0 decouples site 3 up to a phase: from (0, 1, 0) the population
    # swings between sites 1 and 2 only
    params = effective_params(spec3(a2=j0_zero(1) * 10.0), basis_state(3, 2))
    traj = effective_propagate(params, basis_state(3, 2), t_final=30.0,
                               n_samples=601)
    p3 = np.abs(traj.amplitudes[:, 2]) ** 2
    assert np.max(p3) < 1e-25
    p1 = np.abs(traj.amplitudes[:, 0]) ** 2
    assert np.max(p1) > 0.999


def test_degenerate_couplings_rejected():
    z1 = j0_zero(1) * 10.0
    with pytest.raises(ValidationError, match="frozen"):
        effective_params(spec3(a1=z1, a2=z1), E1)


@pytest.mark.parametrize("t_final, n_samples, message", [
    (0.0, 11, "t_final"), (-1.0, 11, "t_final"), (1.0, 1, "n_samples")])
def test_effective_propagate_rejects_bad_grids(t_final, n_samples, message):
    params = effective_params(spec3(a2=5.0), E1)
    with pytest.raises(ValidationError, match=message):
        effective_propagate(params, E1, t_final, n_samples)


def test_requires_three_sites():
    spec4 = SystemSpec(n_sites=4, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0, omega=10.0)
    with pytest.raises(ValidationError):
        effective_params(spec4, basis_state(4, 1))


def test_populations_match_numerics_at_high_frequency():
    # the frame change preserves moduli, so |b_j| compares directly to |a_j|.
    # The pointwise gap grows through the window as the averaged model's slow
    # frequency lags the exact one; the ten-period maximum at omega = 10
    # measures ~0.059 (a2 = 0) and ~0.098 (a2/omega = 2).
    for a2_ratio, bound in ((0.0, 0.08), (2.0, 0.12)):
        spec = spec3(a2=a2_ratio * 10.0)
        traj = propagate(spec, E1, t_final=10 * spec.period,
                         steps_per_period=1000, stride=10)
        params = effective_params(spec, E1)
        ana = analytic_p1(params, traj.times)
        _, num = site_population_series(traj, 1)
        assert np.max(np.abs(num - ana)) < bound
