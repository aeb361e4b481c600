import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floquet_lattice import (
    IntegrationFailure,
    StateVector,
    SystemSpec,
    Trajectory,
    ValidationError,
    basis_state,
    min_population,
    monodromy,
    floquet_modes,
    propagate,
    propagation_norm_drift,
    site_population_series,
)
from floquet_lattice.propagator import (
    _step_coefficients,
    _step_matrices,
    basis_sweep,
    folded_min_population,
    folded_population_series,
    one_period_table,
    period_average,
)
from helpers import _edge_amps, _rhs, _rk4_advance, direct_propagate


def spec3(**kw):
    base = dict(n_sites=3, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0, omega=10.0)
    base.update(kw)
    return SystemSpec(**base)


def test_decoupled_sites_freeze_populations():
    spec = SystemSpec(n_sites=4, omega0=0.0, nu0=0.0, a1=9.0, a2=-4.0, omega=5.0)
    for site in (1, 4):
        traj = propagate(spec, basis_state(4, site), t_final=3 * spec.period,
                         steps_per_period=800)
        mods = np.abs(traj.amplitudes[:, site - 1])
        assert np.max(np.abs(mods - 1.0)) < 1e-9  # integrator rounding only
        others = [j for j in range(4) if j != site - 1]
        assert np.max(np.abs(traj.amplitudes[:, others])) == 0.0


def test_cdt_keeps_population_home():
    spec = spec3()
    traj = propagate(spec, basis_state(3, 1), t_final=50 * spec.period, stride=10)
    assert min_population(traj, 1) > 0.9


def test_delocalization_at_first_zero():
    spec = spec3(a2=24.0)  # a2/omega = 2.4, essentially at the first J0 zero
    traj = propagate(spec, basis_state(3, 1), t_final=200 * spec.period, stride=100)
    assert min_population(traj, 1) < 0.05
    _, p1 = site_population_series(traj, 1)
    assert p1.max() > 0.95


def test_partial_suppression_value():
    spec = spec3(a2=20.0)
    traj = propagate(spec, basis_state(3, 1), t_final=200 * spec.period, stride=100)
    assert 0.3 < min_population(traj, 1) < 0.5


def test_norm_conservation_default_resolution():
    spec = spec3(a2=24.0)
    traj = propagate(spec, basis_state(3, 1), t_final=20 * spec.period, stride=20)
    assert traj.max_norm_deviation < 1e-9


def test_linearity():
    spec = spec3(a2=11.0)
    rng = np.random.default_rng(5)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    u /= np.linalg.norm(u)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v -= (u.conj() @ v) * u
    v /= np.linalg.norm(v)
    theta, phi = 0.7, 1.3
    combo = np.cos(theta) * u + np.sin(theta) * np.exp(1j * phi) * v
    t_final = 2 * spec.period
    kw = dict(steps_per_period=500)
    tu = propagate(spec, StateVector(u), t_final, **kw)
    tv = propagate(spec, StateVector(v), t_final, **kw)
    tc = propagate(spec, StateVector(combo), t_final, **kw)
    recon = np.cos(theta) * tu.amplitudes + np.sin(theta) * np.exp(1j * phi) * tv.amplitudes
    assert np.max(np.abs(recon - tc.amplitudes)) < 1e-8


def test_reversibility():
    # over a whole number of periods the cosine drive is time-even, so
    # conjugating the final state and re-running the same system walks the
    # dynamics back to the (conjugated) start
    spec = spec3(a2=17.0, nu0=0.2)
    fwd = propagate(spec, basis_state(3, 1), t_final=3 * spec.period,
                    steps_per_period=800)
    final = fwd.amplitudes[-1].conj()
    back = propagate(spec, StateVector(final), t_final=3 * spec.period,
                     steps_per_period=800)
    recovered = back.amplitudes[-1].conj()
    start = basis_state(3, 1).amplitudes
    assert np.max(np.abs(recovered - start)) < 1e-6


def test_fourth_order_convergence():
    spec = spec3(a2=20.0)
    t_final = 2 * spec.period
    ref = propagate(spec, basis_state(3, 1), t_final, steps_per_period=6400)
    coarse = propagate(spec, basis_state(3, 1), t_final, steps_per_period=400)
    fine = propagate(spec, basis_state(3, 1), t_final, steps_per_period=800)
    err_coarse = np.linalg.norm(coarse.amplitudes[-1] - ref.amplitudes[-1])
    err_fine = np.linalg.norm(fine.amplitudes[-1] - ref.amplitudes[-1])
    ratio = err_coarse / err_fine
    assert 13.0 < ratio < 19.0


def test_floquet_mode_moduli_return_after_one_period():
    spec = spec3(a2=13.0)
    modes = floquet_modes(monodromy(spec, 1000))
    for mode in modes:
        traj = propagate(spec, StateVector(mode.vector), t_final=spec.period,
                         steps_per_period=1000)
        assert np.max(np.abs(np.abs(traj.amplitudes[-1]) - np.abs(mode.vector))) < 1e-6


def test_min_population_zero_for_unvisited_site():
    spec = SystemSpec(n_sites=3, omega0=0.0, nu0=0.0, a1=5.0, a2=0.0, omega=10.0)
    traj = propagate(spec, basis_state(3, 1), t_final=spec.period,
                     steps_per_period=100)
    assert min_population(traj, 2) == 0.0


def test_population_series_shape_and_range():
    spec = spec3(a2=24.0)
    traj = propagate(spec, basis_state(3, 1), t_final=5 * spec.period,
                     steps_per_period=500, stride=5)
    times, p1 = site_population_series(traj, 1)
    assert times.size == p1.size == traj.n_samples
    assert p1[0] == 1.0
    assert np.all(p1 >= 0.0) and np.all(p1 <= 1.0 + 1e-12)
    with pytest.raises(ValidationError):
        site_population_series(traj, 4)


def test_stride_decimation_preserves_minima():
    spec = spec3(a2=24.0)
    full = propagate(spec, basis_state(3, 1), t_final=5 * spec.period,
                     steps_per_period=500)
    thin = propagate(spec, basis_state(3, 1), t_final=5 * spec.period,
                     steps_per_period=500, stride=50)
    assert np.array_equal(full.min_populations, thin.min_populations)
    assert np.array_equal(full.amplitudes[::50], thin.amplitudes)
    assert thin.step_size == pytest.approx(50 * full.step_size)


def test_precondition_errors():
    spec = spec3()
    good = basis_state(3, 1)
    bad = StateVector(np.array([0.9, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="norm"):
        propagate(spec, bad, t_final=1.0)
    with pytest.raises(ValidationError, match="t_final"):
        propagate(spec, good, t_final=0.0)
    with pytest.raises(ValidationError, match="steps_per_period"):
        propagate(spec, good, t_final=1.0, steps_per_period=50)
    with pytest.raises(ValidationError, match="stride"):
        propagate(spec, good, t_final=spec.period, steps_per_period=500, stride=7)
    with pytest.raises(ValidationError, match="sites"):
        propagate(spec, basis_state(4, 1), t_final=1.0)


def test_integration_failure_carries_time():
    spec = SystemSpec(n_sites=2, omega0=1.0, nu0=0.0, a1=0.0, a2=600.0, omega=10.0)
    with pytest.raises(IntegrationFailure) as err:
        propagate(spec, basis_state(2, 2), t_final=spec.period,
                  steps_per_period=100)
    assert err.value.time > 0.0


@pytest.mark.filterwarnings("error")
def test_non_finite_norm_fails_the_step_gate():
    # cos(omega t) * 1e308 overflows to inf and the state to NaN, which a
    # `dev > bound` test would let through
    spec = spec3(a1=1e308)
    with pytest.raises(IntegrationFailure):
        propagate(spec, basis_state(3, 1), t_final=spec.period,
                  steps_per_period=100)


def test_min_population_site_errors():
    spec = spec3()
    traj = propagate(spec, basis_state(3, 1), t_final=spec.period,
                     steps_per_period=200)
    with pytest.raises(ValidationError):
        min_population(traj, 0)
    with pytest.raises(ValidationError):
        min_population(traj, 4)
    empty = Trajectory(
        spec=spec, times=np.empty(0), amplitudes=np.empty((0, 3), dtype=complex),
        step_size=1.0, steps_per_period=100, stride=1,
        min_populations=np.ones(3), max_norm_deviation=0.0,
    )
    with pytest.raises(ValidationError):
        min_population(empty, 1)


def test_kernel_matches_hamiltonian_matrix():
    # the slice-based stepping oracle and the reference matrix assembly
    # must describe the same H(t)
    from floquet_lattice.model import hamiltonian_at

    rng = np.random.default_rng(13)
    spec = SystemSpec(n_sites=5, omega0=0.7, nu0=0.31, a1=7.0, a2=-3.0,
                      omega=4.0)
    for _ in range(10):
        t = float(rng.uniform(0, 20))
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        y = (raw / np.linalg.norm(raw))[np.newaxis, :].copy()
        out = np.empty_like(y)
        _rhs(out, y, np.cos(spec.omega * t), spec.omega0, spec.nu0,
             _edge_amps(spec, 1))
        expected = -1j * (hamiltonian_at(spec, t).entries @ y[0])
        assert np.max(np.abs(out[0] - expected)) < 1e-14


# --- folded evaluation agrees with direct stepping ---


def test_folded_min_matches_direct():
    spec = spec3(a2=20.0)
    periods, spp = 10, 500
    table = one_period_table(spec, np.array([spec.a2]), spp, site=1)
    a0 = basis_state(3, 1).amplitudes
    folded, _ = folded_min_population(table, 0, a0, periods)
    direct = direct_propagate(spec, basis_state(3, 1), periods * spec.period,
                              steps_per_period=spp, stride=50)
    assert abs(folded - min_population(direct, 1)) < 1e-9


def test_folded_series_matches_direct():
    spec = spec3(a2=24.0)
    periods, spp = 4, 500
    table = one_period_table(spec, np.array([spec.a2]), spp, site=1)
    a0 = basis_state(3, 1).amplitudes
    times, series = folded_population_series(table, 0, a0, periods, stride=1)
    direct = direct_propagate(spec, basis_state(3, 1), periods * spec.period,
                              steps_per_period=spp)
    _, p_direct = site_population_series(direct, 1)
    assert times.size == p_direct.size
    assert np.max(np.abs(series - p_direct)) < 1e-9


def test_norm_drift_report_matches_direct():
    spec = spec3(a2=24.0)
    direct = direct_propagate(spec, basis_state(3, 1), 5 * spec.period,
                              steps_per_period=500, stride=100)
    reported = propagation_norm_drift(spec, periods=5, steps_per_period=500)
    assert reported == pytest.approx(direct.max_norm_deviation, abs=1e-11)


def test_norm_drift_report_fails_where_direct_would():
    # 5e-7 drift per period at 150 steps passes the 1e-6 bound within a few
    # periods; the direct loop raises at the same step
    with pytest.raises(IntegrationFailure, match="across periods") as folded:
        propagation_norm_drift(spec3(), periods=400, steps_per_period=150)
    with pytest.raises(IntegrationFailure) as direct:
        direct_propagate(spec3(), basis_state(3, 1), 400 * spec3().period,
                         steps_per_period=150)
    assert folded.value.time == direct.value.time > spec3().period


# --- propagate (folded through the kernel) agrees with the direct loop ---


def _assert_matches_direct(traj, direct):
    k = traj.stride // direct.stride  # direct may store a finer grid
    assert traj.times == pytest.approx(direct.times[::k], rel=1e-15)
    assert np.max(np.abs(traj.amplitudes - direct.amplitudes[::k])) <= 1e-11
    assert np.max(np.abs(traj.min_populations
                         - direct.min_populations)) <= 1e-11
    assert abs(traj.max_norm_deviation - direct.max_norm_deviation) <= 1e-11


def test_propagate_matches_direct_over_200_periods():
    # 400 steps per period keep the direct loop to 80k steps, and the drift
    # (4e-7) inside the gate
    spec = spec3(a2=24.0)
    direct = direct_propagate(spec, basis_state(3, 1), 200 * spec.period,
                              steps_per_period=400)
    for stride in (1, 100):
        traj = propagate(spec, basis_state(3, 1), 200 * spec.period,
                         steps_per_period=400, stride=stride)
        _assert_matches_direct(traj, direct)


# the last case folds 4700 steps in blocks of two periods, and stride 47
# starts the second block's stored samples 5 steps in
@pytest.mark.parametrize("n_sites, nu0, periods, stride", [(4, 0.2, 5.0, 1),
                                                           (6, 0.0, 5.0, 1),
                                                           (3, 0.0, 2.35, 47)])
def test_propagate_matches_direct(n_sites, nu0, periods, stride):
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=22.0, a2=24.0,
                      omega=10.0)
    args = (spec, basis_state(n_sites, 1), periods * spec.period, 2000)
    _assert_matches_direct(propagate(*args, stride=stride),
                           direct_propagate(*args))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(2, 6),
    nu0=st.floats(0.0, 0.5),
    a1=st.floats(-20.0, 20.0),
    a2=st.floats(-20.0, 20.0),
    spp=st.sampled_from([240, 270, 300]),
    stride=st.sampled_from([7, 11, 13]),
    samples=st.integers(20, 60),
    t0=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_matches_direct_property(n_sites, nu0, a1, a2, spp, stride,
                                           samples, t0, seed):
    # strides that divide no steps_per_period drawn here put stored samples
    # at every intra-period offset; horizons of samples * stride steps are
    # mostly not whole periods. At |a| <= 2 omega and >= 240 steps the RK4
    # drift stays below 1e-7, inside the gate.
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=a1, a2=a2,
                      omega=10.0)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    initial = StateVector(amps / np.linalg.norm(amps), time=t0)
    t_final = t0 + samples * stride * spec.period / spp
    _assert_matches_direct(
        propagate(spec, initial, t_final, spp, stride),
        direct_propagate(spec, initial, t_final, spp, stride),
    )


# --- the step-matrix kernel agrees with the direct step loop ---


def _direct_basis(spec, a2_values, spp):
    """One-period operators from the direct RK4 loop over basis rows."""
    n = spec.n_sites
    y = np.tile(np.eye(n, dtype=complex), (len(a2_values), 1))
    amps = _edge_amps(spec, y.shape[0])
    amps[:, 1] = np.repeat(a2_values, n)
    _rk4_advance(y, amps, spec.omega0, spec.nu0, spec.omega,
                 spec.period / spp, spp)
    return y.reshape(-1, n, n).transpose(0, 2, 1)


def test_step_matrix_is_one_rk4_step():
    rng = np.random.default_rng(17)
    spec = SystemSpec(n_sites=5, omega0=0.7, nu0=0.31, a1=7.0, a2=-3.0,
                      omega=4.0)
    h = spec.period / 500
    t = rng.uniform(0, 20, size=10)
    # both sides hold basis images as rows, i.e. R_k transposed
    r = _step_matrices(_step_coefficients(spec, h, t), np.array([spec.a2]),
                       np.empty((t.size, 1, 5, 5), dtype=complex))
    for k, tk in enumerate(t):
        y = np.eye(5, dtype=complex)
        _rk4_advance(y, _edge_amps(spec, 5), spec.omega0, spec.nu0,
                     spec.omega, h, 1, t0=tk)
        assert np.max(np.abs(r[k, 0] - y)) < 1e-15


@pytest.mark.parametrize("n_sites, nu0", [(3, 0.0), (4, 0.2), (6, 0.0),
                                          (8, 0.0)])
def test_basis_sweep_matches_direct_loop(n_sites, nu0):
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=22.0, a2=0.0,
                      omega=10.0)
    a2 = [0.0, 24.0, 57.5]
    u, dev = basis_sweep(spec, a2, 2000)
    assert np.max(np.abs(u - _direct_basis(spec, a2, 2000))) <= 1e-12
    assert dev < 1e-9


def test_sweeps_are_batch_invariant():
    spec = SystemSpec(n_sites=4, omega0=1.0, nu0=0.2, a1=22.0, a2=0.0,
                      omega=10.0)
    a2 = np.linspace(0.0, 60.0, 7)
    u, _ = basis_sweep(spec, a2, 1000)
    singles = [basis_sweep(spec, [x], 1000)[0][0] for x in a2]
    assert np.array_equal(u, singles)
    vecs = np.linalg.qr(u)[0].transpose(0, 2, 1).copy()
    pops = period_average(spec, a2, vecs, 1000)
    for p, x in enumerate(a2):
        assert np.array_equal(pops[p],
                              period_average(spec, [x], vecs[p:p + 1], 1000)[0])


def test_norm_gate_fails_at_the_direct_loop_step():
    spec = SystemSpec(n_sites=2, omega0=1.0, nu0=0.0, a1=0.0, a2=600.0,
                      omega=10.0)
    with pytest.raises(IntegrationFailure) as direct:
        _direct_basis(spec, [spec.a2], 100)
    with pytest.raises(IntegrationFailure) as kernel:
        basis_sweep(spec, [spec.a2], 100)
    assert kernel.value.time == direct.value.time > 0.0
    with pytest.raises(IntegrationFailure) as direct:
        direct_propagate(spec, basis_state(2, 2), spec.period, 100)
    with pytest.raises(IntegrationFailure) as folded:
        propagate(spec, basis_state(2, 2), spec.period, 100)
    assert folded.value.time == direct.value.time > 0.0


@pytest.mark.filterwarnings("error")
def test_non_finite_step_matrices_fail_the_gate():
    with pytest.raises(IntegrationFailure):
        basis_sweep(spec3(a1=1e308), [0.0], 100)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(2, 6),
    omega=st.floats(5.0, 20.0),
    omega0=st.floats(0.1, 2.0),
    nu0=st.floats(0.0, 0.5),
    r1=st.floats(-2.0, 2.0),
    r2=st.floats(-2.0, 2.0),
)
def test_basis_sweep_unitary_and_direct(n_sites, omega, omega0, nu0, r1, r2):
    # drive amplitudes up to twice omega at 2000 steps keep the RK4 norm
    # error of a period near 1e-11, well inside the gates
    spec = SystemSpec(n_sites=n_sites, omega0=omega0, nu0=nu0, a1=r1 * omega,
                      a2=r2 * omega, omega=omega)
    (u,), _ = basis_sweep(spec, [spec.a2], 2000)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n_sites))) <= 1e-9
    assert np.max(np.abs(u - _direct_basis(spec, [spec.a2], 2000)[0])) <= 1e-12
