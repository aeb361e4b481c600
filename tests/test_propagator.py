import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floquet_lattice import (
    IntegrationFailure,
    SystemSpec,
    ValidationError,
    basis_state,
    monodromy,
    floquet_modes,
    propagate,
)
from floquet_lattice import propagator
from floquet_lattice.experiments import FIGURE_IDS, figure_scan_config
from floquet_lattice.floquet import _sorted_modes
from floquet_lattice.propagator import (
    CHUNK_BYTES,
    COARSE_STRIDE,
    STARTS_BYTES,
    PeriodTable,
    _block_edges,
    _corner,
    _fold,
    _starts_group,
    _step_coefficients,
    _step_matrices,
    basis_sweep,
    folded_min_population,
    folded_population_series,
    one_period_table,
    period_average,
)
from helpers import (
    _edge_amps,
    _starts,
    _rhs,
    _rk4_advance,
    direct_propagate,
    hamiltonian_at,
    one_product_min_population,
    one_product_population_series,
    whole_matrix_step_matrices,
)


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
    assert traj.min_populations[0] > 0.9


def test_delocalization_at_first_zero():
    spec = spec3(a2=24.0)  # a2/omega = 2.4, essentially at the first J0 zero
    traj = propagate(spec, basis_state(3, 1), t_final=200 * spec.period, stride=100)
    assert traj.min_populations[0] < 0.05
    p1 = np.abs(traj.amplitudes[:, 0]) ** 2
    assert p1.max() > 0.95


def test_partial_suppression_value():
    spec = spec3(a2=20.0)
    traj = propagate(spec, basis_state(3, 1), t_final=200 * spec.period, stride=100)
    assert 0.3 < traj.min_populations[0] < 0.5


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
    tu = propagate(spec, u, t_final, **kw)
    tv = propagate(spec, v, t_final, **kw)
    tc = propagate(spec, combo, t_final, **kw)
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
    back = propagate(spec, final, t_final=3 * spec.period,
                     steps_per_period=800)
    recovered = back.amplitudes[-1].conj()
    start = basis_state(3, 1)
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
        traj = propagate(spec, mode.vector, t_final=spec.period,
                         steps_per_period=1000)
        assert np.max(np.abs(np.abs(traj.amplitudes[-1]) - np.abs(mode.vector))) < 1e-6


def test_min_population_zero_for_unvisited_site():
    spec = SystemSpec(n_sites=3, omega0=0.0, nu0=0.0, a1=5.0, a2=0.0, omega=10.0)
    traj = propagate(spec, basis_state(3, 1), t_final=spec.period,
                     steps_per_period=100)
    assert traj.min_populations[1] == 0.0


def test_population_series_shape_and_range():
    spec = spec3(a2=24.0)
    traj = propagate(spec, basis_state(3, 1), t_final=5 * spec.period,
                     steps_per_period=500, stride=5)
    p1 = np.abs(traj.amplitudes[:, 0]) ** 2
    assert traj.times.size == p1.size == 2500 // 5 + 1
    assert p1[0] == 1.0
    assert np.all(p1 >= 0.0) and np.all(p1 <= 1.0 + 1e-12)


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
    bad = np.array([0.9, 0.0, 0.0])
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


def test_kernel_matches_hamiltonian_matrix():
    # the slice-based stepping oracle and the reference matrix assembly
    # must describe the same H(t)
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
        expected = -1j * (hamiltonian_at(spec, t) @ y[0])
        assert np.max(np.abs(out[0] - expected)) < 1e-14


# --- folded evaluation agrees with direct stepping ---


def test_folded_min_matches_direct():
    spec = spec3(a2=20.0)
    periods, spp = 10, 500
    table = one_period_table(spec, np.array([spec.a2]), spp, site=1)
    a0 = basis_state(3, 1)
    folded, _ = folded_min_population(table, 0, a0, periods)
    direct = direct_propagate(spec, basis_state(3, 1), periods * spec.period,
                              steps_per_period=spp, stride=50)
    assert abs(folded - direct.min_populations[0]) < 1e-9


def test_folded_series_matches_direct():
    spec = spec3(a2=24.0)
    periods, spp = 4, 500
    table = one_period_table(spec, np.array([spec.a2]), spp, site=1)
    a0 = basis_state(3, 1)
    times, series = folded_population_series(table, 0, a0, periods, stride=1)
    direct = direct_propagate(spec, basis_state(3, 1), periods * spec.period,
                              steps_per_period=spp)
    p_direct = np.abs(direct.amplitudes[:, 0]) ** 2
    assert times.size == p_direct.size
    assert np.max(np.abs(series - p_direct)) < 1e-9


def test_folded_series_squares_its_last_sample_as_the_others():
    # a NumPy scalar's x ** 2 is C pow, which (glibc) rounds this x's
    # square to 0.18209093450644506, one ulp above x * x
    x = 0.42672114373024106
    spp = 4
    rows = np.zeros((spp + 1, 1, 2), dtype=complex)
    rows[:, 0, 0] = x
    table = PeriodTable(monodromies=np.eye(2, dtype=complex)[np.newaxis],
                        site_rows=rows, steps_per_period=spp, period=1.0,
                        max_norm_deviation=0.0, step_change=np.zeros(1))
    a0 = np.array([1.0, 0.0])
    times, series = folded_population_series(table, 0, a0, 3)
    assert series.size == 3 * spp + 1 and times[-1] == 3.0
    assert np.all(series == x * x)
    _, want = one_product_population_series(table, 0, a0, 3, 1)
    assert np.array_equal(series, want)


# at 2000 steps a block is 8 periods of the 2001 site rows, 8 periods of
# the 2000 series rows at stride 1 and 160 periods at stride 20; horizons
# end on a block edge, leave a remainder block, or leave one period, which
# joins the block before it
@pytest.mark.parametrize("periods", [1, 40, 43, 41, 161])
def test_folded_paths_equal_one_product_fold(periods):
    spec = SystemSpec(n_sites=4, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0,
                      omega=10.0)
    table = one_period_table(spec, np.array([0.0, 20.0, 24.0]), 2000, site=1)
    a0 = basis_state(4, 1)
    for point in range(3):
        low, _ = folded_min_population(table, point, a0, periods)
        assert low == one_product_min_population(table, point, a0, periods)
        for stride in (1, 20):
            got = folded_population_series(table, point, a0, periods, stride)
            want = one_product_population_series(table, point, a0, periods,
                                                 stride)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_folded_min_population_memory_is_bounded():
    # one product of every step with every period start would be
    # 2001 x 2000 complex values, 64 MB
    import tracemalloc

    spec = SystemSpec(n_sites=4, omega0=1.0, nu0=0.0, a1=22.0, a2=24.0,
                      omega=10.0)
    table = one_period_table(spec, np.array([spec.a2]), 2000, site=1)
    a0 = basis_state(4, 1)
    tracemalloc.start()
    try:
        folded_min_population(table, 0, a0, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_propagate_memory_is_bounded():
    # one 8-period fold block of every step's state is 20.5 MB here (the
    # table of basis rows, as large, has its own mapping, which tracemalloc
    # does not see); a transposed copy of the block, or two blocks alive at
    # once, would pass 40 MB
    import tracemalloc

    spec = SystemSpec(n_sites=8, omega0=1.0, nu0=0.0, a1=22.0, a2=24.0,
                      omega=10.0)
    tracemalloc.start()
    try:
        propagate(spec, basis_state(8, 1), 20 * spec.period,
                  steps_per_period=20000, stride=20 * 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def _unpruned_min(table, point, initial, periods):
    """Min(P1) from every block ``_fold`` forms, none skipped."""
    w = _starts(table, point, initial, periods)
    return float(min((np.abs(amps) ** 2).min() for _, amps in
                     _fold(table.site_rows[:, point], w)))


def _fold_width(steps_per_period):
    """Periods per ``_fold`` block of a period's steps_per_period + 1 rows."""
    return _block_edges(steps_per_period + 1, 10**6)[0][1]


@st.composite
def _fold_cases(draw):
    spp = draw(st.integers(100, 400))
    # the starts' norm drift grows with the horizon and as spp^-5: at
    # a1 = 10 and |a2| <= omega it stays inside the gate up to
    # 300 (spp / 165)^5 periods (24 at 100 steps, 300 from 165 on)
    most = min(300, int(300 * (spp / 165) ** 5))
    b = _fold_width(spp)
    lone = (st.integers(1, (most - 1) // b).map(lambda k: k * b + 1)
            if b < most else st.just(1))  # a lone last column joins a block
    periods = draw(st.one_of(st.integers(1, most), st.just(1), lone))
    return spp, periods


# a1 = 10 and |a2| <= omega: the recipes' a1 = 22 fails the norm gate at
# 100 steps per period
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(3, 6),
    nu0=st.sampled_from([0.0, 0.2]),
    case=_fold_cases(),
    a2=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_sites=3, nu0=0.0, case=(100, 1), a2=[10.0], seed=0)
@example(n_sites=4, nu0=0.2, case=(200, 161), a2=[0.0, 7.5], seed=1)
@example(n_sites=6, nu0=0.0, case=(400, 281), a2=[-3.0], seed=2)
def test_pruned_min_equals_full_fold(n_sites, nu0, case, a2, seed):
    spp, periods = case
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=10.0, a2=0.0,
                      omega=10.0)
    table = one_period_table(spec, np.array(a2), spp)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    a0 = amps / np.linalg.norm(amps)
    for point in range(len(a2)):
        low, _ = folded_min_population(table, point, a0, periods)
        assert np.array_equal(low, _unpruned_min(table, point, a0, periods))
        assert np.array_equal(low, one_product_min_population(table, point,
                                                              a0, periods))


def test_understated_step_change_misses_the_minimum():
    # the pruned fold is exact only while step_change bounds every step's
    # change of P1; here a tenth of it ranks the block that holds the
    # minimum behind one whose minimum clears that block's bound
    spec = spec3(a2=0.0)
    table = one_period_table(spec, np.array([0.0]), 500)
    a0 = basis_state(3, 1)
    exact = one_product_min_population(table, 0, a0, 300)
    assert folded_min_population(table, 0, a0, 300)[0] == exact
    understated = dataclasses.replace(table, step_change=table.step_change / 10)
    assert folded_min_population(understated, 0, a0, 300)[0] > exact


@pytest.mark.parametrize("figure", FIGURE_IDS)
def test_step_change_bounds_every_step_of_the_recipes(figure):
    config = figure_scan_config(figure)
    spec, spp = config.base_spec, config.steps_per_period
    ratios = config.grid()[::60]  # a2/omega = 0, 1.5, 3, 4.5, 6
    table = one_period_table(spec, ratios * spec.omega, spp,
                             site=config.initial_site)
    a0 = basis_state(spec.n_sites, config.initial_site)
    periods = min(config.horizon_periods, 200)
    h = spec.period / spp
    speed = np.hypot(spec.omega0, spec.nu0)  # ||H0[0, :]|| for site 1
    for point in range(ratios.size):
        pops = np.abs(table.site_rows[:, point]
                      @ _starts(table, point, a0, periods)) ** 2
        change = np.abs(np.diff(pops, axis=0)).max()
        # the exact flow's bound, then the derived slack on top of it
        assert change / (speed * h) <= 1.0 + 1e-6
        assert change <= table.step_change[point]
        low, _ = folded_min_population(table, point, a0, periods)
        assert low == pops.min()


def _loop_drift(table, point, initial, periods):
    """The worst norm drift of U^m a0, m = 0..periods, by one point's loop."""
    w = _starts(table, point, initial, periods + 1)
    return np.max(np.abs(np.sum(w.real**2 + w.imag**2, axis=0) - 1.0))


def _assert_group_serves(table, point, initial, periods):
    """The group that serves ``point`` holds its per-point loop's starts at
    every block edge, its drift, and valid bounds within ulps of one
    product of the coarse rows with every start."""
    group = _starts_group(table, point, initial, periods)
    j = point - group.first
    w = _starts(table, point, initial, periods)
    assert group.edges == _block_edges(table.steps_per_period + 1, periods)
    assert np.array_equal(group.checkpoints[j],
                          w[:, [m0 for m0, _ in group.edges]].T)
    assert group.drift[j] == _loop_drift(table, point, initial, periods)
    pops = np.abs(table.site_rows[:, point] @ w) ** 2
    spp = table.steps_per_period
    coarse = np.r_[0:spp:COARSE_STRIDE, spp]
    slack = (0.5 * np.diff(coarse)[:, np.newaxis] * table.step_change[point]
             + 8 * table.monodromies.shape[1] * np.finfo(float).eps)
    column = ((pops[coarse][:-1] + pops[coarse][1:]) / 2 - slack).min(axis=0)
    for bound, (m0, m1) in zip(group.bounds[j], group.edges):
        assert bound <= pops[:, m0:m1].min()
        assert abs(bound - column[m0:m1].min()) < 1e-14
    return group


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(3, 8),
    points=st.integers(1, 7),
    periods=st.sampled_from([1, 9, 300, 2000]),
    order_seed=st.integers(0, 2**32 - 1),
)
@example(n_sites=8, points=7, periods=2000, order_seed=0)
@example(n_sites=3, points=1, periods=2000, order_seed=0)
def test_batched_period_starts_equal_the_per_point_loop(n_sites, points,
                                                        periods, order_seed):
    # at 400 steps and 2000 periods a group holds 4 points at n = 8 and 13
    # at n = 3, so a table of 7 points at n = 8 ends in a group of 3
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=0.2, a1=10.0, a2=0.0,
                      omega=10.0)
    table = one_period_table(spec, np.linspace(0.0, 10.0, points), 400)
    a0 = basis_state(n_sites, 1)
    size = len(_starts_group(table, 0, a0, periods).drift)
    for point in range(points):  # a scan's order: groups of size points
        group = _assert_group_serves(table, point, a0, periods)
        first = point // size * size
        assert group.first == first
        assert len(group.drift) == min(size, points - first)
    other = np.roll(a0, 1)
    for point in np.random.default_rng(order_seed).permutation(points):
        # any order, and another initial state, is never served stale state
        for initial in (other, a0):
            _assert_group_serves(table, int(point), initial, periods)


# 1025 to 2047 steps make a fold block 8 periods wide, as the recipes'
# 2000 do: 7 and 8 periods are one block, 9 one block with a lone last
# column
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(3, 8),
    points=st.integers(1, 7),
    periods=st.sampled_from([1, 7, 8, 9, 300, 2000]),
    order_seed=st.integers(0, 2**32 - 1),
)
@example(n_sites=8, points=7, periods=2000, order_seed=0)
@example(n_sites=3, points=2, periods=9, order_seed=1)
def test_grouped_min_population_equals_one_product_fold(n_sites, points,
                                                        periods, order_seed):
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=0.2, a1=10.0, a2=0.0,
                      omega=10.0)
    table = one_period_table(spec, np.linspace(0.0, 10.0, points), 1025)
    assert _block_edges(1026, 9) == [(0, 9)]
    a0 = basis_state(n_sites, 1)
    for point in np.random.default_rng(order_seed).permutation(points):
        low, dev = folded_min_population(table, int(point), a0, periods)
        assert low == one_product_min_population(table, point, a0, periods)
        assert dev == max(_loop_drift(table, point, a0, periods),
                          table.max_norm_deviation)


def test_min_p1_group_stays_within_starts_bytes():
    # a group of this table holds 12 points, whose full starts would take
    # 12 x 6 x 2001 complex values, 2.3 MB. A group keeps less than
    # STARTS_BYTES; beside it lives at most one product of about
    # CHUNK_BYTES (the coarse rows' or a formed block's) with its
    # populations, half that. The table's rows have a mapping of their
    # own, which tracemalloc does not see.
    import tracemalloc

    spec = SystemSpec(n_sites=6, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0,
                      omega=10.0)
    table = one_period_table(spec, np.linspace(0.0, 60.0, 24), 2000)
    a0 = basis_state(6, 1)
    tracemalloc.start()
    try:
        for point in range(24):
            folded_min_population(table, point, a0, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table._group[0].drift) == 12
    assert peak < STARTS_BYTES + 2 * CHUNK_BYTES


def _small_table():
    return one_period_table(spec3(), np.array([0.0, 20.0]), 500, site=1)


@pytest.mark.parametrize("stride", [-5, 0, 2.0, True, 7])
def test_folded_series_rejects_bad_stride(stride):
    with pytest.raises(ValidationError, match="stride"):
        folded_population_series(_small_table(), 0,
                                 basis_state(3, 1), 4, stride)


@pytest.mark.parametrize("periods", [0, -1, 2.0, True])
def test_folded_paths_reject_bad_periods(periods):
    table, a0 = _small_table(), basis_state(3, 1)
    with pytest.raises(ValidationError, match="periods"):
        folded_min_population(table, 0, a0, periods)
    with pytest.raises(ValidationError, match="periods"):
        folded_population_series(table, 0, a0, periods)


@pytest.mark.parametrize("point", [-1, 2, 1.0, True])
def test_folded_paths_reject_bad_point(point):
    table, a0 = _small_table(), basis_state(3, 1)
    with pytest.raises(ValidationError, match="point"):
        folded_min_population(table, point, a0, 4)
    with pytest.raises(ValidationError, match="point"):
        folded_population_series(table, point, a0, 4)


@pytest.mark.parametrize("periods, message", [
    (float("nan"), "finite"), (float("inf"), "finite"), (1e21, "too long")])
def test_propagate_rejects_horizons_it_cannot_step(monkeypatch, periods,
                                                    message):
    def no_work(*args, **kwargs):
        raise AssertionError("the horizon was not checked before any work")

    monkeypatch.setattr(propagator, "_row_table", no_work)
    spec = spec3()
    with pytest.raises(ValidationError, match=message):
        propagate(spec, basis_state(3, 1), t_final=periods * spec.period)


@pytest.mark.parametrize("stride", [2.0, True, 0, -1])
def test_propagate_rejects_bad_stride(stride):
    spec = spec3()
    with pytest.raises(ValidationError, match="stride"):
        propagate(spec, basis_state(3, 1), t_final=spec.period,
                  steps_per_period=500, stride=stride)


def test_norm_drift_report_matches_direct():
    spec = spec3(a2=24.0)
    direct = direct_propagate(spec, basis_state(3, 1), 5 * spec.period,
                              steps_per_period=500, stride=100)
    reported = propagate(spec, basis_state(3, 1), 5 * spec.period,
                         steps_per_period=500,
                         stride=5 * 500).max_norm_deviation
    assert reported == pytest.approx(direct.max_norm_deviation, abs=1e-11)


def test_norm_drift_report_fails_where_direct_would():
    # 5e-7 drift per period at 150 steps passes the 1e-6 bound within a few
    # periods; the direct loop raises at the same step
    with pytest.raises(IntegrationFailure, match="across periods") as folded:
        propagate(spec3(), basis_state(3, 1), 400 * spec3().period,
                  steps_per_period=150, stride=400 * 150)
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


# the last case folds 18700 steps in blocks of eight periods, and stride 17
# starts the second block's stored samples 14 steps in
@pytest.mark.parametrize("n_sites, nu0, periods, stride", [(4, 0.2, 5.0, 1),
                                                           (6, 0.0, 5.0, 1),
                                                           (3, 0.0, 2.35, 47),
                                                           (3, 0.0, 9.35, 17)])
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
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_matches_direct_property(n_sites, nu0, a1, a2, spp, stride,
                                           samples, seed):
    # strides that divide no steps_per_period drawn here put stored samples
    # at every intra-period offset; horizons of samples * stride steps are
    # mostly not whole periods. At |a| <= 2 omega and >= 240 steps the RK4
    # drift stays below 1e-7, inside the gate.
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=a1, a2=a2,
                      omega=10.0)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    initial = amps / np.linalg.norm(amps)
    t_final = samples * stride * spec.period / spp
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(2, 10),
    nu0=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True)),
    a1=st.floats(-60.0, 60.0),
    a2=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_sites=8, nu0=0.0, a1=22.0, a2=[-30.0, 0.0, 57.5], seed=0)
@example(n_sites=8, nu0=0.2, a1=-22.0, a2=[-1.5, 24.0], seed=1)
def test_step_matrices_equal_whole_matrix_horner(n_sites, nu0, a1, a2, seed):
    # Horner's rule on the corner alone, the rest copied from C_0, gives
    # every entry's float of Horner's rule over the whole matrix
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=a1, a2=0.0,
                      omega=10.0)
    h = spec.period / 2000
    t = np.random.default_rng(seed).uniform(0.0, 4.0 * spec.period, size=6)
    coef = _step_coefficients(spec, h, t)
    k = _corner(coef)
    a2 = np.array(a2)
    shape = (t.size, a2.size, n_sites, n_sites)
    scratch = np.empty(t.size * a2.size * (n_sites - k) ** 2, dtype=complex)
    got = _step_matrices(coef, a2, np.empty(shape, dtype=complex),
                         np.ascontiguousarray(coef[:, :, k:, k:]), scratch)
    want = whole_matrix_step_matrices(coef, a2, np.empty(shape, dtype=complex))
    assert np.array_equal(got, want)


# a2 drives site N and the coefficients of a2^1..a2^4 hold at most three
# hops of the chain: sites within three of N, or six with nu0 != 0
@pytest.mark.parametrize("figure, n_sites, nu0, corner", [
    ("fig4", 8, 0.0, 4), ("fig4", 8, 0.2, 1), ("fig4", 12, 0.0, 8),
    ("fig2", None, None, 0), ("fig3", None, None, 0),
    ("fig4", None, None, 0), ("fig5", None, None, 0),
    ("fig6", None, None, 0), ("fig7", None, None, 1),
    ("fig8", None, None, 2),
])
def test_sweep_corner(figure, n_sites, nu0, corner, monkeypatch):
    config = figure_scan_config(figure)
    spec = config.base_spec
    if n_sites is not None:
        spec = spec.replace(n_sites=n_sites, nu0=nu0)
    seen = []

    def recording(coef):
        seen.append(_corner(coef))
        return seen[-1]

    monkeypatch.setattr(propagator, "_corner", recording)
    basis_sweep(spec, [0.0, 2.4 * spec.omega], config.steps_per_period)
    assert len(seen) > 1 and set(seen) == {corner}


@pytest.mark.parametrize("n_sites, nu0", [(5, 0.0), (5, 0.2), (6, 0.0),
                                          (6, 0.2), (8, 0.0), (8, 0.2)])
def test_sweeps_equal_whole_matrix_horner(n_sites, nu0, monkeypatch):
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=22.0, a2=0.0,
                      omega=10.0)
    a2 = [-30.0, -2.5, 0.0, 24.0, 57.5]

    def sweeps():  # at nu0 = 0 the quarter sweep, else the half sweep
        u, dev = basis_sweep(spec, a2, 1000)
        return u, dev, period_average(spec, a2, _modes(u, spec), 1000)

    u, dev, pops = sweeps()
    monkeypatch.setattr(propagator, "_step_matrices",
                        whole_matrix_step_matrices)
    ref_u, ref_dev, ref_pops = sweeps()
    assert u.tobytes() == ref_u.tobytes()
    assert dev == ref_dev
    assert pops.tobytes() == ref_pops.tobytes()


@pytest.mark.parametrize("n_sites, nu0", [(3, 0.0), (4, 0.2), (6, 0.0),
                                          (8, 0.0), (8, 0.2), (12, 0.0)])
def test_basis_sweep_matches_direct_loop(n_sites, nu0):
    spec = SystemSpec(n_sites=n_sites, omega0=1.0, nu0=nu0, a1=22.0, a2=0.0,
                      omega=10.0)
    a2 = [0.0, 24.0, 57.5]
    u, dev = basis_sweep(spec, a2, 2000)
    assert np.max(np.abs(u - _direct_basis(spec, a2, 2000))) <= 1e-12
    assert dev < 1e-9


def _modes(u, spec):
    """(points, modes, n) eigenvectors of the operators ``u``, as
    ``period_average`` requires."""
    return np.array([_sorted_modes(m, spec.omega)[1] for m in u])


def test_sweeps_are_batch_invariant():
    # the quarter sweep and the half sweep at N = 4; the fig5 spec, whose
    # half sweep ends in the stacked U = V^T V; the fig2 spec at 1002
    # steps, the half sweep at nu0 = 0
    cases = [(spec3(n_sites=4), 1000), (spec3(n_sites=4, nu0=0.2), 1000),
             (spec3(nu0=0.2), 2000), (spec3(), 1002)]
    a2 = np.linspace(0.0, 60.0, 9)
    for spec, spp in cases:
        u, _ = basis_sweep(spec, a2, spp)
        singles = [basis_sweep(spec, [x], spp)[0][0] for x in a2]
        assert np.array_equal(u, singles)
        vecs = _modes(u, spec)
        pops = period_average(spec, a2, vecs, spp)
        table = one_period_table(spec, a2, spp)
        for p, x in enumerate(a2):
            assert np.array_equal(
                pops[p], period_average(spec, [x], vecs[p:p + 1], spp)[0])
            single = one_period_table(spec, [x], spp)
            assert np.array_equal(table.site_rows[:, p], single.site_rows[:, 0])
            assert np.array_equal(table.monodromies[p], single.monodromies[0])


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
