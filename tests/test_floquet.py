import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from floquet_lattice import (
    Branch,
    BranchSet,
    IntegrationFailure,
    NumericsError,
    SystemSpec,
    ValidationError,
    classify_closest_approach,
    floquet_modes,
    fold_quasienergy,
    j0_zero,
    monodromy,
    track_branches,
)
from floquet_lattice.floquet import (
    _best_permutation,
    _gap_probe,
    _unpruned_matchings,
)
from floquet_lattice import propagator
from floquet_lattice.experiments import ScanConfig, scan_spectrum
from floquet_lattice.propagator import (NORM_FAILURE_BOUND, basis_sweep,
                                        one_period_table, period_average)

from helpers import (
    circular_match,
    enumerate_best_permutation,
    fold_into_zone,
    static_eigenvalues,
)


def spec_n(n, **kw):
    base = dict(n_sites=n, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0, omega=10.0)
    base.update(kw)
    return SystemSpec(**base)


def test_monodromy_identity_for_decoupled_sites():
    # zero-mean drive on uncoupled sites integrates to no net phase
    spec = SystemSpec(n_sites=3, omega0=0.0, nu0=0.0, a1=9.0, a2=-17.0, omega=10.0)
    op = monodromy(spec, 1000)
    assert np.max(np.abs(op.matrix - np.eye(3))) < 1e-10


def test_monodromy_matches_static_exponential():
    spec = spec_n(3, a1=0.0, a2=0.0)
    op = monodromy(spec, 1000)
    h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    expected = scipy.linalg.expm(-1j * h * spec.period)
    assert np.max(np.abs(op.matrix - expected)) < 1e-10


def test_monodromy_reports_the_sweep_norm_drift():
    spec = spec_n(3, a2=24.0)
    op = monodromy(spec, 500)
    assert op.max_norm_deviation == basis_sweep(spec, [spec.a2], 500)[1]
    assert op.max_norm_deviation > 0.0


def test_unitarity_residual_small():
    for a2_ratio in (0.0, 2.0, 2.405, 6.0):
        op = monodromy(spec_n(3, a2=a2_ratio * 10.0))
        assert op.unitarity_residual() < 1e-8


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(2, 6),
    omega0=st.floats(0.1, 2.0),
    a1=st.floats(-30.0, 30.0),
    a2=st.floats(-30.0, 30.0),
    omega=st.floats(5.0, 20.0),
)
def test_quasienergies_symmetric_without_second_order_coupling(
        n_sites, omega0, a1, a2, omega):
    # S = diag((-1)^j) gives S H(t) S = -H(t + T/2) at nu0 = 0, so the
    # spectrum is closed under eps -> -eps: U's eigenvalues come in
    # conjugate pairs (as a multiset)
    spec = SystemSpec(n_sites=n_sites, omega0=omega0, nu0=0.0, a1=a1, a2=a2,
                      omega=omega)
    lams = np.linalg.eigvals(monodromy(spec, 2000).matrix)
    dist = np.abs(lams.conj()[:, np.newaxis] - lams[np.newaxis, :])
    rows, cols = linear_sum_assignment(dist)
    assert np.max(dist[rows, cols]) < 1e-12


def test_fold_convention():
    omega = 10.0
    t = 2.0 * math.pi / omega
    assert fold_quasienergy(np.exp(-1j * 1.5 * t), omega) == pytest.approx(1.5, abs=1e-12)
    assert fold_quasienergy(np.exp(-1j * -4.0 * t), omega) == pytest.approx(-4.0, abs=1e-12)
    # folding wraps energies beyond the zone edge
    assert fold_quasienergy(np.exp(-1j * 7.0 * t), omega) == pytest.approx(-3.0, abs=1e-12)
    # the lower edge is excluded, the upper edge included
    assert fold_quasienergy(-1.0 + 0.0j, omega) == pytest.approx(5.0, abs=1e-12)


def test_modes_all_zero_for_identity():
    spec = SystemSpec(n_sites=3, omega0=0.0, nu0=0.0, a1=9.0, a2=4.0, omega=10.0)
    modes = floquet_modes(monodromy(spec, 1000))
    for mode in modes:
        assert abs(mode.quasienergy) < 1e-10


def test_static_quasienergies_three_and_four_sites():
    for n in (3, 4):
        spec = spec_n(n, a1=0.0, a2=0.0)
        modes = floquet_modes(monodromy(spec, 1000))
        eps = np.sort([m.quasienergy for m in modes])
        assert np.max(np.abs(eps - static_eigenvalues(n, 1.0))) < 1e-8


def test_static_quasienergies_fold_when_out_of_zone():
    # couplings large enough that the static spectrum leaves (-w/2, w/2]
    spec = spec_n(4, a1=0.0, a2=0.0, omega0=4.0)
    modes = floquet_modes(monodromy(spec, 2000))
    eps = np.sort([m.quasienergy for m in modes])
    expected = np.sort(fold_into_zone(static_eigenvalues(4, 4.0), 10.0))
    assert np.max(np.abs(eps - expected)) < 1e-8


def test_dark_mode_exists_and_localizes():
    for a2_ratio in (0.0, 1.0):
        modes = floquet_modes(monodromy(spec_n(3, a2=a2_ratio * 10.0)))
        dark = min(modes, key=lambda m: abs(m.quasienergy))
        assert abs(dark.quasienergy) < 1e-6
        assert dark.avg_populations[1] < 0.02
        assert dark.avg_populations[0] > 0.5


def test_five_site_dark_mode_avoids_even_sites():
    modes = floquet_modes(monodromy(spec_n(5, a2=10.0)))
    dark = min(modes, key=lambda m: abs(m.quasienergy))
    assert abs(dark.quasienergy) < 1e-6
    assert dark.avg_populations[1] + dark.avg_populations[3] < 0.02


def test_floquet_mode_reproduces_up_to_quasienergy_phase():
    # one period maps a mode vector to exp(-i eps T) times itself
    from floquet_lattice import propagate

    spec = spec_n(3, a2=13.0)
    modes = floquet_modes(monodromy(spec, 1000))
    for mode in modes:
        traj = propagate(spec, mode.vector, t_final=spec.period,
                         steps_per_period=1000)
        expected = np.exp(-1j * mode.quasienergy * spec.period) * mode.vector
        assert np.max(np.abs(traj.amplitudes[-1] - expected)) < 1e-6


def test_averaged_populations_static_stationary_state():
    spec = spec_n(3, a1=0.0, a2=0.0)
    vec = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    pops = period_average(spec, [spec.a2], vec[np.newaxis, np.newaxis, :],
                          1000)[0, 0]
    assert np.max(np.abs(pops - np.array([0.5, 0.0, 0.5]))) < 1e-9


def test_averaged_populations_sum_to_one():
    modes = floquet_modes(monodromy(spec_n(4, nu0=0.2, a2=30.0)))
    for mode in modes:
        assert abs(float(np.sum(mode.avg_populations)) - 1.0) < 1e-6


def test_mode_residual_and_orthonormality():
    # includes the degenerate crossing point of the four-site chain
    for n, a2_ratio in ((3, 2.0), (4, j0_zero(1)), (6, j0_zero(1))):
        op = monodromy(spec_n(n, a2=a2_ratio * 10.0))
        modes = floquet_modes(op)
        vecs = np.array([m.vector for m in modes])
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-7
        for mode in modes:
            assert mode.eigen_residual < 1e-7


def test_plus_minus_symmetry_without_second_order_coupling():
    for n in (3, 4, 5, 6):
        for a2_ratio in (0.7, 2.405, 4.0):
            modes = floquet_modes(monodromy(spec_n(n, a2=a2_ratio * 10.0)))
            eps = np.array([m.quasienergy for m in modes])
            assert circular_match(eps, fold_into_zone(-eps, 10.0), 10.0) < 1e-7


def test_track_branches_single_point():
    branch_set = track_branches(spec_n(3), [5.0], 1000)
    assert len(branch_set.branches) == 3
    eps = [b.quasienergies[0] for b in branch_set.branches]
    assert eps == sorted(eps)


def test_track_branches_dark_branch_stays_at_zero():
    # grid fine enough for overlap tracking through the localization flip
    # at the first J0 zero
    ratios = np.linspace(0.0, 3.0, 31)
    branch_set = track_branches(spec_n(3), ratios * 10.0, 1000)
    dark = min(branch_set.branches, key=lambda b: np.max(np.abs(b.quasienergies)))
    assert np.max(np.abs(dark.quasienergies)) < 1e-6


def test_track_branches_detects_field_errors():
    with pytest.raises(ValidationError, match="monotone"):
        track_branches(spec_n(3), [0.0, 2.0, 1.0], 500)


@pytest.mark.parametrize("a2_values", [[], [0.0, math.nan], [math.inf],
                                       [1.0, 2.0, -math.inf], [[0.0, 1.0]]])
def test_track_branches_rejects_empty_or_non_finite_grids(a2_values):
    with pytest.raises(ValidationError, match="a2 grid"):
        track_branches(spec_n(3), a2_values, 500)


def test_track_branches_equals_per_point_modes():
    spp = 1000
    base = spec_n(4, nu0=0.2)
    a2_values = np.linspace(2.0, 2.6, 5) * 10.0
    specs = [base.replace(a2=float(a2)) for a2 in a2_values]
    branches = track_branches(base, a2_values, spp).branches
    for i, spec in enumerate(specs):
        modes = floquet_modes(monodromy(spec, spp))
        eps = np.array([b.quasienergies[i] for b in branches])
        order = np.argsort(eps, kind="stable")
        assert np.array_equal(eps[order], [m.quasienergy for m in modes])
        assert np.array_equal(np.array([b.vectors[i] for b in branches])[order],
                              [m.vector for m in modes])
        assert np.array_equal(
            np.array([b.avg_populations[i] for b in branches])[order],
            [m.avg_populations for m in modes])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_track_branches_failure_names_global_grid_point(monkeypatch, workers):
    # a non-unitary U injected at point 4 of 6 must be reported as point 4,
    # with its a2, not by its index inside a chunk of points
    import floquet_lattice.floquet as fl

    a2_grid = np.linspace(0.0, 5.0, 6)
    bad = 4
    real_sweep = fl.basis_sweep

    def corrupting_sweep(spec, a2_values, steps_per_period):
        us, dev = real_sweep(spec, a2_values, steps_per_period)
        us = us.copy()
        us[np.asarray(a2_values) == a2_grid[bad]] *= 2.0
        return us, dev

    monkeypatch.setattr(fl, "basis_sweep", corrupting_sweep)
    with pytest.raises(NumericsError) as err:
        track_branches(spec_n(3), a2_grid, 200, workers=workers)
    assert f"grid point {bad} (a2={float(a2_grid[bad])!r})" in str(err.value)


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _next_modes(kind, rng, prev):
    """Modes (rows) one grid step after ``prev``, of the given kind."""
    n = prev.shape[0]
    if kind == "unitary":
        return _random_unitary(rng, n)
    if kind == "permuted":
        return prev[rng.permutation(n)]
    if kind == "rotation":
        h = 0.05 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return prev @ scipy.linalg.expm(1j * (h + h.conj().T)).T
    # a two-mode mix at 45 degrees, exact or off by up to 3e-4 rad: the two
    # pairings score within OVERLAP_AMBIGUITY of each other
    theta = math.pi / 4 + (0.0 if kind == "mix45" else rng.uniform(-3e-4, 3e-4))
    a, b = rng.choice(n, 2, replace=False)
    nxt = prev.copy()
    nxt[a] = math.cos(theta) * prev[a] + math.sin(theta) * prev[b]
    nxt[b] = -math.sin(theta) * prev[a] + math.cos(theta) * prev[b]
    return nxt


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 7),
    kind=st.sampled_from(["rotation", "mix45", "near45", "unitary",
                          "permuted"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_permutation_matches_enumeration(n, kind, seed):
    rng = np.random.default_rng(seed)
    prev = _random_unitary(rng, n)
    nxt = _next_modes(kind, rng, prev)
    prev_eps, next_eps = rng.uniform(-5.0, 5.0, size=(2, n))
    assert _best_permutation(prev, nxt, prev_eps, next_eps, 10.0) == \
        enumerate_best_permutation(prev, nxt, prev_eps, next_eps, 10.0)


@pytest.mark.parametrize("next_eps", [np.zeros(5),
                                      np.array([0.3, -0.3, 0.3, -0.3, 0.0])])
def test_best_permutation_all_tie_dft(next_eps):
    # every one of the 5! pairings scores sqrt(5) up to rounding: all are
    # near-ties, the search keeps them all, and the winner rests on the
    # lexicographic order of the candidates and of the first best score
    n = 5
    dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    dft /= math.sqrt(n)
    prev_eps = np.zeros(n)
    got = _best_permutation(np.eye(n), dft, prev_eps, next_eps, 10.0)
    assert got[1]
    assert got == enumerate_best_permutation(np.eye(n), dft, prev_eps,
                                             next_eps, 10.0)
    assert len(_unpruned_matchings(np.abs(dft).tolist())) == math.factorial(n)


def test_unpruned_matchings_cut_a_reversed_order():
    # the lexicographically first pairing scores 0 and the best is the last
    # one; a running-best floor keeps 119 of the 8! = 40320 pairings
    n = 8
    kept = _unpruned_matchings(np.eye(n)[::-1].tolist())
    assert kept[-1] == (float(n), tuple(range(n - 1, -1, -1)))
    assert len(kept) < 1000


@pytest.mark.parametrize("steps", [0, 99, 500.0, True])
def test_one_period_paths_reject_bad_steps_per_period(steps):
    spec = spec_n(3)
    with pytest.raises(ValidationError, match="steps_per_period"):
        monodromy(spec, steps)
    with pytest.raises(ValidationError, match="steps_per_period"):
        one_period_table(spec, [0.0, 1.0], steps)
    with pytest.raises(ValidationError, match="steps_per_period"):
        track_branches(spec, [0.0, 1.0], steps)
    with pytest.raises(ValidationError, match="steps_per_period"):
        period_average(spec, [spec.a2], np.array([[[1.0, 0.0, 0.0]]]), steps)


def test_norm_gate_covers_the_end_of_the_period():
    # at 120 steps the three-site drift is 7.5e-7 at T / 2, inside the gate,
    # and 1.5e-6 at T, which only U's column norms see after a half sweep
    spec = spec_n(3)
    _, half_drift = propagator._sweep(spec, [0.0], np.eye(3)[np.newaxis], 120,
                                      stop=60)
    assert half_drift <= NORM_FAILURE_BOUND
    with pytest.raises(IntegrationFailure) as failure:
        monodromy(spec, 120)
    assert failure.value.time == pytest.approx(spec.period)
    assert "a2=0.0" in str(failure.value)
    with pytest.raises(IntegrationFailure):
        scan_spectrum(ScanConfig(base_spec=spec, grid_start=0.0, grid_stop=0.5,
                                 grid_points=3, steps_per_period=120))


@pytest.mark.parametrize("where, spp", [
    pytest.param("monodromy", 202, id="monodromy"),
    pytest.param("scan_spectrum", 202, id="scan_spectrum"),
    ("monodromy", 201), ("scan_spectrum", 201)])
def test_non_finite_half_period_states_fail_the_gate(monkeypatch, where,
                                                     spp):
    # a NaN in the states at T / 2 reaches U = V^T V; its column norms fail
    # the norm gate at t = T, not the unitarity check. 202 steps (2 mod 4)
    # keep the half sweep at nu0 = 0 (the quarter sweep's case is in
    # test_time_reversal.py), and 201 take it about the middle step
    real_sweep = propagator._sweep

    def poisoned(*args, **kwargs):
        y, dev = real_sweep(*args, **kwargs)
        y[..., -1, 0] = np.nan
        return y, dev

    monkeypatch.setattr(propagator, "_sweep", poisoned)
    spec = spec_n(3)
    with pytest.raises(IntegrationFailure) as failure:
        if where == "monodromy":
            monodromy(spec, spp)
        else:
            scan_spectrum(ScanConfig(base_spec=spec, grid_start=0.0,
                                     grid_stop=0.5, grid_points=3,
                                     steps_per_period=spp))
    assert failure.value.time == pytest.approx(spec.period)
    assert "nan" in str(failure.value)


def test_non_finite_operator_raises_package_error():
    spec = spec_n(3, a1=1e308)
    with pytest.raises((IntegrationFailure, NumericsError)):
        floquet_modes(monodromy(spec, 100))


def test_eigen_gate_names_the_remedy():
    # at 500 steps a fig2 operator passes the 1e-6 unitarity gate but not
    # the 1e-7 eigen-residual gate; both errors name the same remedy
    op = monodromy(spec_n(3, a2=60.0), 500)
    assert op.unitarity_residual() <= 1e-6
    with pytest.raises(NumericsError, match="increase steps_per_period"):
        floquet_modes(op)


def _branch_set(rows, params):
    """BranchSet on the a2 grid ``params`` (omega = 10) whose branch k has
    quasi-energies ``rows[k]``, a scalar for a flat branch, and the mode
    vector e_k throughout."""
    p, n = len(params), len(rows)
    branches = [
        Branch(branch_id=k,
               quasienergies=np.array(np.broadcast_to(row, (p,)), dtype=float),
               vectors=np.tile(np.eye(n, dtype=complex)[k], (p, 1)),
               avg_populations=np.full((p, n), 1.0 / n),
               residuals=np.zeros(p))
        for k, row in enumerate(rows)
    ]
    return BranchSet(
        param_values=np.asarray(params, dtype=float),
        base_spec=SystemSpec(n_sites=n, omega0=1.0, nu0=0.0, a1=0.0, a2=0.0,
                             omega=10.0),
        steps_per_period=500, branches=branches, warnings=[],
        max_norm_deviation=0.0)


def _everywhere(branch_set):
    return np.ones(branch_set.param_values.shape, dtype=bool)


def test_classify_flat_branches_returns_leftmost():
    branch_set = _branch_set([0.5, -0.5], [0.0, 1.0, 2.0, 3.0])
    res = classify_closest_approach(branch_set, _everywhere(branch_set))
    assert res.branches == (0, 1)
    assert res.kind == "avoided"
    assert res.gap == pytest.approx(1.0)
    assert res.location == 1.0  # leftmost interior grid point
    assert res.evaluations == 0  # a flat gap needs no probe


def test_classify_requires_local_minimum():
    branch_set = _branch_set([0.0, [4.0, 3.0, 2.0, 1.0]],  # monotone gap
                             [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="minimum"):
        classify_closest_approach(branch_set, _everywhere(branch_set))


def test_classify_pair_by_circular_gap_across_the_zone_edge():
    # 4.9 and -4.9 are 0.2 apart on the folding circle of omega = 10, but
    # 9.8 apart on the line, where (0, 2) at 2.9 would be the closest pair
    branch_set = _branch_set([4.9, -4.9, 2.0], [0.0, 1.0, 2.0])
    res = classify_closest_approach(branch_set, _everywhere(branch_set))
    assert res.branches == (0, 1)
    assert res.gap == pytest.approx(0.2)


def test_classify_takes_the_first_pair_on_ties():
    # (0, 3) and (1, 2) are both exactly 1.0 apart; (0, 3) comes first
    branch_set = _branch_set([0.0, 3.0, 4.0, 1.0], [0.0, 1.0, 2.0])
    res = classify_closest_approach(branch_set, _everywhere(branch_set))
    assert res.branches == (0, 3)
    assert res.gap == 1.0


@pytest.mark.parametrize("shift, pair", [(1e-14, (0, 1)), (-1e-14, (0, 1)),
                                         (1e-9, (1, 2))])
def test_classify_ties_pairs_within_rounding(shift, pair):
    # a zero mode between a +-eps pair, as chiral symmetry gives at nu0 = 0
    # and odd n: (0, 1) and (1, 2) tie. Moving one level by 1e-14, as
    # rounding does, must not change the pair; a real difference must.
    x = np.array([0.6, 0.5, 0.6])
    branch_set = _branch_set([-x, 0.0, x - shift], [0.0, 1.0, 2.0])
    res = classify_closest_approach(branch_set, _everywhere(branch_set))
    assert res.branches == pair


def test_classify_searches_only_inside_the_window():
    # (0, 1) is the closest pair on the whole grid and (0, 2) inside the
    # window of the last three points
    branch_set = _branch_set([0.0, [0.1] * 3 + [3.0] * 3,
                              [2.0] * 3 + [0.5] * 3],
                             [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert classify_closest_approach(
        branch_set, _everywhere(branch_set)).branches == (0, 1)
    window = np.array([False, False, False, True, True, True])
    res = classify_closest_approach(branch_set, window)
    assert res.branches == (0, 2)
    assert res.gap == 0.5
    assert res.location == 4.0  # the window's only interior point
    with pytest.raises(ValidationError, match="mask over"):
        classify_closest_approach(branch_set, window[:4])
    with pytest.raises(ValidationError, match="at least 3"):
        classify_closest_approach(branch_set, window & (np.arange(6) > 3))


def _classify_first_zero_pair(nu0):
    """Closest approach of the four-site pair with the smallest grid gap,
    on an 11-point grid around the first J0 zero at omega = 10.

    The package must pick the pair this test's own search picks. Also
    checks the parabolic refinement: a few probes, and a reported gap no
    larger than the gap probed 1e-5 omega to either side of it.
    """
    z1 = j0_zero(1)
    ratios = np.linspace(z1 - 0.2, z1 + 0.05, 11)
    branch_set = track_branches(spec_n(4, nu0=nu0), ratios * 10.0, 1000)
    # pick the pair with the smallest discrete gap
    best = None
    for i in range(4):
        for j in range(i + 1, 4):
            g = np.min(np.abs(branch_set.branches[i].quasienergies
                              - branch_set.branches[j].quasienergies))
            if best is None or g < best[0]:
                best = (g, i, j)
    _, i, j = best
    res = classify_closest_approach(branch_set, _everywhere(branch_set))
    assert res.branches == (i, j)
    assert res.evaluations <= 8
    a, b = branch_set.branches[i], branch_set.branches[j]
    anchor = int(np.argmin(np.abs(a.quasienergies - b.quasienergies)))
    for x in (res.location - 1e-4, res.location + 1e-4):
        assert res.gap <= _gap_probe(branch_set, (i, j), anchor, x)
    return res


def test_classify_crossing_near_first_zero_four_sites():
    # at omega = 10 the four-site pair crossing sits ~0.13 below the zero
    res = _classify_first_zero_pair(nu0=0.0)
    assert res.kind == "crossing"
    assert res.gap < 1e-4 * 10.0
    assert abs(res.location / 10.0 - (j0_zero(1) - 0.13)) < 0.03


def test_classify_avoided_with_second_order_coupling():
    res = _classify_first_zero_pair(nu0=0.2)
    assert res.kind == "avoided"
    assert res.gap > 1e-4 * 10.0
