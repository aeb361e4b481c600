import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from floquet_lattice import (
    Branch,
    IntegrationFailure,
    NumericsError,
    SystemSpec,
    ValidationError,
    averaged_populations,
    classify_closest_approach,
    floquet_modes,
    fold_quasienergy,
    j0_zero,
    monodromy,
    track_branches,
)
from floquet_lattice.floquet import _gap_probe
from floquet_lattice.propagator import one_period_table

from helpers import circular_match, fold_into_zone, static_eigenvalues


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
    from floquet_lattice import StateVector, propagate

    spec = spec_n(3, a2=13.0)
    modes = floquet_modes(monodromy(spec, 1000))
    for mode in modes:
        traj = propagate(spec, StateVector(mode.vector), t_final=spec.period,
                         steps_per_period=1000)
        expected = np.exp(-1j * mode.quasienergy * spec.period) * mode.vector
        assert np.max(np.abs(traj.amplitudes[-1] - expected)) < 1e-6


def test_averaged_populations_static_stationary_state():
    spec = spec_n(3, a1=0.0, a2=0.0)
    vec = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    pops = averaged_populations(spec, vec.astype(complex), 1000)
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
    branch_set = track_branches([spec_n(3, a2=5.0)], 1000)
    assert len(branch_set.branches) == 3
    eps = [b.quasienergies[0] for b in branch_set.branches]
    assert eps == sorted(eps)


def test_track_branches_dark_branch_stays_at_zero():
    # grid fine enough for overlap tracking through the localization flip
    # at the first J0 zero
    ratios = np.linspace(0.0, 3.0, 31)
    specs = [spec_n(3, a2=float(r * 10.0)) for r in ratios]
    branch_set = track_branches(specs, 1000)
    dark = min(branch_set.branches, key=lambda b: np.max(np.abs(b.quasienergies)))
    assert np.max(np.abs(dark.quasienergies)) < 1e-6


def test_track_branches_detects_field_errors():
    s = spec_n(3)
    with pytest.raises(ValidationError, match="exactly one"):
        track_branches([s, s.replace(a2=1.0, a1=2.0)], 500)
    with pytest.raises(ValidationError, match="monotone"):
        track_branches([s, s.replace(a2=2.0), s.replace(a2=1.0)], 500)


@pytest.mark.parametrize("change", [{"omega": 11.0}, {"nu0": 0.1},
                                    {"a1": 20.0}])
def test_track_branches_follows_a2_scans_only(change):
    # a scan in any field but a2 is refused, even when a2 stays fixed
    s = spec_n(3, a2=1.0)
    with pytest.raises(ValidationError, match="exactly one"):
        track_branches([s, s.replace(**change)], 500)


def test_track_branches_equals_per_point_modes():
    spp = 1000
    specs = [spec_n(4, nu0=0.2, a2=float(r * 10.0))
             for r in np.linspace(2.0, 2.6, 5)]
    branches = track_branches(specs, spp).branches
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


@pytest.mark.parametrize("steps", [0, 99, 500.0, True])
def test_one_period_paths_reject_bad_steps_per_period(steps):
    spec = spec_n(3)
    with pytest.raises(ValidationError, match="steps_per_period"):
        monodromy(spec, steps)
    with pytest.raises(ValidationError, match="steps_per_period"):
        one_period_table(spec, [0.0, 1.0], steps)
    with pytest.raises(ValidationError, match="steps_per_period"):
        track_branches([spec, spec.replace(a2=1.0)], steps)
    with pytest.raises(ValidationError, match="steps_per_period"):
        averaged_populations(spec, np.array([1.0, 0.0, 0.0], dtype=complex),
                             steps)


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


def _flat_branch(bid, value, params):
    p = len(params)
    return Branch(
        branch_id=bid,
        param_values=np.asarray(params, dtype=float),
        quasienergies=np.full(p, value),
        vectors=np.tile(np.eye(2, dtype=complex)[bid], (p, 1)),
        avg_populations=np.full((p, 2), 0.5),
        residuals=np.zeros(p),
        base_spec=SystemSpec(n_sites=2, omega0=1.0, nu0=0.0, a1=0.0, a2=0.0,
                             omega=10.0),
        steps_per_period=500,
    )


def test_classify_flat_branches_returns_leftmost():
    params = [0.0, 1.0, 2.0, 3.0]
    res = classify_closest_approach(_flat_branch(0, 0.5, params),
                                    _flat_branch(1, -0.5, params))
    assert res.kind == "avoided"
    assert res.gap == pytest.approx(1.0)
    assert res.location == 1.0  # leftmost interior grid point


def test_classify_requires_local_minimum():
    params = [0.0, 1.0, 2.0, 3.0]
    a = _flat_branch(0, 0.0, params)
    b = _flat_branch(1, 0.0, params)
    b.quasienergies = np.array([4.0, 3.0, 2.0, 1.0])  # monotone gap
    with pytest.raises(ValidationError, match="minimum"):
        classify_closest_approach(a, b)


def _classify_first_zero_pair(nu0):
    """Closest approach of the four-site pair with the smallest grid gap,
    on an 11-point grid around the first J0 zero at omega = 10.

    Also checks the parabolic refinement: a few probes, and a reported gap
    no larger than the gap probed 1e-5 omega to either side of it.
    """
    z1 = j0_zero(1)
    ratios = np.linspace(z1 - 0.2, z1 + 0.05, 11)
    specs = [spec_n(4, nu0=nu0, a2=float(r * 10.0)) for r in ratios]
    branch_set = track_branches(specs, 1000)
    # pick the pair with the smallest discrete gap
    best = None
    for i in range(4):
        for j in range(i + 1, 4):
            g = np.min(np.abs(branch_set.branches[i].quasienergies
                              - branch_set.branches[j].quasienergies))
            if best is None or g < best[0]:
                best = (g, i, j)
    _, i, j = best
    a, b = branch_set.branches[i], branch_set.branches[j]
    res = classify_closest_approach(a, b)
    assert res.evaluations <= 8
    anchor = int(np.argmin(np.abs(a.quasienergies - b.quasienergies)))
    for x in (res.location - 1e-4, res.location + 1e-4):
        assert res.gap <= _gap_probe(a, b, anchor, x)
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
