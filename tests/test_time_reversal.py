"""Time-reversal and chiral invariants of the one-period operators.

Both drives are a_j cos(omega t) and H0 is real symmetric, so
H(T - t) = H(t), and the RK4 step whose nodes mirror step k's about T / 2
is step k transposed. A whole-period sweep therefore gives a symmetric U,
the half-period operator V gives U = V^T V, and the period average along a
mode follows from half a period. At nu0 = 0 the sign flip S = diag((-1)^j)
gives H(t + T / 2) = -S H(t) S, so the quasi-energies come in +-eps pairs,
with one at 0 for odd n, and H(T / 2 - t) = -S H(t) S, so the half-period
operator is S Q^+ S Q with Q = U(T / 4, 0). None of these checks rests on a
frozen value: every bound is the rounding of the sweep, RK4's own departure
from unitarity or the guard's bound, each derived below.
"""

import math

import numpy as np
import pytest

from floquet_lattice import IntegrationFailure, SystemSpec, propagator
from floquet_lattice.experiments import FIGURE_IDS, figure_scan_config
from floquet_lattice.floquet import _sorted_modes
from floquet_lattice.propagator import (POPULATION_GUARD, SPECTRUM_STEP_BYTES,
                                        _sweep, _trapezoid, basis_sweep,
                                        one_period_table, period_average)

EPS = np.finfo(float).eps

# a2 / omega at the grid's start, near the first J0 zero and past the second
RATIOS = (0.0, 2.3, 5.6)

# the recipes with nu0 = 0, whose spectrum operators come from T / 4
CHIRAL = [f for f in FIGURE_IDS if figure_scan_config(f).base_spec.nu0 == 0.0]


def _recipe(figure):
    config = figure_scan_config(figure)
    spec = config.base_spec
    return spec, config.steps_per_period, np.array(RATIOS) * spec.omega


def _eye(n, points):
    return np.broadcast_to(np.eye(n, dtype=complex), (points, n, n))


def _whole(spec, a2, spp):
    """U(T, 0) per point from the whole-period sweep."""
    y, _ = _sweep(spec, a2, _eye(spec.n_sites, len(a2)), spp)
    return y.transpose(0, 2, 1)


def _half(spec, a2, spp):
    """V^T V with V = U(T/2, 0) from the half sweep, as ``basis_sweep``
    forms it off the quarter branch."""
    y, _ = _sweep(spec, a2, _eye(spec.n_sites, len(a2)), spp, stop=spp // 2,
                  step_bytes=SPECTRUM_STEP_BYTES)
    return np.matmul(y, y.transpose(0, 2, 1))


def sweep_rounding(spec, spp):
    """Bound on the rounding of any entry of a swept operator.

    Each of the spp steps rounds a length-n product (n eps), Horner's four
    multiply-adds (4 eps) and its drive nodes cos(omega t), whose arguments
    up to omega T = 2 pi carry about 2 pi eps, times |a| h <= 0.2 at the
    recipes (under 4 eps). The states have norm 1 within the norm gate and
    the steps are unitary to 1e-6, so the errors of earlier steps are
    carried, not amplified, and at most add up: spp (n + 8) eps.
    """
    return spp * (spec.n_sites + 8) * EPS


def quasienergy_rounding(spec, spp):
    """A quasi-energy is omega / 2 pi times the angle of an eigenvalue of
    the normal U, so it moves by at most omega / 2 pi times ||dU||_2 <=
    n max |dU_ij| (Bauer-Fike), plus the eigen solve's n eps."""
    n = spec.n_sites
    return spec.omega / (2.0 * math.pi) * n * (sweep_rounding(spec, spp)
                                                 + n * EPS)


# ---------------------------------------------------------------------------
# The sweep to a step count


@pytest.mark.parametrize("figure, spp", [(f, None) for f in FIGURE_IDS]
                         + [("fig4", 501), ("fig8", 501)])
def test_sweep_to_a_step_count_is_the_whole_sweep_so_far(figure, spp):
    spec, recipe_spp, a2 = _recipe(figure)
    spp = spp or recipe_spp
    n = spec.n_sites
    stops = (spp // 4, spp // 2)
    seen = {}

    def keep(first, states):
        for stop in stops:
            if first <= stop < first + len(states):
                seen[stop] = states[stop - first].copy()

    _sweep(spec, a2, _eye(n, a2.size), spp, on_chunk=keep)
    for stop in stops:
        y, _ = _sweep(spec, a2, _eye(n, a2.size), spp, stop=stop)
        assert y.tobytes() == seen[stop].tobytes(), stop


def test_table_paths_keep_the_whole_sweep():
    # the Min(P1) table (and propagate, through the same rows) needs every
    # step's rows, so its operators are the whole sweep's, not V^T V
    spec, spp, a2 = _recipe("fig4")
    table = one_period_table(spec, a2, spp)
    assert table.monodromies.tobytes() == _whole(spec, a2, spp).tobytes()
    half, _ = basis_sweep(spec, a2, spp)
    assert half.tobytes() != table.monodromies.tobytes()


# ---------------------------------------------------------------------------
# Operators


@pytest.mark.parametrize("figure", FIGURE_IDS)
def test_whole_period_operator_is_symmetric(figure):
    # V^T V is symmetric by construction, so the whole sweep is checked
    spec, spp, a2 = _recipe(figure)
    u = _whole(spec, a2, spp)
    assert np.max(np.abs(u - u.transpose(0, 2, 1))) <= 2 * sweep_rounding(
        spec, spp)


# the recipes' step count, and an odd one, where U = W_m^T R_m W_m about
# the middle step (at 501 steps a 25-point grid trips the 1e-7 eigen gate)
RECIPE_AND_ODD_SPP = [pytest.param(f, None, id=f) for f in FIGURE_IDS] + [
    ("fig4", 1001), ("fig8", 1001)]


@pytest.mark.parametrize("figure, spp", RECIPE_AND_ODD_SPP)
def test_half_period_product_is_the_whole_period_operator(figure, spp):
    spec, recipe_spp, a2 = _recipe(figure)
    spp = spp or recipe_spp
    u, _ = basis_sweep(spec, a2, spp)
    assert np.max(np.abs(u - _whole(spec, a2, spp))) <= 2 * sweep_rounding(
        spec, spp)


@pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "fig7", "fig8"])
def test_chiral_quasienergies_at_nu0_zero(figure):
    # read from the whole sweep: ``basis_sweep`` builds U from S Q^+ S Q
    # at nu0 = 0, which makes the +-eps pairs hold by construction
    spec, spp, a2 = _recipe(figure)
    assert spec.nu0 == 0.0
    bound = quasienergy_rounding(spec, spp)
    for u in _whole(spec, a2, spp):
        eps = np.sort(_sorted_modes(u, spec.omega)[0])
        # +-eps pairs: the sorted list reversed and negated is itself; a
        # pair at the zone edge +-omega/2 folds to one side, so compare on
        # the circle
        d = np.abs(eps + eps[::-1]) % spec.omega
        assert np.max(np.minimum(d, spec.omega - d)) <= 2 * bound
        if spec.n_sites % 2:
            assert np.min(np.abs(eps)) <= bound


@pytest.mark.parametrize("figure", CHIRAL)
def test_quarter_period_product_is_the_whole_period_operator(figure):
    # the test above covers the recipes' step count; at 500 steps
    # S Q^-1 S Q, RK4's steps not being unitary, is off by about 2e-7,
    # against a bound of 3e-12
    spec, _, a2 = _recipe(figure)
    spp = 500
    u, _ = basis_sweep(spec, a2, spp)
    assert np.max(np.abs(u - _whole(spec, a2, spp))) <= 2 * sweep_rounding(
        spec, spp)
    assert u.tobytes() != _half(spec, a2, spp).tobytes()  # the branch ran


@pytest.mark.parametrize("figure, spp", [(f, None) for f in CHIRAL]
                         + [("fig4", 500), ("fig8", 500)])
def test_quarter_period_reflection(figure, spp):
    # R_(spp/2-1-k) = S R_k^+ S, so the steps spp/4..spp/2-1 multiply to
    # S Q^+ S: V is S Q^+ S Q to the rounding of the two sweeps
    spec, recipe_spp, a2 = _recipe(figure)
    spp = spp or recipe_spp
    n = spec.n_sites
    seen = {}

    def keep(first, states):
        if first <= spp // 2 < first + len(states):
            seen["v"] = states[spp // 2 - first].transpose(0, 2, 1).copy()

    _sweep(spec, a2, _eye(n, a2.size), spp, on_chunk=keep)
    y, _ = _sweep(spec, a2, _eye(n, a2.size), spp, stop=spp // 4)
    q = y.transpose(0, 2, 1)
    s = np.diag((-1.0) ** np.arange(n))
    v = s @ q.conj().transpose(0, 2, 1) @ s @ q
    assert np.max(np.abs(v - seen["v"])) <= sweep_rounding(spec, spp)


@pytest.mark.parametrize("figure, nu0, spp", [
    ("fig5", None, None), ("fig6", None, None),
    ("fig4", 1e-6, None),  # a small nu0 is not zero
    ("fig4", None, 1002),  # spp / 2 odd: no quarter to reflect about
])
def test_off_the_quarter_branch_the_half_sweep_keeps_its_bytes(figure, nu0,
                                                               spp):
    spec, recipe_spp, a2 = _recipe(figure)
    spec = spec if nu0 is None else spec.replace(nu0=nu0)
    spp = spp or recipe_spp
    u, _ = basis_sweep(spec, a2, spp)
    assert u.tobytes() == _half(spec, a2, spp).tobytes()


def test_non_finite_quarter_period_states_fail_the_gate(monkeypatch):
    # a NaN in the states at T / 4 reaches U through V = S Q^+ S Q; U's
    # column norms fail the norm gate at t = T
    real_sweep = propagator._sweep
    stops = []

    def poisoned(*args, **kwargs):
        stops.append(kwargs.get("stop"))
        y, dev = real_sweep(*args, **kwargs)
        y[..., -1, 0] = np.nan
        return y, dev

    monkeypatch.setattr(propagator, "_sweep", poisoned)
    spec, _, a2 = _recipe("fig4")
    with pytest.raises(IntegrationFailure) as failure:
        basis_sweep(spec, a2, 400)
    assert stops == [100]
    assert failure.value.time == pytest.approx(spec.period)
    assert "nan" in str(failure.value)


def test_only_row_tables_and_the_fallback_sweep_the_whole_period(
        monkeypatch):
    # at an odd step count the spectrum sweeps stop about T / 2:
    # ``basis_sweep`` runs (spp + 1) / 2 steps, keeping the states one step
    # earlier, and ``period_average`` (spp - 1) / 2. Only the row tables
    # (no ``stop``) and a point that fails the population guard run spp
    real_sweep = propagator._sweep
    stops = []

    def recording(*args, **kwargs):
        stops.append(kwargs.get("stop"))
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(propagator, "_sweep", recording)
    spec, _, a2 = _recipe("fig4")
    spp = 1001
    u, _ = basis_sweep(spec, a2, spp)
    vecs = np.array([_sorted_modes(m, spec.omega)[1] for m in u])
    period_average(spec, a2, vecs, spp)
    eye = np.eye(spec.n_sites)
    vecs[0, 0] = (eye[0] + 1j * eye[1]) / math.sqrt(2.0)
    period_average(spec, a2, vecs, spp)  # point 0 is not real up to a phase
    one_period_table(spec, a2, spp)
    assert stops == [501, 500, 500, 1001, None]


# ---------------------------------------------------------------------------
# Period averages


def _unitarity_defect(spec, a2, spp):
    """max over steps s and points of ||W_s^+ W_s - I||_2, W_s = U(t_s, 0),
    from the whole sweep."""
    worst = [0.0]

    def read(first, states):
        gram = states.conj() @ states.transpose(0, 1, 3, 2)
        gram -= np.eye(spec.n_sites)
        worst[0] = max(worst[0], float(np.linalg.norm(gram, 2, axis=(-2, -1))
                                       .max()))

    _sweep(spec, a2, _eye(spec.n_sites, len(a2)), spp, on_chunk=read)
    return worst[0]


@pytest.mark.parametrize("figure, spp", RECIPE_AND_ODD_SPP)
def test_half_period_average_is_the_whole_period_average(figure, spp):
    # For an eigenvector v, U v = lam v + r, the state at step spp - s is
    # (W_s^T)^-1 U v = conj(W_s) (I + conj(E_s))^-1 (lam v + r), with
    # E_s = W_s^+ W_s - I, so its populations are those of conj(v) at step
    # s within 2 (||E|| + ||r||) + ||lam|^2 - 1| <= 3 ||E|| + 4 ||r||, and
    # the average halves that; the real vector the half sweep carries adds
    # at most POPULATION_GUARD (``period_average``)
    spec, recipe_spp, a2 = _recipe(figure)
    spp = spp or recipe_spp
    u, _ = basis_sweep(spec, a2, spp)
    modes = [_sorted_modes(m, spec.omega) for m in u]
    vecs = np.array([vec for _, vec, _ in modes])
    resid = max(float(res.max()) for _, _, res in modes)
    bound = (POPULATION_GUARD + 1.5 * _unitarity_defect(spec, a2, spp)
             + 2.0 * resid + 8 * spp * EPS)
    half = period_average(spec, a2, vecs, spp)
    whole = _trapezoid(spec, a2, vecs, spp, spp)
    assert np.max(np.abs(half - whole)) <= bound
    assert half.tobytes() != whole.tobytes()  # the half sweep ran


def test_degenerate_mode_takes_the_whole_period():
    # A static four-site chain with omega0 = omega / sqrt(5): its levels
    # 2 omega0 cos(k pi / 5) at k = 1 and 3 differ by exactly omega, so U has
    # a degenerate pair whose modes populate site 1 unequally. A complex
    # mix v of the two is an eigenvector that is not real up to a phase.
    spec = SystemSpec(n_sites=4, omega0=10.0 / math.sqrt(5.0), nu0=0.0,
                      a1=0.0, a2=0.0, omega=10.0)
    spp = 1000
    sites = np.arange(1, 5)
    e1, e3 = (np.sin(sites * k * np.pi / 5) * math.sqrt(0.4) for k in (1, 3))
    alpha = np.pi / 8
    v = (np.cos(alpha) * e1 + 1j * np.sin(alpha) * e3)[np.newaxis, np.newaxis]
    (u,), _ = basis_sweep(spec, [0.0], spp)
    lam = e1 @ u @ e1
    assert np.linalg.norm(u @ v[0, 0] - lam * v[0, 0]) <= 1e-8
    whole = _trapezoid(spec, [0.0], v, spp, spp)
    assert period_average(spec, [0.0], v, spp).tobytes() == whole.tobytes()
    # the half sweep of v itself, or of its real part, is far off
    assert abs(_trapezoid(spec, [0.0], v, spp, spp // 2)[0, 0, 0]
               - whole[0, 0, 0]) > 0.1
    real = e1[np.newaxis, np.newaxis].astype(complex)
    assert abs(_trapezoid(spec, [0.0], real, spp, spp // 2)[0, 0, 0]
               - whole[0, 0, 0]) > 0.01
