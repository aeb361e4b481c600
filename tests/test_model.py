import json
import math

import numpy as np
import pytest

from floquet_lattice import (
    StateVector,
    SystemSpec,
    ValidationError,
    averaged_populations,
    basis_state,
    effective_params,
    effective_propagate,
    hamiltonian_at,
    propagate,
    spec_from_json,
    spec_to_json,
    validate,
)
from floquet_lattice.propagator import (
    folded_min_population,
    folded_population_series,
    one_period_table,
)


def three_site(**kw):
    base = dict(n_sites=3, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0, omega=10.0)
    base.update(kw)
    return SystemSpec(**base)


def test_period_identity():
    spec = three_site()
    assert spec.period * spec.omega == pytest.approx(2.0 * math.pi, abs=1e-15)


def test_hamiltonian_reference_point():
    h = hamiltonian_at(three_site(), 0.0).entries
    expected = np.array([[22.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(h, expected, atol=0.0)


def test_quarter_period_diagonal_vanishes():
    spec = three_site(a2=17.0)
    h = hamiltonian_at(spec, spec.period / 4.0).entries
    assert np.max(np.abs(np.diag(h))) < 1e-13
    assert h[0, 1] == 1.0


def test_second_order_coupling_band():
    spec = SystemSpec(n_sites=4, omega0=1.0, nu0=0.2, a1=22.0, a2=3.0, omega=10.0)
    h = hamiltonian_at(spec, 0.77).entries
    assert h[0, 2] == 0.2
    assert h[1, 3] == 0.2
    assert h[2, 0] == 0.2


@pytest.mark.parametrize("n_sites", [2, 3, 5, 8])
def test_band_structure_random_times(n_sites):
    rng = np.random.default_rng(n_sites)
    spec = SystemSpec(n_sites=n_sites, omega0=0.7, nu0=0.31, a1=5.0, a2=-3.0,
                      omega=4.0)
    for _ in range(5):
        t = float(rng.uniform(-20, 20))
        h = hamiltonian_at(spec, t).entries
        assert np.allclose(h, h.conj().T, atol=0.0)
        for i in range(n_sites):
            for j in range(n_sites):
                d = abs(i - j)
                if d > 2:
                    assert h[i, j] == 0.0
                elif d == 2:
                    assert h[i, j] == 0.31
                elif d == 1:
                    assert h[i, j] == 0.7
        for i in range(1, n_sites - 1):
            assert h[i, i] == 0.0


def test_periodicity():
    spec = three_site(a2=13.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = float(rng.uniform(0, 50))
        h1 = hamiltonian_at(spec, t).entries
        h2 = hamiltonian_at(spec, t + spec.period).entries
        assert np.allclose(h1, h2, atol=1e-12)


def test_half_period_drive_antisymmetry():
    spec = three_site(a2=13.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = float(rng.uniform(0, 50))
        h1 = hamiltonian_at(spec, t).entries
        h2 = hamiltonian_at(spec, t + spec.period / 2.0).entries
        assert np.allclose(np.diag(h2), -np.diag(h1), atol=1e-12)
        off1 = h1 - np.diag(np.diag(h1))
        off2 = h2 - np.diag(np.diag(h2))
        assert np.array_equal(off1, off2)


def test_validate_accepts_reference():
    validate(three_site())


def test_rejects_single_site():
    with pytest.raises(ValidationError, match="n_sites"):
        SystemSpec(n_sites=1, omega0=1.0, nu0=0.0, a1=0.0, a2=0.0, omega=10.0)


def test_rejects_zero_frequency():
    with pytest.raises(ValidationError, match="omega"):
        three_site(omega=0.0)


def test_rejects_non_finite():
    with pytest.raises(ValidationError, match="a1"):
        three_site(a1=float("inf"))


def test_json_round_trip():
    spec = SystemSpec(n_sites=4, omega0=1.5, nu0=0.2, a1=22.0, a2=24.0, omega=10.0)
    again = spec_from_json(spec_to_json(spec))
    assert again == spec


def test_json_unknown_keys_rejected():
    payload = json.loads(spec_to_json(three_site()))
    payload["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        spec_from_json(json.dumps(payload))


def test_json_missing_keys_rejected():
    with pytest.raises(ValidationError, match="missing"):
        spec_from_json(json.dumps({"n_sites": 3}))


def test_json_rejects_non_object():
    with pytest.raises(ValidationError):
        spec_from_json("[1, 2]")


def test_json_n_sites_must_be_integral():
    payload = json.loads(spec_to_json(three_site()))
    assert SystemSpec.from_json_dict({**payload, "n_sites": 3.0}).n_sites == 3
    with pytest.raises(ValidationError, match="n_sites"):
        SystemSpec.from_json_dict({**payload, "n_sites": 3.5})


# Every entry point that takes a state or mode vector goes through one
# check: n_sites amplitudes, unit norm within 1e-9; NaN and Inf fail.
def _state_entry_points():
    spec = three_site(a2=5.0)
    params = effective_params(spec, basis_state(3, 1))
    table = one_period_table(spec, [0.0, 20.0], 200)
    return {
        "propagate": lambda a: propagate(spec, StateVector(a), spec.period,
                                         200),
        "effective_params": lambda a: effective_params(spec, StateVector(a)),
        "effective_propagate": lambda a: effective_propagate(
            params, StateVector(a), 1.0),
        "averaged_populations": lambda a: averaged_populations(spec, a, 200),
        "folded_min_population": lambda a: folded_min_population(
            table, 0, a, 2),
        "folded_population_series": lambda a: folded_population_series(
            table, 0, a, 2),
    }


@pytest.mark.parametrize("state, message", [
    ([math.nan, 0.0, 0.0], "norm"),
    ([math.inf, 0.0, 0.0], "norm"),
    ([2.0, 0.0, 0.0], "norm"),
    ([1.0, 0.0], "sites"),
    ([1.0, 0.0, 0.0, 0.0], "sites"),
], ids=["nan", "inf", "norm-2", "short", "long"])
@pytest.mark.parametrize("entry", [
    "propagate", "effective_params", "effective_propagate",
    "averaged_populations", "folded_min_population",
    "folded_population_series"])
def test_every_state_entry_point_rejects_bad_states(entry, state, message):
    call = _state_entry_points()[entry]
    with pytest.raises(ValidationError, match=message):
        call(np.array(state, dtype=complex))


@pytest.mark.parametrize("site", [1.5, True, 0, 4, -1])
def test_basis_state_rejects_bad_sites(site):
    with pytest.raises(ValidationError, match="site"):
        basis_state(3, site)


def test_basis_state_accepts_numpy_sites():
    assert basis_state(3, np.int64(3)).amplitudes.tolist() == [0, 0, 1]
