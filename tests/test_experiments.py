import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from floquet_lattice import (
    ScanConfig,
    ScanInterrupted,
    SystemSpec,
    ValidationError,
    basis_state,
    figure_config,
    figure_scan_config,
    j0_zero,
    landmark_zeros,
    min_population,
    reproduce,
    scan_min_p1,
    scan_spectrum,
)
from floquet_lattice.experiments import write_manifest
from floquet_lattice.floquet import OVERLAP_AMBIGUITY
from floquet_lattice.propagator import folded_min_population, one_period_table
from helpers import direct_propagate


def spec_n(n, **kw):
    base = dict(n_sites=n, omega0=1.0, nu0=0.0, a1=22.0, a2=0.0, omega=10.0)
    base.update(kw)
    return SystemSpec(**base)


def small_config(n=3, **kw):
    base = dict(base_spec=spec_n(n), grid_start=0.0, grid_stop=0.5,
                grid_points=3, horizon_periods=5, steps_per_period=500)
    base.update(kw)
    return ScanConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError, match="stop"):
        small_config(grid_stop=-1.0)
    with pytest.raises(ValidationError, match="points"):
        small_config(grid_points=1)
    with pytest.raises(ValidationError, match="horizon"):
        small_config(horizon_periods=0)
    with pytest.raises(ValidationError, match="initial_site"):
        small_config(initial_site=9)
    with pytest.raises(ValidationError, match="finite"):
        small_config(grid_start=float("nan"))
    with pytest.raises(ValidationError, match="finite"):
        small_config(grid_stop=float("inf"))


# 500.0 is integral and above every minimum, so only the type check rejects it
@pytest.mark.parametrize("value", [2.5, 3.0, True, 500.0])
@pytest.mark.parametrize("name", ["grid_points", "horizon_periods",
                                  "initial_site", "steps_per_period"])
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValidationError, match=name):
        small_config(**{name: value})


def test_config_stores_numpy_counts_as_int(tmp_path):
    config = small_config(grid_points=np.int64(3), horizon_periods=np.int64(5),
                          steps_per_period=np.int64(500),
                          initial_site=np.int32(1))
    for name in ("grid_points", "horizon_periods", "steps_per_period",
                 "initial_site"):
        assert type(getattr(config, name)) is int
    written = write_manifest(tmp_path, config.to_json_dict(), time.perf_counter())
    assert json.loads((tmp_path / "manifest.json").read_text()) == written


def test_failed_manifest_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_manifest(tmp_path, {"grid_points": object()}, time.perf_counter())
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite keeps the previous manifest whole
    write_manifest(tmp_path, {"grid_points": 3}, time.perf_counter())
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(TypeError):
        write_manifest(tmp_path, {"grid_points": object()}, time.perf_counter())
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert (tmp_path / "manifest.json").read_bytes() == before


def test_landmark_zeros():
    assert landmark_zeros(0.0, 6.0) == [j0_zero(1), j0_zero(2)]
    assert landmark_zeros(3.0, 6.0) == [j0_zero(2)]
    assert landmark_zeros(0.0, 2.0) == []
    assert len(landmark_zeros(0.0, 16.0)) == 5


def test_scan_matches_direct_propagation():
    config = small_config()
    result = scan_min_p1(config)
    for ratio, value in zip(result.ratios, result.min_p1):
        spec = config.base_spec.replace(a2=float(ratio * 10.0))
        traj = direct_propagate(spec, basis_state(3, 1),
                                t_final=config.horizon_periods * spec.period,
                                steps_per_period=config.steps_per_period,
                                stride=100)
        assert abs(value - min_population(traj, 1)) < 1e-9


def test_scan_deterministic_and_worker_invariant():
    config = small_config(grid_points=7)
    a = scan_min_p1(config, workers=1)
    b = scan_min_p1(config, workers=1)
    c = scan_min_p1(config, workers=3)
    assert np.array_equal(a.min_p1, b.min_p1)
    assert np.array_equal(a.min_p1, c.min_p1)


def test_identical_points_give_identical_records():
    spec = spec_n(3)
    table = one_period_table(spec, np.array([20.0, 20.0]), 500, site=1)
    e1 = basis_state(3, 1).amplitudes
    m0, _ = folded_min_population(table, 0, e1, 5)
    m1, _ = folded_min_population(table, 1, e1, 5)
    assert m0 == m1
    assert np.array_equal(table.monodromies[0], table.monodromies[1])


def test_scan_interrupted_carries_completed_points():
    # with one point per worker chunk, the benign a2=0 point completes while
    # the huge-amplitude points blow past the norm bound
    spec = SystemSpec(n_sites=2, omega0=1.0, nu0=0.0, a1=0.0, a2=0.0, omega=10.0)
    config = ScanConfig(base_spec=spec, grid_start=0.0, grid_stop=60.0,
                        grid_points=4, horizon_periods=2, steps_per_period=100)
    with pytest.raises(ScanInterrupted) as err:
        scan_min_p1(config, workers=4)
    assert len(err.value.completed) >= 1
    assert all(0.0 <= v <= 1.0 for v in err.value.completed.values())
    # point 0 carries the value a scan of that one point gives
    table = one_period_table(spec, np.array([0.0]), 100, site=1)
    alone, _ = folded_min_population(table, 0, basis_state(2, 1).amplitudes, 2)
    assert err.value.completed[0] == alone


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(points=st.integers(2, 9), workers=st.integers(1, 6))
def test_scan_min_p1_worker_invariance(points, workers):
    # a milder drive than the recipes' a1 = 22, so 100 steps pass the gates
    config = small_config(base_spec=spec_n(3, a1=10.0), grid_stop=1.0,
                          grid_points=points, horizon_periods=3,
                          steps_per_period=100)
    one = scan_min_p1(config, workers=1)
    many = scan_min_p1(config, workers=workers)
    assert np.array_equal(many.min_p1, one.min_p1)
    assert np.array_equal(many.max_norm_deviation, one.max_norm_deviation)


def test_spectrum_scan_dark_branch_and_classification():
    spec = spec_n(3)
    config = ScanConfig(base_spec=spec, grid_start=2.2, grid_stop=2.6,
                        grid_points=17, horizon_periods=5, steps_per_period=1000)
    result = scan_spectrum(config, classify=True)
    assert result.landmarks == [j0_zero(1)]
    dark = min(result.branch_set.branches,
               key=lambda b: np.max(np.abs(b.quasienergies)))
    assert np.max(np.abs(dark.quasienergies)) < 1e-6
    # the three-site chain has no degeneracy: the pair approach is avoided
    assert len(result.classifications) == 1
    cls = result.classifications[0]
    assert cls["kind"] == "avoided"
    assert cls["gap"] > 0.05


def test_spectrum_scan_refines_grid_near_zeros():
    config = ScanConfig(base_spec=spec_n(3), grid_start=2.2, grid_stop=2.6,
                        grid_points=9, horizon_periods=5, steps_per_period=500)
    coarse = scan_spectrum(config, classify=False)
    fine = scan_spectrum(config, classify=True)
    assert coarse.ratios.size == 9
    assert fine.ratios.size > 9 * 4


@pytest.mark.parametrize("n_sites", [10, 12])
def test_spectrum_scan_at_large_n_matches_optimal_pairing(n_sites):
    # 12! = 4.8e8 pairings per grid step: matching must prune, not enumerate
    base = figure_scan_config("fig4").base_spec.replace(n_sites=n_sites)
    config = ScanConfig(base_spec=base, grid_start=0.0, grid_stop=6.0,
                        grid_points=11)
    started = time.perf_counter()
    result = scan_spectrum(config, classify=False)
    assert time.perf_counter() - started < 60.0
    vecs = np.array([b.vectors for b in result.branch_set.branches])
    for i in range(1, config.grid_points):
        overlap = np.abs(vecs[:, i - 1].conj() @ vecs[:, i].T)
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        # the kept pairing is the best or a near-tie of it
        assert (np.trace(overlap)
                >= overlap[rows, cols].sum() - OVERLAP_AMBIGUITY - 1e-12)


def test_figure_config_loading():
    for fid in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        raw = figure_config(fid)
        assert raw["figure"] == fid
        assert set(raw["spec"]) == {"n_sites", "omega0", "nu0", "a1", "a2", "omega"}
    with pytest.raises(ValidationError, match="fig2"):
        figure_config("fig99")


def test_reproduce_small_override(tmp_path):
    out = tmp_path / "run1"
    manifest = reproduce(
        "fig3", out,
        overrides={"grid_points": "5", "grid_start": "2.3", "grid_stop": "2.5",
                   "horizon_periods": "5", "steps_per_period": "500"},
    )
    assert (out / "manifest.json").exists()
    assert (out / "spectrum.csv").exists()
    assert manifest["figure"] == "fig3"
    assert manifest["grid"]["points"] == 5
    assert manifest["overrides"]["grid_points"] == "5"
    assert manifest["outputs"] == ["spectrum.csv"]
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk["tool_version"] == manifest["tool_version"]
    header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert header == "a2_over_omega,branch_id,quasienergy,avg_p1,avg_p2,avg_p3"


def test_reproduce_rerun_is_byte_identical(tmp_path):
    overrides = {"grid_points": "4", "grid_start": "1.0", "grid_stop": "1.6",
                 "horizon_periods": "4", "steps_per_period": "500"}
    a = tmp_path / "a"
    b = tmp_path / "b"
    reproduce("fig3", a, overrides=overrides)
    reproduce("fig3", b, overrides=overrides, workers=2)
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_reproduce_unknown_override(tmp_path):
    with pytest.raises(ValidationError, match="override"):
        reproduce("fig3", tmp_path, overrides={"bogus": "1"})


def test_reproduce_override_of_every_field_reaches_the_manifest(tmp_path):
    # every spec field and every other ScanConfig field, each off its recipe
    overrides = {"n_sites": "4", "omega0": "1.25", "nu0": "0.1", "a1": "21.5",
                 "a2": "3.5", "omega": "12", "grid_start": "2.25",
                 "grid_stop": "2.5", "grid_points": "4", "horizon_periods": "7",
                 "steps_per_period": "600", "initial_site": "2"}
    recipe = figure_config("fig3")
    manifest = reproduce("fig3", tmp_path, overrides=overrides)
    spec = {key: float(overrides[key]) for key in recipe["spec"]}
    spec["n_sites"] = 4
    expected = {"spec": spec,
                "grid": {"start": 2.25, "stop": 2.5, "points": 4},
                "horizon_periods": 7, "steps_per_period": 600,
                "initial_site": 2}
    assert all(spec[key] != recipe["spec"][key] for key in spec)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    for key, value in expected.items():
        assert manifest[key] == value != recipe[key]
        assert on_disk[key] == value
    assert set(expected) == set(ScanConfig.from_json_dict(recipe).to_json_dict())
    assert manifest["overrides"] == overrides
    assert "scan_parameter" not in on_disk


def test_scan_config_json_round_trip():
    for fid in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        config = figure_scan_config(fid)
        assert ScanConfig.from_json_dict(config.to_json_dict()) == config
