"""The benchmark's tracer (perfbench/spans.py) wraps package functions from
outside: it replaces module globals that the package looks up at call time,
and its work counters read positional arguments. These tests run the
tracer over small scans so that a renamed global, a call that bypasses the
global, or a moved argument fails here and not only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from floquet_lattice import ScanConfig, cli, figure_config, figure_scan_config
from floquet_lattice.experiments import scan_min_p1, scan_spectrum

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture()
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_runs_every_counter(spans, monkeypatch,
                                                          tmp_path):
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(module, attr)), attr

    ran = set()

    def recording(count):
        def wrapped(args, kwargs, result):
            out = count(args, kwargs, result)
            ran.add(count)
            return out
        return wrapped

    targets = spans.TARGETS
    monkeypatch.setattr(spans, "TARGETS", tuple(
        (module, attr, name, count and recording(count))
        for module, attr, name, count in targets))

    fig4 = figure_scan_config("fig4").base_spec
    minp1 = ScanConfig(base_spec=fig4, grid_points=5, horizon_periods=20)
    # one J0 zero in range and a coarse step keep the gap probes short
    window = ScanConfig(base_spec=fig4.replace(nu0=0.2), grid_start=1.8,
                        grid_stop=3.0, grid_points=13, steps_per_period=1000)
    tracer = spans.Tracer()
    with tracer:
        scan_min_p1(minp1, workers=2)
        spectrum = scan_spectrum(window, workers=1)
        assert cli.main(["reproduce", "fig2", "--set", "grid_points=5",
                         "--set", "horizon_periods=2", "--workers", "1",
                         "--out", str(tmp_path / "fig2")]) == 0
    for module, attr, _, _ in targets:  # uninstalled again
        assert not hasattr(getattr(module, attr), "__wrapped__"), attr

    by_name = spans.spans_by_name(tracer.roots)
    assert set(by_name) == {name for _, _, name, _ in targets}
    assert ran == {count for _, _, _, count in targets if count}

    # the counters read the arguments they were written for: fig2 builds
    # tables for its grid, its series amplitudes and its heatmap grid
    fig2 = figure_scan_config("fig2")
    fig2_points = 5 + len(figure_config("fig2")["series"]["a2_over_omega"]) + 5
    assert sum(s.counters["step_rows"]
               for s in by_name["propagator.one_period_table"]) == (
        minp1.steps_per_period * minp1.grid_points * fig4.n_sites
        + fig2.steps_per_period * fig2_points * fig2.base_spec.n_sites)
    assert {s.counters["periods"]
            for s in by_name["propagator.folded_min_population"]} == {20, 2}
    (tracked,) = by_name["floquet.track_branches"]
    assert tracked.counters["points"] == spectrum.ratios.size
    (classified,) = by_name["floquet.classify_closest_approach"]
    assert classified.counters["evaluations"] > 0
