"""Self-tests of the benchmark: the tracer and every check.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
Each check must pass on the package's own output and fail on a corrupted
copy of it: two branch labels swapped at one step, a quasi-energy moved
past its bound, one Min(P1) value moved by 1e-6, one changed byte in a
CSV, and a NaN anywhere. Inputs are small versions of the workloads (fewer
grid points, shorter horizons), so the whole file runs in about a minute.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import dataclasses  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from floquet_lattice import experiments  # noqa: E402
from floquet_lattice.experiments import ScanConfig  # noqa: E402

RNG_SEED = 7


def _fig4_spec(**changes):
    return experiments.figure_scan_config("fig4").base_spec.replace(**changes)


def _spectrum_case(classify: bool):
    """A small scan, its references and its (passing) check."""
    if classify:
        # One landmark (z1) and a coarser step keep the 46 gap probes short.
        config = ScanConfig(base_spec=_fig4_spec(nu0=0.2), grid_start=1.8,
                            grid_stop=3.0, grid_points=13,
                            steps_per_period=1000)
    else:
        config = ScanConfig(base_spec=_fig4_spec(n_sites=5), grid_points=21)
    inputs = wl.ScanInputs(config, classify=classify)
    result = wl._run_spectrum(inputs)
    refs = wl._reference_spectrum(inputs, result, np.random.default_rng(RNG_SEED))
    return inputs, result, refs


def _set_branch(result, branch, field, index, value):
    arr = getattr(result.branch_set.branches[branch], field)
    arr[index] = value


def _corruptions_caught(classify: bool):
    inputs, result, refs = _spectrum_case(classify)
    check = wl._check_spectrum
    assert check(inputs, result, refs) == [], check(inputs, result, refs)
    points, _ = refs
    i = next(iter(points))

    swapped = copy.deepcopy(result)
    a, b = swapped.branch_set.branches[:2]
    k = result.ratios.size // 2
    for field in ("quasienergies", "vectors", "avg_populations"):
        va, vb = getattr(a, field), getattr(b, field)
        va[k], vb[k] = vb[k].copy(), va[k].copy()
    assert check(inputs, swapped, refs), "label swap not caught"

    moved = copy.deepcopy(result)
    _set_branch(moved, 0, "quasienergies", i,
                result.branch_set.branches[0].quasienergies[i]
                + 2.0 * points[i].quasienergy_bound())
    assert check(inputs, moved, refs), "moved quasi-energy not caught"

    for field, index in (("quasienergies", i), ("avg_populations", (i, 0)),
                         ("vectors", (k, 0))):
        bad = copy.deepcopy(result)
        _set_branch(bad, 1, field, index, np.nan)
        assert check(inputs, bad, refs), f"NaN in {field} not caught"
    return inputs, result, refs


def test_spectrum_checks():
    _corruptions_caught(classify=False)


def test_classification_checks():
    inputs, result, refs = _corruptions_caught(classify=True)
    check = wl._check_spectrum
    for value in (np.nan, result.classifications[0]["gap"] * 1.5):
        bad = copy.deepcopy(result)
        bad.classifications[0]["gap"] = value
        assert check(inputs, bad, refs), f"gap {value} not caught"
    bad = copy.deepcopy(result)
    bad.classifications[0]["location"] = float("nan")
    assert check(inputs, bad, refs), "NaN location not caught"


def test_minp1_checks():
    config = ScanConfig(base_spec=_fig4_spec(), grid_points=11,
                        horizon_periods=2000)
    inputs = wl.ScanInputs(config)
    result = wl._run_minp1(inputs)
    refs = wl._reference_minp1(inputs, result, np.random.default_rng(RNG_SEED))
    check = wl._check_minp1
    assert check(inputs, result, refs) == [], check(inputs, result, refs)
    i = next(iter(refs))
    for value in (result.min_p1[i] + 1e-6, result.min_p1[i] - 1e-6, np.nan):
        bad = copy.deepcopy(result)
        bad.min_p1[i] = value
        assert check(inputs, bad, refs), f"Min(P1) {value!r} not caught"
    bad = copy.deepcopy(result)
    bad.min_p1[0 if i else 1] = np.nan
    assert check(inputs, bad, refs), "NaN off the sampled points"
    bad = copy.deepcopy(result)
    bad.max_norm_deviation = float("nan")
    assert check(inputs, bad, refs), "NaN norm deviation not caught"


def _fig2_inputs():
    """fig2 on a 41-point grid; series and heatmaps keep their recipe."""
    inputs = wl._build_fig2()
    inputs.argv += ["--set", "grid_points=41"]
    inputs.config = dataclasses.replace(inputs.config, grid_points=41)
    return inputs


def _fig2_pass(inputs, corrupt=None):
    """One pass, its files corrupted by ``corrupt`` before they are read."""
    code = wl._run_fig2(inputs)
    if corrupt is not None:
        corrupt(inputs.out_dir)
    return wl._record_fig2(inputs, code)


def _edit_cell(path, row, edit):
    """Rewrite the last cell of data row ``row`` (header and comments skipped)."""
    lines = path.read_text(encoding="ascii").splitlines()
    data = [k for k, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[-1] = edit(cells[-1])
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _one_digit(cell):
    """The first decimal of a value in [0.1, 1) changed: one byte."""
    assert cell.startswith("0.") and cell[2] != "0" and "e" not in cell, cell
    return cell[:2] + str((int(cell[2]) + 5) % 10) + cell[3:]


def test_reproduce_checks():
    inputs = _fig2_inputs()
    check = wl._check_fig2
    shutil.rmtree(wl.WORK_DIR, ignore_errors=True)
    try:
        first = _fig2_pass(inputs)
        refs = wl._reference_fig2(inputs, first, np.random.default_rng(RNG_SEED))
        assert check(inputs, first, refs) == [], check(inputs, first, refs)
        series_name = refs["series"][0]
        i = next(iter(refs["points"]))
        per_point = 10 * 2000 // 50 + 1
        series = wl._load_csv(first["kept"] / series_name)[:, 1]
        row = int(np.flatnonzero((series > 0.1) & (series < 0.9))[0])

        def flip(out):
            target = out / "heatmap_numeric.csv"
            data = bytearray(target.read_bytes())
            data[len(data) // 2] ^= 0x01
            target.write_bytes(bytes(data))

        assert check(inputs, _fig2_pass(inputs, flip), refs), \
            "byte changed from the first pass not caught"

        # Output that is wrong in every pass: only the content checks see it.
        nan = lambda cell: "nan"  # noqa: E731
        corruptions = {
            "one byte of the series": (series_name, row, _one_digit),
            "NaN in the series": (series_name, len(series) - 1, nan),
            "NaN in a sampled heatmap row": ("heatmap_numeric.csv",
                                             i * per_point + 7, nan),
            "NaN in an unsampled heatmap row": (
                "heatmap_numeric.csv", (40 if i == 0 else 0) * per_point, nan),
            "NaN in the averaged heatmap": ("heatmap_analytic.csv", 1000, nan),
            "sampled Min(P1) moved by 1e-6":
                ("minp1.csv", i, lambda cell: repr(float(cell) + 1e-6)),
            "NaN Min(P1)": ("minp1.csv", 40 if i == 0 else 0, nan),
        }
        for label, (name, row_, edit) in corruptions.items():
            bad = _fig2_pass(
                inputs, lambda out: _edit_cell(out / name, row_, edit))
            bad_refs = dict(refs, digests=bad["digests"], checked={})
            assert check(inputs, bad, bad_refs), f"{label} not caught"
    finally:
        shutil.rmtree(wl.WORK_DIR, ignore_errors=True)

    from reference import min_p1_dips_at_zeros

    ratios = np.linspace(0.0, 6.0, 241)
    values = np.zeros_like(ratios)
    assert min_p1_dips_at_zeros(ratios, values)
    values[np.argmin(np.abs(ratios - 2.4))] = np.nan
    assert not min_p1_dips_at_zeros(ratios, values), "NaN dip not caught"


def test_self_times_add_up():
    """Layer self times of a traced pass sum to its wall time, up to the
    unattributed time (CLI parsing and the wrappers themselves)."""
    inputs = _fig2_inputs()
    tracer = spans.Tracer()
    try:
        started = time.perf_counter()
        with tracer, tracer.span("pass"):
            assert wl._run_fig2(inputs) == 0
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(wl.WORK_DIR, ignore_errors=True)
    (root,) = tracer.roots
    layers = sum(s.self_time() for s in spans.walk(root) if s is not root)
    by_name = spans.spans_by_name(tracer.roots)
    for name in ("experiments", "propagator.one_period_table",
                 "propagator.folded_min_population",
                 "propagator.folded_population_series", "csvio.write"):
        assert by_name.get(name), f"no {name} span"
    assert layers <= wall, (layers, wall)
    assert wall - layers <= 0.01 + 0.02 * wall, (layers, wall)
    metrics = spans.layer_metrics(tracer.roots, 1)
    assert metrics["propagator.one_period_table.calls"] == 3
    assert metrics["csvio.write.bytes"] > 0


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        started = time.perf_counter()
        try:
            fn()
            print(f"PASS {name} ({time.perf_counter() - started:.1f} s)")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
