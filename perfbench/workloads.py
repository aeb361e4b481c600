"""The benchmark's workloads: inputs, one pass, and the checks of a pass.

Each workload aims at one layer of the ``a2/omega`` scan pipeline:

* ``minp1-fold``: ``scan_min_p1`` on the fig4 recipe (N = 4, 241 points,
  2000-period horizon). Fold-bound; runs ``nproc`` workers with BLAS held
  to one thread, so a parallel or batched fold can show.
* ``spectrum-probes``: ``scan_spectrum`` with classification on the fig6
  recipe (N = 4, nu0 = 0.2, 563 refined points). Dominated by the serial
  golden-section gap probes, each a single-spec ``monodromy``.
* ``branches-n8``: ``scan_spectrum(classify=False)`` on an 8-site chain
  over 61 points of 0..6. Dominated by the n! branch matching.
* ``reproduce-fig2``: ``reproduce fig2`` through the CLI entry point. The
  only workload that writes CSV files and a manifest.

The seed picks only which grid points (and, for fig2, which series file)
the checks sample, never the work.
This module imports nothing heavier than the package, so the set-up probe
that imports it times the package's own import cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from floquet_lattice import cli, experiments
from floquet_lattice.experiments import ScanConfig

SAMPLED_POINTS = 3
WORK_DIR = Path(__file__).resolve().parent / ".work"
KEPT_DIR = WORK_DIR / "kept"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Workload:
    """``build`` is the set-up; ``run`` is the timed pass; ``record`` keeps
    what the checks need of its output; ``reference`` builds the seeded
    references from the first record; ``check`` lists a record's failures."""

    name: str
    build: Callable[[], Any]
    run: Callable[[Any], Any]
    record: Callable[[Any, Any], Any]
    points: Callable[[Any], int]
    reference: Callable[[Any, Any, np.random.Generator], Any]
    check: Callable[[Any, Any, Any], list]


def _sample(rng: np.random.Generator, size: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(size, SAMPLED_POINTS, replace=False))


def _keep(inputs, output):
    return output


# ---------------------------------------------------------------------------
# minp1-fold


@dataclass
class ScanInputs:
    config: ScanConfig
    workers: int = 1
    classify: bool = True


def _build_minp1() -> ScanInputs:
    return ScanInputs(experiments.figure_scan_config("fig4"), workers=nproc())


def _run_minp1(inputs: ScanInputs):
    return experiments.scan_min_p1(inputs.config, workers=inputs.workers)


def _reference_minp1(inputs: ScanInputs, first, rng):
    import reference

    cfg = inputs.config
    refs = {}
    for i in _sample(rng, first.ratios.size):
        spec = cfg.base_spec.replace(a2=float(first.ratios[i] * cfg.base_spec.omega))
        op = reference.OperatorReference(spec, cfg.steps_per_period,
                                         site=cfg.initial_site)
        refs[i] = reference.MinP1Reference(op, cfg.initial_site,
                                           cfg.horizon_periods)
    return refs


def _check_minp1(inputs: ScanInputs, result, refs) -> list[str]:
    import reference

    failures = []
    if not reference.in_range(result.min_p1, 0.0, 1.0):
        failures.append("Min(P1) outside [0, 1]")
    if not reference.within(result.max_norm_deviation,
                            reference.NORM_FAILURE_BOUND):
        failures.append(f"norm deviation {result.max_norm_deviation!r} "
                        "beyond the norm gate")
    for i, ref in refs.items():
        if not ref.anchor_ok:
            failures.append(f"reference RK4 off the DOP853 operator at point {i}")
        if not reference.within(result.min_p1[i] - ref.value, ref.bound):
            failures.append(f"Min(P1)[{i}] = {result.min_p1[i]!r}, eigen-power "
                            f"reference {ref.value!r} (bound {ref.bound:.1e})")
    return failures


# ---------------------------------------------------------------------------
# spectrum-probes and branches-n8


def _build_fig6() -> ScanInputs:
    return ScanInputs(experiments.figure_scan_config("fig6"))


def _build_n8() -> ScanInputs:
    base = experiments.figure_scan_config("fig4").base_spec
    config = ScanConfig(base_spec=base.replace(n_sites=8), grid_points=61)
    return ScanInputs(config, classify=False)


def _run_spectrum(inputs: ScanInputs):
    return experiments.scan_spectrum(inputs.config, workers=inputs.workers,
                                     classify=inputs.classify)


def _point_spec(inputs: ScanInputs, a2: float):
    return inputs.config.base_spec.replace(a2=float(a2))


def _reference_spectrum(inputs: ScanInputs, first, rng):
    import reference

    steps = inputs.config.steps_per_period
    params = first.branch_set.param_values
    points = {i: reference.OperatorReference(_point_spec(inputs, params[i]), steps)
              for i in _sample(rng, params.size)}
    omega = inputs.config.base_spec.omega
    locations = {
        c["location"]: reference.OperatorReference(
            _point_spec(inputs, c["location"] * omega), steps)
        for c in first.classifications
    }
    return points, locations


def _branch_arrays(result):
    branches = result.branch_set.branches
    eps = np.stack([b.quasienergies for b in branches], axis=1)
    vecs = np.stack([b.vectors for b in branches], axis=1)
    pops = np.stack([b.avg_populations for b in branches], axis=1)
    return eps, vecs, pops


def _check_spectrum(inputs: ScanInputs, result, refs) -> list[str]:
    import reference

    points, locations = refs
    omega = inputs.config.base_spec.omega
    eps, vecs, pops = _branch_arrays(result)
    failures = []
    if not reference.in_range(eps, -0.5 * omega, 0.5 * omega, open_lo=True):
        failures.append("quasi-energy outside (-omega/2, omega/2]")
    if not reference.population_sums_ok(pops):
        failures.append("mode populations do not sum to 1 within the norm gate")
    for i, ref in points.items():
        if not ref.anchor_ok:
            failures.append(f"reference RK4 off the DOP853 operator at point {i}")
        if not reference.quasienergies_match(eps[i], ref):
            failures.append(f"quasi-energies at point {i} off the reference "
                            f"(bound {ref.quasienergy_bound():.1e})")
    for i in range(1, eps.shape[0]):
        if not reference.matching_is_optimal(vecs[i - 1], vecs[i]):
            failures.append(f"branch matching short of the optimum at step {i}")
    if inputs.classify:
        failures += _check_classifications(inputs, result, eps, vecs, locations)
    return failures


def _check_classifications(inputs, result, eps, vecs, locations) -> list[str]:
    """Refined gaps: inside the bracketing cell, below every grid gap of the
    window, and equal to the reference gap at the reported location."""
    import reference

    omega = inputs.config.base_spec.omega
    ratios = result.ratios
    failures = []
    if len(result.classifications) != len(result.landmarks):
        failures.append(f"{len(result.classifications)} classifications for "
                        f"{len(result.landmarks)} landmarks")
    for c in result.classifications:
        a, b = c["branches"]
        window = np.flatnonzero(
            np.abs(ratios - c["zero"]) <= experiments.REFINE_HALF_WINDOW + 1e-12)
        g = reference.circular_distance(eps[window, a], eps[window, b], omega)
        interior = [k for k in range(1, g.size - 1)
                    if g[k] <= g[k - 1] and g[k] <= g[k + 1]]
        if not interior:
            failures.append(f"no interior gap minimum near {c['zero']}")
            continue
        best = min(interior, key=lambda k: (g[k], k))
        lo, hi = ratios[window[best - 1]], ratios[window[best + 1]]
        if not (lo <= c["location"] <= hi):
            failures.append(f"refined location {c['location']!r} outside "
                            f"the bracketing cell [{lo!r}, {hi!r}]")
        if not (c["gap"] <= np.min(g)):
            failures.append(f"refined gap {c['gap']!r} above the smallest "
                            f"grid gap {np.min(g)!r} of its window")
        ref = locations.get(c["location"])
        if ref is None:
            failures.append(f"no reference at location {c['location']!r}")
            continue
        anchor = window[best]
        gap = reference.reference_gap(ref, vecs[anchor, a], vecs[anchor, b])
        if not reference.within(c["gap"] - gap, 2.0 * ref.quasienergy_bound()):
            failures.append(f"refined gap {c['gap']!r} against reference "
                            f"{gap!r} at {c['location']!r}")
    return failures


# ---------------------------------------------------------------------------
# reproduce-fig2


@dataclass
class ReproduceInputs:
    argv: list
    out_dir: Path
    config: ScanConfig
    recipe: dict


def _build_fig2() -> ReproduceInputs:
    out_dir = WORK_DIR / "reproduce-fig2"
    return ReproduceInputs(
        argv=["reproduce", "fig2", "--out", str(out_dir), "--workers", "1"],
        out_dir=out_dir,
        config=experiments.figure_scan_config("fig2"),
        recipe=experiments.figure_config("fig2"),
    )


def _run_fig2(inputs: ReproduceInputs) -> int:
    return cli.main(inputs.argv)


def _record_fig2(inputs: ReproduceInputs, exit_code: int) -> dict:
    """Digests of one pass's files, read without loading them whole.

    The first directory with a given content is kept under KEPT_DIR for
    the content checks, which run after the run's peak memory is taken;
    every other directory is removed.
    """
    out = inputs.out_dir
    try:
        files = sorted(p.name for p in out.iterdir())
        data = [f for f in files if f != "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="ascii"))
        digests = {}
        for f in data:
            with open(out / f, "rb") as fh:
                digests[f] = hashlib.file_digest(fh, "sha256").hexdigest()
        with open(out / "minp1.csv", "rb") as fh:
            points = sum(1 for _ in fh) - 1
        key = hashlib.sha256(json.dumps(digests, sort_keys=True).encode())
        kept = KEPT_DIR / key.hexdigest()
        if not kept.exists():
            KEPT_DIR.mkdir(parents=True, exist_ok=True)
            out.rename(kept)
        return {
            "exit_code": exit_code,
            "digests": digests,
            "manifest_complete": sorted(manifest["outputs"]) == data,
            "points": points,
            "kept": kept,
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _reference_fig2(inputs: ReproduceInputs, first, rng) -> dict:
    """The first pass's digests, plus eigen-power references at seeded grid
    points (Min(P1) and heatmap rows) and for one seeded series file."""
    import reference

    cfg, recipe = inputs.config, inputs.recipe
    spec = cfg.base_spec

    def at(ratio):
        op = reference.OperatorReference(
            spec.replace(a2=float(ratio * spec.omega)), cfg.steps_per_period,
            site=cfg.initial_site)
        return reference.MinP1Reference(op, cfg.initial_site,
                                        cfg.horizon_periods)

    ratios = np.linspace(cfg.grid_start, cfg.grid_stop, cfg.grid_points)
    series = recipe["series"]["a2_over_omega"]
    chosen = float(series[int(rng.integers(len(series)))])
    return {
        "digests": first["digests"],
        "points": {i: at(ratios[i]) for i in _sample(rng, ratios.size)},
        "series": (f"series_r{chosen!r}.csv", at(chosen)),
        "checked": {},
    }


def _load_csv(path: Path) -> np.ndarray:
    """Data rows of a package CSV: comment lines and the header dropped."""
    with open(path, encoding="ascii") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _content_failures(inputs: ReproduceInputs, out: Path, refs) -> list[str]:
    """Checks of one written directory against the method and references."""
    import reference

    cfg, recipe = inputs.config, inputs.recipe
    spec = cfg.base_spec
    heat, series = recipe["heatmap"], recipe["series"]
    name, series_ref = refs["series"]
    try:
        minp1 = _load_csv(out / "minp1.csv")
        numeric = _load_csv(out / "heatmap_numeric.csv")
        analytic = _load_csv(out / "heatmap_analytic.csv")
        series_rows = _load_csv(out / name)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    failures = []
    top = 1.0 + reference.NORM_FAILURE_BOUND
    for label, values in (("minp1.csv", minp1[:, -1]),
                          ("heatmap_numeric.csv", numeric[:, -1]),
                          (name, series_rows[:, -1])):
        if not reference.in_range(values, 0.0, top):
            failures.append(f"{label}: a population outside [0, 1]")
    if not reference.heatmap_matches_closed_form(analytic, spec):
        failures.append("heatmap_analytic.csv off the closed form")
    if minp1.shape != (cfg.grid_points, 2):
        return failures + [f"minp1.csv holds {minp1.shape} values"]
    if not reference.min_p1_dips_at_zeros(minp1[:, 0], minp1[:, 1]):
        failures.append("Min(P1) not below 0.05 within one cell of z1 and z2")
    per_point = heat["periods"] * cfg.steps_per_period // heat["stride"] + 1
    if numeric.shape != (cfg.grid_points * per_point, 3):
        return failures + [f"heatmap_numeric.csv holds {numeric.shape} values"]
    for i, ref in refs["points"].items():
        if not ref.anchor_ok:
            failures.append(f"reference RK4 off the DOP853 operator at point {i}")
        if not reference.within(minp1[i, 1] - ref.value, ref.bound):
            failures.append(f"Min(P1)[{i}] = {minp1[i, 1]!r}, eigen-power "
                            f"reference {ref.value!r} (bound {ref.bound:.1e})")
        rows = numeric[i * per_point:(i + 1) * per_point]
        if not reference.series_matches(rows, ref.powers, heat["periods"],
                                        heat["stride"], a2=ref.powers.op.spec.a2):
            failures.append(f"heatmap_numeric.csv rows of point {i} off the "
                            "eigen-power reference")
    if not reference.series_matches(series_rows, series_ref.powers,
                                    series["periods"], series["stride"]):
        failures.append(f"{name} off the eigen-power reference")
    return failures


def _check_fig2(inputs, record, refs) -> list[str]:
    failures = []
    if record["exit_code"] != 0:
        failures.append(f"reproduce exited {record['exit_code']}")
    if record["digests"] != refs["digests"]:
        changed = sorted(set(record["digests"].items())
                         ^ set(refs["digests"].items()))
        failures.append(f"data files differ from the first pass: {changed}")
    if not record["manifest_complete"]:
        failures.append("manifest outputs do not list every data file")
    kept = record["kept"]
    if kept not in refs["checked"]:
        refs["checked"][kept] = _content_failures(inputs, kept, refs)
    return failures + refs["checked"][kept]


def _scan_points(result) -> int:
    return int(result.ratios.size)


WORKLOADS = {
    w.name: w for w in (
        Workload("minp1-fold", _build_minp1, _run_minp1, _keep, _scan_points,
                 _reference_minp1, _check_minp1),
        Workload("spectrum-probes", _build_fig6, _run_spectrum, _keep,
                 _scan_points, _reference_spectrum, _check_spectrum),
        Workload("branches-n8", _build_n8, _run_spectrum, _keep, _scan_points,
                 _reference_spectrum, _check_spectrum),
        Workload("reproduce-fig2", _build_fig2, _run_fig2, _record_fig2,
                 lambda record: record["points"], _reference_fig2, _check_fig2),
    )
}
