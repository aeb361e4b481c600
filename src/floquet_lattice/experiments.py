"""Parameter scans and canonical figure reproduction recipes.

A scan sweeps the rescaled right-boundary drive amplitude a2/omega over a
grid, records the localization figure of merit Min(P1) and/or the full
quasi-energy branch structure, places landmarks at the zeros of J_0 inside
the grid, and classifies the closest branch approaches near each landmark
as crossings or avoided crossings.

Canonical figure parameter sets live in bundled JSON config files so every
reproduction run is auditable; ``reproduce`` executes one of them and
writes per-panel CSV data plus a JSON manifest sufficient to rerun it.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import csvio
from .effective import analytic_p1, effective_params
from .errors import IntegrationFailure, NumericsError, ScanInterrupted, ValidationError
from .floquet import BranchSet, classify_closest_approach, track_branches
from .model import SystemSpec, apply_spec_overrides, require_int, require_site
from .propagator import (
    DEFAULT_STEPS_PER_PERIOD,
    MIN_STEPS_PER_PERIOD,
    basis_state,
    check_step_count,
    check_stride,
    folded_min_population,
    folded_population_series,
    map_chunks,
    one_period_table,
)
from .specfun import MAX_ZERO_INDEX, j0_zero

# Half-width (in a2/omega) of the grid windows refined around each J_0 zero.
# 0.2 rather than 0.1: at omega = 10 the four-site pair crossing sits ~0.13
# below the first zero (a finite-frequency shift), and the window must
# bracket it for classification.
REFINE_HALF_WINDOW = 0.2
REFINE_FACTOR = 10         # density boost inside refinement windows

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


@dataclass(frozen=True)
class ScanConfig:
    """One sweep of a2/omega against a fixed base system."""

    base_spec: SystemSpec
    grid_start: float = 0.0
    grid_stop: float = 6.0
    grid_points: int = 241
    horizon_periods: int = 200
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
    initial_site: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.grid_start) and math.isfinite(self.grid_stop)):
            raise ValidationError("grid bounds must be finite")
        if self.grid_stop <= self.grid_start:
            raise ValidationError("grid stop must exceed grid start")
        for name, minimum in (("grid_points", 2), ("horizon_periods", 1),
                              ("steps_per_period", MIN_STEPS_PER_PERIOD)):
            value = getattr(self, name)
            require_int(name, value, minimum)
            # numpy integers pass the check; stored as int they serialise
            object.__setattr__(self, name, int(value))
        check_step_count(self.horizon_periods * self.steps_per_period)
        require_site("initial_site", self.initial_site, self.base_spec.n_sites)
        object.__setattr__(self, "initial_site", int(self.initial_site))

    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.base_spec.to_json_dict(),
            "grid": {
                "start": self.grid_start,
                "stop": self.grid_stop,
                "points": self.grid_points,
            },
            "horizon_periods": self.horizon_periods,
            "steps_per_period": self.steps_per_period,
            "initial_site": self.initial_site,
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "ScanConfig":
        """Inverse of ``to_json_dict``; also reads a figure recipe, whose
        other keys it ignores."""
        grid = raw["grid"]
        return cls(
            base_spec=SystemSpec.from_json_dict(raw["spec"]),
            grid_start=float(grid["start"]),
            grid_stop=float(grid["stop"]),
            grid_points=int(grid["points"]),
            horizon_periods=int(raw["horizon_periods"]),
            steps_per_period=int(raw["steps_per_period"]),
            initial_site=int(raw["initial_site"]),
        )


@dataclass
class ScanResult:
    """Per-point scan records plus landmarks and crossing classifications."""

    config: ScanConfig
    ratios: np.ndarray
    min_p1: np.ndarray | None = None
    branch_set: BranchSet | None = None
    landmarks: list[float] = field(default_factory=list)
    classifications: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    max_norm_deviation: float = 0.0


def landmark_zeros(start: float, stop: float) -> list[float]:
    """Zeros of J_0 that fall inside [start, stop] (the first
    MAX_ZERO_INDEX at most; scan_spectrum warns when stop lies beyond)."""
    zeros = []
    for n in range(1, MAX_ZERO_INDEX + 1):
        z = j0_zero(n)
        if z > stop:
            break
        if z >= start:
            zeros.append(z)
    return zeros


def scan_min_p1(config: ScanConfig, workers: int = 1) -> ScanResult:
    """Min(P1) over the horizon at every grid point.

    The grid is split into ``workers`` chunks of consecutive points
    (``map_chunks``), each with one ``one_period_table``; the output is
    identical for any worker count. If a point fails its numerical quality
    gates, the raised ScanInterrupted carries the records of every point
    that completed.
    """
    ratios = config.grid()

    def run_chunk(idx):
        """(done, failure): the chunk's finished (point, Min(P1), drift)
        records, and the error that stopped it or None."""
        done: list[tuple[int, float, float]] = []
        try:
            table, initial = _scan_table(config, ratios[idx])
            for local, gi in enumerate(idx):
                m, dev = folded_min_population(
                    table, local, initial, config.horizon_periods
                )
                done.append((int(gi), m, dev))
        except (IntegrationFailure, NumericsError) as exc:
            return done, exc
        return done, None

    parts = map_chunks(run_chunk, ratios.size, workers)
    out = np.empty(ratios.size)
    completed: dict[int, float] = {}
    max_dev = 0.0
    failure = None
    for done, exc in parts:
        failure = failure or exc
        for gi, m, dev in done:
            out[gi] = completed[gi] = m
            max_dev = max(max_dev, dev)
    if failure is not None:
        raise ScanInterrupted(
            f"scan failed after {len(completed)} of {ratios.size} points: "
            f"{failure}",
            completed,
        ) from failure

    return ScanResult(
        config=config,
        ratios=ratios,
        min_p1=out,
        landmarks=landmark_zeros(config.grid_start, config.grid_stop),
        max_norm_deviation=max_dev,
    )


def _scan_table(config: ScanConfig, ratios: np.ndarray):
    """(one-period table at ``ratios``, initial amplitudes) of a scan: the
    scan starts in the basis state of its initial site and observes it."""
    spec = config.base_spec
    table = one_period_table(
        spec, ratios * spec.omega, config.steps_per_period,
        site=config.initial_site,
    )
    return table, basis_state(spec.n_sites, config.initial_site)


def _refined_ratios(config: ScanConfig, landmarks: list[float]) -> np.ndarray:
    """Scan grid with extra density inside a window around each landmark."""
    base = config.grid()
    spacing = (config.grid_stop - config.grid_start) / (config.grid_points - 1)
    fine = spacing / REFINE_FACTOR
    extras = [base]
    for z in landmarks:
        lo = max(config.grid_start, z - REFINE_HALF_WINDOW)
        hi = min(config.grid_stop, z + REFINE_HALF_WINDOW)
        npts = int(round((hi - lo) / fine)) + 1
        extras.append(np.linspace(lo, hi, npts))
    return np.union1d(base, np.concatenate(extras[1:])) if landmarks else base


def scan_spectrum(
    config: ScanConfig, workers: int = 1, classify: bool = True
) -> ScanResult:
    """Quasi-energy branches and mode populations across the grid.

    With ``classify`` the grid is densified inside +-REFINE_HALF_WINDOW
    (0.2) of every J_0 zero in range, and the closest branch approach near
    each zero is refined and labelled crossing/avoided.
    """
    landmarks = landmark_zeros(config.grid_start, config.grid_stop)
    ratios = _refined_ratios(config, landmarks) if classify else config.grid()
    spec = config.base_spec
    branch_set = track_branches(spec, ratios * spec.omega,
                                config.steps_per_period, workers=workers)

    result = ScanResult(
        config=config,
        ratios=ratios,
        branch_set=branch_set,
        landmarks=landmarks,
        warnings=list(branch_set.warnings),
    )
    last_zero = j0_zero(MAX_ZERO_INDEX)
    if config.grid_stop > last_zero:
        result.warnings.append(
            f"the grid reaches past {last_zero!r}, the last tabulated J0 "
            f"zero; zeros beyond it get no landmark"
        )
    if not classify:
        return result

    for z in landmarks:
        window = np.abs(ratios - z) <= REFINE_HALF_WINDOW + 1e-12
        points = np.count_nonzero(window)
        if points < 3:
            result.warnings.append(
                f"no classification near a2/omega={z!r}: its window holds "
                f"{points} grid points, fewer than 3"
            )
            continue
        try:
            closest = classify_closest_approach(branch_set, window)
        except ValidationError as exc:
            result.warnings.append(
                f"no classifiable close approach near a2/omega={z!r}: {exc}"
            )
            continue
        result.classifications.append(
            {
                "zero": z,
                "branches": list(closest.branches),
                "kind": closest.kind,
                "location": closest.location / spec.omega,
                "gap": closest.gap,
            }
        )
    return result


# ---------------------------------------------------------------------------
# Canonical figure recipes


def figure_config(figure_id: str) -> dict:
    """Load one bundled figure recipe (raw dict form)."""
    if figure_id not in FIGURE_IDS:
        raise ValidationError(
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
        )
    text = (
        resources.files("floquet_lattice") / "figures" / f"{figure_id}.json"
    ).read_text(encoding="ascii")
    return json.loads(text)


def _apply_overrides(config: ScanConfig, overrides: dict[str, str]):
    """``config`` with key=value overrides applied: spec fields, then
    ScanConfig's own fields, parsed as their annotated types."""
    spec, rest = apply_spec_overrides(config.base_spec, overrides)
    kinds = get_type_hints(ScanConfig)
    changes = {}
    for key, value in rest.items():
        if key == "base_spec" or key not in kinds:
            raise ValidationError(f"unknown override key {key!r}")
        try:
            changes[key] = kinds[key](value)
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {value!r}") from exc
    return replace(config, base_spec=spec, **changes)


def figure_scan_config(figure_id: str) -> ScanConfig:
    """Scan configuration of one bundled figure recipe."""
    return ScanConfig.from_json_dict(figure_config(figure_id))


def _folded_series(config, ratios, periods: int, stride: int):
    """(times, populations) of the observed site at every ratio: one table,
    then one folded series per grid point, (ratios, samples)."""
    table, initial = _scan_table(config, ratios)
    folds = [folded_population_series(table, i, initial, periods, stride=stride)
             for i in range(ratios.size)]
    return folds[0][0], np.array([values for _, values in folds])


def _series_outputs(raw, config, out_dir) -> list[str]:
    """Per-showcase-amplitude population series panels."""
    series = raw["series"]
    ratios = np.asarray(series["a2_over_omega"], dtype=float)
    times, grid = _folded_series(config, ratios, int(series["periods"]),
                                 int(series["stride"]))
    names = []
    for r, values in zip(ratios, grid):
        name = f"series_r{csvio.fmt(float(r))}.csv"
        csvio.write_population_series(
            out_dir / name, times, values,
            comment=f"a2_over_omega={csvio.fmt(float(r))}",
        )
        names.append(name)
    return names


def _check_averaged_model(config: ScanConfig) -> None:
    """Raise unless the averaged model covers every grid point of the scan
    from its initial site (n_sites = 3, start at site 1): a heatmap recipe
    checks this before any numerical work."""
    if config.initial_site != 1:
        raise ValidationError("the averaged model's P1 starts at site 1; "
                              f"initial_site is {config.initial_site}")
    spec = config.base_spec
    for a2 in config.grid() * spec.omega:
        effective_params(spec.replace(a2=float(a2)))


def _heatmap_outputs(raw, config, out_dir) -> list[str]:
    """Numeric and averaged-model P1(t, a2) long-form heatmap data."""
    heat = raw["heatmap"]
    spec = config.base_spec
    ratios = config.grid()
    a2_values = ratios * spec.omega
    times, grid = _folded_series(config, ratios, int(heat["periods"]),
                                 int(heat["stride"]))
    csvio.write_heatmap(out_dir / "heatmap_numeric.csv", times, a2_values, grid)

    ana = np.empty_like(grid)
    for i, a2 in enumerate(a2_values):
        ana[i] = analytic_p1(effective_params(spec.replace(a2=float(a2))),
                             times)
    csvio.write_heatmap(
        out_dir / "heatmap_analytic.csv", times, a2_values, ana,
        comment="frame=rotating",
    )
    return ["heatmap_numeric.csv", "heatmap_analytic.csv"]


def reproduce(
    figure_id: str,
    out_dir,
    workers: int = 1,
    overrides: dict[str, str] | None = None,
) -> dict:
    """Run one canonical figure recipe; returns the manifest dict.

    Writes per-panel CSV files and manifest.json into ``out_dir``. Data
    files are byte-identical across reruns and worker counts; wall time and
    worker count are recorded in the manifest only.
    """
    overrides = overrides or {}
    raw = figure_config(figure_id)
    config = _apply_overrides(ScanConfig.from_json_dict(raw), overrides)
    require_int("workers", workers, 1)
    if "heatmap" in raw:
        _check_averaged_model(config)
    for panel in ("series", "heatmap"):
        if panel in raw:
            check_stride(int(raw[panel]["stride"]), config.steps_per_period)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    outputs: list[str] = []
    result_min = None
    result_spec = None

    min_curve_gap = None
    if raw.get("minp1_scan"):
        result_min = scan_min_p1(config, workers=workers)
        csvio.write_min_p1_scan(
            out_dir / "minp1.csv", result_min.ratios, result_min.min_p1
        )
        outputs.append("minp1.csv")
        if config.base_spec.n_sites == 3 and config.base_spec.nu0 == 0.0:
            min_curve_gap = _min_curve_oracle_gap(config, result_min)
    if raw.get("spectrum_scan"):
        result_spec = scan_spectrum(config, workers=workers)
        csvio.write_spectrum(
            out_dir / "spectrum.csv", result_spec.ratios,
            result_spec.branch_set.branches,
        )
        outputs.append("spectrum.csv")
    if "series" in raw:
        outputs.extend(_series_outputs(raw, config, out_dir))
    if "heatmap" in raw:
        outputs.extend(_heatmap_outputs(raw, config, out_dir))

    landmarks = landmark_zeros(config.grid_start, config.grid_stop)
    manifest = {
        "figure": figure_id,
        **config.to_json_dict(),
        "workers": workers,
        "overrides": overrides,
        "landmarks": landmarks,
        "classifications": (
            result_spec.classifications if result_spec is not None else []
        ),
        "warnings": (
            list(result_spec.warnings) if result_spec is not None else []
        ),
        "max_norm_deviation": (
            result_min.max_norm_deviation if result_min is not None else 0.0
        ),
        "outputs": outputs,
    }
    if min_curve_gap is not None:
        manifest["min_p1_oracle_gap"] = min_curve_gap
    return write_manifest(out_dir, manifest, started)


def write_manifest(out_dir, payload: dict, started: float) -> dict:
    """Write ``payload`` as out_dir/manifest.json and return what was written.

    The tool version and the wall time since ``started`` (a
    ``time.perf_counter()`` reading) are added to it. The JSON goes to
    manifest.json.tmp, which is renamed over manifest.json once complete and
    removed on failure, so a payload that fails to serialise or an
    interrupted write leaves no truncated manifest behind.
    """
    from . import __version__

    payload = {**payload, "tool_version": __version__,
               "wall_time_s": time.perf_counter() - started}
    target = Path(out_dir) / "manifest.json"
    partial = target.with_name("manifest.json.tmp")
    try:
        with open(partial, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return payload


def _min_curve_oracle_gap(config: ScanConfig, result: ScanResult) -> float:
    """Pointwise gap between the scanned Min(P1) and the averaged-model floor.

    The floor of the averaged three-site model from a site-1 start is
    ((J02^2 - J01^2) / (J01^2 + J02^2))^2 when |J02| >= |J01|, else 0.
    """
    from .specfun import bessel_j

    spec = config.base_spec
    j01 = bessel_j(0, spec.a1 / spec.omega)
    worst = 0.0
    for ratio, numeric in zip(result.ratios, result.min_p1):
        j02 = bessel_j(0, float(ratio))
        s = j01 * j01 + j02 * j02
        floor = ((j02**2 - j01**2) / s) ** 2 if j02**2 >= j01**2 else 0.0
        worst = max(worst, abs(float(numeric) - floor))
    return worst
