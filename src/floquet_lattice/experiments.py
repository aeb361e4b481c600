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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import csvio
from .effective import analytic_p1, effective_params
from .errors import IntegrationFailure, NumericsError, ScanInterrupted, ValidationError
from .floquet import (
    BranchSet,
    _circular_gap,
    classify_closest_approach,
    track_branches,
)
from .model import SystemSpec, override_spec_fields, require_int, spec_from_json
from .propagator import (
    DEFAULT_STEPS_PER_PERIOD,
    MIN_STEPS_PER_PERIOD,
    basis_state,
    folded_min_population,
    folded_population_series,
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
        require_int("grid_points", self.grid_points, 2)
        require_int("horizon_periods", self.horizon_periods, 1)
        require_int("steps_per_period", self.steps_per_period,
                    MIN_STEPS_PER_PERIOD)
        require_int("initial_site", self.initial_site, 1)
        if self.initial_site > self.base_spec.n_sites:
            raise ValidationError("initial_site out of range")

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
            "scan_parameter": "a2",
        }


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
    """Zeros of J_0 that fall inside [start, stop] (first five at most)."""
    zeros = []
    for n in range(1, MAX_ZERO_INDEX + 1):
        z = j0_zero(n)
        if z > stop:
            break
        if z >= start:
            zeros.append(z)
    return zeros


def _pool_chunks(n_items: int, workers: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n_items), max(1, min(workers, n_items)))


class _ChunkFailure(Exception):
    """Internal: one grid point failed; carries the chunk's finished points."""

    def __init__(self, done: list, cause: Exception):
        super().__init__(str(cause))
        self.done = done
        self.cause = cause


def scan_min_p1(config: ScanConfig, workers: int = 1) -> ScanResult:
    """Min(P1) over the horizon at every grid point.

    Grid points are independent work units; the output is identical for any
    worker count. If a point fails its numerical quality gates, the raised
    ScanInterrupted carries the records of every point that completed.
    """
    ratios = config.grid()
    spec = config.base_spec
    initial = basis_state(spec.n_sites, config.initial_site).amplitudes
    site = config.initial_site

    def run_chunk(idx):
        done: list[tuple[int, float, float]] = []
        try:
            table = one_period_table(
                spec, ratios[idx] * spec.omega, config.steps_per_period,
                site=site,
            )
            for local, gi in enumerate(idx):
                m, dev = folded_min_population(
                    table, local, initial, config.horizon_periods
                )
                done.append((int(gi), m, dev))
        except (IntegrationFailure, NumericsError) as exc:
            raise _ChunkFailure(done, exc) from exc
        return done

    chunks = _pool_chunks(ratios.size, workers)
    completed: dict[int, float] = {}
    parts = []
    failure: Exception | None = None
    if len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(run_chunk, c) for c in chunks]
            for fut in futures:
                try:
                    parts.append(fut.result())
                except _ChunkFailure as exc:
                    parts.append(exc.done)
                    failure = failure or exc.cause
    else:
        try:
            parts.append(run_chunk(chunks[0]))
        except _ChunkFailure as exc:
            parts.append(exc.done)
            failure = exc.cause

    out = np.empty(ratios.size)
    max_dev = 0.0
    for part in parts:
        for gi, m, dev in part:
            out[gi] = m
            completed[gi] = m
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
    specs = [spec.replace(a2=float(r * spec.omega)) for r in ratios]
    branch_set = track_branches(specs, config.steps_per_period, workers=workers)

    result = ScanResult(
        config=config,
        ratios=ratios,
        branch_set=branch_set,
        landmarks=landmarks,
        warnings=list(branch_set.warnings),
    )
    if not classify:
        return result

    for z in landmarks:
        try:
            approach = _classify_near(branch_set, z, spec.omega)
        except ValidationError as exc:
            result.warnings.append(
                f"no classifiable close approach near a2/omega={z!r}: {exc}"
            )
            continue
        if approach is None:
            continue
        pair, closest = approach
        result.classifications.append(
            {
                "zero": z,
                "branches": list(pair),
                "kind": closest.kind,
                "location": closest.location / spec.omega,
                "gap": closest.gap,
            }
        )
    return result


def _classify_near(branch_set: BranchSet, zero: float, omega: float):
    """Classify the minimal-gap branch pair inside the window around a zero."""
    ratios = branch_set.param_values / omega
    mask = np.abs(ratios - zero) <= REFINE_HALF_WINDOW + 1e-12
    if int(mask.sum()) < 3:
        return None
    branches = branch_set.branches
    best_pair, best_gap = None, math.inf
    for a in range(len(branches)):
        for b in range(a + 1, len(branches)):
            gap = np.min(_circular_gap(branches[a].quasienergies[mask],
                                       branches[b].quasienergies[mask], omega))
            if gap < best_gap:
                best_gap, best_pair = gap, (a, b)
    a, b = best_pair
    closest = classify_closest_approach(
        branches[a].window(mask), branches[b].window(mask)
    )
    return best_pair, closest


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


# Recipe keys an override may set: key -> (section or None, field, type).
_RECIPE_FIELDS = {
    "horizon_periods": (None, "horizon_periods", int),
    "steps_per_period": (None, "steps_per_period", int),
    "initial_site": (None, "initial_site", int),
    "grid_start": ("grid", "start", float),
    "grid_stop": ("grid", "stop", float),
    "grid_points": ("grid", "points", int),
}


def _apply_overrides(raw: dict, overrides: dict[str, str]) -> dict:
    """Apply key=value overrides to a figure recipe, after file load."""
    raw = json.loads(json.dumps(raw))  # deep copy
    for key, value in override_spec_fields(raw["spec"], overrides).items():
        if key not in _RECIPE_FIELDS:
            raise ValidationError(f"unknown override key {key!r}")
        section, name, kind = _RECIPE_FIELDS[key]
        try:
            (raw[section] if section else raw)[name] = kind(value)
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {value!r}") from exc
    return raw


def figure_scan_config(figure_id: str) -> ScanConfig:
    """Scan configuration of one bundled figure recipe."""
    return _config_from_raw(figure_config(figure_id))


def _config_from_raw(raw: dict) -> ScanConfig:
    spec = spec_from_json(json.dumps(raw["spec"]))
    return ScanConfig(
        base_spec=spec,
        grid_start=float(raw["grid"]["start"]),
        grid_stop=float(raw["grid"]["stop"]),
        grid_points=int(raw["grid"]["points"]),
        horizon_periods=int(raw["horizon_periods"]),
        steps_per_period=int(raw["steps_per_period"]),
        initial_site=int(raw.get("initial_site", 1)),
    )


def _series_outputs(raw, config, out_dir) -> list[str]:
    """Per-showcase-amplitude population series panels."""
    series = raw["series"]
    spec = config.base_spec
    ratios = np.asarray(series["a2_over_omega"], dtype=float)
    periods = int(series["periods"])
    stride = int(series["stride"])
    initial = basis_state(spec.n_sites, config.initial_site).amplitudes
    table = one_period_table(
        spec, ratios * spec.omega, config.steps_per_period,
        site=config.initial_site,
    )
    names = []
    for i, r in enumerate(ratios):
        times, values = folded_population_series(
            table, i, initial, periods, stride=stride
        )
        name = f"series_r{csvio.fmt(float(r))}.csv"
        csvio.write_population_series(
            out_dir / name, times, values,
            comment=f"a2_over_omega={csvio.fmt(float(r))}",
        )
        names.append(name)
    return names


def _heatmap_outputs(raw, config, out_dir) -> list[str]:
    """Numeric and averaged-model P1(t, a2) long-form heatmap data."""
    heat = raw["heatmap"]
    spec = config.base_spec
    periods = int(heat["periods"])
    stride = int(heat["stride"])
    ratios = config.grid()
    a2_values = ratios * spec.omega
    initial = basis_state(spec.n_sites, config.initial_site).amplitudes
    table = one_period_table(
        spec, a2_values, config.steps_per_period, site=config.initial_site
    )
    times = None
    grid = None
    for i in range(ratios.size):
        t, v = folded_population_series(table, i, initial, periods, stride=stride)
        if grid is None:
            times = t
            grid = np.empty((ratios.size, t.size))
        grid[i] = v
    csvio.write_heatmap(out_dir / "heatmap_numeric.csv", times, a2_values, grid)

    ana = np.empty_like(grid)
    for i, a2 in enumerate(a2_values):
        params = effective_params(
            spec.replace(a2=float(a2)),
            basis_state(spec.n_sites, config.initial_site),
        )
        ana[i] = analytic_p1(params, times)
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
    raw = _apply_overrides(figure_config(figure_id), overrides)
    config = _config_from_raw(raw)
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
        "spec": config.base_spec.to_json_dict(),
        "grid": {
            "start": config.grid_start,
            "stop": config.grid_stop,
            "points": config.grid_points,
        },
        "horizon_periods": config.horizon_periods,
        "steps_per_period": config.steps_per_period,
        "initial_site": config.initial_site,
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
    ``time.perf_counter()`` reading) are added to it.
    """
    from . import __version__

    payload = {**payload, "tool_version": __version__,
               "wall_time_s": time.perf_counter() - started}
    with open(Path(out_dir) / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
