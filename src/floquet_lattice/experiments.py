"""Parameter scans and canonical figure reproduction recipes.

A scan sweeps the rescaled right-boundary drive amplitude a2/omega over a
grid, records the localization figure of merit Min(P1) and/or the full
quasi-energy branch structure, places landmarks at the zeros of J_0 inside
the grid, and classifies the closest branch approaches near each landmark
as crossings or avoided crossings.

Canonical figure parameter sets live in bundled JSON config files so every
reproduction run is auditable. ``run_recipe`` runs a recipe's panels and
writes per-panel CSV data; ``reproduce`` and the CLI scan commands both go
through it. ``Run`` is the one owner of a run's output directory and of its
JSON manifest, which is sufficient to rerun it, for every CLI command.
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
    MAX_ZERO_INDEX at most; the scans warn when stop lies beyond)."""
    zeros = []
    for n in range(1, MAX_ZERO_INDEX + 1):
        z = j0_zero(n)
        if z > stop:
            break
        if z >= start:
            zeros.append(z)
    return zeros


def _landmarks(config: ScanConfig) -> tuple[list[float], list[str]]:
    """(J_0 zeros inside the grid, warnings): a grid that reaches past the
    last tabulated zero gets a warning, since zeros beyond it get no
    landmark."""
    zeros = landmark_zeros(config.grid_start, config.grid_stop)
    last_zero = j0_zero(MAX_ZERO_INDEX)
    if config.grid_stop <= last_zero:
        return zeros, []
    return zeros, [f"the grid reaches past {last_zero!r}, the last tabulated "
                   f"J0 zero; zeros beyond it get no landmark"]


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

    landmarks, warnings = _landmarks(config)
    return ScanResult(
        config=config,
        ratios=ratios,
        min_p1=out,
        landmarks=landmarks,
        warnings=warnings,
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
    landmarks, past_last_zero = _landmarks(config)
    ratios = _refined_ratios(config, landmarks) if classify else config.grid()
    spec = config.base_spec
    branch_set = track_branches(spec, ratios * spec.omega,
                                config.steps_per_period, workers=workers)

    result = ScanResult(
        config=config,
        ratios=ratios,
        branch_set=branch_set,
        landmarks=landmarks,
        warnings=branch_set.warnings + past_last_zero,
        max_norm_deviation=branch_set.max_norm_deviation,
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


def _series_outputs(series, config, output) -> None:
    """Per-showcase-amplitude population series panels."""
    ratios = np.asarray(series["a2_over_omega"], dtype=float)
    times, grid = _folded_series(config, ratios, int(series["periods"]),
                                 int(series["stride"]))
    for r, values in zip(ratios, grid):
        csvio.write_population_series(
            output(f"series_r{csvio.fmt(float(r))}.csv"), times, values,
            comment=f"a2_over_omega={csvio.fmt(float(r))}",
        )


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


def _heatmap_outputs(heat, config, output) -> None:
    """Numeric and averaged-model P1(t, a2) long-form heatmap data."""
    spec = config.base_spec
    ratios = config.grid()
    a2_values = ratios * spec.omega
    times, grid = _folded_series(config, ratios, int(heat["periods"]),
                                 int(heat["stride"]))
    csvio.write_heatmap(output("heatmap_numeric.csv"), times, a2_values, grid)

    ana = np.empty_like(grid)
    for i, a2 in enumerate(a2_values):
        ana[i] = analytic_p1(effective_params(spec.replace(a2=float(a2))),
                             times)
    csvio.write_heatmap(
        output("heatmap_analytic.csv"), times, a2_values, ana,
        comment="frame=rotating",
    )


class Run:
    """One run's output directory and manifest.json, for every command.

    Construction checks ``out_dir`` before any work: the nearest existing
    path at or above it must be a writable directory. ``file(name)`` creates
    the directory at the first file and records the name under ``outputs``.
    ``finish(results)`` writes ``head`` (all that is known before any work),
    the results, ``outputs``, ``tool_version`` and ``wall_time_s``. As a
    context manager, a run that fails after its first file leaves a manifest
    of ``head``, ``outputs`` and the ``error``, and the failure propagates.
    """

    def __init__(self, out_dir, head: dict):
        self.out_dir = Path(out_dir)
        probe = self.out_dir.absolute()
        while not probe.exists() and probe != probe.parent:
            probe = probe.parent
        if not (probe.is_dir() and os.access(probe, os.W_OK | os.X_OK)):
            raise ValidationError(f"output directory {str(out_dir)!r}: "
                                  f"{str(probe)!r} is not a writable directory")
        self.head = head
        self.outputs: list[str] = []
        self._started = time.perf_counter()

    def file(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, kind, error, traceback) -> None:
        if error is not None and self.outputs:
            try:
                self.finish({"error": str(error) or kind.__name__})
            except Exception:  # the run's own failure is the one to report
                pass

    def finish(self, results: dict) -> dict:
        """Write the manifest through manifest.json.tmp, renamed over it once
        complete and removed on failure; return what was written."""
        from . import __version__

        payload = {**self.head, **results, "outputs": self.outputs,
                   "tool_version": __version__,
                   "wall_time_s": time.perf_counter() - self._started}
        target = self.out_dir / "manifest.json"
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


def run_recipe(recipe: dict, config: ScanConfig, out_dir, workers: int,
               head: dict) -> dict:
    """Run a recipe's panels (``minp1_scan``, ``spectrum_scan``, ``series``,
    ``heatmap``, in that order) on ``config`` in one ``Run``; returns the
    manifest dict.

    Every input is checked before any work. Data files are byte-identical
    across reruns and worker counts. The manifest is ``head``, the
    ScanConfig and ``workers``, then the scans' landmarks, classifications,
    warnings (each once) and worst norm drift.
    """
    require_int("workers", workers, 1)
    if "heatmap" in recipe:
        _check_averaged_model(config)
    for panel in ("series", "heatmap"):
        if panel in recipe:
            check_stride(int(recipe[panel]["stride"]), config.steps_per_period)

    results: list[ScanResult] = []
    manifest = {}
    with Run(out_dir, {**head, **config.to_json_dict(),
                       "workers": workers}) as run:
        if recipe.get("minp1_scan"):
            result = scan_min_p1(config, workers=workers)
            csvio.write_min_p1_scan(run.file("minp1.csv"), result.ratios,
                                    result.min_p1)
            results.append(result)
            if config.base_spec.n_sites == 3 and config.base_spec.nu0 == 0.0:
                manifest["min_p1_oracle_gap"] = _min_curve_oracle_gap(config,
                                                                      result)
        if recipe.get("spectrum_scan"):
            result = scan_spectrum(config, workers=workers)
            csvio.write_spectrum(run.file("spectrum.csv"), result.ratios,
                                 result.branch_set.branches)
            results.append(result)
        if "series" in recipe:
            _series_outputs(recipe["series"], config, run.file)
        if "heatmap" in recipe:
            _heatmap_outputs(recipe["heatmap"], config, run.file)
        return run.finish({
            **manifest,
            "landmarks": results[0].landmarks if results else [],
            "classifications": [c for r in results for c in r.classifications],
            "warnings": list(dict.fromkeys(w for r in results
                                           for w in r.warnings)),
            "max_norm_deviation": max((r.max_norm_deviation for r in results),
                                      default=0.0),
        })


def reproduce(
    figure_id: str,
    out_dir,
    workers: int = 1,
    overrides: dict[str, str] | None = None,
) -> dict:
    """Run one canonical figure recipe (``run_recipe``); returns the
    manifest dict, headed by the figure id and the overrides."""
    overrides = overrides or {}
    recipe = figure_config(figure_id)
    config = _apply_overrides(ScanConfig.from_json_dict(recipe), overrides)
    return run_recipe(recipe, config, out_dir, workers,
                      {"figure": figure_id, "overrides": overrides})


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
