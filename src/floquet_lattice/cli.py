"""Command-line interface.

Subcommands: propagate, floquet, scan-minp1, scan-spectrum, reproduce,
bessel. Configs are JSON (system spec fields), data files are CSV, and
every numerical run writes a manifest.json sufficient to reproduce it.
Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__, csvio
from .errors import (
    IntegrationFailure,
    NumericsError,
    ScanInterrupted,
    ValidationError,
)
from .experiments import (
    ScanConfig,
    reproduce,
    scan_min_p1,
    scan_spectrum,
    write_manifest,
)
from .floquet import floquet_modes, monodromy
from .model import SystemSpec, apply_spec_overrides, spec_from_json
from .propagator import basis_state, propagate


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on stderr and exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, scan: bool = False) -> None:
    p.add_argument("--config", type=Path, help="system spec JSON file")
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory (default: out)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a spec field")
    p.add_argument("--steps-per-period", type=int, default=2000)
    if scan:
        p.add_argument("--grid", default="0:6:241", metavar="START:STOP:POINTS",
                       help="a2/omega grid (default: 0:6:241)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker count (default: usable CPUs)")


def _add_horizon(p: argparse.ArgumentParser) -> None:
    """Options of the commands that evolve one initial basis state."""
    p.add_argument("--periods", type=int, default=200,
                   help="evolution horizon in drive periods")
    p.add_argument("--initial-site", type=int, default=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="floquet-lattice")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", parents=[], help="integrate one trajectory")
    _add_common(p)
    _add_horizon(p)
    p.add_argument("--stride", type=int, default=1,
                   help="store every stride-th sample")

    p = sub.add_parser("floquet", help="one-period operator mode analysis")
    _add_common(p)
    p.add_argument("--dump-monodromy", action="store_true",
                   help="also write the one-period operator as CSV")

    p = sub.add_parser("scan-minp1", help="Min(P1) versus a2/omega")
    _add_common(p, scan=True)
    _add_horizon(p)

    p = sub.add_parser("scan-spectrum", help="quasi-energy branches versus a2/omega")
    _add_common(p, scan=True)

    p = sub.add_parser("reproduce", help="run a canonical figure recipe")
    p.add_argument("figure", help="fig2 .. fig8")
    p.add_argument("--out", type=Path, default=Path("out"))
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a recipe field")
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("bessel", help="J_k values and J_0 zeros")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--zero", type=int, default=None,
                   help="print the n-th positive zero of J_0")

    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValidationError(f"--set expects KEY=VALUE, got {pair!r}")
        out[key] = value
    return out


def _load_spec(args) -> SystemSpec:
    if args.config is None:
        raise ValidationError("--config is required for this command")
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    spec, unknown = apply_spec_overrides(spec_from_json(text),
                                         _parse_overrides(args.overrides))
    if unknown:
        raise ValidationError(f"unknown spec field {next(iter(unknown))!r}")
    return spec


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects START:STOP:POINTS, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad --grid value: {exc}") from exc


def _workers(args) -> int:
    """--workers, else the number of CPUs this process may run on; a value
    below 1 is a validation error."""
    if args.workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")
    return args.workers


def _cmd_propagate(args) -> int:
    spec = _load_spec(args)
    started = time.perf_counter()
    traj = propagate(
        spec,
        basis_state(spec.n_sites, args.initial_site),
        t_final=args.periods * spec.period,
        steps_per_period=args.steps_per_period,
        stride=args.stride,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    csvio.write_trajectory(args.out / "trajectory.csv", traj.times,
                           traj.amplitudes)
    write_manifest(args.out, {
        "command": "propagate",
        "spec": spec.to_json_dict(),
        "initial_site": args.initial_site,
        "periods": args.periods,
        "steps_per_period": args.steps_per_period,
        "stride": args.stride,
        "overrides": _parse_overrides(args.overrides),
        "max_norm_deviation": traj.max_norm_deviation,
        "min_populations": [float(v) for v in traj.min_populations],
        "outputs": ["trajectory.csv"],
    }, started)
    return 0


def _cmd_floquet(args) -> int:
    spec = _load_spec(args)
    started = time.perf_counter()
    op = monodromy(spec, steps_per_period=args.steps_per_period)
    modes = floquet_modes(op)
    args.out.mkdir(parents=True, exist_ok=True)
    outputs = ["modes.csv"]
    csvio.write_modes(args.out / "modes.csv", spec.a2 / spec.omega, modes)
    if args.dump_monodromy:
        csvio.write_monodromy(args.out / "monodromy.csv", op.matrix)
        outputs.append("monodromy.csv")
    write_manifest(args.out, {
        "command": "floquet",
        "spec": spec.to_json_dict(),
        "steps_per_period": args.steps_per_period,
        "overrides": _parse_overrides(args.overrides),
        "unitarity_residual": op.unitarity_residual(),
        "quasienergies": [m.quasienergy for m in modes],
        "outputs": outputs,
    }, started)
    return 0


def _scan_config(args, spec: SystemSpec, **fields) -> ScanConfig:
    start, stop, points = _parse_grid(args.grid)
    return ScanConfig(
        base_spec=spec,
        grid_start=start,
        grid_stop=stop,
        grid_points=points,
        steps_per_period=args.steps_per_period,
        **fields,
    )


def _cmd_scan_minp1(args) -> int:
    spec = _load_spec(args)
    config = _scan_config(args, spec, horizon_periods=args.periods,
                          initial_site=args.initial_site)
    workers = _workers(args)
    started = time.perf_counter()
    result = scan_min_p1(config, workers=workers)
    args.out.mkdir(parents=True, exist_ok=True)
    csvio.write_min_p1_scan(args.out / "minp1.csv", result.ratios, result.min_p1)
    write_manifest(args.out, {
        "command": "scan-minp1",
        **config.to_json_dict(),
        "overrides": _parse_overrides(args.overrides),
        "workers": workers,
        "landmarks": result.landmarks,
        "max_norm_deviation": result.max_norm_deviation,
        "outputs": ["minp1.csv"],
    }, started)
    return 0


def _cmd_scan_spectrum(args) -> int:
    spec = _load_spec(args)
    config = _scan_config(args, spec)
    workers = _workers(args)
    started = time.perf_counter()
    result = scan_spectrum(config, workers=workers)
    args.out.mkdir(parents=True, exist_ok=True)
    csvio.write_spectrum(args.out / "spectrum.csv", result.ratios,
                         result.branch_set.branches, include_residual=True)
    write_manifest(args.out, {
        "command": "scan-spectrum",
        **config.to_json_dict(),
        "overrides": _parse_overrides(args.overrides),
        "workers": workers,
        "landmarks": result.landmarks,
        "classifications": result.classifications,
        "warnings": result.warnings,
        "outputs": ["spectrum.csv"],
    }, started)
    return 0


def _cmd_reproduce(args) -> int:
    reproduce(
        args.figure,
        args.out,
        workers=_workers(args),
        overrides=_parse_overrides(args.overrides),
    )
    return 0


def _cmd_bessel(args) -> int:
    from .specfun import bessel_j, j0_zero

    did_something = False
    if args.x is not None:
        value = bessel_j(args.order, args.x)
        print(f"J_{args.order}({csvio.fmt(args.x)}) = {csvio.fmt(value)}")
        did_something = True
    if args.zero is not None:
        z = j0_zero(args.zero)
        print(f"j0_zero({args.zero}) = {csvio.fmt(z)}")
        did_something = True
    if not did_something:
        raise ValidationError("bessel needs --x and/or --zero")
    return 0


_COMMANDS = {
    "propagate": _cmd_propagate,
    "floquet": _cmd_floquet,
    "scan-minp1": _cmd_scan_minp1,
    "scan-spectrum": _cmd_scan_spectrum,
    "reproduce": _cmd_reproduce,
    "bessel": _cmd_bessel,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ScanInterrupted as exc:
        print(f"numerical failure: {exc} "
              f"({len(exc.completed)} points completed)", file=sys.stderr)
        return 2
    except (IntegrationFailure, NumericsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
