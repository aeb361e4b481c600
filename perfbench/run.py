"""Benchmark of the a2/omega scan pipeline, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload minp1-fold --seed 1 --seconds 16 --trace 0

``--workload all`` runs the workloads one after another, each in its own
process, and prints their results as one JSON object keyed by name.

A run repeats whole passes of the workload until ``--seconds`` have gone
by (at least one), checks every pass against the independent references in
``reference.py`` and prints one JSON object as the last line of standard
output. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates an untraced and a traced pass and reports the
per-layer metrics of the traced ones. Progress goes to standard error.

BLAS is held to one thread in this process and its set-up probes, so that
``workers`` x BLAS threads never exceeds ``nproc``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _import_package():
    """Import the package from the checkout's ``src``, never from elsewhere."""
    src = Path.cwd() / "src"
    if not (src / "floquet_lattice" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {src} holds no floquet_lattice package; run from the "
            "root of a checkout")
    sys.path.insert(0, str(src))
    import floquet_lattice

    if Path(floquet_lattice.__file__).resolve().parent != (
            src / "floquet_lattice").resolve():
        raise SystemExit(f"error: imported {floquet_lattice.__file__}, "
                         f"not the package under {src}")


def setup_seconds(name: str) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    record: object = None
    failures: list = field(default_factory=list)


def run_pass(workload, inputs, tracer=None) -> Pass:
    """One timed pass; exceptions make it a failed pass, not a failed run."""
    result = Pass(traced=tracer is not None)
    started = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(inputs)
        else:
            with tracer, tracer.span("pass"):
                output = workload.run(inputs)
        result.wall = time.perf_counter() - started
        result.record = workload.record(inputs, output)
    except Exception:  # a broken program must still yield a report
        result.wall = result.wall or time.perf_counter() - started
        result.failures.append(traceback.format_exc())
    return result


def check_passes(workload, inputs, passes, seed: int) -> None:
    import numpy as np

    ok = [p for p in passes if not p.failures]
    if not ok:
        return
    try:
        refs = workload.reference(inputs, ok[0].record,
                                  np.random.default_rng(seed))
    except Exception:  # no reference, so no pass can be shown correct
        for p in ok:
            p.failures.append(traceback.format_exc())
        return
    for p in ok:
        try:
            p.failures += workload.check(inputs, p.record, refs)
        except Exception:  # a check that cannot read the output fails the pass
            p.failures.append(traceback.format_exc())


def run_all(names, args) -> int:
    """Run every workload in its own process; print their results by name."""
    results, status = {}, 0
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        status = max(status, child.returncode)
        lines = child.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if child.returncode == 0 else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import spans
    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)

    setup_s = None if args.trace else setup_seconds(workload.name)
    inputs = workload.build()
    tracer = spans.Tracer() if args.trace else None

    # A traced run alternates the order of its untraced and traced passes
    # from round to round, so a drift along the run cancels in the overhead.
    rounds = [[None]] if tracer is None else [[None, tracer], [tracer, None]]
    passes: list[Pass] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        for mode in rounds[len(passes) // len(rounds[0]) % len(rounds)]:
            passes.append(run_pass(workload, inputs, mode))
            _log(f"{workload.name}: pass {len(passes)}"
                 f"{' (traced)' if mode else ''} {passes[-1].wall:.3f} s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_passes(workload, inputs, passes, args.seed)
    failed = [p for p in passes if p.failures]
    for i, p in enumerate(passes):
        for failure in p.failures:
            _log(f"pass {i + 1} FAILED: {failure}")
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    wall_s = statistics.median(p.wall for p in plain)
    if tracer is None:
        points = [workload.points(p.record) for p in plain if p.record is not None]
        metrics = {
            "wall_s": (wall_s, "s"),
            "points_per_s": ((statistics.median(points) if points else 0)
                             / wall_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced = [p for p in passes if p.traced]
        metrics = {name: (value, _unit(name)) for name, value in
                   spans.layer_metrics(tracer.roots, len(traced)).items()}
        overhead = statistics.median(p.wall for p in traced) - wall_s
        metrics["trace.overhead_s"] = (overhead, "s")
        trace_dir = BENCH_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        dump = trace_dir / f"{workload.name}-seed{args.seed}.json"
        dump.write_text(json.dumps(spans.dump(tracer.roots)), encoding="ascii")
        _log(f"spans written to {dump}")

    for name, (value, unit) in metrics.items():
        _log(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "self_s": "s", "p50_ms": "ms", "tail_ms": "ms", "bytes": "bytes",
        "mb_per_s": "MB/s", "step_rows_per_s": "1/s", "periods_per_s": "1/s",
    }.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
