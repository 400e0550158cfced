"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train|recognize|ingest --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are made from
``--seed``; its rounds repeat for ``--seconds``. With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` the run spends half its time untraced,
half with the tracer installed, then one round under ``tracemalloc``, and
reports every per-layer metric instead. Working files go to ``.bench_run/``
in the checkout and are removed at exit.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import _env

import numpy as np

import tracing
from workloads import SETUP_REPEATS, WORKLOADS, OpFailed, Run

SPEC = _env.ROOT / "BENCHMARK.json"


def environment() -> dict:
    """numpy version, BLAS library and thread count, CPU count."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or the pinned setting if
    the library cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def repeat(workload, seconds: float) -> None:
    """Closed loop: whole rounds, back to back, until ``seconds`` are spent."""
    start = perf_counter()
    workload.round()
    while perf_counter() - start < seconds:
        workload.round()


# Timings and rates that end_to_end rescales by the run's host speed.
TIMES = ("setup_s", "train_us_per_sample", "eval_us_per_sample", "predict_p50_us",
         "predict_p95_us", "cli_predict_ms", "checkpoint_load_ms")
RATES = ("load_images_per_s",)


def end_to_end(run: Run, setup_times, names) -> tuple[dict, dict]:
    """The metrics rescaled to the reference host's speed, and as measured."""
    s = run.samples
    wall = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_us_per_sample": statistics.median(s["train_us_per_sample"]),
        "train_final_loss": run.values["train_final_loss"],
        "accuracy_pct": run.values["accuracy_pct"],
        "eval_us_per_sample": statistics.median(s["eval_us_per_sample"]),
        "predict_p50_us": statistics.median(s["predict_us"]),
        "predict_p95_us": float(np.percentile(s["predict_us"], 95)),
        "cli_predict_ms": statistics.median(s["cli_predict_ms"]),
        "load_images_per_s": statistics.median(s["load_images_per_s"]),
        "checkpoint_load_ms": statistics.median(s["checkpoint_load_ms"]),
    }
    speed = run.host_speed()
    scaled = dict(wall)
    for name in TIMES:
        scaled[name] = wall[name] * speed
    for name in RATES:
        scaled[name] = wall[name] / speed
    return {n: scaled[n] for n in names}, {n: wall[n] for n in names}


def overhead_pct(samples: list, untraced: int, higher_is_better: bool) -> float:
    """Traced against untraced median of the workload's primary metric."""
    base = statistics.median(samples[:untraced])
    traced = statistics.median(samples[untraced:])
    ratio = base / traced if higher_is_better else traced / base
    return 100.0 * (ratio - 1.0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    run = Run(seed, work)
    workload = WORKLOADS[name](run)
    setup_times = []
    for index in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup(index)
        setup_times.append(perf_counter() - start)
        run.calibrate()

    if not trace:
        repeat(workload, seconds)
        run.calibrate()
        workload.epilogue()
        return run, setup_times, None

    key, higher_is_better = workload.primary
    repeat(workload, seconds / 2)
    untraced = len(run.samples[key])
    run.counts.clear()
    with tracing.Tracer() as tracer:
        workload.setup(SETUP_REPEATS)
        repeat(workload, seconds / 2)
    counts = dict(run.counts)
    layer = tracing.layer_metrics(tracer, counts)
    layer["trace.overhead_pct"] = overhead_pct(run.samples[key], untraced, higher_is_better)
    tracemalloc.start()
    try:
        workload.round()
        layer["mem.traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    absent = tracer.absent + sorted(k for k, v in layer.items() if v == 0)
    print(f"# not exercised or absent: {', '.join(absent) or 'none'}")
    workload.epilogue()
    return run, setup_times, layer


def remove_tree(work: Path) -> None:
    """Delete the run's working files and wait until the file system has
    committed the deletion, so that freeing the blocks (the file system may
    be mounted with ``discard``) slows this run's exit, not the next run."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass
    fd = os.open(_env.ROOT, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one blprs benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = _env.ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run, setup_times, layer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    except OpFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_tree(work)

    env = environment()
    env["calibration_ms"] = float(np.median(run.samples["calibration_s"])) * 1e3
    env["host_speed"] = run.host_speed()
    if layer is None:
        metrics, wall = end_to_end(run, setup_times, [m["name"] for m in spec["end_to_end"]])
        print(f"# as measured, before rescaling by host_speed: {json.dumps(wall)}")
    else:
        metrics = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# env {json.dumps(env)}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
