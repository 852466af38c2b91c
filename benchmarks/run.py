"""Benchmark of coulombflow: one workload per run, end to end or per layer.

    python3 benchmarks/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` next to this
directory.  A run sets up the workload, then repeats its operation back to
back (a closed loop, one process, `jobs=1`) until the next repetition would
end past `--seconds`.  The first repetition is a warm-up; the others are
timed and every output is checked.  Between the first repetitions, fresh
interpreters time `import coulombflow` plus building the inputs.

With `--trace 0` the last line of standard output is the JSON result with
the end-to-end metrics `wall_s` (median repetition), `setup_s` (median
set-up) and `peak_rss_mb`.  With `--trace 1` the package's modules are
timed from outside (tracing.py) and the stage sweep (sweep.py) runs after
the loop; the result holds the per-layer metrics.  Every run also writes
its full record under `.bench_out/`.

Host speed.  On a shared host the same code runs up to 1.7 times slower in
phases of a fraction of a second, at a level that drifts over minutes.  So
while a repetition runs, hostspeed.SpeedSampler times a fixed kernel that
does not touch coulombflow every 20 ms.  A repetition's time, without the
sampling, is scaled by the factor of the samples taken during it: it is
then the time at the host speed at which the kernel takes 0.5 ms, and
`wall_s` is the median of these scaled times.  Set-up and per-layer times
are scaled by the median factor of the run's repetitions.  The measured
times and the factors are in the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# The names of workloads.WORKLOADS, which cannot be imported before the
# thread caps are set, because it loads numpy.
WORKLOAD_NAMES = ("verify-suite", "simulate-2d", "analysis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_TIMED = 2


def _configure_environment() -> None:
    """Cap BLAS/OpenMP threads at the usable cores before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    os.environ["COULOMBFLOW_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    sys.path.insert(0, SRC)


def _setup_probe(workload: str, seed: int, work_dir: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed), work_dir],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(workload, seed: int, seconds: float, work_dir: str, tracer=None) -> dict:
    """The closed loop of one run; returns its raw record."""
    inputs = workload.prepare(seed, work_dir)
    probe_dir = os.path.join(work_dir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    sampler = hostspeed.SpeedSampler()
    rec = {"times": [], "raw_times": [], "factors": [], "samples": [], "setup": [],
           "attempted": 0, "failed": 0, "errors": [], "problems": [], "layers": []}
    if tracer is not None:
        tracer.clock = sampler.clock
        tracer.install()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            raw, now = rec["raw_times"], time.perf_counter()
            if now > deadline and (raw or rec["failed"]):
                break
            if len(raw) >= MIN_TIMED and now + 0.5 * statistics.median(raw) > deadline:
                break
            warm_up = rec["attempted"] == 0
            rec["attempted"] += 1
            before = tracer.snapshot() if tracer is not None else None
            since = len(sampler.samples)
            sampler.start()
            try:
                t0, c0 = time.perf_counter(), sampler.clock()
                output = workload.operation(inputs)
                elapsed, net = time.perf_counter() - t0, sampler.clock() - c0
            except Exception:
                rec["failed"] += 1
                rec["errors"].append(traceback.format_exc())
                print(rec["errors"][-1], file=sys.stderr)
                continue
            finally:
                sampler.stop()
            if not warm_up:
                factor = sampler.factor(since)
                raw.append(elapsed)
                rec["factors"].append(factor)
                rec["samples"].append(len(sampler.samples) - since)
                rec["times"].append(net * factor)
                if tracer is not None:
                    rec["layers"].append(tracing.repetition_stats(before, tracer.snapshot()))
            rec["problems"] += workload.check(inputs, output)
            if len(rec["setup"]) < SETUP_SAMPLES:
                rec["setup"].append(_setup_probe(workload.name, seed, probe_dir))
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(rec["setup"]) < SETUP_SAMPLES:
        rec["setup"].append(_setup_probe(workload.name, seed, probe_dir))
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coulombflow", "__init__.py")):
        print(f"error: no coulombflow package under {SRC}", file=sys.stderr)
        return 2
    _configure_environment()
    import coulombflow

    if os.path.dirname(os.path.realpath(coulombflow.__file__)) != os.path.realpath(
        os.path.join(SRC, "coulombflow")
    ):
        print(f"error: coulombflow imported from {coulombflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, "work", f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    tracer = tracing.LayerTracer() if args.trace else None
    try:
        rec = measure(workload, args.seed, args.seconds, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not rec["times"]:
        print(f"error: every repetition of {args.workload} failed", file=sys.stderr)
        return 1
    host_factor = statistics.median(rec["factors"])
    rec["host_factor"] = host_factor
    if args.trace:
        import sweep

        metrics = tracing.layer_metrics(rec["layers"])
        for m in metrics.values():
            if m["unit"] in ("s", "us"):
                m["value"] *= host_factor
        sampler = hostspeed.SpeedSampler()
        sampler.start()
        try:
            stages = sweep.run_sweep(sampler.clock)
        finally:
            sampler.stop()
        rec["sweep_factor"] = sampler.factor()
        for m in stages.values():
            m["value"] *= rec["sweep_factor"]
        metrics.update(stages)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rec["times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(rec["setup"]) * host_factor, "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    wall_s = statistics.median(rec["times"])
    result = {
        "correct": not rec["problems"] and rec["attempted"] > rec["failed"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    for problem in rec["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{tag}: wall_s {wall_s:.4f} ({statistics.median(rec['raw_times']):.4f} measured, host "
        f"factor {host_factor:.3f}) over {len(rec['times'])} timed repetitions",
        file=sys.stderr,
    )

    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{tag}.json"), "w") as fh:
        json.dump({"args": vars(args), "machine": _machine(), "wall_s": wall_s, **rec,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
