#!/usr/bin/env python3
"""kooplift benchmark: one workload, one single-threaded process, checked.

Run from the repository root (kooplift is imported from ``src/``):

    python3 bench/run.py --workload ct-exact --seed 715 --seconds 25 --trace 0

Passes of the workload run back to back (a closed loop) until ``--seconds``
have gone by; every pass is checked after it is timed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The line before it
records the machine and library versions; ``bench/results/`` keeps every
pass time and, for traced runs, the spans.
"""

import os

# numpy's BLAS reads these when it loads, so they are set before any import
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ct-exact", "dt-degree-sweep", "dt-lift-scale")
DEFAULT_SEED = 715
SETUP_PROBES = 7
SETUP_PROBE_RUNS = 20
# the cross-pass byte-identity check needs a second pass
MIN_PASSES = 2



def metric_units():
    """Units of every metric, from the benchmark's definition."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def load_kooplift():
    """Imports kooplift from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import kooplift
    import kooplift.cli  # noqa: F401

    if Path(kooplift.__file__).resolve().parent != (SRC / "kooplift").resolve():
        raise SystemExit(f"bench: imported kooplift from {kooplift.__file__}, not {SRC}")
    return kooplift


def set_up(workload_name, seed, work_dir):
    """Everything before the first pass: imports and the workload's inputs."""
    kooplift = load_kooplift()
    from workloads import WORKLOADS

    return kooplift, WORKLOADS[workload_name](kooplift, seed, work_dir)


def measure_setup(workload_name, seed):
    """Seconds from starting an interpreter until a pass could begin.

    Each probe process reports the speed probe's mean time right after its
    set-up, and its set-up time is scaled by it like a pass.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload_name, "--seed", str(seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: set-up probe failed (exit {code})")
        probe_mean = float(rest)
        times.append({"seconds": elapsed, "probe_mean": probe_mean,
                      "scaled": elapsed * PROBE_NOMINAL_S / probe_mean})
    return times


# The machine's speed moves by up to 2x within and between runs, in bursts
# shorter than a pass, while a pass's time relative to the speed measured
# during that same pass holds to a few percent (see README). So a signal
# handler runs a short fixed probe every SAMPLE_INTERVAL_S of a pass; the
# probe's own time is taken out of the pass, and the pass is scaled to the
# speed at which the probe takes PROBE_NOMINAL_S, its quiet-machine time on
# the reference machine.
SAMPLE_INTERVAL_S = 0.05
TRACED_PROBE_RUNS = 20
PROBE_NOMINAL_S = 0.0025


class SpeedProbe:
    """A few milliseconds of the three kinds of work the workloads do:
    Python float loops, small numpy calls and LAPACK on dense matrices.
    It uses no kooplift code, so a change to kooplift cannot move it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        M = rng.normal(size=(60, 50))
        self.G = M @ M.T + np.eye(60)
        self.R = rng.normal(size=(60, 10))
        self.A = np.array([[0.7, 0.0, 0.0], [0.0, 0.7, -0.5], [0.0, 0.0, 0.49]])
        self.b = np.array([1.0, 0.0, 1.0])
        self.np = np
        self.samples = []
        self._busy = False

    def run(self):
        np = self.np
        start = time.perf_counter()
        x1 = x2 = 1.0
        for k in range(2000):
            u = 0.3 * math.sin(0.01 * k)
            x1 += 1e-3 * (-0.05 * x1 + x1 * math.expm1(u))
            x2 += 1e-3 * (-(x2 - x1 * x1) + x2 * math.expm1(-u))
        z = np.ones(3)
        for k in range(250):
            z = self.A @ z + self.b * (0.1 * (k % 7))
        for _ in range(4):
            np.linalg.solve(self.G, self.R)
        np.linalg.svd(self.G)
        return time.perf_counter() - start

    def _sample(self, signum, frame):
        # on a very slow machine the next signal can land inside a probe
        if not self._busy:
            self._busy = True
            self.samples.append(self.run())
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Samples the probe through the block; yields the list of samples."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREADS},
        "platform": platform.platform(),
    }


def run_passes(kooplift, workload, seconds, tracer):
    """Closed loop of whole passes; traced runs alternate untraced and traced.

    Untraced passes sample the machine's speed while they run. Traced passes
    take their samples just before and after instead, so that no probe time
    lands inside a span.
    """
    probe = SpeedProbe()
    records = []
    with open(os.devnull, "w") as null:
        start = time.perf_counter()
        while len(records) < MIN_PASSES or time.perf_counter() - start < seconds:
            traced = tracer is not None and len(records) % 2 == 1
            gc.collect()
            results, errors = {}, {}
            if traced:
                around = [probe.run() for _ in range(TRACED_PROBE_RUNS)]
                tracer.install()
            sampling = contextlib.nullcontext([]) if traced else probe.sampling()
            try:
                with sampling as samples, contextlib.redirect_stdout(null):
                    began = time.perf_counter()
                    for op in workload.operations:
                        try:
                            results[op.name] = op.call()
                        except Exception:  # noqa: BLE001 - counted as a failed operation
                            errors[op.name] = traceback.format_exc(limit=4)
                    elapsed = time.perf_counter() - began - sum(samples)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                samples = around + [probe.run() for _ in range(TRACED_PROBE_RUNS)]
            samples = samples or [probe.run()]
            record = {
                "seconds": elapsed,
                "scaled": elapsed * PROBE_NOMINAL_S / statistics.mean(samples),
                "traced": traced,
                "probe_mean": statistics.mean(samples),
                "probe_samples": len(samples),
            }
            failures = {}
            with contextlib.redirect_stdout(null):
                for op in workload.operations:
                    if op.name in errors:
                        failures[op.name] = {"error": errors[op.name]}
                        continue
                    try:
                        found = workload.check(op, results[op.name])
                    except Exception:  # noqa: BLE001 - a check that cannot run fails
                        found = [traceback.format_exc(limit=4)]
                    if found:
                        failures[op.name] = {"checks": found}
            record["failures"] = failures
            records.append(record)
            print(
                f"bench: pass {len(records)} {'traced ' if traced else ''}"
                f"{elapsed:.4f} s, {len(failures)} failed",
                file=sys.stderr,
            )
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload, args.seed, BENCH_DIR / ".work" / "probe")
        print("ready", flush=True)
        probe = SpeedProbe()
        print(statistics.mean(probe.run() for _ in range(SETUP_PROBE_RUNS)))
        return 0

    if not (SRC / "kooplift" / "__init__.py").is_file():
        raise SystemExit(f"bench: no kooplift sources under {SRC}")
    setup_times = measure_setup(args.workload, args.seed)
    work_dir = BENCH_DIR / ".work" / str(os.getpid())
    try:
        kooplift, workload = set_up(args.workload, args.seed, work_dir)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer(kooplift)
        records = run_passes(kooplift, workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(records) * len(workload.operations)
    failed = sum(len(r["failures"]) for r in records)
    correct = not any(
        "checks" in f for r in records for f in r["failures"].values()
    )
    pass_s = statistics.median(r["scaled"] for r in records if not r["traced"])
    if tracer is None:
        values = {
            "pass_s": pass_s,
            "setup_s": statistics.median(t["scaled"] for t in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        values = tracer.metrics()
        traced_s = statistics.median(r["scaled"] for r in records if r["traced"])
        values["trace.pass_s"] = traced_s
        values["trace.overhead_ratio"] = traced_s / pass_s
    units = metric_units()
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}

    env = environment()
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env,
        "setup_seconds": setup_times,
        "passes": records,
        "metrics": metrics,
    }
    if tracer is not None:
        summary["missing"] = tracer.missing
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.document()))
    (results_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    for r in records:
        for op_name, failure in r["failures"].items():
            print(f"bench: FAILED {op_name}: {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
