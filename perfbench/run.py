"""openset benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload train_joint --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Load is a closed loop: one client in this
process sends one op at a time, with BLAS pinned to one thread. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 every op runs twice, untraced and then
traced, and the JSON holds the per-layer metrics. README.md beside this file
explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Seconds the Speedometer kernel takes on the reference machine (2-vCPU Xeon
# at 2.1 GHz, one BLAS thread, quiet).
CALIBRATION_S = 0.006
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("train_joint", "train_direct", "eval_episodes", "data_roundtrip")


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, found through this process's
    memory map; 'unknown' where that is not available."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    except OSError:
        pass
    return "unknown"


def _environment(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (
        f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
        f"blas_threads={_blas_threads()} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))}"
    )


class Speedometer:
    """Tracks how fast the machine runs at the moment, with a fixed kernel
    that never touches openset.

    On a shared host the same op can take 20% longer for tens of seconds at a
    time. Timing the kernel just before and just after each op, and scaling
    the op's time by CALIBRATION_S / kernel time, reports every time as it
    would be on a machine where the kernel takes CALIBRATION_S. The kernel
    mixes what the workloads spend their time on: small matrix products and
    ufuncs, and interpreter-bound loops of small-array numpy calls (a
    per-anchor mining loop and a per-query sort, like the multisim loss and
    the kNN classifier).
    """

    def __init__(self, np):
        self._np = np
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((64, 64)) / 8.0
        emb = rng.standard_normal((108, 32))
        self._emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        self._ids = np.repeat(np.arange(12), 9)
        self.sample()

    def _kernel(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        x = self._square
        for _ in range(200):
            x = np.tanh(x @ self._square)
        sims = self._emb @ self._emb.T
        same = self._ids[:, None] == self._ids[None, :]
        total = float(x[0, 0])
        for i in range(len(self._ids)):
            pos, neg = np.flatnonzero(same[i]), np.flatnonzero(~same[i])
            mined = neg[sims[i, neg] > sims[i, pos].min() - 0.1]
            if mined.size:
                z = 50.0 * (sims[i, mined] - 1.0)
                total += float(z.max() + np.log(np.exp(z - z.max()).sum()))
            total += float(np.lexsort((self._ids[:5], -sims[i, :5]))[0])
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Speed factor: CALIBRATION_S over the median of three kernel runs."""
        return CALIBRATION_S / statistics.median(self._kernel() for _ in range(3))

    def timed(self, fn, *args):
        """(result, raw seconds, speed factor over the call) of fn(*args).
        The raw seconds times the factor is the reported time."""
        before = self.sample()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
        factor = (before + self.sample()) / 2.0
        return result, wall, factor


class Runner:
    """Runs ops of one workload, checks them and keeps the counts."""

    def __init__(self, speed, tracer, csv_digest):
        self.speed = speed
        self.tracer = tracer
        self.csv_digest = csv_digest
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[str, str] = {}
        self.kept: dict[str, int] = {}
        self.values: list[dict] = []

    def run(self, op, traced: bool = False):
        """Run and check one op: its values, with `seconds` (scaled by the
        speed factor) and `raw_seconds` added, or None if it failed."""
        index = self.attempted
        self.attempted += 1
        out = os.path.join(WORK, f"op_{index}")
        try:
            if traced:
                self.tracer.install(len(self.tracer.ops))
            try:
                info, wall, factor = self.speed.timed(op.run, out)
            finally:
                if traced:
                    self.tracer.remove()
            values = op.check(out, info)
            digest = self.csv_digest(out)
            if self.first_digest.setdefault(op.label, digest) != digest:
                raise RuntimeError(f"{op.label}: CSVs differ from the first op with this seed")
        except Exception:  # an op that fails is counted and reported; the run goes on
            self.failed += 1
            print(f"op {index} ({op.label}) failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            # keep the outputs of the first op of each kind, for inspection
            if self.kept.setdefault(op.label, index) != index:
                shutil.rmtree(out, ignore_errors=True)
        values.update(seconds=wall * factor, raw_seconds=wall, speed=factor)
        if not traced:
            self.values.append(values)
        return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS reads its thread count once, when numpy is first imported.
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the whole run, so that an op and the speed samples around
    # it (see Speedometer) run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "openset", "__init__.py")):
        print(f"perfbench: no openset sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np
    import openset

    if not os.path.abspath(openset.__file__).startswith(src + os.sep):
        print(f"perfbench: imported openset from {openset.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS, csv_digest

    workload = WORKLOADS[args.workload]
    print(f"env {_environment(np)}")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    speed = Speedometer(np)

    tracer = Tracer() if args.trace else None
    # Set-up: repeated, timed, and required to give identical artifacts.
    setup_times, fingerprints = [], []
    for r in range(SETUP_REPEATS):
        setup_dir = os.path.join(WORK, f"setup_{r}")
        last = r + 1 == SETUP_REPEATS
        if tracer is not None and last:  # trace the set-up once, as op -1
            tracer.install(-1)
        try:
            ctx, wall, factor = speed.timed(workload.setup, setup_dir, args.seed)
        finally:
            if tracer is not None and last:
                tracer.remove()
                tracer.setup_factor = factor
        setup_times.append((wall * factor, wall))
        fingerprints.append(csv_digest(setup_dir) + ctx.get("digest", ""))
        if not last:
            shutil.rmtree(setup_dir, ignore_errors=True)
    setup_ok = len(set(fingerprints)) == 1
    if not setup_ok:
        print("set-up repeats gave different artifacts", file=sys.stderr)
    setup_s = statistics.median(t for t, _ in setup_times)
    print("setup seconds (scaled/raw) " + " ".join(f"{t:.4f}/{w:.4f}" for t, w in setup_times))

    if tracer is not None:
        tracer.test_instances = ctx.get("test_instances", 0)
    runner = Runner(speed, tracer, csv_digest)
    cycle = workload.cycle(ctx)
    rates, raw_rates = [], []
    cycles = 0
    start = time.perf_counter()
    while cycles < (1 if tracer else 2) or time.perf_counter() - start < args.seconds:
        done = []
        for op in cycle:
            if tracer is None:
                done.append(runner.run(op))
                continue
            # each op runs untraced and traced, the order alternating by cycle
            order = (False, True) if cycles % 2 == 0 else (True, False)
            pair = {traced: runner.run(op, traced) for traced in order}
            done.append(pair[False])
            if pair[False] is not None and pair[True] is not None:
                traced = pair[True]
                tracer.ops.append(
                    (op.kind, traced["raw_seconds"], traced["speed"], pair[False]["seconds"])
                )
                if op.kind == "train":
                    tracer.train_steps += traced["items"]
                    tracer.train_resamples += traced["resamples"]
        if all(v is not None for v in done):
            items = sum(v["items"] for v in done)
            rates.append(items / sum(v["seconds"] for v in done))
            raw_rates.append(items / sum(v["raw_seconds"] for v in done))
        cycles += 1
    elapsed = time.perf_counter() - start

    correct = setup_ok and runner.failed == 0 and bool(rates)
    throughput = statistics.median(rates) if rates else 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"ops {runner.attempted} cycles {cycles} measured_s {elapsed:.3f}")
    print("throughput per cycle (scaled/raw) "
          + " ".join(f"{r:.6g}/{w:.6g}" for r, w in zip(rates, raw_rates)))
    digest = hashlib.sha256(
        (fingerprints[-1] + "".join(runner.first_digest[k] for k in sorted(runner.first_digest))).encode()
    ).hexdigest()
    print(f"digest {args.workload} seed {args.seed} {digest}")

    if tracer is None:
        summary = {
            "setup_s": ("s", setup_s),
            **(workload.summary(runner.values, throughput) if runner.values else {}),
            "peak_rss_mb": ("MB", peak_rss_mb),
            "failed_op_ratio": ("ratio", runner.failed / runner.attempted),
            "raw_setup_s": ("s", statistics.median(w for _, w in setup_times)),
            "raw_throughput": ("items/s", statistics.median(raw_rates) if raw_rates else 0.0),
        }
        for name, (unit, value) in summary.items():
            print(f"metric {name} {value!r} {unit}")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput": {"value": throughput, "unit": "items/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        tracer.write(os.path.join(WORK, "trace.npz"))
        if tracer.missing:
            print("trace: not found, not wrapped: " + " ".join(tracer.missing))
        layer = tracer.metrics() if tracer.ops else {}
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        correct = correct and bool(tracer.ops)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
