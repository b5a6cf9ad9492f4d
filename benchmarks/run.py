"""jacobilab benchmark: one seeded workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from ./src.  The run
builds its inputs and reference values from the seed (untimed), sets up
several times from a fresh import (setup_s is the median), then runs ops in a
closed loop, one at a time, until --seconds have passed, the workload's input
pool is covered and its cost cycle is complete, checking every output.  BLAS
runs one thread.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs the same
untraced loop for half the time, then sets up once more and replays one cost
cycle of ops with every traced library function wrapped (see tracing.py),
and reports the per-layer metrics; the spans go to benchmarks/_out/.

End-to-end metrics (untraced; times at the reference host speed, see
CALIBRATION_S):
  setup_s          median time of a set-up: fresh `import jacobilab`, grid
                   builds and cache warm-up; reference values are excluded
  ops_per_s        completed ops / wall time of the loop
  op_s_p50, p90    percentiles of the wall time of one op
  accuracy_digits  -log10 of the worst error of any op against its reference
  peak_rss_mb      peak resident memory after the first pass over the pool,
                   so it does not grow with the number of ops that fit a run

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it print the environment (git sha, source
hash, Python, numpy, BLAS and its threads, CPU count, seed), each metric with
its unit, and the failed fraction.  --smoke shrinks the inputs for the
benchmark's own tests; --inject-fault perturbs every op's output, so every op
must fail its check.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread (set before numpy loads): the benchmark is one process on
# one core, and idle BLAS threads spinning on a second core only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}
ERROR_FLOOR = 1e-16  # accuracy_digits is capped at 16

# Shared hosts drift in speed by 10-30% over seconds to minutes (on a shared
# 2-vCPU VM, identical pointwise passes took 0.70-1.14 s back to back), more
# than any useful regression bound.  So a fixed kernel that does not touch the
# library is timed between ops, and every time metric is reported at the
# reference host speed: scaled by CALIBRATION_S / median(kernel time).  On
# that VM, over 150 s of pointwise ops, this cut the spread of 15-s block
# medians from 12.5% to 2.9%.  Raw wall times are printed above the result line.
CALIBRATION_S = 0.04


class Calibration:
    """Times the reference kernel: a Python loop, numpy elementwise work and
    a BLAS matvec, in about the mix of the workloads."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((1500, 800))
        self.vector = rng.standard_normal(800)
        self.values = rng.standard_normal(200_000)
        self.samples = []
        self.spent = 0.0  # seconds spent calibrating
        self.last = -math.inf

    def _kernel(self):
        start = time.perf_counter()
        acc = 0.0
        for k in range(60_000):
            acc += (k * 0.5) % 7.0
        for _ in range(5):
            self.matrix @ self.vector
            np.exp(-self.values * self.values) * np.cos(self.values)
        self.samples.append(time.perf_counter() - start)

    def sample(self, every=1.0):
        """Time the kernel three times if `every` seconds passed since the last sample."""
        start = time.perf_counter()
        if start - self.last >= every:
            for _ in range(3):
                self._kernel()
            self.last = time.perf_counter()
            self.spent += self.last - start

    def factor(self):
        return CALIBRATION_S / float(np.median(self.samples))


def digits(err):
    return -math.log10(max(err, ERROR_FLOOR))


def fresh_import():
    """Import jacobilab anew, discarding the modules (and caches) of earlier imports."""
    for name in [m for m in sys.modules if m == "jacobilab" or m.startswith("jacobilab.")]:
        del sys.modules[name]
    jl = importlib.import_module("jacobilab")
    return types.SimpleNamespace(jl=jl, cli=importlib.import_module("jacobilab.cli"))


def blas_info():
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        import ctypes

        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return name, threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"])


def source_revision():
    """git sha of the checkout if it is a repository, plus a hash of the library source."""
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "jacobilab", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return sha, digest.hexdigest()[:16]


def environment(seed):
    blas, threads = blas_info()
    sha, src_hash = source_revision()
    return {
        "git_sha": sha,
        "source_sha256": src_hash,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "cpu_count": NPROC,
        "seed": seed,
    }


def run_loop(work, seconds, calibration, inject_fault, tally, rss_after=None):
    """Closed loop: ops back to back until `seconds` have passed, the input
    pool was covered and the cost cycle is complete.  Returns per-op times,
    errors, the loop's wall time without calibration, and the peak RSS."""
    times, errors = [], []
    start = time.perf_counter()
    spent = calibration.spent
    i = 0
    rss = None
    while i < work.pool or i % work.cycle or time.perf_counter() - start < seconds:
        calibration.sample()
        tally["attempted"] += 1
        t0 = time.perf_counter()
        try:
            out = work.op(i)
        except Exception as exc:  # a raising op is a failed op; keep running
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            tally["failed"] += 1
        else:
            times.append(time.perf_counter() - t0)
            if inject_fault:
                out = work.corrupt(out)
            passed, err = work.check(i, out)
            if not passed:
                tally["failed"] += 1
            if err is not None:
                errors.append(err)
        i += 1
        if i == rss_after:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = time.perf_counter() - start - (calibration.spent - spent)
    return times, errors, elapsed, rss


def end_to_end(setup_times, times, errors, elapsed, rss, scale=1.0):
    """End-to-end metrics; times are multiplied by `scale`."""
    if not times:
        return None
    return {
        "setup_s": float(np.median(setup_times)) * scale,
        "ops_per_s": len(times) / elapsed / scale,
        "op_s_p50": float(np.percentile(times, 50)) * scale,
        "op_s_p90": float(np.percentile(times, 90)) * scale,
        "accuracy_digits": digits(max(errors)) if errors else 0.0,
        "peak_rss_mb": rss,
    }


def traced_pass(work, tracer, inject_fault, tally):
    """Set up from a fresh import and replay one cost cycle of ops traced."""
    lib = fresh_import()
    tracer.install()
    try:
        work.setup(lib)
        times = []
        for i in range(work.cycle):
            tracer.op = i
            tally["attempted"] += 1
            t0 = time.perf_counter()
            try:
                out = work.op(i)
            except Exception as exc:
                print(f"traced op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                tally["failed"] += 1
                continue
            times.append(time.perf_counter() - t0)
            if inject_fault:
                out = work.corrupt(out)
            if not work.check(i, out)[0]:
                tally["failed"] += 1
    finally:
        tracer.uninstall()
    return lib, times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for self-tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb every op's output (self-test of the checks)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jacobilab", "__init__.py")):
        print(f"error: no jacobilab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore")
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        fresh_import()  # the reference phase may use the library to build inputs
        work = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work_dir)
        calibration = Calibration()
        setup_times = []
        for _ in range(1 if args.smoke else work.setup_reps):
            calibration.sample()
            t0 = time.perf_counter()
            work.setup(fresh_import())
            setup_times.append(time.perf_counter() - t0)

        tally = {"attempted": 0, "failed": 0}
        seconds = args.seconds / 2 if args.trace else args.seconds
        times, errors, elapsed, rss = run_loop(
            work, seconds, calibration, args.inject_fault, tally, rss_after=work.pool
        )
        if args.trace:
            tracer = tracing.Tracer()
            lib, traced_times = traced_pass(work, tracer, args.inject_fault, tally)
            metrics = layer_metrics(work, tracer, lib, times, traced_times, args.seed)
            tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
            units = tracing.PER_LAYER
        else:
            factor = calibration.factor()
            metrics = end_to_end(setup_times, times, errors, elapsed, rss, factor)
            raw = end_to_end(setup_times, times, errors, elapsed, rss)
            if raw is not None:
                print(f"host speed: kernel median {CALIBRATION_S / factor:.4g} s, "
                      f"reference {CALIBRATION_S} s; raw wall: "
                      + ", ".join(f"{k} {raw[k]:.6g}" for k in ("setup_s", "ops_per_s",
                                                              "op_s_p50", "op_s_p90")))
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if metrics is None:
        print("error: no op completed", file=sys.stderr)
        metrics = {}
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:42s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':42s} {tally['failed'] / tally['attempted']:>16.6g} "
          f"({tally['failed']} of {tally['attempted']} ops)")
    result = {
        "correct": tally["failed"] == 0 and set(metrics) == set(units),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(work, tracer, lib, base_times, traced_times, seed):
    """Per-layer metrics of the traced pass, plus the oracle digits and the
    tracing overhead against the untraced ops with the same inputs."""
    import oracles
    import workloads

    metrics = tracer.layer_metrics()
    # untraced time of each op of the cycle: the median over the loop's cycles
    base = [float(np.median(base_times[j::work.cycle])) for j in range(len(traced_times))]
    metrics["trace.overhead_frac"] = sum(traced_times) / sum(base) - 1.0 if base else 0.0
    jl = lib.jl
    params = jl.JacobiParameters(*workloads.GENERIC)
    calls = workloads.pointwise_batch(seed, 7, workloads.SPECFUN_KINDS)
    values = [workloads.evaluate_call(jl, params, kind, args) for kind, args, _, _ in calls]
    metrics["specfun.oracle_digits"] = digits(
        max(err for _, err in workloads.call_errors(calls, values))
    )

    # seeded cells of the largest phi matrix the pass built; a seeded small
    # one when the workload builds none
    rng = np.random.default_rng([seed, 8])
    if tracer.captured_phi is None:
        t_nodes = np.sort(rng.uniform(0.01, 12.0, 24))
        lam_nodes = np.sort(rng.uniform(0.01, 49.0, 24))
        tracer.captured_phi = (params, t_nodes, lam_nodes, jl.phi_matrix(params, t_nodes, lam_nodes))
    p, t_nodes, lam_nodes, matrix = tracer.captured_phi
    worst = 0.0
    for i, j in zip(rng.integers(0, t_nodes.size, 24), rng.integers(0, lam_nodes.size, 24)):
        t, lam = float(t_nodes[i]), float(lam_nodes[j])
        ref = oracles.phi(p.alpha, p.beta, lam, t)
        worst = max(worst, abs(matrix[i, j] - ref) * math.exp(p.rho * t))
    metrics["core.phi_matrix.oracle_digits"] = digits(worst)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
