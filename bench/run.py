"""isekf benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload robot-run --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (the package is imported from
./src).  Ops run back to back until the next op would end after
--seconds; at least one op always runs.  Every op's output is checked.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced ops on the same inputs and reports the per-layer metrics (see
tracer.py) plus the tracing overhead.  The line before the result holds
the run record: machine, environment, op count, tail percentile and
fail ratio.  Exit code 2 means the benchmark could not set up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# single process, single-threaded BLAS/OpenMP: set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from hostspeed import CHUNK_REF_S, PAD_S, Sampler  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPS = 5
MAX_ERRORS_SHOWN = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["robot-run", "robot-sweep", "bound-dt", "bound-ct"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def session(tracer, name: str):
    return tracer.session(name) if tracer is not None else contextlib.nullcontext()


class Loop:
    """Closed-loop op runner: counts attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, i: int, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"op {i}: {what}")

    def op(self, i: int, tag: str, tracer=None):
        """Run op i once; returns (start, end, output or None on failure)."""
        self.attempted += 1
        inputs = self.wl.prepare(i, tag)
        t0 = time.perf_counter()
        try:
            with session(tracer, "op"):
                result = self.wl.run(inputs)
        except Exception:  # a raising op is a failed op; the loop goes on
            self.fail(i, traceback.format_exc(limit=4))
            return t0, time.perf_counter(), None
        t1 = time.perf_counter()
        out = self.wl.output(inputs, result)
        try:
            self.wl.check(i, out)
        except Exception as exc:
            self.fail(i, f"{type(exc).__name__}: {exc}")
            return t0, t1, None
        return t0, t1, out


def tail(times):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return {"op_s_tail": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def measure(loop: Loop, seconds: float, tracer=None, sampler=None):
    """Ops back to back until the next would end past `seconds`.  With a
    tracer, each untraced op is followed by a traced op on the same inputs.
    With a running sampler, untraced op times exclude the sampler's chunks.
    Returns the untraced op times, their (start, end) windows and the
    traced op times."""
    untraced, windows, traced, rounds = [], [], [], []
    begin = time.perf_counter()
    i = 0
    while True:
        r0 = time.perf_counter()
        t0, t1, out = loop.op(i, "untraced")
        untraced.append(t1 - t0 - (sampler.spent(t0, t1) if sampler is not None else 0.0))
        windows.append((t0, t1))
        if tracer is not None:
            t0, t1, out_t = loop.op(i, "traced", tracer)
            traced.append(t1 - t0)
            if out is not None and out_t is not None and out_t != out:
                loop.fail(i, "traced output differs from untraced output")
        rounds.append(time.perf_counter() - r0)
        if time.perf_counter() - begin + statistics.median(rounds) > seconds:
            return untraced, windows, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    # host speed is sampled for the untraced run only; its chunks would land in spans
    sampler = None if args.trace else Sampler()
    with sampler.running() if sampler is not None else contextlib.nullcontext():
        return bench(args, sampler)


def bench(args, sampler) -> int:
    def net(t0: float, t1: float) -> float:
        return t1 - t0 - (sampler.spent(t0, t1) if sampler is not None else 0.0)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import isekf
        import workloads
        from isekf.errors import IsekfError
    except ImportError as exc:
        print(f"error: cannot import the isekf package from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(isekf.__file__))) != src:
        print(f"error: isekf was imported from {isekf.__file__}, not from {src}", file=sys.stderr)
        return 2
    import_s = net(T_START, time.perf_counter())

    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
        setup_times = []
        try:
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                with session(tracer, "setup"):
                    wl.setup()
                setup_times.append(net(t0, time.perf_counter()))
        except (IsekfError, OSError) as exc:  # missing config, failed certification, ...
            print(f"error: set-up of {args.workload} failed: {exc}", file=sys.stderr)
            return 2
        setup_end = time.perf_counter()
        if tracer is not None:
            tracer.reset_counters()
        loop = Loop(wl)
        untraced, windows, traced = measure(loop, args.seconds, tracer, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in loop.errors:
        print(f"FAILED {err}", file=sys.stderr)
    setup_s = import_s + statistics.median(setup_times)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(untraced) + len(traced),
        "steps_per_op": wl.steps_per_op, "fail_ratio": loop.failed / loop.attempted,
        "import_s": import_s, "setup_reps_s": setup_times, "machine": machine_record(),
    }
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["stability.checkpoints"] = {"value": wl.checkpoints, "unit": "count"}
        p50_u, p50_t = statistics.median(untraced), statistics.median(traced)
        metrics["bench.op_untraced_ms"] = {"value": p50_u * 1e3, "unit": "ms"}
        metrics["bench.op_traced_ms"] = {"value": p50_t * 1e3, "unit": "ms"}
        metrics["bench.trace_overhead_ms"] = {"value": (p50_t - p50_u) * 1e3, "unit": "ms"}
        spans_path = os.path.join(BENCH_DIR, ".work", f"spans-{args.workload}.npz")
        tracer.write(spans_path)
        record["spans"] = {"file": os.path.relpath(spans_path, ROOT), "count": len(tracer.name_id)}
    else:
        passed = len(untraced) - loop.failed
        scaled = [dt * CHUNK_REF_S / sampler.chunk_s(t0, t1)
                  for dt, (t0, t1) in zip(untraced, windows)]
        # host speed in the 2 * PAD_S seconds after set-up: chunks run cold during imports
        setup_chunk_s = sampler.chunk_s(setup_end + PAD_S, setup_end + PAD_S)
        metrics = {
            "steps_per_s": {"value": wl.steps_per_op * passed / sum(scaled), "unit": "steps/s"},
            "op_s_p50": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": setup_s * CHUNK_REF_S / setup_chunk_s, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }
        record["tail"] = tail(scaled)
        record["wall"] = {"op_s_p50": statistics.median(untraced), "op_s_tail": tail(untraced),
                          "steps_per_s": wl.steps_per_op * passed / sum(untraced),
                          "setup_s": setup_s, "chunk_s_setup": setup_chunk_s,
                          "chunk_s_p50": statistics.median(sampler.costs)}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
