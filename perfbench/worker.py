"""Run one workload in this process and print one JSON object as the last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --launch T
        [--trace] [--setup-only] [--small] [--perturb]

`--launch` is the `time.monotonic()` reading taken by the parent just before
it started this process; `setup_s` runs from there until the first operation
could start. Operations run one after another (a closed loop with one
client) until `--seconds` have passed, at least one. run.py starts this
script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / "perfbench-out"
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LAXFLOW_THREADS")


def blas_runtime():
    """Name, configuration and thread count of every OpenBLAS in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    entry["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def fingerprint():
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    meminfo = Path("/proc/meminfo").read_text().splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), "unknown")
    mem_kib = next((int(line.split()[1]) for line in meminfo
                    if line.startswith("MemTotal")), 0)
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_gib": round(mem_kib / 2**20, 2),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": "{name} {version}".format(
            **numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]),
        "blas_runtime": blas_runtime(),
        "env": {name: os.environ.get(name) for name in ENV_VARS},
    }


def guarded(what, fn, *args):
    """Call fn; an exception becomes a failure message instead of ending the run."""
    try:
        return fn(*args), []
    except Exception as exc:  # a failed operation or check is counted, not fatal
        return None, [f"{what} raised {exc!r}"]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true")
    p.add_argument("--perturb", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import laxflow
    except ImportError as exc:
        sys.exit(f"cannot import laxflow from {SRC}: {exc}")
    if Path(laxflow.__file__).resolve().parent != SRC / "laxflow":
        sys.exit(f"laxflow was imported from {laxflow.__file__}, not from {SRC}")

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload][1 if args.small else 0]()
    workload.perturb = args.perturb
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - args.launch
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    ops, first = [], None
    try:
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < args.seconds:
            op = workload.make(args.seed, len(ops), scratch / f"op{len(ops)}")
            if tracer is not None:
                tracer.begin_op(op.index)
            t0 = time.perf_counter()
            result, fails = guarded("operation", workload.run, op)
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            if not fails:
                found, fails = guarded("check", workload.check, op, result)
                fails += found or []
            del result
            if first is None:
                first = op
            elif op.outdir is not None:
                shutil.rmtree(op.outdir, ignore_errors=True)
            ops.append({"wall_s": wall, "failures": fails})
        if not ops[0]["failures"]:
            found, fails = guarded("repeat check", workload.repeat_check, first,
                                   scratch / "repeat")
            ops[0]["failures"] = fails + (found or [])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(),
    }
    if tracer is not None:
        closed = [s for s in tracer.spans if s.end is not None]
        out["layers"] = [spans.layer_metrics([s for s in closed if s.op == i])
                         for i in range(len(ops))]
        SCRATCH.mkdir(exist_ok=True)
        dump = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps([s.as_list() for s in closed]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
