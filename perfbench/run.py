"""laxflow benchmark: four workloads, each run in fresh child processes.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off. With `--trace 1` it prints the per-layer metrics: a third
of the time runs the workload untraced, a third traced, and a third
untraced with OPENBLAS_NUM_THREADS=1 and LAXFLOW_THREADS=1 in the child's
environment. Every operation's output is checked; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bo-constant-apply", "ccm-staircase-decomp", "talbot-cli", "ccm-diagnostics-cli")
SETUP_LAUNCHES = 5  # setup_s is the median over this many fresh processes
RUN_LIMIT_S = 170.0  # every child must end within this many seconds of the start
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "LAXFLOW_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def launch(name, seed, seconds, deadline, *, trace=False, setup_only=False,
           small=False, perturb=False, env=None):
    """Start worker.py in a fresh process, wait for it, return its JSON result."""
    flags = [f for f, on in (("--trace", trace), ("--setup-only", setup_only),
                             ("--small", small), ("--perturb", perturb)) if on]
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds)] + flags
    cmd += ["--launch", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker did not finish within the run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{name}: worker exited with {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def median_of(ops):
    return statistics.median(op["wall_s"] for op in ops)


def tail_note(walls):
    """The highest percentile with at least ten operations beyond it."""
    n = len(walls)
    ordered = sorted(walls)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return f"p{p:g} {ordered[rank - 1]:.4f} s (n={n})"
    return f"no percentile has 10 operations beyond it (n={n})"


def measure(name, seed, seconds, deadline, small=False, perturb=False):
    """End-to-end metrics, tracing off."""
    setups = [launch(name, seed, seconds, deadline, setup_only=True, small=small)["setup_s"]
              for _ in range(SETUP_LAUNCHES - 1)]
    res = launch(name, seed, seconds, deadline, small=small, perturb=perturb)
    setups.append(res["setup_s"])
    values = {
        "wall_s": median_of(res["ops"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    notes = {
        "wall_s": "median per operation; tail: "
                  + tail_note([op["wall_s"] for op in res["ops"]]),
        "setup_s": f"median of {len(setups)} launches",
    }
    return values, notes, res["ops"], res["fingerprint"]


def measure_traced(name, seed, seconds, deadline, small=False, perturb=False):
    """Per-layer metrics: untraced, traced and single-threaded runs of one workload."""
    share = seconds / 3.0
    plain = launch(name, seed, share, deadline, small=small, perturb=perturb)
    traced = launch(name, seed, share, deadline, trace=True, small=small, perturb=perturb)
    blas1 = launch(name, seed, share, deadline, small=small, perturb=perturb,
                   env={**os.environ, **BLAS1_ENV})
    layers = traced["layers"]
    values = {key: statistics.median(op[key] for op in layers) for key in layers[0]}
    values["trace.overhead_s"] = median_of(traced["ops"]) - median_of(plain["ops"])
    values["blas1.wall_s"] = median_of(blas1["ops"])
    notes = {"trace.overhead_s": f"traced minus untraced wall_s "
                                 f"({len(traced['ops'])} and {len(plain['ops'])} ops)",
             "blas1.wall_s": f"median of {len(blas1['ops'])} ops, BLAS threads "
                             + str([b.get("threads") for b in blas1["fingerprint"]["blas_runtime"]])}
    ops = plain["ops"] + traced["ops"] + blas1["ops"]
    return values, notes, ops, traced["fingerprint"]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(name, seed, seconds, trace, deadline, spec, small=False, perturb=False):
    """Measure one workload, print its metrics, return (attempted, failed, metrics)."""
    measure_fn = measure_traced if trace else measure
    values, notes, ops, fp = measure_fn(name, seed, seconds, deadline, small, perturb)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    failed = sum(1 for op in ops if op["failures"])
    print(f"== {name}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"{len(ops)} operations one at a time")
    for key, m in metrics.items():
        print(f"  {key:42s} {m['value']:14.6g} {m['unit']:8s} {notes.get(key, '')}")
    print(f"  {'fail_ratio':42s} {failed / len(ops):14.6g} {'':8s} {failed} of {len(ops)}")
    shown = [(i, msg) for i, op in enumerate(ops) for msg in op["failures"]]
    for i, msg in shown[:12]:
        print(f"  FAIL operation {i}: {msg}")
    if len(shown) > 12:
        print(f"  ... {len(shown) - 12} more failure messages")
    fp = {"git_sha": git_sha(), "src_sha256": source_digest(), **fp}
    print(f"  fingerprint {json.dumps(fp, sort_keys=True)}")
    results = ROOT / "perfbench-out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"fingerprint": fp, "metrics": metrics, "ops": ops}, indent=1))
    return len(ops), failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if len(names) > 1:
        deadline += RUN_LIMIT_S * (len(names) - 1)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, seconds, bool(args.trace), deadline, spec)
            attempted, failed = attempted + a, failed + f
            metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
