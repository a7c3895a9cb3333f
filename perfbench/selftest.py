"""Self-test of the harness at small sizes (K = 32, M = 64); about a minute.

    python3 perfbench/selftest.py

For every workload it checks that
- the untraced and the traced run produce every metric BENCHMARK.json
  names, as finite numbers, and every operation passes its checks;
- the traced counts are the exact ones the sizes imply;
- with one checked coefficient perturbed by 1e-6 (on ccm-diagnostics-cli,
  with the CLI's --corrupt-bounds switch) every operation counts as failed.
Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run

SEED = 7
SECONDS = 1.0
K = 32  # the small K of the scheme workloads, see workloads.WORKLOADS

EXACT = {
    "bo-constant-apply": {"propagator.decompositions": 1, "propagator.cache_hits": K - 2,
                          "propagator.apply_group_many.calls": K - 1,
                          "spectral.synthesize.calls": 0},
    "ccm-staircase-decomp": {"propagator.decompositions": K - 1,
                             "propagator.eig_hermitian.calls": K - 1,
                             "lax.build.calls": K - 1, "spectral.synthesize.calls": 0},
    # half-staircase builds n = K/2 and n = 0, linear-case n = 0; 4 panels x 2
    "talbot-cli": {"propagator.decompositions": 3, "spectral.synthesize.calls": 8},
    "ccm-diagnostics-cli": {"propagator.decompositions": 0, "scheme.run_scheme.s": 0,
                            "spectral.synthesize.calls": 0},
}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            deadline = time.monotonic() + run.RUN_LIMIT_S
            attempted, failed, metrics = run.run_workload(
                name, SEED, SECONDS, trace, deadline, spec, small=True)
            tag = f"{name} trace {int(trace)}"
            named = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(metrics) != named:
                problems.append(f"{tag}: metrics {sorted(set(metrics) ^ named)} differ")
            problems += [f"{tag}: {k} = {m['value']!r}" for k, m in metrics.items()
                         if not math.isfinite(m["value"])]
            if failed:
                problems.append(f"{tag}: {failed} of {attempted} clean operations failed")
            if trace:
                problems += [f"{tag}: {k} = {metrics[k]['value']}, expected {v}"
                             for k, v in EXACT[name].items() if metrics[k]["value"] != v]
        deadline = time.monotonic() + run.RUN_LIMIT_S
        attempted, failed, _ = run.run_workload(
            name, SEED, SECONDS, False, deadline, spec, small=True, perturb=True)
        if failed != attempted:
            problems.append(f"{name}: {attempted - failed} of {attempted} perturbed "
                            "operations passed their checks")
    for msg in problems:
        print(f"SELFTEST FAIL {msg}")
    print("SELFTEST " + ("FAILED" if problems else "PASSED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
