"""The four workloads: what one operation is, and how its output is checked.

Every operation draws fresh data from (benchmark seed, operation index), so
no state left by one operation (a cached decomposition, say) can serve a
later one. `make` builds an operation outside the timed region, `run` is the
timed call into laxflow, looked up through the module attribute so that the
traced run sees it, and `check` runs after the timer has stopped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import laxflow.cli
import laxflow.scheme
import laxflow.spectral

import checks

PERTURBATION = 1e-6  # added to one checked coefficient in the harness self-test


def op_seed(seed, index):
    """Data seed of one operation: a hash of (benchmark seed, operation index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Op:
    index: int
    data_seed: int
    call: object  # the SchemeConfig, or the CLI's argv
    outdir: Path = None


class Workload:
    perturb = False  # set by the harness self-test, which expects every check to fail


class SchemeRun(Workload):
    """One `run_scheme` call: one equation, schedule, time grid and data family."""

    def __init__(self, equation, kind, K, times, s, norm):
        self.equation, self.kind, self.K = equation, kind, K
        self.times, self.s, self.norm = np.asarray(times, dtype=np.float64), s, norm

    def profile(self, data_seed):
        return laxflow.spectral.InitialProfile(
            "random-sobolev", {"s": self.s, "seed": data_seed, "norm": self.norm})

    def make(self, seed, index, outdir):
        data_seed = op_seed(seed, index)
        cfg = laxflow.scheme.SchemeConfig(
            self.equation, laxflow.scheme.make_schedule(self.kind, self.K),
            self.times, self.profile(data_seed))
        return Op(index, data_seed, cfg)

    def run(self, op):
        return laxflow.scheme.run_scheme(op.call)

    def check(self, op, out):
        bo = self.equation == "BO"
        u0 = laxflow.spectral.analyze_profile(self.profile(op.data_seed), self.K, hardy=not bo)
        hardy = u0.hardy_part() if bo else u0.padded(self.K)
        at = op.index % len(self.times)
        coeffs = out.coeffs.copy()
        if self.perturb:
            coeffs[at, 1] += PERTURBATION
        return checks.scheme_output(coeffs, out.times, hardy, self.equation,
                                    op.call.schedule.values, at, out.final_iterate)

    def repeat_check(self, op, rerun_dir):
        return []


class CliRun(Workload):
    """One `laxflow.cli.main([...])` invocation writing into its own directory."""

    def make(self, seed, index, outdir):
        data_seed = op_seed(seed, index)
        return Op(index, data_seed, self.argv(data_seed, outdir), outdir)

    def run(self, op):
        return laxflow.cli.main(op.call)

    def repeat_check(self, op, rerun_dir):
        """Run the operation again into another directory: the CSV digests must agree."""
        first, fails = checks.manifest_digests(op.outdir)
        argv = op.call[:-1] + [str(rerun_dir)]
        if laxflow.cli.main(argv) != 0:
            return fails + ["the repeated run failed"]
        second, _ = checks.manifest_digests(rerun_dir)
        csvs = sorted(n for n in first if n.endswith(".csv"))
        if not csvs or any(first[n] != second.get(n) for n in csvs):
            fails.append("CSV digests differ between two runs of identical inputs")
        return fails


class TalbotCli(CliRun):
    def __init__(self, K):
        self.K = K

    def spec(self, data_seed):
        return f"random-sobolev:s=0.5,seed={data_seed},norm=1"

    def argv(self, data_seed, outdir):
        return ["talbot", "--K", str(self.K), "--profile", self.spec(data_seed),
                "--out", str(outdir)]

    def check(self, op, rc):
        if rc != 0:
            return [f"talbot exited with {rc}"]
        K, out = self.K, op.outdir
        profile = laxflow.cli.parse_profile(self.spec(op.data_seed))
        u0 = laxflow.spectral.analyze_profile(profile, K)
        hardy = u0.hardy_part()
        _, fails = checks.manifest_digests(out)

        times, linear = checks.read_coefficients(out / "coefficients_linear.csv", K)
        for t, c in zip(times, linear):
            err = np.max(np.abs(c - checks.free_flow(hardy, t)))
            if err > checks.FREE_FLOW_TOL:
                fails.append(f"linear coefficients off the free flow by {err:.3e} at t={t!r}")
        # a sample sums 2K - 1 coefficients, each within the coefficient tolerance
        sample_tol = checks.FREE_FLOW_TOL * (2 * K - 1)
        exprs = json.loads((out / "manifest.json").read_text())["config"]["times"]
        for i, expr in enumerate(exprs):
            t = laxflow.cli.parse_time_expr(expr)
            xs, vals = np.loadtxt(out / f"talbot_{i}_linear.csv", delimiter=",",
                                  skiprows=1, unpack=True)
            err = np.max(np.abs(vals - checks.real_samples(checks.free_flow(hardy, t), xs)))
            if err > sample_tol:
                fails.append(f"linear panel {i} off the free flow by {err:.3e}")

        times, nonlinear = checks.read_coefficients(out / "coefficients_nonlinear.csv", K)
        at = op.index % len(times)
        if self.perturb:
            nonlinear[at, 1] += PERTURBATION
        k = np.arange(K)
        half = np.where(k <= K // 2, K // 2, 0)  # the talbot default schedule
        return fails + checks.scheme_output(nonlinear, times, hardy, "BO", half, at)


class DiagnosticsCli(CliRun):
    def __init__(self, M):
        self.M = M

    def argv(self, data_seed, outdir):
        argv = ["diagnostics", "--M", str(self.M), "--equation", "CCM-defocusing",
                "--seed", str(data_seed),
                "--profile", f"random-sobolev:s=1,seed={data_seed},norm=1"]
        if self.perturb:
            argv.append("--corrupt-bounds")  # the CLI's own self-test switch
        return argv + ["--out", str(outdir)]

    def check(self, op, rc):
        fails = [] if rc == 0 else [f"diagnostics exited with {rc}"]
        summary = json.loads((op.outdir / "summary.json").read_text())
        for key in ("bounds_pass", "resolvent_pass", "propagator_sweep_pass"):
            if summary.get(key) is not True:
                fails.append(f"diagnostics summary has {key} = {summary.get(key)!r}")
        return fails + checks.manifest_digests(op.outdir)[1]


TALBOT = tuple(laxflow.cli.parse_time_expr(e) for e in ("pi/2", "pi/3", "pi/6", "sqrt2*pi"))

# name -> (full-size workload, small workload for the harness self-test);
# BENCHMARK.json and README.md say why each was chosen
WORKLOADS = {
    "bo-constant-apply": (
        lambda: SchemeRun("BO", "constant", 512, np.linspace(-math.pi, math.pi, 41), 1.0, 0.5),
        lambda: SchemeRun("BO", "constant", 32, np.linspace(-math.pi, math.pi, 41), 1.0, 0.5),
    ),
    "ccm-staircase-decomp": (
        lambda: SchemeRun("CCM-defocusing", "full-staircase", 256, TALBOT, 1.0, 0.5),
        lambda: SchemeRun("CCM-defocusing", "full-staircase", 32, TALBOT, 1.0, 0.5),
    ),
    "talbot-cli": (lambda: TalbotCli(512), lambda: TalbotCli(32)),
    "ccm-diagnostics-cli": (lambda: DiagnosticsCli(256), lambda: DiagnosticsCli(64)),
}
