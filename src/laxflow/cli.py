"""Command-line front end: evolve / talbot / convergence / diagnostics.

Runs are configured through flags or a JSON config file (flags win), emit
plot-ready CSV data plus a manifest that records the effective config, the
eigendecomposition count and the sha256 digest of every file written, so a
manifest alone suffices to reproduce a run.

Exit codes: 0 ok, 1 check failure, 2 config error.  `main` maps a
`RuntimeError`, which the library raises when a check on the run fails
(no CCM kappa0 up to 2^20, an eigendecomposition failing its checks, a
failed reference run), to exit 1 with `check failure: <reason>` on stderr,
and `ConfigError`, `ValueError`, `TypeError`, `MemoryError` (`out of
memory: `) and `OSError` (an output directory that cannot be made or
written) to exit 2 with `config error: <reason>`.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import sys
import time
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from .lax import EQUATIONS, Equation
from .scheme import SCHEDULE_KINDS, SchemeConfig, make_schedule, run_scheme
from .spectral import InitialProfile, analyze_profile, sample_grid

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- parsing

_TIME_NAMES = {"pi": math.pi, "sqrt2": math.sqrt(2.0)}


def parse_time_expr(expr) -> float:
    """Parse a time value; strings may use pi, sqrt2, sqrt() and arithmetic.

    Booleans are not times, though Python counts them as integers.
    """
    if isinstance(expr, bool):
        raise ConfigError(f"time {expr!r} is not a number")
    if isinstance(expr, (int, float)):
        return float(expr)
    # deep nesting overflows the parser as RecursionError or MemoryError
    try:
        node = ast.parse(str(expr), mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"cannot parse time {expr!r}") from exc

    def ev(n):
        if (isinstance(n, ast.Constant) and isinstance(n.value, (int, float))
                and not isinstance(n.value, bool)):
            return float(n.value)
        if isinstance(n, ast.Name) and n.id in _TIME_NAMES:
            return _TIME_NAMES[n.id]
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
            v = ev(n.operand)
            return -v if isinstance(n.op, ast.USub) else v
        if isinstance(n, ast.BinOp):
            a, b = ev(n.left), ev(n.right)
            if isinstance(n.op, ast.Add):
                return a + b
            if isinstance(n.op, ast.Sub):
                return a - b
            if isinstance(n.op, ast.Mult):
                return a * b
            if isinstance(n.op, ast.Div):
                return a / b
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "sqrt"
                and len(n.args) == 1 and not n.keywords):
            return math.sqrt(ev(n.args[0]))
        raise ConfigError(f"unsupported expression in time {expr!r}")

    try:
        return ev(node)
    except (ZeroDivisionError, OverflowError, ValueError, RecursionError) as exc:
        # ValueError: sqrt of a negative number
        raise ConfigError(f"cannot evaluate time {expr!r}: {exc}") from exc


def parse_profile(spec) -> InitialProfile:
    """Parse "square-wave", "single-mode:k0=3,amplitude=0.2", etc.

    The text after the colon is read as the keywords of one call, each value
    a Python literal, so "explicit:coeffs=[0,0.1,0.2j]" works; a repeated key
    is a config error.
    """
    if isinstance(spec, dict):
        kind = spec.get("kind")
        params = {k: v for k, v in spec.items() if k != "kind"}
    else:
        kind, _, rest = str(spec).partition(":")
        params = {}
        if rest:
            # the newline ends any comment, so "s=1)#" cannot close the call early
            try:
                call = ast.parse(f"f({rest}\n)", mode="eval").body
            except (ValueError, SyntaxError, MemoryError, RecursionError) as exc:
                raise ConfigError(f"bad profile parameters {rest!r}") from exc
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and not call.args and all(kw.arg for kw in call.keywords)):
                raise ConfigError(f"profile parameters must be key=value pairs, got {rest!r}")
            for kw in call.keywords:
                if kw.arg in params:
                    raise ConfigError(f"repeated profile parameter {kw.arg!r}")
                try:
                    params[kw.arg] = ast.literal_eval(kw.value)
                except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
                    raise ConfigError(f"bad profile parameter {kw.arg!r}") from exc
    try:
        return InitialProfile(kind, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_schedule(spec, K: int):
    try:
        if isinstance(spec, (list, tuple)):
            return make_schedule("custom", K, list(spec))
        kind, _, rest = str(spec).partition(":")
        if kind == "custom":
            values = [int(v) for v in rest.split(",")]
            return make_schedule("custom", K, values)
        if kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule {kind!r}")
        return make_schedule(kind, K)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad schedule {spec!r}: {exc}") from exc


# ---------------------------------------------------------------- output

_FLOAT = "%.17g"  # the one float format of every CSV


def write_csv(path: Path, header, rows) -> None:
    """Floats as %.17g, other cells as str(), through one % template per file.

    A column of floats alone is %.17g in the template, any other %s with its
    float cells formatted first, so no Python code runs per cell of a column
    of one type.  Rows must be of one length.
    """
    cols = list(zip(*rows, strict=True))
    formats = []
    for i, col in enumerate(cols):
        floats = [issubclass(c, float) for c in set(map(type, col))]
        formats.append(_FLOAT if all(floats) else "%s")
        if any(floats) and not all(floats):
            cols[i] = [_FLOAT % v if isinstance(v, float) else v for v in col]
    lines = (",".join(formats) + "\n") * (len(cols[0]) if cols else 0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(lines % tuple(chain.from_iterable(zip(*cols))))


def _float_column(values) -> list:
    """values as write_csv writes floats, for a column that a file repeats."""
    return list(map(_FLOAT.__mod__, np.asarray(values, dtype=float).tolist()))


def write_coefficients(path: Path, times, coeffs) -> None:
    """The (t, k, re, im) rows of coeffs[i, k] = uhat(times[i], k)."""
    K = coeffs.shape[1]
    write_csv(path, ("t", "k", "re", "im"),
              zip([t for t in _float_column(times) for _ in range(K)],
                  list(map(str, range(K))) * len(coeffs),
                  coeffs.real.ravel().tolist(), coeffs.imag.ravel().tolist()))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(outdir: Path, config: dict, extra: dict, files) -> Path:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "laxflow_version": __version__,
        "config": config,
        **extra,
        "files": {f.name: _sha256(f) for f in files},
    }
    path = outdir / "manifest.json"
    tmp = outdir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def _resolve_times(args) -> np.ndarray:
    if args.times is not None:  # "" is no time, not the --T grid
        return np.array([parse_time_expr(t) for t in args.times.split(";")])
    T = float(args.T)
    return np.linspace(-T, T, int(args.grid_points))


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cache_counters(*results) -> dict:
    """A manifest's decomposition and cache counters, summed over the runs."""
    caches = [r.cache for r in results]
    return {
        "decompositions": sum(r.decompositions for r in results),
        "derived_decompositions": sum(c.derived for c in caches),
        "certified_decompositions": sum(c.certified for c in caches),
        "fallbacks": sum(c.fallbacks for c in caches),
        "secular_steps": sum(c.secular_steps for c in caches),
        "evictions": sum(c.evictions for c in caches),
        "cache_bytes": sum(c.nbytes for c in caches),
    }


# ---------------------------------------------------------------- commands

def cmd_evolve(args) -> int:
    K = int(args.K)
    times = _resolve_times(args)
    schedule = parse_schedule(args.schedule, K)
    profile = parse_profile(args.profile)
    cfg = SchemeConfig(args.equation, schedule, times, profile,
                       override_focusing_threshold=args.override_focusing_threshold)
    t0 = time.perf_counter()
    result = run_scheme(cfg)
    wall = time.perf_counter() - t0

    out = _outdir(args)
    write_coefficients(out / "coefficients.csv", result.times, result.coeffs)
    values = []
    for t in result.times:
        fld = result.real_spectrum(t) if args.equation == "BO" else result.hardy(t)
        xs, vals = sample_grid(fld, K)
        values += vals.real.tolist()
    xcol = _float_column(xs)  # one grid for every t
    write_csv(out / "samples.csv", ("t", "x", "value"),
              zip([t for t in _float_column(result.times) for _ in xcol],
                  xcol * len(result.times), values))

    files = [out / "coefficients.csv", out / "samples.csv"]
    write_manifest(out, _config_echo(args), {
        **_cache_counters(result),
        "wall_time_s": wall,
        "l2_preserving_schedule": schedule.l2_preserving,
        "n0_zero": bool(schedule.values[0] == 0),
        "data_digest": result.data_digest,
    }, files)
    return 0


TALBOT_TIMES = ("pi/2", "pi/3", "pi/6", "sqrt2*pi")


def cmd_talbot(args) -> int:
    if args.equation != "BO":
        raise ConfigError("the Talbot experiment is defined for the BO equation")
    K = int(args.K)
    time_exprs = args.times.split(";") if args.times is not None else list(TALBOT_TIMES)
    times = np.array([parse_time_expr(t) for t in time_exprs])
    profile = parse_profile(args.profile)

    t0 = time.perf_counter()
    nonlinear = run_scheme(SchemeConfig("BO", parse_schedule(args.schedule, K), times, profile))
    linear = run_scheme(SchemeConfig("BO", make_schedule("linear-case", K), times, profile))
    wall = time.perf_counter() - t0

    out = _outdir(args)
    files, xcol = [], None
    for i, t in enumerate(times):
        for tag, result in (("nonlinear", nonlinear), ("linear", linear)):
            xs, vals = sample_grid(result.real_spectrum(t), K)
            xcol = xcol or _float_column(xs)  # one grid for every panel
            path = out / f"talbot_{i}_{tag}.csv"
            write_csv(path, ("x", "value"), zip(xcol, vals.real.tolist()))
            files.append(path)
    for tag, result in (("nonlinear", nonlinear), ("linear", linear)):
        path = out / f"coefficients_{tag}.csv"
        write_coefficients(path, result.times, result.coeffs)
        files.append(path)

    write_manifest(out, _config_echo(args, times=time_exprs), {
        **_cache_counters(nonlinear, linear),
        "wall_time_s": wall,
        "panels": len(times),
    }, files)
    return 0


def cmd_convergence(args) -> int:
    Ks = [int(k) for k in args.Ks.split(",")]
    profile = parse_profile(args.profile)
    t0 = time.perf_counter()
    table = diag.run_convergence_study(
        profile, args.equation, Ks, args.schedule, float(args.T),
        int(args.grid_points), int(args.kref), check=False,
    )
    wall = time.perf_counter() - t0
    slope = diag.fit_rate(table) if len(table.rows) >= 4 else None
    out = _outdir(args)

    write_csv(out / "table.csv",
              ("K", "schedule", "error", "norm_diff", "decompositions"),
              [(r.K, r.kind, r.error, r.norm_diff, r.decompositions)
               for r in table.rows])
    monotone = all(b.error <= a.error + 1e-12 for a, b in zip(table.rows, table.rows[1:]))
    norm_bounded = all(r.norm_diff <= r.error + 1e-12 for r in table.rows)
    summary = {
        "slope": slope,
        "monotone": monotone,
        "norm_diff_bounded_by_error": norm_bounded,
        "K_ref": table.K_ref,
        "T": table.T,
        "equation": table.equation,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    files = [out / "table.csv", out / "summary.json"]
    write_manifest(out, _config_echo(args), {"wall_time_s": wall, "checks": summary}, files)
    return 0 if (monotone and norm_bounded) else 1


def cmd_diagnostics(args) -> int:
    M = int(args.M)
    # the strictest suite's rule (the propagator sweep's), checked before any suite runs
    if M < 64 or M & (M - 1):
        raise ConfigError("M must be a power of two >= 64")
    diag._check_memory(M)
    eq = Equation.named(args.equation)
    profile = parse_profile(args.profile)
    u0 = analyze_profile(profile, M, hardy=eq.hardy)
    kappas = [float(k) for k in args.kappas.split(",")]
    ns = [2**e for e in range(0, int(math.log2(M)) + 1)]

    t0 = time.perf_counter()
    # one suite after another, BLAS already uses every core; all three read
    # one spectral context, so each quantity is computed once
    spectra = diag._Spectra(u0, eq, M)
    reports = diag.run_bound_suite(u0, args.equation, M, kappas, ns, seed=int(args.seed),
                                   spectra=spectra)
    res_rows = diag.run_resolvent_convergence(u0, args.equation, M, spectra=spectra)
    sweep_failed = False
    try:
        sweep_rows = diag.run_propagator_sweep(u0, args.equation, M, float(args.T),
                                               spectra=spectra)
    except RuntimeError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        sweep_rows, sweep_failed = [], True
    if args.corrupt_bounds:
        # harness self-test: a zeroed bound must be reported as a failure
        reports = [diag.BoundReport(r.name, r.params, r.measured, 0.0) for r in reports]
    wall = time.perf_counter() - t0

    out = _outdir(args)
    write_csv(out / "bounds.csv", ("name", "n", "kappa", "measured", "bound", "pass"),
              [(r.name, r.params.get("n", ""), r.params.get("kappa", ""),
                r.measured, r.bound, r.passed) for r in reports])
    write_csv(out / "resolvent.csv", ("n", "measured", "bound", "pass"),
              [(r.n, r.measured, r.bound, r.passed) for r in res_rows])
    write_csv(out / "propagator_sweep.csv", ("n", "sup_error"), sweep_rows)

    summary = {
        "bounds_pass": all(r.passed for r in reports),
        "resolvent_pass": all(r.passed for r in res_rows),
        "propagator_sweep_pass": not sweep_failed,
        "kappa0": spectra.kappa0,
        "kappa0_method": "formula" if eq.family == "BO" else "search",
        "failed": sorted({r.name for r in reports if not r.passed}),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    files = [out / "bounds.csv", out / "resolvent.csv",
             out / "propagator_sweep.csv", out / "summary.json"]
    write_manifest(out, _config_echo(args), {"wall_time_s": wall, "checks": summary}, files)
    return 0 if summary["bounds_pass"] and summary["resolvent_pass"] and not sweep_failed else 1


# ---------------------------------------------------------------- wiring

def _config_echo(args, **overrides) -> dict:
    echo = {k: v for k, v in vars(args).items()
            if k not in ("func", "config") and v is not None}
    echo.update(overrides)
    echo["schema_version"] = SCHEMA_VERSION
    return echo


# the JSON types a config file must use where the command line fixes one
_INT_FIELDS = ("K", "M", "seed", "kref", "grid_points")
_BOOL_FIELDS = ("override_focusing_threshold", "corrupt_bounds")


def _apply_config_file(args, argv) -> None:
    if not args.config:
        return
    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {args.config} must hold a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    # true == 1 in Python, but it is no version number
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")
    if data.get("command", args.command) != args.command:
        raise ConfigError(f"config is for command {data['command']!r}, not {args.command!r}")
    passed = {a.split("=", 1)[0].lstrip("-").replace("-", "_")
              for a in argv if a.startswith("--")}
    # the command's flags; func, config and command are not settable
    fields = set(vars(args)) - {"func", "config", "command"}
    for key, val in data.items():
        if key in ("schema_version", "command"):
            continue
        if key not in fields:
            raise ConfigError(f"unknown config field {key!r}")
        # a manifest echoes talbot's times as a list of strings
        if key == "times" and isinstance(val, list) and all(isinstance(t, str) for t in val):
            val = ";".join(val)
        # the list flags are separated strings in a file as on the command line
        if key in ("times", "Ks", "kappas") and not isinstance(val, str):
            raise ConfigError(f"config field {key!r} must be a string, got {val!r}")
        if key in _INT_FIELDS and (isinstance(val, bool) or not isinstance(val, int)):
            raise ConfigError(f"config field {key!r} must be an integer, got {val!r}")
        if key in _BOOL_FIELDS and not isinstance(val, bool):
            raise ConfigError(f"config field {key!r} must be true or false, got {val!r}")
        # explicit CLI flags win over the config file
        if key not in passed:
            setattr(args, key, val)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="laxflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # the flags some commands read; each command takes only those it reads
    optional = {
        "--K": {"type": int},
        "--seed": {"default": 0, "type": int},
        "--T": {"default": 1.0},
        "--grid-points": {"dest": "grid_points", "default": 41, "type": int},
        "--times": {"help": "semicolon-separated, e.g. 'pi/2;sqrt2*pi'"},
    }

    def command(name, func, flags, summary, **defaults):
        # full names only: --K is not --Ks, and the config merge matches flags by name
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--equation", default="BO", choices=list(EQUATIONS))
        sp.add_argument("--profile", default="square-wave")
        sp.add_argument("--out", default="laxflow-out")
        for flag in flags:
            sp.add_argument(flag, **optional[flag])
        sp.set_defaults(func=func, **defaults)
        return sp

    ev = command("evolve", cmd_evolve, ("--K", "--T", "--grid-points", "--times"),
                 "run the scheme and emit coefficients/samples", K=64)
    ev.add_argument("--schedule", default="constant")
    ev.add_argument("--override-focusing-threshold", action="store_true")

    tb = command("talbot", cmd_talbot, ("--K", "--times"),
                 "square-wave Talbot panels, linear vs nonlinear", K=1 << 10)
    tb.add_argument("--schedule", default="half-staircase")

    cv = command("convergence", cmd_convergence, ("--T", "--grid-points"),
                 "error table against a reference run")
    cv.add_argument("--schedule", default="constant")
    cv.add_argument("--Ks", default="16,32,64,128")
    cv.add_argument("--kref", default=1024, type=int)

    dg = command("diagnostics", cmd_diagnostics, ("--seed", "--T"),
                 "operator-bound and convergence suites",
                 profile="random-sobolev:s=1,seed=0,norm=1")
    dg.add_argument("--M", default=128, type=int)
    dg.add_argument("--kappas", default="1,10,100")
    dg.add_argument("--corrupt-bounds", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, argv)
        if hasattr(args, "T"):
            args.T = parse_time_expr(args.T)
            if not math.isfinite(2.0 * args.T):
                raise ConfigError(f"T and the width 2T of [-T, T] must be finite; got {args.T!r}")
        return args.func(args)
    except (ConfigError, ValueError, TypeError, MemoryError, OSError) as exc:
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"config error: {oom}{exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
