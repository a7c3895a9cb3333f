import builtins
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laxflow
from laxflow import diagnostics as diag
from laxflow.cli import (
    TALBOT_TIMES,
    ConfigError,
    main,
    parse_profile,
    parse_schedule,
    coefficient_table,
    parse_time_expr,
    write_csv,
)
from laxflow.diagnostics import find_kappa_zero
from laxflow.scheme import SCHEDULE_KINDS, SchemeConfig, make_schedule, run_scheme
from laxflow.spectral import sample_grid

# Each parser is fuzzed with arbitrary text and with text from its own
# grammar, which gets past the first syntax check and into the evaluation.
_atoms = st.one_of(
    st.sampled_from(["pi", "sqrt2", "x", "1e400", "1j", "True", "'a'", "None", "[]"]),
    st.integers().map(str),
    st.floats(allow_nan=False).map(repr),
)
_time_exprs = st.recursive(_atoms, lambda e: st.one_of(
    st.tuples(e, st.sampled_from("+-*/%"), e).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
    st.tuples(st.sampled_from("-+~"), e).map("".join),
    st.tuples(st.sampled_from(["sqrt", "exp", "pi"]), st.lists(e, max_size=3))
      .map(lambda t: f"{t[0]}({', '.join(t[1])})"),
), max_leaves=8)
_profile_values = st.one_of(_time_exprs, st.sampled_from(["{[]: 1}", "[1, 2]", "(", ""]))
_profiles = st.tuples(
    st.sampled_from(["explicit", "square-wave", "single-mode", "random-sobolev", "x"]),
    st.lists(st.tuples(st.sampled_from(["k0", "s", "seed", "sed", "norm", "coeffs",
                                        "amplitude"]),
                       _profile_values).map("=".join), max_size=3).map(",".join),
).map(lambda t: f"{t[0]}:{t[1]}" if t[1] else t[0])
# (spec, K); a custom list mostly has the K values it needs
_schedules = st.one_of(
    st.tuples(st.one_of(st.text(max_size=40), st.sampled_from(
        ["constant", "linear-case", "half-staircase", "full-staircase", "custom"])),
        st.integers(-2, 6)),
    # values past int64 included: the schedule stores int64
    st.lists(st.one_of(st.integers(-10, 10), st.integers(2**63, 2**70),
                       st.integers(-2**70, -2**63 - 1)).map(str) | _atoms,
             max_size=6).flatmap(
        lambda v: st.tuples(st.just("custom:" + ",".join(v)),
                            st.sampled_from([len(v), len(v) + 1]))),
)


class TestParsing:
    def test_time_expressions(self):
        assert parse_time_expr("pi/2") == pytest.approx(math.pi / 2)
        assert parse_time_expr("sqrt2*pi") == pytest.approx(math.sqrt(2) * math.pi)
        assert parse_time_expr("sqrt(2)*pi") == pytest.approx(math.sqrt(2) * math.pi)
        assert parse_time_expr("-pi/6+1") == pytest.approx(1 - math.pi / 6)
        assert parse_time_expr(1.5) == 1.5
        assert parse_time_expr("3") == 3.0

    def test_time_rejects_junk(self):
        for bad in ("pi**2", "__import__('os')", "t", "1;2", "exp(1)",
                    "True*pi", "False", True, False):
            with pytest.raises(ConfigError):
                parse_time_expr(bad)

    def test_time_arithmetic_errors_are_config_errors(self):
        for bad in ("1/0", "pi/(1-1)", "1" + "0" * 400):
            with pytest.raises(ConfigError):
                parse_time_expr(bad)

    def test_profile_strings(self):
        p = parse_profile("single-mode:k0=3,amplitude=0.2")
        assert p.kind == "single-mode"
        assert p.params == {"k0": 3, "amplitude": 0.2}
        assert parse_profile("square-wave").params == {}
        q = parse_profile({"kind": "random-sobolev", "s": 1.0, "seed": 7})
        assert q.params == {"s": 1.0, "seed": 7}

    def test_profile_list_values(self, tmp_path):
        # the items were split at every comma: "bad profile parameter 'coeffs=[0'"
        spec = "explicit:coeffs=[0,0.1,0.2j]"
        assert parse_profile(spec).params == {"coeffs": [0, 0.1, 0.2j]}
        assert main(["evolve", "--K", "4", "--times", "0", "--profile", spec,
                     "--out", str(tmp_path / "x")]) == 0

    def test_profile_repeated_key_is_config_error(self):
        # ran s=2
        with pytest.raises(ConfigError, match="repeated"):
            parse_profile("random-sobolev:s=1,s=2")

    def test_profile_rejects_junk(self):
        with pytest.raises(ConfigError):
            parse_profile("single-mode:k0")
        with pytest.raises(ConfigError):
            parse_profile("soliton")

    @pytest.mark.parametrize("bad", ["sqrt()", "sqrt(1, 2)", "sqrt(x=1)", "sqrt(-1)",
                                     "-" * 5000 + "1", "-" * 200000 + "1"])
    def test_malformed_time_is_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_time_expr(bad)

    @pytest.mark.parametrize("spec", ["random-sobolev", "random-sobolev:seed=1",
                                      "single-mode", "single-mode:amplitude=0.5",
                                      "explicit", "single-mode:k0=1e400",
                                      {"s": 1.0}, {"kind": "single-mode"}])
    def test_profile_without_required_parameter(self, spec):
        with pytest.raises(ConfigError):
            parse_profile(spec)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=40), _time_exprs))
    def test_time_parser_raises_only_config_errors(self, text):
        try:
            parse_time_expr(text)
        except ConfigError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=40), _profiles))
    def test_profile_parser_raises_only_config_errors(self, text):
        try:
            parse_profile(text)
        except ConfigError:
            pass

    @pytest.mark.filterwarnings("ignore:schedule has n\\(0\\) = 0")
    @settings(max_examples=300, deadline=None)
    @given(_schedules)
    def test_schedule_parser_raises_only_config_errors(self, spec_and_K):
        try:
            parse_schedule(*spec_and_K)
        except ConfigError:
            pass

    def test_schedule_strings(self):
        s = parse_schedule("custom:3,2,1", 3)
        np.testing.assert_array_equal(s.values, [3, 2, 1])
        assert parse_schedule("half-staircase", 8).values[0] == 4
        with pytest.raises(ConfigError):
            parse_schedule("custom:1,2", 3)
        with pytest.raises(ConfigError):
            parse_schedule("bogus", 3)


def manifest_of(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def per_cell_csv(header, rows):
    """A CSV formatted cell by cell: '{:.17g}' for a float, str() for the rest."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def coefficient_csv(result):
    return per_cell_csv(("t", "k", "re", "im"),
                        [(float(t), k, float(c.real), float(c.imag))
                         for t, row in zip(result.times, result.coeffs)
                         for k, c in enumerate(row)])


def sample_rows(field, K):
    xs, vals = sample_grid(field, K)
    return [(float(x), float(v.real)) for x, v in zip(xs, vals)]


class TestEvolve:
    def test_end_to_end_with_manifest(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["evolve", "--K", "16", "--times", "0;pi/2", "--out", str(out),
                   "--profile", "single-mode:k0=1,amplitude=0.3"])
        assert rc == 0
        m = manifest_of(out)
        assert m["schema_version"] == 1
        assert set(m["files"]) == {"coefficients.csv", "samples.csv"}
        for name, digest in m["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        header, *rows = (out / "coefficients.csv").read_text().splitlines()
        assert header == "t,k,re,im"
        assert len(rows) == 2 * 16

    def test_runtime_error_is_a_check_failure(self, tmp_path, capsys, monkeypatch):
        def failing(cfg):
            raise RuntimeError("eigensolver failed")

        monkeypatch.setattr(laxflow.cli, "run_scheme", failing)
        assert main(["evolve", "--K", "8", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "check failure: eigensolver failed\n"

    def test_memory_error_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def failing(cfg):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(laxflow.cli, "run_scheme", failing)
        assert main(["evolve", "--K", "8", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["evolve", "--K", "24", "--T", "1", "--grid-points", "11",
                "--profile", "random-sobolev:s=1,seed=3,norm=0.5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for name in ("coefficients.csv", "samples.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_full_staircase_derived_and_byte_identical(self, tmp_path):
        argv = ["evolve", "--K", "32", "--schedule", "full-staircase", "--T", "1",
                "--grid-points", "5", "--equation", "CCM-defocusing",
                "--profile", "random-sobolev:s=1,seed=3,norm=0.5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for name in ("coefficients.csv", "samples.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        m = manifest_of(a)
        assert (m["decompositions"], m["derived_decompositions"], m["fallbacks"]) == (31, 30, 0)
        # a derived decomposition is accepted on its certificate: no separate count
        assert "certified_decompositions" not in m

    @pytest.mark.parametrize("budget, evictions", [(16 << 20, 0), (0, 15)])
    def test_manifest_reports_cache_evictions_and_bytes(self, tmp_path, monkeypatch,
                                                        budget, evictions):
        # K = 16 full staircase: n = 15..1, each 16 n^2 + 8 n bytes
        monkeypatch.setattr(laxflow.propagator, "_CACHE_BUDGET", budget)
        out = tmp_path / "run"
        assert main(["evolve", "--K", "16", "--schedule", "full-staircase", "--times", "1",
                     "--out", str(out)]) == 0
        m = manifest_of(out)
        kept = sum(16 * n * n + 8 * n for n in range(1, 16)) if budget else 0
        assert (m["evictions"], m["cache_bytes"]) == (evictions, kept)

    def test_manifest_reports_secular_steps_and_fallbacks(self, tmp_path):
        # a full staircase derives every decomposition but the first; a
        # constant datum makes every block diagonal, so each falls back to eigh
        for argv, fallbacks in ((["--equation", "CCM-defocusing",
                                  "--profile", "random-sobolev:s=1,seed=3,norm=0.5"], 0),
                                (["--profile", "single-mode:k0=0,amplitude=0.3"], 14)):
            out = tmp_path / str(fallbacks)
            assert main(["evolve", "--K", "16", "--schedule", "full-staircase",
                         "--times", "1", "--out", str(out)] + argv) == 0
            m = manifest_of(out)
            cfg = m["config"]
            ref = run_scheme(SchemeConfig(cfg["equation"], make_schedule("full-staircase", 16),
                                          [1.0], parse_profile(cfg["profile"]))).cache
            assert (m["fallbacks"], m["secular_steps"]) == (fallbacks, ref.secular_steps)
            assert (m["secular_steps"] > 0) == (fallbacks == 0)

    def test_time_zero_reproduces_datum(self, tmp_path):
        out = tmp_path / "run"
        main(["evolve", "--K", "8", "--times", "0", "--out", str(out),
              "--profile", "single-mode:k0=2,amplitude=0.25"])
        rows = [r.split(",") for r in
                (out / "coefficients.csv").read_text().splitlines()[1:]]
        by_k = {int(r[1]): complex(float(r[2]), float(r[3])) for r in rows}
        assert by_k[2] == pytest.approx(0.25)
        assert all(abs(by_k[k]) < 1e-14 for k in by_k if k != 2)

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 8, "profile": "single-mode:k0=1", "times": "0"}))
        out = tmp_path / "run"
        rc = main(["evolve", "--config", str(cfg), "--K", "12", "--out", str(out)])
        assert rc == 0
        echo = manifest_of(out)["config"]
        assert echo["K"] == 12  # explicit flag wins
        assert echo["profile"] == "single-mode:k0=1"  # config fills the rest

    def test_config_file_unknown_field(self, tmp_path, capsys):
        # func and config are parser internals, not flags; command must be this one
        for i, config in enumerate([{"flux_capacitor": 1}, {"func": "x"},
                                    {"config": "other.json"}, {"command": "talbot"}]):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"x{i}"
            assert main(["evolve", "--config", str(cfg), "--K", "8", "--times", "0",
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("text", [None, '{"K": 8,'], ids=["missing", "not-json"])
    def test_unreadable_config_file(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "x"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot read config {cfg}" in err and "Traceback" not in err
        assert not out.exists()

    def test_exit_code_2_on_bad_input(self, tmp_path):
        assert main(["evolve", "--profile", "soliton", "--out", str(tmp_path / "x")]) == 2
        assert main(["evolve", "--times", "exp(1)", "--out", str(tmp_path / "y")]) == 2
        # focusing threshold violation is a config error, not a crash
        assert main(["evolve", "--equation", "CCM-focusing", "--K", "8", "--times", "0",
                     "--profile", "random-sobolev:s=1,seed=0,norm=2",
                     "--out", str(tmp_path / "z")]) == 2

    def test_division_by_zero_time_is_config_error(self, tmp_path, capsys):
        assert main(["evolve", "--K", "8", "--times", "1/0",
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    # "" ran the --T grid
    @pytest.mark.parametrize("times", ["1e400", "0;-1e400", pytest.param("", id="empty")])
    def test_non_finite_time_writes_nothing(self, tmp_path, times):
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--times", times, "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_phase_writes_nothing(self, tmp_path, capsys):
        # a finite time whose phase t (1 + 2 lambda) overflows wrote NaN coefficients
        out = tmp_path / "x"
        assert main(["evolve", "--K", "64", "--times", "1e307", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["file", "file/run"])
    def test_output_path_that_cannot_be_a_directory(self, tmp_path, capsys, name):
        # mkdir's FileExistsError and NotADirectoryError escaped main as tracebacks
        (tmp_path / "file").write_text("")
        assert main(["evolve", "--K", "8", "--times", "0", "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_overflowing_eigenvalue_is_not_blamed_on_the_time(self, tmp_path, capsys):
        # the message said "the time is too large"; it names the largest |t|
        # and the largest rate 1 + 2 lambda, here about 1e150 from the data
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--times", "1e300",
                     "--profile", "explicit:coeffs=[1e150]", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "time is too large" not in err
        assert "|t| up to 1e+300 times" in err and "e+150" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_eigendecomposition_is_a_check_failure(self, tmp_path, capsys,
                                                              monkeypatch):
        # eigh gave eigenvalues of -inf on data near 1e308 (now refused as
        # data), and the NaN residual passed the reconstruction check, since
        # NaN > tol is False
        real_eigh = np.linalg.eigh

        def infinite_eigh(a):
            lam, q = real_eigh(a)
            return np.full_like(lam, -np.inf), q

        monkeypatch.setattr(np.linalg, "eigh", infinite_eigh)
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failure: eigendecomposition residual too large")
        assert not out.exists()

    @pytest.mark.parametrize("profile", [
        "random-sobolev:s=-400,seed=1",
        "random-sobolev:s=-1e308,seed=1",
        "random-sobolev:s=1,seed=1,norm=1e308",
        "explicit:coeffs=[1e200,1e200]",
        "explicit:coeffs=[1e200]",
        "single-mode:k0=1,amplitude=1e200",
        "single-mode:k0=1,amplitude=1e308",
    ])
    def test_data_beyond_the_float_range_is_refused(self, tmp_path, capsys, profile):
        # each overflowed with a RuntimeWarning (power, or the norm's dot),
        # an error under this suite's warning filter, before any check
        # refused it; outside it the explicit and single-mode data exited 0,
        # or 1 on the residual at 1e308
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--times", "1", "--profile", profile,
                     "--out", str(out)]) == 2
        kind = profile.split(":")[0]
        assert capsys.readouterr().err.startswith(f"config error: {kind} ")
        assert not out.exists()

    def test_data_with_a_finite_squared_norm_runs(self, tmp_path):
        # 3e300, the squared norm of the real field, is within the float range
        assert main(["evolve", "--K", "8", "--times", "1",
                     "--profile", "explicit:coeffs=[1e150,1e150]",
                     "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("norm", ["1e100", "1e150"])
    def test_large_ccm_data_keeps_its_bounds_finite(self, tmp_path, norm):
        # the bounds' norm was the root of a product, which overflowed with a
        # RuntimeWarning into an infinite bound, and the run still exited 0
        assert main(["evolve", "--K", "8", "--times", "1", "--equation", "CCM-defocusing",
                     "--profile", f"random-sobolev:s=1,seed=1,norm={norm}",
                     "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("argv", [
        ["--times", "sqrt()"],
        ["--times", "0", "--profile", "random-sobolev"],
        ["--times", "0", "--profile", "single-mode"],
        ["--times", "0", "--profile", "explicit"],
        # ran seed 2
        ["--times", "0", "--profile", "random-sobolev:s=1,seed=2.7"],
        # ran seed 0
        ["--times", "0", "--profile", "random-sobolev:s=1,sed=5"],
    ])
    def test_former_crashes_are_config_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("equation", ["BO", "CCM-defocusing"])
    @pytest.mark.parametrize("coeffs", ["5", "[[1,2]]", "'ab'"])
    def test_malformed_explicit_coeffs_named(self, tmp_path, capsys, equation, coeffs):
        # said "len() of unsized object" or "The truth value of an array ..."
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--times", "0", "--equation", equation,
                     "--profile", f"explicit:coeffs={coeffs}", "--out", str(out)]) == 2
        assert "explicit coeffs" in capsys.readouterr().err
        assert not out.exists()

    def test_run_beyond_physical_memory_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: 1 << 10)
        out = tmp_path / "x"
        assert main(["evolve", "--K", "16", "--times", "0;1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    def test_coefficient_writer_matches_write_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        times = np.array([-np.pi, 0.0, 1.0 / 3.0, 2.5e-17])
        coeffs = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        coeffs[1, 2] = -0.0 + 1e300j
        rows = [(float(t), k, float(coeffs[i, k].real), float(coeffs[i, k].imag))
                for i, t in enumerate(times) for k in range(6)]
        write_csv(tmp_path / "a.csv", ("t", "k", "re", "im"), rows)
        write_csv(tmp_path / "b.csv", *coefficient_table(times, coeffs))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_write_csv_bytes_match_per_cell_formatting(self, tmp_path):
        # the former writer: "%.17g" for each float cell, str() for the rest
        def per_cell(header, rows):
            lines = [",".join(header)]
            lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                      for row in rows]
            return "".join(line + "\n" for line in lines).encode()

        rows = [
            ("mult-resolvent", 4, 1.0, -0.0, 1e300, True),
            ("hardy", "", "", 0.1 + 0.2, 2.0, False),
            ("semibound", 128, "", np.float64(-1.5e-300), np.float64(3.0), np.bool_(True)),
            ("x", -7, 2**70, float("inf"), float("-inf"), np.bool_(False)),
            ("{}", np.int64(3), 5e-324, float("nan"), 1.0 / 3.0, "{0:.3g}"),
        ]
        header = ("name", "n", "kappa", "measured", "bound", "pass")
        write_csv(tmp_path / "a.csv", header, rows)
        assert (tmp_path / "a.csv").read_bytes() == per_cell(header, rows)
        write_csv(tmp_path / "b.csv", header, iter([]))
        assert (tmp_path / "b.csv").read_bytes() == per_cell(header, [])
        # a real bounds.csv: n and kappa cells are empty on some rows
        out = tmp_path / "run"
        assert main(["diagnostics", "--M", "64", "--equation", "CCM-defocusing",
                     "--out", str(out)]) == 0
        u0 = laxflow.analyze_profile(parse_profile("random-sobolev:s=1,seed=0,norm=1"), 64,
                                     hardy=True)
        reports = diag.run_bound_suite(u0, "CCM-defocusing", 64, [1.0, 10.0, 100.0],
                                       [2**e for e in range(7)])
        bounds = [(r.name, r.params.get("n", ""), r.params.get("kappa", ""), r.measured,
                   r.bound, r.passed) for r in reports]
        assert any(n == "" for _, n, *_ in bounds) and any(k == "" for _, _, k, *_ in bounds)
        assert (out / "bounds.csv").read_bytes() == per_cell(header, bounds)

    @pytest.mark.parametrize("equation, schedule",
                             [("BO", "constant"), ("CCM-defocusing", "full-staircase")])
    def test_csvs_match_per_cell_formatting(self, tmp_path, equation, schedule):
        # the writer formats each repeated t and x once; every byte must stay
        K, exprs = 16, "0;-1.5;pi/3"
        out = tmp_path / "run"
        assert main(["evolve", "--K", str(K), "--equation", equation, "--schedule", schedule,
                     "--times", exprs, "--out", str(out)]) == 0
        times = np.array([parse_time_expr(t) for t in exprs.split(";")])
        result = run_scheme(SchemeConfig(equation, make_schedule(schedule, K), times,
                                         parse_profile("square-wave")))
        samples = [(float(t), x, v) for t in result.times for x, v in sample_rows(
            result.real_spectrum(t) if equation == "BO" else result.hardy(t), K)]
        assert (out / "coefficients.csv").read_bytes() == coefficient_csv(result)
        assert (out / "samples.csv").read_bytes() == per_cell_csv(("t", "x", "value"), samples)

    def test_empty_time_grid_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--grid-points", "0", "--out", str(out)]) == 2
        assert "empty" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("cmd", ["evolve", "talbot"])
    def test_duplicate_times_write_nothing(self, tmp_path, capsys, cmd):
        out = tmp_path / "x"
        assert main([cmd, "--K", "8", "--times", "pi/2;1;2*pi/4", "--out", str(out)]) == 2
        assert "distinct" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# (command, flag, config-file key, value): flags a command does not read
REMOVED_FLAGS = [
    ("evolve", "--seed", "seed", "1"),
    ("talbot", "--seed", "seed", "1"),
    ("talbot", "--T", "T", "2"),
    ("talbot", "--grid-points", "grid_points", "3"),
    ("convergence", "--seed", "seed", "1"),
    ("convergence", "--K", "K", "999"),
    ("convergence", "--times", "times", "pi"),
    ("diagnostics", "--K", "K", "999"),
    ("diagnostics", "--times", "times", "pi"),
    ("diagnostics", "--grid-points", "grid_points", "3"),
]


@pytest.mark.parametrize("cmd,flag,key,value", REMOVED_FLAGS)
def test_command_rejects_flags_it_does_not_read(tmp_path, capsys, cmd, flag, key, value):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main([cmd, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd,config", [
    ("evolve", [1, 2]),
    ("evolve", {"times": 5}),
    ("convergence", {"Ks": 8}),
    ("diagnostics", {"kappas": 10}),
    ("evolve", {"K": 8.7}),
    ("evolve", {"K": True}),
    ("evolve", {"grid_points": 11.0}),
    ("evolve", {"times": ["0", 1]}),
    ("talbot", {"times": [0.5]}),
    ("convergence", {"Ks": "8,16", "kref": 64.0, "T": 0.5, "grid_points": 11}),
    ("diagnostics", {"M": 64.9}),
    ("diagnostics", {"seed": False}),
    ("diagnostics", {"corrupt_bounds": 1}),
    ("evolve", {"override_focusing_threshold": "no"}),
    ("evolve", {"T": True}),
    ("evolve", {"T": "True*pi"}),
    ("evolve", {"times": "False"}),
    ("evolve", {"schema_version": True}),
    # ran as [2, 1, 0, 0] while the manifest echoed the floats
    ("evolve", {"K": 4, "times": "0", "schedule": [2.5, 1.7, 0.9, 0]}),
])
def test_config_values_of_the_wrong_type(tmp_path, capsys, cmd, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


# JSON values for an evolve config file.  Integers are small or past int64,
# never in between, so that no K, grid or mode asks for a large allocation
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8),
    st.integers(-10, 10), st.sampled_from([2**63, -(2**63) - 1, 2**100]),
    st.floats(),  # NaN and +-Infinity included, which json.loads reads
)
_json = st.recursive(_json_scalars, lambda c: st.one_of(
    st.lists(c, max_size=4), st.dictionaries(st.text(max_size=6), c, max_size=4)),
    max_leaves=8)
_dict_profiles = st.fixed_dictionaries(
    {"kind": st.sampled_from(["explicit", "square-wave", "single-mode", "random-sobolev"])},
    optional={"coeffs": st.lists(st.one_of(st.floats(), st.integers(-3, 3)), max_size=9),
              "k0": _json_scalars, "amplitude": _json_scalars, "s": _json_scalars,
              "seed": _json_scalars, "norm": _json_scalars})
_EVOLVE_FIELDS = {
    "K": st.integers(-1, 8),
    "T": st.one_of(st.sampled_from([0.5, "pi", -2]), _time_exprs, st.floats()),
    "grid_points": st.integers(-1, 5),
    "times": st.lists(st.one_of(st.sampled_from(["0", "-pi/2", "sqrt2*pi", "1e3"]), _time_exprs),
                      min_size=1, max_size=3).map(";".join),
    "schedule": st.one_of(st.sampled_from(SCHEDULE_KINDS[:-1]), _schedules.map(lambda t: t[0]),
                          st.lists(st.integers(-1, 9), max_size=9)),
    "profile": st.one_of(st.sampled_from(["square-wave", "random-sobolev:s=1,seed=3,norm=0.5",
                                          "single-mode:k0=2,amplitude=0.3j",
                                          "explicit:coeffs=[0.2,0.1j,-0.1]"]),
                         _profiles, _dict_profiles),
    "equation": st.sampled_from(list(laxflow.EQUATIONS) + ["KdV"]),
    "override_focusing_threshold": st.booleans(),
    "schema_version": st.just(1),
    "command": st.just("evolve"),
}
# out names a place in the test's directory (an existing file among them)
# or is a JSON value that is no path; the other fields take values of their
# own kind, and at most one field, or a field evolve lacks, any JSON value
_evolve_configs = st.tuples(
    st.fixed_dictionaries(
        {"out": st.one_of(st.sampled_from(["run", "run/deeper"]),
                          st.sampled_from(["cfg.json", "cfg.json/run"]),
                          _json.filter(lambda v: not isinstance(v, str)))},
        optional=_EVOLVE_FIELDS),
    st.one_of(st.just({}), st.dictionaries(
        st.sampled_from([*_EVOLVE_FIELDS, "config", "func", "M"]), _json, min_size=1, max_size=1)),
).map(lambda t: {**t[0], **t[1]})


# data of extreme magnitude (random-sobolev s = -400, coefficients near
# 1e200) makes numpy warn of overflow on its way to an exit code; as from
# a shell, the warnings are not raised: the property here is the exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:schedule has n\\(0\\) = 0")
@settings(max_examples=100, deadline=None)
@given(_evolve_configs)
@example({"out": "run", "K": 8, "times": "1", "profile": "random-sobolev:s=-400,seed=1"})
@example({"out": "run", "K": 8, "profile": {"kind": "explicit", "coeffs": [1e308, 1e308]}})
@example({"out": "cfg.json", "K": 8, "times": "0"})
@example({"out": "run", "grid_points": 2**63})
def test_evolve_config_file_fuzz(config):
    """Whatever a config file holds, evolve exits 0, 1 or 2 and raises nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        if isinstance(config["out"], str):
            config = {**config, "out": str(Path(tmp) / config["out"])}
        cfg.write_text(json.dumps(config))
        assert main(["evolve", "--config", str(cfg)]) in (0, 1, 2)


_DIAGNOSTICS_FIELDS = {
    "M": st.sampled_from([-1, 8, 48, 64]),
    "kappas": st.one_of(st.sampled_from(["1,10,100", "7.5", "1,1e4", "0.5", "1,nan", "1,,2", ""]),
                        st.lists(st.floats().map(repr), min_size=1, max_size=3).map(",".join),
                        st.text(max_size=10)),
    "seed": st.one_of(st.integers(-2, 10), st.sampled_from([2**64, 2**128 - 1, 2**128])),
    "T": _EVOLVE_FIELDS["T"],
    "profile": _EVOLVE_FIELDS["profile"],
    "equation": _EVOLVE_FIELDS["equation"],
}
# the output goes to the test's directory; the other fields take values of
# their own kind, and at most one field, or a field diagnostics lacks, any
# JSON value
_diagnostics_configs = st.tuples(
    st.fixed_dictionaries({}, optional=_DIAGNOSTICS_FIELDS),
    st.one_of(st.just({}), st.dictionaries(
        st.sampled_from([*_DIAGNOSTICS_FIELDS, "config", "func", "K"]), _json,
        min_size=1, max_size=1)),
).map(lambda t: {**t[0], **t[1]})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(_diagnostics_configs)
@example({"M": 64, "equation": "CCM-defocusing",
          "profile": "random-sobolev:s=1,seed=0,norm=2000"})
@example({"M": 64, "profile": {"kind": "explicit", "coeffs": [1e308, 1e308]}})
def test_diagnostics_config_file_fuzz(config):
    """Whatever a config file holds, diagnostics exits 0, 1 or 2 and raises nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = str(Path(tmp) / "run")
        assert main(["diagnostics", "--config", str(cfg), "--out", out]) in (0, 1, 2)


REPLAYS = {
    "evolve": ["--K", "16", "--T", "0.5", "--grid-points", "11", "--schedule", "half-staircase"],
    "talbot": ["--K", "32"],
    "convergence": ["--Ks", "8,16", "--kref", "64", "--T", "0.5", "--grid-points", "11"],
    "diagnostics": ["--M", "64", "--kappas", "1,10",
                    "--profile", "random-sobolev:s=1,seed=0,norm=0.5"],
}


@pytest.mark.parametrize("cmd", ["evolve", "convergence", "diagnostics"])
@pytest.mark.parametrize("T", ["1e400", "-1e400", "1e308"])
def test_time_grid_must_be_finite(tmp_path, capsys, cmd, T):
    # 1e308 is finite, but the grid width 2T is not
    out = tmp_path / "x"
    assert main([cmd, f"--T={T}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "2T of [-T, T] must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["evolve", "convergence"])
def test_grid_points_past_intp_is_config_error(tmp_path, capsys, cmd):
    # linspace wrapped 2**63 points to none and failed with an IndexError
    out = tmp_path / "x"
    assert main([cmd, "--grid-points", str(2**63), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid_points must be at most") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", list(REPLAYS))
def test_manifest_config_replays_the_run(tmp_path, cmd):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main([cmd, *REPLAYS[cmd], "--out", str(first)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(manifest_of(first)["config"]))
    assert main([cmd, "--config", str(cfg), "--out", str(replay)]) == 0
    names = [n for n in manifest_of(first)["files"] if n.endswith(".csv")]
    assert names
    for name in names:
        assert (replay / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("cmd", list(REPLAYS))
def test_manifest_records_wall_time(tmp_path, cmd):
    out = tmp_path / "run"
    assert main([cmd, *REPLAYS[cmd], "--out", str(out)]) == 0
    wall = manifest_of(out)["wall_time_s"]
    assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0.0


@pytest.mark.parametrize("cmd", list(REPLAYS))
def test_manifest_digests_are_the_files_on_disk(tmp_path, cmd):
    out = tmp_path / "run"
    assert main([cmd, *REPLAYS[cmd], "--out", str(out)]) == 0
    files = manifest_of(out)["files"]
    assert set(files) == {p.name for p in out.iterdir()} - {"manifest.json"}
    for name, digest in files.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_talbot_reads_no_output_file(tmp_path, monkeypatch):
    # the manifest hashes the bytes each writer wrote; it read every file back
    out, reads, real = tmp_path / "run", [], io.open

    def spy(file, mode="r", *args, **kwargs):
        if not set("wax+") & set(mode):
            reads.append(Path(file))
        return real(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    assert main(["talbot", "--K", "16", "--out", str(out)]) == 0
    assert [f for f in reads if out in f.parents] == []
    assert len(manifest_of(out)["files"]) == 10


class TestTalbot:
    def test_time_zero_linear_equals_nonlinear(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["talbot", "--K", "32", "--schedule", "constant",
                   "--times", "0", "--out", str(out)])
        assert rc == 0

        def values(name):
            lines = (out / name).read_text().splitlines()[1:]
            return np.array([float(r.split(",")[1]) for r in lines])

        # identity up to the roundoff of applying the cached propagator at t=0
        np.testing.assert_allclose(
            values("talbot_0_nonlinear.csv"), values("talbot_0_linear.csv"), atol=1e-12
        )

    def test_default_times_make_four_panels(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["talbot", "--K", "32", "--out", str(out)])
        assert rc == 0
        m = manifest_of(out)
        assert m["panels"] == 4
        for i in range(4):
            assert (out / f"talbot_{i}_nonlinear.csv").exists()
            assert (out / f"talbot_{i}_linear.csv").exists()

    def test_manifest_sums_the_cache_counters_of_both_runs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["talbot", "--K", "16", "--schedule", "full-staircase",
                     "--out", str(out)]) == 0
        m = manifest_of(out)
        times = [parse_time_expr(t) for t in m["config"]["times"]]
        runs = [run_scheme(SchemeConfig("BO", make_schedule(kind, 16), times,
                                        parse_profile(m["config"]["profile"])))
                for kind in ("full-staircase", "linear-case")]
        counters = {"derived_decompositions": "derived", "fallbacks": "fallbacks",
                    "secular_steps": "secular_steps", "evictions": "evictions",
                    "cache_bytes": "nbytes"}
        for key, attr in counters.items():
            assert m[key] == sum(getattr(r.cache, attr) for r in runs), key
        assert m["decompositions"] == sum(r.decompositions for r in runs)
        assert m["derived_decompositions"] == 14 and m["secular_steps"] > 0
        assert "certified_decompositions" not in m

    def test_csvs_match_per_cell_formatting(self, tmp_path):
        K, out = 16, tmp_path / "run"
        assert main(["talbot", "--K", str(K), "--out", str(out)]) == 0
        times = np.array([parse_time_expr(t) for t in TALBOT_TIMES])
        for kind, tag in (("half-staircase", "nonlinear"), ("linear-case", "linear")):
            result = run_scheme(SchemeConfig("BO", make_schedule(kind, K), times,
                                             parse_profile("square-wave")))
            assert (out / f"coefficients_{tag}.csv").read_bytes() == coefficient_csv(result)
            for i, t in enumerate(times):
                assert (out / f"talbot_{i}_{tag}.csv").read_bytes() == per_cell_csv(
                    ("x", "value"), sample_rows(result.real_spectrum(t), K))

    def test_empty_times_writes_nothing(self, tmp_path, capsys):
        # an empty --times or config "times" ran the default Talbot times
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"times": []}))
        for i, argv in enumerate([["--times", ""], ["--config", str(cfg)]]):
            out = tmp_path / f"x{i}"
            assert main(["talbot", "--K", "8", "--out", str(out)] + argv) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err
            assert not out.exists()

    def test_ccm_rejected(self, tmp_path):
        assert main(["talbot", "--equation", "CCM-defocusing",
                     "--out", str(tmp_path / "x")]) == 2


class TestConvergence:
    def test_small_study(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["convergence", "--Ks", "8,16,32,64", "--kref", "256",
                   "--T", "0.5", "--grid-points", "11", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["monotone"] is True
        assert summary["norm_diff_bounded_by_error"] is True
        assert summary["slope"] < 0
        header = (out / "table.csv").read_text().splitlines()[0]
        assert header == "K,schedule,error,norm_diff,decompositions"

    def test_repeat_runs_byte_identical(self, tmp_path):
        argv = ["convergence", "--Ks", "8,16,32,64", "--kref", "256",
                "--T", "0.5", "--grid-points", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for name in ("table.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("equation", ["CCM-defocusing", "CCM-focusing"])
    def test_ccm_study(self, tmp_path, equation):
        # the one-sided (Hardy) errors of `_per_time_errors`, which no BO run reaches
        out = tmp_path / "run"
        assert main(["convergence", "--equation", equation, "--Ks", "8,16,32,64",
                     "--kref", "256", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["monotone"] is True
        assert summary["norm_diff_bounded_by_error"] is True
        errors = [float(line.split(",")[2])
                  for line in (out / "table.csv").read_text().splitlines()[1:]]
        # about 0.17 / 0.16 at K = 8 down to 0.051 / 0.049 at K = 64
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[0] > 0.1 and errors[-1] < 0.06

    def test_bad_kref_is_config_error(self, tmp_path):
        assert main(["convergence", "--Ks", "8,64", "--kref", "128",
                     "--out", str(tmp_path / "x")]) == 2

    def test_focusing_data_over_the_threshold_is_config_error(self, tmp_path, capsys):
        # the reference run refuses the data as `evolve` does: exit 2, not 1
        assert main(["convergence", "--equation", "CCM-focusing",
                     "--profile", "random-sobolev:s=1,seed=0,norm=2", "--Ks", "8,16,32,64",
                     "--kref", "256", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: focusing CCM requires ||u0|| < 1")

    def test_failed_reference_run_is_check_failure(self, tmp_path, monkeypatch, capsys):
        def fail(cfg, cache=None):
            raise RuntimeError("eigensolver failed")

        monkeypatch.setattr(diag, "run_scheme", fail)
        assert main(["convergence", "--Ks", "8,16,32,64", "--kref", "256",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "check failure: reference run at K_ref=256 failed: eigensolver failed\n")

    @pytest.mark.parametrize("flags", [["--schedule", "bogus", "--Ks", "8,16,32,64"],
                                       ["--Ks", "0,8,16,32"]])
    def test_bad_schedule_refused_before_any_run(self, tmp_path, monkeypatch, capsys, flags):
        # each K's schedule is made before the reference run, not after it
        calls = []
        monkeypatch.setattr(diag, "run_scheme", lambda cfg, cache=None: calls.append(cfg))
        out = tmp_path / "x"
        assert main(["convergence", *flags, "--kref", "256", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert calls == []
        assert not out.exists()


def count_kappa0_searches(monkeypatch, calls, search=None):
    """Append M to calls at each kappa0 search, a first read of a
    `_Spectra`'s kappa0; search, if given, replaces the real one."""
    real = diag._Spectra.kappa0.func

    def counting(self):
        calls.append(self.M)
        return (search or real)(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(diag._Spectra, "kappa0")
    monkeypatch.setattr(diag._Spectra, "kappa0", prop)


def norm_paths(monkeypatch):
    """A list that gets (n, path) for each diagnostics norm of an n x n
    matrix: "eigvalsh" when `eigvalsh` was taken of the matrix itself,
    "eigh" when `eigh` was, else "lanczos" (`eigh` of tridiagonals only)."""
    paths, taken = [], {}
    real_norm = diag._hermitian_norm

    def spy(name, real):
        def call(a, *args, **kwargs):
            taken[id(a)] = name
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)

    def norm(a):
        taken.clear()
        value = real_norm(a)
        paths.append((len(a), taken.get(id(a), "lanczos")))
        return value

    spy("eigh", np.linalg.eigh)
    spy("eigvalsh", np.linalg.eigvalsh)
    monkeypatch.setattr(diag, "_hermitian_norm", norm)
    return paths


def rerun_identical(tmp_path, equation, M):
    """Run `diagnostics --M M` twice; both runs pass and write the same
    bounds and resolvent bytes."""
    profile = "random-sobolev:s=1,seed=1,norm=" + ("0.5" if equation == "CCM-focusing" else "1")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["diagnostics", "--M", str(M), "--equation", equation, "--profile", profile,
                     "--out", str(out)]) == 0
    for name in ("bounds.csv", "resolvent.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestDiagnostics:
    def test_pass_run(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["diagnostics", "--M", "64", "--kappas", "1,10",
                   "--profile", "random-sobolev:s=1,seed=0,norm=0.5",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bounds_pass"] and summary["resolvent_pass"]
        assert summary["kappa0"] >= 1.0
        assert (out / "bounds.csv").exists()
        assert (out / "resolvent.csv").exists()
        assert (out / "propagator_sweep.csv").exists()

    def test_overflowing_sweep_fails(self, tmp_path, capsys):
        # t lambda overflows: every sweep row was NaN and the sweep passed
        out = tmp_path / "run"
        rc = main(["diagnostics", "--M", "64", "--T", "1e307", "--out", str(out)])
        assert rc == 1
        assert "check failure: propagator sweep error is not finite" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["propagator_sweep_pass"] is False
        assert (out / "propagator_sweep.csv").read_text() == "n,sup_error\n"

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_no_svd_is_taken(self, tmp_path, monkeypatch, equation):
        # no norm comes from an SVD; np.linalg.norm(ord=2) reaches svd
        # through the module that defines it, so both names are replaced
        def no_svd(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(np.linalg._linalg, "svd", no_svd)
        with pytest.raises(AssertionError):
            np.linalg.norm(np.eye(3), ord=2)
        profile = "random-sobolev:s=1,seed=1,norm=" + ("0.5" if equation == "CCM-focusing" else "1")
        assert main(["diagnostics", "--M", "64", "--equation", equation, "--profile", profile,
                     "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_dense_norms_take_eigvalsh_and_rerun_byte_identical(self, tmp_path, monkeypatch,
                                                                equation):
        # at M = 64 every Gram and resolvent-difference norm comes from a
        # dense eigvalsh of its n <= 64 matrix, never from eigh
        paths = norm_paths(monkeypatch)
        rerun_identical(tmp_path, equation, 64)
        assert paths and {path for _, path in paths} == {"eigvalsh"}

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_lanczos_norms_rerun_byte_identical(self, tmp_path, monkeypatch, equation):
        # at M = 128 the n = 128 norms come from Lanczos, whose start vector
        # is seeded
        paths = norm_paths(monkeypatch)
        rerun_identical(tmp_path, equation, 128)
        assert {n for n, path in paths if path == "lanczos"} == {128}
        assert {path for n, path in paths if n < 128} == {"eigvalsh"}

    def test_each_resolvent_is_formed_once(self, tmp_path, monkeypatch):
        """One command forms each R_n(kappa0) once, read-only, though the
        bound suite and the resolvent suite both read R_M and R_{M/2}, and
        writes the bytes a run forming R_n at each read writes."""
        argv = ["diagnostics", "--M", "128", "--equation", "CCM-defocusing"]

        def forming(self, n):
            e = self.eig(n)
            q = e.eigenvectors
            return (q / (e.eigenvalues + self.kappa0)) @ q.conj().T

        fresh, cached = tmp_path / "fresh", tmp_path / "cached"
        with monkeypatch.context() as m:
            m.setattr(diag._Spectra, "resolvent", forming)
            assert main(argv + ["--out", str(fresh)]) == 0
        reads, real = {}, diag._Spectra.resolvent

        def spy(self, n):
            r = real(self, n)
            reads.setdefault(n, []).append(r)
            return r

        monkeypatch.setattr(diag._Spectra, "resolvent", spy)
        assert main(argv + ["--out", str(cached)]) == 0
        assert sorted(reads) == [1, 2, 4, 8, 16, 32, 64, 128]
        assert len(reads[64]) == len(reads[128]) == 2
        for rs in reads.values():
            assert all(r is rs[0] for r in rs) and not rs[0].flags.writeable
        for name in ("bounds.csv", "resolvent.csv"):
            assert (cached / name).read_bytes() == (fresh / name).read_bytes()

    def test_lanczos_only_above_64(self, tmp_path, monkeypatch):
        paths = norm_paths(monkeypatch)
        assert main(["diagnostics", "--M", "256", "--equation", "CCM-defocusing",
                     "--out", str(tmp_path / "run")]) == 0
        assert {n for n, path in paths if path == "lanczos"} == {128, 256}
        assert {n for n, path in paths if path == "eigvalsh"} == {1, 2, 4, 8, 16, 32, 64}
        assert "eigh" not in {path for _, path in paths}

    def test_no_kappa0_is_a_check_failure(self, tmp_path):
        # the search's RuntimeError ended the command with a traceback
        out = tmp_path / "x"
        proc = run_child("-m", "laxflow.cli", "diagnostics", "--M", "64",
                         "--equation", "CCM-defocusing",
                         "--profile", "random-sobolev:s=1,seed=0,norm=2000", "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("check failure: no kappa0 up to 2^20")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("M", [48, 32])
    def test_bad_M_rejected_before_any_suite(self, tmp_path, capsys, monkeypatch, M):
        # each suite checked M only when its turn came: 48 ran the bound
        # suite first, 32 the bound and resolvent suites
        calls, real = [], diag.run_bound_suite

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(diag, "run_bound_suite", counting)
        out = tmp_path / "x"
        assert main(["diagnostics", "--M", str(M), "--out", str(out)]) == 2
        assert "M must be a power of two >= 64" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "2**128"])
    def test_bad_seed_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, seed):
        # Philox raised only after the M x M Lax build, its Gram cores and a kappa0 search
        calls = []
        for name in ("build_bo_lax", "build_ccm_lax"):
            monkeypatch.setattr(laxflow.lax, name, lambda *a, _n=name: calls.append(_n))
        count_kappa0_searches(monkeypatch, calls, search=lambda self: None)
        out = tmp_path / "x"
        assert main(["diagnostics", "--M", "256", "--equation", "CCM-defocusing",
                     f"--seed={seed}", "--out", str(out)]) == 2
        assert "seed must be an integer in [0, 2**128)" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("kappas", ["inf", "1,nan", "-inf"])
    def test_non_finite_kappa_writes_nothing(self, tmp_path, capsys, kappas):
        out = tmp_path / "x"
        assert main(["diagnostics", "--M", "64", f"--kappas={kappas}", "--out", str(out)]) == 2
        assert "finite and >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_bounds_self_test(self, tmp_path):
        rc = main(["diagnostics", "--M", "64", "--kappas", "1", "--corrupt-bounds",
                   "--profile", "random-sobolev:s=1,seed=0,norm=0.5",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("corrupt", [False, True], ids=["plain", "corrupt-bounds"])
    @pytest.mark.parametrize("equation, method", [("BO", "formula"),
                                                  ("CCM-defocusing", "search")])
    def test_summary_kappa0_is_the_suites(self, tmp_path, equation, method, corrupt):
        M, profile = 64, "random-sobolev:s=1,seed=3,norm=1"
        out = tmp_path / "run"
        rc = main(["diagnostics", "--M", str(M), "--equation", equation, "--profile", profile,
                   "--out", str(out)] + ["--corrupt-bounds"] * corrupt)
        assert rc == (1 if corrupt else 0)
        summary = json.loads((out / "summary.json").read_text())
        eq = laxflow.EQUATIONS[equation]
        u0 = laxflow.analyze_profile(parse_profile(profile), M, hardy=eq.hardy)
        assert summary["kappa0"] == find_kappa_zero(u0, eq, M)
        assert summary["kappa0_method"] == method

    def test_kappa0_searched_once_per_suite(self, tmp_path, monkeypatch):
        # the suites share one search through their spectral context; every
        # search, through find_kappa_zero or not, is a _Spectra's kappa0
        calls = []
        count_kappa0_searches(monkeypatch, calls)
        rc = main(["diagnostics", "--M", "64", "--equation", "CCM-defocusing",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert calls == [64]

    def test_one_lax_build_per_command(self, tmp_path, monkeypatch):
        calls, real = [], laxflow.lax.build_ccm_lax

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(laxflow.lax, "build_ccm_lax", counting)
        assert main(["diagnostics", "--M", "64", "--equation", "CCM-defocusing",
                     "--out", str(tmp_path / "run")]) == 0
        assert calls == [64]

    @pytest.mark.parametrize("equation", ["BO", "CCM-defocusing"])
    def test_resolvent_and_sweep_csv_rows_are_the_suites(self, tmp_path, equation):
        # the command's shared context gives the rows each suite gives alone
        M, profile = 64, "random-sobolev:s=1,seed=2,norm=0.5"
        out = tmp_path / "run"
        assert main(["diagnostics", "--M", str(M), "--equation", equation, "--profile", profile,
                     "--T", "2", "--out", str(out)]) == 0
        eq = laxflow.EQUATIONS[equation]
        u0 = laxflow.analyze_profile(parse_profile(profile), M, hardy=eq.hardy)
        res_rows = diag.run_resolvent_convergence(u0, equation, M)
        sweep_rows = diag.run_propagator_sweep(u0, equation, M, 2.0)
        lines = (out / "resolvent.csv").read_text().splitlines()
        assert lines[0] == "n,measured,bound,pass"
        assert len(lines) == len(res_rows) + 1
        for line, r in zip(lines[1:], res_rows):
            n, measured, bound, passed = line.split(",")
            assert (int(n), passed) == (r.n, str(r.passed))
            assert (float(measured), float(bound)) == (r.measured, r.bound)
        lines = (out / "propagator_sweep.csv").read_text().splitlines()
        assert lines[0] == "n,sup_error"
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == sweep_rows

    @pytest.mark.parametrize("M, memory", [(64, 1 << 10), (65536, 1 << 30)])
    def test_M_beyond_physical_memory_rejected_before_any_work(
            self, tmp_path, capsys, monkeypatch, M, memory):
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: memory)
        calls = []
        for name in ("build_bo_lax", "build_ccm_lax"):
            monkeypatch.setattr(laxflow.lax, name, lambda *a, _n=name: calls.append(_n))
        count_kappa0_searches(monkeypatch, calls, search=lambda self: None)
        out = tmp_path / "x"
        assert main(["diagnostics", "--M", str(M), "--equation", "CCM-defocusing",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err
        assert calls == []
        assert not out.exists()

    def test_M_beyond_physical_memory_rejected_before_the_profile_is_sampled(
            self, tmp_path, capsys, monkeypatch):
        # sampling a square wave at M = 2^22 took 0.7 s and 400 MiB; the
        # refusal comes first
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: 1 << 30)
        calls = []
        monkeypatch.setattr(laxflow.lax, "analyze_profile", lambda *a, **kw: calls.append(a))
        out = tmp_path / "x"
        assert main(["diagnostics", "--M", str(1 << 22), "--out", str(out)]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("M", [64, 128, 256, 512])
    def test_preflight_counts_the_peak(self, tmp_path, monkeypatch, M):
        # tracemalloc's peak over one command is within what the preflight
        # counts: given one byte less, it refuses; a first command's lazy
        # imports are taken apart
        argv = ["diagnostics", "--equation", "CCM-defocusing",
                "--profile", "random-sobolev:s=1,seed=3,norm=1"]
        assert main(argv + ["--M", "64", "--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(argv + ["--M", str(M), "--out", str(tmp_path / "run")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: peak - 1)
        with pytest.raises(ValueError, match="physical memory"):
            diag._check_memory(M)

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing"])
    def test_bounds_csv_rows_are_the_suites_reports(self, tmp_path, equation):
        M, profile = 64, "random-sobolev:s=1,seed=2,norm=0.5"
        out = tmp_path / "run"
        assert main(["diagnostics", "--M", str(M), "--equation", equation, "--profile", profile,
                     "--kappas", "1,7.5", "--seed", "4", "--out", str(out)]) == 0
        eq = laxflow.EQUATIONS[equation]
        u0 = laxflow.analyze_profile(parse_profile(profile), M, hardy=eq.hardy)
        reports = diag.run_bound_suite(u0, equation, M, [1.0, 7.5],
                                       [2**e for e in range(7)], seed=4)
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "name,n,kappa,measured,bound,pass"
        assert len(lines) == len(reports) + 1
        for line, r in zip(lines[1:], reports):
            name, n, kappa, measured, bound, passed = line.split(",")
            assert (name, n, passed) == (r.name, str(r.params.get("n", "")), str(r.passed))
            assert (float(kappa) if kappa else None) == r.params.get("kappa")
            assert (float(measured), float(bound)) == (r.measured, r.bound)


def run_child(*args):
    """Run python with args in a child that imports the package these tests import.

    The child turns a RuntimeWarning into an error, as the filterwarnings
    setting in pyproject.toml does for the test process; that setting does
    not reach child processes.
    """
    src = str(Path(laxflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "run"
        proc = run_child("-m", "laxflow.cli", "evolve", "--K", "8",
                         "--times", "0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only; None in sys.modules makes its import fail
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            import laxflow.cli
            loaded = [m for m, mod in sys.modules.items()
                      if m.partition(".")[0] == "scipy" and mod is not None]
            assert not loaded, loaded
            out = sys.argv[1]
            assert laxflow.cli.main(["talbot", "--K", "16", "--out", out + "/t"]) == 0
            assert laxflow.cli.main(["evolve", "--equation", "CCM-defocusing",
                                     "--K", "16", "--out", out + "/e"]) == 0
        """)
        proc = run_child("-c", script, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "t" / "manifest.json").exists()
        assert (tmp_path / "e" / "manifest.json").exists()
