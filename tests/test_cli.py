import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laxflow
from laxflow import diagnostics as diag
from laxflow.cli import (
    ConfigError,
    main,
    parse_profile,
    parse_schedule,
    parse_time_expr,
    write_coefficients,
    write_csv,
)
from laxflow.propagator import find_kappa_zero

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
    st.lists(st.tuples(st.sampled_from(["k0", "s", "seed", "norm", "coeffs", "amplitude"]),
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
        assert (m["decompositions"], m["derived_decompositions"]) == (31, 30)

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

    @pytest.mark.parametrize("times", ["1e400", "0;-1e400"])
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

    @pytest.mark.parametrize("argv", [
        ["--times", "sqrt()"],
        ["--times", "0", "--profile", "random-sobolev"],
        ["--times", "0", "--profile", "single-mode"],
        ["--times", "0", "--profile", "explicit"],
    ])
    def test_former_crashes_are_config_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(["evolve", "--K", "8", "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    def test_coefficient_writer_matches_write_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        times = np.array([-np.pi, 0.0, 1.0 / 3.0, 2.5e-17])
        coeffs = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        coeffs[1, 2] = -0.0 + 1e300j
        rows = [(float(t), k, float(coeffs[i, k].real), float(coeffs[i, k].imag))
                for i, t in enumerate(times) for k in range(6)]
        write_csv(tmp_path / "a.csv", ("t", "k", "re", "im"), rows)
        write_coefficients(tmp_path / "b.csv", times, coeffs)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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
])
def test_config_values_of_the_wrong_type(tmp_path, capsys, cmd, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


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

    def test_bad_kref_is_config_error(self, tmp_path):
        assert main(["convergence", "--Ks", "8,64", "--kref", "128",
                     "--out", str(tmp_path / "x")]) == 2


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
        # the bound and resolvent suites search; the summary reads the bound suite's
        calls = []

        def counting(*args):
            calls.append(args[2])
            return find_kappa_zero(*args)

        for mod in (laxflow, laxflow.propagator, diag, laxflow.cli):
            if hasattr(mod, "find_kappa_zero"):
                monkeypatch.setattr(mod, "find_kappa_zero", counting)
        rc = main(["diagnostics", "--M", "64", "--equation", "CCM-defocusing",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert calls == [64, 64]

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
