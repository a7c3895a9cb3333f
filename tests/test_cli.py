import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from laxflow.cli import (
    ConfigError,
    main,
    max_workers,
    parse_profile,
    parse_schedule,
    parse_time_expr,
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
        for bad in ("pi**2", "__import__('os')", "t", "1;2", "exp(1)"):
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

    def test_schedule_strings(self):
        s = parse_schedule("custom:3,2,1", 3)
        np.testing.assert_array_equal(s.values, [3, 2, 1])
        assert parse_schedule("half-staircase", 8).values[0] == 4
        with pytest.raises(ConfigError):
            parse_schedule("custom:1,2", 3)
        with pytest.raises(ConfigError):
            parse_schedule("bogus", 3)

    def test_max_workers(self, monkeypatch):
        monkeypatch.setenv("LAXFLOW_THREADS", "4")
        assert max_workers() == 4
        monkeypatch.setenv("LAXFLOW_THREADS", "0")
        assert max_workers() == 1
        monkeypatch.setenv("LAXFLOW_THREADS", "zoo")
        with pytest.raises(ConfigError):
            max_workers()
        monkeypatch.delenv("LAXFLOW_THREADS")
        assert max_workers() >= 1


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

    def test_config_file_unknown_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"flux_capacitor": 1}))
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

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

    @pytest.mark.parametrize("cmd", ["evolve", "talbot"])
    def test_duplicate_times_write_nothing(self, tmp_path, capsys, cmd):
        out = tmp_path / "x"
        assert main([cmd, "--K", "8", "--times", "pi/2;1;2*pi/4", "--out", str(out)]) == 2
        assert "distinct" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


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
        assert header == "K,schedule,error,norm_diff,wall_time_s,decompositions"

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

    def test_corrupt_bounds_self_test(self, tmp_path):
        rc = main(["diagnostics", "--M", "64", "--kappas", "1", "--corrupt-bounds",
                   "--profile", "random-sobolev:s=1,seed=0,norm=0.5",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LAXFLOW_THREADS", "1")
        rc = main(["diagnostics", "--M", "64", "--kappas", "1",
                   "--profile", "random-sobolev:s=1,seed=0,norm=0.5",
                   "--out", str(tmp_path / "x")])
        assert rc == 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "laxflow.cli", "evolve", "--K", "8",
             "--times", "0", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()
