import math
import tracemalloc

import numpy as np
import pytest

import laxflow.lax
import laxflow.propagator
import laxflow.scheme
from laxflow.lax import build_ccm_lax
from laxflow.propagator import PropagatorCache
from laxflow.scheme import (
    Schedule,
    SchemeConfig,
    full_l2,
    hardy_l2,
    iterate_size,
    make_schedule,
    mass,
    run_scheme,
)
from laxflow.spectral import (
    HardyVector,
    InitialProfile,
    analyze_profile,
    l2_norm,
    project_hardy,
    truncate,
)
from oracles import scheme_by_brute_force


def bo_profile(seed, norm=0.5):
    return InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})


def run(equation, schedule, times, u0, **kw):
    cfg = SchemeConfig(equation, schedule, np.atleast_1d(times), u0, **kw)
    return run_scheme(cfg)


class TestSchedules:
    def test_constant(self):
        s = make_schedule("constant", 4)
        np.testing.assert_array_equal(s.values, [4, 4, 4, 4])
        assert not s.l2_preserving
        assert s.ambient_size == 4

    def test_linear_case(self):
        s = make_schedule("linear-case", 5)
        np.testing.assert_array_equal(s.values, [5, 0, 0, 0, 0])
        assert s.l2_preserving

    def test_full_staircase(self):
        s = make_schedule("full-staircase", 4)
        np.testing.assert_array_equal(s.values, [4, 3, 2, 1])
        assert s.l2_preserving

    def test_half_staircase_large(self):
        K = 1 << 10
        s = make_schedule("half-staircase", K)
        assert s.values[0] == K // 2
        assert s.values[K // 2] == K // 2
        assert s.values[K // 2 + 1] == 0
        assert s.ambient_size == K // 2
        assert s.l2_preserving

    def test_custom(self):
        s = make_schedule("custom", 3, custom_values=[2, 1, 0])
        np.testing.assert_array_equal(s.values, [2, 1, 0])
        # a cast ran 2.5 as 2, "3" as 3 and True as 1
        for bad in ([1, 2], [2.5, 1.7, 0.9], ["3", 1, 0], [True, 1, 0], np.array([2.0, 1, 0])):
            with pytest.raises(ValueError):
                make_schedule("custom", 3, custom_values=bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_schedule("staircase", 4)

    def test_negative_values_rejected(self):
        for bad in ([1, -1], [1, 0.5], [1.0, 0], ["1", 0], [np.True_, 0], [1, False]):
            with pytest.raises(ValueError):
                Schedule(2, "custom", bad)
        np.testing.assert_array_equal(Schedule(2, "custom", [np.int32(1), np.uint8(0)]).values,
                                      [1, 0])

    def test_zero_seed_truncation_warns(self):
        with pytest.warns(UserWarning, match="n\\(0\\) = 0"):
            make_schedule("custom", 2, custom_values=[0, 2])

    def test_iterate_size_examples(self):
        s = make_schedule("full-staircase", 4)  # n = [4, 3, 2, 1]
        assert [iterate_size(s, k) for k in range(4)] == [4, 3, 2, 1]
        s = make_schedule("linear-case", 4)  # n = [4, 0, 0, 0]
        assert [iterate_size(s, k) for k in range(4)] == [4, 3, 2, 1]
        s = make_schedule("constant", 3)
        assert [iterate_size(s, k) for k in range(3)] == [3, 3, 3]
        with pytest.raises(ValueError):
            iterate_size(s, 3)


class TestSchemeBasics:
    def test_k_equals_one(self):
        out = run("BO", make_schedule("constant", 1), 2.5, bo_profile(0))
        u0 = analyze_profile(bo_profile(0), 1)
        assert out.coeffs.shape == (1, 1)
        assert out.coeffs[0, 0] == pytest.approx(u0.coeff(0), abs=1e-15)

    def test_zero_data(self):
        out = run("CCM-defocusing", make_schedule("constant", 8), [0.0, 1.0], HardyVector([]))
        assert np.all(out.coeffs == 0)
        assert out.seed_norm == 0.0

    def test_time_zero_returns_truncated_data(self):
        K = 16
        sched = make_schedule("constant", K)
        out = run("BO", sched, 0.0, bo_profile(1))
        u0 = project_hardy(analyze_profile(bo_profile(1), K))
        np.testing.assert_allclose(out.coeffs[0], u0.coeffs, atol=1e-12)

    def test_ccm_rejects_real_spectrum(self):
        with pytest.raises(TypeError):
            run("CCM-defocusing", make_schedule("constant", 4),
                0.0, analyze_profile(bo_profile(0), 4))

    def test_focusing_threshold(self):
        big = InitialProfile("random-sobolev", {"s": 1.0, "seed": 0, "norm": 1.5})
        sched = make_schedule("constant", 8)
        with pytest.raises(ValueError, match="focusing"):
            run("CCM-focusing", sched, 1.0, big)
        out = run("CCM-focusing", sched, 1.0, big, override_focusing_threshold=True)
        assert np.all(np.isfinite(out.coeffs))

    def test_unknown_equation(self):
        for name in ("KdV", "CCM", "ccm-focusing"):
            with pytest.raises(ValueError, match="unknown equation"):
                SchemeConfig(name, make_schedule("constant", 2), np.array([0.0]),
                             HardyVector([1.0]))

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SchemeConfig("BO", make_schedule("constant", 2), np.array([]), bo_profile(0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SchemeConfig("BO", make_schedule("constant", 2), np.array([0.0, bad]),
                         bo_profile(0))

    def test_overflowing_phase_rejected(self):
        # |t (1 + 2 lambda)| overflows: the coefficients came out NaN
        with pytest.raises(ValueError, match="overflows"):
            run("BO", make_schedule("constant", 64), [1e307], bo_profile(0))

    def test_duplicate_times_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            SchemeConfig("BO", make_schedule("constant", 2), np.array([0.5, 1.0, 0.5]),
                         bo_profile(0))
        # 0.0 == -0.0, so the output could not tell them apart either
        with pytest.raises(ValueError, match="distinct"):
            SchemeConfig("BO", make_schedule("constant", 2), np.array([0.0, -0.0]),
                         bo_profile(0))


class TestLinearCase:
    """n(0) = K, all later truncations zero: the scheme reproduces the free flow."""

    @pytest.mark.parametrize("equation,alpha", [("BO", 1), ("CCM-defocusing", -1)])
    def test_phase_exactness(self, equation, alpha):
        K = 32
        sched = make_schedule("linear-case", K)
        ts = np.array([-1000.0, -1.0, 0.1, 1.0, 1000.0])
        is_bo = equation == "BO"
        u0 = analyze_profile(bo_profile(3), K, hardy=not is_bo)
        out = run(equation, sched, ts, u0)
        h0 = project_hardy(u0) if is_bo else u0
        ks = np.arange(K)
        for i, t in enumerate(ts):
            expect = np.exp(1j * alpha * t * ks**2) * h0.padded(K)
            np.testing.assert_allclose(out.coeffs[i], expect, atol=1e-10)

    @pytest.mark.parametrize("t", [999.7, -123.456, 3.3])
    def test_free_flow_to_rounding(self, t):
        # t k^2 reaches 1e9 at K = 1024: rounding it once put these
        # coefficients 5e-12 off, phases e^{i t (1 + 2j)} taken a step at a
        # time 3e-13; the gauge's products of t's two halves are exact
        mpmath = pytest.importorskip("mpmath")
        K = 1 << 10
        out = run("BO", make_schedule("linear-case", K), [t], bo_profile(4))
        c = project_hardy(analyze_profile(bo_profile(4), K)).padded(K)
        with mpmath.workdps(40):
            expect = [complex(mpmath.expj(mpmath.mpf(t) * k * k) * c[k]) for k in range(K)]
        assert np.max(np.abs(out.coeffs[0] - expect)) <= 1e-15

    def test_runs_at_zero_decompose_nothing(self):
        lin = run("BO", make_schedule("linear-case", 16), [0.5, 2.0], bo_profile(1))
        half = run("BO", make_schedule("half-staircase", 16), [0.5, 2.0], bo_profile(1))
        assert (lin.decompositions, half.decompositions) == (0, 1)


class TestBruteForceOracle:
    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_small_k_all_equations(self, equation):
        K = 4
        sched = make_schedule("custom", K, custom_values=[4, 3, 4, 2])
        is_bo = equation == "BO"
        u0 = analyze_profile(bo_profile(8, norm=0.4), K, hardy=not is_bo)
        t = 0.7
        out = run(equation, sched, t, u0)
        h0 = project_hardy(u0) if is_bo else u0
        oracle = scheme_by_brute_force(u0.coeff, h0.coeffs, sched.values, equation, t)
        np.testing.assert_allclose(out.coeffs[0], oracle, atol=1e-9)

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_eigenbasis_and_standard_basis_runs(self, equation):
        """A run of 7 steps at 5 times goes through the eigenbasis (5 * (7 - 2) > 8),
        the same run at one time through the standard basis (1 * (7 - 2) <= 8)."""
        K = 8
        sched = make_schedule("constant", K)
        is_bo = equation == "BO"
        u0 = analyze_profile(bo_profile(8, norm=0.4), K, hardy=not is_bo)
        h0 = project_hardy(u0) if is_bo else u0
        ts = np.array([-3.1, -0.4, 0.0, 0.7, 2.9])
        many = run(equation, sched, ts, u0)
        for i, t in enumerate(ts):
            oracle = scheme_by_brute_force(u0.coeff, h0.coeffs, sched.values, equation, t)
            np.testing.assert_allclose(many.coeffs[i], oracle, atol=1e-9)
        one = run(equation, sched, ts[3], u0)
        np.testing.assert_allclose(one.coeffs[0], many.coeffs[3], atol=1e-12)
        np.testing.assert_allclose(one.final_iterate[:, 0], many.final_iterate[:, 3],
                                   atol=1e-12)


class TestDerivedStaircase:
    """On the full staircase every decomposition after the first is derived."""

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_full_staircase_matches_oracle(self, equation):
        K = 24
        sched = make_schedule("full-staircase", K)
        is_bo = equation == "BO"
        u0 = analyze_profile(bo_profile(8, norm=0.4), K, hardy=not is_bo)
        h0 = project_hardy(u0) if is_bo else u0
        ts = np.array([-1.3, 0.7])
        out = run(equation, sched, ts, u0)
        assert out.decompositions == K - 1
        assert (out.cache.derived, out.cache.fallbacks) == (K - 2, 0)
        for i, t in enumerate(ts):
            oracle = scheme_by_brute_force(u0.coeff, h0.coeffs, sched.values, equation, t)
            np.testing.assert_allclose(out.coeffs[i], oracle, rtol=0, atol=1e-9)

    def test_one_lax_build_for_the_whole_staircase(self, monkeypatch):
        # every L_n, n = K-1..1, is sliced from the one build at n = K - 1
        K = 32
        calls = count_ccm_builds(monkeypatch)
        u0 = analyze_profile(bo_profile(3, norm=0.4), K, hardy=True)
        out = run("CCM-defocusing", make_schedule("full-staircase", K), [0.5, 2.0], u0)
        assert calls == [K - 1]
        assert out.decompositions == K - 1
        assert (out.cache.derived, out.cache.fallbacks) == (K - 2, 0)

    def test_rerun_on_a_shared_cache_builds_nothing(self, monkeypatch):
        # L is built on the first miss, and a rerun whose runs all hit has none
        K = 64
        calls = count_ccm_builds(monkeypatch)
        u0 = analyze_profile(bo_profile(3, norm=0.4), K, hardy=True)
        cfg = SchemeConfig("CCM-defocusing", make_schedule("full-staircase", K),
                           np.array([0.5, 2.0]), u0)
        cache = PropagatorCache()
        first = run_scheme(cfg, cache=cache)
        assert calls == [K - 1]
        again = run_scheme(cfg, cache=cache)
        assert calls == [K - 1]
        assert (again.decompositions, cache.hits) == (0, K - 1)
        np.testing.assert_array_equal(first.coeffs, again.coeffs)


class TestCacheLifetime:
    """The cache keeps finished decompositions within its budget only."""

    def test_full_staircase_holds_a_few_blocks(self, monkeypatch):
        # with nothing kept after its last run, the peak is the build, the
        # live entry and its parent and the derivation's temporaries; all
        # K - 1 entries held would be about 44 blocks
        K = 128
        monkeypatch.setattr(laxflow.propagator, "_CACHE_BUDGET", 0)
        cfg = SchemeConfig("CCM-defocusing", make_schedule("full-staircase", K),
                           np.array([0.5, 2.0]), analyze_profile(bo_profile(4), K, hardy=True))
        tracemalloc.start()
        try:
            out = run_scheme(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.decompositions == K - 1
        assert (out.cache.evictions, out.cache.nbytes) == (K - 1, 0)
        assert peak <= 10 * 16 * K * K, peak / (16 * K * K)

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_private_cache_within_budget_and_rerun_identical(self, equation, monkeypatch):
        K, budget = 64, 64 << 10
        monkeypatch.setattr(laxflow.propagator, "_CACHE_BUDGET", budget)
        u0 = analyze_profile(bo_profile(5, norm=0.4), K, hardy=equation != "BO")
        cfg = SchemeConfig(equation, make_schedule("full-staircase", K),
                           np.array([-1.1, 0.5, 2.0]), u0)
        first = run_scheme(cfg)
        cache = first.cache
        assert cache.nbytes <= budget
        assert cache.evictions > 0
        again = run_scheme(cfg, cache=cache)
        assert cache.nbytes <= budget
        np.testing.assert_array_equal(first.coeffs, again.coeffs)
        np.testing.assert_array_equal(first.final_iterate, again.final_iterate)

    def test_returning_schedule_decomposes_each_n_once(self, monkeypatch):
        # 8 is needed again after 4: it stays live through the run at 4
        monkeypatch.setattr(laxflow.propagator, "_CACHE_BUDGET", 0)
        sched = make_schedule("custom", 8, [8, 8, 4, 4, 8, 8, 2, 2])
        out = run("BO", sched, [0.3, 1.7], bo_profile(6))
        assert (out.decompositions, out.cache.hits) == (3, 1)
        assert (out.cache.evictions, out.cache.nbytes) == (3, 0)


class TestPreflight:
    """A run that cannot fit in physical memory is refused before any work."""

    def test_bound_is_build_decomposition_iterate_and_coefficients(self, monkeypatch):
        K, T = 16, 3
        cfg = SchemeConfig("CCM-defocusing", make_schedule("full-staircase", K),
                           np.linspace(-1.0, 1.0, T), bo_profile(2))
        calls = count_ccm_builds(monkeypatch)
        need = 16 * (2 * 15**2 + (K + K) * T + T * K)  # M = K
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="physical memory"):
            run_scheme(cfg)
        assert calls == []
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: need)
        assert run_scheme(cfg).decompositions == K - 1

    def test_physical_memory_is_positive(self):
        assert laxflow.scheme._physical_memory() > 0

    def test_check_skipped_without_sysconf_or_cgroup(self, monkeypatch):
        monkeypatch.delattr(laxflow.scheme.os, "sysconf")
        monkeypatch.setattr(laxflow.scheme, "_cgroup_memory_limit", lambda: math.inf)
        assert laxflow.scheme._physical_memory() == math.inf
        out = run("BO", make_schedule("constant", 8, 8), [0.5], bo_profile(1))
        assert out.decompositions == 1

    def test_cgroup_limit_lowest_on_the_path(self, tmp_path):
        proc, root = tmp_path / "cgroup", tmp_path / "fs"
        for d, name, text in [("a", "memory.max", "3000\n"), ("a/b", "memory.max", "max\n"),
                              ("memory/x", "memory.limit_in_bytes", "2000\n"),
                              ("memory/x/y", "memory.limit_in_bytes", "9223372036854771712\n"),
                              ("cpu/x/y", "memory.limit_in_bytes", "5\n")]:
            (root / d).mkdir(parents=True)
            (root / d / name).write_text(text)
        limit = laxflow.scheme._cgroup_memory_limit
        proc.write_text("0::/a/b\n")
        assert limit(str(proc), str(root)) == 3000
        proc.write_text("4:memory:/x/y\n3:cpu:/x/y\n")
        assert limit(str(proc), str(root)) == 2000
        proc.write_text("0::/\n")
        assert limit(str(proc), str(root)) == math.inf
        assert limit(str(tmp_path / "absent"), str(root)) == math.inf


def count_ccm_builds(monkeypatch):
    """Record the n of every CCM Lax build from here on."""
    calls = []

    def counting(*args):
        calls.append(args[1])
        return build_ccm_lax(*args)

    monkeypatch.setattr(laxflow.lax, "build_ccm_lax", counting)
    return calls


class TestConservation:
    def test_mass(self):
        K = 16
        out = run("BO", make_schedule("constant", K), [0.0, 3.3, -7.1], bo_profile(2))
        u0 = analyze_profile(bo_profile(2), K)
        for t in (0.0, 3.3, -7.1):
            assert mass(out, t) == pytest.approx(u0.coeff(0).real, abs=1e-12)

    def test_telescoping(self):
        K = 24
        sched = make_schedule("constant", K)
        out = run("CCM-defocusing", sched, 1.9, bo_profile(4))
        # ||u^K||^2 + sum_k |uhat(t,k)|^2 == ||seed||^2
        tail = np.linalg.norm(out.final_iterate[:, 0]) ** 2
        total = tail + hardy_l2(out, 1.9) ** 2
        assert total == pytest.approx(out.seed_norm**2, abs=1e-12)

    def test_exact_preservation_staircase(self):
        K = 32
        sched = make_schedule("full-staircase", K)
        out = run("BO", sched, 2.4, bo_profile(5))
        assert np.all(out.final_iterate == 0)
        assert hardy_l2(out, 2.4) == pytest.approx(out.seed_norm, abs=1e-12)

    def test_l2_never_increases(self):
        K = 16
        for kind in ("constant", "half-staircase", "linear-case"):
            out = run("CCM-defocusing", make_schedule(kind, K), 5.0, bo_profile(6))
            assert hardy_l2(out, 5.0) <= out.seed_norm + 1e-12

    def test_norm_helpers(self):
        K = 8
        out = run("BO", make_schedule("constant", K), 0.0, bo_profile(7))
        u0 = analyze_profile(bo_profile(7), K)
        assert full_l2(out, 0.0) == pytest.approx(l2_norm(u0), abs=1e-12)
        h = project_hardy(u0)
        assert hardy_l2(out, 0.0) == pytest.approx(l2_norm(h), abs=1e-12)
        ccm = run("CCM-defocusing", make_schedule("constant", K), 0.0, h)
        with pytest.raises(ValueError):
            full_l2(ccm, 0.0)


class TestIterateStructure:
    def test_support_bound(self):
        """Each iterate u^k is supported in the first iterate_size(sched, k) modes.

        The run on the prefix n(0..k) ends with S* u^k as its final iterate,
        so that vector vanishes beyond mode iterate_size(sched, k) - 1.
        """
        K = 16
        sched = make_schedule("half-staircase", K)
        u0 = analyze_profile(bo_profile(1), K)
        for k in range(K):
            prefix = make_schedule("custom", k + 1, sched.values[: k + 1])
            out = run_scheme(SchemeConfig("BO", prefix, np.array([1.3, -2.2]), u0))
            m = max(iterate_size(sched, k) - 1, 0)
            assert np.max(np.abs(out.final_iterate[m:, :]), initial=0.0) <= 1e-12

    def test_cache_shared_across_runs(self):
        K = 8
        sched = make_schedule("constant", K)
        cache = PropagatorCache()
        cfg = SchemeConfig("BO", sched, np.array([1.0]), bo_profile(0))
        a = run_scheme(cfg, cache=cache)
        b = run_scheme(cfg, cache=cache)
        assert a.decompositions == 1
        assert b.decompositions == 0
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_cache_holds_blocks_only(self):
        # full staircase K = 64: steps k >= 1 decompose n = 63..1, each entry
        # an n x n block and its n eigenvalues
        K = 64
        cfg = SchemeConfig("CCM-defocusing", make_schedule("full-staircase", K),
                           np.array([0.5, 2.0]), bo_profile(2))
        out = run_scheme(cfg)
        assert out.decompositions == K - 1
        assert out.cache.nbytes == sum(16 * n * n + 8 * n for n in range(1, K))

    def test_cache_shared_across_frequency_counts(self):
        # the block at n depends on the data and n alone, so a K = 32 run on
        # the cache of a K = 64 run with the same data finds every n it needs
        u0 = HardyVector([0.3, -0.2j, 0.1, 0.05 + 0.05j, 0.02, 0.01j, -0.01, 0.005])
        times = np.array([-1.3, 0.4, 2.5])
        cache = PropagatorCache()
        run_scheme(SchemeConfig("CCM-defocusing", make_schedule("full-staircase", 64), times, u0),
                   cache=cache)
        cfg = SchemeConfig("CCM-defocusing", make_schedule("full-staircase", 32), times, u0)
        hits = cache.hits
        shared = run_scheme(cfg, cache=cache)
        fresh = run_scheme(cfg)
        assert cache.hits - hits == 31 and shared.decompositions == 0
        np.testing.assert_allclose(shared.coeffs, fresh.coeffs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(shared.final_iterate, fresh.final_iterate, rtol=0, atol=1e-12)

    def test_time_reversal_bo(self):
        """Real initial coefficients: BO output at -t is the conjugate of +t."""
        K = 12
        coeffs = np.zeros(K)
        coeffs[1] = 0.3
        coeffs[2] = -0.1
        u0 = InitialProfile("explicit", {"coeffs": coeffs})
        out = run("BO", make_schedule("constant", K), [4.2, -4.2], u0)
        np.testing.assert_allclose(
            out.hardy(-4.2).coeffs, np.conj(out.hardy(4.2).coeffs), atol=1e-12
        )

    def test_real_spectrum_view(self):
        out = run("BO", make_schedule("constant", 8), 1.0, bo_profile(3))
        spec = out.real_spectrum(1.0)
        spec.check_symmetry()
        assert spec.coeff(1) == np.conj(spec.coeff(-1))

    def test_seed_is_truncated_data(self):
        K = 16
        sched = make_schedule("custom", K, custom_values=[5] + [K] * (K - 1))
        out = run("BO", sched, 0.0, bo_profile(9))
        u0 = truncate(project_hardy(analyze_profile(bo_profile(9), K)), 5)
        assert out.seed_norm == pytest.approx(l2_norm(u0), abs=1e-15)
