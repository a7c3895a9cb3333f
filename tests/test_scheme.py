import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import laxflow.lax
import laxflow.propagator
import laxflow.scheme
import laxflow.spectral
from laxflow.lax import build_ccm_lax
from laxflow.propagator import PropagatorCache
from laxflow.scheme import (
    Schedule,
    SchemeConfig,
    full_l2,
    hardy_l2,
    make_schedule,
    mass,
    run_scheme,
)
from laxflow.spectral import (
    HardyVector,
    InitialProfile,
    RealSpectrum,
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

    @pytest.mark.parametrize("values", [[4], [4, 0], [4, 3, 3, 0, 0, 3], [2, 2, 2, 1, 1, 2, 0],
                                        list(range(9, 0, -1)), [5] * 7])
    def test_runs_are_the_groups_of_equal_values(self, values):
        ns, lengths = Schedule(len(values), "custom", values).runs
        assert list(zip(ns.tolist(), lengths.tolist())) == [
            (n, len(list(g))) for n, g in itertools.groupby(values[1:])]

    def test_an_array_is_checked_by_its_dtype(self, monkeypatch):
        # value by value, an absurd K did O(K) Python work before its refusal
        calls = []
        is_integer = laxflow.spectral._is_integer
        monkeypatch.setattr(laxflow.spectral, "_is_integer",
                            lambda v: calls.append(v) or is_integer(v))
        for ints in (np.arange(3, 0, -1), np.array([2, 1, 0], dtype=np.uint8)):
            np.testing.assert_array_equal(Schedule(3, "custom", ints).values, ints)
        assert calls == []
        for bad in (np.array([2.0, 1.0, 0.0]), np.array([True, True, False])):
            with pytest.raises(ValueError, match="must be integers"):
                Schedule(3, "custom", bad)
        # anything but an int array is checked value by value
        calls.clear()
        objects = np.array([2, 1, 0], dtype=object)
        np.testing.assert_array_equal(Schedule(3, "custom", objects).values, [2, 1, 0])
        assert calls == [2, 1, 0]
        with pytest.raises(ValueError, match="one dimension"):
            Schedule(3, "custom", np.ones((3, 1), dtype=int))

    def test_zero_seed_truncation_warns(self):
        with pytest.warns(UserWarning, match="n\\(0\\) = 0"):
            make_schedule("custom", 2, custom_values=[0, 2])


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

    @pytest.mark.parametrize("times, shape", [([[1.0], [2.0]], (2, 1)),
                                              (np.array(1.0), ()),
                                              ([[1.0, 2.0]], (1, 2))])
    def test_times_of_other_shapes_rejected(self, times, shape):
        # a column ran with one output row per time, a scalar failed in len()
        # and a row was called not distinct
        with pytest.raises(ValueError, match=f"one-dimensional.*{re.escape(str(shape))}"):
            SchemeConfig("BO", make_schedule("constant", 2), times, bo_profile(0))

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

    @pytest.mark.parametrize("K", [1 << 14, 1 << 15])
    def test_free_flow_to_rounding_past_j_squared_2_to_26(self, K):
        # j^2 passes 2^26 above K = 8192: t's 27 low bits times j^2 were
        # rounded, which put K = 32768 3.9e-7 off (a phase error of 3.1e-5);
        # the gauge takes t in as many chunks as keep each product exact
        mpmath = pytest.importorskip("mpmath")
        t = 1000 - 1 / 3
        p = InitialProfile("random-sobolev", {"s": -0.49, "seed": 1, "norm": 1.0})
        out = run("BO", make_schedule("linear-case", K), [t], p)
        c = project_hardy(analyze_profile(p, K)).padded(K)
        with mpmath.workdps(40):
            expect = [complex(mpmath.expj(mpmath.mpf(t) * k * k) * c[k]) for k in range(K)]
        assert np.all(np.abs(out.coeffs[0] - expect) <= 1e-14 * np.abs(c))

    def test_runs_at_zero_decompose_nothing(self):
        lin = run("BO", make_schedule("linear-case", 16), [0.5, 2.0], bo_profile(1))
        half = run("BO", make_schedule("half-staircase", 16), [0.5, 2.0], bo_profile(1))
        assert (lin.decompositions, half.decompositions) == (0, 1)

    def test_regauge_phases_the_rows_in_place(self):
        # the rows are a view of the buffer, phased by one array: above the buffer and
        # the coefficients the peak was 2.26 (M + K) x T complex arrays with the rows
        # gathered, scattered back and phased by a product of the chunks' phases
        K, T = 64, 4000
        cfg = SchemeConfig("BO", make_schedule("linear-case", K), np.linspace(-1.0, 1.0, T),
                           bo_profile(3))
        run_scheme(cfg)
        tracemalloc.start()
        try:
            out = run_scheme(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = 16 * (K + K) * T
        assert peak - out.coeffs.nbytes - unit <= 2 * unit, peak / unit


class TestTravelingWave:
    """BO data with Hardy coefficients q^k, k >= 1, and mean 0 is a traveling
    wave, an exact nonlinear solution: q^k e^{i k t (1 - 3 q^2) / (1 - q^2)}."""

    TIMES = [-1000.0, -0.7, 0.7, 10.0, 100.0, 1000.0]

    @staticmethod
    def wave(q, K, times):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            mq = mpmath.mpf(q)
            speed = (1 - 3 * mq**2) / (1 - mq**2)
            return np.array([[complex(mq**k * mpmath.expj(mpmath.mpf(t) * k * speed)) if k else 0
                              for k in range(K)] for t in times])

    @pytest.mark.parametrize("q, kind, K", [
        (q, kind, K) for q in (0.2, 0.3, 0.5, 0.6)
        for kind, K in (("constant", 64), ("constant", 256), ("half-staircase", 128),
                        ("half-staircase", 256), ("full-staircase", 128))]
        + [(0.5, "full-staircase", 256)])
    def test_scheme_is_the_wave(self, q, kind, K):
        # largest Hardy L2 error seen: 4.9e-13 (q = 0.6, half-staircase, K = 256,
        # |t| = 1000), growing about linearly in |t| as phase rounding does; the
        # half-staircase's truncation q^(K/2) is below 1e-28 from K = 128
        k = np.arange(K)
        u0 = RealSpectrum.from_hardy_part(np.where(k >= 1, q**k, 0.0), K)
        out = run("BO", make_schedule(kind, K), self.TIMES, u0)
        err = np.linalg.norm(out.coeffs - self.wave(q, K, self.TIMES), axis=1)
        assert np.max(err) <= 1e-12, err
        # the staircase derives some of its decompositions from the one before
        assert out.cache.derived > 0 or kind != "full-staircase"


class TestFocusingTravelingWave:
    """CCM-focusing data sqrt(1 - |q|^2) q^k, k >= 0, of norm exactly 1, is a
    traveling wave, an exact nonlinear solution: sqrt(1 - |q|^2) q^k e^{ikt}."""

    TIMES = TestTravelingWave.TIMES

    @staticmethod
    def wave(q, K, times):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            mq = mpmath.mpc(q)
            c = mpmath.sqrt(1 - abs(mq) ** 2)
            return np.array([[complex(c * mq**k * mpmath.expj(mpmath.mpf(t) * k))
                              for k in range(K)] for t in times])

    @pytest.mark.parametrize("q, kind, K", [
        (q, kind, K) for q in (0.2, 0.5, 0.6j, 0.6)
        for kind, K in (("constant", 64), ("constant", 256), ("half-staircase", 256),
                        ("full-staircase", 128))]
        + [(0.5, "full-staircase", 256)])
    def test_scheme_is_the_wave(self, q, kind, K):
        # largest Hardy L2 error seen: 5.0e-13 (q = 0.6i, full staircase, K = 128,
        # t = -1000); the norm is 1, on the focusing threshold, so the run needs
        # the override
        u0 = HardyVector(np.sqrt(1 - abs(q) ** 2) * q ** np.arange(K))
        out = run("CCM-focusing", make_schedule(kind, K), self.TIMES, u0,
                  override_focusing_threshold=True)
        err = np.linalg.norm(out.coeffs - self.wave(q, K, self.TIMES), axis=1)
        assert np.max(err) <= 1e-12, err


class TestGapData:
    """BO data whose Hardy part is sum_j q_j^k, k >= 1, with mean 0, is N-gap
    for N distinct q_j, and the flow keeps it N-gap: the Hankel matrix of the
    coefficients, u(t, 1 + a + b), has rank N."""

    @pytest.mark.parametrize("qs", [(0.5, -0.3), (0.6, 0.4 * np.exp(1j)), (0.5, -0.3, 0.2j)],
                             ids=["two-real", "two-complex", "three"])
    @pytest.mark.parametrize("kind", ["constant", "full-staircase"])
    def test_hankel_rank_is_the_gap_count(self, qs, kind):
        # largest ratio seen: 1.1e-14.  The half-staircase is left out: it
        # truncates the data at K/2, which at |q| = 0.6 and K = 128 leaves 6.5e-9
        K, times = 128, [0.7, 10.0, 100.0]
        k = np.arange(K)
        u0 = RealSpectrum.from_hardy_part(
            np.where(k >= 1, sum(np.asarray(q, complex) ** k for q in qs), 0.0), K)
        out = run("BO", make_schedule(kind, K), times, u0)
        a = np.arange(40)
        for c in out.coeffs:
            sigma = np.linalg.svd(c[1 + a[:, None] + a], compute_uv=False)
            assert sigma[len(qs)] <= 1e-12 * sigma[0], sigma[: len(qs) + 1]


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
    """The cache keeps decompositions within its budget only; the run holds
    the decomposition in use and its parent, and a return to an n goes
    through the cache."""

    def test_full_staircase_holds_a_few_blocks(self, monkeypatch):
        # with nothing cached, the peak is the build, the decomposition in
        # use and its parent, which the run holds, and the derivation's
        # temporaries; all K - 1 entries held would be about 44 blocks
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

    def test_a_return_within_the_budget_is_a_cache_hit(self):
        # 8 is needed again after 4, and its entry is still cached
        sched = make_schedule("custom", 8, [8, 8, 4, 4, 8, 8, 2, 2])
        out = run("BO", sched, [0.3, 1.7], bo_profile(6))
        assert (out.decompositions, out.cache.hits) == (3, 1)

    def test_an_evicted_return_is_decomposed_again_to_the_same_bytes(self, monkeypatch):
        sched = make_schedule("custom", 8, [8, 8, 4, 4, 8, 8, 2, 2])
        cached = run("BO", sched, [0.3, 1.7], bo_profile(6))
        monkeypatch.setattr(laxflow.propagator, "_CACHE_BUDGET", 0)
        out = run("BO", sched, [0.3, 1.7], bo_profile(6))
        assert out.decompositions == 4
        assert (out.cache.evictions, out.cache.nbytes) == (4, 0)
        np.testing.assert_array_equal(out.coeffs, cached.coeffs)
        np.testing.assert_array_equal(out.final_iterate, cached.final_iterate)

    def test_returning_staircases_peak_within_the_preflight_count(self):
        # two staircases K/2..1, K/2..2: the run holds no decomposition for a
        # later run, so its peak is within the count of every schedule, 4.03 MiB
        # here; holding one of each n = K/2..2 for the second staircase took 11.25
        K = 256
        custom = [K // 2] + list(range(K // 2, 0, -1)) + list(range(K // 2, 1, -1))
        cfg = SchemeConfig("CCM-defocusing", make_schedule("custom", K, custom), [1.0],
                           bo_profile(3))
        run_scheme(cfg)
        tracemalloc.start()
        try:
            run_scheme(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_max = K // 2
        assert peak <= 16 * (8 * n_max**2 + 4 * (K + K)) + laxflow.propagator._CACHE_BUDGET

    def test_rerun_on_its_own_cache_hits_every_kept_entry(self):
        # a K = 128 full staircase overflows the 2 MiB budget; the cache keeps
        # the smallest decompositions, which a rerun reaches last
        K = 128
        u0 = analyze_profile(bo_profile(7, norm=0.4), K, hardy=True)
        cfg = SchemeConfig("CCM-defocusing", make_schedule("full-staircase", K),
                           np.array([-0.7, 1.3]), u0)
        first = run_scheme(cfg)
        cache = first.cache
        kept = sorted(key[1] for key in cache._store)
        assert first.decompositions == K - 1 and cache.evictions > 0
        assert kept == list(range(1, len(kept) + 1))
        again = run_scheme(cfg, cache=cache)
        assert (again.decompositions, cache.hits) == (K - 1 - len(kept), len(kept))
        np.testing.assert_array_equal(first.coeffs, again.coeffs)
        np.testing.assert_array_equal(first.final_iterate, again.final_iterate)


class TestPreflight:
    """A run that cannot fit in physical memory is refused before any work."""

    def test_bound_is_build_decomposition_iterate_and_coefficients(self, monkeypatch):
        K, T = 16, 3
        cfg = SchemeConfig("CCM-defocusing", make_schedule("full-staircase", K),
                           np.linspace(-1.0, 1.0, T), bo_profile(2))
        calls = count_ccm_builds(monkeypatch)
        # 8 blocks at n_max = 15, 4 (M + K) x T columns (M = K) and the cache's budget
        need = 16 * (8 * 15**2 + 4 * (K + K) * T) + laxflow.propagator._CACHE_BUDGET
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="physical memory"):
            run_scheme(cfg)
        assert calls == []
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: need)
        assert run_scheme(cfg).decompositions == K - 1

    @pytest.mark.parametrize("equation, kind, K, T", [
        ("BO", "constant", 256, 41), ("BO", "half-staircase", 256, 4),
        ("BO", "linear-case", 256, 41), ("CCM-defocusing", "full-staircase", 256, 41),
        # the cache's 1.3 MiB is most of this peak, 24 blocks of 16 n_max^2
        ("CCM-defocusing", "full-staircase", 64, 41),
        # two staircases K/2..1, K/2..2: the second's returns go through the
        # cache, so the run holds only the decomposition in use and its parent
        ("CCM-defocusing", "custom", 256, 1)])
    def test_preflight_counts_the_peak(self, monkeypatch, equation, kind, K, T):
        # tracemalloc's peak over one run is within what the preflight
        # counts: given one byte less, it refuses; a first run's lazy imports
        # are taken apart
        custom = ([K // 2] + list(range(K // 2, 0, -1)) + list(range(K // 2, 1, -1))
                  if kind == "custom" else None)
        cfg = SchemeConfig(equation, make_schedule(kind, K, custom), np.linspace(-1.0, 1.0, T),
                           bo_profile(3))
        run_scheme(cfg)
        tracemalloc.start()
        try:
            run_scheme(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: peak - 1)
        with pytest.raises(ValueError, match="physical memory"):
            run_scheme(cfg)

    @pytest.mark.parametrize("kind", ["constant", "full-staircase", "custom"])
    def test_refusal_does_no_python_work_per_step(self, monkeypatch, kind):
        # the check reads n_max alone and the runs are found after it, so an
        # absurd K is refused at once: at most 10 int64 arrays of K before the
        # check, where a list of a full staircase's K - 1 runs as (n, steps)
        # tuples and dicts of each n's first and last run took about 40
        K = 2**16
        custom = ([K // 2] + list(range(K // 2, 0, -1)) + list(range(K // 2, 1, -1))
                  if kind == "custom" else None)
        cfg = SchemeConfig("BO", make_schedule(kind, K, custom), [1.0], bo_profile(1))
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: 0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                run_scheme(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * K

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

    @pytest.mark.parametrize("kind", ["constant", "half-staircase", "full-staircase", "custom"])
    @pytest.mark.parametrize("data", [
        bo_profile(8),
        # a zero mode within 1e-10 of real is made exactly real
        RealSpectrum.from_hardy_part([0.3 + 1e-12j, -0.2j, 0.1, 0.05 + 0.05j, 0.02, 0.01j], 16),
    ])
    def test_mass_is_the_seed_zero_mode_bit_exactly(self, kind, data):
        # a real field's zero mode is exactly real by construction, and the
        # scheme copies it from the seed, so no rounding can reach it
        K = 16
        custom = [3, 5, 1, 0, 7] + [2] * (K - 5) if kind == "custom" else None
        sched = make_schedule(kind, K, custom_values=custom)
        times = [-1000.0, -3.7, 0.0, 0.4, 2 * math.pi, 1000.0]
        out = run("BO", sched, times, data)
        u0 = analyze_profile(data, K) if isinstance(data, InitialProfile) else data
        c0 = u0.coeff(0)
        assert c0 != 0 and c0.imag == 0.0
        assert np.all(out.coeffs[:, 0] == c0)

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
        """Each iterate u^k is supported in modes below max_l (n(l) - (k - l)).

        The run on the prefix n(0..k) ends with S* u^k as its final iterate,
        so that vector vanishes from one mode below that bound on.
        """
        K = 16
        sched = make_schedule("half-staircase", K)
        u0 = analyze_profile(bo_profile(1), K)
        for k in range(K):
            prefix = make_schedule("custom", k + 1, sched.values[: k + 1])
            out = run_scheme(SchemeConfig("BO", prefix, np.array([1.3, -2.2]), u0))
            size = max(sched.values[: k + 1] - (k - np.arange(k + 1)))
            m = max(size - 1, 0)
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
