import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxflow.spectral import (
    HardyVector,
    InitialProfile,
    NormSpec,
    RealSpectrum,
    analyze_profile,
    hermitian_symmetrize,
    hs_kappa_norm,
    inner_with_one,
    l2_norm,
    project_hardy,
    sample_grid,
    shift_left,
    synthesize,
    truncate,
)
from oracles import dft_analyze, dft_synthesize, square_wave_coeff_quadrature

finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False
)
hardy_vectors = st.lists(finite_complex, min_size=0, max_size=24).map(HardyVector)


def square_wave(K):
    return analyze_profile(InitialProfile("square-wave"), K)


class TestProjectHardy:
    def test_keeps_nonnegative_modes(self):
        a = 0.7
        spec = RealSpectrum.from_hardy_part([1.0, 1j * a], K=2)
        h = project_hardy(spec)
        np.testing.assert_array_equal(h.coeffs, [1.0, 1j * a])

    def test_zero_spectrum(self):
        spec = RealSpectrum.from_hardy_part([0.0, 0.0], K=2)
        assert np.all(project_hardy(spec).coeffs == 0)

    def test_square_wave_matches_quadrature(self):
        h = project_hardy(square_wave(32))
        assert h.coeff(0) == 0
        for k in range(1, 32):
            expect = -1j * (1 - (-1) ** k) / (np.pi * k)
            assert h.coeff(k) == pytest.approx(expect, abs=1e-15)
            assert h.coeff(k) == pytest.approx(square_wave_coeff_quadrature(k), abs=1e-8)

    def test_rejects_asymmetric_spectrum(self):
        c = np.array([2.0, 1.0, 1.0], dtype=complex)  # c(-1) != conj(c(1))... it is; break it
        c[0] = 3.0
        with pytest.raises(ValueError):
            project_hardy(RealSpectrum(c, K=2))


class TestTruncateShift:
    def test_truncate_basic(self):
        h = HardyVector([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(truncate(h, 2).coeffs, [1.0, 2.0])
        assert len(truncate(h, 0)) == 0
        np.testing.assert_array_equal(truncate(h, 7).coeffs, h.coeffs)

    @given(hardy_vectors, st.integers(0, 30))
    def test_truncate_idempotent_and_monotone(self, h, j):
        once = truncate(h, j)
        np.testing.assert_array_equal(truncate(once, j).coeffs, once.coeffs)
        assert l2_norm(once) <= l2_norm(h) + 1e-12

    def test_shift_examples(self):
        np.testing.assert_array_equal(
            shift_left(HardyVector([1.0, 2.0, 3.0])).coeffs, [2.0, 3.0]
        )
        assert len(shift_left(HardyVector([]))) == 0
        mode5 = HardyVector([0, 0, 0, 0, 0, 1.0])
        assert shift_left(mode5).coeff(4) == 1.0

    @given(hardy_vectors)
    @settings(max_examples=200)
    def test_shift_energy_law(self, h):
        lhs = l2_norm(shift_left(h)) ** 2 + abs(inner_with_one(h)) ** 2
        assert lhs == pytest.approx(l2_norm(h) ** 2, abs=1e-12 * (1 + l2_norm(h) ** 2))


class TestInnerWithOne:
    def test_examples(self):
        assert inner_with_one(HardyVector([3 + 1j, 7.0])) == 3 + 1j
        assert inner_with_one(HardyVector([])) == 0
        assert inner_with_one(project_hardy(square_wave(16))) == 0


class TestNorms:
    def test_single_mode(self):
        assert l2_norm(HardyVector([0, 0, 1.0])) == 1.0

    def test_real_spectrum_plancherel(self):
        spec = RealSpectrum.from_hardy_part([0.0, 0.5], K=2)
        assert l2_norm(spec) == pytest.approx(np.sqrt(0.5))

    def test_square_wave_partial_sum(self):
        K = 1 << 10
        spec = square_wave(K)
        partial = np.sqrt(2 * sum(4.0 / (np.pi**2 * k**2) for k in range(1, K) if k % 2))
        assert l2_norm(spec) == pytest.approx(partial, rel=1e-13)
        assert l2_norm(spec) < 1.0  # ||sgn|| = 1

    def test_hs_kappa_examples(self):
        assert hs_kappa_norm(HardyVector([0, 1.0]), NormSpec(1.0, 2.0)) == pytest.approx(3.0)
        assert hs_kappa_norm(HardyVector([1.0, 1.0]), NormSpec(-1.0, 1.0)) == pytest.approx(
            np.sqrt(1.25)
        )

    @given(hardy_vectors, st.floats(1.0, 50.0))
    def test_hs_kappa_s0_equals_l2(self, h, kappa):
        assert hs_kappa_norm(h, NormSpec(0.0, kappa)) == l2_norm(h)

    def test_rejects_small_kappa(self):
        with pytest.raises(ValueError):
            NormSpec(1.0, 0.5)


class TestSampleGrid:
    """The FFT grid sampler against direct summation."""

    @staticmethod
    def field(kind, K, rng):
        c = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        if kind == "real":
            c[0] = c[0].real
            return RealSpectrum.from_hardy_part(c, K)
        return HardyVector(c)

    @pytest.mark.parametrize("kind", ["real", "hardy"])
    @pytest.mark.parametrize("K", [1, 2, 7, 64])
    def test_matches_synthesize(self, kind, K):
        f = self.field(kind, K, np.random.default_rng(K))
        xs, vals = sample_grid(f, K)
        np.testing.assert_array_equal(xs, -np.pi + np.pi * np.arange(2 * K) / K)
        np.testing.assert_allclose(vals, synthesize(f, xs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["real", "hardy"])
    def test_modes_beyond_the_grid_fold_exactly(self, kind):
        # 2 * 9 - 1 = 17 modes on a 6-point grid
        f = self.field(kind, 9, np.random.default_rng(3))
        xs, vals = sample_grid(f, 3)
        np.testing.assert_allclose(vals, synthesize(f, xs), rtol=0, atol=1e-12)

    def test_empty_field(self):
        xs, vals = sample_grid(HardyVector([]), 4)
        assert len(xs) == 8 and np.all(vals == 0)


class TestProfileParameters:
    @pytest.mark.parametrize("kind, params", [
        ("explicit", {}),
        ("single-mode", {"amplitude": 0.5}),
        ("random-sobolev", {"seed": 1, "norm": 0.5}),
        ("single-mode", {"k0": 1.5}),
        ("single-mode", {"k0": True}),
        ("random-sobolev", {"s": float("inf")}),
        ("random-sobolev", {"s": "1"}),
        ("random-sobolev", {"s": 10**400}),
    ])
    def test_missing_or_malformed_required_parameter(self, kind, params):
        with pytest.raises(ValueError):
            InitialProfile(kind, params)

    def test_required_parameters_accepted(self):
        InitialProfile("explicit", {"coeffs": [1.0]})
        InitialProfile("single-mode", {"k0": np.int64(2)})
        InitialProfile("random-sobolev", {"s": 1})
        InitialProfile("square-wave")


class TestSynthesize:
    def test_constant(self):
        spec = RealSpectrum.from_hardy_part([2.5], K=3)
        np.testing.assert_allclose(synthesize(spec, [0.0, 1.0, -2.0]), 2.5)

    def test_cosine(self):
        spec = RealSpectrum.from_hardy_part([0.0, 0.5], K=2)
        xs = np.linspace(-np.pi, np.pi, 9, endpoint=False)
        np.testing.assert_allclose(synthesize(spec, xs), np.cos(xs), atol=1e-14)

    def test_real_spectrum_samples_are_real(self):
        spec = square_wave(64)
        xs = np.linspace(-np.pi, np.pi, 128, endpoint=False)
        assert np.max(np.abs(synthesize(spec, xs).imag)) <= 1e-12

    def test_matches_dft_oracle_and_roundtrip(self):
        rng = np.random.default_rng(11)
        m = 17
        h = HardyVector(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        xs = -np.pi + 2 * np.pi * np.arange(2 * m) / (2 * m)
        vals = synthesize(h, xs)
        oracle = dft_synthesize(h.coeffs, range(m), xs)
        np.testing.assert_allclose(vals, oracle, atol=1e-12)
        recovered = dft_analyze(vals, xs, range(m))
        np.testing.assert_allclose(recovered, h.coeffs, atol=1e-12)


class TestAnalyzeProfile:
    def test_square_wave_quadrature(self):
        spec = square_wave(65)
        assert spec.coeff(1) == pytest.approx(-2j / np.pi, abs=1e-12)
        for k in range(-64, 65):
            assert spec.coeff(k) == pytest.approx(square_wave_coeff_quadrature(k), abs=1e-8)

    def test_even_modes_vanish(self):
        spec = square_wave(16)
        assert all(spec.coeff(k) == 0 for k in range(-15, 16, 2) if k % 2 == 0)

    def test_single_mode(self):
        spec = analyze_profile(
            InitialProfile("single-mode", {"k0": 3, "amplitude": 0.2}), 8
        )
        assert spec.coeff(3) == 0.2
        assert spec.coeff(-3) == np.conj(0.2 + 0j)

    def test_single_mode_out_of_band(self):
        with pytest.raises(ValueError):
            analyze_profile(InitialProfile("single-mode", {"k0": 9}), 8)

    def test_random_sobolev_deterministic(self):
        p = InitialProfile("random-sobolev", {"s": 1.5, "seed": 42})
        a = analyze_profile(p, 32)
        b = analyze_profile(p, 32)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_random_sobolev_norm_target(self):
        p = InitialProfile("random-sobolev", {"s": 1.0, "seed": 1, "norm": 0.75})
        assert l2_norm(analyze_profile(p, 64, hardy=True)) == pytest.approx(0.75)


class TestHermitianSymmetrize:
    def test_basic(self):
        spec = hermitian_symmetrize(HardyVector([1.0, 1j]), K=2)
        assert spec.coeff(0) == 1.0
        assert spec.coeff(1) == 1j
        assert spec.coeff(-1) == -1j

    def test_empty(self):
        spec = hermitian_symmetrize(HardyVector([]), K=3)
        assert l2_norm(spec) == 0.0

    @given(hardy_vectors)
    def test_round_trip(self, h):
        c = np.array(h.coeffs)
        if len(c):
            c[0] = c[0].real  # BO data must have real mean
        h = HardyVector(c)
        K = len(h) + 2
        back = project_hardy(hermitian_symmetrize(h, K))
        np.testing.assert_array_equal(back.coeffs[: len(h)], h.coeffs)
        assert np.all(back.coeffs[len(h) :] == 0)

    def test_rejects_complex_zero_mode(self):
        with pytest.raises(ValueError):
            hermitian_symmetrize(HardyVector([1j]), K=2)
