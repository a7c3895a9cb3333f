import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laxflow.spectral import (
    HardyVector,
    InitialProfile,
    RealSpectrum,
    analyze_profile,
    l2_norm,
    project_hardy,
    sample_grid,
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


class TestRealSpectrumSymmetry:
    @pytest.mark.parametrize("coeffs, message", [
        ([0.5, 0, 0.1, 0, 0.3], "not Hermitian-symmetric"),  # c(-2) = 0.5, c(2) = 0.3
        ([1j, 0, 0.1, 0, 1j], "not Hermitian-symmetric"),  # c(-2) = c(2), not its conjugate
        ([0.3, 0, 0.1 + 1e-300j, 0, 0.3], "zero mode is not real"),
    ])
    def test_refused_on_construction(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            RealSpectrum(coeffs, K=3)

    def test_symmetric_array_accepted_as_is(self):
        c = np.array([0.5 + 0.25j, -2j, 0.1, 2j, 0.5 - 0.25j])
        np.testing.assert_array_equal(RealSpectrum(c, K=3).coeffs, c)


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


def direct_sum(f, xs):
    """dft_synthesize over the stored modes of f."""
    ks = range(-f.K + 1, f.K) if isinstance(f, RealSpectrum) else range(len(f))
    return dft_synthesize(f.coeffs, ks, xs)


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
        np.testing.assert_allclose(vals, direct_sum(f, xs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["real", "hardy"])
    def test_modes_beyond_the_grid_fold_exactly(self, kind):
        # 2 * 9 - 1 = 17 modes on a 6-point grid
        f = self.field(kind, 9, np.random.default_rng(3))
        xs, vals = sample_grid(f, 3)
        np.testing.assert_allclose(vals, direct_sum(f, xs), rtol=0, atol=1e-12)

    def test_empty_field(self):
        xs, vals = sample_grid(HardyVector([]), 4)
        assert len(xs) == 8 and np.all(vals == 0)


class TestSynthesize:
    """Grid synthesis by sample_grid of fields with known samples."""

    def test_constant(self):
        spec = RealSpectrum.from_hardy_part([2.5], K=3)
        np.testing.assert_allclose(sample_grid(spec, 3)[1], 2.5)

    def test_cosine(self):
        spec = RealSpectrum.from_hardy_part([0.0, 0.5], K=2)
        xs, vals = sample_grid(spec, 8)
        np.testing.assert_allclose(vals, np.cos(xs), atol=1e-14)

    def test_real_spectrum_samples_are_real(self):
        _, vals = sample_grid(square_wave(64), 64)
        assert np.max(np.abs(vals.imag)) <= 1e-12

    def test_matches_dft_oracle_and_roundtrip(self):
        rng = np.random.default_rng(11)
        m = 17
        h = HardyVector(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        xs, vals = sample_grid(h, m)
        np.testing.assert_array_equal(xs, -np.pi + 2 * np.pi * np.arange(2 * m) / (2 * m))
        oracle = dft_synthesize(h.coeffs, range(m), xs)
        np.testing.assert_allclose(vals, oracle, atol=1e-12)
        recovered = dft_analyze(vals, xs, range(m))
        np.testing.assert_allclose(recovered, h.coeffs, atol=1e-12)


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
        # seed 2.7 ran as 2 and True as 1; norm -0.5 negated every coefficient
        ("random-sobolev", {"s": 1, "seed": 2.7}),
        ("random-sobolev", {"s": 1, "seed": True}),
        ("random-sobolev", {"s": 1, "seed": -1}),
        ("random-sobolev", {"s": 1, "seed": 2**128}),
        ("random-sobolev", {"s": 1, "seed": None}),
        ("random-sobolev", {"s": 1, "norm": -0.5}),
        ("random-sobolev", {"s": 1, "norm": float("nan")}),
        ("random-sobolev", {"s": 1, "norm": float("inf")}),
        ("random-sobolev", {"s": 1, "norm": "1"}),
        # unknown parameters were ignored: seed 0 ran, the plain square wave ran
        ("random-sobolev", {"s": 1, "sed": 5}),
        ("square-wave", {"amplitude": 3}),
        ("explicit", {"coeffs": [1.0, 0.5, 1.0], "two_sided": True}),
        # failed later, inside analyze_profile, with messages naming no profile
        ("explicit", {"coeffs": 5}),
        ("explicit", {"coeffs": [[1, 2]]}),
        ("explicit", {"coeffs": "ab"}),
        ("explicit", {"coeffs": [1, "a"]}),
        ("explicit", {"coeffs": [[1], [1, 2]]}),
        ("explicit", {"coeffs": [None]}),
        ("explicit", {"coeffs": [1, True]}),
    ])
    def test_missing_or_malformed_required_parameter(self, kind, params):
        with pytest.raises(ValueError):
            InitialProfile(kind, params)

    def test_required_parameters_accepted(self):
        InitialProfile("explicit", {"coeffs": [1.0]})
        InitialProfile("single-mode", {"k0": np.int64(2)})
        InitialProfile("random-sobolev", {"s": 1})
        InitialProfile("random-sobolev", {"s": 1, "seed": np.uint64(2**64 - 1), "norm": 0})
        InitialProfile("random-sobolev", {"s": 1, "seed": 2**128 - 1, "norm": None})
        InitialProfile("square-wave")


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

    def test_zero_profile_is_not_rescaled(self, monkeypatch):
        # a draw of all zeros: no factor takes it to the target norm
        monkeypatch.setattr("laxflow.spectral._random_sobolev_hardy",
                            lambda s, seed, bandwidth: np.zeros(bandwidth, complex))
        p = InitialProfile("random-sobolev", {"s": 1.0, "seed": 1, "norm": 0.75})
        with pytest.raises(ValueError, match="cannot rescale a zero profile"):
            analyze_profile(p, 8)


class TestHermitianSymmetrize:
    """Reflecting Hardy coefficients into a real-field spectrum."""

    def test_basic(self):
        spec = RealSpectrum.from_hardy_part([1.0, 1j], K=2)
        assert spec.coeff(0) == 1.0
        assert spec.coeff(1) == 1j
        assert spec.coeff(-1) == -1j

    def test_empty(self):
        spec = RealSpectrum.from_hardy_part([], K=3)
        assert l2_norm(spec) == 0.0

    @given(hardy_vectors)
    def test_round_trip(self, h):
        c = np.array(h.coeffs)
        if len(c):
            c[0] = c[0].real  # BO data must have real mean
        h = HardyVector(c)
        K = len(h) + 2
        back = project_hardy(RealSpectrum.from_hardy_part(h.coeffs, K))
        np.testing.assert_array_equal(back.coeffs[: len(h)], h.coeffs)
        assert np.all(back.coeffs[len(h) :] == 0)

    def test_rejects_complex_zero_mode(self):
        with pytest.raises(ValueError):
            RealSpectrum.from_hardy_part([1j], K=2)
