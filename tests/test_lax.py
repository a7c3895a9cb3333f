import numpy as np
import pytest

import scipy.linalg

from laxflow.lax import (
    EQUATIONS,
    Equation,
    LaxMatrix,
    build_bo_lax,
    build_ccm_lax,
    data_digest,
    hermitian_defect,
    mult_matrix,
)
from laxflow.spectral import HardyVector, InitialProfile, RealSpectrum, analyze_profile
from oracles import bo_lax_by_convolution, ccm_gram_block, ccm_lax_by_gram
from dense import dense_matrix


def random_real_spectrum(K, seed, norm=0.5):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})
    return analyze_profile(p, K)


def random_hardy(K, seed, norm=0.5):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})
    return analyze_profile(p, K, hardy=True)


class TestBoLax:
    def test_free_operator(self):
        m = build_bo_lax(random_real_spectrum(8, 0), 0)
        np.testing.assert_array_equal(dense_matrix(m, 8), np.diag(np.arange(8.0)))

    def test_single_mode_block(self):
        # u0 = 2 cos(x): uhat(1) = uhat(-1) = 1
        u0 = RealSpectrum.from_hardy_part([0.0, 1.0], K=4)
        m = build_bo_lax(u0, 3)
        expect = np.diag(np.arange(4.0)).astype(complex)
        expect[:3, :3] -= np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        np.testing.assert_array_equal(dense_matrix(m, 4), expect)

    def test_matches_convolution_oracle(self):
        u0 = random_real_spectrum(16, 3)
        for n in (0, 1, 5, 16):
            m = build_bo_lax(u0, n)
            oracle = bo_lax_by_convolution(u0.coeff, n, 16)
            np.testing.assert_allclose(dense_matrix(m, 16), oracle, atol=1e-13)

    def test_exactly_hermitian(self):
        for seed in range(4):
            m = build_bo_lax(random_real_spectrum(32, seed), 20)
            assert hermitian_defect(m) == 0.0

    def test_diagonal_untouched_outside_block(self):
        m = build_bo_lax(random_real_spectrum(8, 1), 3)
        e = dense_matrix(m, 8)
        for j in range(3, 8):
            assert e[j, j] == j
            assert np.all(e[j, :j] == 0) and np.all(e[:j, j][3:] == 0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="negative"):
            build_bo_lax(random_real_spectrum(4, 0), -1)
        with pytest.raises(ValueError, match="negative"):
            build_ccm_lax(random_hardy(4, 0), -1, "focusing")


class TestCcmLax:
    def test_single_mode_gram(self):
        # u0 = e^{ix}: A is the subdiagonal shift, G = A A^H = diag(0,1,1,...)
        u0 = HardyVector([0.0, 1.0])
        m = build_ccm_lax(u0, 4, "defocusing")
        expect = np.diag(np.arange(4.0)) + np.diag([0.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(dense_matrix(m, 4), expect)

    def test_focusing_sign(self):
        u0 = HardyVector([0.5])
        mf = build_ccm_lax(u0, 2, "focusing")
        md = build_ccm_lax(u0, 2, "defocusing")
        np.testing.assert_array_equal(mf.block - np.diag([0.0, 1.0]),
                                      -(md.block - np.diag([0.0, 1.0])))

    def test_matches_gram_oracle(self):
        u0 = random_hardy(12, 7)
        for sign in ("focusing", "defocusing"):
            for n in (0, 1, 4, 12):
                m = build_ccm_lax(u0, n, sign)
                oracle = ccm_lax_by_gram(u0.coeff, n, 12, sign)
                np.testing.assert_allclose(dense_matrix(m, 12), oracle, atol=1e-13)

    def test_gram_block_psd(self):
        u0 = random_hardy(16, 2)
        m = build_ccm_lax(u0, 16, "defocusing")
        g = m.block - np.diag(np.arange(16.0))
        lam = np.linalg.eigvalsh(g)
        assert lam.min() >= -1e-13
        np.testing.assert_allclose(g[:4, :4], ccm_gram_block(u0.coeff, 16)[:4, :4], atol=1e-12)

    def test_exactly_hermitian(self):
        for seed in range(4):
            m = build_ccm_lax(random_hardy(32, seed), 32, "focusing")
            assert hermitian_defect(m) == 0.0

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            build_ccm_lax(HardyVector([0.1]), 1, "neutral")


class TestBookkeeping:
    def test_digest_distinguishes_data(self):
        a = random_real_spectrum(8, 0)
        b = random_real_spectrum(8, 1)
        assert data_digest(a) != data_digest(b)
        assert data_digest(a) == data_digest(random_real_spectrum(8, 0))

    def test_digest_distinguishes_container(self):
        h = HardyVector([1.0])
        s = RealSpectrum.from_hardy_part([1.0], K=1)
        assert data_digest(h) != data_digest(s)

    def test_defect_detects_corruption(self):
        e = np.diag(np.arange(3.0)).astype(complex)
        e[0, 1] = 1j
        m = LaxMatrix(e[:2, :2], EQUATIONS["BO"])
        assert m.n == 2
        assert hermitian_defect(m) == pytest.approx(1.0)

    def test_rejects_block_of_wrong_shape(self):
        with pytest.raises(ValueError):
            LaxMatrix(np.ones((2, 3)), EQUATIONS["BO"])
        with pytest.raises(ValueError):
            LaxMatrix(np.ones(4), EQUATIONS["BO"])

    def test_dense_view_has_diagonal_tail(self):
        m = build_bo_lax(random_real_spectrum(8, 2), 3)
        e = dense_matrix(m, 8)
        np.testing.assert_array_equal(e[:3, :3], m.block)
        np.testing.assert_array_equal(e[3:, 3:], np.diag(np.arange(3.0, 8.0)))
        assert not e[:3, 3:].any() and not e[3:, :3].any()


class TestEquations:
    def test_table(self):
        got = {name: (e.family, e.sign, e.alpha, e.hardy) for name, e in EQUATIONS.items()}
        assert got == {
            "BO": ("BO", None, 1, False),
            "CCM-focusing": ("CCM", "focusing", -1, True),
            "CCM-defocusing": ("CCM", "defocusing", -1, True),
        }
        for name, e in EQUATIONS.items():
            assert e.name == name
            assert Equation.named(name) is e

    @pytest.mark.parametrize("name", ["KdV", "CCM", "ccm-focusing", "bo", "", None, ["BO"]])
    def test_unknown_names_rejected(self, name):
        with pytest.raises(ValueError, match="unknown equation"):
            Equation.named(name)

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_build_lax_is_the_builder(self, n):
        bo, hardy = random_real_spectrum(12, 4), random_hardy(12, 4)
        cases = [("BO", build_bo_lax(bo, n), bo)]
        cases += [(f"CCM-{sign}", build_ccm_lax(hardy, n, sign), hardy)
                  for sign in ("focusing", "defocusing")]
        for name, want, u0 in cases:
            got = EQUATIONS[name].build_lax(u0, n)
            assert got.equation is EQUATIONS[name]
            assert got.n == n
            np.testing.assert_array_equal(got.block, want.block)


class TestMultMatrix:
    """U[j, l] = u0hat(j - l), read off coeff() independently of the helper."""

    @staticmethod
    def by_coeff(u0, n):
        return scipy.linalg.toeplitz([u0.coeff(j) for j in range(n)],
                                     [u0.coeff(-l) for l in range(n)])

    @pytest.mark.parametrize("n", [0, 1, 7, 16, 20])
    def test_real_field(self, n):
        u0 = random_real_spectrum(16, 8)
        np.testing.assert_array_equal(mult_matrix(u0, n), self.by_coeff(u0, n).reshape(n, n))

    @pytest.mark.parametrize("n", [0, 1, 7, 16, 20])
    def test_hardy_data_is_lower_triangular(self, n):
        u0 = random_hardy(16, 8)
        U = mult_matrix(u0, n)
        np.testing.assert_array_equal(U, self.by_coeff(u0, n).reshape(n, n))
        np.testing.assert_array_equal(U, np.tril(U))


class TestTruncated:
    """L_n = Pi_n L_M Pi_n: each slice of one build is the fresh build at n."""

    @pytest.mark.parametrize("name", list(EQUATIONS))
    @pytest.mark.parametrize("M", [16, 64])
    def test_every_slice_matches_a_fresh_build(self, name, M):
        eq = EQUATIONS[name]
        u0 = random_hardy(M, 3) if eq.hardy else random_real_spectrum(M, 3)
        full = eq.build_lax(u0, M)
        scale = 1.0 + np.max(np.abs(full.block))
        for n in range(M + 1):
            got, want = full.truncated(n), eq.build_lax(u0, n)
            assert (got.n, got.equation) == (n, eq)
            assert hermitian_defect(got) == 0.0
            if eq.family == "BO":
                np.testing.assert_array_equal(got.block, want.block)
            else:
                # the Gram products at n and at M sum their terms in another order
                np.testing.assert_allclose(got.block, want.block, rtol=0, atol=1e-13 * scale)

    def test_slice_of_a_slice(self):
        u0 = random_hardy(16, 5)
        m = build_ccm_lax(u0, 16, "focusing")
        np.testing.assert_array_equal(m.truncated(9).truncated(4).block, m.truncated(4).block)
        np.testing.assert_array_equal(m.truncated(16).block, m.block)

    def test_slices_are_read_only_views(self):
        # a block passed in writeable is copied; a slice of a block is not
        raw = np.diag(np.arange(4.0)).astype(complex)
        m = LaxMatrix(raw, EQUATIONS["BO"])
        raw[0, 0] = 9.0
        assert m.block[0, 0] == 0.0 and not m.block.flags.writeable
        t = m.truncated(2)
        assert np.shares_memory(t.block, m.block) and not t.block.flags.writeable

    @pytest.mark.parametrize("n", [-1, 6, 8, 9])
    def test_rejects_n_outside_the_block(self, n):
        m = build_bo_lax(random_real_spectrum(8, 1), 5)
        with pytest.raises(ValueError, match="outside"):
            m.truncated(n)
