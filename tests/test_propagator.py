import numpy as np
import pytest
import scipy.linalg

from laxflow.lax import EQUATIONS, LaxMatrix, build_bo_lax, build_ccm_lax
from laxflow.propagator import (
    _RECON_TOL,
    HermitianEig,
    PropagatorCache,
    advance,
    apply_group_many,
    eig_hermitian,
    find_kappa_zero,
)
from laxflow.spectral import HardyVector, InitialProfile, RealSpectrum, analyze_profile
from oracles import taylor_expm


def random_spectrum(K, seed, norm=0.5):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})
    return analyze_profile(p, K)


def group_on_vector(e, t, alpha, v):
    """The group at one time on one vector: a one-column apply_group_many."""
    return apply_group_many(e, [t], alpha, np.asarray(v)[:, None])[:, 0]


class TestEig:
    def test_free_operator(self):
        # n = 0: an empty block, so every eigenvector is a unit vector of the tail
        m = build_bo_lax(random_spectrum(6, 0), 0, 6)
        e = eig_hermitian(m)
        np.testing.assert_allclose(e.eigenvalues, np.arange(6.0))
        assert e.eigenvectors.shape == (0, 0)

    def test_two_by_two_golden(self):
        # [[1, 1], [1, 0]] has eigenvalues (1 +- sqrt 5) / 2
        ent = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
        e = eig_hermitian(LaxMatrix(ent, EQUATIONS["BO"], 2))
        golden = np.array([(1 - np.sqrt(5)) / 2, (1 + np.sqrt(5)) / 2])
        np.testing.assert_allclose(e.eigenvalues, golden, atol=1e-14)

    def test_ascending_and_deterministic(self):
        m = build_ccm_lax(
            analyze_profile(InitialProfile("random-sobolev", {"s": 1.0, "seed": 9}), 16, hardy=True),
            16, 16, "defocusing",
        )
        a, b = eig_hermitian(m), eig_hermitian(m)
        assert np.all(np.diff(a.eigenvalues) >= 0)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        # canonical phase: the leading component of each column is real positive
        idx = np.argmax(np.abs(a.eigenvectors), axis=0)
        lead = a.eigenvectors[idx, np.arange(16)]
        assert np.all(lead.imag == pytest.approx(0.0, abs=1e-15))
        assert np.all(lead.real > 0)

    def test_rejects_non_hermitian(self):
        ent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            eig_hermitian(LaxMatrix(ent, EQUATIONS["BO"], 2))


class TestPhases:
    def test_values(self):
        e = HermitianEig([-0.5, 1.0, 2.0], np.eye(1))
        got = e.phases([0.0, 0.25], -1)
        np.testing.assert_array_equal(got[:, 0], np.ones(3))
        np.testing.assert_allclose(got[:, 1], np.exp(-0.25j * np.array([0.0, 3.0, 5.0])))

    @pytest.mark.parametrize("ts", [[1e307], [0.0, -1e308], [1e300, 2.0]])
    def test_overflowing_argument_raises(self, ts):
        # the eigenvalue 1e10 takes 1e300 past the largest double too
        e = HermitianEig([0.0, 5.0, 1e10], np.eye(2))
        with pytest.raises(ValueError, match="overflows"):
            e.phases(ts, 1)


class TestApplyGroup:
    def test_against_series_oracle(self):
        m = build_bo_lax(random_spectrum(10, 1), 7, 10)
        e = eig_hermitian(m)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        for t, alpha in ((0.3, 1), (-1.7, -1), (2.0, 1)):
            expect = taylor_expm(1j * alpha * t * (np.eye(10) + 2 * m.entries)) @ v
            np.testing.assert_allclose(group_on_vector(e, t, alpha, v), expect, atol=1e-10)

    def test_identity_at_time_zero(self):
        m = build_ccm_lax(HardyVector([0.1, 0.2j]), 4, 4, "focusing")
        e = eig_hermitian(m)
        v = np.arange(4.0) + 0j
        np.testing.assert_allclose(group_on_vector(e, 0.0, -1, v), v, atol=1e-14)

    def test_group_law(self):
        m = build_bo_lax(random_spectrum(8, 4), 8, 8)
        e = eig_hermitian(m)
        v = np.exp(1j * np.arange(8.0))
        ab = group_on_vector(e, 0.7, 1, group_on_vector(e, 1.9, 1, v))
        np.testing.assert_allclose(ab, group_on_vector(e, 2.6, 1, v), atol=1e-11)

    def test_unitary(self):
        m = build_ccm_lax(
            analyze_profile(InitialProfile("random-sobolev", {"s": 2.0, "seed": 3}), 12, hardy=True),
            12, 12, "defocusing",
        )
        e = eig_hermitian(m)
        rng = np.random.default_rng(1)
        for t in (1e-3, 1.0, 1e3):
            v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            out = group_on_vector(e, t, -1, v)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_many_matches_single(self):
        m = build_bo_lax(random_spectrum(6, 6), 6, 6)
        e = eig_hermitian(m)
        ts = np.array([-2.0, 0.0, 0.5, 10.0])
        rng = np.random.default_rng(2)
        V = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        out = apply_group_many(e, ts, 1, V)
        for j, t in enumerate(ts):
            np.testing.assert_allclose(out[:, j], group_on_vector(e, t, 1, V[:, j]), atol=1e-13)

    # M = 6: the eigenbasis body runs iff T * (steps - 2) > 6
    @pytest.mark.parametrize("steps,T", [(1, 4), (6, 1), (3, 7), (6, 4)])
    def test_advance_matches_stepwise(self, steps, T):
        e = eig_hermitian(build_bo_lax(random_spectrum(6, 5), 6, 6))
        ts = np.linspace(-3.0, 3.0, T)
        rng = np.random.default_rng(3)
        V = rng.standard_normal((6, T)) + 1j * rng.standard_normal((6, T))
        rows, out = advance(e, ts, 1, V, steps)
        for s in range(steps):
            V = apply_group_many(e, ts, 1, np.vstack([V[1:], np.zeros((1, T))]))
            np.testing.assert_allclose(rows[:, s], V[0], atol=1e-12)
        np.testing.assert_allclose(out, V, atol=1e-12)


M_BLOCK = 8


def block_lax(family, n):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": 11, "norm": 0.5})
    eq = EQUATIONS[family]
    return eq.build_lax(analyze_profile(p, M_BLOCK, hardy=eq.hardy), n, M_BLOCK), eq.alpha


@pytest.mark.parametrize("n", [0, 1, M_BLOCK // 2, M_BLOCK - 1, M_BLOCK])
@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
class TestBlockRepresentation:
    """Decomposing the n x n block plus the diagonal tail is the dense decomposition."""

    def test_eigenvalues_match_dense(self, family, n):
        m, _ = block_lax(family, n)
        e = eig_hermitian(m)
        assert e.eigenvectors.shape == (n, n)
        np.testing.assert_array_equal(e.eigenvalues[n:], np.arange(n, M_BLOCK))
        np.testing.assert_allclose(np.sort(e.eigenvalues), np.linalg.eigvalsh(m.entries),
                                   rtol=0, atol=1e-12)

    def test_reconstructs_dense(self, family, n):
        m, _ = block_lax(family, n)
        e = eig_hermitian(m)
        q = scipy.linalg.block_diag(e.eigenvectors, np.eye(M_BLOCK - n))
        recon = (q * e.eigenvalues) @ q.conj().T
        dense = m.entries
        assert np.max(np.abs(recon - dense)) <= _RECON_TOL * (1.0 + np.max(np.abs(dense)))

    # the eigenbasis body runs iff T * (steps - 2) > n: never for (1, 3),
    # for every n >= 1 with (12, 3) and (20, 2)
    @pytest.mark.parametrize("steps,T", [(1, 3), (5, 1), (12, 3), (20, 2)])
    def test_advance_matches_expm(self, family, n, steps, T):
        m, alpha = block_lax(family, n)
        e = eig_hermitian(m)
        ts = np.linspace(-1.5, 2.0, T)
        rng = np.random.default_rng(n)
        V = rng.standard_normal((M_BLOCK, T)) + 1j * rng.standard_normal((M_BLOCK, T))
        rows, out = advance(e, ts, alpha, V, steps)
        gen = np.eye(M_BLOCK) + 2.0 * m.entries
        groups = [scipy.linalg.expm(1j * alpha * t * gen) for t in ts]
        for s in range(steps):
            shifted = np.vstack([V[1:], np.zeros((1, T))])
            V = np.stack([g @ shifted[:, j] for j, g in enumerate(groups)], axis=1)
            np.testing.assert_allclose(rows[:, s], V[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, V, rtol=0, atol=1e-12)


class TestCache:
    def test_counts(self):
        u0 = random_spectrum(8, 0)
        cache = PropagatorCache()
        key = lambda n: ("BO", None, n, 8, "d")
        cache.get_or_build(key(3), lambda: build_bo_lax(u0, 3, 8))
        cache.get_or_build(key(3), lambda: build_bo_lax(u0, 3, 8))
        cache.get_or_build(key(5), lambda: build_bo_lax(u0, 5, 8))
        assert cache.decompositions == 2
        assert cache.hits == 1

    def test_returns_same_object(self):
        u0 = random_spectrum(4, 0)
        cache = PropagatorCache()
        k = ("BO", None, 2, 4, "d")
        a = cache.get_or_build(k, lambda: build_bo_lax(u0, 2, 4))
        b = cache.get_or_build(k, lambda: build_bo_lax(u0, 2, 4))
        assert a is b


K_CHAIN = 64


def staircase_chain(family, K=K_CHAIN):
    """(Lax matrix, decomposition) down the full staircase n = K - 1..1,
    each decomposition built with the one before it as parent."""
    eq = EQUATIONS[family]
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": 7, "norm": 0.5})
    u0 = analyze_profile(p, K, hardy=eq.hardy)
    parent, chain = None, []
    for n in range(K - 1, 0, -1):
        m = eq.build_lax(u0, n, K)
        parent = eig_hermitian(m, parent)
        chain.append((m, parent))
    return chain


@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
class TestDerivation:
    """A decomposition derived from the one at n + 1 is the one eigh gives."""

    def test_matches_eigh(self, family):
        chain = staircase_chain(family)
        assert [e.derived for _, e in chain] == [False] + [True] * (K_CHAIN - 2)
        for m, e in chain[1:]:
            ref = eig_hermitian(m)
            np.testing.assert_allclose(e.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12)
            np.testing.assert_allclose(e.eigenvectors, ref.eigenvectors, rtol=0, atol=1e-11)
            q, lam = e.eigenvectors, e.eigenvalues[: m.n]
            scale = 1.0 + max(np.max(np.abs(m.block)), m.M - 1)
            assert np.max(np.abs((q * lam) @ q.conj().T - m.block)) <= _RECON_TOL * scale
            assert np.max(np.abs(q.conj().T @ q - np.eye(m.n))) <= _RECON_TOL
            idx = np.argmax(np.abs(q), axis=0)
            lead = q[idx, np.arange(m.n)]
            assert np.all(lead.imag == pytest.approx(0.0, abs=1e-15))
            assert np.all(lead.real > 0)

    def test_bit_identical_across_runs(self, family):
        for (_, a), (_, b) in zip(staircase_chain(family), staircase_chain(family)):
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


class TestDerivationFallback:
    def test_diagonal_block_falls_back_to_eigh(self):
        # only u0hat(0): the block is diagonal, its eigenvectors are unit
        # vectors and most weights |Q[n-1, :]|^2 are zero
        u0 = RealSpectrum.from_hardy_part([0.3], 8)
        cache = PropagatorCache()
        key = lambda n: ("BO", None, n, 8, "d")
        parent = cache.get_or_build(key(5), lambda: build_bo_lax(u0, 5, 8))
        e = cache.get_or_build(key(4), lambda: build_bo_lax(u0, 4, 8), parent)
        assert (cache.decompositions, cache.derived, cache.fallbacks) == (2, 0, 1)
        ref = eig_hermitian(build_bo_lax(u0, 4, 8))
        assert not e.derived
        np.testing.assert_array_equal(e.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(e.eigenvectors, ref.eigenvectors)

    def test_parent_of_other_data_fails_the_checks(self):
        # the parent decomposes another operator: the derived pairs do not
        # reconstruct the block, so eigh is taken
        m = build_bo_lax(random_spectrum(8, 1), 4, 8)
        parent = eig_hermitian(build_bo_lax(random_spectrum(8, 2), 5, 8))
        e = eig_hermitian(m, parent)
        ref = eig_hermitian(m)
        assert not e.derived
        np.testing.assert_array_equal(e.eigenvectors, ref.eigenvectors)

    def test_only_one_size_down_is_derived(self):
        u0 = random_spectrum(8, 3)
        parent = eig_hermitian(build_bo_lax(u0, 6, 8))
        assert eig_hermitian(build_bo_lax(u0, 5, 8), parent).derived
        assert not eig_hermitian(build_bo_lax(u0, 4, 8), parent).derived
        one = eig_hermitian(build_bo_lax(u0, 1, 8))
        assert not eig_hermitian(build_bo_lax(u0, 0, 8), one).derived


class TestKappaZero:
    def test_bo_small_data(self):
        # 12 * 0.01 < 1 so the floor applies
        u0 = random_spectrum(16, 0, norm=0.1)
        k0 = find_kappa_zero(u0, EQUATIONS["BO"], 16)
        assert type(k0) is float and k0 == 1.0

    def test_bo_formula(self):
        u0 = random_spectrum(16, 1, norm=np.sqrt(2.0))
        k0 = find_kappa_zero(u0, EQUATIONS["BO"], 16)
        assert k0 == pytest.approx(24.0, rel=1e-12)

    def test_ccm_zero_data(self):
        k0 = find_kappa_zero(HardyVector([]), EQUATIONS["CCM-defocusing"], 8)
        assert type(k0) is float and k0 == 1.0

    def test_ccm_search_tames_perturbation(self):
        u0 = analyze_profile(
            InitialProfile("random-sobolev", {"s": 1.0, "seed": 5, "norm": 0.8}), 32, hardy=True
        )
        k0 = find_kappa_zero(u0, EQUATIONS["CCM-focusing"], 32)
        # verify the defining property directly at the returned shift
        m = build_ccm_lax(u0, 32, 32, "focusing")
        g = np.diag(np.arange(32.0)) - m.entries
        r0 = 1.0 / (np.arange(32) + k0)
        assert np.linalg.norm(g * r0, ord=2) <= 0.5

    @pytest.mark.parametrize("norm", [0.5, 1.0, 2.0])
    def test_ccm_sign_does_not_matter(self, norm):
        # the search reads only the Gram block, which both signs share
        u0 = analyze_profile(
            InitialProfile("random-sobolev", {"s": 1.0, "seed": 5, "norm": norm}), 32, hardy=True
        )
        assert (find_kappa_zero(u0, EQUATIONS["CCM-focusing"], 32)
                == find_kappa_zero(u0, EQUATIONS["CCM-defocusing"], 32))

    def test_type_checks(self):
        with pytest.raises(TypeError):
            find_kappa_zero(HardyVector([0.1]), EQUATIONS["BO"], 8)
        with pytest.raises(TypeError):
            find_kappa_zero(random_spectrum(8, 0), EQUATIONS["CCM-focusing"], 8)
        with pytest.raises(ValueError):
            find_kappa_zero(random_spectrum(8, 0), EQUATIONS["BO"], 3)
