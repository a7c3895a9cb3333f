import dataclasses

import numpy as np
import pytest
import scipy.linalg

from laxflow import propagator
from laxflow.lax import EQUATIONS, LaxMatrix, build_bo_lax, build_ccm_lax
from laxflow.propagator import (
    _RECON_TOL,
    PropagatorCache,
    _phases,
    advance,
    eig_hermitian,
)
from laxflow.scheme import SchemeConfig, make_schedule, run_scheme
from laxflow.spectral import HardyVector, InitialProfile, RealSpectrum, analyze_profile
from oracles import taylor_expm
from dense import dense_matrix


def random_spectrum(K, seed, norm=0.5):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})
    return analyze_profile(p, K)


def group_on_vector(e, t, alpha, v):
    """The group at one time on one vector of length M, Q e^{i alpha t (1 + 2
    lambda)} Q^H v, with Q the block's eigenvectors padded by the tail's unit
    vectors and lambda the block's eigenvalues, then the tail's n..M-1."""
    M = len(v)
    q = np.eye(M, dtype=np.complex128)
    q[: e.n, : e.n] = e.eigenvectors
    lam = np.concatenate([e.eigenvalues, np.arange(e.n, M)])
    return q @ (_phases(1.0 + 2.0 * lam, [t], alpha)[:, 0] * (q.conj().T @ np.asarray(v)))


def eigh_not_converging(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestEig:
    def test_free_operator(self):
        # n = 0: an empty block, so the decomposition is empty; the tail is the caller's
        m = build_bo_lax(random_spectrum(6, 0), 0)
        e = eig_hermitian(m)
        assert e.eigenvalues.shape == (0,) and e.eigenvectors.shape == (0, 0)

    def test_two_by_two_golden(self):
        # [[1, 1], [1, 0]] has eigenvalues (1 +- sqrt 5) / 2
        ent = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
        e = eig_hermitian(LaxMatrix(ent, EQUATIONS["BO"]))
        golden = np.array([(1 - np.sqrt(5)) / 2, (1 + np.sqrt(5)) / 2])
        np.testing.assert_allclose(e.eigenvalues, golden, atol=1e-14)

    def test_ascending_and_deterministic(self):
        m = build_ccm_lax(
            analyze_profile(InitialProfile("random-sobolev", {"s": 1.0, "seed": 9}), 16, hardy=True),
            16, "defocusing",
        )
        a, b = eig_hermitian(m), eig_hermitian(m)
        assert np.all(np.diff(a.eigenvalues) >= 0)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        ent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            eig_hermitian(LaxMatrix(ent, EQUATIONS["BO"]))

    @pytest.mark.parametrize("eigh, message", [
        (eigh_not_converging, r"eigensolver failed for BO Lax matrix \(n=2\)"),
        # the zero block is reconstructed by any eigenvectors, orthonormal or not
        (lambda a: (np.zeros(2), 2.0 * np.eye(2, dtype=complex)),
         r"eigenvectors lost orthonormality for BO \(n=2\)"),
    ])
    def test_eigensolver_failures_are_runtime_errors(self, monkeypatch, eigh, message):
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(RuntimeError, match=message):
            eig_hermitian(LaxMatrix(np.zeros((2, 2), complex), EQUATIONS["BO"]))


class TestPhases:
    def test_values(self):
        # the rates 1 + 2 lambda of the eigenvalues -0.5, 1 and 2
        got = _phases(1.0 + 2.0 * np.array([-0.5, 1.0, 2.0]), [0.0, 0.25], -1)
        np.testing.assert_array_equal(got[:, 0], np.ones(3))
        np.testing.assert_allclose(got[:, 1], np.exp(-0.25j * np.array([0.0, 3.0, 5.0])))

    @pytest.mark.parametrize("ts", [[1e307], [0.0, -1e308], [1e300, 2.0]])
    def test_overflowing_argument_raises(self, ts):
        # the eigenvalue 1e10 takes 1e300 past the largest double too
        rates = 1.0 + 2.0 * np.array([0.0, 5.0, 1e10])
        with pytest.raises(ValueError, match="overflows") as info:
            _phases(rates, ts, 1)
        # the message names the largest |t| and the largest rate
        assert f"{max(map(abs, ts)):g}" in str(info.value) and "2e+10" in str(info.value)


class TestGauge:
    def test_within_a_few_u_at_any_t(self):
        # |m| up to 2^52 - 1 peels t into up to 52 chunks; each product is
        # exact, so the error is a few roundings of the factors: 6e-16 seen
        mpmath = pytest.importorskip("mpmath")
        ts = np.array([1000 - 1 / 3, -1e6 / 3, 1e6 + 0.1, 0.7, -2.5e-3, 0.0])
        m = np.array([0, 1, 3, 2**26 - 1, 2**26, 12345678901, 2**40 + 7, 2**52 - 1])
        with mpmath.workdps(60):
            expect = [[complex(mpmath.expj(-mpmath.mpf(t) * int(k))) for t in ts] for k in m]
        assert np.max(np.abs(propagator._gauge(ts, -1, m) - expect)) <= 2e-15

    def test_split_below_2_to_26_is_26_and_27_bits(self):
        # the one split of t for |m| < 2^26, which every run at M <= 8192 takes
        ts = np.array([1000 - 1 / 3, -3.7, 2.5e-17])
        m = np.arange(0, 8192) ** 2
        hi = np.ldexp(np.trunc(np.ldexp(np.frexp(ts)[0], 26)), np.frexp(ts)[1] - 26)
        expect = _phases(m, hi, 1) * _phases(m, ts - hi, 1)
        np.testing.assert_array_equal(propagator._gauge(ts, 1, m), expect)

    def test_exponent_past_2_to_52_raises(self):
        with pytest.raises(ValueError, match="2\\^52"):
            propagator._gauge([1.0], 1, np.array([3, 2**52]))


class TestApplyGroup:
    def test_against_series_oracle(self):
        m = build_bo_lax(random_spectrum(10, 1), 7)
        e = eig_hermitian(m)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        for t, alpha in ((0.3, 1), (-1.7, -1), (2.0, 1)):
            expect = taylor_expm(1j * alpha * t * (np.eye(10) + 2 * dense_matrix(m, 10))) @ v
            np.testing.assert_allclose(group_on_vector(e, t, alpha, v), expect, atol=1e-10)

    def test_identity_at_time_zero(self):
        m = build_ccm_lax(HardyVector([0.1, 0.2j]), 4, "focusing")
        e = eig_hermitian(m)
        v = np.arange(4.0) + 0j
        np.testing.assert_allclose(group_on_vector(e, 0.0, -1, v), v, atol=1e-14)

    def test_group_law(self):
        m = build_bo_lax(random_spectrum(8, 4), 8)
        e = eig_hermitian(m)
        v = np.exp(1j * np.arange(8.0))
        ab = group_on_vector(e, 0.7, 1, group_on_vector(e, 1.9, 1, v))
        np.testing.assert_allclose(ab, group_on_vector(e, 2.6, 1, v), atol=1e-11)

    def test_unitary(self):
        m = build_ccm_lax(
            analyze_profile(InitialProfile("random-sobolev", {"s": 2.0, "seed": 3}), 12, hardy=True),
            12, "defocusing",
        )
        e = eig_hermitian(m)
        rng = np.random.default_rng(1)
        for t in (1e-3, 1.0, 1e3):
            v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            out = group_on_vector(e, t, -1, v)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    # M = 6: the eigenbasis body runs iff T * (steps - 2) > 6
    @pytest.mark.parametrize("steps,T", [(1, 4), (6, 1), (3, 7), (6, 4)])
    def test_advance_matches_stepwise(self, steps, T):
        e = eig_hermitian(build_bo_lax(random_spectrum(6, 5), 6))
        ts = np.linspace(-3.0, 3.0, T)
        rng = np.random.default_rng(3)
        V = rng.standard_normal((6, T)) + 1j * rng.standard_normal((6, T))
        iterates = [V]
        for s in range(steps):
            V = np.vstack([V[1:], np.zeros((1, T))])
            V = np.stack([group_on_vector(e, t, 1, V[:, j]) for j, t in enumerate(ts)], axis=1)
            iterates.append(V)
        check_block_run(e, ts, 1, iterates)


def check_block_run(e, ts, alpha, iterates):
    """`advance` on the block of the oracle's first iterate, fed the oracle's
    own row n (zero past M) before each step, gives the oracle's zero mode
    after each step and its last block, to 1e-12."""
    n, steps = e.n, len(iterates) - 1
    X = np.vstack([iterates[0][:n]] + [np.vstack([v, 0 * v[:1]])[n] for v in iterates[:-1]])
    rows = advance(e, ts, alpha, X, steps)
    for s in range(steps):
        np.testing.assert_allclose(rows[:, s], iterates[s + 1][0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(X[steps:], iterates[-1][:n], rtol=0, atol=1e-12)


M_BLOCK = 8


def block_lax(family, n):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": 11, "norm": 0.5})
    eq = EQUATIONS[family]
    return eq.build_lax(analyze_profile(p, M_BLOCK, hardy=eq.hardy), n), eq.alpha


@pytest.mark.parametrize("n", [0, 1, M_BLOCK // 2, M_BLOCK - 1, M_BLOCK])
@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
class TestBlockRepresentation:
    """Decomposing the n x n block plus the diagonal tail is the dense decomposition."""

    def test_eigenvalues_match_dense(self, family, n):
        m, _ = block_lax(family, n)
        e = eig_hermitian(m)
        assert e.eigenvalues.shape == (n,) and e.eigenvectors.shape == (n, n)
        lam = np.concatenate([e.eigenvalues, np.arange(n, M_BLOCK)])
        np.testing.assert_allclose(np.sort(lam), np.linalg.eigvalsh(dense_matrix(m, M_BLOCK)),
                                   rtol=0, atol=1e-12)

    def test_reconstructs_dense(self, family, n):
        m, _ = block_lax(family, n)
        e = eig_hermitian(m)
        q = scipy.linalg.block_diag(e.eigenvectors, np.eye(M_BLOCK - n))
        recon = (q * np.concatenate([e.eigenvalues, np.arange(n, M_BLOCK)])) @ q.conj().T
        dense = dense_matrix(m, M_BLOCK)
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
        gen = np.eye(M_BLOCK) + 2.0 * dense_matrix(m, M_BLOCK)
        groups = [scipy.linalg.expm(1j * alpha * t * gen) for t in ts]
        iterates = [V]
        for s in range(steps):
            shifted = np.vstack([V[1:], np.zeros((1, T))])
            V = np.stack([g @ shifted[:, j] for j, g in enumerate(groups)], axis=1)
            iterates.append(V)
        if n:
            check_block_run(e, ts, alpha, iterates)
            return
        # no block: advance refuses it, and run_scheme reads the zero mode
        # after step s off row s of the first iterate in the gauge, as
        # e^{i alpha t s^2} times it
        with pytest.raises(ValueError, match="nonempty block"):
            advance(e, ts, alpha, np.zeros((steps, T), dtype=complex), steps)
        j = np.arange(1, steps + 1)
        first = np.vstack([iterates[0], np.zeros((steps, T))])
        gauged = propagator._gauge(ts, alpha, j * j) * first[j]
        for s in range(steps):
            np.testing.assert_allclose(gauged[s], iterates[s + 1][0], rtol=0, atol=1e-12)


class TestCache:
    def test_counts(self):
        u0 = random_spectrum(8, 0)
        cache = PropagatorCache()
        key = lambda n: ("BO", n, "d")
        cache.get_or_build(key(3), lambda: build_bo_lax(u0, 3))
        cache.get_or_build(key(3), lambda: build_bo_lax(u0, 3))
        cache.get_or_build(key(5), lambda: build_bo_lax(u0, 5))
        assert cache.decompositions == 2
        assert cache.hits == 1

    def test_returns_same_object(self):
        u0 = random_spectrum(4, 0)
        cache = PropagatorCache()
        k = ("BO", 2, "d")
        a = cache.get_or_build(k, lambda: build_bo_lax(u0, 2))
        b = cache.get_or_build(k, lambda: build_bo_lax(u0, 2))
        assert a is b

    def test_evicts_the_largest_then_the_oldest_of_equal_size(self, monkeypatch):
        # entries of 16 * 3^2 + 8 * 3 = 168 and 16 * 5^2 + 8 * 5 = 440 bytes,
        # a budget for one of each
        u0 = random_spectrum(8, 0)
        cache = PropagatorCache()
        key = lambda n, d: ("BO", n, d)
        monkeypatch.setattr(propagator, "_CACHE_BUDGET", 168 + 440)
        for n, d in ((3, "a"), (5, "b"), (5, "c")):
            cache.get_or_build(key(n, d), lambda: build_bo_lax(u0, n))
        assert (list(cache._store), cache.evictions) == ([key(3, "a"), key(5, "c")], 1)
        cache.get_or_build(key(3, "d"), lambda: build_bo_lax(u0, 3))
        assert (list(cache._store), cache.evictions) == ([key(3, "a"), key(3, "d")], 2)
        assert cache.nbytes == 2 * 168

    def test_the_entry_just_built_may_be_evicted(self, monkeypatch):
        u0 = random_spectrum(8, 0)
        cache = PropagatorCache()
        key = lambda n: ("BO", n, "d")
        cache.get_or_build(key(3), lambda: build_bo_lax(u0, 3))
        monkeypatch.setattr(propagator, "_CACHE_BUDGET", 400)
        # the largest is the new entry itself: it is evicted and still returned
        e = cache.get_or_build(key(5), lambda: build_bo_lax(u0, 5))
        assert e.n == 5
        assert (list(cache._store), cache.evictions) == ([key(3)], 1)
        monkeypatch.setattr(propagator, "_CACHE_BUDGET", 0)
        cache.get_or_build(key(5), lambda: build_bo_lax(u0, 5))
        assert (cache._store, cache.evictions, cache.nbytes) == ({}, 3, 0)
        assert (cache.decompositions, cache.hits) == (3, 0)


K_CHAIN = 64


def staircase_chain(family, K=K_CHAIN, seed=7, norm=0.5):
    """(Lax matrix, decomposition) down the full staircase n = K - 1..1,
    every L_n sliced from one build, as `run_scheme` does, each
    decomposition built with the one before it as parent."""
    eq = EQUATIONS[family]
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})
    lax = eq.build_lax(analyze_profile(p, K, hardy=eq.hardy), K - 1)
    parent, chain = None, []
    for n in range(K - 1, 0, -1):
        m = lax.truncated(n)
        parent = eig_hermitian(m, parent)
        chain.append((m, parent))
    return chain


@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
class TestDerivation:
    """A decomposition derived from the one at n + 1 is the one eigh gives."""

    def test_matches_eigh(self, family):
        chain = staircase_chain(family)
        derived = [e.derived for _, e in chain]
        # eigh at the top; below it the certificate declines at most once
        assert not derived[0] and sum(derived) >= K_CHAIN - 3
        for m, e in chain[1:]:
            ref = eig_hermitian(m)
            np.testing.assert_allclose(e.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12)
            # each column is eigh's up to a unit phase: align it by <ref_j, e_j>
            inner = np.einsum("ij,ij->j", ref.eigenvectors.conj(), e.eigenvectors)
            aligned = e.eigenvectors * (np.conj(inner) / np.abs(inner))
            np.testing.assert_allclose(aligned, ref.eigenvectors, rtol=0, atol=1e-11)
            q, lam = e.eigenvectors, e.eigenvalues
            scale = 1.0 + np.max(np.abs(m.block))
            assert np.max(np.abs((q * lam) @ q.conj().T - m.block)) <= _RECON_TOL * scale
            assert np.max(np.abs(q.conj().T @ q - np.eye(m.n))) <= _RECON_TOL

    def test_bit_identical_across_runs(self, family):
        for (_, a), (_, b) in zip(staircase_chain(family), staircase_chain(family)):
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
def test_secular_roots_meet_their_stopping_test(family):
    """Every root mu_j = origin_j + tau_j of every derivation down a K = 128
    staircase, f re-evaluated from the parent's lam and w alone, has
    |f(mu_j)| <= _SECULAR_TOL n sum_i |w_i / (lam_i - mu_j)|.  The
    differences are taken as (lam_i - origin_j) - tau_j, as the solve takes
    them: near a pole the rounding of origin_j + tau_j to a float moves f
    by more than the test allows."""
    roots = 0
    for _, e in staircase_chain(family, K=128)[:-1]:
        d = propagator._delete_last(e)
        lam, w = e.eigenvalues, np.abs(e.eigenvectors[-1]) ** 2
        terms = w[:, None] / ((lam[:, None] - d.origin) - d.tau)
        f, scale = terms.sum(axis=0), np.abs(terms).sum(axis=0)
        assert np.all(np.abs(f) <= propagator._SECULAR_TOL * e.n * scale)
        assert np.all((d.origin == lam[:-1]) | (d.origin == lam[1:]))
        roots += e.n - 1
    assert roots == sum(range(1, 127))


class TestDerivationFallback:
    def test_diagonal_block_falls_back_to_eigh(self):
        # only u0hat(0): the block is diagonal, its eigenvectors are unit
        # vectors and most weights |Q[n-1, :]|^2 are zero, so the derivation
        # from a slice of the same build declines
        lax = build_bo_lax(RealSpectrum.from_hardy_part([0.3], 8), 5)
        cache = PropagatorCache()
        key = lambda n: ("BO", n, "d")
        parent = cache.get_or_build(key(5), lambda: lax)
        assert propagator._delete_last(parent) is None
        e = cache.get_or_build(key(4), lambda: lax.truncated(4), parent)
        assert (cache.decompositions, cache.derived, cache.fallbacks) == (2, 0, 1)
        ref = eig_hermitian(lax.truncated(4))
        assert not e.derived
        np.testing.assert_array_equal(e.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(e.eigenvectors, ref.eigenvectors)

    def test_parent_of_other_data_is_not_derived_from(self):
        # the parent decomposes another operator, another build: no
        # derivation is tried, and eigh is taken
        m = build_bo_lax(random_spectrum(8, 1), 4)
        parent = eig_hermitian(build_bo_lax(random_spectrum(8, 2), 5))
        e = eig_hermitian(m, parent)
        ref = eig_hermitian(m)
        assert not e.derived
        np.testing.assert_array_equal(e.eigenvectors, ref.eigenvectors)

    def test_only_one_size_down_is_derived(self):
        lax = build_bo_lax(random_spectrum(8, 3), 6)
        parent = eig_hermitian(lax)
        assert eig_hermitian(lax.truncated(5), parent).derived
        assert not eig_hermitian(lax.truncated(4), parent).derived
        one = eig_hermitian(lax.truncated(1))
        assert not eig_hermitian(lax.truncated(0), one).derived


def dense_defects(m, lam, q):
    """The dense check's measurements: max |Q diag(lam) Q^H - B| and max |Q^H Q - I|."""
    return (np.max(np.abs((q * lam) @ q.conj().T - m.block)),
            np.max(np.abs(q.conj().T @ q - np.eye(m.n))))


@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
def test_densely_checked_bounds_cover_abs_q(family):
    # the dense check takes its || |q| || bound from the q it checks: on the
    # eigh path, which a child whose parent's build is gone takes too
    eq = EQUATIONS[family]
    u0 = analyze_profile(InitialProfile("random-sobolev", {"s": 1.0, "seed": 3, "norm": 0.5}),
                         32, hardy=eq.hardy)
    parent = eig_hermitian(eq.build_lax(u0, 32).truncated(25))
    child = eig_hermitian(eq.build_lax(u0, 32).truncated(24), parent)
    assert not parent.derived and not child.derived
    for e in (parent, child):
        assert e.bounds.abs_q >= np.linalg.norm(np.abs(e.eigenvectors), ord=2)


def spectral_norm_ld(a):
    """The spectral norm, in float64, of a defect taken in clongdouble."""
    return np.linalg.norm(a.astype(np.complex128), ord=2)


@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
@pytest.mark.parametrize("norm, K", [(1e-3, 32), (1e3, 32), (1.0, 64)])
def test_every_bound_holds_against_an_extended_precision_witness(family, norm, K):
    """Each field of every decomposition's `_Bounds`, derived or eigh, down a
    full staircase, is at least the defect it bounds, the products that form
    the defects taken in clongdouble: the rounding terms of the certificate
    and of the dense check are what keep the bounds rigorous."""
    derived = 0
    for m, e in staircase_chain(family, K, seed=1000, norm=norm):
        b = m.block.astype(np.clongdouble)
        q, lam = e.eigenvectors.astype(np.clongdouble), e.eigenvalues.astype(np.longdouble)
        assert e.bounds.ortho >= spectral_norm_ld(q.conj().T @ q - np.eye(m.n))
        assert e.bounds.residual >= spectral_norm_ld(b @ q - q * lam)
        assert e.bounds.abs_q >= np.linalg.norm(np.abs(e.eigenvectors), ord=2)
        assert e.bounds.norm >= np.linalg.norm(m.block, ord=2)
        derived += e.derived
    assert derived >= K - 4


def test_abs_norm_of_huge_entries_is_finite():
    # sqrt(||a||_1 ||a||_inf) = 4e200, though the product of the two is 1.6e401
    assert propagator._abs_norm(np.full((4, 4), 1e200)) == pytest.approx(4e200)


@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
class TestCertificate:
    """A derived decomposition accepted on its certificate passes the dense check."""

    K = 128

    def sliced_chain(self, family, seed):
        """(L_n, parent, decomposition) down the full staircase n = K - 1..1,
        every L_n sliced from one build, as `run_scheme` does."""
        eq = EQUATIONS[family]
        p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": 0.5})
        lax = eq.build_lax(analyze_profile(p, self.K, hardy=eq.hardy), self.K - 1)
        parent = None
        for n in range(self.K - 1, 0, -1):
            m = lax.truncated(n)
            e = eig_hermitian(m, parent)
            yield m, parent, e
            parent = e

    def test_bounds_cover_the_dense_defects(self, family):
        derived = 0
        for seed in range(1000, 1010):
            for m, _, e in self.sliced_chain(family, seed):
                assert not (e.derived and m.n == self.K - 1)
                assert e._root() is m.block.base  # both views of the one build
                if not e.derived:  # eigh, accepted on the dense check
                    continue
                derived += 1
                recon, ortho = dense_defects(m, e.eigenvalues, e.eigenvectors)
                assert e.bounds.ortho >= ortho
                assert e.bounds.recon() >= recon
                # the certificate's own criteria, half the dense check's
                # tolerances, the reconstruction's scaled by the block's diagonal
                assert e.bounds.ortho <= 0.5 * _RECON_TOL
                scale = 1.0 + np.max(np.abs(np.diagonal(m.block)))
                assert e.bounds.recon() <= 0.5 * _RECON_TOL * scale
        assert derived >= 0.9 * 10 * (self.K - 2)

    def test_keeps_no_build_alive(self, family):
        # a decomposition refers to its build weakly: once the build is gone,
        # a child is taken by eigh, and the cache holds no build
        eq = EQUATIONS[family]
        p = InitialProfile("random-sobolev", {"s": 1.0, "seed": 1000, "norm": 0.5})
        u0 = analyze_profile(p, 16, hardy=eq.hardy)
        parent = eig_hermitian(eq.build_lax(u0, 16).truncated(9))
        assert parent._root() is None
        child = eig_hermitian(eq.build_lax(u0, 16).truncated(8), parent)
        assert not child.derived
        out = run_scheme(SchemeConfig(family, make_schedule("full-staircase", 16), [1.0], u0))
        assert (out.cache.derived, out.cache.fallbacks) == (14, 0)
        assert all(e._root() is None for e in out.cache._store.values())

    def test_derivation_is_phase_agnostic(self, family):
        """A parent whose columns are rotated by random unit phases, its
        bounds re-measured by the dense check, derives and certifies the
        same child: the derivation absorbs the phase of each column's last
        entry, so no phase convention is needed.  Steps where the chain took
        eigh have no derived child to compare with."""
        rng = np.random.default_rng(5)
        for m, parent, e in self.sliced_chain(family, 1000):
            if not e.derived:
                continue
            q = parent.eigenvectors * np.exp(2j * np.pi * rng.random(parent.n))
            lax = m.block.base  # the build m and its parent are views of
            bounds = propagator._dense_check(
                LaxMatrix(lax[: parent.n, : parent.n], m.equation), parent.eigenvalues, q)
            rotated = dataclasses.replace(parent, eigenvectors=q, bounds=bounds)
            child = eig_hermitian(m, rotated)
            assert child.derived
            np.testing.assert_allclose(child.eigenvalues, e.eigenvalues, rtol=0, atol=1e-13)
            np.testing.assert_allclose(child.eigenvectors, e.eigenvectors, rtol=0, atol=1e-12)

    def test_rejects_the_mutated_derivations(self, family, monkeypatch):
        """The pairs a derivation with the phase of z dropped, or with the
        secular tolerance 1e-2 / n, gives from a correct parent.  The first
        the dense check always rejects, by its raise; the second it rejects
        on most steps (from the pole-model start a tolerance of 1e-4 / n
        leaves almost no root wrong enough), and the certificate must reject
        those too."""
        rejected = {"no_phase": 0, "loose_tol": 0}
        for seed in (1000, 1003):
            for m, parent, _ in self.sliced_chain(family, seed):
                if parent is None:
                    continue
                n, d = parent.n, propagator._delete_last(parent)
                no_phase = d._replace(phase=np.ones(n), q=parent.eigenvectors[:-1] @ d.s)
                monkeypatch.setattr(propagator, "_SECULAR_TOL", 1e-2 / n)
                loose_tol = propagator._delete_last(parent)
                monkeypatch.undo()
                for name, mutant in (("no_phase", no_phase), ("loose_tol", loose_tol)):
                    try:
                        propagator._dense_check(m, mutant.mu, mutant.q)
                    except RuntimeError:
                        assert propagator._certify(parent, mutant) is None
                        rejected[name] += 1
        assert rejected["no_phase"] == 2 * (self.K - 2)
        if family == "CCM-defocusing":
            # seed 1000 is a chain on which the loose roots often fail the dense check
            assert rejected["loose_tol"] > self.K // 2


@pytest.mark.parametrize("family", ["BO", "CCM-focusing", "CCM-defocusing"])
@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_full_staircase_derivation_counts(family, seed):
    """A K = 256 full staircase on rough data derives all but two of its 254
    decompositions below the top: a change that makes the certificate
    decline more often, or the derivation fail, shows here as a count."""
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": 0.5})
    times = [np.pi / 2, np.pi / 3, np.pi / 6, np.sqrt(2) * np.pi]
    out = run_scheme(SchemeConfig(family, make_schedule("full-staircase", 256), times, p))
    assert (out.cache.derived, out.cache.fallbacks) == (252, 2)


# the steps of eig_hermitian that TestSharedBuild records, in call order
CHECKS = ["hermitian_defect", "_delete_last", "_dense_check"]


class TestSharedBuild:
    """Two leading blocks of one live read-only build are equal by
    construction: a child of such a parent skips the Hermitian and dense
    checks and is derived, accepted on its certificate; every other child
    is not derived at all, and takes both checks on an eigh result."""

    K = 24

    def build(self, seed=3):
        eq = EQUATIONS["CCM-defocusing"]
        p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": 0.5})
        return eq.build_lax(analyze_profile(p, self.K, hardy=True), self.K - 1)

    def counting(self, monkeypatch, names, module=propagator):
        """The calls to module's functions of those names, in order."""
        calls = []
        for name in names:
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        return calls

    def test_views_of_one_build_skip_the_checks(self, monkeypatch):
        lax = self.build()
        parent = eig_hermitian(lax.truncated(self.K - 2))
        parent = eig_hermitian(lax.truncated(self.K - 3), parent)
        calls = self.counting(monkeypatch, CHECKS)
        child = eig_hermitian(lax.truncated(self.K - 4), parent)
        assert calls == ["_delete_last"]
        assert child.derived

    def test_an_equal_copy_takes_eigh_and_the_checks(self, monkeypatch):
        lax = self.build()
        parent = eig_hermitian(lax.truncated(self.K - 2))
        copy = LaxMatrix(lax.truncated(self.K - 3).block.copy(), lax.equation)
        calls = self.counting(monkeypatch, CHECKS)
        np_calls = self.counting(monkeypatch, ["array_equal"], np)
        child = eig_hermitian(copy, parent)
        assert (calls, np_calls) == (["hermitian_defect", "_dense_check"], [])
        assert not child.derived

    def test_a_copy_one_ulp_off_takes_the_checks(self, monkeypatch):
        lax = self.build()
        parent = eig_hermitian(lax.truncated(self.K - 2))
        block = lax.truncated(self.K - 3).block.copy()
        block[2, 2] = np.nextafter(block[2, 2].real, np.inf)  # still Hermitian
        calls = self.counting(monkeypatch, CHECKS)
        child = eig_hermitian(LaxMatrix(block, lax.equation), parent)
        assert calls == ["hermitian_defect", "_dense_check"]
        assert not child.derived

    def test_a_writeable_root_is_not_trusted(self, monkeypatch):
        # read-only views of one writeable array, which may change between
        # two decompositions: the parent keeps no reference to it, and the
        # child is taken by eigh after the Hermitian check, then dense-checked
        root = np.array(self.build().block)
        views = []
        for n in (self.K - 2, self.K - 3):
            view = root[:n, :n]
            view.flags.writeable = False
            views.append(LaxMatrix(view, EQUATIONS["CCM-defocusing"]))
        assert views[1].block.base is root and root.flags.writeable
        parent = eig_hermitian(views[0])
        assert parent._root is None
        calls = self.counting(monkeypatch, CHECKS)
        child = eig_hermitian(views[1], parent)
        assert calls == ["hermitian_defect", "_dense_check"]
        assert not child.derived
