import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxflow import diagnostics as diag
from laxflow.diagnostics import (
    BoundReport,
    ConvergenceRow,
    ConvergenceTable,
    _hermitian_norm,
    find_kappa_zero,
    fit_rate,
    run_bound_suite,
    run_convergence_study,
    run_propagator_sweep,
    run_resolvent_convergence,
)
import laxflow.lax
import laxflow.scheme
from laxflow.lax import EQUATIONS, build_bo_lax, build_ccm_lax
from laxflow.propagator import HermitianEig
from laxflow.spectral import HardyVector, InitialProfile, RealSpectrum, analyze_profile, l2_norm
from dense import dense_matrix


def bo_data(K=32, seed=0, norm=0.5):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})
    return analyze_profile(p, K)


def ccm_data(K=32, seed=0, norm=0.5):
    p = InitialProfile("random-sobolev", {"s": 1.0, "seed": seed, "norm": norm})
    return analyze_profile(p, K, hardy=True)


class TestBoundReport:
    def test_pass_and_fail(self):
        assert BoundReport("x", {}, 1.0, 1.0).passed
        assert BoundReport("x", {}, 1.0 + 5e-11, 1.0).passed
        assert not BoundReport("x", {}, 1.1, 1.0).passed


class TestBoundSuite:
    def test_zero_data_bo(self):
        u0 = RealSpectrum.from_hardy_part([], K=8)
        reports = run_bound_suite(u0, "BO", 8, kappas=[1.0], ns=[0, 4, 8], n_vectors=20)
        assert all(r.passed for r in reports)
        # with u = 0 the perturbation norms are exactly zero
        assert all(r.measured == 0.0 for r in reports if r.name == "mult-resolvent")

    def test_zero_data_ccm(self):
        reports = run_bound_suite(HardyVector([]), "CCM-defocusing", 8,
                                  kappas=[1.0], ns=[0, 8], n_vectors=20)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing"])
    def test_random_data_all_pass(self, equation):
        M = 32
        u0 = bo_data(M) if equation == "BO" else ccm_data(M)
        reports = run_bound_suite(u0, equation, M, kappas=[1.0, 10.0],
                                  ns=[1, 16, 32], n_vectors=50)
        failed = [r for r in reports if not r.passed]
        assert failed == []

    @pytest.mark.parametrize("n_vectors", [0, -1, 2.5, True])
    def test_bad_n_vectors_refused_before_any_work(self, monkeypatch, n_vectors):
        # numpy refused these after every bound cell and kappa0
        calls = []
        monkeypatch.setattr(diag, "mult_matrix", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="n_vectors must be an integer >= 1"):
            run_bound_suite(bo_data(16), "BO", 16, [1.0], [4], n_vectors=n_vectors)
        assert calls == []

    def test_projection_bound_is_exact(self):
        reports = run_bound_suite(bo_data(16), "BO", 16, kappas=[2.0], ns=[4], n_vectors=10)
        (r,) = [r for r in reports if r.name == "projection"]
        assert r.measured == pytest.approx(1.0 / (4 + 2.0))
        assert r.bound == pytest.approx(1.0 / 4)

    def test_projection_bound_vanishes_at_full_window(self):
        reports = run_bound_suite(bo_data(16), "BO", 16, kappas=[1.0], ns=[16], n_vectors=10)
        (r,) = [r for r in reports if r.name == "projection"]
        assert r.measured == 0.0

    def test_semibound_reaches_the_tail(self):
        # u0 = 2: L_n = diag(0..n-1) + 4 on the block, so the block's least
        # eigenvalue is 4 and at n = 1 the tail's entry 1 is smaller
        reports = run_bound_suite(HardyVector([2.0]), "CCM-defocusing", 8,
                                  kappas=[1.0], ns=[1], n_vectors=10)
        got = {r.params["n"]: r.measured for r in reports if r.name == "semibound"}
        assert got == {1: -1.0, 4: -4.0, 8: -4.0}

    def test_one_lax_build_per_n(self, monkeypatch):
        # the sandwich and semibound rows at n = 1, M/2, M slice one build at M
        calls = count_builds(monkeypatch)
        run_bound_suite(ccm_data(32), "CCM-defocusing", 32, kappas=[1.0], ns=[1])
        assert calls == [32]

    @pytest.mark.parametrize("ns", [[-1], [100], [4, 17], [0, 16, -16]])
    def test_rejects_n_outside_the_window(self, monkeypatch, ns):
        # n = -1 measured 15 columns under the label n = -1; n = 100 passed
        # a projection of 0.0
        calls = count_builds(monkeypatch)
        with pytest.raises(ValueError, match=r"every n must lie in \[0, M=16\]"):
            run_bound_suite(bo_data(16), "BO", 16, kappas=[1.0], ns=ns)
        assert calls == []

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            run_bound_suite(bo_data(8), "BO", 8, kappas=[0.5], ns=[1])

    @pytest.mark.parametrize("kappa", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_kappa(self, kappa):
        # at kappa = inf every bound held vacuously; nan reached the SVD
        with pytest.raises(ValueError, match="finite and >= 1"):
            run_bound_suite(bo_data(8), "BO", 8, kappas=[1.0, kappa], ns=[1])


def count_builds(monkeypatch):
    """Record the n of every Lax build, of either family, from here on."""
    calls = []

    def counting(builder):
        def build(*args):
            calls.append(args[1])
            return builder(*args)
        return build

    monkeypatch.setattr(laxflow.lax, "build_bo_lax", counting(build_bo_lax))
    monkeypatch.setattr(laxflow.lax, "build_ccm_lax", counting(build_ccm_lax))
    return calls


@pytest.mark.parametrize("equation", ["BO", "CCM-focusing"])
@pytest.mark.parametrize("suite", [
    lambda u0, eq, M: run_resolvent_convergence(u0, eq, M),
    lambda u0, eq, M: run_propagator_sweep(u0, eq, M, T=1.0),
], ids=["resolvent", "propagator-sweep"])
def test_each_suite_builds_the_lax_operator_once(monkeypatch, suite, equation):
    M = 64
    u0 = bo_data(M) if equation == "BO" else ccm_data(M)
    calls = count_builds(monkeypatch)
    suite(u0, equation, M)
    assert calls == [M]


@pytest.mark.parametrize("suite", [
    lambda u0, eq, M, sp: run_bound_suite(u0, eq, M, kappas=[1.0], ns=[1], spectra=sp),
    lambda u0, eq, M, sp: run_resolvent_convergence(u0, eq, M, spectra=sp),
    lambda u0, eq, M, sp: run_propagator_sweep(u0, eq, M, T=1.0, spectra=sp),
], ids=["bound-suite", "resolvent", "propagator-sweep"])
def test_spectral_context_of_other_inputs_rejected(suite):
    u0, eq = ccm_data(64), EQUATIONS["CCM-focusing"]
    others = [diag._Spectra(ccm_data(64), eq, 64), diag._Spectra(u0, EQUATIONS["BO"], 64),
              diag._Spectra(u0, eq, 128)]
    for spectra in others:
        with pytest.raises(ValueError, match="spectral context belongs to other"):
            suite(u0, eq.name, 64, spectra)


# each public entry point, called with an equation name on valid data
ENTRY_POINTS = {
    "bound-suite": lambda eq: run_bound_suite(ccm_data(32), eq, 32, kappas=[1.0], ns=[1]),
    "resolvent": lambda eq: run_resolvent_convergence(ccm_data(32), eq, 32),
    "convergence-study": lambda eq: run_convergence_study(
        InitialProfile("square-wave"), eq, Ks=[8], schedule_kind="constant", T=0.5,
        grid_points=11, K_ref=32),
    "propagator-sweep": lambda eq: run_propagator_sweep(ccm_data(64), eq, 64, T=1.0),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("name", ["KdV", "CCM", "ccm-focusing"])
def test_unknown_equation_rejected(entry, name):
    with pytest.raises(ValueError, match="unknown equation"):
        ENTRY_POINTS[entry](name)


def dense_mult_matrix(u0, M):
    """U[j, l] = u0hat(j - l) on [0, M); coeff() is zero off the stored modes."""
    return scipy.linalg.toeplitz([u0.coeff(j) for j in range(M)],
                                 [u0.coeff(-l) for l in range(M)])


def dense_lax(u0, equation, n, M):
    if equation == "BO":
        return dense_matrix(build_bo_lax(u0, n), M)
    return dense_matrix(build_ccm_lax(u0, n, equation.split("-", 1)[1]), M)


class TestNonzeroColumnNorms:
    """The suite's column-restricted norms against the dense M x M expressions."""

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_match_dense_masks(self, equation):
        M = 32
        u0 = bo_data(M) if equation == "BO" else ccm_data(M)
        ns, kappas = [0, 1, M // 2, M], [1.0, 7.5]
        reports = run_bound_suite(u0, equation, M, kappas=kappas, ns=ns, n_vectors=10)
        U = dense_mult_matrix(u0, M)
        checked = 0
        for r in reports:
            if r.name not in ("mult-resolvent", "gram-resolvent"):
                continue
            n, kappa = r.params["n"], r.params["kappa"]
            pn = (np.arange(M) < n).astype(float)
            r0 = 1.0 / (np.arange(M) + kappa)
            if r.name == "mult-resolvent":
                dense = (U * pn) * r0
            else:
                dense = (((U * pn) @ U.conj().T) * pn) * r0
            expected = np.linalg.norm(dense, ord=2)
            assert r.measured == pytest.approx(expected, rel=1e-12, abs=0.0)
            checked += 1
        assert checked == len(ns) * len(kappas) * (1 if equation == "BO" else 2)


def dense_kappa_zero(u0, M):
    """The kappa0 search with a full M x M Gram matrix rebuilt for every kappa."""
    a = scipy.linalg.toeplitz(u0.padded(M), np.zeros(M, dtype=np.complex128))
    for e in range(21):
        kappa = 2.0**e
        r0 = 1.0 / (np.arange(M) + kappa)
        worst = 0.0
        for n in (1, M // 2, M):
            g = np.zeros((M, M), dtype=np.complex128)
            g[:n, :n] = a[:n, :n] @ a[:n, :n].conj().T
            worst = max(worst, np.linalg.norm(g * r0, ord=2))
        if worst <= 0.5:
            return kappa
    raise AssertionError("no kappa0 on the grid")


class TestKappaZeroBlocks:
    @pytest.mark.parametrize("norm, expected", [(0.5, 1.0), (1.0, 4.0), (2.0, 16.0)])
    def test_matches_dense_search(self, norm, expected):
        M = 32
        u0 = ccm_data(M, seed=5, norm=norm)
        kz = find_kappa_zero(u0, EQUATIONS["CCM-defocusing"], M)
        assert kz == dense_kappa_zero(u0, M) == expected

    @pytest.mark.parametrize("M", [16, 64])
    @pytest.mark.parametrize("norm", [0.1, 0.5, 0.9, 1.5, 3.0, 8.0])
    def test_norm_at_full_window_is_the_maximum(self, M, norm):
        # G_n R0 is a compression of G_M R0, so the search at n = M alone
        # finds the kappa0 of the maximum over n in {1, M/2, M}, and its
        # eigvalsh norms pick the kappa0 of the SVD norms
        for seed in range(10):
            u0 = ccm_data(M, seed=seed, norm=norm)
            kz = find_kappa_zero(u0, EQUATIONS["CCM-focusing"], M)
            assert kz == dense_kappa_zero(u0, M)


def unit_vectors(M, count, seed):
    """The suites' random unit vectors: complex Gaussian columns from Philox(seed), normalised."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((M, count)) + 1j * rng.standard_normal((M, count))
    return z / np.linalg.norm(z, axis=0)


class TestSweepAgainstDenseEigh:
    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_rows_match(self, equation):
        M, T = 64, 1.5
        u0 = bo_data(M) if equation == "BO" else ccm_data(M)
        rows = run_propagator_sweep(u0, equation, M, T=T)
        basis = np.eye(M, 8, dtype=np.complex128)
        F = np.hstack([basis] + [unit_vectors(M, 1, s) for s in range(8)])
        tgrid = np.linspace(-T, T, 21)

        def evolve(n):
            lam, q = np.linalg.eigh(dense_lax(u0, equation, n, M))
            qh_f = q.conj().T @ F
            return np.stack([q @ (np.exp(1j * t * lam)[:, None] * qh_f) for t in tgrid])

        ref = evolve(M)
        expected = [(n, np.max(np.linalg.norm(evolve(n) - ref, axis=1)))
                    for n in (4, 8, 16, 32)]
        assert [n for n, _ in rows] == [n for n, _ in expected]
        for (_, got), (_, want) in zip(rows, expected):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def dense_bound_suite(u0, equation, M, kappas, ns, n_vectors, seed, kappa0):
    """Every measured value of `run_bound_suite`, keyed (name, n, kappa), from
    dense M x M matrices, SVD norms (ord=2), products and solves."""
    U = dense_mult_matrix(u0, M)
    ks = np.arange(M)
    out = {}
    for kappa in kappas:
        r0 = 1.0 / (ks + kappa)
        for n in ns:
            pn = (ks < n).astype(float)
            out["mult-resolvent", n, kappa] = np.linalg.norm((U * pn) * r0, ord=2)
            if equation != "BO":
                gram = (((U * pn) @ U.conj().T) * pn) * r0
                out["gram-resolvent", n, kappa] = np.linalg.norm(gram, ord=2)
            if n >= 1:
                out["projection", n, kappa] = np.max((1.0 - pn) / (ks + kappa))
    if equation != "BO":
        out["gram-resolvent-decay", M, 1e4] = np.linalg.norm((U @ U.conj().T) / (ks + 1e4), ord=2)
    F = unit_vectors(M, n_vectors, seed)
    d1 = np.diag(ks + kappa0)
    h1, hm1 = np.linalg.norm(d1 @ F, axis=0), np.linalg.norm(np.linalg.solve(d1, F), axis=0)
    for n in sorted({1, M // 2, M}):
        lax = dense_lax(u0, equation, n, M)
        lf = np.linalg.norm((lax + kappa0 * np.eye(M)) @ F, axis=0)
        rf = np.linalg.norm(np.linalg.solve(lax + kappa0 * np.eye(M), F), axis=0)
        out["sandwich-upper", n, kappa0] = np.max(lf / h1)
        out["sandwich-lower", n, kappa0] = np.max(h1 / lf)
        out["dual-sandwich-upper", n, kappa0] = np.max(rf / hm1)
        out["dual-sandwich-lower", n, kappa0] = np.max(hm1 / rf)
        out["semibound", n, None] = -np.linalg.eigvalsh(lax)[0]
    return out


class TestDenseEquivalence:
    """Every measured value against dense M x M references, to 1e-12 relative."""

    M = 64
    NAMES = ["BO", "CCM-focusing", "CCM-defocusing"]

    def data(self, equation):
        return bo_data(self.M, seed=3, norm=1.0) if equation == "BO" else ccm_data(
            self.M, seed=3, norm=0.5 if equation == "CCM-focusing" else 1.0)

    @pytest.mark.parametrize("equation", NAMES)
    def test_bound_suite(self, equation):
        M, u0 = self.M, self.data(equation)
        kappas, ns = [1.0, 10.0, 100.0], [0, 1, 2, 4, 8, 16, 32, 64]
        reports = run_bound_suite(u0, equation, M, kappas, ns, n_vectors=50, seed=7)
        kappa0 = reports[-1].bound  # the semibound's bound
        if equation == "BO":
            assert kappa0 == max(12.0 * l2_norm(u0) ** 2, 1.0)
        else:
            assert kappa0 == dense_kappa_zero(u0, M)
        dense = dense_bound_suite(u0, equation, M, kappas, ns, 50, 7, kappa0)
        checked = set()
        for r in reports:
            if r.name == "hardy":
                continue
            key = (r.name, r.params.get("n"), r.params.get("kappa"))
            assert r.measured == pytest.approx(dense[key], rel=1e-12, abs=0.0), key
            checked.add(key)
        assert checked == set(dense)

    @pytest.mark.parametrize("equation", NAMES)
    def test_resolvent(self, equation):
        M, u0 = self.M, self.data(equation)
        kappa = find_kappa_zero(u0, EQUATIONS[equation], M)
        rows = run_resolvent_convergence(u0, equation, M)
        r_full = np.linalg.inv(dense_lax(u0, equation, M, M) + kappa * np.eye(M))
        assert [r.n for r in rows] == [2, 4, 8, 16, 32]
        for r in rows:
            r_n = np.linalg.inv(dense_lax(u0, equation, r.n, M) + kappa * np.eye(M))
            want = np.linalg.norm(r_n - r_full, ord=2)
            assert r.measured == pytest.approx(want, rel=1e-12, abs=0.0), r.n


class TestResolventConvergence:
    @pytest.mark.parametrize("equation", ["BO", "CCM-defocusing"])
    def test_within_bounds_and_shrinking(self, equation):
        M = 64
        u0 = bo_data(M) if equation == "BO" else ccm_data(M)
        rows = run_resolvent_convergence(u0, equation, M)
        assert [r.n for r in rows] == [2, 4, 8, 16, 32]
        assert all(r.passed for r in rows)
        assert rows[-1].measured <= rows[0].measured + 1e-12

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            run_resolvent_convergence(bo_data(48), "BO", 48)


class TestConvergenceStudy:
    def test_constant_datum_is_schedule_independent(self):
        """For u0 = const all Lax matrices are diagonal and only the zero
        mode is populated, so every K and schedule matches the reference."""
        u0 = InitialProfile("single-mode", {"k0": 0, "amplitude": 0.3})
        table = run_convergence_study(u0, "BO", Ks=[16, 32], schedule_kind="linear-case",
                                      T=1.0, grid_points=11, K_ref=128, check=False)
        assert all(r.error <= 1e-10 for r in table.rows)
        assert all(r.norm_diff <= 1e-10 for r in table.rows)

    def test_errors_decrease_square_wave(self):
        u0 = InitialProfile("square-wave")
        table = run_convergence_study(u0, "BO", Ks=[8, 16, 32], schedule_kind="constant",
                                      T=0.5, grid_points=11, K_ref=128)
        errs = [r.error for r in table.rows]
        assert errs[0] > errs[1] > errs[2] > 0

    def test_ks_must_increase(self):
        with pytest.raises(ValueError):
            run_convergence_study(InitialProfile("square-wave"), "BO", Ks=[16, 8],
                                  schedule_kind="constant", T=0.5, grid_points=11, K_ref=128)

    def test_kref_guard(self):
        with pytest.raises(ValueError):
            run_convergence_study(InitialProfile("square-wave"), "BO", Ks=[8, 64],
                                  schedule_kind="constant", T=0.5, grid_points=11, K_ref=128)

    def test_grid_points_guard(self):
        with pytest.raises(ValueError, match="grid_points must be >= 11"):
            run_convergence_study(InitialProfile("square-wave"), "BO", Ks=[8, 16],
                                  schedule_kind="constant", T=0.5, grid_points=10, K_ref=128)

    @pytest.mark.parametrize("second", [16.0, float("nan")])
    def test_growing_error_fails_the_check(self, monkeypatch, second):
        # errors that grow with K, or are NaN: check=True raises, check=False
        # returns them, and the table says they are not monotone
        monkeypatch.setattr(diag, "_per_time_errors", lambda out, ref: (
            np.array([8.0 if out.schedule.K == 8 else second]), np.zeros(1)))
        args = dict(u0=InitialProfile("square-wave"), equation="BO", Ks=[8, 16],
                    schedule_kind="constant", T=0.5, grid_points=11, K_ref=64)
        with pytest.raises(RuntimeError, match="error not non-increasing: K=8 -> 8.000e"):
            run_convergence_study(**args)
        table = run_convergence_study(**args, check=False)
        np.testing.assert_array_equal([r.error for r in table.rows], [8.0, second])
        assert table.monotone is False


class TestFitRate:
    def _table(self, errors, Ks=(8, 16, 32, 64)):
        rows = [ConvergenceRow(K, "constant", e, 0.0, 1) for K, e in zip(Ks, errors)]
        return ConvergenceTable(rows, 1024, 1.0, "BO")

    def test_synthetic_slope_minus_one(self):
        t = self._table([1.0 / K for K in (8, 16, 32, 64)])
        assert fit_rate(t) == pytest.approx(-1.0, abs=1e-6)

    def test_synthetic_slope_minus_two(self):
        t = self._table([10.0 / K**2 for K in (8, 16, 32, 64)])
        assert fit_rate(t) == pytest.approx(-2.0, abs=1e-6)

    def test_all_zero_returns_none(self):
        assert fit_rate(self._table([0.0, 0.0, 0.0, 0.0])) is None

    def test_one_positive_error_returns_none(self):
        # no line through one point: a rank-deficient fit gave -0.83
        assert fit_rate(self._table([0.0, 0.0, 0.0, 1e-3])) is None

    def test_constant_errors_give_zero_slope(self):
        assert fit_rate(self._table([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_rows(self):
        t = self._table([1.0, 0.5], Ks=(8, 16))
        with pytest.raises(ValueError):
            fit_rate(t)

    @pytest.mark.parametrize("error", [0.0, 1e-3])
    def test_one_row_is_too_few_whatever_its_error(self, error):
        with pytest.raises(ValueError, match="need at least 4 rows"):
            fit_rate(self._table([error], Ks=(8,)))


class TestPropagatorSweep:
    @pytest.mark.parametrize("equation", ["BO", "CCM-defocusing"])
    def test_errors_bounded_and_decreasing(self, equation):
        M = 64
        u0 = bo_data(M) if equation == "BO" else ccm_data(M)
        rows = run_propagator_sweep(u0, equation, M, T=1.0)
        assert [n for n, _ in rows] == [4, 8, 16, 32]
        # unitary difference of two unitaries on unit vectors is at most 2
        assert all(err <= 2.0 + 1e-12 for _, err in rows)
        assert rows[-1][1] <= rows[0][1] + 1e-12

    def test_zero_data_is_exact(self):
        u0 = RealSpectrum.from_hardy_part([], K=64)
        rows = run_propagator_sweep(u0, "BO", 64, T=1.0)
        assert all(err <= 1e-10 for _, err in rows)

    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing"])
    def test_overflowing_phases_fail(self, equation):
        # t lambda overflows: the sups were NaN and the sweep passed
        u0 = bo_data(64) if equation == "BO" else ccm_data(64)
        with pytest.raises(RuntimeError, match="not finite"):
            run_propagator_sweep(u0, equation, 64, T=1e307)

    def test_an_error_that_grows_fails(self, monkeypatch):
        # zero data: every L_n is diagonal and agrees with L_M, so every error
        # is 0 but the one at n = M/2, whose eigenvalues are moved by 1/2
        real = diag._Spectra.eig

        def eig(self, n):
            e = real(self, n)
            return HermitianEig(e.eigenvalues + 0.5, e.eigenvectors) if n == self.M // 2 else e

        monkeypatch.setattr(diag._Spectra, "eig", eig)
        with pytest.raises(RuntimeError, match="failed to decrease from n=4 to n=M/2"):
            run_propagator_sweep(RealSpectrum.from_hardy_part([], K=64), "BO", 64, T=1.0)

    def test_requires_large_power_of_two(self):
        with pytest.raises(ValueError):
            run_propagator_sweep(bo_data(32), "BO", 32, T=1.0)


@pytest.mark.parametrize("T", [1e308, np.inf, np.nan])
@pytest.mark.parametrize("suite", [
    lambda T: run_propagator_sweep(bo_data(64), "BO", 64, T=T),
    lambda T: run_convergence_study(InitialProfile("square-wave"), "BO", Ks=[8],
                                    schedule_kind="constant", T=T, grid_points=11, K_ref=32),
], ids=["propagator-sweep", "convergence-study"])
def test_non_finite_width_rejected_before_any_work(monkeypatch, suite, T):
    # np.linspace(-T, T) overflowed with a RuntimeWarning for |T| > 8.99e307
    calls = count_builds(monkeypatch)
    with pytest.raises(ValueError, match=r"width 2T of \[-T, T\] must be finite"):
        suite(T)
    assert calls == []


class TestMemoryPreflight:
    """Every suite takes its context through `_Spectra.of`, which refuses an
    M whose arrays would not fit before any work, called alone or not."""

    SUITES = {
        "bound": lambda u0, eq, M: run_bound_suite(u0, eq, M, [1.0], [1, M]),
        "resolvent": run_resolvent_convergence,
        "sweep": lambda u0, eq, M: run_propagator_sweep(u0, eq, M, 1.0),
    }

    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("equation", ["BO", "CCM-defocusing"])
    def test_suite_alone_refuses_before_any_work(self, monkeypatch, suite, equation):
        M = 64
        u0 = bo_data(M) if equation == "BO" else ccm_data(M)
        calls = []
        for module, name in ((diag, "mult_matrix"), (laxflow.lax, "build_bo_lax"),
                             (laxflow.lax, "build_ccm_lax")):
            monkeypatch.setattr(module, name, lambda *a, _n=name: calls.append(_n))
        need = 16 * M * (diag._HELD_ARRAYS * M + diag._HELD_PER_VECTOR * diag._SANDWICH_VECTORS)
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="diagnostics at M=64 needs .* physical memory"):
            self.SUITES[suite](u0, equation, M)
        assert calls == []

    def test_bound_suite_counts_its_sandwich_vectors(self, monkeypatch):
        # 20000 vectors peaked at 60.4 MiB under tracemalloc and ran to the end
        # under the count for 200, 1.22 MiB at M = 64
        M = 64
        u0 = InitialProfile("random-sobolev", {"s": 1.0, "seed": 3, "norm": 0.5})
        calls = []
        mult_matrix = diag.mult_matrix
        monkeypatch.setattr(diag, "mult_matrix", lambda *a: calls.append(a) or mult_matrix(*a))
        need = 16 * M * (diag._HELD_ARRAYS * M + diag._HELD_PER_VECTOR * diag._SANDWICH_VECTORS)
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: need)
        with pytest.raises(ValueError, match="diagnostics at M=64 needs .* physical memory"):
            run_bound_suite(u0, "BO", M, [1.0], [1, M], n_vectors=20000)
        assert calls == []
        assert run_bound_suite(u0, "BO", M, [1.0], [1, M], n_vectors=200)
        assert calls

    def test_passed_context_is_checked_too(self, monkeypatch):
        M = 64
        u0 = bo_data(M)
        spectra = diag._Spectra(u0, EQUATIONS["BO"], M)
        monkeypatch.setattr(laxflow.scheme, "_physical_memory", lambda: 1 << 20)
        with pytest.raises(ValueError, match="physical memory"):
            run_resolvent_convergence(u0, "BO", M, spectra=spectra)
        assert "lax" not in spectra.__dict__


class TestDataContract:
    """Every entry point reads its data through `Equation.data`: the other
    equation's field is one TypeError before any build, and a profile is
    sampled at M as the caller would sample it."""

    M = 64
    ENTRY_POINTS = {
        "scheme": lambda u0, eq, M: laxflow.scheme.run_scheme(laxflow.scheme.SchemeConfig(
            eq, laxflow.scheme.make_schedule("constant", M), [0.5], u0)),
        "kappa0": lambda u0, eq, M: find_kappa_zero(u0, EQUATIONS[eq], M),
        "bound": lambda u0, eq, M: run_bound_suite(u0, eq, M, [1.0], [1, M], n_vectors=4),
        "resolvent": run_resolvent_convergence,
        "sweep": lambda u0, eq, M: run_propagator_sweep(u0, eq, M, 1.0),
        "convergence": lambda u0, eq, M: run_convergence_study(
            u0, eq, [M // 8], "constant", 1.0, 11, M // 2),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("equation, u0, want, got", [
        # the scheme reflected this one, kappa0 refused it; the CCM sweep ran
        # the other on a Hermitian Toeplitz A and returned numbers
        ("BO", HardyVector([0.3, 0.1j, 0.05]), "RealSpectrum", "HardyVector"),
        ("CCM-defocusing", RealSpectrum.from_hardy_part([0.3, 0.1j, 0.05], 64), "HardyVector",
         "RealSpectrum"),
    ])
    def test_the_other_field_is_refused_before_any_build(self, monkeypatch, entry, equation,
                                                          u0, want, got):
        calls = []
        for module in (diag, laxflow.lax):
            monkeypatch.setattr(module, "mult_matrix", lambda *a: calls.append("mult_matrix"))
        monkeypatch.setattr(laxflow.lax.Equation, "build_lax",
                            lambda *a: calls.append("build_lax"))
        with pytest.raises(TypeError, match=f"^{equation} data must be a {want} or an "
                                            f"InitialProfile, got {got}$"):
            self.ENTRY_POINTS[entry](u0, equation, self.M)
        assert calls == []

    @pytest.mark.parametrize("equation", sorted(EQUATIONS))
    def test_suites_take_a_profile_as_its_samples_at_M(self, equation):
        # both suites read the unsampled profile after sampling it, and ended
        # in an AttributeError
        p = InitialProfile("random-sobolev", {"s": 1.0, "seed": 6, "norm": 0.5})
        u0 = analyze_profile(p, self.M, hardy=EQUATIONS[equation].hardy)
        for suite in (lambda u: run_bound_suite(u, equation, self.M, [1.0, 4.0],
                                                [1, 8, self.M], n_vectors=8),
                      lambda u: run_resolvent_convergence(u, equation, self.M)):
            assert suite(p) == suite(u0)


class TestKappaZero:
    def test_bo_small_data(self):
        # 12 * 0.01 < 1 so the floor applies
        u0 = bo_data(16, 0, norm=0.1)
        k0 = find_kappa_zero(u0, EQUATIONS["BO"], 16)
        assert type(k0) is float and k0 == 1.0

    def test_bo_formula(self):
        u0 = bo_data(16, 1, norm=np.sqrt(2.0))
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
        m = build_ccm_lax(u0, 32, "focusing")
        g = np.diag(np.arange(32.0)) - dense_matrix(m, 32)
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
            find_kappa_zero(bo_data(8, 0), EQUATIONS["CCM-focusing"], 8)
        with pytest.raises(ValueError):
            find_kappa_zero(bo_data(8, 0), EQUATIONS["BO"], 3)

    @pytest.mark.parametrize("coeffs", [[0.5, 0, 0.1, 0, 0.3], [0.3, 0, 0.1j, 0, 0.3]])
    def test_no_kappa0_for_data_that_is_no_real_field(self, coeffs):
        # the BO formula reads the k >= 0 half only, and returned about 4.2
        # for the first array
        with pytest.raises(ValueError):
            find_kappa_zero(RealSpectrum(coeffs, K=3), EQUATIONS["BO"], 8)


def hermitian_case(kind, n, seed, dtype):
    """A Hermitian n x n matrix of the named kind, entries of order 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "random":
        a = x + x.conj().T
    elif kind == "zero":
        a = np.zeros((n, n))
    elif kind == "rank-one":
        a = x[:, :1] @ x[:, :1].conj().T
    elif kind == "diagonal":
        a = np.diag(rng.standard_normal(n))
    else:
        # Q diag(lam) Q^H: a dominant eigenvalue repeated, a negative one
        # dominant, or the fast decay of the diagnostics' scaled Grams
        q = np.linalg.qr(x)[0]
        lam = rng.uniform(-1.0, 1.0, n)
        if kind == "repeated":
            lam[: n // 3 + 1] = 2.0
        elif kind == "negative":
            lam[:1] = -3.0
        else:
            lam = np.abs(lam) * 0.5 ** np.arange(n)
        a = (q * lam) @ q.conj().T
        a = (a + a.conj().T) / 2
    return a.real.copy() if dtype == "real" else a.astype(np.complex128)


def assert_norm_matches_eigvalsh(kind, n, seed, exponent, dtype):
    a = hermitian_case(kind, n, seed, dtype) * 10.0**exponent
    got = _hermitian_norm(a)
    assert type(got) is float and got == _hermitian_norm(a)
    want = float(np.max(np.abs(np.linalg.eigvalsh(a)), initial=0.0))
    if kind == "zero" or n == 0:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def scaled_ccm_gram(n):
    """R0 G^2 R0 of CCM data: a spectrum decaying to rounding level."""
    u0 = analyze_profile(
        InitialProfile("random-sobolev", {"s": 1.0, "seed": 3, "norm": 1.0}), n, hardy=True)
    r0 = 1.0 / (np.arange(n) + 1.0)
    return diag._Spectra(u0, EQUATIONS["CCM-defocusing"], n)._gram2 * np.outer(r0, r0)


HERMITIAN_KINDS = st.sampled_from(["random", "zero", "rank-one", "diagonal", "repeated",
                                   "negative", "decaying"])


class TestHermitianNorm:
    # n <= 64: the dense path
    @settings(max_examples=300, deadline=None)
    @given(HERMITIAN_KINDS, st.integers(0, 48), st.integers(0, 2**32 - 1),
           st.integers(-150, 150), st.sampled_from(["complex", "real"]))
    def test_matches_eigvalsh(self, kind, n, seed, exponent, dtype):
        assert_norm_matches_eigvalsh(kind, n, seed, exponent, dtype)

    # n > 64: Lanczos
    @settings(max_examples=300, deadline=None)
    @given(HERMITIAN_KINDS, st.integers(65, 160), st.integers(0, 2**32 - 1),
           st.integers(-150, 150), st.sampled_from(["complex", "real"]))
    # without the exact rescaling a basis norm's square underflows (|w|^2 at
    # 1e-156: the result was off by 2.5e-12) or overflows (1e+156: eigh of
    # the tridiagonal did not converge); at 1e-150 and n = 32 it underflowed
    # too, but here the squares stay in range up to about 1e+-154
    @example("repeated", 96, 372951265, -156, "complex")
    @example("repeated", 96, 372951265, 156, "complex")
    def test_lanczos_matches_eigvalsh(self, kind, n, seed, exponent, dtype):
        assert_norm_matches_eigvalsh(kind, n, seed, exponent, dtype)

    @pytest.mark.parametrize("n", [64, 256])
    def test_diagnostics_scaled_grams(self, n):
        a = scaled_ccm_gram(n)
        assert _hermitian_norm(a) == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-13)

    @pytest.mark.parametrize("n, dense", [(64, True), (65, False)])
    def test_dense_up_to_64_then_lanczos(self, monkeypatch, n, dense):
        # the dense path takes eigvalsh of the matrix itself, Lanczos eigh
        # only of its tridiagonals
        a, taken = scaled_ccm_gram(n), []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda x, name=name, real=real: taken.append((name, x)) or real(x))
        got = _hermitian_norm(a)
        assert [name for name, x in taken if x is a] == (["eigvalsh"] if dense else [])
        assert {name for name, _ in taken} == ({"eigvalsh"} if dense else {"eigh"})
        assert got == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-13)


def test_lanczos_holds_one_basis():
    # one n x n basis of the Lanczos vectors and no conjugated copy: the
    # peak of one norm at n = 512 is one such array and a fraction
    n = 512
    a = hermitian_case("random", n, 0, "complex")
    _hermitian_norm(a[:80, :80].copy())  # the first call's lazy imports are taken apart
    tracemalloc.start()
    try:
        _hermitian_norm(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * n * n, peak / (16 * n * n)
