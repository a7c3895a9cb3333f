import numpy as np
import pytest
import scipy.linalg

from laxflow.diagnostics import (
    BoundReport,
    ConvergenceRow,
    ConvergenceTable,
    fit_rate,
    run_bound_suite,
    run_convergence_study,
    run_propagator_sweep,
    run_resolvent_convergence,
)
import laxflow.lax
from laxflow.lax import EQUATIONS, build_bo_lax, build_ccm_lax
from laxflow.propagator import find_kappa_zero
from laxflow.spectral import HardyVector, InitialProfile, RealSpectrum, analyze_profile


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

    def test_projection_bound_is_exact(self):
        reports = run_bound_suite(bo_data(16), "BO", 16, kappas=[2.0], ns=[4], n_vectors=10)
        (r,) = [r for r in reports if r.name == "projection"]
        assert r.measured == pytest.approx(1.0 / (4 + 2.0))
        assert r.bound == pytest.approx(1.0 / 4)

    def test_projection_bound_vanishes_at_full_window(self):
        reports = run_bound_suite(bo_data(16), "BO", 16, kappas=[1.0], ns=[16], n_vectors=10)
        (r,) = [r for r in reports if r.name == "projection"]
        assert r.measured == 0.0

    def test_one_lax_build_per_n(self, monkeypatch):
        # the sandwich and semibound rows share the builds at n = 1, M/2, M
        calls = []

        def counting(*args):
            calls.append(args[1])
            return build_ccm_lax(*args)

        monkeypatch.setattr(laxflow.lax, "build_ccm_lax", counting)
        run_bound_suite(ccm_data(32), "CCM-defocusing", 32, kappas=[1.0], ns=[1])
        assert sorted(calls) == [1, 16, 32]

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            run_bound_suite(bo_data(8), "BO", 8, kappas=[0.5], ns=[1])


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
        return build_bo_lax(u0, n, M).entries
    return build_ccm_lax(u0, n, M, equation.split("-", 1)[1]).entries


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
        assert kz.value == dense_kappa_zero(u0, M) == expected


class TestSweepAgainstDenseEigh:
    @pytest.mark.parametrize("equation", ["BO", "CCM-focusing", "CCM-defocusing"])
    def test_rows_match(self, equation):
        M, T = 64, 1.5
        u0 = bo_data(M) if equation == "BO" else ccm_data(M)
        rows = run_propagator_sweep(u0, equation, M, T=T)
        basis = np.eye(M, 8, dtype=np.complex128)
        rng = [np.random.Generator(np.random.Philox(key=s)) for s in range(8)]
        z = np.hstack([r.standard_normal((M, 1)) + 1j * r.standard_normal((M, 1)) for r in rng])
        F = np.hstack([basis, z / np.linalg.norm(z, axis=0)])
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
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


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

    def test_constant_errors_give_zero_slope(self):
        assert fit_rate(self._table([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_rows(self):
        t = self._table([1.0, 0.5], Ks=(8, 16))
        with pytest.raises(ValueError):
            fit_rate(t)


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

    def test_requires_large_power_of_two(self):
        with pytest.raises(ValueError):
            run_propagator_sweep(bo_data(32), "BO", 32, T=1.0)
