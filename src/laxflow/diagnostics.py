"""Operator-bound suites, resolvent/propagator convergence, and the
convergence study against a high-resolution reference run.

Operator norms are evaluated at the Galerkin level: multiplication by the
data is embedded as a finite matrix on the frequency window [0, M).  The
restriction can only shrink an operator norm, so the continuum upper bounds
remain valid assertions for the measured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .lax import Equation, LaxMatrix, mult_matrix
from .propagator import eig_hermitian, find_kappa_zero
from .scheme import SchemeConfig, SchemeOutput, make_schedule, run_scheme
from .spectral import HardyVector, InitialProfile, RealSpectrum, analyze_profile, l2_norm

__all__ = [
    "BoundReport",
    "ConvergenceRow",
    "ConvergenceTable",
    "ResolventRow",
    "run_bound_suite",
    "run_resolvent_convergence",
    "run_convergence_study",
    "fit_rate",
    "run_propagator_sweep",
]

_PASS_TOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound + _PASS_TOL * (1.0 + self.bound)


def _opnorm(a: np.ndarray) -> float:
    """Spectral norm; 0 for a matrix with no columns."""
    return float(np.linalg.norm(a, ord=2)) if a.size else 0.0


def _resolvent_matrix(lax: LaxMatrix, kappa: float) -> np.ndarray:
    return np.linalg.inv(lax.entries + kappa * np.eye(lax.M))


def _time_grid(T: float, points: int) -> np.ndarray:
    """points equispaced times on [-T, T]; ValueError unless 2T is finite."""
    # a Python float: 2 * np.float64(1e308) would overflow with a warning
    if not math.isfinite(2.0 * float(T)):
        raise ValueError(f"T and the width 2T of [-T, T] must be finite; got {T!r}")
    return np.linspace(-T, T, points)


def _random_unit_vectors(M: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((M, count)) + 1j * rng.standard_normal((M, count))
    return z / np.linalg.norm(z, axis=0)


def run_bound_suite(
    u0,
    equation: str,
    M: int,
    kappas: Sequence[float],
    ns: Sequence[int],
    n_vectors: int = 200,
    seed: int = 0,
) -> List[BoundReport]:
    """Evaluate the perturbation, projection and norm-sandwich bounds.

    Emits one report per (bound, n, kappa) cell; failures are reported with
    passed = False, never raised.  The perturbation operators are truncated
    by Pi_n on the right, so only their first n columns are nonzero and
    each norm is taken of that M x n matrix.
    """
    eq = Equation.named(equation)
    if M < 8:
        raise ValueError("M must be >= 8")
    if not all(np.isfinite(k) and k >= 1 for k in kappas):
        raise ValueError("kappas must be finite and >= 1")
    norm_u = l2_norm(u0)
    reports: List[BoundReport] = []

    def report(name, measured, bound, **params):
        params.update(M=M, equation=equation)
        reports.append(BoundReport(name, params, measured, bound))

    U = mult_matrix(u0, M)
    hardy_coeffs = u0.hardy_part() if isinstance(u0, RealSpectrum) else u0.padded(M)

    for kappa in kappas:
        r0 = 1.0 / (np.arange(M) + kappa)
        for n in ns:
            # multiplication composed with truncation and the free resolvent
            report("mult-resolvent", _opnorm(U[:, :n] * r0[:n]),
                   np.sqrt(3.0) / np.sqrt(kappa) * norm_u, n=n, kappa=kappa)
            if eq.family == "CCM":
                # for Hardy data the multiplication matrix is the lower-
                # triangular Toeplitz factor A itself: (A Pi_n A^H Pi_n) R0
                prod = (U[:, :n] @ U[:n, :n].conj().T) * r0[:n]
                report("gram-resolvent", _opnorm(prod), 2.0 * norm_u**2, n=n, kappa=kappa)
            if n >= 1:
                # projection bound: the diagonal maximum is exact; it is
                # zero once the truncation covers the whole window
                report("projection", 1.0 / (n + kappa) if n < M else 0.0, 1.0 / n,
                       n=n, kappa=kappa)

    if eq.family == "CCM":
        # decay of the Gram-resolvent operator norm as kappa grows (to 10^4)
        big_kappa = 1.0e4
        prod = (U @ U.conj().T) * (1.0 / (np.arange(M) + big_kappa))
        report("gram-resolvent-decay", _opnorm(prod), 0.1 * 2.0 * norm_u**2,
               n=M, kappa=big_kappa)

    # Hardy-inequality check on the nonnegative modes
    cum = np.cumsum(np.abs(hardy_coeffs)) / (np.arange(len(hardy_coeffs)) + 1.0)
    report("hardy", float(np.linalg.norm(cum)), 2.0 * norm_u)

    # norm sandwich and its dual at kappa = kappa0, then semi-boundedness:
    # the smallest eigenvalue dominated by -kappa0; each L_n is sliced from L_M
    kappa0 = find_kappa_zero(u0, eq, M)
    lax = eq.build_lax(u0, M, M)
    F = _random_unit_vectors(M, n_vectors, seed)
    ks = np.arange(M)
    h1 = np.linalg.norm(((ks + kappa0)[:, None]) * F, axis=0)
    hm1 = np.linalg.norm(F / (ks + kappa0)[:, None], axis=0)
    lam_mins = {}
    for n in sorted({1, M // 2, M}):
        shifted = lax.truncated(n).entries  # L_n here, L_n + kappa0 below
        lam_mins[n] = float(np.linalg.eigvalsh(shifted)[0])
        shifted += kappa0 * np.eye(M)
        lf = np.linalg.norm(shifted @ F, axis=0)
        rf = np.linalg.norm(np.linalg.solve(shifted, F), axis=0)
        report("sandwich-upper", float(np.max(lf / h1)), 1.5, n=n, kappa=kappa0)
        report("sandwich-lower", float(np.max(h1 / lf)), 2.0, n=n, kappa=kappa0)
        report("dual-sandwich-upper", float(np.max(rf / hm1)), 2.0, n=n, kappa=kappa0)
        report("dual-sandwich-lower", float(np.max(hm1 / rf)), 1.5, n=n, kappa=kappa0)
    for n, lam_min in lam_mins.items():
        report("semibound", -lam_min, kappa0, n=n)
    return reports


@dataclass(frozen=True)
class ResolventRow:
    n: int
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound + _PASS_TOL * (1.0 + self.bound)


def run_resolvent_convergence(u0, equation: str, M: int) -> List[ResolventRow]:
    """Measure ||R_n(kappa0) - R_M(kappa0)||, L_n sliced from L_M, against 1/n bounds."""
    eq = Equation.named(equation)
    if M < 32 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 32")
    kappa = find_kappa_zero(u0, eq, M)
    norm_u = l2_norm(u0)
    lax = eq.build_lax(u0, M, M)
    r_full = _resolvent_matrix(lax, kappa)
    rows = []
    n = 2
    while n <= M // 2:
        r_n = _resolvent_matrix(lax.truncated(n), kappa)
        measured = _opnorm(r_n - r_full)
        if eq.family == "BO":
            bound = 8.0 * np.sqrt(3.0) / (n * np.sqrt(kappa)) * norm_u
        else:
            # chained from the CCM resolvent-identity proof constants
            bound = 16.0 * norm_u**2 / n
        rows.append(ResolventRow(n, measured, bound))
        n *= 2
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    K: int
    kind: str
    error: float
    norm_diff: float
    decompositions: int


@dataclass(frozen=True)
class ConvergenceTable:
    rows: List[ConvergenceRow]
    K_ref: int
    T: float
    equation: str


def _per_time_errors(out: SchemeOutput, ref: SchemeOutput) -> Tuple[np.ndarray, np.ndarray]:
    """L2 error and norm difference against the reference, per time point."""
    K = out.schedule.K
    diff = ref.coeffs.copy()
    diff[:, :K] -= out.coeffs
    hardy_err2 = np.sum(np.abs(diff) ** 2, axis=1)
    hardy_out = np.linalg.norm(out.coeffs, axis=1)
    hardy_ref = np.linalg.norm(ref.coeffs, axis=1)
    if out.equation == "BO":
        err = np.sqrt(np.maximum(2.0 * hardy_err2 - np.abs(diff[:, 0]) ** 2, 0.0))
        n_out = np.sqrt(np.maximum(2.0 * hardy_out**2 - out.coeffs[:, 0].real ** 2, 0.0))
        n_ref = np.sqrt(np.maximum(2.0 * hardy_ref**2 - ref.coeffs[:, 0].real ** 2, 0.0))
    else:
        err = np.sqrt(hardy_err2)
        n_out, n_ref = hardy_out, hardy_ref
    return err, np.abs(n_out - n_ref)


def run_convergence_study(
    u0: Union[InitialProfile, RealSpectrum, HardyVector],
    equation: str,
    Ks: Sequence[int],
    schedule_kind: str,
    T: float,
    grid_points: int,
    K_ref: int,
    check: bool = True,
) -> ConvergenceTable:
    """Errors of the K-frequency scheme against the K_ref reference run.

    The continuum solution is proxied by the scheme itself at K_ref with a
    constant schedule; all runs share the same initial data materialized at
    bandwidth K_ref.
    """
    eq = Equation.named(equation)
    Ks = list(Ks)
    if any(b <= a for a, b in zip(Ks, Ks[1:])):
        raise ValueError("Ks must be strictly increasing")
    if K_ref < 4 * max(Ks):
        raise ValueError("K_ref must be >= 4 * max(Ks)")
    if grid_points < 11:
        raise ValueError("grid_points must be >= 11")
    times = _time_grid(T, grid_points)
    if isinstance(u0, InitialProfile):
        u0 = analyze_profile(u0, K_ref, hardy=eq.hardy)

    ref_cfg = SchemeConfig(equation, make_schedule("constant", K_ref), times, u0)
    try:
        ref = run_scheme(ref_cfg)
    except Exception as exc:
        raise RuntimeError(f"reference run at K_ref={K_ref} failed: {exc}") from exc

    rows = []
    for K in Ks:
        cfg = SchemeConfig(equation, make_schedule(schedule_kind, K), times, u0)
        out = run_scheme(cfg)
        err, nd = _per_time_errors(out, ref)
        rows.append(
            ConvergenceRow(K, schedule_kind, float(np.max(err)), float(np.max(nd)),
                           out.decompositions)
        )
    if check:
        for a, b in zip(rows, rows[1:]):
            if b.error > a.error + 1e-12:
                raise RuntimeError(
                    f"error not non-increasing: K={a.K} -> {a.error:.3e}, "
                    f"K={b.K} -> {b.error:.3e}"
                )
    return ConvergenceTable(rows, K_ref, T, equation)


def fit_rate(table: ConvergenceTable) -> Optional[float]:
    """Least-squares slope of log(error) against log(K); None if degenerate."""
    pts = [(r.K, r.error) for r in table.rows if r.error > 0.0]
    if not pts:
        return None
    if len(table.rows) < 4:
        raise ValueError("need at least 4 rows to fit a rate")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def run_propagator_sweep(u0, equation: str, M: int, T: float) -> List[Tuple[int, float]]:
    """sup over t in [-T, T] (21 points) and a fixed vector family of
    ||(e^{itL_n} - e^{itL_M}) f||, for n = 4, 8, ..., M/2.  The family is
    the first 8 unit vectors and 8 random unit vectors (seeds 0..7).

    Each L_n, sliced from L_M, is decomposed through `eig_hermitian` (its
    n x n block only, with that call's checks); the tail rows n..M-1 evolve
    by the phases e^{itj}.  Raises RuntimeError unless every sup error is finite.
    """
    eq = Equation.named(equation)
    if M < 64 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 64")
    tgrid = _time_grid(T, 21)
    basis = np.eye(M, 8, dtype=np.complex128)
    rand = np.hstack([_random_unit_vectors(M, 1, s) for s in range(8)])
    F = np.hstack([basis, rand])
    lax = eq.build_lax(u0, M, M)

    def evolve_all(n):
        e = eig_hermitian(lax.truncated(n))
        q = e.eigenvectors
        # an overflowing t lambda gives NaN phases, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.exp(1j * np.outer(tgrid, e.eigenvalues))[:, :, None]
        # (times, M, vectors): block rows through the eigenbasis, tail rows phased
        blk = q @ (phases[:, :n] * (q.conj().T @ F[:n]))
        return np.concatenate([blk, phases[:, n:] * F[n:]], axis=1)

    ref = evolve_all(M)
    rows = []
    n = 4
    while n <= M // 2:
        diff = evolve_all(n) - ref
        sup = float(np.max(np.linalg.norm(diff, axis=1)))
        rows.append((n, sup))
        n *= 2
    if not all(np.isfinite(sup) for _, sup in rows):
        raise RuntimeError("propagator sweep error is not finite")
    if rows and rows[-1][1] > rows[0][1] + 1e-12:
        raise RuntimeError("propagator error failed to decrease from n=4 to n=M/2")
    return rows
