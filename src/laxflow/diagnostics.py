"""Operator-bound suites, resolvent/propagator convergence, and the
convergence study against a high-resolution reference run.

Operator norms are evaluated at the Galerkin level: multiplication by the
data is embedded as a finite matrix on the frequency window [0, M).  The
restriction can only shrink an operator norm, so the continuum upper bounds
remain valid assertions for the measured values.

No norm takes an SVD: an operator norm is sqrt(lambda_max) of the smaller
Gram matrix, and the norm of a Hermitian difference its largest |lambda|,
each taken where it is cheapest (`_hermitian_norm`).  A matrix of n <= 64
takes a dense `eigvalsh`, and the norm is the computed eigenvalue.  A larger
one takes Lanczos from a seeded start vector, a few dozen matrix-vector
products: it stops when the dominant Ritz value theta's residual r is at
most 8 u sqrt(n) |theta| and returns |theta| + r, an upper bound on the
eigenvalue theta converged to; it misses the largest only for a start
nearly orthogonal to its eigenvector.  No dense M x M Lax matrix is
formed: each L_n acts as its n x n block and, elementwise, its diagonal
tail diag(n..M-1).

The three Lax-operator suites read one spectral context per (data,
equation, M), `_Spectra`, which computes each quantity when a suite first
asks for it: the build of L_M, of which every L_n is a slice; kappa0, the
one implementation of the shift (`find_kappa_zero` reads it); for CCM,
G^2 = (A A^H)^2, from which the kappa0 search and the bound suite each take
their norms ||G R0(kappa)|| at n = M; one decomposition of each L_n, which
gives the semibound's smallest eigenvalue and the sweep's groups; and one
resolvent R_n(kappa0) = Q (Lambda + kappa0)^-1 Q^H of each n, which the
sandwich bounds and the resolvent suite share.
`laxflow diagnostics` passes one context to all three suites; called
alone, each suite makes its own; either way `_Spectra.of` first refuses
an M whose arrays would not fit in memory (`_check_memory`).  Every entry
point reads its data through `Equation.data`, a profile sampled at M (at
K_ref for the convergence study), before any build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import scheme
from .lax import Equation, LaxMatrix, mult_matrix
from .propagator import HermitianEig, _phases, eig_hermitian
from .scheme import SchemeConfig, SchemeOutput, make_schedule, run_scheme
from .spectral import _is_integer, _is_philox_key, l2_norm

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
    "find_kappa_zero",
]

_PASS_TOL = 1e-10
_U = np.finfo(np.float64).eps / 2  # unit roundoff


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound + _PASS_TOL * (1.0 + self.bound)


def _time_grid(T: float, points: int) -> np.ndarray:
    """points equispaced times on [-T, T]; ValueError unless 2T is finite
    and points is a count an array can have."""
    # a Python float: 2 * np.float64(1e308) would overflow with a warning
    if not math.isfinite(2.0 * float(T)):
        raise ValueError(f"T and the width 2T of [-T, T] must be finite; got {T!r}")
    # past intp, linspace's arange wraps to no points and it fails with an IndexError
    if points > np.iinfo(np.intp).max:
        raise ValueError(f"grid_points must be at most {np.iinfo(np.intp).max}; got {points}")
    return np.linspace(-T, T, points)


# a diagnostics command's peak, by tracemalloc over one command (imports
# warm, each equation), in M x M complex arrays: 17.0-17.3 at M = 64 and 8.5
# at 128 in the bound suite, whose F, its block and tail products and their
# concatenation are M x 200 each; 6.5 at 256, 5.95 at 512 and 5.7 at 1024 in
# the resolvent suite (L_M, the decompositions at M and M/2, R_M, a
# difference, a Lanczos basis); the sweep peaks below both.  Counted: 7 M x M
# arrays and 4 M-vectors per sandwich vector, the fourth for what does not
# grow with M
_HELD_ARRAYS = 7
_HELD_PER_VECTOR = 4
_SANDWICH_VECTORS = 200


def _check_memory(M: int, vectors: int = _SANDWICH_VECTORS) -> None:
    """ValueError when the arrays a diagnostics command at M, drawing `vectors`
    sandwich vectors, holds at once exceed the memory the process may use
    (`scheme._check_memory`)."""
    scheme._check_memory(16 * M * (_HELD_ARRAYS * M + _HELD_PER_VECTOR * vectors),
                         f"diagnostics at M={M}")


def _random_unit_vectors(M: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((M, count)) + 1j * rng.standard_normal((M, count))
    return z / np.linalg.norm(z, axis=0)


_LANCZOS_SEED = 0x1A2  # Philox key of the start vector
_LANCZOS_CHECK = 6  # Lanczos steps between looks at the tridiagonal
# largest n whose norm is a dense eigvalsh: on scaled CCM Grams (2 cores, OpenBLAS
# 0.3.31) 0.013, 0.32 and 1.2 ms at n = 8, 64, 128 against Lanczos's 0.26, 0.38, 0.34
_DENSE_MAX = 64


def _hermitian_norm(a: np.ndarray) -> float:
    """max |lambda| of a Hermitian matrix: the computed eigenvalue of a dense
    `eigvalsh` for n <= _DENSE_MAX, else an upper bound on it by Lanczos.

    Lanczos starts from a fixed Philox-seeded complex Gaussian, so equal
    inputs give equal floats, and keeps its basis orthonormal by classical
    Gram-Schmidt taken twice (CGS2) in each step.  Every few steps the
    extreme eigenpairs (theta, s) of the k x k tridiagonal give Ritz values
    with residuals r = beta_k |s_k|, and each end holds an eigenvalue of a
    within r of its theta.  The run stops when the dominant end's r is at
    most 8 u sqrt(n) |theta| and the other end's |theta| + r is no larger,
    and returns the dominant |theta| + r, an upper bound on the eigenvalue
    theta converged to.  beta_k = 0 is an invariant subspace, exact; at most
    n steps are taken.  It fails only when the start vector is nearly
    orthogonal to the dominant eigenvector (a component below delta has
    probability about n delta^2; Kuczynski and Wozniakowski, SIAM J. Matrix
    Anal. Appl. 13, 1992, bound the error after k steps): it then converges
    to a smaller eigenvalue.  The basis holds each step's vector, a few
    dozen steps in practice.
    """
    n = len(a)
    if n <= _DENSE_MAX:
        return float(np.max(np.abs(np.linalg.eigvalsh(a)), initial=0.0))
    rng = np.random.Generator(np.random.Philox(key=_LANCZOS_SEED))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # basis[j] is the j-th Lanczos vector; only the rows of the steps taken
    # are written, so only they take memory
    basis = np.empty((n, n), np.complex128)
    basis[0] = v / np.linalg.norm(v)
    w = a @ basis[0]
    # the run takes a / scale, a power of two near |a| (1 for a v = 0), so
    # the rescaling is exact and no square in a norm underflows or overflows
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(w)))[1])
    alpha, beta = np.zeros(n), np.zeros(n)
    tol = 8.0 * _U * np.sqrt(n)
    for k in range(1, n + 1):
        w /= scale
        v = basis[:k]
        # V^H w as the conjugate of V conj(w): one product, no conjugated V
        c = (v @ w.conj()).conj()
        alpha[k - 1] = c[k - 1].real
        w -= c @ v
        w -= (v @ w.conj()).conj() @ v
        beta[k - 1] = np.sqrt(np.vdot(w, w).real)
        last = k == n or beta[k - 1] == 0.0
        if last or k % _LANCZOS_CHECK == 0:
            # the tridiagonal is real: the real LAPACK path costs less per check than
            # the complex one and adds well under 1 MiB of resident memory
            t = np.diag(alpha[:k]) + np.diag(beta[:k - 1], 1) + np.diag(beta[:k - 1], -1)
            theta, s = np.linalg.eigh(t)
            ends = np.abs(theta[[0, -1]])
            r = beta[k - 1] * np.abs(s[-1, [0, -1]])
            d = int(ends[1] >= ends[0])
            if last or (r[d] <= tol * ends[d] and ends[1 - d] + r[1 - d] <= ends[d]):
                return float(np.max(ends + r) * scale)
        np.divide(w, beta[k - 1], out=basis[k])
        np.matmul(a, basis[k], out=w)


def _scaled_norm(gram: np.ndarray, r: np.ndarray) -> float:
    """||X diag(r)|| from the Gram matrix X^H X: sqrt of the largest
    eigenvalue of R gram R, which is positive semidefinite, by
    `_hermitian_norm`; 0 if empty."""
    return float(np.sqrt(_hermitian_norm(gram * np.outer(r, r))))


_CCM_GRID_MAX_EXP = 20


class _Spectra:
    """The spectral quantities of one (data, equation, M) that the suites
    share, each computed when a suite first asks for it."""

    def __init__(self, u0, eq: Equation, M: int):
        self.u0, self.eq, self.M = u0, eq, M
        self._eigs: Dict[int, HermitianEig] = {}
        self._resolvents: Dict[int, np.ndarray] = {}

    @classmethod
    def of(cls, spectra: Optional["_Spectra"], u0, eq: Equation, M: int,
           vectors: int = _SANDWICH_VECTORS) -> "_Spectra":
        """spectra if it is the context of (u0, eq, M), a new one of `eq.data(u0, M)`
        if None (TypeError for the other equation's field); first, ValueError for an
        M that would not fit with the `vectors` sandwich vectors the caller draws."""
        _check_memory(M, vectors)
        if spectra is None:
            return cls(eq.data(u0, M), eq, M)
        if spectra.u0 is not u0 or spectra.eq is not eq or spectra.M != M:
            raise ValueError("the spectral context belongs to other data, equation or M")
        return spectra

    @cached_property
    def lax(self) -> LaxMatrix:
        """L_M, read-only: every L_n is its view `truncated(n)`."""
        return self.eq.build_lax(self.u0, self.M)

    @cached_property
    def _gram2(self) -> np.ndarray:
        """G^2 for the CCM Gram block G = A A^H at M, A = mult_matrix(u0, M)."""
        a = mult_matrix(self.u0, self.M)
        gram = a @ a.conj().T
        return gram @ gram  # G is Hermitian: G^2 = G^H G

    @cached_property
    def kappa0(self) -> float:
        """The shift kappa0 making (L_n + kappa) uniformly invertible.

        BO uses the closed form max(12 ||u0||^2, 1).  CCM has no closed form
        and does not depend on the sign, since only the Gram block enters:
        the smallest kappa on the geometric grid {1, 2, ..., 2^20} for which
        the Galerkin perturbation norm ||G_n R0(kappa)|| is <= 1/2 for all n
        <= M is used.  G_n R0 = Pi_n (G_M R0) Pi_n is a compression, so only
        the norm at n = M, the largest, is taken (from `_gram2`).  Either way
        kappa0 >= 1.
        """
        if self.eq.family == "BO":
            return max(12.0 * l2_norm(self.u0) ** 2, 1.0)
        kappa = next((2.0**e for e in range(_CCM_GRID_MAX_EXP + 1) if _scaled_norm(
            self._gram2, 1.0 / (np.arange(self.M) + 2.0**e)) <= 0.5), None)
        # the bound suite takes its norms before it asks for kappa0
        self.__dict__.pop("_gram2", None)
        if kappa is None:
            raise RuntimeError(
                "no kappa0 up to 2^20 tames the CCM perturbation; the data norm is "
                "near or above the focusing threshold -- reduce ||u0||"
            )
        return kappa

    def eig(self, n: int) -> HermitianEig:
        """The decomposition of L_n, with the checks of `eig_hermitian`."""
        if n not in self._eigs:
            self._eigs[n] = eig_hermitian(self.lax.truncated(n))
        return self._eigs[n]

    def resolvent(self, n: int) -> np.ndarray:
        """R_n(kappa0)'s block (B_n + kappa0)^-1, as Q (Lambda + kappa0)^-1 Q^H, read-only."""
        if n not in self._resolvents:
            e = self.eig(n)
            r = (e.eigenvectors / (e.eigenvalues + self.kappa0)) @ e.eigenvectors.conj().T
            r.flags.writeable = False
            self._resolvents[n] = r
        return self._resolvents[n]


def find_kappa_zero(u0, eq: Equation, M: int) -> float:
    """kappa0 of (u0, eq, M) (`_Spectra.kappa0`), a profile sampled at M;
    ValueError unless M >= 4."""
    if M < 4:
        raise ValueError("M must be >= 4")
    return _Spectra(eq.data(u0, M), eq, M).kappa0


def run_bound_suite(
    u0,
    equation: str,
    M: int,
    kappas: Sequence[float],
    ns: Sequence[int],
    n_vectors: int = _SANDWICH_VECTORS,
    seed: int = 0,
    *,
    spectra: Optional[_Spectra] = None,
) -> List[BoundReport]:
    """Evaluate the perturbation, projection and norm-sandwich bounds.

    Emits one report per (bound, n, kappa) cell; failures are reported with
    passed = False, never raised.  The perturbation operators are truncated
    by Pi_n on the right, so only their first n columns are nonzero, and a
    norm of X R0 is taken from the n x n Gram of those columns scaled by R0:
    G[:n, :n] of G = U^H U, or for CCM the kappa-free A_n G[:n, :n] A_n^H,
    which at n = M is the context's G^2.  spectra is the context of a
    `laxflow diagnostics` command; None makes one.  ValueError for a bad
    argument (n_vectors must be an integer >= 1) before any work.
    """
    eq = Equation.named(equation)
    if M < 8:
        raise ValueError("M must be >= 8")
    if not all(np.isfinite(k) and k >= 1 for k in kappas):
        raise ValueError("kappas must be finite and >= 1")
    if not all(0 <= n <= M for n in ns):
        raise ValueError(f"every n must lie in [0, M={M}]")
    if not (_is_integer(n_vectors) and n_vectors >= 1):
        raise ValueError(f"n_vectors must be an integer >= 1, got {n_vectors!r}")
    if not _is_philox_key(seed):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    spectra = _Spectra.of(spectra, u0, eq, M, n_vectors)
    u0 = spectra.u0
    norm_u = l2_norm(u0)
    reports: List[BoundReport] = []

    def report(name, measured, bound, **params):
        params.update(M=M, equation=equation)
        reports.append(BoundReport(name, params, measured, bound))

    U = mult_matrix(u0, M)
    G = U.conj().T @ U
    # for Hardy data the multiplication matrix is the lower-triangular
    # Toeplitz factor A itself; A Pi_n A^H Pi_n has the Gram A_n G_n A_n^H
    cores = ({n: U[:n, :n] @ G[:n, :n] @ U[:n, :n].conj().T for n in ns if n < M}
             | {M: spectra._gram2} if eq.family == "CCM" else {})
    hardy_coeffs = u0.padded(M) if eq.hardy else u0.hardy_part()

    for kappa in kappas:
        r0 = 1.0 / (np.arange(M) + kappa)
        for n in ns:
            # multiplication composed with truncation and the free resolvent
            report("mult-resolvent", _scaled_norm(G[:n, :n], r0[:n]),
                   np.sqrt(3.0) / np.sqrt(kappa) * norm_u, n=n, kappa=kappa)
            if eq.family == "CCM":
                report("gram-resolvent", _scaled_norm(cores[n], r0[:n]), 2.0 * norm_u**2,
                       n=n, kappa=kappa)
            if n >= 1:
                # projection bound: the diagonal maximum is exact; it is
                # zero once the truncation covers the whole window
                report("projection", 1.0 / (n + kappa) if n < M else 0.0, 1.0 / n,
                       n=n, kappa=kappa)

    if eq.family == "CCM":
        # decay of the Gram-resolvent operator norm as kappa grows (to 10^4)
        big_kappa = 1.0e4
        report("gram-resolvent-decay", _scaled_norm(cores[M], 1.0 / (np.arange(M) + big_kappa)),
               0.1 * 2.0 * norm_u**2, n=M, kappa=big_kappa)
    del U, G, cores  # freed before the kappa0 search and the decompositions

    # Hardy-inequality check on the nonnegative modes
    cum = np.cumsum(np.abs(hardy_coeffs)) / (np.arange(len(hardy_coeffs)) + 1.0)
    report("hardy", float(np.linalg.norm(cum)), 2.0 * norm_u)

    # norm sandwich and its dual at kappa = kappa0, then semi-boundedness:
    # the smallest eigenvalue dominated by -kappa0.  L_n + kappa0 is the
    # block B_n + kappa0 and the tail diag(j + kappa0)
    kappa0 = spectra.kappa0
    block = spectra.lax.block
    F = _random_unit_vectors(M, n_vectors, seed)
    d1 = (np.arange(M) + kappa0)[:, None]
    h1, hm1 = np.linalg.norm(d1 * F, axis=0), np.linalg.norm(F / d1, axis=0)
    lam_mins = {}
    for n in sorted({1, M // 2, M}):
        # L_n's smallest eigenvalue: the block's, or the tail's n if smaller
        lam_mins[n] = float(np.min(spectra.eig(n).eigenvalues, initial=n if n < M else np.inf))
        lf = np.linalg.norm(np.concatenate([(block[:n, :n] + kappa0 * np.eye(n)) @ F[:n],
                                            d1[n:] * F[n:]]), axis=0)
        rf = np.linalg.norm(np.concatenate([spectra.resolvent(n) @ F[:n], F[n:] / d1[n:]]),
                            axis=0)
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

    passed = BoundReport.passed


def run_resolvent_convergence(u0, equation: str, M: int, *,
                              spectra: Optional[_Spectra] = None) -> List[ResolventRow]:
    """Measure ||R_n(kappa0) - R_M(kappa0)||, L_n sliced from L_M, against 1/n bounds.

    R_n = Q (Lambda + kappa0)^-1 Q^H from L_n's decomposition on the block,
    plus diag(1/(j + kappa0)) on the tail; R_n - R_M is Hermitian, so its
    norm is its largest |eigenvalue| (`_hermitian_norm`, Lanczos at M > 64).
    spectra is the context of a `laxflow diagnostics` command; None makes
    one.
    """
    eq = Equation.named(equation)
    if M < 32 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 32")
    spectra = _Spectra.of(spectra, u0, eq, M)
    kappa = spectra.kappa0
    norm_u = l2_norm(spectra.u0)
    r_full = spectra.resolvent(M)
    r_tail = 1.0 / (np.arange(M) + kappa)
    rows = []
    for n in [2**e for e in range(1, int(math.log2(M)))]:  # 2, 4, ..., M/2
        diff = -r_full
        diff[:n, :n] += spectra.resolvent(n)
        diff.flat[n * (M + 1) :: M + 1] += r_tail[n:]
        measured = _hermitian_norm(diff)
        if eq.family == "BO":
            bound = 8.0 * np.sqrt(3.0) / (n * np.sqrt(kappa)) * norm_u
        else:
            # chained from the CCM resolvent-identity proof constants
            bound = 16.0 * norm_u**2 / n
        rows.append(ResolventRow(n, measured, bound))
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

    @property
    def monotone(self) -> bool:
        """The error does not grow with K, within 1e-12; a NaN error fails."""
        return all(b.error <= a.error + 1e-12 for a, b in zip(self.rows, self.rows[1:]))


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
    u0,
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
    constant schedule; all runs share the same initial data, `Equation.data`
    at bandwidth K_ref.
    """
    eq = Equation.named(equation)
    Ks = list(Ks)
    if any(b <= a for a, b in zip(Ks, Ks[1:])):
        raise ValueError("Ks must be strictly increasing")
    if K_ref < 4 * max(Ks):
        raise ValueError("K_ref must be >= 4 * max(Ks)")
    if grid_points < 11:
        raise ValueError("grid_points must be >= 11")
    schedules = [make_schedule(schedule_kind, K) for K in Ks]  # before any run
    times = _time_grid(T, grid_points)
    u0 = eq.data(u0, K_ref)

    ref_cfg = SchemeConfig(equation, make_schedule("constant", K_ref), times, u0)
    try:
        ref = run_scheme(ref_cfg)
    except RuntimeError as exc:  # a config error of the data stays one
        raise RuntimeError(f"reference run at K_ref={K_ref} failed: {exc}") from exc

    rows = []
    for schedule in schedules:
        out = run_scheme(SchemeConfig(equation, schedule, times, u0))
        err, nd = _per_time_errors(out, ref)
        rows.append(
            ConvergenceRow(schedule.K, schedule_kind, float(np.max(err)), float(np.max(nd)),
                           out.decompositions)
        )
    table = ConvergenceTable(rows, K_ref, T, equation)
    if check and not table.monotone:
        raise RuntimeError("error not non-increasing: "
                           + ", ".join(f"K={r.K} -> {r.error:.3e}" for r in rows))
    return table


def fit_rate(table: ConvergenceTable) -> Optional[float]:
    """Least-squares slope of log(error) against log(K) over the positive
    errors; None when fewer than two are positive.  ValueError for a table
    of fewer than 4 rows."""
    if len(table.rows) < 4:
        raise ValueError("need at least 4 rows to fit a rate")
    pts = [(r.K, r.error) for r in table.rows if r.error > 0.0]
    if len(pts) < 2:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def run_propagator_sweep(u0, equation: str, M: int, T: float, *,
                         spectra: Optional[_Spectra] = None) -> List[Tuple[int, float]]:
    """sup over t in [-T, T] (21 points) and a fixed vector family of
    ||(e^{itL_n} - e^{itL_M}) f||, for n = 4, 8, ..., M/2.  The family is
    the first 8 unit vectors and 8 random unit vectors (seeds 0..7).

    Each L_n is decomposed once through `eig_hermitian` (its n x n block
    only, with that call's checks) by the spectral context: spectra, a
    `laxflow diagnostics` command's, or a new one when None.  e^{i (t/2)(I
    + 2 L_n)} = e^{it/2} e^{itL_n} is applied through one Q^H F[:n] per n,
    then one time at a time: at each time the reference and each n's
    evolution, M x 16, are that product phased and taken back by Q, the
    tail phased elementwise; the global phase cancels in the difference.
    Raises RuntimeError when a phase t lambda overflows.
    """
    eq = Equation.named(equation)
    if M < 64 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 64")
    tgrid = _time_grid(T, 21)
    spectra = _Spectra.of(spectra, u0, eq, M)
    F = np.hstack([np.eye(M, 8, dtype=np.complex128)]
                  + [_random_unit_vectors(M, 1, s) for s in range(8)])

    def evolve(n):
        """F evolved by L_n at each time in turn: Q^H F[:n] once, then one
        M x 16 array a time."""
        e = spectra.eig(n)
        try:
            # L_n's eigenvalues: the block's, then the tail's n..M-1
            rates = 1.0 + 2.0 * np.concatenate([e.eigenvalues, np.arange(n, M)])
            phases = _phases(rates, tgrid / 2, 1)
        except ValueError as exc:
            raise RuntimeError("propagator sweep error is not finite") from exc
        q, qf = e.eigenvectors, e.eigenvectors.conj().T @ F[:n]
        for i in range(len(tgrid)):
            out = phases[:, i, None] * F
            out[:n] = q @ (phases[:n, i, None] * qf)
            yield out

    sizes = [2**e for e in range(2, int(math.log2(M)))]  # 4, 8, ..., M/2
    errors = np.zeros(len(sizes))
    # zip takes L_M's evolution first, then each n's, one time at a time
    for ref, *outs in zip(evolve(M), *map(evolve, sizes)):
        # np.maximum keeps a NaN error
        errors = np.maximum(errors, [np.max(np.linalg.norm(o - ref, axis=0)) for o in outs])
    rows = [(n, float(err)) for n, err in zip(sizes, errors)]
    if rows and rows[-1][1] > rows[0][1] + 1e-12:
        raise RuntimeError("propagator error failed to decrease from n=4 to n=M/2")
    return rows
