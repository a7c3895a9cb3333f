"""Operator-bound suites, resolvent/propagator convergence, and the
convergence study against a high-resolution reference run.

Operator norms are evaluated at the Galerkin level: multiplication by the
data is embedded as a finite matrix on the frequency window [0, M).  The
restriction can only shrink an operator norm, so the continuum upper bounds
remain valid assertions for the measured values.

No norm takes an SVD or a full eigenvalue decomposition: an operator norm
is sqrt(lambda_max) of the smaller Gram matrix, and the norm of a
Hermitian difference its largest |lambda|, each by Lanczos from a seeded
start vector (`_hermitian_norm`, a few dozen matrix-vector products).  It
stops when the dominant Ritz value theta's residual r is at most
8 u sqrt(n) |theta| and returns |theta| + r, an upper bound on the
eigenvalue theta converged to; it misses the largest only for a start
nearly orthogonal to its eigenvector.  No dense M x M Lax matrix is
formed: each L_n acts as its n x n block and, elementwise, its diagonal
tail diag(n..M-1).

The three Lax-operator suites read one spectral context per (data,
equation, M), `_Spectra`, which computes each quantity when a suite first
asks for it: the build of L_M, of which every L_n is a slice; kappa0, the
one implementation of the shift (`find_kappa_zero` reads it); for CCM,
G^2 = (A A^H)^2 and the norms ||G R0(kappa)|| at n = M, which the kappa0
search and the bound suite share; and one decomposition of each L_n,
which gives the semibound's smallest eigenvalue, the resolvent
R_n(kappa0) = Q (Lambda + kappa0)^-1 Q^H and the sweep's groups.
`laxflow diagnostics` passes one context to all three suites; called
alone, each suite makes its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import scheme
from .lax import Equation, LaxMatrix, mult_matrix
from .propagator import HermitianEig, _phases, eig_hermitian
from .scheme import SchemeConfig, SchemeOutput, make_schedule, run_scheme
from .spectral import (
    HardyVector,
    InitialProfile,
    RealSpectrum,
    _is_philox_key,
    analyze_profile,
    l2_norm,
)

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
    """points equispaced times on [-T, T]; ValueError unless 2T is finite."""
    # a Python float: 2 * np.float64(1e308) would overflow with a warning
    if not math.isfinite(2.0 * float(T)):
        raise ValueError(f"T and the width 2T of [-T, T] must be finite; got {T!r}")
    return np.linspace(-T, T, points)


# M x M complex arrays a diagnostics command holds at once, at its peak, the
# bound suite's decomposition of L_M: L_M, q, q^H, q diag(lambda) and their
# product (5.9 and 5.5 by tracemalloc at M = 512 and 1024), or L_M, q and the
# copy and workspace of `eigh`; a Lanczos basis holds a few dozen vectors
_HELD_ARRAYS = 6


def _check_memory(M: int) -> None:
    """ValueError when the arrays a diagnostics command at M holds at once
    exceed the memory the process may use (`scheme._physical_memory`)."""
    need, have = 16 * _HELD_ARRAYS * M**2, scheme._physical_memory()
    if need > have:
        raise ValueError(f"diagnostics at M={M} needs at least {need / 2**30:.3g} GiB at once, "
                         f"more than the {have / 2**30:.3g} GiB of physical memory or "
                         f"cgroup limit")


def _random_unit_vectors(M: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((M, count)) + 1j * rng.standard_normal((M, count))
    return z / np.linalg.norm(z, axis=0)


_LANCZOS_SEED = 0x1A2  # Philox key of the start vector
_LANCZOS_CHECK = 6  # Lanczos steps between looks at the tridiagonal


def _hermitian_norm(a: np.ndarray) -> float:
    """max |lambda| of a Hermitian matrix, by Lanczos with full reorthogonalization.

    The start vector is a fixed Philox-seeded complex Gaussian, so equal
    inputs give equal floats.  Every few steps the extreme eigenpairs
    (theta, s) of the k x k tridiagonal give Ritz values with residuals
    r = beta_k |s_k|, and each end holds an eigenvalue of a within r of its
    theta.  The run stops when the dominant end's r is at most
    8 u sqrt(n) |theta| and the other end's |theta| + r is no larger, and
    returns the dominant |theta| + r, an upper bound on the eigenvalue theta
    converged to.  beta_k = 0 is an invariant subspace, exact; at most n
    steps are taken.  It fails only when the start vector is nearly
    orthogonal to the dominant eigenvector (a component below delta has
    probability about n delta^2; Kuczynski and Wozniakowski, SIAM J. Matrix
    Anal. Appl. 13, 1992, bound the error after k steps): it then converges
    to a smaller eigenvalue.  The basis grows with the steps, a few dozen
    vectors in practice.
    """
    n = len(a)
    if n == 0:
        return 0.0
    rng = np.random.Generator(np.random.Philox(key=_LANCZOS_SEED))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis = np.empty((min(n, _LANCZOS_CHECK), n), np.complex128)
    basis[0] = v / np.linalg.norm(v)
    w = a @ basis[0]
    # the run takes a / scale, a power of two near |a| (1 for a v = 0), so
    # the rescaling is exact and no square in a norm underflows or overflows
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(w)))[1])
    alpha, beta = np.zeros(n), np.zeros(n)
    tol = 8.0 * _U * np.sqrt(n)
    for k in range(1, n + 1):
        w /= scale
        alpha[k - 1] = np.vdot(basis[k - 1], w).real
        w -= alpha[k - 1] * basis[k - 1]
        if k > 1:
            w -= beta[k - 2] * basis[k - 2]
        w -= (basis[:k] @ w.conj()).conj() @ basis[:k]
        beta[k - 1] = np.linalg.norm(w)
        last = k == n or beta[k - 1] == 0.0
        if last or k % _LANCZOS_CHECK == 0:
            # complex like every other eigh here: the real LAPACK path raised
            # the peak RSS of 60 diagnostics commands in one process by 0.6 MiB
            t = np.diag(alpha[:k] + 0j) + np.diag(beta[:k - 1], 1) + np.diag(beta[:k - 1], -1)
            theta, s = np.linalg.eigh(t)
            ends = np.abs(theta[[0, -1]])
            r = beta[k - 1] * np.abs(s[-1, [0, -1]])
            d = int(ends[1] >= ends[0])
            if last or (r[d] <= tol * ends[d] and ends[1 - d] + r[1 - d] <= ends[d]):
                return float(np.max(ends + r) * scale)
        if k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis[:min(k, n - k)])])
        basis[k] = w / beta[k - 1]
        w = a @ basis[k]


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
        self._gram_norms: Dict[float, float] = {}
        self._eigs: Dict[int, HermitianEig] = {}

    @classmethod
    def of(cls, spectra: Optional["_Spectra"], u0, eq: Equation, M: int) -> "_Spectra":
        """spectra if it is the context of (u0, eq, M), a new context if None."""
        if spectra is None:
            return cls(u0, eq, M)
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
        del a  # freed before the product
        return gram @ gram  # G is Hermitian: G^2 = G^H G

    def gram_norm(self, kappa: float) -> float:
        """||G R0(kappa)|| at n = M for the CCM Gram block G, from G^2."""
        if kappa not in self._gram_norms:
            self._gram_norms[kappa] = _scaled_norm(self._gram2,
                                                   1.0 / (np.arange(self.M) + kappa))
        return self._gram_norms[kappa]

    @cached_property
    def kappa0(self) -> float:
        """The shift kappa0 making (L_n + kappa) uniformly invertible.

        BO uses the closed form max(12 ||u0||^2, 1).  CCM has no closed form
        and does not depend on the sign, since only the Gram block enters:
        the smallest kappa on the geometric grid {1, 2, ..., 2^20} for which
        the Galerkin perturbation norm ||G_n R0(kappa)|| is <= 1/2 for all n
        <= M is used.  G_n R0 = Pi_n (G_M R0) Pi_n is a compression, so only
        the norm at n = M, the largest, is taken (`gram_norm`).  Either way
        kappa0 >= 1.
        """
        if self.eq.family == "BO":
            if not isinstance(self.u0, RealSpectrum):
                raise TypeError("BO data must be a RealSpectrum")
            return max(12.0 * l2_norm(self.u0) ** 2, 1.0)
        if not isinstance(self.u0, HardyVector):
            raise TypeError("CCM data must be a HardyVector")
        kappa = next((2.0**e for e in range(_CCM_GRID_MAX_EXP + 1)
                      if self.gram_norm(2.0**e) <= 0.5), None)
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
        """R_n(kappa0)'s block (B_n + kappa0)^-1, as Q (Lambda + kappa0)^-1 Q^H."""
        e = self.eig(n)
        q = e.eigenvectors
        return (q / (e.eigenvalues + self.kappa0)) @ q.conj().T


def find_kappa_zero(u0, eq: Equation, M: int) -> float:
    """kappa0 of (u0, eq, M) (`_Spectra.kappa0`); ValueError unless M >= 4."""
    if M < 4:
        raise ValueError("M must be >= 4")
    return _Spectra(u0, eq, M).kappa0


def run_bound_suite(
    u0,
    equation: str,
    M: int,
    kappas: Sequence[float],
    ns: Sequence[int],
    n_vectors: int = 200,
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
    `laxflow diagnostics` command; None makes one.
    """
    eq = Equation.named(equation)
    if M < 8:
        raise ValueError("M must be >= 8")
    if not all(np.isfinite(k) and k >= 1 for k in kappas):
        raise ValueError("kappas must be finite and >= 1")
    if not all(0 <= n <= M for n in ns):
        raise ValueError(f"every n must lie in [0, M={M}]")
    if not _is_philox_key(seed):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    spectra = _Spectra.of(spectra, u0, eq, M)
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
             if eq.family == "CCM" else {})
    hardy_coeffs = u0.hardy_part() if isinstance(u0, RealSpectrum) else u0.padded(M)

    for kappa in kappas:
        r0 = 1.0 / (np.arange(M) + kappa)
        for n in ns:
            # multiplication composed with truncation and the free resolvent
            report("mult-resolvent", _scaled_norm(G[:n, :n], r0[:n]),
                   np.sqrt(3.0) / np.sqrt(kappa) * norm_u, n=n, kappa=kappa)
            if eq.family == "CCM":
                report("gram-resolvent",
                       spectra.gram_norm(kappa) if n == M else _scaled_norm(cores[n], r0[:n]),
                       2.0 * norm_u**2, n=n, kappa=kappa)
            if n >= 1:
                # projection bound: the diagonal maximum is exact; it is
                # zero once the truncation covers the whole window
                report("projection", 1.0 / (n + kappa) if n < M else 0.0, 1.0 / n,
                       n=n, kappa=kappa)

    if eq.family == "CCM":
        # decay of the Gram-resolvent operator norm as kappa grows (to 10^4)
        big_kappa = 1.0e4
        report("gram-resolvent-decay", spectra.gram_norm(big_kappa), 0.1 * 2.0 * norm_u**2,
               n=M, kappa=big_kappa)
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
    norm is its largest |eigenvalue|, by Lanczos (`_hermitian_norm`).
    spectra is the context of a `laxflow diagnostics` command; None makes
    one.
    """
    eq = Equation.named(equation)
    if M < 32 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 32")
    spectra = _Spectra.of(spectra, u0, eq, M)
    kappa = spectra.kappa0
    norm_u = l2_norm(u0)
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


def run_propagator_sweep(u0, equation: str, M: int, T: float, *,
                         spectra: Optional[_Spectra] = None) -> List[Tuple[int, float]]:
    """sup over t in [-T, T] (21 points) and a fixed vector family of
    ||(e^{itL_n} - e^{itL_M}) f||, for n = 4, 8, ..., M/2.  The family is
    the first 8 unit vectors and 8 random unit vectors (seeds 0..7).

    Each L_n is decomposed once through `eig_hermitian` (its n x n block
    only, with that call's checks) by the spectral context: spectra, a
    `laxflow diagnostics` command's, or a new one when None.  e^{i (t/2)(I
    + 2 L_n)} = e^{it/2} e^{itL_n} is applied at all 21 times through one
    Q^H F[:n], phased per time and taken back by one batched product with
    Q, the tail phased elementwise; the global phase cancels in the
    difference.  Raises RuntimeError when a phase t lambda overflows.
    """
    eq = Equation.named(equation)
    if M < 64 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 64")
    tgrid = _time_grid(T, 21)
    spectra = _Spectra.of(spectra, u0, eq, M)
    F = np.hstack([np.eye(M, 8, dtype=np.complex128)]
                  + [_random_unit_vectors(M, 1, s) for s in range(8)])

    def evolve(n):
        e = spectra.eig(n)
        try:
            # L_n's eigenvalues: the block's, then the tail's n..M-1
            rates = 1.0 + 2.0 * np.concatenate([e.eigenvalues, np.arange(n, M)])
            phases = _phases(rates, tgrid / 2, 1).T[:, :, None]  # (times, M, 1)
        except ValueError as exc:
            raise RuntimeError("propagator sweep error is not finite") from exc
        q = e.eigenvectors
        out = phases * F
        out[:, :n] = q @ (phases[:, :n] * (q.conj().T @ F[:n]))
        return out

    ref = evolve(M)
    rows = []
    for n in [2**e for e in range(2, int(math.log2(M)))]:  # 4, 8, ..., M/2
        rows.append((n, float(np.max(np.linalg.norm(evolve(n) - ref, axis=1)))))
    if rows and rows[-1][1] > rows[0][1] + 1e-12:
        raise RuntimeError("propagator error failed to decrease from n=4 to n=M/2")
    return rows
