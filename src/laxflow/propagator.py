"""Hermitian eigendecomposition and exact-in-time unitary groups.

Because the Lax matrices are Hermitian, e^{i alpha t (I + 2 L)} is computed
through the spectral decomposition L = Q diag(lambda) Q^H once per distinct
truncation parameter.  A run of r scheme steps sharing one decomposition then
costs, for an M x T block of iterates, one product W = Q^H S* Q plus one
M x M by M x T product per step in the eigenbasis, or, for short runs, two
such products per step in the standard basis.  All eigenvalues are real, so
|phase| = 1 for every t and the evolution is unconditionally stable in time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from .lax import LaxMatrix, hermitian_defect
from .spectral import HardyVector, RealSpectrum, l2_norm

__all__ = [
    "HermitianEig",
    "PropagatorCache",
    "KappaZero",
    "eig_hermitian",
    "apply_group",
    "apply_group_many",
    "advance",
    "get_or_build",
    "find_kappa_zero",
]

_RECON_TOL = 1e-10


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition L = Q diag(eigenvalues) Q^H, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: Tuple  # (equation, sign, n, M, data_digest)

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=np.float64)
        q = np.array(self.eigenvectors, dtype=np.complex128)
        lam.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", q)

    @property
    def M(self) -> int:
        return len(self.eigenvalues)


def eig_hermitian(m: LaxMatrix) -> HermitianEig:
    """Diagonalize a Lax matrix, canonicalizing order and phases.

    Columns are sorted by ascending eigenvalue and each eigenvector is
    rotated so its largest-magnitude component is real positive, making the
    result a deterministic function of the input matrix.
    """
    defect = hermitian_defect(m)
    if defect != 0.0:
        raise ValueError(f"matrix is not exactly Hermitian (defect {defect:g})")
    try:
        lam, q = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed for {m.equation} Lax matrix "
            f"(n={m.n}, M={m.M})"
        ) from exc

    # canonical phases: largest-magnitude entry of each column real positive
    idx = np.argmax(np.abs(q), axis=0)
    lead = q[idx, np.arange(q.shape[1])]
    q = q * np.conj(lead / np.abs(lead))

    scale = 1.0 + float(np.max(np.abs(m.entries))) if m.entries.size else 1.0
    recon = (q * lam) @ q.conj().T
    if np.max(np.abs(recon - m.entries)) > _RECON_TOL * scale:
        raise RuntimeError(
            f"eigendecomposition residual too large for {m.equation} "
            f"(n={m.n}, M={m.M})"
        )
    ortho = q.conj().T @ q - np.eye(m.M)
    if np.max(np.abs(ortho)) > _RECON_TOL:
        raise RuntimeError(
            f"eigenvectors lost orthonormality for {m.equation} "
            f"(n={m.n}, M={m.M})"
        )
    return HermitianEig(lam, q, m.cache_key)


def apply_group(e: HermitianEig, t: float, alpha: int, v) -> np.ndarray:
    """Apply e^{i alpha t (I + 2 L)} to a coefficient vector.

    alpha = +1 for the BO scheme, -1 for CCM.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (e.M,):
        raise ValueError(f"vector length {v.shape} incompatible with M={e.M}")
    phases = np.exp(1j * alpha * t * (1.0 + 2.0 * e.eigenvalues))
    q = e.eigenvectors
    return q @ (phases * (q.conj().T @ v))


def apply_group_many(e: HermitianEig, ts, alpha: int, V: np.ndarray) -> np.ndarray:
    """Apply the group at several times at once; column j of V evolves by ts[j]."""
    ts = np.asarray(ts, dtype=np.float64)
    if V.shape != (e.M, len(ts)):
        raise ValueError("V must be (M, len(ts))")
    phases = np.exp(1j * alpha * np.outer(1.0 + 2.0 * e.eigenvalues, ts))
    q = e.eigenvectors
    return q @ (phases * (q.conj().T @ V))


def advance(e: HermitianEig, ts, alpha: int, V: np.ndarray, steps: int):
    """Take `steps` scheme steps V <- e^{i alpha t (I + 2 L)} S* V on one decomposition.

    Column j of V evolves by ts[j].  Returns (rows, V): rows[:, s] is the
    zero mode of the iterate after step s + 1, shape (len(ts), steps), and V
    is the last iterate in the standard basis.

    The standard basis costs 16 M^2 T flops a step; the eigenbasis, where a
    step is w <- phases * (W w) with W = Q^H S* Q, costs 8 M^3 + 8 M^2 T
    (steps + 2) in all.  The cheaper one is taken: the eigenbasis iff
    T (steps - 2) > M.
    """
    ts = np.asarray(ts, dtype=np.float64)
    M, T = e.M, len(ts)
    if V.shape != (M, T):
        raise ValueError("V must be (M, len(ts))")
    phases = np.exp(1j * alpha * np.outer(1.0 + 2.0 * e.eigenvalues, ts))
    q = e.eigenvectors
    qh = q.conj().T
    rows = np.empty((T, steps), dtype=np.complex128)
    if T * (steps - 2) > M:
        # S* Q is Q shifted up one row with a zero last row, so Q^H S* Q
        # needs no shifted copy
        w_op = qh[:, :-1] @ q[1:]
        w = qh @ V
        for s in range(steps):
            w = phases * (w_op @ w)
            rows[:, s] = q[0] @ w
        return rows, q @ w
    for s in range(steps):
        V = q @ (phases * (qh[:, :-1] @ V[1:]))
        rows[:, s] = V[0]
    return rows, V


@dataclass
class PropagatorCache:
    """At-most-once eigendecomposition per (equation, sign, n, M, digest)."""

    _store: Dict[Tuple, HermitianEig] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    decompositions: int = 0
    hits: int = 0

    def get_or_build(self, key: Tuple, factory: Callable[[], LaxMatrix]) -> HermitianEig:
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        # build outside the lock; duplicate builds are deterministic, so
        # whichever result lands first may be kept
        built = eig_hermitian(factory())
        with self._lock:
            existing = self._store.setdefault(key, built)
            if existing is built:
                self.decompositions += 1
            else:
                self.hits += 1
            return existing


def get_or_build(cache: PropagatorCache, key: Tuple, factory) -> HermitianEig:
    return cache.get_or_build(key, factory)


@dataclass(frozen=True)
class KappaZero:
    """Resolvent shift beyond which the Lax perturbation is dominated."""

    equation: str
    value: float
    method: str  # "formula" (BO) or "search" (CCM)

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("kappa0 must be >= 1")


_CCM_GRID_MAX_EXP = 20


def _ccm_perturbation_norms(u0: HardyVector, M: int, kappa: float, ns) -> float:
    """Largest singular value of G_n R0(kappa) over the given truncations."""
    import scipy.linalg

    col = u0.padded(M)
    a = scipy.linalg.toeplitz(col, np.zeros(M, dtype=np.complex128))
    r0 = 1.0 / (np.arange(M) + kappa)
    worst = 0.0
    for n in ns:
        g = np.zeros((M, M), dtype=np.complex128)
        if n > 0:
            an = a[:n, :n]
            g[:n, :n] = an @ an.conj().T
        sv = np.linalg.norm(g * r0, ord=2)
        worst = max(worst, sv)
    return worst


def find_kappa_zero(u0, equation: str, M: int) -> KappaZero:
    """Determine the shift kappa0 making (L_n + kappa) uniformly invertible.

    BO uses the closed form max(12 ||u0||^2, 1).  CCM has no closed form;
    the smallest kappa on the geometric grid {1, 2, ..., 2^20} for which
    the Galerkin perturbation norm is <= 1/2 at n in {1, M/2, M} is used.
    """
    if M < 4:
        raise ValueError("M must be >= 4")
    if equation == "BO":
        if not isinstance(u0, RealSpectrum):
            raise TypeError("BO data must be a RealSpectrum")
        value = max(12.0 * l2_norm(u0) ** 2, 1.0)
        return KappaZero("BO", value, "formula")
    if equation != "CCM":
        raise ValueError("equation must be 'BO' or 'CCM'")
    if not isinstance(u0, HardyVector):
        raise TypeError("CCM data must be a HardyVector")
    ns = (1, M // 2, M)
    for e in range(_CCM_GRID_MAX_EXP + 1):
        kappa = float(2**e)
        if _ccm_perturbation_norms(u0, M, kappa, ns) <= 0.5:
            return KappaZero("CCM", kappa, "search")
    raise RuntimeError(
        "no kappa0 up to 2^20 tames the CCM perturbation; the data norm is "
        "near or above the focusing threshold -- reduce ||u0||"
    )
