"""Hermitian eigendecomposition and exact-in-time unitary groups.

Because the Lax matrices are Hermitian, e^{i alpha t (I + 2 L)} is computed
through the spectral decomposition L = Q diag(lambda) Q^H once per distinct
truncation parameter n.  Only the dense n x n block is decomposed, at
O(n^3); the tail diag(n..M-1) is already diagonal, so on those rows the
group is the elementwise phase e^{i alpha t (1 + 2j)}.  A run of r scheme
steps sharing one decomposition then costs, for an M x T block of iterates,
one product W = Q^H S* Q plus one n x n by n x T product per step in the
eigenbasis, or, for short runs, two such products per step in the standard
basis; the tail is shifted and phased elementwise either way.  All
eigenvalues are real, so |phase| = 1 for every t and the evolution is
unconditionally stable in time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np
import scipy.linalg

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
    "find_kappa_zero",
]

_RECON_TOL = 1e-10


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a block-plus-tail Lax matrix.

    eigenvectors is the n x n matrix Q with block = Q diag(lambda) Q^H;
    eigenvalues holds all M eigenvalues: the block's, ascending, then the
    tail's n..M-1, whose eigenvectors are the unit vectors e_n..e_{M-1}.
    """

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

    @property
    def n(self) -> int:
        return len(self.eigenvectors)

    def phases(self, ts, alpha: int) -> np.ndarray:
        """e^{i alpha t (1 + 2 lambda)}, shape (M, len(ts))."""
        return np.exp(1j * alpha * np.outer(1.0 + 2.0 * self.eigenvalues, ts))


def eig_hermitian(m: LaxMatrix) -> HermitianEig:
    """Diagonalize the block of a Lax matrix, canonicalizing order and phases.

    Columns are sorted by ascending eigenvalue and each eigenvector is
    rotated so its largest-magnitude component is real positive, making the
    result a deterministic function of the input matrix.  The tail is exact,
    so the Hermitian, reconstruction and orthonormality checks on the block
    are the checks on the whole matrix.
    """
    defect = hermitian_defect(m)
    if defect != 0.0:
        raise ValueError(f"matrix is not exactly Hermitian (defect {defect:g})")
    block = m.block
    try:
        lam, q = np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed for {m.equation} Lax matrix "
            f"(n={m.n}, M={m.M})"
        ) from exc

    # canonical phases: largest-magnitude entry of each column real positive
    if m.n:
        idx = np.argmax(np.abs(q), axis=0)
        lead = q[idx, np.arange(m.n)]
        q = q * np.conj(lead / np.abs(lead))

    tail = np.arange(m.n, m.M, dtype=np.float64)
    # the largest entry of the whole matrix, tail included
    scale = 1.0 + max(float(np.max(np.abs(block), initial=0.0)),
                      float(np.max(tail, initial=0.0)))
    recon = (q * lam) @ q.conj().T
    if np.max(np.abs(recon - block), initial=0.0) > _RECON_TOL * scale:
        raise RuntimeError(
            f"eigendecomposition residual too large for {m.equation} "
            f"(n={m.n}, M={m.M})"
        )
    ortho = q.conj().T @ q - np.eye(m.n)
    if np.max(np.abs(ortho), initial=0.0) > _RECON_TOL:
        raise RuntimeError(
            f"eigenvectors lost orthonormality for {m.equation} "
            f"(n={m.n}, M={m.M})"
        )
    return HermitianEig(np.concatenate([lam, tail]), q, m.cache_key)


def apply_group(e: HermitianEig, t: float, alpha: int, v) -> np.ndarray:
    """Apply e^{i alpha t (I + 2 L)} to a coefficient vector.

    alpha = +1 for the BO scheme, -1 for CCM.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (e.M,):
        raise ValueError(f"vector length {v.shape} incompatible with M={e.M}")
    return apply_group_many(e, [t], alpha, v[:, None])[:, 0]


def apply_group_many(e: HermitianEig, ts, alpha: int, V) -> np.ndarray:
    """Apply the group at several times at once; column j of V evolves by ts[j]."""
    ts = np.asarray(ts, dtype=np.float64)
    V = np.asarray(V, dtype=np.complex128)
    if V.shape != (e.M, len(ts)):
        raise ValueError("V must be (M, len(ts))")
    n, q = e.n, e.eigenvectors
    phases = e.phases(ts, alpha)
    out = phases * V
    out[:n] = q @ (phases[:n] * (q.conj().T @ V[:n]))
    return out


def _shift_tail(blk: np.ndarray, X: np.ndarray, n: int) -> np.ndarray:
    """[blk; X[n+1:]; 0]: new block rows, then the tail rows of S* X (n < M)."""
    out = np.empty_like(X)
    out[:n] = blk
    out[n:-1] = X[n + 1 :]
    out[-1] = 0.0
    return out


def advance(e: HermitianEig, ts, alpha: int, V: np.ndarray, steps: int):
    """Take `steps` scheme steps V <- e^{i alpha t (I + 2 L)} S* V on one decomposition.

    Column j of V evolves by ts[j].  Returns (rows, V): rows[:, s] is the
    zero mode of the iterate after step s + 1, shape (len(ts), steps), and V
    is the last iterate in the standard basis.

    The tail rows n..M-1 are shifted and phased elementwise.  On the block
    the standard basis costs 16 n^2 T flops a step; the eigenbasis, where the
    block rows hold w = Q^H V[:n] and a step is w <- phases * (W w + c v_n)
    with W = Q^H S* Q and c = Q^H e_{n-1} taking in the first tail row v_n,
    costs 8 n^3 + 8 n^2 T (steps + 2) in all.  The cheaper one is taken: the
    eigenbasis iff T (steps - 2) > n.  With n = 0 a step is pure phases.
    """
    ts = np.asarray(ts, dtype=np.float64)
    M, n, T = e.M, e.n, len(ts)
    if V.shape != (M, T):
        raise ValueError("V must be (M, len(ts))")
    phases = e.phases(ts, alpha)
    q = e.eigenvectors
    qh = q.conj().T
    # rows of V that feed the block through S*: 1..n, or 1..M-1 if there is no tail
    b = min(n + 1, M)
    rows = np.empty((T, steps), dtype=np.complex128)
    if n and T * (steps - 2) > n:
        # S* Q is Q shifted up one row with a zero last row, so Q^H S* Q
        # needs no shifted copy
        w_op = qh[:, :-1] @ q[1:]
        if n < M:
            # the first tail row shifts into block row n - 1: column Q^H e_{n-1}
            w_op = np.hstack([w_op, qh[:, -1:]])
            X = np.concatenate([qh @ V[:n], V[n:]])
        else:
            X = qh @ V
        for s in range(steps):
            blk = w_op @ X[:b]
            X = blk if n == M else _shift_tail(blk, X, n)
            X *= phases
            rows[:, s] = q[0] @ X[:n]
        if n == M:
            return rows, q @ X
        X[:n] = q @ X[:n]
        return rows, X
    pb, pt = phases[:n], phases[n:]
    for s in range(steps):
        blk = q @ (pb * (qh[:, : b - 1] @ V[1:b]))
        if n == M:
            V = blk
        else:
            V = _shift_tail(blk, V, n)
            V[n:] *= pt
        rows[:, s] = V[0]
    return rows, V


@dataclass
class PropagatorCache:
    """At-most-once eigendecomposition per (equation, sign, n, M, digest)."""

    _store: Dict[Tuple, HermitianEig] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    decompositions: int = 0
    hits: int = 0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the cached decompositions: 16 n^2 + 8 M each."""
        with self._lock:
            entries = list(self._store.values())
        return sum(e.eigenvalues.nbytes + e.eigenvectors.nbytes for e in entries)

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


def _ccm_gram_blocks(u0: HardyVector, ns) -> list:
    """The n x n Gram blocks A_n A_n^H, A_n lower-triangular Toeplitz of u0."""
    blocks = []
    for n in ns:
        an = scipy.linalg.toeplitz(u0.padded(n), np.zeros(n, dtype=np.complex128))
        blocks.append(an @ an.conj().T)
    return blocks


def _ccm_perturbation_norm(blocks, kappa: float) -> float:
    """Largest singular value of G_n R0(kappa) over the Gram blocks.

    G_n R0(kappa) vanishes outside its n x n block, so the block's norm is
    the whole operator's.
    """
    worst = 0.0
    for g in blocks:
        r0 = 1.0 / (np.arange(len(g)) + kappa)
        worst = max(worst, float(np.linalg.norm(g * r0, ord=2)))
    return worst


def find_kappa_zero(u0, equation: str, M: int) -> KappaZero:
    """Determine the shift kappa0 making (L_n + kappa) uniformly invertible.

    BO uses the closed form max(12 ||u0||^2, 1).  CCM has no closed form;
    the smallest kappa on the geometric grid {1, 2, ..., 2^20} for which
    the Galerkin perturbation norm ||G_n R0(kappa)|| is <= 1/2 at n in
    {1, M/2, M} is used.  Each n x n Gram block G_n is built once and
    each norm is an n x n SVD.
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
    # the Gram blocks do not depend on kappa: build them once
    blocks = _ccm_gram_blocks(u0, (1, M // 2, M))
    for e in range(_CCM_GRID_MAX_EXP + 1):
        kappa = float(2**e)
        if _ccm_perturbation_norm(blocks, kappa) <= 0.5:
            return KappaZero("CCM", kappa, "search")
    raise RuntimeError(
        "no kappa0 up to 2^20 tames the CCM perturbation; the data norm is "
        "near or above the focusing threshold -- reduce ||u0||"
    )
