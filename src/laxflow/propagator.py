"""Hermitian eigendecomposition and exact-in-time unitary groups.

Because the Lax matrices are Hermitian, e^{i alpha t (I + 2 L)} is computed
through the spectral decomposition L = Q diag(lambda) Q^H once per distinct
truncation parameter n.  Only the dense n x n block is decomposed, at
O(n^3); the tail diag(n..M-1) is already diagonal, so on those rows the
group is the elementwise phase e^{i alpha t (1 + 2j)}.  A run of r scheme
steps sharing one decomposition then costs, for an M x T block of iterates,
one product W = Q^H S* Q plus one n x n by n x T product per step in the
eigenbasis, or, for short runs, two such products per step in the standard
basis; the tail is shifted and phased elementwise either way, and a zero
guard row below the iterate gives n < M and n = M one step body.  All
eigenvalues are real, so |phase| = 1 for every t and the evolution is
unconditionally stable in time.

The block of L_{n-1} is the leading (n-1) x (n-1) submatrix of L_n's, so
on a staircase n -> n - 1 each decomposition follows from the one before:
`eig_hermitian` given that parent solves a secular equation for the new
eigenvalues and forms the eigenvectors with one real product, instead of
a fresh O(n^3) `eigh`.  The derived pairs pass the same checks; where they
cannot be trusted, `eigh` is taken instead.

A `PropagatorCache` is a plain dict from key to decomposition with no
lock: laxflow code runs on one thread, and the BLAS behind numpy already
uses every core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .lax import Equation, LaxMatrix, hermitian_defect, mult_matrix
from .spectral import HardyVector, RealSpectrum, l2_norm

__all__ = [
    "HermitianEig",
    "PropagatorCache",
    "eig_hermitian",
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
    derived is True iff the block's pairs came from the decomposition at
    n + 1 rather than from `eigh`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    derived: bool = False

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
        """e^{i alpha t (1 + 2 lambda)}, shape (M, len(ts)); ValueError on overflow."""
        with np.errstate(over="ignore"):
            arg = np.outer(1.0 + 2.0 * self.eigenvalues, ts)
        if not np.all(np.isfinite(arg)):
            raise ValueError("phase t (1 + 2 lambda) overflows; the time is too large")
        return np.exp(1j * alpha * arg)


def _derivable(m: LaxMatrix, parent: Optional[HermitianEig]) -> bool:
    """True iff the parent is one size up: m's block may be its block less
    the last row and column, as when both are `LaxMatrix.truncated` from
    one operator (the checks on the derived pairs confirm it)."""
    return parent is not None and parent.n == m.n + 1 >= 2


def eig_hermitian(m: LaxMatrix, parent: Optional[HermitianEig] = None) -> HermitianEig:
    """Diagonalize the block of a Lax matrix, canonicalizing order and phases.

    Columns are sorted by ascending eigenvalue and each eigenvector is
    rotated so its largest-magnitude component is real positive, making the
    result a deterministic function of the input matrix.  The tail is exact,
    so the Hermitian, reconstruction and orthonormality checks on the block
    are the checks on the whole matrix.

    With `parent`, the decomposition of the same operator at n + 1, the
    block's eigenpairs are derived from the parent's (`_delete_last`)
    instead of by `eigh`; the result is then marked `derived`.  `eigh` is
    the fallback when the derivation declines or its pairs fail a check.
    """
    defect = hermitian_defect(m)
    if defect != 0.0:
        raise ValueError(f"matrix is not exactly Hermitian (defect {defect:g})")
    tail = np.arange(m.n, m.M, dtype=np.float64)
    pairs = _delete_last(parent) if _derivable(m, parent) else None
    if pairs is not None:
        lam, q = pairs
        q = _canonical_phases(q)
        if _check_failure(m, lam, q) is None:
            return HermitianEig(np.concatenate([lam, tail]), q, derived=True)
    try:
        lam, q = np.linalg.eigh(m.block)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed for {m.equation.name} Lax matrix "
            f"(n={m.n}, M={m.M})"
        ) from exc
    q = _canonical_phases(q)
    failure = _check_failure(m, lam, q)
    if failure is not None:
        raise RuntimeError(f"{failure} for {m.equation.name} (n={m.n}, M={m.M})")
    return HermitianEig(np.concatenate([lam, tail]), q)


def _canonical_phases(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    if not q.size:
        return q
    idx = np.argmax(np.abs(q), axis=0)
    lead = q[idx, np.arange(q.shape[1])]
    return q * np.conj(lead / np.abs(lead))


def _check_failure(m: LaxMatrix, lam: np.ndarray, q: np.ndarray) -> Optional[str]:
    """The first check (lam, q) fails as a decomposition of m's block, or None."""
    block = m.block
    # the largest entry of the whole matrix, tail included
    scale = 1.0 + max(float(np.max(np.abs(block), initial=0.0)),
                      float(m.M - 1 if m.n < m.M else 0))
    qh = q.conj().T
    recon = (q * lam) @ qh
    if np.max(np.abs(recon - block), initial=0.0) > _RECON_TOL * scale:
        return "eigendecomposition residual too large"
    ortho = qh @ q - np.eye(m.n)
    if np.max(np.abs(ortho), initial=0.0) > _RECON_TOL:
        return "eigenvectors lost orthonormality"
    return None


_EPS = np.finfo(np.float64).eps
# each root converges in about three rational steps; bisection alone needs
# about 50, so this bound is only met by roots that cannot be separated
_SECULAR_MAX_STEPS = 64


def _delete_last(parent: HermitianEig) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Eigenpairs of the parent's n x n block less its last row and column.

    With block = Q diag(lam) Q^H and z = Q^H e_{n-1}, the eigenvalues mu_j
    of the leading (n-1) x (n-1) block are the roots of the secular
    equation f(mu) = sum_i w_i / (lam_i - mu) = 0, w = |z|^2, one in each
    gap (lam_j, lam_{j+1}) (Golub, SIAM Review 15, 1973), and the
    eigenvectors are Q[:-1] (z / (lam - mu_j)), normalized.  Each root is
    carried as an offset tau_j from its nearer pole, so that the
    differences lam_i - mu_j keep their relative accuracy, and found by
    two-pole rational steps as in LAPACK dlaed4, kept inside the bracket
    by bisection.  |z| is then recomputed from the roots by Loewner's
    formula (Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995), which
    keeps the eigenvectors orthogonal; the phase of z is kept, so Q[:-1]
    enters through one real product.  All of it is O(n^2) but that product.

    Returns None when a weight or a gap is too small to separate the roots
    (no deflation is done) or the roots do not converge.
    """
    n = parent.n
    lam = parent.eigenvalues[:n]
    last = parent.eigenvectors[-1]
    w = np.abs(last) ** 2
    gaps = np.diff(lam)
    if w.min() <= _EPS**2 or gaps.min() <= _EPS * (1.0 + np.abs(lam).max()):
        return None
    j = np.arange(n - 1)
    below = np.arange(n)[:, None] <= j  # the poles lam_i at or below gap j
    w_below = w[:, None] * below
    # f rises from -inf to +inf across each gap: its sign at the midpoint
    # names the half that holds the root, and so the nearer pole
    r = 1.0 / (lam[:, None] - (lam[:-1] + 0.5 * gaps))  # 1 / (lam_i - mu_j)
    f = w @ r
    upper = f < 0
    origin = np.where(upper, lam[1:], lam[:-1])
    delta0 = lam[:, None] - origin
    lo = np.where(upper, -0.5 * gaps, 0.0)
    hi = np.where(upper, 0.0, 0.5 * gaps)
    tau = np.where(upper, lo, hi)
    tol = 8 * n * _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SECULAR_MAX_STEPS):
            # the terms below the gap are negative, those above positive
            psi = np.einsum("ij,ij->j", w_below, r)
            done = np.abs(f) <= tol * (f - 2.0 * psi)
            if done.all():
                break
            lo = np.where(f < 0, tau, lo)
            hi = np.where(f > 0, tau, hi)
            # fit c + s / (dlo - eta) + S / (dhi - eta) to the value and slope
            # of the terms below and above the gap, and step to its root
            r2 = r * r
            dpsi = np.einsum("ij,ij->j", w_below, r2)
            dphi = w @ r2 - dpsi
            dlo, dhi = delta0[j, j] - tau, delta0[j + 1, j] - tau
            c = f - dpsi * dlo - dphi * dhi
            a = c * (dlo + dhi) + dpsi * dlo**2 + dphi * dhi**2
            b = dlo * dhi * f
            disc = np.sqrt(np.maximum(a * a - 4.0 * b * c, 0.0))
            step = tau + np.where(a > 0, 2.0 * b / (a + disc), (a - disc) / (2.0 * c))
            step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
            tau = np.where(done, tau, step)
            r = 1.0 / (delta0 - tau)
            f = w @ r
        else:
            return None
    # Loewner: w_i = prod_j (mu_j - lam_i) / prod_{k != i} (lam_k - lam_i),
    # taken as n - 1 ratios in (0, 1), mu_j over lam_j below i and over
    # lam_{j+1} above, so the product cannot overflow
    pole = np.where(below, lam[1:], lam[:-1])
    zhat = np.sqrt(np.prod((tau - delta0) / (pole - lam[:, None]), axis=1))
    s = zhat[:, None] * r
    s /= np.linalg.norm(s, axis=0)
    # Q[:-1] diag(phase(z)) s is one real product: the transposed complex
    # factor, viewed as reals, interleaves real and imaginary parts
    phase = (np.conj(last) / np.abs(last))[:, None]
    rows_t = np.multiply(parent.eigenvectors[:-1].T, phase, order="C")
    q = (s.T @ rows_t.view(np.float64)).view(np.complex128).T
    return origin + tau, q


def apply_group_many(e: HermitianEig, ts, alpha: int, V) -> np.ndarray:
    """Apply e^{i alpha t (I + 2 L)} at several times; column j of V evolves by ts[j].

    alpha = +1 for the BO scheme, -1 for CCM.
    """
    ts = np.asarray(ts, dtype=np.float64)
    V = np.asarray(V, dtype=np.complex128)
    if V.shape != (e.M, len(ts)):
        raise ValueError("V must be (M, len(ts))")
    n, q = e.n, e.eigenvectors
    phases = e.phases(ts, alpha)
    out = phases * V
    out[:n] = q @ (phases[:n] * (q.conj().T @ V[:n]))
    return out


def advance(e: HermitianEig, ts, alpha: int, V: np.ndarray, steps: int):
    """Take `steps` scheme steps V <- e^{i alpha t (I + 2 L)} S* V on one decomposition.

    Column j of V evolves by ts[j].  Returns (rows, V): rows[:, s] is the
    zero mode of the iterate after step s + 1, shape (len(ts), steps), and V
    is the last iterate in the standard basis; the caller's V is not changed.

    The iterate carries one zero guard row below row M - 1, which S* shifts
    into row M - 1, so the block always reads rows 1..n (0..n in the
    eigenbasis) and the tail rows n..M-1 are shifted in place and phased
    elementwise, with or without a tail.  On the block the standard basis
    costs 16 n^2 T flops a step; the eigenbasis, where the block rows hold
    w = Q^H V[:n] and a step is w <- phases * (W w + c v_n) with
    W = Q^H S* Q and c = Q^H e_{n-1} taking in row n, costs
    8 n^3 + 8 n^2 T (steps + 2) in all.  The cheaper one is taken: the
    eigenbasis iff T (steps - 2) > n.  With n = 0 a step is pure phases.
    """
    ts = np.asarray(ts, dtype=np.float64)
    M, n, T = e.M, e.n, len(ts)
    if V.shape != (M, T):
        raise ValueError("V must be (M, len(ts))")
    phases = e.phases(ts, alpha)
    q = e.eigenvectors
    qh = q.conj().T
    rows = np.empty((T, steps), dtype=np.complex128)
    guard = np.zeros((1, T))
    if n and T * (steps - 2) > n:
        # S* Q is Q shifted up one row with a zero last row, so Q^H S* Q
        # needs no shifted copy; row n shifts into block row n - 1
        w_op = np.hstack([qh[:, :-1] @ q[1:], qh[:, -1:]])
        X = np.concatenate([qh @ V[:n], V[n:], guard])
        for s in range(steps):
            X[:n] = w_op @ X[: n + 1]
            X[n:-1] = X[n + 1 :]
            X[:-1] *= phases
            rows[:, s] = q[0] @ X[:n]
        X[:n] = q @ X[:n]
        return rows, X[:-1]
    X = np.concatenate([V, guard])
    pb, pt = phases[:n], phases[n:]
    for s in range(steps):
        X[:n] = q @ (pb * (qh @ X[1 : n + 1]))
        X[n:-1] = X[n + 1 :] * pt
        rows[:, s] = X[0]
    return rows, X[:-1]


@dataclass
class PropagatorCache:
    """At-most-once eigendecomposition per (equation, n, M, digest).

    A decomposition built with a `parent` one size up is derived from it
    when it can be (`derived`) and otherwise taken by `eigh`
    (`fallbacks`); either way it counts as one decomposition.
    """

    _store: Dict[Tuple, HermitianEig] = field(default_factory=dict)
    decompositions: int = 0
    hits: int = 0
    derived: int = 0
    fallbacks: int = 0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the cached decompositions: 16 n^2 + 8 M each."""
        return sum(e.eigenvalues.nbytes + e.eigenvectors.nbytes for e in self._store.values())

    def get_or_build(self, key: Tuple, factory: Callable[[], LaxMatrix],
                     parent: Optional[HermitianEig] = None) -> HermitianEig:
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        m = factory()
        built = self._store[key] = eig_hermitian(m, parent)
        self.decompositions += 1
        if built.derived:
            self.derived += 1
        elif _derivable(m, parent):
            self.fallbacks += 1
        return built


_CCM_GRID_MAX_EXP = 20


def find_kappa_zero(u0, eq: Equation, M: int) -> float:
    """Determine the shift kappa0 making (L_n + kappa) uniformly invertible.

    BO uses the closed form max(12 ||u0||^2, 1).  CCM has no closed form
    and does not depend on the sign, since only the Gram block enters: the
    smallest kappa on the geometric grid {1, 2, ..., 2^20} for which
    the Galerkin perturbation norm ||G_n R0(kappa)|| is <= 1/2 for all n
    <= M is used.  G_n R0 = Pi_n (G_M R0) Pi_n is a compression, so only
    the norm at n = M, the largest, is taken.  Either way kappa0 >= 1.
    """
    if M < 4:
        raise ValueError("M must be >= 4")
    if eq.family == "BO":
        if not isinstance(u0, RealSpectrum):
            raise TypeError("BO data must be a RealSpectrum")
        return max(12.0 * l2_norm(u0) ** 2, 1.0)
    if not isinstance(u0, HardyVector):
        raise TypeError("CCM data must be a HardyVector")
    a = mult_matrix(u0, M)
    gram = a @ a.conj().T
    for e in range(_CCM_GRID_MAX_EXP + 1):
        kappa = float(2**e)
        if np.linalg.norm(gram * (1.0 / (np.arange(M) + kappa)), ord=2) <= 0.5:
            return kappa
    raise RuntimeError(
        "no kappa0 up to 2^20 tames the CCM perturbation; the data norm is "
        "near or above the focusing threshold -- reduce ||u0||"
    )
