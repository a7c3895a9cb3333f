"""Hermitian eigendecomposition and exact-in-time unitary groups.

Because the Lax matrices are Hermitian, e^{i alpha t (I + 2 L)} is computed
through the spectral decomposition L = Q diag(lambda) Q^H once per distinct
truncation parameter n.  Only the dense n x n block is decomposed, at
O(n^3), and a decomposition is the block's alone: the tail diag(n, n + 1,
...) is already diagonal, and `scheme.run_scheme` keeps it in the gauge
e^{i alpha t j^2} (`_gauge`), where a scheme step, the shift S* and the
phase e^{i alpha t (1 + 2j)}, is the shift alone.  A run of r scheme steps
sharing one decomposition then costs, for the n x T block of T iterates,
one product W = Q^H S* Q plus one n x n by n x T product per step in the
eigenbasis, or, for short runs, two such products per step in the standard
basis.  All eigenvalues are real, so |phase| = 1 for every t and the
evolution is unconditionally stable in time.
`advance` is the one group-application path; the group alone at many
times, as the diagnostics propagator sweep needs it, is Q^H v taken once
and phased per time by `_phases`.

The block of L_{n-1} is the leading (n-1) x (n-1) submatrix of L_n's, so on
a staircase n -> n - 1 each decomposition follows from the one before:
`eig_hermitian` given that parent solves a secular equation for the new
eigenvalues and forms the eigenvectors with one real product, instead of a
fresh O(n^3) `eigh`.  Each root starts at the root of a one-pole model
about its nearer pole, where most roots already meet the stopping test, and
the rest take about one rational step; every evaluation is a matrix-vector
product.  An `eigh` result passes the dense reconstruction and
orthonormality checks, two complex n x n products, the reconstruction
scaled by the block's largest entry.  A derived one is accepted on a
certificate instead: spectral-norm bounds on its defects, rounding
included, carried from the parent's in O(n^2) plus one real n x n product,
that prove the dense checks would pass with half their tolerance to spare
(scaled by the block's diagonal, a lower bound of its largest entry).  When
the bounds grow past that the dense check runs and restarts the chain from
what it measures; where the derived pairs fail it, `eigh` is taken instead.
Two slices of one read-only build need no block compare: their blocks are
equal by construction.

A `PropagatorCache` is a plain dict from key to decomposition with no
lock: laxflow code runs on one thread, and the BLAS behind numpy already
uses every core.  The shift kappa0 and the operator norms of the
convergence analysis are `diagnostics`'s.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .lax import LaxMatrix, _read_only, hermitian_defect

__all__ = [
    "HermitianEig",
    "PropagatorCache",
    "eig_hermitian",
    "advance",
]

_RECON_TOL = 1e-10
_EPS = np.finfo(np.float64).eps
_U = _EPS / 2  # unit roundoff
# The bounds below are themselves computed in floating point.  A new term
# is a product of norms, each within (N + 2) u of its exact value for
# N <= n^2 terms: _SAFETY covers that, and the second-order terms left
# out, for n < 10^6.  A parent's bound carried into its child's goes
# through a few roundings only, covered by _UP, so that the factor does
# not compound down the chain.
_SAFETY = 1.01
_UP = 1.0 + 16 * _U


class _Bounds(NamedTuple):
    """Rigorous spectral-norm bounds for a decomposition Q, lambda of a block B.

    ortho >= ||Q^H Q - I||, residual >= ||B Q - Q diag(lambda)||,
    abs_q >= || |Q| || (entrywise absolute values) and norm >= ||B||, which
    also bounds every leading block of B.
    """

    ortho: float
    residual: float
    abs_q: float
    norm: float

    def recon(self) -> float:
        """>= ||Q diag(lambda) Q^H - B||, Q square: -(B Q - Q lambda) Q^H + B (Q Q^H - I)."""
        return self.residual * np.sqrt(1.0 + self.ortho) + self.norm * self.ortho


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Lax matrix's n x n block.

    eigenvectors is the n x n matrix Q with block = Q diag(lambda) Q^H and
    eigenvalues the n lambdas, ascending; the tail diag(n, n + 1, ...) is
    its own decomposition, left to the caller.  derived is True iff the
    pairs came from the decomposition at n + 1 rather than from `eigh`, and
    certified iff they were accepted on their certificate rather than on
    the dense check; secular_steps counts the rational steps the
    derivation's roots took.  `eig_hermitian` also keeps the bounds its
    checks proved and a weak reference to the array whose leading block it
    decomposed, which a decomposition derived from this one builds on.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    derived: bool = False
    certified: bool = False
    secular_steps: int = 0
    bounds: Optional[_Bounds] = field(default=None, repr=False)
    _root: Optional[weakref.ref] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues, np.float64))
        object.__setattr__(self, "eigenvectors", _read_only(self.eigenvectors, np.complex128))

    @property
    def block(self) -> Optional[np.ndarray]:
        """The read-only block decomposed, while the array it is the leading
        block of (a whole build, for `LaxMatrix.truncated` slices) lives; a
        cached decomposition keeps no build alive."""
        root = self._root() if self._root is not None else None
        return None if root is None else root[: self.n, : self.n]

    @property
    def n(self) -> int:
        return len(self.eigenvectors)


def _phases(rates, ts, alpha: int) -> np.ndarray:
    """e^{i alpha t r} for r in rates, shape (len(rates), len(ts)); ValueError on overflow."""
    with np.errstate(over="ignore"):
        arg = np.outer(rates, ts)
    if not np.all(np.isfinite(arg)):
        raise ValueError(f"phase argument overflows: |t| up to {np.max(np.abs(ts)):g} times "
                         f"a rate (1 + 2 lambda, or j^2 in the tail's gauge) up to "
                         f"{np.max(np.abs(rates)):g}")
    return np.exp(1j * alpha * arg)


def _gauge(ts, alpha: int, m: np.ndarray) -> np.ndarray:
    """e^{i alpha t m}, shape (len(m), len(ts)), for integers m; ValueError on overflow.
    t's leading 26 bits and its other 27 times |m| < 2^26 are exact, so each
    phase is within a few u of exact at any t (one rounding of t m: u |t m|)."""
    mant, ex = np.frexp(ts)
    hi = np.ldexp(np.trunc(np.ldexp(mant, 26)), ex - 26)
    return _phases(m, hi, alpha) * _phases(m, ts - hi, alpha)


def _derivable(m: LaxMatrix, parent: Optional[HermitianEig]) -> bool:
    """True iff the parent is one size up, so that m's block may be its
    block less the last row and column (`eig_hermitian` checks that it is)."""
    return parent is not None and parent.n == m.n + 1 >= 2


def eig_hermitian(m: LaxMatrix, parent: Optional[HermitianEig] = None) -> HermitianEig:
    """Diagonalize the block of a Lax matrix, canonicalizing order and phases.

    Columns are sorted by ascending eigenvalue and each eigenvector is
    rotated so its largest-magnitude component is real positive, making the
    result a deterministic function of the input matrix.  Only the block is
    decomposed and checked: the tail is exact and the caller's.  The
    reconstruction check's tolerance scales with the block's largest entry.

    With `parent`, the decomposition of the same operator at n + 1, the
    block's eigenpairs are derived from the parent's (`_delete_last`) and
    marked `derived`.  When the parent's block less its last row and
    column is m's block, m's block needs no Hermitian check, since the
    parent's passed it.  Two leading blocks of one read-only array (two
    slices of one `LaxMatrix` build, while the build lives) are that by
    construction; other blocks are compared bit for bit.  The derived
    pairs are then accepted on a certificate (`_certify`): bounds carried
    down the chain from the last dense check that prove, in O(n^2) plus
    one real n x n product, that the dense reconstruction and
    orthonormality checks pass with half their tolerance to spare.
    Otherwise, or when the bounds grow past that, the dense check
    (`_check_failure`) runs, and the chain restarts from what it measures.
    `eigh` is the fallback when the derivation declines or its pairs fail
    that check.
    """
    root = _root_ref(m.block)
    derivable = _derivable(m, parent)
    block = parent.block if derivable and parent.bounds is not None else None
    # two leading blocks of one read-only array are equal by construction
    shared = block is not None and root is not None and root() is parent._root()
    same = shared or (block is not None and np.array_equal(m.block, block[:-1, :-1]))
    if not same:
        defect = hermitian_defect(m)
        if defect != 0.0:
            raise ValueError(f"matrix is not exactly Hermitian (defect {defect:g})")
    derived = _delete_last(parent) if derivable else None
    if derived is not None:
        q, abs_q = _canonical_phases(derived.q)
        bounds = _certify(parent, derived, abs_q) if same else None
        certified = bounds is not None
        if not certified:
            bounds = _check_failure(m, derived.mu, q, abs_q)
        if not isinstance(bounds, str):
            q.flags.writeable = False
            return HermitianEig(derived.mu, q, derived=True,
                                certified=certified, secular_steps=derived.steps,
                                bounds=bounds, _root=root)
    try:
        lam, q = np.linalg.eigh(m.block)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed for {m.equation.name} Lax matrix (n={m.n})"
        ) from exc
    q, abs_q = _canonical_phases(q)
    bounds = _check_failure(m, lam, q, abs_q)
    if isinstance(bounds, str):
        raise RuntimeError(f"{bounds} for {m.equation.name} (n={m.n})")
    q.flags.writeable = False
    return HermitianEig(lam, q, bounds=bounds, _root=root)


def _root_ref(block: np.ndarray) -> Optional[weakref.ref]:
    """A weak reference to the array block is the leading block of: block
    itself, or the build a `LaxMatrix.truncated` view was sliced from.
    None unless that array is read-only, so that its leading blocks keep
    the values they were decomposed with."""
    root = block if block.base is None else block.base
    if (isinstance(root, np.ndarray) and root.ndim == 2 and not root.flags.writeable
            and root.strides == block.strides
            and root.__array_interface__["data"] == block.__array_interface__["data"]):
        return weakref.ref(root)
    return None


def _canonical_phases(q: np.ndarray) -> Tuple[np.ndarray, float]:
    """q with each column rotated so its largest-magnitude entry is real
    positive, and a bound on || |q| || for the rotated q.  The bound comes
    from the |q| the largest entries are chosen by: the rotation, by a
    phase within 3 u of modulus 1 in one complex product, moves no modulus
    by more than 6 u."""
    if not q.size:
        return q, 0.0
    a = np.abs(q)
    idx = np.argmax(a, axis=0)
    abs_q = _SAFETY * (1.0 + 6 * _U) * _abs_norm(a)
    # dropped before the small arrays that outlive it are made: one left
    # above it on the heap keeps its memory from the rotated copy, which
    # raises the peak by its size (2 MiB at n = 512)
    del a
    lead = q[idx, np.arange(q.shape[1])]
    return q * np.conj(lead / np.abs(lead)), abs_q


def _abs_norm(a: np.ndarray) -> float:
    """For a = |x| entrywise, sqrt(||a||_1 ||a||_inf) >= || |x| || >= ||x||; 0 if empty."""
    cols, rows = np.ones(len(a)) @ a, a @ np.ones(a.shape[1])
    # two roots: the product of the sums overflows once both pass about 1e154
    return float(np.sqrt(cols.max(initial=0.0)) * np.sqrt(rows.max(initial=0.0)))


def _gamma(k: int) -> float:
    """k u / (1 - k u): a length-k inner product is off by at most this times
    the one of the absolute values (Higham, Accuracy and Stability, sec. 3.1)."""
    return k * _U / (1.0 - k * _U)


def _check_failure(m: LaxMatrix, lam: np.ndarray, q: np.ndarray,
                   abs_q: Optional[float] = None) -> Union[str, _Bounds]:
    """The first check (lam, q) fails as a decomposition of m's block, or the
    bounds that the defects it measured prove, product rounding included.
    abs_q >= || |q| || is the bound `_canonical_phases` returned for q; it
    is taken from q when not given."""
    block, n = m.block, m.n
    scale = 1.0 + float(np.max(np.abs(block), initial=0.0))
    qh = q.conj().T
    recon = np.abs((q * lam) @ qh - block)
    # written as "not <=" so that a NaN defect fails the check
    if not np.max(recon, initial=0.0) <= _RECON_TOL * scale:
        return "eigendecomposition residual too large"
    ortho = np.abs(qh @ q - np.eye(n))
    if not np.max(ortho, initial=0.0) <= _RECON_TOL:
        return "eigenvectors lost orthonormality"
    if abs_q is None:
        abs_q = _SAFETY * _abs_norm(np.abs(q))
    lam_max = float(np.max(np.abs(lam), initial=0.0))
    # a product's rounding is at most gamma times |q| |lambda| |q^H|
    rounding = _gamma(n + 2) * abs_q**2
    e = _SAFETY * (_abs_norm(ortho) + rounding)
    r = _SAFETY * (_abs_norm(recon) + rounding * lam_max)
    # B Q - Q lambda = Q lambda (Q^H Q - I) - (Q lambda Q^H - B) Q
    return _Bounds(e, _SAFETY * np.sqrt(1.0 + e) * (r + lam_max * e),
                   abs_q, _SAFETY * ((1.0 + e) * lam_max + r))


# a root takes at most about two rational steps from its start; bisection
# alone needs about 50, so this bound is only met by roots that cannot be
# separated
_SECULAR_MAX_STEPS = 64
# a root is taken once |f| <= _SECULAR_TOL n sum_i |w_i / (lam_i - mu)|
_SECULAR_TOL = 8 * _EPS


class _Derivation(NamedTuple):
    """`_delete_last`'s eigenpairs (mu, q), mu = origin + tau, and the pieces
    q was formed from: q = Q[:-1] diag(phase) s, s = zhat / (lam - mu) / nu
    column by column; steps counts the rational steps the roots took."""

    origin: np.ndarray
    tau: np.ndarray
    q: np.ndarray
    s: np.ndarray
    zhat: np.ndarray
    nu: np.ndarray
    phase: np.ndarray
    steps: int

    @property
    def mu(self) -> np.ndarray:
        return self.origin + self.tau


def _delete_last(parent: HermitianEig) -> Optional[_Derivation]:
    """Eigenpairs of the parent's n x n block less its last row and column.

    With block = Q diag(lam) Q^H and z = Q^H e_{n-1}, the eigenvalues mu_j
    of the leading (n-1) x (n-1) block are the roots of the secular
    equation f(mu) = sum_i w_i / (lam_i - mu) = 0, w = |z|^2, one in each
    gap (lam_j, lam_{j+1}) (Golub, SIAM Review 15, 1973), and the
    eigenvectors are Q[:-1] (z / (lam - mu_j)), normalized.  The sign of f
    at the gap's midpoint names the half that holds the root and so its
    nearer pole lam_k; the root is carried as an offset tau_j from that
    pole, so that the differences lam_i - mu_j keep their relative
    accuracy.  It starts where the pole model w_k / (lam_k - mu) + F_k(lam_k)
    = 0 puts it, F_k the other terms of f, as for a root within O(w_k) of
    its pole (Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978), or at
    the midpoint when that start leaves the half.  Few roots meet the
    stopping test there (in CCM full-staircase runs about 40% for n >= 200
    and almost none for n < 128); most take one two-pole rational step as
    in LAPACK dlaed4, about 1% a second, kept inside the half by
    bisection.  With r = 1 / (lam - mu), f and the stopping test's
    sum_i |w_i r_i| are the products w r and w |r|, and the slopes of the
    terms below and above the gap the half difference and half sum of
    w r^2 and w (r |r|): matrix-vector products with no mask, on the roots
    still open.  |z| is then recomputed from the
    roots by Loewner's formula (Gu and Eisenstat, SIAM J. Matrix Anal. Appl.
    16, 1995), which keeps the eigenvectors orthogonal; the phase of z is
    kept, so Q[:-1] enters through one real product.  All of it is O(n^2)
    but that product.  The reciprocals 1 / (lam_i - mu_j) are always taken
    from the offsets, as 1 / (delta0 - tau), which `_certify` relies on.

    Returns None when a weight or a gap is too small to separate the roots
    (no deflation is done) or the roots do not converge.
    """
    n = parent.n
    lam = parent.eigenvalues
    last = parent.eigenvectors[-1]
    w = np.abs(last) ** 2
    gaps = np.diff(lam)
    if w.min() <= _EPS**2 or gaps.min() <= _EPS * (1.0 + np.abs(lam).max()):
        return None
    # row j of each matrix below is root j, column i pole i; diff[k, i] is
    # lam_i - lam_k, and row k of it the offsets delta0 from origin lam_k
    j = np.arange(n - 1)
    half = 0.5 * gaps
    diff = lam - lam[:, None]
    # f rises from -inf to +inf across each gap: its sign at the midpoint
    # names the half that holds the root, and so the nearer pole k
    r = diff[:-1] - half[:, None]
    upper = np.reciprocal(r, out=r) @ w < 0
    k = j + upper
    lo, hi = np.where(upper, -half, 0.0), np.where(upper, 0.0, half)
    tol = _SECULAR_TOL * n
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.reciprocal(diff)  # 1 / (lam_i - lam_k), inf at i = k
        inv.flat[:: n + 1] = 0.0
        # the pole model's root lam_k + w_k / F_k, F_k the other terms at lam_k
        tau = w[k] / (inv @ w)[k]
        tau = np.where((lo < tau) & (tau < hi), tau, np.where(upper, lo, hi))
        np.reciprocal(np.subtract(diff[k], tau[:, None], out=r), out=r)
        o, ro = j, r  # the roots still open and their rows of r
        for _ in range(_SECULAR_MAX_STEPS):
            fo, to = ro @ w, tau[o]
            done = np.abs(fo) <= tol * (np.abs(ro) @ w)
            if done.all():
                break
            left = ~done
            o, ro, fo, to = o[left], ro[left], fo[left], to[left]
            steps += len(o)
            lo[o] = lo_o = np.where(fo < 0, to, lo[o])
            hi[o] = hi_o = np.where(fo > 0, to, hi[o])
            # fit c + s / (dlo - eta) + S / (dhi - eta) to the value and slope
            # of the terms below and above the gap, and step to its root; the
            # terms below are negative and those above positive, so their
            # slopes are (d2 - d2s) / 2 and (d2 + d2s) / 2
            d2, d2s = (ro * ro) @ w, (ro * np.abs(ro)) @ w
            ko = k[o]
            dlo, dhi = diff[ko, o] - to, diff[ko, o + 1] - to
            c = fo - 0.5 * ((dlo + dhi) * d2 + (dhi - dlo) * d2s)
            a = (dlo + dhi) * fo - dlo * dhi * d2
            b = dlo * dhi * fo
            disc = np.sqrt(np.maximum(a * a - 4.0 * b * c, 0.0))
            step = to + np.where(a > 0, 2.0 * b / (a + disc), (a - disc) / (2.0 * c))
            tau[o] = np.where((lo_o < step) & (step < hi_o), step, 0.5 * (lo_o + hi_o))
            ro = diff[ko]
            ro -= tau[o, None]
            r[o] = np.reciprocal(ro, out=ro)
        else:
            return None
    # Loewner: w_i = prod_j (mu_j - lam_i) / prod_{k != i} (lam_k - lam_i),
    # taken as n - 1 ratios in (0, 1), (lam_i - mu_j) / (lam_i - lam_k) with
    # k = j below i and k = j + 1 above, so the product cannot overflow.
    # Row i of inv less its diagonal holds 1 / (lam_k - lam_i) for exactly
    # those k, in order, so off.T / r is minus the ratios
    off = inv.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    zhat = np.sqrt(np.abs(np.prod(np.divide(off.T, r), axis=0)))
    s = np.multiply(r, zhat, out=r)
    nu = np.sqrt(np.einsum("ji,ji->j", s, s))
    s /= nu[:, None]
    # Q[:-1] diag(phase(z)) s is one real product: the transposed complex
    # factor, viewed as reals, interleaves real and imaginary parts
    phase = np.conj(last) / np.abs(last)
    rows_t = np.multiply(parent.eigenvectors[:-1].T, phase[:, None], order="C")
    q = (s @ rows_t.view(np.float64)).view(np.complex128).T
    return _Derivation(lam[k], tau, q, s.T, zhat, nu, phase, steps)


def _certify(parent: HermitianEig, d: _Derivation, abs_q: float) -> Optional[_Bounds]:
    """Bounds for the derived pairs (d.mu, q), q = d.q with canonical phases
    and abs_q >= || |q| || as `_canonical_phases` returns them, or None
    unless they prove the dense checks pass with half their tolerance to
    spare.  O(n^2) but the one real product s^T s.

    With P = [I 0] dropping the last row, l = Q[-1] and D = diag(phase)
    (|D| = I up to rounding), q is Y = P Q D s up to rounding Delta, and
    the block is C = P B P^T, so the parent's bounds carry over:

    * Y^H Y - I = (s^T s - I) - conj(g) g^T + s^T D^H (Q^H Q - I) D s, with
      g = s^T (D l), the last row of Q D s: it vanishes when D l = |l|;
    * column j of C Y - Y diag(mu) is P Q D r_j + (1 / nu_j + c g_j) h
      - g_j P B (I - Q Q^H) e_{n-1} plus the parent's residual carried
      through, where mu_j = origin_j + tau_j exactly, h = P Q Q^H
      e_{n-1} = P Q D conj(D l) has norm <= the parent's orthonormality
      bound, c is any shift (the Rayleigh quotient of |l| is taken) and
      r_j = (lam - mu_j) s_j - conj(D l) / nu_j - g_j (lam - c) conj(D l).
      (lam - mu_j) s_j is zhat / nu_j to 8 u per entry, because
      1 / (lam_i - mu_j) was taken as 1 / (delta0 - tau) with
      |delta0 / (delta0 - tau)| <= 2, so ||r_j|| <= (||zhat - conj(D l)||
      + 8 u ||zhat||) / nu_j + |g_j| ||(lam - c) l||: O(1) per column
      once g is known.

    Delta covers D's rounding and Q[:-1] D (6 u |Q|: two divisions, then
    a complex product), the real product of that with s (gamma_n |Q| |s|)
    and the canonical phases (6 u |q|); its spectral norm is bounded
    through || |Q| || and || |s| ||.  The stored mu is origin + tau to
    u |mu|.  `_Bounds.recon` then bounds the reconstruction defect, and
    the maximum entry of a matrix is at most its spectral norm.  The dense
    check scales its tolerance by 1 + max |C|; the certificate by 1 + max
    |diag(C)|, an O(n) lower bound on it.
    """
    Q, (e_p, rho_p, abs_q_p, b) = parent.eigenvectors, parent.bounds
    n = parent.n
    lam, ell, s = parent.eigenvalues, Q[-1], d.s
    gam, row = _gamma(n), np.sqrt(1.0 + e_p)  # row >= ||Q|| >= ||l||
    s_abs, abs_ell = np.abs(s), np.abs(ell)
    v = ell * d.phase
    # >= |g|: |D l - (D l)exact| <= 6 u |l|, and the product's rounding
    g = np.hypot(s.T @ v.real, s.T @ v.imag) + (6 * _U + gam) * (s_abs.T @ abs_ell)
    g_norm = float(np.linalg.norm(g))
    abs_s = _abs_norm(s_abs)  # >= || |s| ||
    sts = s.T @ s
    sts.flat[:: len(sts) + 1] -= 1.0
    # s^T s - I is symmetric, so its 1-norm bounds its spectral norm; the
    # product's rounding is at most gamma |s|^T |s|, of 1-norm <= abs_s^2
    f = _SAFETY * ((np.ones(len(sts)) @ np.abs(sts)).max(initial=0.0) + gam * abs_s**2)
    sig = np.sqrt(1.0 + f)  # >= ||s|| up to the roundings _UP covers
    y = row * sig  # >= ||Y||
    delta = abs_q_p * abs_s * (gam + 12 * _U)  # >= ||Delta||
    ortho = _UP * sig**2 * e_p + f + _SAFETY * (g_norm**2 + 2 * y * delta + delta**2)
    h = min(float(np.linalg.norm(Q[:-1] @ np.conj(ell))) + gam * abs_q_p * row, e_p)
    dz = float(np.linalg.norm(d.zhat - np.conj(v))) + 6 * _U * row
    # P Q D (c g_j conj(D l)) = c g_j h for any c, so lam may be shifted by c in r_j
    c = float(lam @ abs_ell**2 / (abs_ell @ abs_ell))
    r = ((dz + 8 * _U * np.linalg.norm(d.zhat)) / d.nu
         + g * np.linalg.norm((lam - c) * abs_ell))
    mu = d.mu
    mu_max = max(abs(mu[0]), abs(mu[-1]))  # mu ascends
    residual = _UP * rho_p * (sig + row * g_norm) + _SAFETY * (
        row * np.linalg.norm(r) + h * (np.linalg.norm(1.0 / d.nu) + abs(c) * g_norm)
        + b * e_p * g_norm + (b + mu_max) * delta + y * _U * mu_max)
    bounds = _Bounds(ortho, residual, abs_q, b)
    scale = 1.0 + float(np.max(np.abs(np.diagonal(parent.block)[:-1]), initial=0.0))
    if bounds.ortho <= 0.5 * _RECON_TOL and bounds.recon() <= 0.5 * _RECON_TOL * scale:
        return bounds
    return None


def advance(e: HermitianEig, ts, alpha: int, X: np.ndarray, steps: int) -> np.ndarray:
    """Take `steps` scheme steps x <- e^{i alpha t (I + 2 L)} S* x on the block of L.

    X is the (n + steps) x len(ts) window of a sliding iterate, n >= 1:
    rows 0..n-1 hold the first iterate's block and row n + s the row taken
    in at step s, in the standard basis; column j evolves by ts[j].  X is
    advanced in place, the block after step s in rows s + 1..s + n.
    Returns rows, shape (len(ts), steps): rows[:, s] is the zero mode after
    step s + 1.

    On the block the standard basis costs 16 n^2 T flops a step; the
    eigenbasis, where the block rows hold w = Q^H x and a step is
    w <- phases * (W w + c x_n) with W = Q^H S* Q and c = Q^H e_{n-1}
    taking in row n, costs 8 n^3 + 8 n^2 T (steps + 2) in all.  The cheaper
    one is taken: the eigenbasis iff T (steps - 2) > n.
    """
    n, T = e.n, len(ts)
    if n == 0 or X.shape != (n + steps, T):
        raise ValueError("X must be the (n + steps, len(ts)) window of a nonempty block")
    phases = _phases(1.0 + 2.0 * e.eigenvalues, ts, alpha)
    q = e.eigenvectors
    rows = np.empty((T, steps), dtype=np.complex128)
    if T * (steps - 2) > n:
        qh = q.conj().T
        # S* Q is Q shifted up one row with a zero last row, so Q^H S* Q
        # needs no shifted copy; row n shifts into block row n - 1
        w_op = np.hstack([qh[:, :-1] @ q[1:], qh[:, -1:]])
        X[:n] = qh @ X[:n]
        for s in range(steps):
            X[s + 1 : s + n + 1] = w_op @ X[s : s + n + 1]
            X[s + 1 : s + n + 1] *= phases
            rows[:, s] = q[0] @ X[s + 1 : s + n + 1]
        X[steps:] = q @ X[steps:]
        return rows
    for s in range(steps):
        # Q^H x as conj(Q^T conj(x)): no conjugate copy of Q, only of the n x T x
        X[s + 1 : s + n + 1] = q @ (phases * (q.T @ X[s + 1 : s + n + 1].conj()).conj())
        rows[:, s] = X[s + 1]
    return rows


# the bytes of finished decompositions a cache keeps for a later run to hit:
# room for reruns at small K on a shared cache (a full staircase at K = 64
# leaves 1.3 MiB); no command reuses a cache across runs
_CACHE_BUDGET = 2 << 20


def _nbytes(e: HermitianEig) -> int:
    return e.eigenvalues.nbytes + e.eigenvectors.nbytes


@dataclass
class PropagatorCache:
    """At-most-once eigendecomposition per (equation, n, digest).

    A decomposition built with a `parent` one size up is derived from it
    when it can be (`derived`; `certified` of those were accepted on their
    certificate, with no dense check; `secular_steps` sums the rational
    steps their roots took) and otherwise taken by `eigh` (`fallbacks`);
    either way it counts as one decomposition.

    An entry is *live* from its build until `release(key)` marks it
    *finished*; `run_scheme` releases each n after its last run.  A live
    entry is never evicted.  Finished entries stay resident, for a later
    run to hit, while they take at most `_CACHE_BUDGET` bytes in all; past
    that the one released longest ago is *evicted*, dropped from the cache
    (`evictions`).  A hit on a finished entry makes it live again.
    """

    _store: Dict[Tuple, HermitianEig] = field(default_factory=dict)
    _finished: Dict[Tuple, int] = field(default_factory=dict)  # key -> bytes, oldest first
    decompositions: int = 0
    hits: int = 0
    derived: int = 0
    certified: int = 0
    fallbacks: int = 0
    secular_steps: int = 0
    evictions: int = 0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the cached decompositions: 16 n^2 + 8 n each."""
        return sum(map(_nbytes, self._store.values()))

    def get_or_build(self, key: Tuple, factory: Callable[[], LaxMatrix],
                     parent: Optional[HermitianEig] = None) -> HermitianEig:
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            self._finished.pop(key, None)
            return cached
        m = factory()
        built = self._store[key] = eig_hermitian(m, parent)
        self.decompositions += 1
        if built.derived:
            self.derived += 1
            self.certified += built.certified
            self.secular_steps += built.secular_steps
        elif _derivable(m, parent):
            self.fallbacks += 1
        return built

    def release(self, key: Tuple) -> None:
        """Mark the entry finished, then evict the finished entries released
        longest ago until the rest fit the budget."""
        self._finished.pop(key, None)
        self._finished[key] = _nbytes(self._store[key])
        while sum(self._finished.values()) > _CACHE_BUDGET:
            oldest = next(iter(self._finished))
            del self._finished[oldest], self._store[oldest]
            self.evictions += 1
