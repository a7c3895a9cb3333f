"""Hermitian eigendecomposition and exact-in-time unitary groups.

Because the Lax matrices are Hermitian, e^{i alpha t (I + 2 L)} is computed
through the spectral decomposition L = Q diag(lambda) Q^H once per distinct
truncation parameter n.  The group is the same for Q D, any diagonal D with
|D| = I, so Q keeps the column phases `eigh` or the derivation below gives
it; both are deterministic.  Only the dense n x n block is decomposed, at
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
about its nearer pole, where a third of the roots meet the stopping test
for n >= 200 and almost none below 128; the others take one rational step,
about 1% of them a second.  Every evaluation is a matrix-vector product
and every n^2 pass one whole-array numpy call, a fixed number of each per
pass of the loop.  A decomposition is accepted in one of two ways.  A
derived one, tried only when its block and its parent's are leading
blocks of one live read-only build, and so equal by construction, is
accepted on a certificate: spectral-norm bounds on its defects, rounding
included, carried from the parent's in O(n^2) plus one real n x n
product, that prove the dense checks would pass with half their
tolerance to spare (scaled by the block's diagonal, a lower bound of its
largest entry).  Everything else, a certificate that declines included,
is an `eigh` result, which passes the dense reconstruction and
orthonormality checks, two complex n x n products, the reconstruction
scaled by the block's largest entry; the chain restarts from the bounds
those checks measure.

A `PropagatorCache` is a memo bounded in bytes, a plain dict from key to
decomposition with no lock: laxflow code runs on one thread, and the BLAS
behind numpy already uses every core.  A run takes every decomposition
from it, a return to an n included, and holds only the one in use.  The
shift kappa0 and the operator norms of the convergence analysis are
`diagnostics`'s.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

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
    abs_q >= || |Q| || (entrywise absolute values) of the Q stored, and
    norm >= ||B||, which also bounds every leading block of B.  None of
    them changes under column phases Q D, |D| = I.
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
    pairs came from the decomposition at n + 1, accepted on their
    certificate, rather than from `eigh`; secular_steps counts the rational
    steps the derivation's roots took.  `eig_hermitian` also keeps the
    bounds its certificate or dense check proved and `_root`, a weak
    reference to the read-only array whose leading block it decomposed (a
    whole build, for `LaxMatrix.truncated` slices) or None, so that a
    cached decomposition keeps no build alive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    derived: bool = False
    secular_steps: int = 0
    bounds: Optional[_Bounds] = field(default=None, repr=False)
    _root: Optional[weakref.ref] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues, np.float64))
        object.__setattr__(self, "eigenvectors", _read_only(self.eigenvectors, np.complex128))

    @property
    def n(self) -> int:
        return len(self.eigenvectors)


def _phases(rates, ts, alpha: int) -> np.ndarray:
    """e^{i alpha t r} for r in rates, shape (len(rates), len(ts)); ValueError on overflow."""
    with np.errstate(over="ignore"):
        arg = np.multiply.outer(rates, ts)
    if not np.isfinite(arg).all():
        raise ValueError(f"phase argument overflows: |t| up to {np.max(np.abs(ts)):g} times "
                         f"a rate (1 + 2 lambda, or j^2 in the tail's gauge) up to "
                         f"{np.max(np.abs(rates)):g}")
    return np.exp(1j * alpha * arg)


def _gauge(ts, alpha: int, m: np.ndarray) -> np.ndarray:
    """e^{i alpha t m}, shape (len(m), len(ts)), for integers m; ValueError on
    overflow or |m| >= 2^52.  For |m| < 2^b, t's leading w = min(26, 53 - b) bits
    are peeled ceil(b / w) times (at least once), so each chunk times m is exact and
    each phase is within a few u of exact at any t (one rounding of t m: u |t m|)."""
    b = int(np.max(np.abs(m), initial=0)).bit_length()
    if (w := min(26, 53 - b)) < 1:
        raise ValueError("gauge exponents |m| >= 2^52 are not exact in float64")
    his, rest = [], ts
    for _ in range(max(1, -(-b // w))):
        mant, ex = np.frexp(rest)
        his.append(np.ldexp(np.trunc(np.ldexp(mant, w)), ex - w))
        rest = rest - his[-1]
    # in place, in chunk order: another order moves the last bits of the phases
    out = _phases(m, his[0], alpha)
    for c in [*his[1:], rest]:
        out *= _phases(m, c, alpha)
    return out


def _derivable(m: LaxMatrix, parent: Optional[HermitianEig]) -> bool:
    """True iff the parent is one size up, so that m's block may be its
    block less the last row and column."""
    return parent is not None and parent.n == m.n + 1 >= 2


def eig_hermitian(m: LaxMatrix, parent: Optional[HermitianEig] = None) -> HermitianEig:
    """Diagonalize the block of a Lax matrix: eigenvalues ascending, each
    eigenvector with the phase it is computed with.  Only the block is
    decomposed and checked: the tail is exact and the caller's.

    With `parent`, the decomposition of the same operator at n + 1, whose
    block and m's are leading blocks of one live read-only array (two
    slices of one `LaxMatrix` build), m's block is the parent's less its
    last row and column by construction.  It needs no Hermitian check, the
    parent's passed it, and its eigenpairs are derived from the parent's
    (`_delete_last`) and accepted on a certificate (`_certify`): bounds
    carried down the chain that prove, in O(n^2) plus one real n x n
    product, that the dense checks pass with half their tolerance to spare.
    Those are marked `derived`.  Every other decomposition, one whose
    derivation or certificate declines, or whose block is an equal copy or
    a separate build, is taken by `eigh` after the Hermitian check (unless
    the build is shared) and accepted on the dense check (`_dense_check`),
    whose tolerance scales with the block's largest entry.
    """
    root = _root_ref(m.block)
    if (_derivable(m, parent) and root is not None and parent._root is not None
            and root() is parent._root() and parent.bounds is not None):
        derived = _delete_last(parent)
        bounds = None if derived is None else _certify(parent, derived)
        if bounds is not None:
            derived.q.flags.writeable = False
            return HermitianEig(derived.mu, derived.q, derived=True,
                                secular_steps=derived.steps, bounds=bounds, _root=root)
    else:
        defect = hermitian_defect(m)
        if defect != 0.0:
            raise ValueError(f"matrix is not exactly Hermitian (defect {defect:g})")
    try:
        lam, q = np.linalg.eigh(m.block)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed for {m.equation.name} Lax matrix (n={m.n})"
        ) from exc
    bounds = _dense_check(m, lam, q)
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


def _abs_norm(a: np.ndarray) -> float:
    """For a = |x| entrywise, sqrt(||a||_1 ||a||_inf) >= || |x| || >= ||x||; 0 if empty."""
    cols, rows = np.ones(len(a)) @ a, a @ np.ones(a.shape[1])
    # two roots: the product of the sums overflows once both pass about 1e154
    return (math.sqrt(np.maximum.reduce(cols, initial=0.0))
            * math.sqrt(np.maximum.reduce(rows, initial=0.0)))


def _gamma(k: int) -> float:
    """k u / (1 - k u): a length-k inner product is off by at most this times
    the one of the absolute values (Higham, Accuracy and Stability, sec. 3.1)."""
    return k * _U / (1.0 - k * _U)


def _dense_check(m: LaxMatrix, lam: np.ndarray, q: np.ndarray) -> _Bounds:
    """The bounds that the defects of (lam, q) as a decomposition of m's
    block prove: each measured norm plus the rounding of its product,
    gamma_{n+2} || |q| ||^2 (times max |lam| for the reconstruction),
    || |q| || bounded from q itself.  RuntimeError when a defect, the
    reconstruction's scaled by 1 + max |block|, exceeds _RECON_TOL."""
    block, n = m.block, m.n
    scale = 1.0 + float(np.max(np.abs(block), initial=0.0))
    qh = q.conj().T
    recon = np.abs((q * lam) @ qh - block)
    # written as "not <=" so that a NaN defect fails the check
    if not np.max(recon, initial=0.0) <= _RECON_TOL * scale:
        raise RuntimeError(f"eigendecomposition residual too large for {m.equation.name} (n={n})")
    ortho = np.abs(qh @ q - np.eye(n))
    if not np.max(ortho, initial=0.0) <= _RECON_TOL:
        raise RuntimeError(f"eigenvectors lost orthonormality for {m.equation.name} (n={n})")
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
    accuracy.  The differences lam_i - lam_k and lam_i - mid_j are one
    rank-2 product, each entry a single rounding of its exact value.  A
    root starts where the pole model w_k / (lam_k - mu) + F_k(lam_k) = 0
    puts it, F_k the other terms of f, as for a root within O(w_k) of its
    pole (Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978), or at the
    midpoint when that start leaves the half.  Each pass of the loop
    evaluates f and the stopping test's sum_i |w_i r_i|, r = 1 / (lam -
    mu), as the products w r and w |r| on the roots still open, keeps the
    rows and the tau and bracket of those that fail, and takes one
    two-pole rational step for them as in LAPACK dlaed4, kept inside the
    half by bisection: the slopes of the terms below and above the gap are
    the half difference and half sum of w r^2 and w (r |r|),
    matrix-vector products with no mask.  In CCM full-staircase runs at
    K = 256 the start leaves 66% of the roots open for n >= 200, 87% for
    n from 128 to 199 and 99% below; one step leaves 0.4%, 0.6% and 2%
    open, and a second none.  |z| is then recomputed from the roots by
    Loewner's formula (Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 16,
    1995), which keeps the eigenvectors orthogonal; the phase of z is
    kept, so Q[:-1] enters through one real product.  All of it is O(n^2)
    but that product.  The reciprocals 1 / (lam_i - mu_j) are always taken
    from the offsets, as 1 / (delta0 - tau), which `_certify` relies on.

    Returns None when a weight or a gap is too small to separate the roots
    (no deflation is done) or the roots do not converge.
    """
    n = parent.n
    lam = parent.eigenvalues
    last = parent.eigenvectors[-1]
    abs_last = np.abs(last)
    w = abs_last**2
    gaps = lam[1:] - lam[:-1]
    if w.min() <= _EPS**2 or gaps.min() <= _EPS * (1.0 + max(-lam[0], lam[-1])):
        return None
    # row j of each matrix below is root j, column i pole i; diff[k, i] is
    # lam_i - lam_k, and row k of it the offsets delta0 from origin lam_k
    half = 0.5 * gaps
    # rows k < n: lam_i - lam_k; rows n + j: lam_i - mid_j, mid_j = lam_j + half_j:
    # one rank-2 product, each entry exact but for one rounding of lam_i - x
    x = np.concatenate((lam, lam[:-1] + half))
    diff = np.array([np.ones(2 * n - 1), x]).T @ np.array([lam, -np.ones(n)])
    diff, r = diff[:n], diff[n:]
    # f rises from -inf to +inf across each gap: its sign at the midpoint
    # names the half that holds the root, and so the nearer pole k
    upper = np.reciprocal(r, out=r) @ w < 0
    k = np.arange(n - 1) + upper
    d0 = diff[k]
    # 1 / (lam_i - lam_k), 0 at i = k, in diff's place
    diff.ravel()[:: n + 1] = np.inf  # leading rows of a fresh product: ravel is a view
    inv = np.reciprocal(diff, out=diff)
    # each open root's bracket (lo, hi) and its gap's ends, offsets from lam_k
    lo, hi = upper * -half, ~upper * half
    ends = 2.0 * np.array([lo, hi]).T
    tol = _SECULAR_TOL * n
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # the pole model's root lam_k + w_k / F_k, F_k the other terms at lam_k
        tau = w[k] / (inv @ w)[k]
        tau = np.where((lo < tau) & (tau < hi), tau, lo + hi)
        np.reciprocal(np.subtract(d0, tau[:, None], out=r), out=r)
        # the open roots, their rows of r and their taus
        o, ro, to = np.arange(n - 1), r, tau
        for _ in range(_SECULAR_MAX_STEPS):
            f = ro @ w
            left = (~(np.abs(f) <= tol * (np.abs(ro) @ w))).nonzero()[0]
            if not len(left):
                break
            o, ro, f, to, lo, hi = o[left], ro[left], f[left], to[left], lo[left], hi[left]
            steps += len(o)
            lo, hi = np.where(f < 0, to, lo), np.where(f > 0, to, hi)
            # fit c + s / (dlo - eta) + S / (dhi - eta) to the value and slope
            # of the terms below and above the gap, and step to its root; the
            # terms below are negative and those above positive, so their
            # slopes are (d2 - d2s) / 2 and (d2 + d2s) / 2
            d2, d2s = np.square(ro) @ w, (ro * np.abs(ro)) @ w
            dlo, dhi = (ends[o] - to[:, None]).T
            add, mul = dlo + dhi, dlo * dhi
            c = f - 0.5 * (add * d2 + (dhi - dlo) * d2s)
            a = add * f - mul * d2
            b = mul * f
            disc = np.sqrt(np.maximum(a * a - 4.0 * b * c, 0.0))
            to = to + np.where(a > 0, 2.0 * b / (a + disc), (a - disc) / (2.0 * c))
            tau[o] = to = np.where((lo < to) & (to < hi), to, 0.5 * (lo + hi))
            ro = d0[o]
            ro -= to[:, None]
            r[o] = np.reciprocal(ro, out=ro)
        else:
            return None
    # Loewner: w_i = prod_j (mu_j - lam_i) / prod_{k != i} (lam_k - lam_i),
    # taken as n - 1 ratios in (0, 1), (lam_i - mu_j) / (lam_i - lam_k) with
    # k = j below i and k = j + 1 above, so the product cannot overflow.
    # Row i of inv less its diagonal holds 1 / (lam_k - lam_i) for exactly
    # those k, in order, so off.T / r is minus the ratios
    off = inv.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    zhat2 = np.abs(np.multiply.reduce(np.divide(off.T, r), 0))
    zhat = np.sqrt(zhat2)
    nu = np.sqrt(np.square(r) @ zhat2)
    s = np.multiply(r, zhat, out=r)
    s *= (1.0 / nu)[:, None]
    # Q[:-1] diag(phase(z)) s is one real product: the transposed complex
    # factor, viewed as reals, interleaves real and imaginary parts
    phase = np.conj(last) / abs_last
    rows_t = np.multiply(parent.eigenvectors[:-1].T, phase[:, None], order="C")
    q = (s @ rows_t.view(np.float64)).view(np.complex128).T
    return _Derivation(lam[k], tau, q, s.T, zhat, nu, phase, steps)


def _certify(parent: HermitianEig, d: _Derivation) -> Optional[_Bounds]:
    """Bounds for the derived pairs (d.mu, d.q), or None unless they prove
    the dense checks pass with half their tolerance to spare.  O(n^2) but
    the one real product s^T s.  This is the only way derived pairs are
    accepted: on None, `eig_hermitian` takes `eigh` instead.

    With P = [I 0] dropping the last row, l = Q[-1] and D = diag(phase)
    (|D| = I up to rounding), q is Y = P Q D s up to rounding Delta, and
    the block is C = P B P^T, so the parent's bounds carry over:

    * Y^H Y - I = (s^T s - I) - conj(g) g^T + s^T D^H (Q^H Q - I) D s, with
      g = s^T (D l), the last row of Q D s: it vanishes when D l = |l|;
    * column j of C Y - Y diag(mu) is P Q D r_j + (1 / nu_j + c g_j) h
      - g_j P B (I - Q Q^H) e_{n-1} plus the parent's residual carried
      through, where mu_j = origin_j + tau_j exactly, h = P Q Q^H
      e_{n-1} = P Q D conj(D l), c is any shift (the Rayleigh quotient of
      |l| is taken) and
      r_j = (lam - mu_j) s_j - conj(D l) / nu_j - g_j (lam - c) conj(D l).
      ||h|| = ||P (Q Q^H - I) e_{n-1}|| <= ||Q^H Q - I||, so the parent's
      orthonormality bound is taken for it, with no product.
      (lam - mu_j) s_j is zhat / nu_j to 8 u per entry: 1 / (lam_i - mu_j)
      was taken as 1 / (delta0 - tau) with |delta0 / (delta0 - tau)| <= 2,
      so delta0's rounding counts twice, and five roundings follow (delta0
      - tau, its reciprocal, the product with zhat, 1 / nu_j and the
      product with that).  So ||r_j|| <= (||zhat - conj(D l)|| + 8 u
      ||zhat||) / nu_j + |g_j| ||(lam - c) l||: O(1) per column once g is
      known.

    Delta covers two terms: D's rounding and Q[:-1] D (6 u |Q|: two
    divisions, then a complex product), and the real product of that with
    s (gamma_n |Q| |s|); its spectral norm is at most (gamma_n + 6 u)
    || |Q| || || |s| ||.  No rotation follows: q is stored as the product
    gives it, with the phases of D s.  The stored mu is origin + tau to
    u |mu|.  `_Bounds.recon` then bounds the reconstruction defect, and
    the maximum entry of a matrix is at most its spectral norm.  The dense
    check scales its tolerance by 1 + max |C|; the certificate by 1 + max
    |diag(C)|, an O(n) lower bound on it, read from the build that the
    parent's `_root` names, alive whenever `eig_hermitian` certifies.
    """
    (e_p, rho_p, abs_q_p, b), n = parent.bounds, parent.n
    lam, ell, s = parent.eigenvalues, parent.eigenvectors[-1], d.s
    gam, row = _gamma(n), math.sqrt(1.0 + e_p)  # row >= ||Q|| >= ||l||
    s_abs, abs_ell = np.abs(s), np.abs(ell)
    v = ell * d.phase
    # >= |g|: |D l - (D l)exact| <= 6 u |l|, and the product's rounding; the
    # real and imaginary parts of s^T v in one product, v viewed as reals
    g_re, g_im = (s.T @ v.view(np.float64).reshape(n, 2)).T
    g = np.hypot(g_re, g_im) + (6 * _U + gam) * (s_abs.T @ abs_ell)
    g_norm = math.sqrt(g @ g)
    abs_s = _abs_norm(s_abs)  # >= || |s| ||
    sts = s.T @ s
    sts.ravel()[:: n] -= 1.0  # sts is a fresh product: ravel is a view
    # s^T s - I is symmetric, so its 1-norm bounds its spectral norm; the
    # product's rounding is at most gamma |s|^T |s|, of 1-norm <= abs_s^2
    f = _SAFETY * (np.maximum.reduce(np.ones(n - 1) @ np.abs(sts, out=sts), initial=0.0)
                   + gam * abs_s**2)
    sig = math.sqrt(1.0 + f)  # >= ||s|| up to the roundings _UP covers
    y = row * sig  # >= ||Y||
    delta = abs_q_p * abs_s * (gam + 6 * _U)  # >= ||Delta||
    ortho = _UP * sig**2 * e_p + f + _SAFETY * (g_norm**2 + 2 * y * delta + delta**2)
    dz = float(np.linalg.norm(d.zhat - np.conj(v))) + 6 * _U * row
    # P Q D (c g_j conj(D l)) = c g_j h for any c, so lam may be shifted by c in r_j
    c = float(lam @ abs_ell**2 / (abs_ell @ abs_ell))
    lw = (lam - c) * abs_ell
    r = (dz + 8 * _U * math.sqrt(d.zhat @ d.zhat)) / d.nu + g * math.sqrt(lw @ lw)
    inv_nu = 1.0 / d.nu
    mu_max = max(abs(d.origin[0] + d.tau[0]), abs(d.origin[-1] + d.tau[-1]))  # mu ascends
    residual = _UP * rho_p * (sig + row * g_norm) + _SAFETY * (
        row * math.sqrt(r @ r) + e_p * (math.sqrt(inv_nu @ inv_nu) + abs(c) * g_norm)
        + b * e_p * g_norm + (b + mu_max) * delta + y * _U * mu_max)
    bounds = _Bounds(ortho, residual, _SAFETY * _abs_norm(np.abs(d.q)), b)
    scale = 1.0 + float(np.maximum.reduce(np.abs(parent._root().diagonal()[: n - 1].real),
                                          initial=0.0))
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
        x = X[s + 1 : s + n + 1]
        x[:] = q @ (phases * (q.T @ x.conj()).conj())
        rows[:, s] = x[0]
    return rows


# the bytes of decompositions a cache keeps for a later hit: a run's own
# return to an n, and reruns at small K on a shared cache (a full staircase
# at K = 64 leaves 1.3 MiB; at K = 256 it keeps n = 1..72); no command
# reuses a cache across runs
_CACHE_BUDGET = 2 << 20


def _nbytes(e: HermitianEig) -> int:
    return e.eigenvalues.nbytes + e.eigenvectors.nbytes


@dataclass
class PropagatorCache:
    """At-most-once eigendecomposition per (equation, n, digest), a memo
    bounded in bytes.

    A decomposition built with a `parent` one size up is derived from it
    and accepted on its certificate when it can be (`derived`;
    `secular_steps` sums the rational steps their roots took) and otherwise
    taken by `eigh` (`fallbacks`, a certificate's declines included);
    either way it counts as one decomposition.

    After each build, while the entries take more than `_CACHE_BUDGET`
    bytes in all, the largest, the oldest of equal size first, is
    *evicted*, dropped from the cache (`evictions`); that may be the entry
    just built, which is still returned.  A staircase on its own cache so
    ends holding its smallest decompositions, the last a rerun reaches.
    The cache does not know what a run still needs: a run's return to an
    evicted n decomposes it again.
    """

    _store: Dict[Tuple, HermitianEig] = field(default_factory=dict)
    _sizes: Dict[Tuple, int] = field(default_factory=dict, repr=False)  # bytes of each entry
    decompositions: int = 0
    hits: int = 0
    derived: int = 0
    fallbacks: int = 0
    secular_steps: int = 0
    evictions: int = 0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the cached decompositions: 16 n^2 + 8 n each."""
        return sum(self._sizes.values())

    def get_or_build(self, key: Tuple, factory: Callable[[], LaxMatrix],
                     parent: Optional[HermitianEig] = None) -> HermitianEig:
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        m = factory()
        built = self._store[key] = eig_hermitian(m, parent)
        self._sizes[key] = _nbytes(built)
        self.decompositions += 1
        self.derived += built.derived
        self.secular_steps += built.secular_steps  # 0 unless derived
        self.fallbacks += _derivable(m, parent) and not built.derived
        while self.nbytes > _CACHE_BUDGET:
            # max takes the first of equal sizes, and a dict iterates oldest first
            largest = max(self._sizes, key=self._sizes.get)
            del self._store[largest], self._sizes[largest]
            self.evictions += 1
        return built
