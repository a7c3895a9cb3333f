"""Truncated Lax operators as finite Hermitian matrices.

The operators act on coefficient vectors over the frequencies 0, 1, 2, ...
The derivative part is never truncated: rows and columns at or beyond the
truncation parameter n carry only the diagonal entry j, matching the
analysis of the scheme.  A `LaxMatrix` therefore stores only its dense
n x n block; the tail diag(n, n + 1, ...) is implicit and exact, and a
caller working on the window [0, M) reads it off its own M.  The blocks are

* BO:  diag(0..n-1) - B with B[j, l] = u0hat(j - l) (Hermitian Toeplitz);
* CCM: diag(0..n-1) -/+ G for the focusing/defocusing sign, G = A A^H with
  A[j, m] = u0hat(j - m) lower-triangular Toeplitz.

Both Toeplitz matrices come from `mult_matrix`, which copies the data's
coefficients out of a strided numpy view; no entry is computed.  A being
lower triangular, the block at n is the leading block of the one at any
larger size: `LaxMatrix.truncated` slices every L_n = Pi_n L Pi_n from one
build.  `EQUATIONS` maps each equation name to its `Equation` record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import HardyVector, RealSpectrum

__all__ = [
    "Equation",
    "EQUATIONS",
    "LaxMatrix",
    "build_bo_lax",
    "build_ccm_lax",
    "mult_matrix",
    "hermitian_defect",
    "data_digest",
]


@dataclass(frozen=True)
class Equation:
    """One of the three schemes u^k = e^{i alpha t (I + 2 L_n)} S* u^{k-1}.

    They differ only in the sign alpha, the data space (real L2 for BO,
    the Hardy space L2_+ for CCM) and the potential block of the Lax
    operator (the Toeplitz block for BO, -/+ the Gram block for CCM).
    """

    name: str  # "BO", "CCM-focusing", "CCM-defocusing"
    family: str  # "BO" or "CCM"
    sign: Optional[str]  # "focusing" / "defocusing", CCM only
    alpha: int

    @classmethod
    def named(cls, name: str) -> "Equation":
        if not isinstance(name, str) or name not in EQUATIONS:
            raise ValueError(f"unknown equation {name!r}")
        return EQUATIONS[name]

    @property
    def hardy(self) -> bool:
        """True iff the data live in the Hardy space rather than real L2."""
        return self.family == "CCM"

    def build_lax(self, u0, n: int) -> "LaxMatrix":
        # the builders are looked up by name at each call, so a wrapper
        # installed on the module (a tracer, say) sees every build
        if self.family == "BO":
            return build_bo_lax(u0, n)
        return build_ccm_lax(u0, n, self.sign)


EQUATIONS = {
    e.name: e
    for e in (
        Equation("BO", "BO", None, 1),
        Equation("CCM-focusing", "CCM", "focusing", -1),
        Equation("CCM-defocusing", "CCM", "defocusing", -1),
    )
}


def data_digest(u0) -> str:
    """Stable identifier of the initial data's coefficient bytes."""
    h = hashlib.sha256()
    h.update(type(u0).__name__.encode())
    h.update(np.ascontiguousarray(u0.coeffs).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class LaxMatrix:
    """Truncated Lax operator: a Hermitian n x n block, then diag(n, n + 1, ...)."""

    block: np.ndarray
    equation: Equation

    def __post_init__(self):
        b = _read_only(self.block, np.complex128)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"block shape {b.shape} is not square")
        object.__setattr__(self, "block", b)

    @property
    def n(self) -> int:
        return len(self.block)

    def truncated(self, n: int) -> "LaxMatrix":
        """L_n = Pi_n L Pi_n: the leading n x n block, then diag(n, n + 1, ...).

        The block is a read-only view of this one, not a copy.
        """
        if not 0 <= n <= self.n:
            raise ValueError(f"truncation parameter n={n} outside [0, {self.n}]")
        return LaxMatrix(self.block[:n, :n], self.equation)


def _read_only(a, dtype) -> np.ndarray:
    """a itself if it is already a read-only array of dtype, else a read-only copy.

    Views of a read-only array are read-only, so slices of one build are
    kept as they are.
    """
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        return a
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def mult_matrix(u0, n: int) -> np.ndarray:
    """Multiplication by u0 compressed to [0, n): the Toeplitz U[j, l] = u0hat(j - l).

    For a real field u0hat(-l) = conj(u0hat(l)), exact by symmetry; for
    Hardy data U is lower triangular.  With vals[k + n - 1] = u0hat(k) for
    |k| < n, U[j, l] = vals[n - 1 + j - l]: the rows of U are the reversed
    length-n windows of vals, copied, so no entry is computed.
    """
    if n < 0:
        raise ValueError(f"truncation parameter n={n} is negative")
    real = isinstance(u0, RealSpectrum)
    col = HardyVector(u0.hardy_part() if real else u0.coeffs).padded(n)
    row = np.conj(col) if real else np.zeros_like(col)
    vals = np.concatenate([row[:0:-1], col])
    # [:n]: at n = 0 there is one empty window, and the block must be 0 x 0
    return sliding_window_view(vals, n)[:n, ::-1].copy()


def build_bo_lax(u0: RealSpectrum, n: int) -> LaxMatrix:
    """BO Lax matrix: diag(0..n-1) minus the n x n Toeplitz block of u0."""
    u0.check_symmetry()
    block = np.diag(np.arange(n, dtype=np.complex128)) - mult_matrix(u0, n)
    return LaxMatrix(block, EQUATIONS["BO"])


def build_ccm_lax(u0: HardyVector, n: int, sign: str) -> LaxMatrix:
    """CCM Lax matrix: diag(0..n-1) -/+ the n x n Gram block A A^H."""
    if sign not in ("focusing", "defocusing"):
        raise ValueError("sign must be 'focusing' or 'defocusing'")
    a = mult_matrix(u0, n)
    gram = a @ a.conj().T
    # re-symmetrize so the Hermitian invariant holds bit-exactly
    gram = 0.5 * (gram + gram.conj().T)
    block = np.diag(np.arange(n, dtype=np.complex128))
    block = block - gram if sign == "focusing" else block + gram
    return LaxMatrix(block, EQUATIONS["CCM-" + sign])


def hermitian_defect(m: LaxMatrix) -> float:
    """max |E[j,l] - conj(E[l,j])|; zero for matrices built here.

    The diagonal tail is real, so only the block can carry a defect.
    """
    b = m.block
    return float(np.max(np.abs(b - b.conj().T))) if b.size else 0.0
