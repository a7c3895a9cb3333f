"""Truncated Lax operators as finite Hermitian matrices.

At ambient size M the operators act on coefficient vectors over the
frequency window [0, M).  The derivative part is never truncated: rows and
columns at or beyond the truncation parameter n carry only the diagonal
entry j, matching the analysis of the scheme.  A `LaxMatrix` therefore
stores only its dense n x n block; the tail diag(n..M-1) is implicit and
exact.  The potential blocks are

* BO:  B[j, l] = u0hat(j - l) for j, l < n (Hermitian Toeplitz), and the
  operator is diag(0..M-1) - B;
* CCM: G = A A^H with A[j, m] = u0hat(j - m) lower-triangular Toeplitz on
  the n x n block, and the operator is diag(0..M-1) -/+ G for the
  focusing/defocusing sign.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .spectral import HardyVector, RealSpectrum

__all__ = [
    "LaxMatrix",
    "FreeResolvent",
    "build_bo_lax",
    "build_ccm_lax",
    "apply_free_resolvent",
    "hermitian_defect",
    "dump_matrix",
    "data_digest",
]


def data_digest(u0) -> str:
    """Stable identifier of the initial data's coefficient bytes."""
    h = hashlib.sha256()
    h.update(type(u0).__name__.encode())
    h.update(np.ascontiguousarray(u0.coeffs).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class LaxMatrix:
    """Truncated Lax operator on [0, M): a Hermitian n x n block, then diag(n..M-1)."""

    block: np.ndarray
    equation: str  # "BO" or "CCM"
    n: int
    M: int
    data_digest: str
    sign: Optional[str] = None  # "focusing" / "defocusing", CCM only

    def __post_init__(self):
        _check_sizes(self.n, self.M)
        b = np.array(self.block, dtype=np.complex128)
        if b.shape != (self.n, self.n):
            raise ValueError(f"block shape {b.shape} != ({self.n}, {self.n})")
        b.flags.writeable = False
        object.__setattr__(self, "block", b)

    @property
    def entries(self) -> np.ndarray:
        """Dense M x M matrix, built on each access."""
        e = np.diag(np.arange(self.M, dtype=np.complex128))
        e[: self.n, : self.n] = self.block
        return e

    @property
    def cache_key(self):
        return (self.equation, self.sign, self.n, self.M, self.data_digest)


@dataclass(frozen=True)
class FreeResolvent:
    """Diagonal resolvent R0(kappa) = (L0 + kappa)^{-1} on [0, M)."""

    kappa: float
    M: int

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")

    def diagonal(self) -> np.ndarray:
        return 1.0 / (np.arange(self.M) + self.kappa)


def _check_sizes(n: int, M: int) -> None:
    if M < 1:
        raise ValueError("ambient size M must be >= 1")
    if not 0 <= n <= M:
        raise ValueError(f"truncation parameter n={n} outside [0, M={M}]")


def build_bo_lax(u0: RealSpectrum, n: int, M: int) -> LaxMatrix:
    """BO Lax matrix diag(0..M-1) minus the n x n Toeplitz block of u0."""
    _check_sizes(n, M)
    u0.check_symmetry()
    block = np.diag(np.arange(n, dtype=np.complex128))
    if n > 0:
        col = np.array([u0.coeff(j) for j in range(n)])
        # row entries are u0hat(-l) = conj(u0hat(l)), exact by symmetry
        block -= scipy.linalg.toeplitz(col, np.conj(col))
    return LaxMatrix(block, "BO", n, M, data_digest(u0))


def build_ccm_lax(u0: HardyVector, n: int, M: int, sign: str) -> LaxMatrix:
    """CCM Lax matrix diag(0..M-1) -/+ the Gram block A A^H."""
    _check_sizes(n, M)
    if sign not in ("focusing", "defocusing"):
        raise ValueError("sign must be 'focusing' or 'defocusing'")
    block = np.diag(np.arange(n, dtype=np.complex128))
    if n > 0:
        col = u0.padded(n)
        a = scipy.linalg.toeplitz(col, np.zeros(n, dtype=np.complex128))
        gram = a @ a.conj().T
        # re-symmetrize so the Hermitian invariant holds bit-exactly
        gram = 0.5 * (gram + gram.conj().T)
        if sign == "focusing":
            block -= gram
        else:
            block += gram
    return LaxMatrix(block, "CCM", n, M, data_digest(u0), sign=sign)


def apply_free_resolvent(r: FreeResolvent, v) -> np.ndarray:
    """Apply R0(kappa): divide mode k by (k + kappa)."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape[0] != r.M:
        raise ValueError(f"vector length {v.shape[0]} != ambient size {r.M}")
    return (v.T * r.diagonal()).T


def hermitian_defect(m: LaxMatrix) -> float:
    """max |E[j,l] - conj(E[l,j])|; zero for matrices built here.

    The diagonal tail is real, so only the block can carry a defect.
    """
    b = m.block
    return float(np.max(np.abs(b - b.conj().T))) if b.size else 0.0


def dump_matrix(m: LaxMatrix, path, fmt: str = "csv") -> None:
    """Debug dump, row-major; csv cells are "re,im" pairs."""
    if fmt == "npy":
        np.save(path, m.entries)
        return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in m.entries:
            w.writerow([f"{z.real:.17g},{z.imag:.17g}" for z in row])
