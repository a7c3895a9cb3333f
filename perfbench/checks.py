"""Output checks, run outside the timed region of each operation.

Each check returns a list of failure messages; an empty list is a pass.
The low-mode check recomputes the first coefficients through a path that
shares no code with `laxflow.propagator`: the Lax matrices are built here
by index arithmetic and exponentiated with `scipy.linalg.expm`, where the
program diagonalises them with `eigh`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.linalg

# the acceptance suite's tolerances for the same properties
MASS_TOL = 1e-12
L2_TOL = 1e-10
FREE_FLOW_TOL = 1e-10
EXPM_TOL = 1e-9
LOW_MODES = 8


def lax_matrix(hardy, equation, n, M):
    """Truncated Lax matrix: diag(0..M-1) plus the n x n potential block."""
    L = np.diag(np.arange(M, dtype=np.complex128))
    h = np.zeros(n, dtype=np.complex128)
    h[: min(n, len(hardy))] = hardy[:n]
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    c = h[np.abs(diff)]
    if equation == "BO":
        # Toeplitz block c(j - l) of a real field, where c(-k) = conj(c(k))
        L[:n, :n] -= np.where(diff >= 0, c, np.conj(c))
    else:
        # Gram block A A^H of the lower-triangular Toeplitz A[j, m] = c(j - m)
        A = np.where(diff >= 0, c, 0.0)
        gram = A @ A.conj().T
        L[:n, :n] += gram if equation == "CCM-defocusing" else -gram
    return L


def low_modes_by_expm(hardy, equation, schedule, t, count=LOW_MODES):
    """uhat(t, k) for k < count by u^k = expm(i alpha t (I + 2 L_n(k))) S* u^(k-1)."""
    M = max(int(max(schedule)), 1)
    alpha = 1 if equation == "BO" else -1
    v = np.zeros(M, dtype=np.complex128)
    n0 = min(int(schedule[0]), len(hardy), M)
    v[:n0] = hardy[:n0]
    groups = {}
    out = [v[0]]
    for k in range(1, min(count, len(schedule))):
        n = int(schedule[k])
        if n not in groups:
            A = np.eye(M) + 2.0 * lax_matrix(hardy, equation, n, M)
            groups[n] = scipy.linalg.expm(1j * alpha * t * A)
        v = groups[n] @ np.concatenate([v[1:], [0.0]])
        out.append(v[0])
    return np.array(out)


def scheme_output(coeffs, times, hardy, equation, schedule, check_index,
                  final_iterate=None):
    """Structural checks on the (times, K) coefficients of one scheme run.

    `hardy` holds the data's k >= 0 coefficients; `final_iterate` (M, times)
    is u^K when the caller has it. On an L2-preserving schedule without it,
    u^K = 0 is used, which is what exact preservation means.
    """
    fails = []
    K = len(schedule)
    n0 = int(schedule[0])
    seed_norm = float(np.linalg.norm(hardy[:n0]))
    norms = np.linalg.norm(coeffs, axis=1)
    if n0 >= 1:
        drift = np.max(np.abs(coeffs[:, 0].real - hardy[0].real))
        if drift > MASS_TOL:
            fails.append(f"mass drift {drift:.3e} > {MASS_TOL:g}")
    excess = np.max(norms - seed_norm)
    if excess > L2_TOL:
        fails.append(f"Hardy L2 exceeds the seed norm by {excess:.3e}")
    if np.all(np.asarray(schedule) <= K - np.arange(K)):
        tail = 0.0 if final_iterate is None else np.linalg.norm(final_iterate, axis=0) ** 2
        defect = np.max(np.abs(tail + norms**2 - seed_norm**2))
        if defect > L2_TOL:
            fails.append(f"telescoping identity off by {defect:.3e}")
    t = float(times[check_index])
    expect = low_modes_by_expm(hardy, equation, schedule, t)
    err = np.max(np.abs(coeffs[check_index, : len(expect)] - expect))
    if not err <= EXPM_TOL:
        fails.append(f"low modes differ from the expm path by {err:.3e} at t={t!r}")
    return fails


def free_flow(hardy, t):
    """BO linear flow: uhat(t, k) = exp(i t k^2) uhat(0, k) for k >= 0."""
    k = np.arange(len(hardy))
    return np.exp(1j * t * k**2) * hardy


def real_samples(hardy, xs):
    """Real field sum_k c(k) e^{ikx} from its k >= 0 coefficients."""
    k = np.arange(len(hardy))
    vals = np.exp(1j * np.outer(xs, k[1:])) @ hardy[1:]
    return hardy[0].real + 2.0 * vals.real


def read_coefficients(path, K):
    """Parse a t,k,re,im CSV into (times, (times, K) coefficients)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times, row = np.unique(data[:, 0], return_inverse=True)
    coeffs = np.zeros((len(times), K), dtype=np.complex128)
    coeffs[row, data[:, 1].astype(int)] = data[:, 2] + 1j * data[:, 3]
    return times, coeffs


def manifest_digests(outdir):
    """Digests the manifest records, after checking them against the files."""
    outdir = Path(outdir)
    files = json.loads((outdir / "manifest.json").read_text())["files"]
    fails = [f"manifest digest of {name} does not match the file"
             for name, digest in files.items()
             if hashlib.sha256((outdir / name).read_bytes()).hexdigest() != digest]
    return files, fails
