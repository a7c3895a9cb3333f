"""The dense M x M matrix of a block-plus-tail Lax operator, for test references."""

import numpy as np


def dense_matrix(m, M):
    """m.block in the leading n x n corner, then the diagonal tail n..M-1."""
    e = np.diag(np.arange(M, dtype=np.complex128))
    e[: m.n, : m.n] = m.block
    return e
