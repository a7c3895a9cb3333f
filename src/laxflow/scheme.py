"""The explicit-formula iteration with truncation schedules.

For K frequencies and truncation parameters n(k), the scheme reads

    u^0 = Pi_{n(0)} u0,
    u^k = e^{i alpha t (I + 2 L_{n(k)})} S* u^{k-1},   1 <= k < K,
    uhat_K(t, k) = <u^k, 1>,

with alpha = +1 (BO) or -1 (CCM).  Time enters only through the phases of
the cached eigendecompositions, so every time point is an independent,
exact-in-time evaluation; there is no time stepping.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import spectral
from .lax import Equation, data_digest
from .propagator import PropagatorCache, advance
from .spectral import (
    HardyVector,
    InitialProfile,
    RealSpectrum,
    l2_norm,
    project_hardy,
    truncate,
)

__all__ = [
    "Schedule",
    "SchemeConfig",
    "SchemeOutput",
    "make_schedule",
    "iterate_size",
    "run_scheme",
    "mass",
    "hardy_l2",
    "full_l2",
]

SCHEDULE_KINDS = ("constant", "linear-case", "half-staircase", "full-staircase", "custom")

FOCUSING_MARGIN = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Truncation parameters n(k), 0 <= k < K, plus the frequency count K."""

    K: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.int64)
        if self.K < 1 or len(v) != self.K:
            raise ValueError("schedule needs exactly K values, K >= 1")
        if np.any(v < 0):
            raise ValueError("truncation parameters must be nonnegative")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def l2_preserving(self) -> bool:
        """True iff n(k) <= K - k for all k, the exact-preservation condition."""
        k = np.arange(self.K)
        return bool(np.all(self.values <= self.K - k))

    @property
    def ambient_size(self) -> int:
        return int(max(self.values.max(), 1))


def make_schedule(kind: str, K: int, custom_values: Optional[Sequence[int]] = None) -> Schedule:
    """Build one of the named truncation schedules.

    constant: n(k) = K; linear-case: n(0) = K, then 0; half-staircase:
    n(k) = K//2 for k <= K//2 else 0; full-staircase: n(k) = K - k.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    k = np.arange(K)
    if kind == "constant":
        values = np.full(K, K)
    elif kind == "linear-case":
        values = np.where(k == 0, K, 0)
    elif kind == "half-staircase":
        values = np.where(k <= K // 2, K // 2, 0)
    elif kind == "full-staircase":
        values = K - k
    else:
        if custom_values is None or len(custom_values) != K:
            raise ValueError("custom schedule needs exactly K values")
        values = np.asarray(custom_values, dtype=np.int64)
    spectral.warn_zero_seed_truncation(int(values[0]))
    return Schedule(K, kind, values)


def iterate_size(sched: Schedule, k: int) -> int:
    """Frequency support of the k-th iterate: max_l (n(l) - (k - l)), floored at 0."""
    if not 0 <= k < sched.K:
        raise ValueError("iteration index out of range")
    ls = np.arange(k + 1)
    return int(max(int(np.max(sched.values[: k + 1] - (k - ls))), 0))


@dataclass(frozen=True)
class SchemeConfig:
    """One scheme run: equation, schedule, evaluation times and data."""

    equation: str  # "BO", "CCM-focusing", "CCM-defocusing"
    schedule: Schedule
    times: np.ndarray
    u0: Union[InitialProfile, RealSpectrum, HardyVector]
    override_focusing_threshold: bool = False

    def __post_init__(self):
        Equation.named(self.equation)
        t = np.array(self.times, dtype=np.float64)
        if t.size == 0:
            raise ValueError("times must not be empty")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        # outputs are looked up by exact time, so each time must name one column
        if len(np.unique(t)) != len(t):
            raise ValueError("times must be distinct")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)


@dataclass
class SchemeOutput:
    """Coefficients uhat_K(t, k) for all requested times plus run metadata."""

    equation: str
    schedule: Schedule
    times: np.ndarray
    coeffs: np.ndarray  # shape (len(times), K)
    seed_norm: float  # ||Pi_{n(0)} u0||
    data_digest: str
    final_iterate: np.ndarray  # shape (M, len(times)), the vector u^K
    decompositions: int
    cache: PropagatorCache = field(repr=False, default_factory=PropagatorCache)

    def time_index(self, t: float) -> int:
        hits = np.nonzero(self.times == t)[0]
        if len(hits) == 0:
            raise KeyError(f"time {t!r} was not computed")
        return int(hits[0])

    def hardy(self, t: float) -> HardyVector:
        """Scheme output at time t as a Hardy vector (CCM view)."""
        return HardyVector(self.coeffs[self.time_index(t)])

    def real_spectrum(self, t: float) -> RealSpectrum:
        """Scheme output at time t symmetrized to a real field (BO only)."""
        if self.equation != "BO":
            raise ValueError("real_spectrum is only defined for BO output")
        return RealSpectrum.from_hardy_part(self.coeffs[self.time_index(t)], self.schedule.K)


def _resolve_data(cfg: SchemeConfig, eq: Equation):
    """Materialize initial data; returns (hardy seed source, lax data)."""
    K = cfg.schedule.K
    u0 = cfg.u0
    if isinstance(u0, InitialProfile):
        u0 = spectral.analyze_profile(u0, K, hardy=eq.hardy)
    if eq.hardy:
        if isinstance(u0, RealSpectrum):
            raise TypeError("CCM data must live in the Hardy space")
        return truncate(u0, K), u0
    if isinstance(u0, HardyVector):
        u0 = RealSpectrum.from_hardy_part(u0.coeffs, K)
    u0.check_symmetry()
    return project_hardy(u0), u0


def run_scheme(cfg: SchemeConfig, cache: Optional[PropagatorCache] = None) -> SchemeOutput:
    """Evaluate the scheme at every configured time.

    All times share one pass over k: the iterates for distinct t are columns
    of one M x T matrix.  The steps k >= 1 are taken in maximal runs of equal
    n(k), one cached decomposition each of L_n, sliced from the one Lax build
    at the largest n(k) (`LaxMatrix.truncated`) on the first cache miss:
    O(n^3) for the n x n block, held as n^2 complex numbers.  A run at n one
    below the run before it (the full staircase) derives its decomposition
    from that run's, at O(n^2) plus one real n x n by n x 2n product
    (`propagator.eig_hermitian`).
    On the block a long run costs one product W = Q^H S* Q and then one
    n x n by n x T product per step in the eigenbasis; a short run takes two
    such products per step in the standard basis.  The tail rows n..M-1
    take their phases elementwise (see `propagator.advance`).
    """
    sched = cfg.schedule
    K = sched.K
    eq = Equation.named(cfg.equation)
    hardy0, u0 = _resolve_data(cfg, eq)

    if eq.sign == "focusing" and not cfg.override_focusing_threshold:
        if l2_norm(u0) >= 1.0 - FOCUSING_MARGIN:
            raise ValueError(
                "focusing CCM requires ||u0|| < 1 (got %.6f); pass "
                "override_focusing_threshold to explore anyway" % l2_norm(u0)
            )

    digest = data_digest(u0)
    if cache is None:
        cache = PropagatorCache()
    decomp_before = cache.decompositions

    M = sched.ambient_size
    T = len(cfg.times)
    seed = truncate(hardy0, int(sched.values[0]))
    seed_norm = l2_norm(seed)

    coeffs = np.zeros((T, K), dtype=np.complex128)
    V = np.tile(seed.padded(M)[:, None], (1, T))
    coeffs[:, 0] = V[0, :]

    # built on the first cache miss only: a rerun that hits throughout builds nothing
    lax = functools.cache(lambda: eq.build_lax(u0, int(sched.values[1:].max(initial=0)), M))
    k, eig = 1, None
    for n, run in itertools.groupby(sched.values[1:].tolist()):
        steps = len(list(run))
        # each run's decomposition is the next run's parent: on a staircase
        # n -> n - 1 it is derived instead of decomposed afresh
        key = (eq.name, n, M, digest)
        eig = cache.get_or_build(key, lambda: lax().truncated(n), parent=eig)
        coeffs[:, k : k + steps], V = advance(eig, cfg.times, eq.alpha, V, steps)
        k += steps

    # one more shift yields u^K up to a unitary factor; its norm and support
    # are what the exact-preservation property constrains
    V[:-1, :] = V[1:, :]
    V[-1, :] = 0.0

    if not eq.hardy:
        # mass is conserved exactly real; scrub the residual rounding phase
        bad = np.abs(coeffs[:, 0].imag) > 1e-10
        if np.any(bad):
            raise RuntimeError(
                "BO zero mode acquired an imaginary part at t="
                f"{cfg.times[bad][0]!r}; scheme bug upstream"
            )
        coeffs[:, 0] = coeffs[:, 0].real

    return SchemeOutput(
        equation=cfg.equation,
        schedule=sched,
        times=cfg.times,
        coeffs=coeffs,
        seed_norm=seed_norm,
        data_digest=digest,
        final_iterate=V,
        decompositions=cache.decompositions - decomp_before,
        cache=cache,
    )


def mass(out: SchemeOutput, t: float) -> float:
    """Mean of the field: the real part of uhat_K(t, 0)."""
    return float(out.coeffs[out.time_index(t), 0].real)


def hardy_l2(out: SchemeOutput, t: float) -> float:
    """||Pi u_K(t)||: the l2 norm of the nonnegative-frequency output."""
    return float(np.linalg.norm(out.coeffs[out.time_index(t)]))


def full_l2(out: SchemeOutput, t: float) -> float:
    """Two-sided L2 norm of the symmetrized BO field."""
    if out.equation != "BO":
        raise ValueError("full_l2 applies to BO output; use hardy_l2 for CCM")
    i = out.time_index(t)
    h = np.linalg.norm(out.coeffs[i])
    c0 = out.coeffs[i, 0].real
    return float(np.sqrt(max(2.0 * h * h - c0 * c0, 0.0)))
