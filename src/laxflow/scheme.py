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
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import spectral
from .lax import Equation, data_digest
from .propagator import PropagatorCache, _gauge, advance
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
        values = self.values.tolist() if isinstance(self.values, np.ndarray) else self.values
        # a cast would run 2.5 as 2, "3" as 3 and True as 1
        if not all(map(spectral._is_integer, values)):
            raise ValueError(f"truncation parameters must be integers, got {self.values!r}")
        v = np.array(values, dtype=np.int64)
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
        values = custom_values
    schedule = Schedule(K, kind, values)
    if schedule.values[0] == 0:
        warnings.warn(
            "schedule has n(0) = 0: the zero mode is truncated away and the "
            "mean of the data is not preserved",
            stacklevel=2,
        )
    return schedule


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


def _physical_memory() -> float:
    """Bytes of memory this process may use: the machine's physical memory,
    or its cgroup's memory limit when that is lower; inf where neither can
    be read (no `os.sysconf`, no cgroup), so the preflight check is skipped."""
    try:
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        phys = math.inf
    return min(phys, _cgroup_memory_limit())


def _cgroup_memory_limit(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """The lowest memory limit set on this process's cgroup or an ancestor:
    `memory.max` (v2, mounted at root or root/unified) or
    `memory.limit_in_bytes` (v1, under root/memory); inf if none is read."""
    try:
        with open(proc) as f:
            lines = f.read().splitlines()
    except OSError:
        return math.inf
    limits = [math.inf]
    for line in lines:
        controllers, _, path = line.partition(":")[2].partition(":")
        if controllers == "":
            files = [(root, "memory.max"), (os.path.join(root, "unified"), "memory.max")]
        elif "memory" in controllers.split(","):
            files = [(os.path.join(root, "memory"), "memory.limit_in_bytes")]
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for base, name in files:
            for depth in range(len(parts) + 1):
                try:
                    with open(os.path.join(base, *parts[:depth], name)) as f:
                        limits.append(int(f.read()))
                except (OSError, ValueError):  # absent, or "max": no limit
                    pass
    return min(limits)


def run_scheme(cfg: SchemeConfig, cache: Optional[PropagatorCache] = None) -> SchemeOutput:
    """Evaluate the scheme at every configured time.

    All times share one pass over k: the iterates for distinct t are columns
    of one (M + K) x T buffer, row j of u^k at row k + j, so S* moves no
    data and u^K is the window one row on.  The steps k >= 1 are taken in
    maximal runs of equal n(k), one cached decomposition each of L_n, sliced
    from the one Lax build at the largest n(k) (`LaxMatrix.truncated`) on
    the first cache miss: O(n^3) for the n x n block, held as n^2 complex
    numbers.  A run at n one below the run before it (the full staircase)
    derives its decomposition from that run's (`propagator.eig_hermitian`).
    `propagator.advance` takes each run's steps on the block rows 0..n-1;
    the tail rows are kept in the gauge e^{i alpha t j^2} x_j, where a step
    is the shift alone (j^2 + 1 + 2j = (j + 1)^2), and change basis only
    where n does, in one multiply per run (none on a full staircase).  A run
    at n = 0 reads its zero modes off the buffer and decomposes nothing.
    Gauge phases are within a few u of exact at any t for M <= 2^13
    (`propagator._gauge`); the block's round t (1 + 2 lambda) once a step.

    After the last run of each n the cache is told that the entry is
    finished (`PropagatorCache.release`), so it keeps finished entries
    only within its byte budget: a staircase holds at most two live
    decompositions, the one in use and its parent, plus 2 MiB of finished
    ones (`propagator._CACHE_BUDGET`).  Before any work, ValueError when
    the least the run must hold at once, the Lax build and one
    decomposition at the largest n(k), the buffer and the coefficients,
    exceeds the memory the process may use (`_physical_memory`: physical
    memory, or the cgroup limit when lower).
    """
    sched = cfg.schedule
    K = sched.K
    M = sched.ambient_size
    T = len(cfg.times)
    n_max = int(sched.values[1:].max(initial=0))
    need, have = 16 * (2 * n_max**2 + (M + K) * T + T * K), _physical_memory()
    if need > have:
        raise ValueError(f"the run needs at least {need / 2**30:.3g} GiB at once, more "
                         f"than the {have / 2**30:.3g} GiB of physical memory or "
                         f"cgroup limit")
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

    seed = truncate(hardy0, int(sched.values[0]))
    seed_norm = l2_norm(seed)

    coeffs = np.zeros((T, K), dtype=np.complex128)
    buf = np.tile(seed.padded(M + K)[:, None], (1, T))
    coeffs[:, 0] = buf[0]

    def regauge(k, was, n, steps):
        """Phase the rows of u^{k-1} whose basis changes for a run at n after `was`."""
        j = np.arange(min(n, was), min(max(was, n + steps), M))
        m = np.sign(was - n) * j * j * (j < max(n, was)) - n * n * ((n <= j) & (j < n + steps))
        if m.any():
            buf[k - 1 + j] *= _gauge(cfg.times, eq.alpha, m)

    # built on the first cache miss only: a rerun that hits throughout builds nothing
    lax = functools.cache(lambda: eq.build_lax(u0, n_max))
    runs = [(n, len(list(run))) for n, run in itertools.groupby(sched.values[1:].tolist())]
    last = {n: i for i, (n, _) in enumerate(runs)}
    k, eig, was = 1, None, int(sched.values[0])
    for i, (n, steps) in enumerate(runs):
        regauge(k, was, n, steps)
        if n == 0:
            coeffs[:, k : k + steps] = buf[k : k + steps].T
        else:
            # each run's decomposition is the next one's parent, derived from
            # it on a staircase n -> n - 1 and kept alive by eig past evictions;
            # the block depends on the data and n alone, so runs of any K share it
            key = (eq.name, n, digest)
            eig = cache.get_or_build(key, lambda: lax().truncated(n), parent=eig)
            coeffs[:, k : k + steps] = advance(eig, cfg.times, eq.alpha,
                                               buf[k - 1 : k - 1 + n + steps], steps)
            if last[n] == i:
                cache.release(key)
        k, was = k + steps, n

    # u^K = S* u^{K-1}, the window one row on, in the standard basis
    regauge(K, was, M, 0)

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
        final_iterate=buf[K:],
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
