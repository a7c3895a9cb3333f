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
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import propagator, spectral
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
        values = self.values
        # a cast would run 2.5 as 2, "3" as 3 and True as 1: an int array passes by its
        # dtype, in O(1) Python work at any K, anything else value by value (a list too,
        # since np.asarray([1, True]) is an int array)
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"
                or all(map(spectral._is_integer, values))):
            raise ValueError(f"truncation parameters must be integers, got {values!r}")
        v = np.array(values, dtype=np.int64)
        if self.K < 1 or v.ndim != 1 or len(v) != self.K:
            raise ValueError("schedule needs exactly K values, K >= 1, in one dimension")
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

    @property
    def runs(self) -> tuple:
        """The maximal runs of equal n(k), k >= 1: two int arrays, each run's n and its
        number of steps, found in numpy at any K."""
        v = self.values[1:]
        starts = np.flatnonzero(np.diff(v, prepend=-1))
        return v[starts], np.diff(starts, append=len(v))


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


@dataclass(frozen=True)
class SchemeConfig:
    """One scheme run: equation, schedule, evaluation times and data, which
    `run_scheme` reads through `Equation.data` at the schedule's K."""

    equation: str  # "BO", "CCM-focusing", "CCM-defocusing"
    schedule: Schedule
    times: np.ndarray
    u0: Union[InitialProfile, RealSpectrum, HardyVector]
    override_focusing_threshold: bool = False

    def __post_init__(self):
        Equation.named(self.equation)
        t = np.array(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError(f"times must be one-dimensional and not empty, got shape {t.shape}")
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


def _physical_memory() -> float:
    """Bytes of memory this process may use: the machine's physical memory,
    or its cgroup's memory limit when that is lower; inf where neither can
    be read (no `os.sysconf`, no cgroup), so the preflight check is skipped."""
    try:
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        phys = math.inf
    return min(phys, _cgroup_memory_limit())


def _check_memory(need: float, what: str) -> None:
    """ValueError when `what` needs more bytes at once than `_physical_memory`."""
    have = _physical_memory()
    if need > have:
        raise ValueError(f"{what} needs at least {need / 2**30:.3g} GiB at once, more than "
                         f"the {have / 2**30:.3g} GiB of physical memory or cgroup limit")


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
    Gauge phases are within a few u of exact at any t for M <= 2^26
    (`propagator._gauge`); the block's round t (1 + 2 lambda) once a step.

    Every run at n >= 1 takes its decomposition from the cache, a memo
    within a byte budget (`propagator._CACHE_BUDGET`, 2 MiB): a return to
    an n is a hit while its entry is cached and is decomposed again once
    evicted.  The run itself holds only the decomposition in use, the next
    run's parent.  Before any work, ValueError when the run's measured
    peak, 8 n x n complex arrays at the largest n(k), 4 (M + K) x T and the
    cache's budget, exceeds the memory the process may use
    (`_check_memory`: physical memory, or the cgroup limit when lower).
    """
    sched = cfg.schedule
    K = sched.K
    M = sched.ambient_size
    T = len(cfg.times)
    n_max = int(sched.values[1:].max(initial=0))
    # the peak by tracemalloc (each family and kind, K = 16..512, T = 1..4000): 5.5 n x n
    # complex arrays at n_max, 3.85 (M + K) x T (the buffer, the coefficients, gauge phases)
    # and the cache; counted with 2 n x n more for zheevd's workspace, which it does not see
    _check_memory(16 * (8 * n_max**2 + 4 * (M + K) * T) + propagator._CACHE_BUDGET, "the run")
    eq = Equation.named(cfg.equation)
    u0 = eq.data(cfg.u0, K)

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

    seed = truncate(truncate(u0, K) if eq.hardy else project_hardy(u0), int(sched.values[0]))
    seed_norm = l2_norm(seed)

    coeffs = np.zeros((T, K), dtype=np.complex128)
    buf = np.tile(seed.padded(M + K)[:, None], (1, T))
    coeffs[:, 0] = buf[0]

    def regauge(k, was, n, steps):
        """Phase the rows of u^{k-1} whose basis changes for a run at n after `was`."""
        # m_j, lo <= j < hi: +j^2 on the rows that leave the block (n < was), -j^2 on
        # those that join it (n > was), less n^2 on each row the run takes in
        lo, top, hi = min(n, was), max(n, was), min(max(was, n + steps), M)
        j = np.arange(lo, top)
        m = np.zeros(hi - lo, dtype=np.int64)
        m[: top - lo] = ((was > n) - (was < n)) * j * j
        m[n - lo : n + steps - lo] -= n * n
        if m.any():
            rows = buf[k - 1 + lo : k - 1 + hi]  # a view: the rows are not copied
            rows *= _gauge(cfg.times, eq.alpha, m)

    # built on the first cache miss only: a rerun that hits throughout builds nothing
    lax = functools.cache(lambda: eq.build_lax(u0, n_max))
    ns, lengths = sched.runs
    k, eig, was = 1, None, int(sched.values[0])
    for n, steps in zip(ns.tolist(), lengths.tolist()):
        regauge(k, was, n, steps)
        if n == 0:
            coeffs[:, k : k + steps] = buf[k : k + steps].T
        else:
            # the run before's decomposition is this one's parent, derived from on a
            # staircase n -> n - 1; keys hold no K, so runs of any K share them
            eig = cache.get_or_build((eq.name, n, digest), lambda: lax().truncated(n),
                                     parent=eig)
            coeffs[:, k : k + steps] = advance(eig, cfg.times, eq.alpha,
                                               buf[k - 1 : k - 1 + n + steps], steps)
        k, was = k + steps, n

    # u^K = S* u^{K-1}, the window one row on, in the standard basis
    regauge(K, was, M, 0)

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
