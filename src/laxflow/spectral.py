"""Fourier-space primitives on the torus.

Everything here works with Fourier coefficients under the convention

    <f, g> = (1/2pi) integral f conj(g) dx,    f(x) = sum_k c(k) e^{ikx},

so Plancherel reads ||f||^2 = sum |c(k)|^2 with no 2pi factors.
Two coefficient containers are used throughout:

* :class:`HardyVector` -- one-sided coefficients c[0..m) of an element of
  the Hardy space (negative frequencies vanish).
* :class:`RealSpectrum` -- two-sided, Hermitian-symmetric coefficients of
  a real-valued field, stored for |k| < K.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "HardyVector",
    "RealSpectrum",
    "NormSpec",
    "InitialProfile",
    "project_hardy",
    "truncate",
    "shift_left",
    "inner_with_one",
    "l2_norm",
    "hs_kappa_norm",
    "synthesize",
    "sample_grid",
    "analyze_profile",
    "hermitian_symmetrize",
]


def _frozen_complex(a) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    if out.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    if not np.all(np.isfinite(out)):
        raise ValueError("coefficients must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HardyVector:
    """Finite coefficient sequence c[0..m) of a Hardy-space element.

    c[k] is the Fourier coefficient at frequency k >= 0; frequencies at or
    above len(c) are implicitly zero.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_complex(self.coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def coeff(self, k: int) -> complex:
        if 0 <= k < len(self.coeffs):
            return complex(self.coeffs[k])
        return 0.0 + 0.0j

    def padded(self, m: int) -> np.ndarray:
        """Coefficients as a dense length-m array (zero padded/truncated)."""
        out = np.zeros(m, dtype=np.complex128)
        n = min(m, len(self.coeffs))
        out[:n] = self.coeffs[:n]
        return out


@dataclass(frozen=True)
class RealSpectrum:
    """Hermitian-symmetric two-sided coefficients of a real-valued field.

    Stores c(k) for -K < k < K as a dense array of length 2K-1 with c(k)
    at index k + K - 1.  Symmetry c(-k) = conj(c(k)) holds bit-exactly by
    construction; use :meth:`from_hardy_part` or the profile builders.
    """

    coeffs: np.ndarray
    K: int

    def __post_init__(self):
        c = _frozen_complex(self.coeffs)
        if self.K < 1 or len(c) != 2 * self.K - 1:
            raise ValueError("RealSpectrum needs 2K-1 coefficients, K >= 1")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_hardy_part(cls, nonneg, K: int) -> "RealSpectrum":
        """Build from coefficients at k = 0..len(nonneg)-1 by reflection.

        The zero mode must be (numerically) real; it is forced exactly real.
        """
        nonneg = np.asarray(nonneg, dtype=np.complex128)
        if len(nonneg) > K:
            raise ValueError("more nonnegative modes than bandwidth K")
        if len(nonneg) and abs(nonneg[0].imag) > 1e-10:
            raise ValueError(
                "zero mode has imaginary part %g > 1e-10; a real field "
                "requires a real mean" % abs(nonneg[0].imag)
            )
        c = np.zeros(2 * K - 1, dtype=np.complex128)
        m = len(nonneg)
        if m:
            c[K - 1 : K - 1 + m] = nonneg
            c[K - 1] = nonneg[0].real
            c[K - m : K - 1] = np.conj(nonneg[1:][::-1])
        return cls(c, K)

    def coeff(self, k: int) -> complex:
        if -self.K < k < self.K:
            return complex(self.coeffs[k + self.K - 1])
        return 0.0 + 0.0j

    def hardy_part(self) -> np.ndarray:
        """Coefficients at frequencies 0..K-1."""
        return self.coeffs[self.K - 1 :].copy()

    def check_symmetry(self) -> None:
        c = self.coeffs
        if not np.array_equal(c[: self.K - 1], np.conj(c[self.K :][::-1])):
            raise ValueError("spectrum is not Hermitian-symmetric")
        if c[self.K - 1].imag != 0.0:
            raise ValueError("zero mode is not real")


@dataclass(frozen=True)
class NormSpec:
    """Sobolev order s and resolvent shift kappa >= 1 for the weighted norm."""

    s: float
    kappa: float = 1.0

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")


#: decay-exponent safety margin for random Sobolev profiles
_SOBOLEV_EPS = 0.01


@dataclass(frozen=True)
class InitialProfile:
    """Named initial datum.

    kind is one of "explicit", "square-wave", "single-mode",
    "random-sobolev"; parameters live in ``params``:

    * explicit: {"coeffs": one-sided sequence (Hardy) or two-sided
      Hermitian sequence of length 2m-1 centered at 0 (real field)}
    * single-mode: {"k0": int, "amplitude": complex}
    * random-sobolev: {"s": float, "seed": int, "norm": optional target
      L2 norm to scale to}

    The parameter each kind cannot do without (coeffs, k0, s) is checked on
    construction.
    """

    kind: str
    params: dict = field(default_factory=dict)

    _KINDS = ("explicit", "square-wave", "single-mode", "random-sobolev")
    _REQUIRED = {"explicit": "coeffs", "single-mode": "k0", "random-sobolev": "s"}

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        required = self._REQUIRED.get(self.kind)
        if required is not None and required not in self.params:
            raise ValueError(f"profile {self.kind!r} needs the parameter {required!r}")
        if self.kind == "single-mode" and not _is_integer(self.params["k0"]):
            raise ValueError(f"single-mode k0 must be an integer, got {self.params['k0']!r}")
        if self.kind == "random-sobolev" and not _is_finite_real(self.params["s"]):
            raise ValueError(f"random-sobolev s must be a finite number, got {self.params['s']!r}")


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite_real(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


Field = Union[HardyVector, RealSpectrum]


def project_hardy(spec: RealSpectrum) -> HardyVector:
    """Riesz-Szego projection: keep the coefficients at k >= 0."""
    spec.check_symmetry()
    return HardyVector(spec.hardy_part())


def truncate(h: HardyVector, j: int) -> HardyVector:
    """Frequency cutoff Pi_j: keep modes 0 <= k < j."""
    if j < 0:
        raise ValueError("truncation order must be nonnegative")
    return HardyVector(h.coeffs[: min(len(h), j)])


def shift_left(h: HardyVector) -> HardyVector:
    """Left shift S*: (S*h)(k) = h(k+1)."""
    return HardyVector(h.coeffs[1:])


def inner_with_one(h: HardyVector) -> complex:
    """<h, 1>, i.e. the zero-frequency coefficient."""
    return complex(h.coeffs[0]) if len(h) else 0.0 + 0.0j


def _modes(f: Field) -> np.ndarray:
    if isinstance(f, RealSpectrum):
        return np.arange(-f.K + 1, f.K)
    return np.arange(len(f.coeffs))


def l2_norm(f: Field) -> float:
    """Plancherel L2 norm: sqrt of the sum of |c(k)|^2 over stored modes."""
    return float(np.linalg.norm(f.coeffs))


def hs_kappa_norm(h: Field, spec: NormSpec) -> float:
    """Weighted Sobolev norm sqrt(sum (|k| + kappa)^{2s} |c(k)|^2)."""
    w = (np.abs(_modes(h)) + spec.kappa) ** spec.s
    return float(np.linalg.norm(w * h.coeffs))


def synthesize(f: Field, points) -> np.ndarray:
    """Evaluate f(x_j) = sum_k c(k) e^{ik x_j} by direct summation.

    Direct summation works at arbitrary points and is the reference for
    :func:`sample_grid`.
    """
    x = np.asarray(points, dtype=np.float64)
    ks = _modes(f)
    if len(ks) == 0:
        return np.zeros_like(x, dtype=np.complex128)
    # (npoints, nmodes) phase matrix; fine for the <=4096-point grids used here
    phases = np.exp(1j * np.outer(x, ks))
    return phases @ f.coeffs


def sample_grid(f: Field, K: int):
    """Samples of f on the grid x_j = -pi + pi j / K, j < 2K: (xs, values).

    e^{ik x_j} = (-1)^k e^{2 pi i k j / 2K}, so the samples are one length-2K
    inverse FFT of c(k) (-1)^k.  Modes are folded modulo 2K, which is exact
    on this grid, so any f is accepted.
    """
    if K < 1:
        raise ValueError("grid parameter K must be >= 1")
    N = 2 * K
    xs = -np.pi + 2.0 * np.pi * np.arange(N) / N
    ks = _modes(f)
    a = np.zeros(N, dtype=np.complex128)
    np.add.at(a, ks % N, np.where(ks % 2 == 0, 1.0, -1.0) * f.coeffs)
    return xs, np.fft.ifft(a, norm="forward")


def square_wave_coefficient(k: int) -> complex:
    """Fourier coefficient of sgn(x) on (-pi, pi) at frequency k."""
    if k == 0:
        return 0.0 + 0.0j
    return -1j * (1 - (-1) ** k) / (np.pi * k)


def _square_wave_spectrum(K: int) -> RealSpectrum:
    nonneg = np.array([square_wave_coefficient(k) for k in range(K)])
    return RealSpectrum.from_hardy_part(nonneg, K)


def _random_sobolev_hardy(s: float, seed: int, bandwidth: int) -> np.ndarray:
    # Philox is counter-based, so the draw is reproducible across platforms.
    rng = np.random.Generator(np.random.Philox(key=seed))
    decay = (1.0 + np.arange(bandwidth)) ** (-s - 0.5 - _SOBOLEV_EPS)
    z = rng.standard_normal(bandwidth) + 1j * rng.standard_normal(bandwidth)
    c = decay * z / np.sqrt(2.0)
    c[0] = c[0].real
    return c


def analyze_profile(p: InitialProfile, bandwidth: int, hardy: bool = False) -> Field:
    """Materialize an initial profile at the given bandwidth.

    Returns a RealSpectrum (real field, e.g. BO data) unless ``hardy`` is
    set, in which case the Hardy-space coefficients are returned (CCM data).
    """
    if bandwidth < 1:
        raise ValueError("bandwidth must be >= 1")

    if p.kind == "square-wave":
        spec = _square_wave_spectrum(bandwidth)
        return project_hardy(spec) if hardy else spec

    if p.kind == "single-mode":
        k0 = int(p.params["k0"])
        amp = complex(p.params.get("amplitude", 1.0))
        if abs(k0) >= bandwidth:
            raise ValueError(f"single-mode frequency {k0} outside bandwidth {bandwidth}")
        if hardy:
            if k0 < 0:
                raise ValueError("CCM single-mode data requires k0 >= 0")
            c = np.zeros(k0 + 1, dtype=np.complex128)
            c[k0] = amp
            return HardyVector(c)
        nonneg = np.zeros(abs(k0) + 1, dtype=np.complex128)
        nonneg[abs(k0)] = amp if k0 >= 0 else np.conj(amp)
        if k0 == 0 and amp.imag != 0:
            raise ValueError("a real field needs a real zero mode")
        return RealSpectrum.from_hardy_part(nonneg, bandwidth)

    if p.kind == "random-sobolev":
        s = float(p.params["s"])
        seed = int(p.params.get("seed", 0))
        c = _random_sobolev_hardy(s, seed, bandwidth)
        if hardy:
            out: Field = HardyVector(c)
        else:
            out = RealSpectrum.from_hardy_part(c, bandwidth)
        target = p.params.get("norm")
        if target is not None:
            cur = l2_norm(out)
            if cur == 0.0:
                raise ValueError("cannot rescale a zero profile")
            scale = float(target) / cur
            if hardy:
                return HardyVector(out.coeffs * scale)
            return RealSpectrum(out.coeffs * scale, bandwidth)
        return out

    # explicit coefficients
    c = np.asarray(p.params["coeffs"], dtype=np.complex128)
    if hardy:
        if len(c) > bandwidth:
            raise ValueError("explicit Hardy coefficients exceed bandwidth")
        return HardyVector(c)
    if p.params.get("two_sided", False):
        if len(c) % 2 != 1:
            raise ValueError("two-sided coefficients need odd length 2m-1")
        m = (len(c) + 1) // 2
        spec = RealSpectrum(np.pad(c, (bandwidth - m, bandwidth - m)), bandwidth) \
            if m <= bandwidth else None
        if spec is None:
            raise ValueError("explicit coefficients exceed bandwidth")
        spec.check_symmetry()
        return spec
    if len(c) > bandwidth:
        raise ValueError("explicit coefficients exceed bandwidth")
    return RealSpectrum.from_hardy_part(c, bandwidth)


def hermitian_symmetrize(h: HardyVector, K: int) -> RealSpectrum:
    """Reflect Hardy coefficients into a real-field spectrum of bandwidth K."""
    if len(h) > K:
        raise ValueError("Hardy vector longer than bandwidth K")
    return RealSpectrum.from_hardy_part(h.coeffs, K)


def warn_zero_seed_truncation(n0: int) -> None:
    """Warn when the seed truncation drops the zero mode entirely."""
    if n0 == 0:
        warnings.warn(
            "schedule has n(0) = 0: the zero mode is truncated away and the "
            "mean of the data is not preserved",
            stacklevel=3,
        )
