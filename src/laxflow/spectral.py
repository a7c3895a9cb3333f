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
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "HardyVector",
    "RealSpectrum",
    "InitialProfile",
    "project_hardy",
    "truncate",
    "l2_norm",
    "sample_grid",
    "analyze_profile",
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
    at index k + K - 1.  The symmetry c(-k) = conj(c(k)) with a real c(0)
    is checked bit-exactly on construction (ValueError otherwise), so every
    RealSpectrum is a real field; :meth:`from_hardy_part` and the profile
    builders make it by reflection.
    """

    coeffs: np.ndarray
    K: int

    def __post_init__(self):
        c = _frozen_complex(self.coeffs)
        if self.K < 1 or len(c) != 2 * self.K - 1:
            raise ValueError("RealSpectrum needs 2K-1 coefficients, K >= 1")
        object.__setattr__(self, "coeffs", c)
        self.check_symmetry()

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


#: decay-exponent safety margin for random Sobolev profiles
_SOBOLEV_EPS = 0.01


@dataclass(frozen=True)
class InitialProfile:
    """Named initial datum.

    kind is one of "explicit", "square-wave", "single-mode",
    "random-sobolev"; parameters live in ``params``:

    * explicit: {"coeffs": the coefficients at k = 0..m-1; a real field
      takes c(-k) = conj(c(k)) and needs a real c(0)}
    * single-mode: {"k0": int, "amplitude": complex}
    * random-sobolev: {"s": float, "seed": int, "norm": optional target
      L2 norm to scale to}

    A parameter the kind does not take, a missing one it cannot do without
    (coeffs, k0, s), explicit coeffs that are not a one-dimensional
    sequence of numbers, and a malformed random-sobolev seed or norm are
    rejected on construction.
    """

    kind: str
    params: dict = field(default_factory=dict)

    #: the parameters each kind takes; its keys are the kinds
    _PARAMS = {
        "explicit": ("coeffs",),
        "square-wave": (),
        "single-mode": ("k0", "amplitude"),
        "random-sobolev": ("s", "seed", "norm"),
    }
    _REQUIRED = {"explicit": "coeffs", "single-mode": "k0", "random-sobolev": "s"}

    def __post_init__(self):
        if self.kind not in self._PARAMS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        unknown = [k for k in self.params if k not in self._PARAMS[self.kind]]
        if unknown:
            raise ValueError(f"profile {self.kind!r} takes no parameter "
                             f"{', '.join(map(repr, unknown))}")
        required = self._REQUIRED.get(self.kind)
        if required is not None and required not in self.params:
            raise ValueError(f"profile {self.kind!r} needs the parameter {required!r}")
        if self.kind == "explicit" and not _is_number_sequence(self.params["coeffs"]):
            raise ValueError(f"explicit coeffs must be a one-dimensional sequence of "
                             f"numbers, got {self.params['coeffs']!r}")
        if self.kind == "single-mode" and not _is_integer(self.params["k0"]):
            raise ValueError(f"single-mode k0 must be an integer, got {self.params['k0']!r}")
        if self.kind == "random-sobolev":
            s, seed, norm = self.params["s"], self.params.get("seed", 0), self.params.get("norm")
            if not _is_finite_real(s):
                raise ValueError(f"random-sobolev s must be a finite number, got {s!r}")
            if not _is_philox_key(seed):
                raise ValueError(f"random-sobolev seed must be an integer in [0, 2**128), "
                                 f"got {seed!r}")
            # a negative target would negate every coefficient; the schemes
            # read the squared norm, so that must be finite too
            if norm is not None and not (_is_finite_real(norm) and norm >= 0
                                         and math.isfinite(float(norm) * float(norm))):
                raise ValueError(f"random-sobolev norm must be >= 0 with a finite square, "
                                 f"got {norm!r}")


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number_sequence(v) -> bool:
    """A one-dimensional sequence of real or complex numbers, no boolean among them."""
    try:
        a = np.asarray(v)
    except (ValueError, TypeError):  # a ragged nesting
        return False
    # a cast would run [1, True] as [1, 1]
    return (a.ndim == 1 and a.dtype.kind in "iufc"
            and not any(isinstance(x, (bool, np.bool_)) for x in v))


def _is_philox_key(v) -> bool:
    """An integer in [0, 2**128), Philox's key range; a cast would run 2.7 as 2 and True as 1."""
    return _is_integer(v) and 0 <= v < 2**128


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
    return HardyVector(spec.hardy_part())


def truncate(h: HardyVector, j: int) -> HardyVector:
    """Frequency cutoff Pi_j: keep modes 0 <= k < j."""
    if j < 0:
        raise ValueError("truncation order must be nonnegative")
    return HardyVector(h.coeffs[: min(len(h), j)])


def _modes(f: Field) -> np.ndarray:
    if isinstance(f, RealSpectrum):
        return np.arange(-f.K + 1, f.K)
    return np.arange(len(f.coeffs))


def l2_norm(f: Field) -> float:
    """Plancherel L2 norm: sqrt of the sum of |c(k)|^2 over stored modes."""
    return float(np.linalg.norm(f.coeffs))


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

    Each kind yields its coefficients c at k = 0..m-1, m <= bandwidth, the
    only ones the schemes read.  Returns ``HardyVector(c)`` if ``hardy`` is
    set (CCM data), else the real field with c(-k) = conj(c(k)) as a
    RealSpectrum (BO data).  Data with a coefficient or a squared norm that is
    not finite is refused (the schemes read that norm), with no warning.
    """
    if bandwidth < 1:
        raise ValueError("bandwidth must be >= 1")

    def field(c) -> Field:
        with np.errstate(over="ignore", invalid="ignore"):
            if np.all(np.isfinite(c)):
                f = HardyVector(c) if hardy else RealSpectrum.from_hardy_part(c, bandwidth)
                if math.isfinite(l2_norm(f)):
                    return f
        raise ValueError(f"{p.kind} data at bandwidth {bandwidth} has a coefficient or "
                         f"a squared norm that is not finite")

    if p.kind == "square-wave":
        return field([square_wave_coefficient(k) for k in range(bandwidth)])

    if p.kind == "single-mode":
        k0 = int(p.params["k0"])
        amp = complex(p.params.get("amplitude", 1.0))
        if abs(k0) >= bandwidth:
            raise ValueError(f"single-mode frequency {k0} outside bandwidth {bandwidth}")
        if hardy and k0 < 0:
            raise ValueError("CCM single-mode data requires k0 >= 0")
        if not hardy and k0 == 0 and amp.imag != 0:
            raise ValueError("a real field needs a real zero mode")
        c = np.zeros(abs(k0) + 1, dtype=np.complex128)
        c[-1] = amp if k0 >= 0 else np.conj(amp)
        return field(c)

    if p.kind == "random-sobolev":
        # a steep growth (s far below 0) overflows; `field` refuses the data
        with np.errstate(over="ignore", invalid="ignore"):
            c = _random_sobolev_hardy(float(p.params["s"]), int(p.params.get("seed", 0)),
                                      bandwidth)
        target = p.params.get("norm")
        if target is not None:
            cur = l2_norm(field(c))
            if cur == 0.0:
                raise ValueError("cannot rescale a zero profile")
            c = c * (float(target) / cur)
        return field(c)

    # explicit coefficients
    c = np.asarray(p.params["coeffs"], dtype=np.complex128)
    if len(c) > bandwidth:
        raise ValueError("explicit coefficients exceed bandwidth")
    return field(c)
