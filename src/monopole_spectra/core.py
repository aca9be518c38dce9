"""Quantum-number bookkeeping for a spin-1 particle around a Dirac monopole.

The monopole charge k = eg/hbar*c is quantized to half-integers; the total
angular momentum j it admits starts at |k| - 1 (or at |k| when |k| = 1/2).
Half-integers are kept exact as `fractions.Fraction` so that every coupling
radicand is evaluated from exact rationals before any float conversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

HalfInt = Union[Fraction, int, float, str]


class QuantumNumberError(ValueError):
    """Invalid (j, k, n) combination or a negative coupling radicand."""


def as_half_integer(value: HalfInt, name: str = "value") -> Fraction:
    """Coerce to an exact half-integer Fraction; reject anything else.

    A Fraction that already is a half-integer is returned as it is (Fractions
    are immutable), so the closed-form hot paths build no copies."""
    if type(value) is Fraction:
        f = value
    else:
        try:
            f = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise QuantumNumberError(f"{name} = {value!r} is not a number") from exc
    if f.denominator not in (1, 2):
        raise QuantumNumberError(f"{name} = {value} is not a half-integer")
    return f


@dataclass(frozen=True)
class MonopoleCharge:
    """Monopole charge in units of eg/hbar*c, a half-integer.

    k = 0 is admitted as the explicit no-monopole limit; a physical monopole
    requires 2k to be a nonzero integer.
    """

    k: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", as_half_integer(self.k, "k"))

    @property
    def is_monopole(self) -> bool:
        return self.k != 0


@dataclass(frozen=True)
class QuantumNumbers:
    """(k, j, n) with the admissibility rules enforced at construction."""

    k: Fraction
    j: Fraction
    n: int = 0

    def __post_init__(self) -> None:
        k = as_half_integer(self.k, "k")
        j = as_half_integer(self.j, "j")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "j", j)
        if self.n < 0:
            raise QuantumNumberError(f"radial index n = {self.n} must be >= 0")
        if not j_is_allowed(j, k):
            raise QuantumNumberError(f"j = {j} is not admissible for k = {k}")


def min_allowed_j(k: HalfInt) -> Fraction:
    """Smallest admissible j: |k| for |k| <= 1/2, else |k| - 1; memoized per
    canonical half-integer k."""
    return _memo_min_allowed_j(as_half_integer(k, "k"))


@functools.lru_cache
def _memo_min_allowed_j(k: Fraction) -> Fraction:
    kf = abs(k)
    if kf <= Fraction(1, 2):
        return kf
    return kf - 1


def j_is_allowed(j: HalfInt, k: HalfInt) -> bool:
    """Admissibility of j for charge k: right parity and j >= min_allowed_j(k)."""
    jf = as_half_integer(j, "j")
    kf = as_half_integer(k, "k")
    if jf < 0:
        return False
    if (jf - kf).denominator != 1:  # j and k must share integer/half-odd parity
        return False
    return jf >= min_allowed_j(kf)


def allowed_j(k: HalfInt, j_max: HalfInt) -> list[Fraction]:
    """All admissible j values up to j_max, ascending.

    For |k| = 1/2 the list starts at |k|; for |k| >= 1 it starts at |k| - 1;
    for the no-monopole limit k = 0 it starts at 0.
    """
    kf = as_half_integer(k, "k")
    jmax = as_half_integer(j_max, "j_max")
    j0 = min_allowed_j(kf)
    if jmax < j0:
        raise QuantumNumberError(f"j_max = {jmax} below the smallest admissible j = {j0}")
    out = []
    j = j0
    while j <= jmax:
        out.append(j)
        j += 1
    return out


def channel_kind(j: HalfInt, k: HalfInt) -> str:
    """Classify the radial channel structure for (j, k).

    'min-j'      : j = |k| - 1, the reduced single-component channel;
    'j-equals-k' : j = |k|, the 3x3 system has a decoupled zero row (handle
                   with caution, one mixing root is exactly zero);
    'generic'    : j > |k|, full 3x3 mixing.

    Memoized per canonical (j, k); an inadmissible pair is not memoized and
    raises on every call.
    """
    return _memo_channel_kind(as_half_integer(j, "j"), as_half_integer(k, "k"))


@functools.lru_cache
def _memo_channel_kind(jf: Fraction, k: Fraction) -> str:
    kf = abs(k)
    if not j_is_allowed(jf, kf):
        raise QuantumNumberError(f"(j, k) = ({jf}, {kf}) not admissible")
    if kf >= 1 and jf == kf - 1:
        return "min-j"
    if jf == kf:
        return "j-equals-k"
    return "generic"


channel_kind.cache_clear = _memo_channel_kind.cache_clear


@dataclass(frozen=True)
class Couplings:
    """The four angular coupling coefficients a, b, c, d (dimensionless).

    a = sqrt((j+k-1)(j-k+2))/2,  b = sqrt((j-k-1)(j+k+2))/2,
    c = sqrt((j+k)(j-k+1))/2,    d = sqrt((j-k)(j+k+1))/2.

    c^2 + d^2 = (j(j+1) - k^2)/2 holds exactly.
    """

    a: float
    b: float
    c: float
    d: float


def _radicand_sqrt(prod: Fraction, label: str) -> float:
    if prod < 0:
        raise QuantumNumberError(f"negative radicand in coupling {label}: {prod}")
    return math.sqrt(float(prod)) / 2.0


def coupling_squares(j: HalfInt, k: HalfInt) -> tuple[Fraction, Fraction]:
    """Exact rational (c^2, d^2) for admissible (j, k) with j >= |k|."""
    jf = as_half_integer(j, "j")
    kf = as_half_integer(k, "k")
    if not j_is_allowed(jf, kf):
        raise QuantumNumberError(f"(j, k) = ({jf}, {kf}) not admissible")
    c2 = (jf + kf) * (jf - kf + 1) / 4
    d2 = (jf - kf) * (jf + kf + 1) / 4
    if c2 < 0 or d2 < 0:
        raise QuantumNumberError(
            f"couplings undefined at (j, k) = ({jf}, {kf}); the j = |k|-1 channel bypasses them"
        )
    return c2, d2


def couplings(j: HalfInt, k: HalfInt) -> Couplings:
    """Coupling coefficients for admissible (j, k) with j >= |k|."""
    jf = as_half_integer(j, "j")
    kf = as_half_integer(k, "k")
    c2, d2 = coupling_squares(jf, kf)
    # a and b couple to sigma = k-2 and k+2; their radicands go negative exactly
    # when those index rows fall outside |sigma| <= j, where the coefficient
    # multiplies an identically-zero function. Clamp those to zero.
    a_rad = (jf + kf - 1) * (jf - kf + 2)
    b_rad = (jf - kf - 1) * (jf + kf + 2)
    a = _radicand_sqrt(max(a_rad, Fraction(0)), "a")
    b = _radicand_sqrt(max(b_rad, Fraction(0)), "b")
    c = math.sqrt(float(c2))
    d = math.sqrt(float(d2))
    return Couplings(a=a, b=b, c=c, d=d)


# --- scenario ---------------------------------------------------------------

GEOMETRY_FLAT = "flat"
GEOMETRY_LOBACHEVSKY = "lobachevsky"
POTENTIAL_NONE = "none"
POTENTIAL_COULOMB = "coulomb"
POTENTIAL_OSCILLATOR = "oscillator"

_GEOMETRIES = (GEOMETRY_FLAT, GEOMETRY_LOBACHEVSKY)
_POTENTIALS = (POTENTIAL_NONE, POTENTIAL_COULOMB, POTENTIAL_OSCILLATOR)


@dataclass(frozen=True)
class Scenario:
    """Geometry x potential x charge x mass, in natural units (hbar = c = 1).

    Lobachevsky radial problems are written in curvature units (radius = 1
    internally); all radius dependence enters through unit conversion. The
    oscillator spring constant is named k_osc throughout to keep it apart
    from the monopole charge k.
    """

    geometry: str
    potential: str
    charge: Fraction
    mass: float
    alpha: float = 0.0
    k_osc: float = 0.0
    radius: float = 1.0

    def __post_init__(self) -> None:
        if self.geometry not in _GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.potential not in _POTENTIALS:
            raise ValueError(f"unknown potential {self.potential!r}")
        object.__setattr__(self, "charge", as_half_integer(self.charge, "charge"))
        for name in ("mass", "alpha", "k_osc", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.geometry == GEOMETRY_LOBACHEVSKY and self.radius <= 0:
            raise ValueError("curvature radius must be positive")
        if self.potential == POTENTIAL_COULOMB and self.alpha <= 0:
            raise ValueError("attractive Coulomb coupling alpha must be positive")
        if self.potential == POTENTIAL_OSCILLATOR and self.k_osc <= 0:
            raise ValueError("oscillator constant k_osc must be positive")

    @property
    def no_monopole(self) -> bool:
        return self.charge == 0

    def to_record(self) -> dict:
        rec = {
            "geometry": self.geometry,
            "potential": self.potential,
            "charge2": int(self.charge * 2),
            "mass": self.mass,
        }
        if self.potential == POTENTIAL_COULOMB:
            rec["alpha"] = self.alpha
        if self.potential == POTENTIAL_OSCILLATOR:
            rec["k_osc"] = self.k_osc
        if self.geometry == GEOMETRY_LOBACHEVSKY:
            rec["radius"] = self.radius
        return rec
