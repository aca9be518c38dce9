"""Quantum-number bookkeeping for a spin-1 particle around a Dirac monopole.

The monopole charge k = eg/hbar*c is quantized to half-integers; the total
angular momentum j it admits starts at |k| - 1 (or at |k| when |k| = 1/2).
Half-integers are kept exact as `fractions.Fraction` so that every coupling
radicand is evaluated from exact rationals before any float conversion.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple, Union

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


class Couplings(NamedTuple):
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


class _ScenarioFields(NamedTuple):
    geometry: str
    potential: str
    charge: Fraction
    mass: float
    alpha: float
    k_osc: float
    radius: float


class Scenario(_ScenarioFields):
    """Geometry x potential x charge x mass, in natural units (hbar = c = 1).

    Lobachevsky radial problems are written in curvature units (radius = 1
    internally); all radius dependence enters through unit conversion. The
    oscillator spring constant is named k_osc throughout to keep it apart
    from the monopole charge k.

    An immutable tuple of its 7 fields, checked at construction, with the
    charge kept as an exact half-integer Fraction; `_replace` checks its copy.
    """

    __slots__ = ()

    def __new__(cls, geometry: str, potential: str, charge: HalfInt, mass: float,
                alpha: float = 0.0, k_osc: float = 0.0, radius: float = 1.0) -> Scenario:
        if geometry not in _GEOMETRIES:
            raise ValueError(f"unknown geometry {geometry!r}")
        if potential not in _POTENTIALS:
            raise ValueError(f"unknown potential {potential!r}")
        charge = as_half_integer(charge, "charge")
        for name, value in (("mass", mass), ("alpha", alpha), ("k_osc", k_osc), ("radius", radius)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if 0 < abs(value) < sys.float_info.min:
                raise ValueError(f"{name} = {value:g} is subnormal (|x| < {sys.float_info.min:g}) "
                                 "and keeps too few significant bits")
        if mass <= 0:
            raise ValueError("mass must be positive")
        if geometry == GEOMETRY_LOBACHEVSKY and radius <= 0:
            raise ValueError("curvature radius must be positive")
        if potential == POTENTIAL_COULOMB and alpha <= 0:
            raise ValueError("attractive Coulomb coupling alpha must be positive")
        if potential == POTENTIAL_OSCILLATOR and k_osc <= 0:
            raise ValueError("oscillator constant k_osc must be positive")
        return super().__new__(cls, geometry, potential, charge, mass, alpha, k_osc, radius)

    @classmethod
    def _make(cls, iterable) -> Scenario:
        # namedtuple's own `_make`, which `_replace` calls, skips `__new__`
        return cls(*iterable)

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


def worst_of(values, default=None):
    """The largest of `values`, equal to `max(values)` when none is NaN, and
    NaN when any is: `max` keeps a NaN only when it comes first, so a gated
    worst value taken by `max` would let a NaN pass. `default` stands for an
    empty `values`."""
    values = list(values)
    if not values:
        return default
    if any(v != v for v in values):
        return math.nan
    return max(values)
