"""Closed-form energy spectra with branch labels, admissibility, and units.

Natural units: hbar = 1 everywhere; Lobachevsky problems additionally use the
curvature radius as the length unit, so the dimensionless mass is
M = m*c*R/hbar and one energy unit equals hbar*c/R. Energies are
nonrelativistic (rest energy excluded) except the explicitly relativistic
`epsilon` carried by the curved minimum-j Coulomb level.

Flat-space oscillator levels are subject to a prefactor arbitration: the
closed form circulates both with and without a 1/2 prefactor, and only one
variant is consistent with the series-termination condition it derives from
(termination implies prefactor 1). `oscillator_candidates` gives both; a
level's `energy` is the termination-condition value, which validation
criterion 5 confirms against the finite-difference oracle's levels.

A level stores no inputs of its formula. `resolve_channel` gives a channel's
`ResolvedChannel`: its levels and the n-independent inputs that the closed
form uses (L, nu_0, the N and b rules, sqrt(1 + 4MK), the Heun exponents),
which `radial` and `validate` read.

`CHANNEL_TABLE` names each (geometry, potential, channel) case of the paper
once; `spectra` and `radial` read its rows instead of testing channel names.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial
from operator import add, attrgetter
from typing import Callable, NamedTuple, Optional

from .core import (
    GEOMETRY_FLAT,
    GEOMETRY_LOBACHEVSKY,
    POTENTIAL_COULOMB,
    POTENTIAL_NONE,
    POTENTIAL_OSCILLATOR,
    HalfInt,
    Scenario,
    as_half_integer,
    channel_kind,
    min_allowed_j,
)
from .mixing import MixingError, mixing_roots

# channel labels
CH_MIN_J = "min-j"
CH_BRANCH = ("branch-1", "branch-2", "branch-3")
CH_PARITY_ODD = "parity-odd"
CH_EVEN_1 = "even-1"
CH_EVEN_2 = "even-2"

# derivation labels
DERIV_HYPERGEOMETRIC = "hypergeometric-polynomial"
DERIV_HEUN_FORMAL = "heun-formal-beta"

REASON_EXHAUSTED = "finite spectrum exhausted"
# `admissible_levels` refuses a channel with more admissible levels than this
# (their number grows as sqrt(M), without end as M grows)
MAX_ADMISSIBLE_LEVELS = 100_000
# carried by admissible heun-formal-beta levels, so every output format shows
# that the level is not confirmed
REASON_FORMAL = "formal: beta = -n only, accessory condition unchecked"


class SpectrumError(ValueError):
    """Inadmissible channel request or invalid physical parameters."""


class EnergyLevel(NamedTuple):
    """One analytic eigenvalue with its channel label and admissibility.

    An immutable, hashable tuple of its 10 fields in this order, which the
    closed forms build positionally, one per level; `_replace` gives a changed
    copy. As a tuple, a level equals the plain tuple of its values."""

    scenario: Scenario
    channel: str
    j: Fraction
    n: int
    energy: float
    derivation: str
    admissible: bool = True
    reason: str = ""
    formula: str = ""
    epsilon: Optional[float] = None  # relativistic energy, where one exists


def flat_channel_l(j: Fraction, k: Fraction, branch: str) -> float:
    """Effective L of a flat channel: 'min-j' (valid only at j = |k| - 1) has
    L = 0; branches 1..3 take L from the mixing root (memoized per (j, k))."""
    kind = channel_kind(j, k)
    if branch == CH_MIN_J:
        if kind != "min-j":
            raise SpectrumError(f"min-j channel requires j = |k| - 1, got (j, k) = ({j}, {k})")
        return 0.0
    if kind == "min-j":
        raise SpectrumError(f"(j, k) = ({j}, {k}) is the reduced channel; use branch 'min-j'")
    try:
        triple = mixing_roots(j, k)
    except MixingError as exc:
        # j = k = 0 leaves a single physical channel (A = 1) and a doubly
        # degenerate spurious root, outside the three-branch structure
        raise SpectrumError(f"no three-branch mixing at (j, k) = ({j}, {k}): {exc}") from exc
    if branch not in CH_BRANCH:
        raise SpectrumError(f"unknown branch {branch!r}; expected one of {CH_BRANCH} or {CH_MIN_J!r}")
    return triple.l[CH_BRANCH.index(branch)]


# Each closed form below comes in two stages, named by the channel's row in
# CHANNEL_TABLE and called only by `resolve_channel`. `_<form>_levels(scenario,
# j, channel)` does everything that does not depend on n (the channel checks,
# the mixing root, the n-independent square roots and texts) and returns a
# ResolvedChannel; its `level` then does only the float arithmetic of one
# level, unchecked (`_channel_levels` checks n and each level inline). Hoisted
# values are leading sub-expressions of the formulas, so every float is
# bit-identical to evaluating the whole formula per level; where a level needs
# N or b, it calls the rule that the record exposes.
# Levels are built by `_new_level` from a tuple of all ten fields in
# EnergyLevel's order, which skips the NamedTuple's Python-level `__new__`; a
# slip in that order swaps two fields silently: tests/test_spectra.py checks
# every field of every closed form against a per-level reference.
LevelAt = Callable[[int], EnergyLevel]
_new_level: Callable[[tuple], EnergyLevel] = partial(tuple.__new__, EnergyLevel)


class ResolvedChannel(NamedTuple):
    """One (scenario, j, channel): its levels, n -> EnergyLevel, and the
    n-independent inputs of its closed form; a field its form lacks is None."""

    level: LevelAt
    l: Optional[float] = None  # flat: the effective L
    nu_0: Optional[float] = None  # curved min-j Coulomb: nu at n = 0, the exponent A of its solution
    big_n: Optional[Callable[[int], float]] = None  # no-monopole: n -> N
    # curved Coulomb far-field exponent: (epsilon, n) -> b at min j, N -> b without the monopole
    b: Optional[Callable[..., float]] = None
    root: Optional[float] = None  # curved oscillator: sqrt(1 + 4 M K)
    heun_exponents: Optional[tuple[float, ...]] = None  # even rows: (A,) Coulomb, (B, C) oscillator


# --- flat space --------------------------------------------------------------


def _flat_coulomb_levels(scen: Scenario, j: Fraction, branch: str) -> ResolvedChannel:
    """Flat-space Coulomb level E = -alpha^2 M / (2 (n + L + 1)^2).

    branch 'min-j' uses L = 0 (valid only at j = |k| - 1); branches 1..3 use
    the effective L of the corresponding mixing root.
    """
    lval = flat_channel_l(j, scen.charge, branch)
    scale = _flat_coulomb_scale(scen.alpha, scen.mass)
    formula = "E = -alpha^2 M / (2 (n+L+1)^2)"

    def level(n: int) -> EnergyLevel:
        return _new_level((scen, branch, j, n, scale / (n + lval + 1.0) ** 2, DERIV_HYPERGEOMETRIC,
                           True, "", formula, None))

    return ResolvedChannel(level, l=lval)


def _flat_coulomb_scale(alpha: float, mass: float) -> float:
    """-alpha^2 M / 2, or -alpha/2 (alpha M) where alpha^2/2 leaves the normal
    double range; a scale that underflows is refused. (An overflowing scale
    gives an infinite level, which `_channel_levels` refuses.)"""
    half_square = -0.5 * alpha * alpha
    if sys.float_info.min <= -half_square < math.inf:
        scale = half_square * mass
    else:
        scale = -0.5 * alpha * (alpha * mass)
    if -scale < sys.float_info.min:
        raise SpectrumError(f"Coulomb scale alpha^2 M / 2 = {-scale:.6g} underflows double precision")
    return scale


def _flat_omega(k_osc: float, mass: float) -> float:
    """omega = sqrt(K/M), or sqrt(K)/sqrt(M) where K/M leaves the normal
    double range; an omega that underflows is refused."""
    ratio = k_osc / mass
    if sys.float_info.min <= ratio < math.inf:
        return math.sqrt(ratio)
    omega = math.sqrt(k_osc) / math.sqrt(mass)
    if omega < sys.float_info.min:
        raise SpectrumError(f"oscillator frequency sqrt(K/M) = {omega:.6g} underflows double precision")
    return omega


def oscillator_candidates(l_value: float, n: int, k_osc: float, mass: float) -> dict[str, float]:
    """Both closed-form candidates for the flat oscillator level.

    'printed':       E = (1/2) sqrt(K/M) (3/2 + L + 2n), the variant
                     quoted with an extra 1/2 prefactor
    'quantization':  E = sqrt(K/M) (3/2 + L + 2n), from terminating the
                     confluent series at a = -n in
                     a = (1/2)(3/2 + L - E sqrt(M/K)).
    """
    omega = _flat_omega(k_osc, mass)
    base = 1.5 + l_value + 2.0 * n
    return {"printed": 0.5 * omega * base, "quantization": omega * base}


def _flat_oscillator_levels(scen: Scenario, j: Fraction, branch: str) -> ResolvedChannel:
    """Flat-space oscillator level, default value from the termination
    condition (prefactor 1), the 'quantization' value of
    `oscillator_candidates`; validation criterion 5 arbitrates between the
    two with the FD oracle."""
    lval = flat_channel_l(j, scen.charge, branch)
    omega = _flat_omega(scen.k_osc, scen.mass)
    base_0 = 1.5 + lval
    formula = "E = sqrt(K/M) (3/2 + L + 2n)  [1/2-prefactor variant kept as metadata]"

    def level(n: int) -> EnergyLevel:
        return _new_level((scen, branch, j, n, omega * (base_0 + 2.0 * n), DERIV_HYPERGEOMETRIC,
                           True, "", formula, None))

    return ResolvedChannel(level, l=lval)


def peculiar_flat_level(energy: float, scenario: Scenario) -> EnergyLevel:
    """Record for the reduced-channel bound-type profile psi = e^(-kappa r)/r,
    which exists at any E < 0 without quantization. Its normalizability at the
    origin is ambiguous (psi diverges there while the L2(r^2 dr) norm stays
    finite); the record reports it rather than classifying it."""
    if not -math.inf < energy < 0.0:
        raise SpectrumError(f"the bound-type reduced-channel profile needs a finite E < 0, got {energy}")
    if abs(scenario.charge) < 1:
        raise SpectrumError("the reduced channel needs a monopole charge |k| >= 1")
    return EnergyLevel(scenario, CH_MIN_J, abs(scenario.charge) - 1, 0, energy, DERIV_HYPERGEOMETRIC,
                       formula="psi = e^(-sqrt(-2EM) r)/r (any E < 0; origin regularity ambiguous)")


# --- Lobachevsky, minimum j (monopole present) -------------------------------


def _minj_j(charge: Fraction) -> Fraction:
    """j = |k| - 1, one memoized object per k, so a table's levels share it."""
    if abs(charge) < 1:
        raise SpectrumError("minimum-j channel needs |k| >= 1")
    return min_allowed_j(charge)


def _lob_minj_coulomb_levels(scen: Scenario, j: Fraction, channel: str) -> ResolvedChannel:
    """Curved minimum-j Coulomb level (relativistic form).

        epsilon = M / sqrt(1 + alpha^2/nu^2) * sqrt(1 - (alpha^2 + nu^2)/M^2),
        nu = n + (1 + sqrt(1 - 4 alpha^2))/2,  E = epsilon - M.

    E is formed without the subtraction, which cancels when epsilon is close
    to M (weak coupling, large M): with y = (alpha^2 + nu^2)/M^2 and
    x = alpha^2/nu^2, E = M expm1((log1p(-y) - log1p(x))/2), or -M where y = 1.

    Admissible only while the energy radicand stays positive (the spectrum is
    finite) AND the far-field exponent b = (eps*alpha - nu^2)/(2 nu) is
    positive; b <= 0 means the regular solution grows at infinity, so the
    formula value is formal rather than a bound state there.
    """
    alpha, mass = scen.alpha, scen.mass
    if not 0.0 < alpha < 0.5:
        raise SpectrumError(f"curved minimum-j Coulomb needs 0 < alpha < 1/2, got {alpha}")
    jf = _minj_j(scen.charge)
    nu_0 = (1.0 + math.sqrt(1.0 - 4.0 * alpha * alpha)) / 2.0
    alpha_sq, mass_sq = alpha * alpha, mass * mass
    formula = "eps = M sqrt(1 - (alpha^2+nu^2)/M^2)/sqrt(1 + alpha^2/nu^2); E = eps - M"
    exhausted = f"{REASON_EXHAUSTED}: alpha^2 + nu^2 > M^2"

    def b_at(eps: float, n: int) -> float:
        nu = n + nu_0
        return (eps * alpha - nu * nu) / (2.0 * nu)

    def level(n: int) -> EnergyLevel:
        nu = n + nu_0
        y = (alpha_sq + nu * nu) / mass_sq
        rad = 1.0 - y
        if rad < 0.0:
            return _new_level((scen, CH_MIN_J, jf, n, math.nan, DERIV_HYPERGEOMETRIC,
                               False, exhausted, formula, None))
        x = alpha_sq / (nu * nu)
        eps = mass / math.sqrt(1.0 + x) * math.sqrt(rad)
        b = b_at(eps, n)
        admissible = b > 0.0
        reason = "" if admissible else (
            f"far-field exponent b = {b:.6g} <= 0: regular solution is non-decaying, formal level only"
        )
        energy = mass * math.expm1(0.5 * (math.log1p(-y) - math.log1p(x))) if rad else -mass
        return _new_level((scen, CH_MIN_J, jf, n, energy, DERIV_HYPERGEOMETRIC,
                           admissible, reason, formula, eps))

    return ResolvedChannel(level, nu_0=nu_0, b=b_at)


def _curved_oscillator(k_osc: float, mass: float) -> tuple[Callable[[float], float], float]:
    """N -> E = N sqrt(K/M + (1/2M)^2) - (N^2 + 1/4)/(2M), and sqrt(1 + 4MK),
    shared by the minimum-j and the no-monopole channels; the roots and 2M are
    computed once."""
    freq = math.sqrt(k_osc / mass + 0.25 / (mass * mass))
    two_mass = 2.0 * mass
    energy_at = lambda big_n: big_n * freq - (big_n**2 + 0.25) / two_mass
    return energy_at, math.sqrt(1.0 + 4.0 * (mass * k_osc))


def _lob_minj_oscillator_levels(scen: Scenario, j: Fraction, channel: str) -> ResolvedChannel:
    """Curved minimum-j oscillator level

        E = N sqrt(K/M + (1/2M)^2) - (N^2 + 1/4)/(2M),  N = 2n + 3/2,

    equivalent to the odd levels of the sech^2 well: with s(s+1) = M K,
    E = K/2 - (s - (2n+1))^2 / (2M); bound states need 2n + 1 < s.
    """
    k_osc, mass = scen.k_osc, scen.mass
    jf = _minj_j(scen.charge)
    energy_at, root = _curved_oscillator(k_osc, mass)
    s_well = (-1.0 + root) / 2.0
    formula = "E = N sqrt(K/M + 1/(2M)^2) - (N^2 + 1/4)/(2M), N = 2n + 3/2"
    exhausted = f"{REASON_EXHAUSTED}: decaying-well condition 2n+1 < s fails (s = {s_well:.6g})"

    def level(n: int) -> EnergyLevel:
        big_n = 2.0 * n + 1.5
        admissible = 2 * n + 1 < s_well
        return _new_level((scen, CH_MIN_J, jf, n, energy_at(big_n), DERIV_HYPERGEOMETRIC,
                           admissible, "" if admissible else exhausted, formula, None))

    return ResolvedChannel(level, root=root)


# --- Lobachevsky, no monopole -------------------------------------------------


def _n_half_step(offset: float) -> Callable[[int], float]:
    return lambda n: offset + 0.5 * n


def _nomonopole_row(scen: Scenario, j: Fraction, channel: str) -> ChannelRow:
    """The row of a no-monopole channel, checked, as is j (an integer >= 0)."""
    if j < 0 or j.denominator != 1:
        raise SpectrumError(f"no-monopole channels need integer j >= 0, got {j}")
    row = channel_row(scen, channel)
    if row is None:
        raise SpectrumError(f"unknown no-monopole channel {channel!r}")
    return row


def _lob_nomonopole_coulomb_levels(scen: Scenario, j: Fraction, channel: str) -> ResolvedChannel:
    """No-monopole curved Coulomb level E = -M alpha^2/(2 N^2) - N^2/(2M), with
    the channel's N from its row (the even channels' N come from the formal
    Heun condition beta = -n). Bound-state admissibility needs the substitution
    exponent b = (M alpha - N^2)/(2N) > 0, i.e. M alpha > N^2 (finite spectrum).
    """
    alpha, mass = scen.alpha, scen.mass
    row, fj = _nomonopole_row(scen, j, channel), float(j)
    big_n_at = row.big_n(fj)
    scale = -mass * alpha * alpha
    two_mass = 2.0 * mass
    mass_alpha = mass * alpha
    deriv, bound = row.derivation
    formula = "E = -M alpha^2/(2 N^2) - N^2/(2M)"

    def b_at(big_n: float) -> float:
        return (mass_alpha - big_n * big_n) / (2.0 * big_n)

    def level(n: int) -> EnergyLevel:
        big_n = big_n_at(n)
        big_n_sq = big_n * big_n
        b = b_at(big_n)
        admissible = b > 0.0
        reason = bound if admissible else f"{REASON_EXHAUSTED}: M alpha <= N^2 (b = {b:.6g})"
        # (2N) N, not 2 N^2: each formula keeps its operation order
        return _new_level((scen, channel, j, n, scale / (2.0 * big_n * big_n) - big_n_sq / two_mass,
                           deriv, admissible, reason, formula, None))

    return ResolvedChannel(level, big_n=big_n_at, b=b_at,
                           heun_exponents=row.heun_exponents and row.heun_exponents(fj))


def _lob_nomonopole_oscillator_levels(scen: Scenario, j: Fraction, channel: str) -> ResolvedChannel:
    """No-monopole curved oscillator level E = N sqrt(K/M + (1/2M)^2) - (N^2 + 1/4)/(2M)
    with the channel's N from its row; the restriction N < sqrt(1+4KM)/2 bounds
    the level count."""
    k_osc, mass = scen.k_osc, scen.mass
    row, fj = _nomonopole_row(scen, j, channel), float(j)
    big_n_at = row.big_n(fj)
    energy_at, root = _curved_oscillator(k_osc, mass)
    limit = root / 2.0
    deriv, bound = row.derivation
    exhausted = f"{REASON_EXHAUSTED}: restriction N < sqrt(1 + 4 K M)/2 = {limit:.6g} violated"
    formula = "E = N sqrt(K/M + 1/(2M)^2) - (N^2 + 1/4)/(2M)"

    def level(n: int) -> EnergyLevel:
        big_n = big_n_at(n)
        admissible = big_n < limit
        return _new_level((scen, channel, j, n, energy_at(big_n), deriv,
                           admissible, bound if admissible else exhausted, formula, None))

    return ResolvedChannel(level, big_n=big_n_at, root=root,
                           heun_exponents=row.heun_exponents and row.heun_exponents(fj))


# --- the channel table --------------------------------------------------------


class ChannelRow(NamedTuple):
    """One (geometry, potential, channel) case of the paper, as pure-Python
    data that `spectra` and `radial` read instead of names."""

    levels: Callable[[Scenario, Fraction, str], ResolvedChannel] | str  # the stage one, or why there is none
    sampler: str  # the name of the `radial` sampler, or why the case has none
    derivation: tuple[str, str] = (DERIV_HYPERGEOMETRIC, "")  # label, and reason an admissible level carries
    monopole: Optional[bool] = None  # curved: the case needs the monopole (min-j), or needs none
    big_n: Optional[Callable[[float], Callable[[int], float]]] = None  # no-monopole N rule, j -> (n -> N)
    origin_exponent: Optional[Callable[[float, Scenario], float]] = None  # curved Frobenius exponent at r = 0
    coupling: Optional[Callable[[float], float]] = None  # even: c in (j(j+1) + c (1 + cosh r)) / sinh^2 r
    heun_exponents: Optional[Callable[[float], tuple[float, ...]]] = None  # even: j -> (A,) or (B, C)
    relativistic: bool = False  # the radial equation is quadratic in the relativistic energy


_FREE = "a free particle has a continuum, not bound states"
_LOCAL_SERIES = "even-channel oscillator solutions exist only as local series off the physical domain"
_FLAT, _LOB = GEOMETRY_FLAT, GEOMETRY_LOBACHEVSKY
_NONE, _COUL, _OSC = POTENTIAL_NONE, POTENTIAL_COULOMB, POTENTIAL_OSCILLATOR
_HEUN = (DERIV_HEUN_FORMAL, REASON_FORMAL)
# each no-monopole channel's derivation, coupling and origin exponent, the same under every potential
_ODD = dict(monopole=False, origin_exponent=lambda fj, scen: fj + 1.0)
_EVEN_1 = dict(monopole=False, origin_exponent=lambda fj, scen: fj + 2.0, coupling=lambda fj: fj + 1.0,
               derivation=_HEUN)
_EVEN_2 = dict(monopole=False, origin_exponent=lambda fj, scen: max(fj, 1.0 - fj), coupling=lambda fj: -fj,
               derivation=_HEUN)

CHANNEL_TABLE: dict[tuple[str, str, str], ChannelRow] = {
    # flat space: the reduced min-j channel and the three mixing-root series
    **{(_FLAT, pot, ch): ChannelRow(levels, sampler) for pot, levels, sampler in (
        (_NONE, "flat free-particle scenarios have a continuum, not discrete levels", "flat-free"),
        (_COUL, _flat_coulomb_levels, "flat-coulomb"), (_OSC, _flat_oscillator_levels, "flat-oscillator"),
    ) for ch in (CH_MIN_J, *CH_BRANCH)},
    # curved space with the monopole: the min-j channel only; the Coulomb origin exponent is
    # written apart from the closed form's nu_0, so that the oracle stays independent of it
    (_LOB, _NONE, CH_MIN_J): ChannelRow("the free curved minimum-j channel has no discrete levels", _FREE,
                                        monopole=True),
    (_LOB, _COUL, CH_MIN_J): ChannelRow(
        _lob_minj_coulomb_levels, "minj-coulomb", monopole=True, relativistic=True,
        origin_exponent=lambda fj, scen: (1.0 + math.sqrt(1.0 - 4.0 * scen.alpha * scen.alpha)) / 2.0),
    (_LOB, _OSC, CH_MIN_J): ChannelRow(_lob_minj_oscillator_levels, "cosh-oscillator", monopole=True,
                                       origin_exponent=lambda fj, scen: 1.0),
    # curved space without the monopole: one hypergeometric and two Heun channels
    **{(_LOB, _NONE, ch): ChannelRow("free curved scenarios have a continuum, not discrete levels", _FREE, **consts)
       for ch, consts in ((CH_PARITY_ODD, _ODD), (CH_EVEN_1, _EVEN_1), (CH_EVEN_2, _EVEN_2))},
    (_LOB, _COUL, CH_PARITY_ODD): ChannelRow(_lob_nomonopole_coulomb_levels, "parity-odd-coulomb",
                                             big_n=lambda fj: partial(add, fj + 1.0), **_ODD),
    (_LOB, _COUL, CH_EVEN_1): ChannelRow(_lob_nomonopole_coulomb_levels, "even-coulomb",
                                         big_n=lambda fj: _n_half_step(fj + 1.5),
                                         heun_exponents=lambda fj: (fj + 2.0,), **_EVEN_1),
    (_LOB, _COUL, CH_EVEN_2): ChannelRow(_lob_nomonopole_coulomb_levels, "even-coulomb",
                                         big_n=lambda fj: _n_half_step(fj + 0.5),
                                         heun_exponents=lambda fj: (fj,), **_EVEN_2),
    (_LOB, _OSC, CH_PARITY_ODD): ChannelRow(_lob_nomonopole_oscillator_levels, "cosh-oscillator",
                                            big_n=lambda fj: lambda n: 2.0 * n + fj + 1.5, **_ODD),
    (_LOB, _OSC, CH_EVEN_1): ChannelRow(_lob_nomonopole_oscillator_levels, _LOCAL_SERIES,
                                        big_n=lambda fj: partial(add, 2.0 + fj),
                                        heun_exponents=lambda fj: (1.0 + fj / 2.0, 0.5 + fj / 2.0), **_EVEN_1),
    (_LOB, _OSC, CH_EVEN_2): ChannelRow(_lob_nomonopole_oscillator_levels, _LOCAL_SERIES,
                                        big_n=lambda fj: partial(add, 1.0 + fj),
                                        heun_exponents=lambda fj: (fj / 2.0, (1.0 + fj) / 2.0), **_EVEN_2),
}
CHANNELS = tuple(dict.fromkeys(ch for _, _, ch in CHANNEL_TABLE))


def channel_row(scenario: Scenario, channel: str) -> Optional[ChannelRow]:
    """The row of (scenario, channel), or None where the scenario's family has
    no such channel: a curved row fits by the charge, a flat row any charge."""
    row = CHANNEL_TABLE.get((scenario.geometry, scenario.potential, channel))
    return None if row is None or row.monopole == scenario.no_monopole else row


# --- unit conversion ----------------------------------------------------------


FINE_STRUCTURE = 0.0072973525693  # e^2/(hbar c)


class _UnitFields(NamedTuple):
    hbar: float
    c: float
    mass: float
    radius: Optional[float]
    alpha_fs: float


class UnitSystem(_UnitFields):
    """Physical constants defining the natural <-> physical map.

    Natural mass M = m*c*R/hbar, natural energy unit hbar*c/R, natural
    oscillator constant K = k_phys R^3/(hbar c). For flat scenarios R is an
    arbitrary reference length that drops out of physical observables and may
    stay unset; Lobachevsky conversions require it. alpha_fs is the physical
    Coulomb coupling e^2/(hbar c).
    An immutable tuple of its 5 fields, checked at construction, as is a
    copy from `_replace`.
    """

    __slots__ = ()

    def __new__(cls, hbar: float = 1.0, c: float = 1.0, mass: float = 1.0,
                radius: Optional[float] = None, alpha_fs: float = FINE_STRUCTURE) -> UnitSystem:
        if min(hbar, c, mass) <= 0:
            raise ValueError("unit-system constants must be positive")
        if radius is not None and radius <= 0:
            raise ValueError("curvature radius must be positive when set")
        return super().__new__(cls, hbar, c, mass, radius, alpha_fs)

    @classmethod
    def _make(cls, iterable) -> UnitSystem:
        # namedtuple's own `_make`, which `_replace` calls, skips `__new__`
        return cls(*iterable)

    @property
    def reference_radius(self) -> float:
        return 1.0 if self.radius is None else self.radius

    @property
    def natural_mass(self) -> float:
        return self.mass * self.c * self.reference_radius / self.hbar

    @property
    def energy_unit(self) -> float:
        return self.hbar * self.c / self.reference_radius

    def natural_oscillator_constant(self, k_phys: float) -> float:
        return k_phys * self.reference_radius**3 / (self.hbar * self.c)

    def to_physical_energy(self, e_natural: float) -> float:
        return e_natural * self.energy_unit

    def from_physical_energy(self, e_physical: float) -> float:
        return e_physical / self.energy_unit


def to_physical_units(level: EnergyLevel, units: UnitSystem) -> EnergyLevel:
    """Convert a natural-unit level to physical units (multiplicative map;
    involutive with from_physical_units). Lobachevsky scenarios require the
    curvature radius to be set on the unit system."""
    return _map_energies(level, units, units.to_physical_energy)


def from_physical_units(level: EnergyLevel, units: UnitSystem) -> EnergyLevel:
    """Convert a physical-unit level back to natural units; the inverse of
    to_physical_units, with the same curvature-radius requirement."""
    return _map_energies(level, units, units.from_physical_energy)


def _map_energies(level: EnergyLevel, units: UnitSystem, convert: Callable[[float], float]) -> EnergyLevel:
    if level.scenario.geometry == GEOMETRY_LOBACHEVSKY and units.radius is None:
        raise SpectrumError("Lobachevsky conversion needs the curvature radius")
    epsilon = None if level.epsilon is None else convert(level.epsilon)
    return level._replace(energy=convert(level.energy), epsilon=epsilon)


# --- scenario-level driver ----------------------------------------------------


def default_channels(scenario: Scenario, j: HalfInt) -> list[str]:
    """Channels that produce closed-form levels for this scenario and j."""
    jf = as_half_integer(j, "j")
    if scenario.geometry == GEOMETRY_FLAT:  # the reduced channel, or the mixing-root branches
        return [CH_MIN_J] if abs(scenario.charge) >= 1 and jf == min_allowed_j(scenario.charge) else list(CH_BRANCH)
    return [ch for ch in CHANNELS if channel_row(scenario, ch)]


def spectrum_levels(
    scenario: Scenario,
    j: HalfInt,
    n_values,
    channels: Optional[list[str]] = None,
    include_inadmissible: bool = False,
) -> list[EnergyLevel]:
    """All levels for one (scenario, j) at the given radial indices: the stable
    (channel, n) sort of the levels in request order, built channel by channel
    in request order, so sorted n and distinct channels need no sort. Each
    channel's first level comes from `single_level` (errors: n, then the
    channel, then overflow; the benchmark's tracer wraps it), the others from
    one more resolution, so per-table work does not grow with n."""
    jf = as_half_integer(j, "j")
    chans = channels if channels is not None else default_channels(scenario, jf)
    ns = [int(n) for n in n_values]  # once: every channel reads all of them
    if not ns:
        return []
    blocks: dict[str, list[EnergyLevel]] = {}
    for ch in chans:
        block = blocks.setdefault(ch, [])
        lv = single_level(scenario, jf, ns[0], ch)
        if include_inadmissible or lv.admissible:
            block.append(lv)
        block += _channel_levels(resolve_channel(scenario, jf, ch).level, ch, ns[1:], include_inadmissible)
    if len(blocks) < len(chans) or ns != sorted(ns):
        for block in blocks.values():
            block.sort(key=attrgetter("n"))
    return [lv for ch in sorted(blocks) for lv in blocks[ch]]  # every level has j = jf


def admissible_levels(scenario: Scenario, j: HalfInt, channel: str) -> list[EnergyLevel]:
    """The levels n = 0, 1, ... of one curved channel up to, not including,
    the first inadmissible one. Flat spectra never end, so they are refused,
    and so is a curved channel with more than MAX_ADMISSIBLE_LEVELS."""
    if scenario.geometry == GEOMETRY_FLAT:
        raise SpectrumError("flat spectra are infinite; give the radial indices explicitly")
    level_at = resolve_channel(scenario, j, channel).level
    out: list[EnergyLevel] = []
    while len(out) <= MAX_ADMISSIBLE_LEVELS:
        (lv,) = _channel_levels(level_at, channel, (len(out),))
        if not lv.admissible:
            return out
        out.append(lv)
    raise SpectrumError(f"channel {channel!r} has more than {MAX_ADMISSIBLE_LEVELS} admissible levels; "
                        "give the radial indices explicitly")


def single_level(scenario: Scenario, j: HalfInt, n: int, channel: str) -> EnergyLevel:
    """The level of one (scenario, j, n, channel), built and checked by
    `_channel_levels`, with its errors in order: n < 0 first, then the channel,
    then an overflowing level. Tables take each channel's first level here."""
    _check_radial_index(n)
    (level,) = _channel_levels(resolve_channel(scenario, j, channel).level, channel, (n,))
    return level


def _check_radial_index(n: int) -> None:
    if n < 0:
        raise SpectrumError(f"radial index n = {n} must be >= 0")


def _channel_levels(level_at: LevelAt, channel: str, ns, keep_inadmissible: bool = True) -> list[EnergyLevel]:
    """The levels of a resolved channel at `ns`, in that order, inadmissible ones
    only if kept. Errors: n < 0; E or epsilon at +-inf (finite parameters can overflow)
    or NaN while admissible (NaN marks an exhausted spectrum); a division by zero (M^2 underflow)."""
    out: list[EnergyLevel] = []
    append = out.append
    lo, hi = -math.inf, math.inf
    try:
        for n in ns:
            if n < 0:
                _check_radial_index(n)
            level = level_at(n)
            if level.epsilon is not None or not lo < level.energy < hi:
                for name, value in (("E", level.energy), ("epsilon", level.epsilon)):
                    if value is not None and (math.isinf(value) or (level.admissible and math.isnan(value))):
                        raise _overflow_error(f"{name} = {value} at n = {n}", channel)
            if keep_inadmissible or level.admissible:
                append(level)
    except ZeroDivisionError as exc:
        raise _overflow_error(f"division by zero at n = {n}", channel) from exc
    return out


def resolve_channel(scenario: Scenario, j: HalfInt, channel: str) -> ResolvedChannel:
    """(scenario, j, channel) -> the ResolvedChannel its row's stage one builds:
    its n-independent inputs, and its levels n -> level, unchecked
    (`_channel_levels` checks). A channel with no row in the scenario's family
    goes to the family's first row, whose checks raise the error naming it. A
    division by zero here is an overflow error."""
    jf = as_half_integer(j, "j")
    row = channel_row(scenario, channel) or channel_row(scenario, default_channels(scenario, jf)[0])
    if row.monopole and channel != CH_MIN_J:  # the curved monopole family: min-j at j = |k| - 1 only
        raise SpectrumError("curved monopole channels beyond minimum j have no closed form; only 'min-j' is available")
    if row.monopole and jf != min_allowed_j(scenario.charge):
        raise SpectrumError(f"curved monopole levels exist only at j = |k| - 1 = {min_allowed_j(scenario.charge)}, "
                            f"got j = {jf}")
    if isinstance(row.levels, str):
        raise SpectrumError(row.levels)
    try:
        return row.levels(scenario, jf, channel)
    except ZeroDivisionError as exc:
        raise _overflow_error("division by zero", channel) from exc


def _overflow_error(what: str, channel: str) -> SpectrumError:
    return SpectrumError(
        f"{what} in channel {channel!r}: the closed form overflows double precision for these parameters"
    )
