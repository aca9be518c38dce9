"""Heun parameter sets for the curved-space even-parity channels.

Both Coulomb and oscillator even channels reduce, after pulling out the
singular-point exponents (A, B, C) at z = 0, 1, -1, to the general Heun
equation handled by `specfun`. The termination condition on one of the
exponents at infinity (beta = -n) is formal: it is one of the two necessary
polynomial conditions, the accessory-parameter condition being left open, so
levels derived this way are labelled accordingly and compared against the
finite-difference oracle without being asserted.
"""

from __future__ import annotations

import math

import numpy as np

from .core import worst_of
from .specfun import HeunParams, heun_ode_residuals
from .spectra import EnergyLevel, ResolvedChannel, SpectrumError, resolve_channel


class HeunDomainError(ValueError):
    """A substitution-exponent radicand went negative."""


def _sqrt_or_raise(radicand: float, label: str) -> float:
    if radicand < 0.0:
        raise HeunDomainError(f"negative radicand in {label}: {radicand:.6g}")
    return math.sqrt(radicand)


def _inputs(level: EnergyLevel) -> ResolvedChannel:
    """The resolved channel of an even-row level, else the error naming it."""
    inputs = resolve_channel(level.scenario, level.j, level.channel)
    if inputs.heun_exponents is None:
        raise SpectrumError(f"unknown even channel {level.channel!r}")
    return inputs


def coulomb_exponents(level: EnergyLevel) -> tuple[float, float, float]:
    """Bound-branch substitution exponents (A, B, C) of a Coulomb even-row level:

        A = j+2 (channel 1) or j (channel 2), the bound z = 0 exponent of
        {j+2, -(j+1)} and {j, 1-j}, from the resolved channel;
        B = 1/2 + sqrt(-2M(E+alpha)),  C = 1/2 - sqrt(-2M(E-alpha)).

    Needs E + alpha < 0 and E - alpha < 0, checked before the channel.
    """
    energy, scen = level.energy, level.scenario
    u = _sqrt_or_raise(-2.0 * scen.mass * (energy + scen.alpha), "B: -2M(E+alpha)")
    v = _sqrt_or_raise(-2.0 * scen.mass * (energy - scen.alpha), "C: -2M(E-alpha)")
    (a_exp,) = _inputs(level).heun_exponents
    return a_exp, 0.5 + u, 0.5 - v


def heun_params_coulomb(level: EnergyLevel) -> HeunParams:
    """Heun parameters of a transformed Coulomb even-row level in z = tanh(r/2):

        gamma = 2A, delta = 2B, eps = 2C, q = 4 M alpha - 2A(B - C),
        lam = -j - 1 + (A+B+C), beta = j + (A+B+C).

    The Fuchs relation holds identically (2A + 2B + 2C = 2(A+B+C) + 1 - 1).
    """
    jf = float(level.j)
    a_exp, b_exp, c_exp = coulomb_exponents(level)
    s = a_exp + b_exp + c_exp
    return HeunParams(
        gamma=2.0 * a_exp,
        delta=2.0 * b_exp,
        eps=2.0 * c_exp,
        lam=-jf - 1.0 + s,
        beta=jf + s,
        q=4.0 * level.scenario.mass * level.scenario.alpha - 2.0 * a_exp * (b_exp - c_exp),
    )


def oscillator_exponents(level: EnergyLevel) -> tuple[float, float, float]:
    """Bound-branch exponents (A, B, C) of an oscillator even-row level in x = cosh r:

        A = (1 - sqrt(1 + 4MK))/2, and from the resolved channel
        B = 1 + j/2, C = 1/2 + j/2 (channel 1) or B = j/2, C = (1+j)/2 (channel 2).
    """
    inputs = _inputs(level)
    b_exp, c_exp = inputs.heun_exponents
    return 0.5 - 0.5 * inputs.root, b_exp, c_exp


def heun_params_oscillator(level: EnergyLevel) -> HeunParams:
    """Heun parameters of a transformed oscillator even-row level in x = cosh r:

        gamma = 2A, delta = 2B + 1/2, eps = 2C + 1/2, q = -2A(B - C),
        lam/beta = A + B + C +- sqrt(-M(2E - K)).

    Needs E <= K/2 (below the continuum edge) for real lam, beta.
    """
    a_exp, b_exp, c_exp = oscillator_exponents(level)
    scen = level.scenario
    w = _sqrt_or_raise(-scen.mass * (2.0 * level.energy - scen.k_osc), "lam/beta: -M(2E-K)")
    s = a_exp + b_exp + c_exp
    return HeunParams(
        gamma=2.0 * a_exp,
        delta=2.0 * b_exp + 0.5,
        eps=2.0 * c_exp + 0.5,
        lam=s + w,
        beta=s - w,
        q=-2.0 * a_exp * (b_exp - c_exp),
    )


def termination_defect(params: HeunParams, n: int) -> float:
    """How far the parameter set is from having a terminating exponent:
    min(|lam + n|, |beta + n|)."""
    return min(abs(params.lam + n), abs(params.beta + n))


_DISC_Z = tuple(np.concatenate([np.linspace(-0.8, -0.02, 30), np.linspace(0.02, 0.8, 30)]).tolist())


def heun_residual_on_disc(params) -> list[float]:
    """For each parameter set of `params`, the max relative ODE residual of
    the local Heun series over 60 points on [-0.8, 0.8] avoiding 0; all sets
    and points are summed in one pass."""
    return [worst_of([0.0, *residuals]) for residuals in heun_ode_residuals(params, _DISC_Z)]
