"""Energy spectra of a nonrelativistic spin-1 particle in a Dirac monopole
field, in flat and Lobachevsky geometry, with independent numerical validation.

Exports resolve lazily (PEP 562): a name imports its submodule on first use."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("Couplings", "QuantumNumberError", "Scenario", "couplings"),
    "mixing": ("CubicInvariants", "RootTriple", "cubic_invariants", "mixing_roots", "parity_eigenvalues"),
    "oracle": ("Grid", "count_bound_states", "fd_eigen", "shoot_decay"),
    "radial": ("RadialProblem", "RadialSolution", "analytic_solution", "build_problem", "residual"),
    "spectra": ("EnergyLevel", "ResolvedChannel", "UnitSystem", "flat_channel_l", "resolve_channel",
                "single_level", "spectrum_levels", "to_physical_units"),
    "specfun": ("HeunParams", "gauss_2f1", "heun_local", "kummer_1f1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
