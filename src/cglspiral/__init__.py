"""Spiral-wave solutions of the complex Ginzburg-Landau equation.

Computes n-armed rotating-spiral profiles, the selected asymptotic
wavenumber k(q), and the exponentially small selection law connecting them,
with the special-function machinery (imaginary-order Bessel functions) those
computations rest on.

Module map
----------
specfun
    K_{i nu} by a trapezoid sum of its integral, with a quadrature oracle;
    arg Gamma(1 + k + i nu).
outer
    The far-field branch: decaying logarithmic-derivative slope V0, its
    Riccati equation, the far field (V0, V0', F0, v) at a stretched
    radius, validity floors.
core
    The untwisted radial amplitude f0 (boundary value solve), its rise
    coefficient, moments, and the log-subtracted tail constant.
wavenumber
    The selection law kappa(q) = (2/q) e^{-C_n/n^2 - gamma_E}
    e^{-pi/(2 n q)} in log-scale arithmetic, matching geometry, and the
    root-level matching residual.
solver
    The twisted two-point boundary value problem: profile f, phase
    gradient v, and the selected wavenumber k(n, q), plus sweeps.
physical
    Maps between reduced (q, k) and physical (alpha, beta, Omega, k_star)
    parameters with their consistency identities.
field
    Two-dimensional field assembly, CSV/JSON export, arm-spacing
    measurement.
cli
    The ``cglspiral`` command-line tool wrapping all of the above.
"""

from . import core, field, outer, physical, solver, specfun, wavenumber
from .core import solve_profile, tail_constant
from .field import measure_arm_spacing, sample_field, theta_of_r
from .physical import physical_from_reduced
from .solver import SpiralParams, solve_spiral, wavenumber_sweep
from .wavenumber import kappa_asym, matching_constant, mu_bar

__version__ = "0.1.0"

__all__ = [
    "core", "field", "outer", "physical", "solver", "specfun", "wavenumber",
    "solve_profile", "tail_constant", "theta_of_r", "sample_field",
    "measure_arm_spacing", "physical_from_reduced", "SpiralParams",
    "solve_spiral", "wavenumber_sweep", "kappa_asym", "matching_constant",
    "mu_bar", "__version__",
]
