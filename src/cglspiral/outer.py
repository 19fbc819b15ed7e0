"""Far-field description of the rotating spiral in the stretched radius.

Beyond the core the phase gradient locks onto the decaying solution of the
stretched linear problem: with R = eps r, eps = k |q|, the reduced slope

    V0(R) = K'_{i nu}(R) / K_{i nu}(R),     nu = n |q|,

obeys the Riccati equation V0' = 1 - nu^2/R^2 - V0/R - V0^2 and rises
monotonically from large negative values toward -1 - 1/(2R).  The physical
phase gradient and amplitude follow as

    v(r) = sgn(q) k V0(eps r),
    f(r) = sqrt(1 - k^2 V0^2 - eps^2 n^2 / R^2).

K_{i nu} oscillates for very small argument, so the slope only has its
single-signed meaning above a floor ~ 2 e^{-pi/(2 nu)}; calls below it are
refused.  Above the slightly higher floor 2 e^2 e^{-pi/(2 nu)} the slope is
negative; it is also increasing there for nu below about 1.88, but not for
larger orders, where V0' dips below zero just above that floor.  The scan
here measures both.

The slope and its derivative come scale-free from specfun.log_slope (the
e^{-R} envelope stays out analytically), so they remain finite far past
the argument where K itself underflows float64.
"""

import math

import numpy as np

from . import specfun

__all__ = [
    "validity_floor", "decay_slope", "far_field", "slope_cotangent",
    "property_scan",
]


def validity_floor(nu):
    """Smallest stretched radius with a single-signed decaying slope."""
    if nu <= 0.0:
        return 0.0
    return 2.0 * math.exp(-math.pi / (2.0 * nu))


def decay_slope(nu, R):
    """(V0, V0') of the decaying branch at stretched radius R.

    The derivative comes from the variance of specfun's trapezoid sum,
    never from the Riccati equation itself, so residual tests against that
    equation stay meaningful.

    Below the oscillation floor the ratio has poles and sign flips; such
    calls raise.
    """
    if R <= 0.0:
        raise ValueError(
            f"stretched radius must be positive, got R={float(R)!r}")
    if R < validity_floor(nu):
        raise ValueError(
            f"stretched radius {float(R)!r} is below the oscillation floor "
            f"{validity_floor(nu):.3e} for nu={nu!r}; the decaying slope "
            "is not single-signed there"
        )
    return specfun.log_slope(nu, R)


def far_field(n, q, k, R):
    """Far-field quadruple at stretched radius R: (V0, V0', F0, v).

    F0 = sqrt(1 - k^2 V0^2 - (eps n/R)^2) and v = sgn(q) k V0(R), with
    eps = k|q|.  Raises when the radicand is not positive, which happens
    when the evaluation point is pushed into the core region where this
    description does not apply.
    """
    sgn = 1.0 if q > 0 else -1.0
    eps = k * abs(q)
    V0, dV0 = decay_slope(n * abs(q), R)
    rad = 1.0 - k * k * V0 * V0 - (eps * n / R) ** 2
    if rad <= 0.0:
        raise ValueError(
            f"amplitude radicand {rad:.3e} is not positive at R={float(R)!r}; "
            "the far-field form does not extend this far inward"
        )
    return V0, dV0, math.sqrt(rad), sgn * k * V0


def slope_cotangent(nu, R):
    """Leading small-argument form of the slope, (nu/R) cot(nu log(R/2) - theta0).

    Valid to relative O(R^2) between the oscillation poles; used to place
    the matching window and as an independent cross-check of
    :func:`decay_slope` at small stretched radius.
    """
    if R <= 0.0:
        raise ValueError(f"stretched radius must be positive, got R={R!r}")
    theta0 = specfun.gamma_arg(0, nu)
    return (nu / R) / math.tan(nu * math.log(0.5 * R) - theta0)


def property_scan(nu, R_max=1000.0, points=200):
    """Measure the slope's shape on [sign floor, R_max].

    The window starts no lower than the float64 limit specfun.X_MIN (which
    the sign floor undercuts for nu below ~0.0045).  Reports the worst
    Riccati residual (with the independent second derivative), the sign
    and monotonicity margins, and the fitted constant of the far law
    |V0 + 1 + 1/(2R)| <= c / R^2.  The sign margin is positive at every
    order; the monotonicity margins are positive only for nu below about
    1.88: at nu = 2 and 3, V0' is -8.4e-4 and -5.9e-3 at the sign floor.
    """
    grid = np.geomspace(max(specfun.sign_validity_floor(nu), specfun.X_MIN),
                       R_max, points)
    V = np.empty_like(grid)
    dV = np.empty_like(grid)
    worst_resid = 0.0
    for i, R in enumerate(grid):
        R = float(R)
        V[i], dV[i] = decay_slope(nu, R)
        rhs = 1.0 - nu * nu / (R * R) - V[i] / R - V[i] * V[i]
        scale = max(1.0, V[i] * V[i], nu * nu / (R * R), abs(V[i]) / R)
        worst_resid = max(worst_resid, abs(dV[i] - rhs) / scale)
    far = grid >= 10.0
    far_fit = float(np.max(
        np.abs(V[far] + 1.0 + 1.0 / (2.0 * grid[far])) * grid[far] ** 2))
    return {
        "window": (float(grid[0]), float(grid[-1])),
        "riccati_worst": worst_resid,
        "sign_margin": float(np.min(-V)),
        "monotone_margin": float(np.min(np.diff(V))),
        "slope_margin": float(np.min(dV)),
        "far_law_constant": far_fit,
    }
