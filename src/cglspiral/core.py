"""Vortex-core amplitude profile and the constants it induces.

At leading order in the twist the amplitude of an n-armed rotating solution
obeys the classic core equation

    f'' + f'/r - n^2 f / r^2 + f (1 - f^2) = 0,
    f(0) = 0,  f(r -> inf) -> 1,

whose solution rises like c_f r^n from the origin and approaches 1
algebraically, 1 - f^2 = n^2/r^2 + 2 n^2/r^4 + O(r^-6).  The slow phase
gradient carried by the profile follows from integrating the angular-flux
balance once:

    r f^2 v = -q  int_0^r  xi f^2 (1 - f^2 - k^2) dxi,

so v is recovered from two cumulative moments I1 = int xi f^2 (1 - f^2)
and I2 = int xi f^2.  I1 grows like n^2 log r + (constant); that constant,
extracted with its algebraic tail subtracted, is what the wavenumber
selection formula consumes.

Everything here is solved by collocation (scipy solve_bvp) with the
origin behavior imposed through the exact power-series boundary condition
at a small cut radius and the algebraic tail imposed at the far end.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson, solve_bvp, solve_ivp
from scipy.interpolate import CubicSpline

__all__ = [
    "CoreProfile", "TailConstant", "core_series", "core_series_dc",
    "series_moment", "origin_slope", "piecewise", "far_profile",
    "solve_profile", "v_inner", "tail_constant", "property_scan",
]

# series cut: every collocation solve enters the origin through
# core_series at this radius
R_START = 1e-3
# collocation node budget of every solve_bvp call
MAX_NODES = 200000


def core_series(n, c, r):
    """Small-radius expansion of the profile and its slope.

    f = c r^n (1 + a2 r^2 + a4 r^4) with a2 = -1/(4(n+1)); the r^4
    coefficient couples back to c only for the single-armed case.
    """
    r = np.asarray(r, dtype=float)
    a2, a4, _ = _series_coefficients(n, c)
    f = c * r ** n * (1.0 + a2 * r * r + a4 * r ** 4)
    df = c * (n * r ** (n - 1) + (n + 2) * a2 * r ** (n + 1)
              + (n + 4) * a4 * r ** (n + 3))
    return f, df


def core_series_dc(n, c, r):
    """Derivatives in c of :func:`core_series`'s profile and slope,
    the c-dependent r^4 coefficient of the single-armed case included."""
    r = np.asarray(r, dtype=float)
    a2, a4, da4 = _series_coefficients(n, c)
    f_c = r ** n * (1.0 + a2 * r * r + (a4 + c * da4) * r ** 4)
    df_c = (n * r ** (n - 1) + (n + 2) * a2 * r ** (n + 1)
            + (n + 4) * (a4 + c * da4) * r ** (n + 3))
    return f_c, df_c


def _series_coefficients(n, c):
    """(a2, a4, da4/dc) of the origin series."""
    a2 = -1.0 / (4.0 * (n + 1))
    if n == 1:
        return a2, (c * c + 0.125) / 24.0, c / 12.0
    return a2, -a2 / (8.0 * (n + 2)), 0.0


def series_moment(n, c, k2, r):
    """Head c^2 (1 - k^2) r^(2n+2)/(2n+2) of the moments below the cut."""
    return c * c * (1.0 - k2) * r ** (2 * n + 2) / (2 * n + 2)


def origin_slope(n, q, k):
    """The origin law v ~ origin_slope * r of the phase gradient."""
    return -q * (1.0 - k ** 2) / (2 * n + 2)


def piecewise(r, r_lo, r_hi, below, inside, beyond):
    """Radial function in three pieces: r < r_lo, [r_lo, r_hi], r > r_hi.

    Each piece is called on the radii it covers, if any, so a piece with
    an empty range (r_lo = -inf, r_hi = inf) may be None.  A scalar r
    gives a float, an array an array of its shape.
    """
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    lo, hi = r < r_lo, r > r_hi
    for mask, piece in ((lo, below), (~(lo | hi), inside), (hi, beyond)):
        if mask.any():
            out[mask] = piece(r[mask])
    return float(out[0]) if scalar else out


def cumulative_midpoint_simpson(r, node, mid, head):
    """Cumulative integral on the nodes r, head plus per-interval Simpson.

    ``node`` holds the integrand at the nodes and ``mid`` at the interval
    midpoints, so the cumulation is exact at the nodes, with no
    resample-and-interpolate error; ``head`` is the integral below r[0].
    """
    seg = np.diff(r) / 6.0 * (node[:-1] + 4.0 * mid + node[1:])
    return head + np.concatenate([[0.0], np.cumsum(seg)])


def far_profile(n, r):
    """Algebraic far-field form of the profile and its slope."""
    r = np.asarray(r, dtype=float)
    n2 = float(n * n)
    b4 = n2 + n2 * n2 / 8.0
    f = 1.0 - n2 / (2.0 * r * r) - b4 / r ** 4
    df = n2 / r ** 3 + 4.0 * b4 / r ** 5
    return f, df


@dataclass(frozen=True, eq=False)
class CoreProfile:
    """Solved core profile with its cumulative moments.

    f and f' are piecewise: the power series below the collocation cut,
    the collocation spline on [r_start, r_max], the algebraic tail beyond.
    """

    n: int
    c_f: float
    r_start: float
    r_max: float
    sol: object
    bc_residual: float
    rms_residual: float
    n_nodes: int

    @cached_property
    def _i2_spline(self):
        # the pure-amplitude moment is not worth a collocation state (it
        # destabilizes mesh refinement for n >= 2); composite quadrature
        # over the solved spline delivers it far beyond the k^2-correction
        # accuracy it is used at
        grid = np.geomspace(self.r_start, self.r_max, 30001)
        f = self.sol(grid)[0]
        vals = cumulative_simpson(grid * f * f, x=grid, initial=0.0)
        vals += series_moment(self.n, self.c_f, 0.0, self.r_start)
        return CubicSpline(grid, vals)

    def _piece(self, r, i):
        return piecewise(r, self.r_start, self.r_max,
                         lambda x: core_series(self.n, self.c_f, x)[i],
                         lambda x: self.sol(x)[i],
                         lambda x: far_profile(self.n, x)[i])

    def f(self, r):
        return self._piece(r, 0)

    def df(self, r):
        return self._piece(r, 1)

    def moments(self, r):
        """Cumulative moments (I1, I2) of xi f^2 (1-f^2) and xi f^2,
        read only on the solved range [r_start, r_max]."""
        rr = np.asarray(r, dtype=float)
        if np.any(rr < self.r_start) or np.any(rr > self.r_max):
            raise ValueError("moments must be read inside the solved range")
        i1, i2 = self.sol(rr)[2], self._i2_spline(rr)
        return (float(i1), float(i2)) if np.isscalar(r) else (i1, i2)


@lru_cache(maxsize=32)
def solve_profile(n, r_max=400.0, tol=1e-11, n_mesh=900):
    """Solve the core equation for an n-armed profile by collocation.

    The rise coefficient c_f is carried as the unknown parameter; the
    origin is entered through the exact series at R_START (three orders
    deep) and the far end through the algebraic tail at r_max.

    Returns
    -------
    CoreProfile
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"arm count must be a positive integer, got {n!r}")
    if not R_START < r_max < math.inf:
        raise ValueError(f"r_max must be finite and above the series cut "
                         f"core.R_START = {R_START:g}, got {r_max!r}")
    n = int(n)

    def rhs(r, y, p):
        f, g = y[0], y[1]
        omf2 = 1.0 - f * f
        return np.vstack([
            g,
            -g / r + n * n * f / (r * r) - f * omf2,
            r * f * f * omf2,
        ])

    far_f, _ = far_profile(n, r_max)

    def bc(ya, yb, p):
        c = p[0]
        fs, gs = core_series(n, c, R_START)
        return np.array([
            ya[0] - fs,
            ya[1] - gs,
            ya[2] - series_moment(n, c, 0.0, R_START),
            yb[0] - far_f,
        ])

    r = np.geomspace(R_START, r_max, n_mesh)
    c0 = 0.6 * 4.0 ** (1 - n)
    f_init = np.tanh(np.clip(c0 * r ** n, 0.0, 20.0))
    g_init = np.gradient(f_init, r)
    i1_init = np.maximum(n * n * np.log(r), 0.0)
    y = np.vstack([f_init, g_init, i1_init])
    sol = solve_bvp(rhs, bc, r, y, p=[c0], tol=tol, max_nodes=MAX_NODES)
    if sol.status != 0:
        raise RuntimeError(f"collocation failed: {sol.message}")
    c_f = float(sol.p[0])
    ya = sol.y[:, 0]
    yb = sol.y[:, -1]
    bc_res = float(np.max(np.abs(bc(ya, yb, sol.p))))
    return CoreProfile(
        n=n, c_f=c_f, r_start=R_START, r_max=r_max, sol=sol.sol,
        bc_residual=bc_res, rms_residual=float(np.max(sol.rms_residuals)),
        n_nodes=sol.x.size,
    )


def v_inner(profile, q, k, r):
    """Slow phase gradient induced by the core profile.

    v(r) = -q (I1(r) - k^2 I2(r)) / (r f^2), from the once-integrated
    angular-flux balance; below the cut it follows the origin law
    v ~ origin_slope * r, and past r_max the moments refuse to be read.
    """
    def from_moments(x):
        i1, i2 = profile.moments(x)
        fx = profile.f(x)
        return -q * (i1 - k * k * i2) / (x * fx * fx)

    return piecewise(r, profile.r_start, math.inf,
                     lambda x: origin_slope(profile.n, q, k) * x,
                     from_moments, None)


@dataclass(frozen=True)
class TailConstant:
    """The log-subtracted limit of I1 and its convergence diagnostics."""

    n: int
    c_f: float
    value: float
    r_eval: float
    halving_gap: float


def tail_constant(profile, r_eval=None):
    """Extract lim_{r->inf} (I1(r) - n^2 log r) with its tail subtracted.

    The O(r^-2) part of the integrand is removed analytically, which makes
    the estimate at finite radius converge like r^-4; the halving gap
    |est(r) - est(r/2)| is reported as the convergence measure.
    """
    if r_eval is None:
        r_eval = profile.r_max
    n2 = float(profile.n ** 2)
    t3 = 2.0 * n2 - n2 * n2

    def est(r):
        i1, _ = profile.moments(r)
        return i1 - n2 * math.log(r) + 0.5 * t3 / (r * r)

    value = est(r_eval)
    gap = abs(value - est(0.5 * r_eval))
    return TailConstant(n=profile.n, c_f=profile.c_f, value=value,
                        r_eval=float(r_eval), halving_gap=gap)


def v_inner_by_ode(profile, q, k, r_grid):
    """Same slow phase gradient, by direct integration of its own equation.

    f v' + (f/r + 2 f') v + q f (1 - f^2 - k^2) = 0, started from the
    linear origin behavior at the collocation cut (its truncation error
    decays outward like r^-(2n+1)); exists as an independent cross-check
    of :func:`v_inner`, never as the production route.
    """
    n = profile.n
    r_grid = np.asarray(r_grid, dtype=float)
    r0 = profile.r_start
    if r_grid[0] < r0:
        raise ValueError("cross-check grid must start at or above the cut")
    v0 = origin_slope(n, q, k) * r0

    def rhs(r, y):
        f = profile.f(r)
        df = profile.df(r)
        return [-y[0] * (1.0 / r + 2.0 * df / f) - q * (1.0 - f * f - k * k)]

    out = solve_ivp(rhs, (r0, float(r_grid[-1])), [v0], t_eval=r_grid,
                    rtol=1e-11, atol=1e-13, method="DOP853")
    if not out.success:
        raise RuntimeError(f"phase-gradient integration failed: {out.message}")
    return out.y[0]


def property_scan(profile):
    """Measure the structural properties the profile is supposed to have.

    Returns a dict with: strict monotonicity and range of f; the measured
    r^4 coefficient of 1 - f^2 - n^2/r^2 at r_max/2 and r_max/4 (should
    be 2 n^2); the measured r^3 df coefficient at r_max/2 (should be
    n^2); the phase-gradient slope v/r read from the collocated moments
    at 2 r_start, against the origin law -1/(2n+2); and the fitted
    envelope constant of |v| / (q (1 + log(1+r^2)) / (1+r)).
    """
    n = profile.n
    n2 = float(n * n)
    r_probe = 0.5 * profile.r_max
    grid = np.geomspace(profile.r_start, profile.r_max, 4000)
    fvals = profile.f(grid)
    dfvals = profile.df(grid)

    def r4_coeff(r):
        f = profile.f(r)
        return (1.0 - f * f - n2 / (r * r)) * r ** 4

    def df_coeff(r):
        return profile.df(r) * r ** 3

    r_lin = 2.0 * profile.r_start
    slope = v_inner(profile, 1.0, 0.0, r_lin) / r_lin
    vgrid = np.abs(v_inner(profile, 1.0, 0.0, grid))
    envelope = (1.0 + np.log1p(grid * grid)) / (1.0 + grid)
    return {
        "monotone": bool(np.all(dfvals > 0.0)),
        "in_range": bool(np.all((fvals > 0.0) & (fvals < 1.0))),
        "r4_coeff": float(r4_coeff(r_probe)),
        "r4_coeff_half": float(r4_coeff(0.5 * r_probe)),
        "r4_expected": 2.0 * n2,
        "df_r3_coeff": float(df_coeff(r_probe)),
        "df_r3_expected": n2,
        "origin_slope": float(slope),
        "origin_slope_expected": origin_slope(n, 1.0, 0.0),
        "v_envelope_constant": float(np.max(vgrid / envelope)),
    }
