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
The collocated rows are (f, z, I1), not (f, f', I1), with the slope lifted
by its origin law:

    z = f' - n u^2 f / r,  u = 1 / (1 + r / LIFT_WIDTH).

solve_bvp's Newton stops only when every collocation residual is below
about 0.033 h tol (1 + |rhs|), some 4e-17 next to the cut at tol = 1e-11.
At n = 1 the slope there is f' ~ c_f ~ 0.58, so the f' row sits at its
round-off, above that test, and every mesh pass would spend scipy's cap of
four Jacobians; z is O(r^n) there and tends to f' as r grows, so no row
cancels at either end.  The twisted solve collocates the same z; only this
module knows the lift and the series start (:func:`series_start`).
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson, solve_bvp, solve_ivp
from scipy.interpolate import CubicSpline

__all__ = [
    "CoreProfile", "TailConstant", "core_series", "series_moment",
    "series_start", "amplitude_rows", "amplitude_jac", "slope_from_z",
    "z_from_slope", "origin_slope", "origin_law", "piecewise", "far_profile",
    "solve_profile", "v_inner", "tail_constant", "property_scan",
]

# series cut: every collocation solve enters the origin through
# series_start at this radius; the series of f and f' and the moment heads
# are accurate there to about 3e-15 and 1e-9 relative
R_START = 1e-2
# width of the slope lift; at 1 it grew twisted meshes by 14-15%, and
# without it (u = 1) the n = 1 core solve took 9 mesh passes, not 5
LIFT_WIDTH = 30.0
# collocation node budget of every solve_bvp call
MAX_NODES = 200000
# smallest tolerance solve_bvp honours: below 100 machine epsilons it
# warns, solves at this floor instead and runs to the node budget
TOL_FLOOR = 100.0 * np.finfo(float).eps


def check_tol(tol):
    """Refuse a collocation tolerance that is not finite or below
    TOL_FLOOR, naming the floor."""
    if not (math.isfinite(tol) and tol >= TOL_FLOOR):
        raise ValueError(f"tol must be finite and at least core.TOL_FLOOR = "
                         f"{TOL_FLOOR:.3g} (100 machine epsilons, the floor "
                         f"of solve_bvp), got {tol!r}")


def core_series(n, c, r):
    """Small-radius expansion of the profile and its slope.

    f = c r^n (1 + a2 r^2 + a4 r^4) with a2 = -1/(4(n+1)); the r^4
    coefficient couples back to c only for the single-armed case.
    """
    return _series(n, c, np.asarray(r, dtype=float), _quartic(n, c)[0], n)


def _series(n, c, r, a4, m):
    """c r^n P and c r^(n-1) (m P + 2 a2 r^2 + 4 a4 r^4) for
    P = 1 + a2 r^2 + a4 r^4: f and, at m = n, f'; at m = n (1 - u^2), z."""
    a2 = -1.0 / (4.0 * (n + 1))
    head = 1.0 + a2 * r * r + a4 * r ** 4
    return (c * r ** n * head, c * r ** (n - 1)
            * (m * head + 2.0 * a2 * r * r + 4.0 * a4 * r ** 4))


def _quartic(n, c):
    """(a4, da4/dc) of the origin series."""
    if n == 1:
        return (c * c + 0.125) / 24.0, c / 12.0
    return 1.0 / (32.0 * (n + 1) * (n + 2)), 0.0


def _moment_heads(n, r):
    """(p2, p4): the head of int_0^r xi f^2 per c^2 through relative order
    r^2, and the leading term of int_0^r xi f^4 per c^4, which is of that
    order at n = 1 and smaller at n >= 2."""
    a2 = -1.0 / (4.0 * (n + 1))
    p2 = (r ** (2 * n + 2) / (2 * n + 2)
          + 2.0 * a2 * r ** (2 * n + 4) / (2 * n + 4))
    return p2, r ** (4 * n + 2) / (4 * n + 2)


def series_moment(n, c, k2, r):
    """Head of the moment int_0^r xi f^2 (1 - f^2 - k^2) below the cut."""
    p2, p4 = _moment_heads(n, r)
    return c * c * (1.0 - k2) * p2 - c ** 4 * p4


def series_start(n, c, k2):
    """Rows (f, z, M) of the origin series at R_START, M being
    :func:`series_moment`, and their derivatives in (c, k^2), (3, 2).

    z = c r^(n-1) [m P + 2 a2 r^2 + 4 a4 r^4], P = f / (c r^n) and
    m = n (1 - u^2) = n r (2 L + r) / (L + r)^2 for L = LIFT_WIDTH, is
    summed term by term, not as f' - a f of two O(c) numbers.  The
    twist's v^2 adds origin_slope^2 / (8 (n+2)) to a4, at most 2.2e-11 of
    f for |q| <= 1, so the untwisted series serves every solve."""
    r = R_START
    a4, da4 = _quartic(n, c)
    m = n * r * (2.0 * LIFT_WIDTH + r) / (LIFT_WIDTH + r) ** 2
    p2, p4 = _moment_heads(n, r)
    f_c, z_c = _series(n, 1.0, r, a4 + c * da4, m)
    rows = np.array([*_series(n, c, r, a4, m), series_moment(n, c, k2, r)])
    d_rows = np.array([[f_c, 0.0], [z_c, 0.0],
                       [2.0 * c * (1.0 - k2) * p2 - 4.0 * c ** 3 * p4,
                        -c * c * p2]])
    return rows, d_rows


def origin_slope(n, q, k):
    """The leading origin law v ~ origin_slope * r of the phase gradient."""
    return -q * (1.0 - k ** 2) / (2 * n + 2)


def origin_law(n, q, k, c, r):
    """Phase gradient below the cut, v = w / (r f^2) from the origin
    series, through relative order r^2:

        v = s r (1 + r^2 / (2 (n+1)(n+2))) + q c^2 r^(2n+1) / (4n+2),

    s = origin_slope(n, q, k); the last term, from the f^4 head, reaches
    order r^3 only at n = 1.
    """
    r = np.asarray(r, dtype=float)
    s = origin_slope(n, q, k)
    return (s * r * (1.0 + r * r / (2.0 * (n + 1) * (n + 2)))
            + q * c * c * r ** (2 * n + 1) / (4 * n + 2))


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


def _tail_coefficients(n):
    """(b2, b4) of the algebraic tail f = 1 - b2/r^2 - b4/r^4."""
    n2 = float(n * n)
    return 0.5 * n2, n2 + n2 * n2 / 8.0


def far_profile(n, r):
    """Algebraic far-field form of the profile and its slope."""
    r = np.asarray(r, dtype=float)
    b2, b4 = _tail_coefficients(n)
    f = 1.0 - b2 / (r * r) - b4 / r ** 4
    df = 2.0 * b2 / r ** 3 + 4.0 * b4 / r ** 5
    return f, df


def _tail_floor(n):
    """Radius below which :func:`far_profile`'s f is not positive."""
    b2, b4 = _tail_coefficients(n)
    x = (math.sqrt(b2 * b2 + 4.0 * b4) - b2) / (2.0 * b4)
    return 1.0 / math.sqrt(x)


def _lift(n, r):
    """(a, gain): the weight a = n u^2 / r of the slope row z = f' - a f,
    u = 1 / (1 + r / LIFT_WIDTH), and the f coefficient of z',
    n^2/r^2 - a' - a/r - a^2, written without the n^2/r^2 cancellation."""
    u = 1.0 / (1.0 + r / LIFT_WIDTH)
    uu = u * u
    a = n * uu / r
    return a, a * (n * (1.0 + u) * (1.0 + uu) + 2.0 * uu) / (LIFT_WIDTH * u)


def slope_from_z(n, r, f, z):
    """The slope f' = z + a f of the rows (f, z)."""
    return z + _lift(n, r)[0] * f


def z_from_slope(n, r, f, df):
    """The slope row z = f' - a f of a profile f and its slope f'."""
    return df - _lift(n, r)[0] * f


def amplitude_rows(n, r, f, z, v2=0.0):
    """(f', z') of f'' + f'/r - n^2 f/r^2 + f (1 - f^2 - v^2) = 0 in the
    rows (f, z): z' = gain f - (1/r + a) z - f (1 - f^2 - v^2)."""
    a, gain = _lift(n, r)
    return z + a * f, gain * f - (1.0 / r + a) * z - f * (1.0 - f * f - v2)


def amplitude_jac(n, r, f, v2=0.0):
    """Jacobian of :func:`amplitude_rows` in (f, z) at fixed v^2, as
    [[df'/df, df'/dz], [dz'/df, dz'/dz]]; dz'/d(v^2) is f."""
    a, gain = _lift(n, r)
    return [[a, np.ones_like(f)],
            [gain - 1.0 + 3.0 * f * f + v2, -(1.0 / r + a)]]


@dataclass(frozen=True, eq=False)
class CoreProfile:
    """Solved core profile with its cumulative moments.

    f and f' are piecewise: the power series below the collocation cut,
    the collocation spline on [r_start, r_max], the algebraic tail beyond.
    ``sol`` holds the collocated rows (f, z, I1); f' is formed from them
    in one place, ``_inside``, by :func:`slope_from_z`.
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
        # the head of int xi f^2 alone: no f^4 term
        vals += self.c_f ** 2 * _moment_heads(self.n, self.r_start)[0]
        return CubicSpline(grid, vals)

    def _inside(self, r):
        f, z = self.sol(r)[:2]
        return f, slope_from_z(self.n, r, f, z)

    def _piece(self, r, i):
        return piecewise(r, self.r_start, self.r_max,
                         lambda x: core_series(self.n, self.c_f, x)[i],
                         lambda x: self._inside(x)[i],
                         lambda x: far_profile(self.n, x)[i])

    def f(self, r):
        return self._piece(r, 0)

    def df(self, r):
        return self._piece(r, 1)

    def i1(self, r):
        """Cumulative moment I1 of xi f^2 (1-f^2), read only on the solved
        range [r_start, r_max], without building the I2 quadrature."""
        rr = np.asarray(r, dtype=float)
        if np.any(rr < self.r_start) or np.any(rr > self.r_max):
            raise ValueError("moments must be read inside the solved range")
        i1 = self.sol(rr)[2]
        return float(i1) if np.isscalar(r) else i1

    def moments(self, r):
        """Cumulative moments (I1, I2) of xi f^2 (1-f^2) and xi f^2,
        read only on the solved range [r_start, r_max]."""
        i1, i2 = self.i1(r), self._i2_spline(np.asarray(r, dtype=float))
        return (i1, float(i2)) if np.isscalar(r) else (i1, i2)


@lru_cache(maxsize=32)
def solve_profile(n, r_max=400.0, tol=1e-11, n_mesh=900):
    """Solve the core equation for an n-armed profile by collocation.

    The rise coefficient c_f is carried as the unknown parameter; the
    origin is entered through the exact series at the cut R_START = 1e-2
    (:func:`series_start`: f, z three orders deep, the moment two) and the
    far end through the algebraic tail at r_max.  The slope is collocated
    as the lifted row z = f' - n f / (r (1 + r/LIFT_WIDTH)^2), whose
    round-off near the cut lies far below solve_bvp's Newton stopping test
    (see the module notes), and :meth:`CoreProfile.df` turns it back.
    Newton runs on the exact Jacobians of the rows and of the boundary
    conditions.  An r_max where the tail's f is not in (0, 1) is refused
    with the radius it needs, a tol not finite or below TOL_FLOOR is
    refused naming it, and a converged c_f <= 0 raises: none is a profile.

    Returns
    -------
    CoreProfile
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"arm count must be a positive integer, got {n!r}")
    if not R_START < r_max < math.inf:
        raise ValueError(f"r_max must be finite and above the series cut "
                         f"core.R_START = {R_START:g}, got {r_max!r}")
    check_tol(tol)
    n = int(n)
    far_f, _ = far_profile(n, r_max)
    if not 0.0 < far_f < 1.0:
        raise ValueError(
            f"r_max = {r_max!r} is below the algebraic tail's floor: its f "
            f"there is {float(far_f):.4g}, outside (0, 1); n = {n} needs "
            f"r_max > {_tail_floor(n):.6g}")

    def rhs(r, y, p):
        f = y[0]
        return np.vstack([*amplitude_rows(n, r, f, y[1]),
                          r * f * f * (1.0 - f * f)])

    def fun_jac(r, y, p):
        f = y[0]
        zero = np.zeros_like(f)
        (ff, fz), (zf, zz) = amplitude_jac(n, r, f)
        return (np.array([[ff, fz, zero], [zf, zz, zero],
                          [r * f * (2.0 - 4.0 * f * f), zero, zero]]),
                np.zeros((3, 1, r.size)))

    def bc(ya, yb, p):
        rows, _ = series_start(n, p[0], 0.0)
        return np.append(ya - rows, yb[0] - far_f)

    def bc_jac(ya, yb, p):
        _, d_rows = series_start(n, p[0], 0.0)
        dbc_dyb = np.zeros((4, 3))
        dbc_dyb[3, 0] = 1.0
        return np.eye(4, 3), dbc_dyb, -np.vstack([d_rows[:, :1], [0.0]])

    r = np.geomspace(R_START, r_max, n_mesh)
    c0 = 0.6 * 4.0 ** (1 - n)
    f_init = np.tanh(np.clip(c0 * r ** n, 0.0, 20.0))
    y = np.vstack([f_init, z_from_slope(n, r, f_init, np.gradient(f_init, r)),
                   np.maximum(n * n * np.log(r), 0.0)])
    sol = solve_bvp(rhs, bc, r, y, p=[c0], tol=tol, fun_jac=fun_jac,
                    bc_jac=bc_jac, max_nodes=MAX_NODES)
    if sol.status != 0:
        raise RuntimeError(f"collocation failed: {sol.message}")
    c_f = float(sol.p[0])
    if not c_f > 0.0:
        raise RuntimeError(f"collocation converged to c_f = {c_f:.6g} at "
                           f"r_max = {r_max!r}, which is not a profile")
    bc_res = float(np.max(np.abs(bc(sol.y[:, 0], sol.y[:, -1], sol.p))))
    return CoreProfile(
        n=n, c_f=c_f, r_start=R_START, r_max=r_max, sol=sol.sol,
        bc_residual=bc_res, rms_residual=float(np.max(sol.rms_residuals)),
        n_nodes=sol.x.size,
    )


def v_inner(profile, q, k, r):
    """Slow phase gradient induced by the core profile.

    v(r) = -q (I1(r) - k^2 I2(r)) / (r f^2), from the once-integrated
    angular-flux balance; below the cut it follows :func:`origin_law`,
    and past r_max the moments refuse to be read.
    """
    def from_moments(x):
        i1, i2 = profile.moments(x)
        fx = profile.f(x)
        return -q * (i1 - k * k * i2) / (x * fx * fx)

    return piecewise(r, profile.r_start, math.inf,
                     lambda x: origin_law(profile.n, q, k, profile.c_f, x),
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
        return profile.i1(r) - n2 * math.log(r) + 0.5 * t3 / (r * r)

    value = est(r_eval)
    gap = abs(value - est(0.5 * r_eval))
    return TailConstant(n=profile.n, c_f=profile.c_f, value=value,
                        r_eval=float(r_eval), halving_gap=gap)


def v_inner_by_ode(profile, q, k, r_grid):
    """Same slow phase gradient, by direct integration of its own equation.

    f v' + (f/r + 2 f') v + q f (1 - f^2 - k^2) = 0, started from the
    origin law at the collocation cut (its truncation error decays
    outward like r^-(2n+1)); exists as an independent cross-check
    of :func:`v_inner`, never as the production route.
    """
    n = profile.n
    r_grid = np.asarray(r_grid, dtype=float)
    r0 = profile.r_start
    if r_grid[0] < r0:
        raise ValueError("cross-check grid must start at or above the cut")
    v0 = origin_law(n, q, k, profile.c_f, r0)

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
    at 2 r_start, against :func:`origin_law` there (at q = 1, k = 0,
    whose leading slope is -1/(2n+2)); and the fitted
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
        "df_r3_coeff": float(profile.df(r_probe) * r_probe ** 3),
        "df_r3_expected": n2,
        "origin_slope": float(slope),
        "origin_slope_expected": float(
            origin_law(n, 1.0, 0.0, profile.c_f, r_lin) / r_lin),
        "v_envelope_constant": float(np.max(vgrid / envelope)),
    }
