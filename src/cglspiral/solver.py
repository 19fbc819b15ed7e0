"""Full nonlinear solve for a rotating n-armed solution at twist q.

Unknowns are the radial amplitude f, its phase gradient v, the core
slope coefficient c_f, and the selected wavenumber k.  The working
variables are (f, g = f', w = r f^2 v): w obeys the exact first
integral w' = -q r f^2 (1 - f^2 - k^2), which keeps the phase equation
regular through the origin where dividing by f would not be.

The two-point problem runs from a series start at core.R_START to an outer
matching radius r_max chosen so that k|q| r_max is order one, where f
and v are tied to the decaying far-field pair built from the imaginary
order Bessel cone (see :mod:`cglspiral.outer`).  A damped-Newton
collocation scheme (scipy's solve_bvp) carries (c_f, log k) as unknown
parameters; log k because k spans many orders of magnitude across a
twist sweep.  Newton runs on the exact Jacobians of the equations and
boundary conditions (:func:`_rhs_jac`, :func:`_boundary`), never on
difference estimates.  Plain origin shooting is kept as a diagnostic
(:func:`integrate_from_origin`) but cannot reach the far boundary at
tolerance: the growing mode amplifies initial rounding by e^{sqrt(2) r}.

Negative twist is solved natively: every Newton step at -q is the step
at +q with w negated, so the mesh and k agree bit for bit and v flips
sign exactly.  Zero twist returns the untwisted core profile with k = 0
exactly.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_bvp, solve_ivp

from . import core, outer, wavenumber
from .outer import SpiralParams

__all__ = [
    "SpiralParams", "RadialProfile", "WavenumberReport",
    "system_residual", "lambda_omega_residual", "cgl_lambda_omega",
    "integrate_from_origin", "solve_spiral",
    "wavenumber_sweep",
]

_TINY = 1e-300
# initial collocation mesh of the twisted solve
N_MESH = 1400
# largest matching radius a cold solve may ask for
MAX_DOMAIN = 1e5
# target for k|q|*r_max; the outer-dominant model error shrinks with R,
# the domain (and node count) grows, and [0.5, 2] is the validated window
R_MATCH_TARGET = 1.6
R_MATCH_WINDOW = (0.5, 2.0)


@dataclass
class RadialProfile:
    """Converged (or diagnostic) radial solution on a grid.

    ``interpolant(r)`` returns the rows (f, f', w) with w = r f^2 v, the
    layout of :func:`_rhs`; ``f_at`` and ``v_at`` are its readers.
    ``integral`` holds I(r) = int_0^r xi f^2 (1 - f^2 - k^2) dxi computed
    by independent quadrature over the dense interpolant, so comparing
    w against -q I is a real consistency check, not a tautology.
    """

    n: int
    q: float
    k: float
    c_f: float
    r_grid: np.ndarray
    f: np.ndarray
    df: np.ndarray
    v: np.ndarray
    integral: np.ndarray
    w: np.ndarray
    interpolant: object = None
    escaped: bool = False
    escape_radius: float = math.nan

    @property
    def r_start(self):
        return float(self.r_grid[0])

    @property
    def r_max(self):
        return float(self.r_grid[-1])

    def first_integral_gap(self):
        """sup |w + q I| over the grid (exact identity on solutions)."""
        return float(np.max(np.abs(self.w + self.q * self.integral)))

    def f_at(self, r):
        """Amplitude at radii r: series below r_start, interpolant on the
        grid, frozen at f[-1] past r_max."""
        return core.piecewise(
            r, self.r_start, self.r_max,
            lambda x: core.core_series(self.n, self.c_f, x)[0],
            lambda x: self.interpolant(x)[0], lambda x: self.f[-1])

    def v_at(self, r):
        """Phase gradient at radii r, origin-regular below r_start and
        frozen at v[-1] past r_max."""
        def from_w(x):
            y = self.interpolant(x)
            return y[2] / (x * y[0] * y[0] + _TINY)

        slope = core.origin_slope(self.n, self.q, self.k)
        return core.piecewise(r, self.r_start, self.r_max,
                              lambda x: slope * x, from_w,
                              lambda x: self.v[-1])


@dataclass
class WavenumberReport:
    """Outcome of one full solve, with the asymptotic comparison.

    ``newton_iterations`` is solve_bvp's ``niter``, the mesh-refinement
    passes of the last matching-radius attempt, not Newton steps.
    """

    n: int
    q: float
    k_numeric: float
    k_asymptotic: float
    ratio: float
    boundary_residuals: tuple
    newton_iterations: int
    residual: float
    r_max: float
    mu: float
    c_f: float
    properties: dict = field(default_factory=dict)
    status: int = 0
    message: str = "converged"

    @property
    def abs_ratio_minus_1_times_logq(self):
        if not math.isfinite(self.ratio):
            return math.nan
        return abs(self.ratio - 1.0) * abs(math.log(abs(self.q)))


def system_residual(r, f, df, ddf, v, dv, params):
    """Residuals of the reduced amplitude/phase system at given states.

    res_f = f'' + f'/r - f n^2/r^2 + f (1 - f^2 - v^2)
    res_v = f v' + f v / r + 2 f' v + q f (1 - f^2 - k^2)

    Both vanish on exact rotating solutions.
    """
    n, q, k = params.n, params.q, params.k
    res_f = ddf + df / r - f * n * n / (r * r) + f * (1.0 - f * f - v * v)
    res_v = f * dv + f * v / r + 2.0 * df * v + q * f * (1.0 - f * f - k * k)
    return res_f, res_v


def lambda_omega_residual(r, f, df, ddf, chi_d, chi_dd, lambda_fn, omega_fn,
                          Omega, n=1):
    """Residuals of the general modulus/phase reaction-diffusion reduction.

    res_f   = f'' + f'/r - f n^2/r^2 + f (lambda(f) - chi'^2)
    res_chi = f chi'' + f chi'/r + 2 f' chi' + f (omega(f) - Omega)

    With lambda(z) = 1 - z^2 and omega(z) = Omega + q(1 - k^2 - z^2) these
    coincide with :func:`system_residual` identically.
    """
    lam = lambda_fn(f)
    om = omega_fn(f)
    res_f = ddf + df / r - f * n * n / (r * r) + f * (lam - chi_d * chi_d)
    res_chi = f * chi_dd + f * chi_d / r + 2.0 * df * chi_d + f * (om - Omega)
    return res_f, res_chi


def cgl_lambda_omega(q, k, Omega):
    """The modulus/frequency pair that specializes the general reduction."""
    k2 = k * k
    lam = lambda z: 1.0 - z * z
    om = lambda z: Omega + q * (1.0 - k2 - z * z)
    return lam, om


def _series_start(n, q, c, k2):
    fs, dfs = core.core_series(n, c, core.R_START)
    return fs, dfs, -q * core.series_moment(n, c, k2, core.R_START)


def _series_start_dp(n, q, c, k2):
    """Derivatives of the rows of :func:`_series_start` in (c_f, log k)."""
    fs_c, dfs_c = core.core_series_dc(n, c, core.R_START)
    # w0 = -q c^2 (1 - k^2) head
    head = core.R_START ** (2 * n + 2) / (2 * n + 2)
    return np.array([[fs_c, 0.0], [dfs_c, 0.0],
                     [-2.0 * q * c * (1.0 - k2) * head,
                      2.0 * q * c * c * k2 * head]])


def _rhs(n, q, k, r, y):
    """Twisted system in the rows (f, f', w), stacked as (3, ...) arrays."""
    f, g, w = y
    v = w / (r * f * f + _TINY)
    return np.vstack([
        g,
        -g / r + n * n * f / (r * r) - f * (1.0 - f * f - v * v),
        -q * r * f * f * (1.0 - f * f - k * k),
    ])


def _rhs_jac(n, q, k, r, y):
    """Exact Jacobians of :func:`_rhs` in the rows (f, f', w) and in the
    parameters (c_f, log k), shaped (3, 3, m) and (3, 2, m) for solve_bvp."""
    f, g, w = y
    d = r * f * f + _TINY
    v = w / d
    dv_df = -2.0 * r * f * w / (d * d)
    zero, one = np.zeros_like(f), np.ones_like(f)
    df_dy = np.array([
        [zero, one, zero],
        [n * n / (r * r) - 1.0 + 3.0 * f * f + v * v + 2.0 * f * v * dv_df,
         -1.0 / r, 2.0 * f * v / d],
        [-2.0 * q * r * f * (1.0 - 2.0 * f * f - k * k), zero, zero],
    ])
    df_dp = np.array([[zero, zero], [zero, zero],
                      [zero, 2.0 * q * r * f * f * k * k]])
    return df_dy, df_dp


def _profile(n, q, k, c, r, y, interpolant, **diagnostics):
    """Record of the rows y = (f, f', w) on the nodes r, with the first
    integral by midpoint Simpson, midpoints from the interpolant."""
    f, g, w = y
    k2 = k * k
    mid = 0.5 * (r[:-1] + r[1:])
    fm = interpolant(mid)[0]
    I = core.cumulative_midpoint_simpson(
        r, r * f * f * (1.0 - f * f - k2), mid * fm * fm * (1.0 - fm * fm - k2),
        core.series_moment(n, c, k2, core.R_START))
    return RadialProfile(n=n, q=q, k=k, c_f=c, r_grid=r, f=f, df=g,
                         v=w / (r * f * f + _TINY), integral=I, w=w,
                         interpolant=interpolant, **diagnostics)


def integrate_from_origin(params, c_f_guess, r_max):
    """March the profile outward from a series start at given (c_f, k).

    The march advances the rows (f, f', w) of the collocation solve.
    Marching stops early when f escapes the physical strip (crosses zero
    or runs past 1.05); the escape radius is recorded for bracketing
    diagnostics.  Not a boundary-tolerance route: the growing mode
    amplifies rounding by e^{sqrt(2) r}.
    """
    if c_f_guess <= 0.0:
        raise ValueError(f"core slope must be positive, got {c_f_guess!r}")
    n, q, k = params.n, params.q, params.k

    def escape(r, y):
        return min(y[0] - (-0.02), 1.05 - y[0])
    escape.terminal = True
    escape.direction = -1

    grid = np.geomspace(core.R_START, r_max, 2000)
    sol = solve_ivp(lambda r, y: _rhs(n, q, k, r, y), (core.R_START, r_max),
                    _series_start(n, q, c_f_guess, k * k), method="DOP853",
                    rtol=1e-10, atol=1e-13, dense_output=True, events=escape,
                    t_eval=grid, vectorized=True)
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"outward march failed: {sol.message}")
    escaped = sol.status == 1
    r_esc = float(sol.t_events[0][0]) if escaped else math.nan
    return _profile(n, q, k, c_f_guess, sol.t, sol.y, sol.sol,
                    escaped=escaped, escape_radius=r_esc)


def _boundary(n, q, r_max):
    """Boundary residuals of the twisted solve and their exact Jacobians.

    The rows are the series start at core.R_START (f, f', w) and the far
    field at r_max (f and v); the parameters are p = (c_f, log k).
    """
    sgn = 1.0 if q > 0 else -1.0

    def bc(ya, yb, p):
        c, logk = p
        k = np.exp(logk)
        fs, dfs, w0 = _series_start(n, q, c, k * k)
        _, _, f_o, v_o = outer.far_field(n, q, k, k * abs(q) * r_max)
        v_end = yb[2] / (r_max * yb[0] * yb[0] + _TINY)
        return np.array([ya[0] - fs, ya[1] - dfs, ya[2] - w0,
                         yb[0] - f_o, v_end - v_o])

    def bc_jac(ya, yb, p):
        c, logk = p
        k = np.exp(logk)
        R = k * abs(q) * r_max
        # dR/dlog k = R, and the far field's eps n/R = n/r_max is free of k
        V0, dV0, f_o, _ = outer.far_field(n, q, k, R)
        dV = k * (V0 + R * dV0)
        d = r_max * yb[0] * yb[0] + _TINY
        dbc_dya = np.eye(5, 3)
        dbc_dyb = np.zeros((5, 3))
        dbc_dyb[3, 0] = 1.0
        dbc_dyb[4] = [-2.0 * r_max * yb[0] * yb[2] / (d * d), 0.0, 1.0 / d]
        dbc_dp = np.vstack([-_series_start_dp(n, q, c, k * k),
                            [[0.0, k * V0 * dV / f_o], [0.0, -sgn * dV]]])
        return dbc_dya, dbc_dyb, dbc_dp

    return bc, bc_jac


def _collocation_solve(n, q, k0, c0, r_max, tol):
    sgn = 1.0 if q > 0 else -1.0
    bc, bc_jac = _boundary(n, q, r_max)
    r = np.geomspace(core.R_START, r_max, N_MESH)
    prof0 = core.solve_profile(n)
    f0 = prof0.f(r)
    rb = k0 * (2 * n + 2) / (abs(q) * (1.0 - k0 * k0))
    v0 = -sgn * k0 * r / np.sqrt(r * r + rb * rb)
    y = np.vstack([f0, prof0.df(r), r * f0 * f0 * v0])
    try:
        sol = solve_bvp(lambda r, y, p: _rhs(n, q, np.exp(p[1]), r, y), bc,
                        r, y, p=[c0, math.log(k0)], tol=tol,
                        fun_jac=lambda r, y, p: _rhs_jac(n, q, np.exp(p[1]),
                                                         r, y),
                        bc_jac=bc_jac, max_nodes=core.MAX_NODES, verbose=0)
    except ValueError as exc:
        # an iterate left the far field's domain: outer.far_field refused
        reason = exc
    else:
        if sol.status == 0:
            return sol
        reason = sol.message
    raise RuntimeError(f"collocation failed at n={n}, q={q} "
                       f"(r_max={r_max:.4g}): {reason}")


def _check_properties(profile, report):
    """Pointwise structure checks; violations mark the solve suspect."""
    k2 = profile.k * profile.k
    cap = math.sqrt(1.0 - k2)
    f, v = profile.f, profile.v
    props = {
        "f_increasing": bool(np.all(np.diff(f) > -1e-12)),
        "f_in_range": bool(np.all((f > 0.0) & (f < cap + 1e-12))),
        "v_negative": bool(np.all((v < 0.0) if profile.q > 0 else (v > 0.0))) if profile.q != 0 else True,
        "far_slope_small": bool(abs(profile.df[-1]) <=
                                100.0 * (profile.n ** 2 / profile.r_max ** 3
                                         + profile.k * k2 * abs(profile.q))),
    }
    props["suspect"] = not all(props.values())
    report.properties = props
    if props["suspect"]:
        report.message = "converged but structure checks failed: " + ", ".join(
            name for name, ok in props.items() if name != "suspect" and not ok)


def _q0_solve(n):
    prof0 = core.solve_profile(n)
    r = np.geomspace(core.R_START, prof0.r_max, 4001)
    interp = lambda rr: np.vstack([prof0.f(rr), prof0.df(rr),
                                   np.zeros_like(np.asarray(rr, float))])
    profile = _profile(n, 0.0, 0.0, prof0.c_f, r, interp(r), interp)
    report = WavenumberReport(n=n, q=0.0, k_numeric=0.0, k_asymptotic=0.0,
                              ratio=math.nan, boundary_residuals=(0.0, 0.0),
                              newton_iterations=0, residual=prof0.rms_residual,
                              r_max=prof0.r_max, mu=0.0, c_f=prof0.c_f)
    _check_properties(profile, report)
    return profile, report


def solve_spiral(n, q, init=None, tol=1e-10, r_max=None):
    """Solve for the rotating profile and selected wavenumber at twist q.

    ``init`` optionally supplies (c_f, k) starting values; by default the
    untwisted core slope and the asymptotic wavenumber seed the solve.
    The matching radius (unless given) targets k|q| r_max ~ 1.6 and is
    re-adapted if the converged k lands outside the validated window.
    A matching radius beyond the domain budget MAX_DOMAIN is refused
    before the solve that would use it, with the radius spelled out.  The
    outer boundary condition is outer.far_field itself, so a Newton
    iterate outside its domain fails the solve with its reason, and the
    report's boundary residuals are the endpoint's distance from it.
    """
    if r_max is not None and not core.R_START < r_max < math.inf:
        raise ValueError(f"r_max must be finite and above the series cut "
                         f"core.R_START = {core.R_START:g}, got {r_max!r}")
    if q == 0.0:
        return _q0_solve(n)
    ka = wavenumber.kappa_asym(n, abs(q))
    if init is not None:
        c0, k0 = init
        if not (0.0 < k0 < 1.0 and 0.0 < c0 < math.inf):
            raise ValueError(f"initial (c_f, k)=({c0!r}, {k0!r}) out of range")
    else:
        c0 = core.solve_profile(n).c_f
        k0 = min(ka.value, 0.3) if not ka.underflowed else 0.0
    if k0 == 0.0:
        raise ValueError(
            f"twist q={q} is below the tractable window: the selected "
            f"wavenumber has log k = {ka.log_value:.1f}, far beyond "
            "double-precision dynamic range")
    for _ in range(3):
        # the matching radius for the current k; re-adapting it around a
        # converged k starts a fresh mesh seeded with that (c_f, k)
        r_match = R_MATCH_TARGET / (k0 * abs(q)) if r_max is None else r_max
        if r_max is None and r_match > MAX_DOMAIN:
            raise ValueError(
                f"twist q={q} needs a matching radius ~{r_match:.3g} "
                f"(log k = {math.log(k0):.2f}), beyond the domain budget "
                f"MAX_DOMAIN = {MAX_DOMAIN:.3g}")
        sol = _collocation_solve(n, q, k0, c0, r_match, tol)
        c0, k0 = float(sol.p[0]), float(np.exp(sol.p[1]))
        R_actual = k0 * abs(q) * r_match
        if r_max is not None or R_MATCH_WINDOW[0] <= R_actual <= R_MATCH_WINDOW[1]:
            break

    k = k0
    profile = _profile(n, q, k, c0, sol.x, sol.y, sol.sol)
    params = SpiralParams(n=n, q=q, k=k)
    _, _, f_o, v_o = outer.far_field(n, q, k, params.eps * profile.r_max)
    ratio = k / ka.value if ka.value > 0 else math.inf
    report = WavenumberReport(
        n=n, q=q, k_numeric=k, k_asymptotic=ka.value, ratio=ratio,
        boundary_residuals=(float(profile.f[-1] - f_o),
                            float(profile.v[-1] - v_o)),
        newton_iterations=int(sol.niter),
        residual=float(np.max(sol.rms_residuals)), r_max=profile.r_max,
        mu=params.mu, c_f=profile.c_f)
    _check_properties(profile, report)
    return profile, report


def wavenumber_sweep(n, q_list, tol=1e-10):
    """Descending-twist sweep with asymptotically warm-started seeds.

    Each solve seeds the next through the asymptotic transfer
    log k(q_next) ~ log k(q_prev) + [log kappa(q_next) - log kappa(q_prev)],
    except at q = 0 and the twist after it, which start cold.  Per-twist
    failures are isolated: the report row carries the error message and
    the sweep continues.
    """
    qs = list(q_list)
    if any(b >= a for a, b in zip(qs, qs[1:])):
        raise ValueError(f"sweep twists must be strictly descending, got {qs}")
    reports = []
    k_prev = c_prev = q_prev = None
    for q in qs:
        try:
            if not k_prev or q == 0.0:
                init = None
            else:
                lk = math.log(k_prev) \
                    + wavenumber.kappa_asym(n, abs(q)).log_value \
                    - wavenumber.kappa_asym(n, abs(q_prev)).log_value
                init = (c_prev, math.exp(lk))
            profile, report = solve_spiral(n, q, init=init, tol=tol)
            k_prev, c_prev, q_prev = report.k_numeric, report.c_f, q
        except (ValueError, RuntimeError) as exc:
            report = WavenumberReport(
                n=n, q=q, k_numeric=math.nan, k_asymptotic=math.nan,
                ratio=math.nan, boundary_residuals=(math.nan, math.nan),
                newton_iterations=0, residual=math.nan, r_max=math.nan,
                mu=math.nan, c_f=math.nan, status=2, message=str(exc))
        reports.append(report)
    return reports
