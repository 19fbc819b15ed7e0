"""Full nonlinear solve for a rotating n-armed solution at twist q.

Unknowns are the radial amplitude f, its phase gradient v, the core
slope coefficient c_f, and the selected wavenumber k.  The working
variables are (f, z, w = r f^2 v).  z is the core solve's slope row, f'
with its origin law taken off (see :mod:`cglspiral.core`, which alone
knows it), so Newton's stopping test is not held at round-off next to
the series cut.  w obeys the exact first integral
w' = -q r f^2 (1 - f^2 - k^2), which keeps the phase equation regular
through the origin where dividing by f would not be.

One collocation solve per twist runs from core.series_start at
core.R_START to an outer matching radius r_max (see :func:`solve_spiral`),
where f and v are tied to the decaying far-field pair built from the
imaginary order Bessel cone (see :mod:`cglspiral.outer`).  A damped-Newton
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
# k|q|*r_max at the seed k; the truncation error of matching at r_max
# falls exponentially in R while the domain (and node count) grows
R_MATCH_TARGET = 1.6
# stated bound on sup |w + q I|, the first integral's gap
FIRST_INTEGRAL_BOUND = 1e-9


@dataclass
class RadialProfile:
    """Converged (or diagnostic) radial solution on a grid.

    ``interpolant(r)`` returns the rows (f, z, w = r f^2 v) of :func:`_rhs`;
    ``f_at`` and ``v_at`` are its readers, and ``df`` holds f' on the grid.
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

    def _piece(self, r, below, inside, frozen):
        # the frozen piece covers r >= r_max itself, so the interpolant is
        # read on [r_start, r_max) only
        return core.piecewise(r, self.r_start,
                              np.nextafter(self.r_max, -math.inf),
                              below, inside, lambda x: frozen)

    def f_at(self, r):
        """Amplitude at radii r: series below r_start, interpolant on the
        grid, frozen at f[-1] from r_max on."""
        return self._piece(
            r, lambda x: core.core_series(self.n, self.c_f, x)[0],
            lambda x: self.interpolant(x)[0], self.f[-1])

    def v_at(self, r):
        """Phase gradient at radii r: the origin law below r_start, w/(r f^2)
        on the grid, frozen at v[-1] from r_max on."""
        def from_w(x):
            y = self.interpolant(x)
            return y[2] / (x * y[0] * y[0] + _TINY)

        return self._piece(
            r, lambda x: core.origin_law(self.n, self.q, self.k, self.c_f, x),
            from_w, self.v[-1])


@dataclass
class WavenumberReport:
    """Outcome of one full solve, with the asymptotic comparison.

    ``newton_iterations`` is solve_bvp's ``niter``, its mesh passes.  The
    outcome fields default to a failed solve's: NaN, and 0 passes.
    """

    n: int
    q: float
    k_numeric: float = math.nan
    k_asymptotic: float = math.nan
    ratio: float = math.nan
    boundary_residuals: tuple = (math.nan, math.nan)
    newton_iterations: int = 0
    residual: float = math.nan
    r_max: float = math.nan
    mu: float = math.nan
    c_f: float = math.nan
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


def _wavenumber(p):
    """k = e^{log k} of p = (c_f, log k); an iterate with k outside (0, 1),
    or underflowed to 0, is refused naming log k before exp can overflow."""
    k = np.exp(p[1]) if p[1] < 0.0 else 0.0
    if not k > 0.0:
        raise ValueError(f"a Newton iterate left k in (0, 1): "
                         f"log k = {float(p[1]):.6g}")
    return k


def _rhs(n, q, k, r, y):
    """Twisted system in the rows (f, z, w), stacked as (3, ...) arrays."""
    f, z, w = y
    v = w / (r * f * f + _TINY)
    return np.vstack([*core.amplitude_rows(n, r, f, z, v * v),
                      -q * r * f * f * (1.0 - f * f - k * k)])


def _rhs_jac(n, q, k, r, y):
    """Exact Jacobians of :func:`_rhs` in the rows (f, z, w) and in the
    parameters (c_f, log k), shaped (3, 3, m) and (3, 2, m) for solve_bvp."""
    f, z, w = y
    d = r * f * f + _TINY
    v = w / d
    (ff, fz), (zf, zz) = core.amplitude_jac(n, r, f, v * v)
    zero = np.zeros_like(f)
    # z' carries -f (1 - f^2 - v^2) with v = w / d: f dv^2 is the chain rule
    dw_df = -2.0 * q * r * f * (1.0 - 2.0 * f * f - k * k)
    df_dy = np.array([[ff, fz, zero],
                      [zf - 4.0 * r * f * f * v * v / d, zz, 2.0 * f * v / d],
                      [dw_df, zero, zero]])
    df_dp = np.array([[zero, zero], [zero, zero],
                      [zero, 2.0 * q * r * f * f * k * k]])
    return df_dy, df_dp


def _start(n, q, c, k2):
    """The series start (f, z, w) at core.R_START, w0 = -q M, and its
    derivatives in (c_f, log k), d(k^2)/d(log k) being 2 k^2."""
    rows, d_rows = core.series_start(n, c, k2)
    scale = np.array([1.0, 1.0, -q])
    return rows * scale, d_rows * scale[:, None] * [1.0, 2.0 * k2]


def _profile(n, q, k, c, r, y, interpolant, **diagnostics):
    """Record of the rows y = (f, z, w) on the nodes r: f' from z, the
    first integral by midpoint Simpson with midpoints from the interpolant."""
    f, z, w = y
    k2 = k * k
    mid = 0.5 * (r[:-1] + r[1:])
    fm = interpolant(mid)[0]
    I = core.cumulative_midpoint_simpson(
        r, r * f * f * (1.0 - f * f - k2), mid * fm * fm * (1.0 - fm * fm - k2),
        core.series_moment(n, c, k2, core.R_START))
    return RadialProfile(n=n, q=q, k=k, c_f=c, r_grid=r, f=f,
                         df=core.slope_from_z(n, r, f, z),
                         v=w / (r * f * f + _TINY), integral=I, w=w,
                         interpolant=interpolant, **diagnostics)


def integrate_from_origin(params, c_f_guess, r_max):
    """March the profile outward from a series start at given (c_f, k).

    The march advances the rows (f, z, w) of the collocation solve from
    its series start.  It stops early when f escapes the physical strip
    (crosses zero or runs past 1.05); the escape radius is recorded for
    bracketing diagnostics.  Not a boundary-tolerance route: the growing
    mode amplifies rounding by e^{sqrt(2) r}.
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
                    _start(n, q, c_f_guess, k * k)[0], method="DOP853",
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

    The rows are the series start (f, z, w) at core.R_START and the far
    field at r_max (f and v); the parameters are p = (c_f, log k).
    """
    sgn = 1.0 if q > 0 else -1.0

    def bc(ya, yb, p):
        k = _wavenumber(p)
        _, _, f_o, v_o = outer.far_field(n, q, k, k * abs(q) * r_max)
        v_end = yb[2] / (r_max * yb[0] * yb[0] + _TINY)
        return np.append(ya - _start(n, q, p[0], k * k)[0],
                         [yb[0] - f_o, v_end - v_o])

    def bc_jac(ya, yb, p):
        k = _wavenumber(p)
        R = k * abs(q) * r_max
        # dR/dlog k = R, and the far field's eps n/R = n/r_max is free of k
        V0, dV0, f_o, _ = outer.far_field(n, q, k, R)
        dV = k * (V0 + R * dV0)
        d = r_max * yb[0] * yb[0] + _TINY
        dbc_dyb = np.zeros((5, 3))
        dbc_dyb[3, 0] = 1.0
        dbc_dyb[4] = [-2.0 * r_max * yb[0] * yb[2] / (d * d), 0.0, 1.0 / d]
        dbc_dp = np.vstack([-_start(n, q, p[0], k * k)[1],
                            [[0.0, k * V0 * dV / f_o], [0.0, -sgn * dV]]])
        return np.eye(5, 3), dbc_dyb, dbc_dp

    return bc, bc_jac


def _collocation_solve(n, q, k0, r_max, tol):
    sgn = 1.0 if q > 0 else -1.0
    bc, bc_jac = _boundary(n, q, r_max)
    r = np.geomspace(core.R_START, r_max, N_MESH)
    prof0 = core.solve_profile(n)
    f0 = prof0.f(r)
    rb = k0 * (2 * n + 2) / (abs(q) * (1.0 - k0 * k0))
    v0 = -sgn * k0 * r / np.sqrt(r * r + rb * rb)
    y = np.vstack([f0, core.z_from_slope(n, r, f0, prof0.df(r)),
                   r * f0 * f0 * v0])
    try:
        sol = solve_bvp(lambda r, y, p: _rhs(n, q, _wavenumber(p), r, y), bc,
                        r, y, p=[prof0.c_f, math.log(k0)], tol=tol,
                        fun_jac=lambda r, y, p: _rhs_jac(n, q, _wavenumber(p),
                                                         r, y),
                        bc_jac=bc_jac, max_nodes=core.MAX_NODES, verbose=0)
    except ValueError as exc:
        # an iterate left (0, 1) in k or the far field's domain
        reason = exc
    else:
        if sol.status == 0:
            return sol, bc
        reason = sol.message
    raise RuntimeError(f"collocation failed at n={n}, q={q} "
                       f"(r_max={r_max:.4g}): {reason}")


def _check_properties(profile, report):
    """Pointwise structure checks, the first-integral bound and the
    matching radius; violations mark the solve suspect."""
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
        "first_integral": profile.first_integral_gap() <= FIRST_INTEGRAL_BOUND,
        "matching_radius": profile.q == 0 or (
            profile.k * abs(profile.q) * profile.r_max >= R_MATCH_TARGET / 2),
    }
    props["suspect"] = not all(props.values())
    report.properties = props
    if props["suspect"]:
        report.message = "converged but structure checks failed: " + ", ".join(
            name for name, ok in props.items() if name != "suspect" and not ok)


def _q0_solve(n, r_max, tol):
    prof0 = core.solve_profile(n, r_max=400.0 if r_max is None else r_max,
                               tol=tol)
    r = np.geomspace(core.R_START, prof0.r_max, 4001)
    # the core's rows (f, z) are the twisted solve's at q = 0
    interp = lambda rr: np.vstack([prof0.sol(rr)[:2],
                                   np.zeros_like(np.asarray(rr, float))])
    profile = _profile(n, 0.0, 0.0, prof0.c_f, r, interp(r), interp)
    report = WavenumberReport(
        n=n, q=0.0, k_numeric=0.0, k_asymptotic=0.0, mu=0.0,
        boundary_residuals=(0.0, 0.0), residual=prof0.rms_residual,
        r_max=prof0.r_max, c_f=prof0.c_f)
    _check_properties(profile, report)
    return profile, report


def solve_spiral(n, q, k_init=None, tol=1e-10, r_max=None):
    """Solve for the rotating profile and selected wavenumber at twist q.

    ``k_init`` optionally seeds k, in (0, 1); by default the asymptotic
    wavenumber does.  The untwisted core seeds the rows and c_f, which
    Newton recovers from the series rows at its first step.  Unless given,
    r_max = R_MATCH_TARGET / (k0 |q|) for the seed k0, so R = k|q| r_max =
    1.6 k/k0: at least 1.6 from a cold seed (never above k), about 1.55
    from a sweep's warm one; R < 0.8 marks the solve suspect.  A matching
    radius beyond the domain budget MAX_DOMAIN is refused before the solve
    that would use it, with the radius spelled out.  A Newton iterate with
    k outside (0, 1) or outside outer.far_field's domain fails the solve
    with its reason.  The report's boundary residuals are the solve's own
    far-field rows at the converged endpoint.  At q = 0 the untwisted core
    profile is solved on [R_START, r_max] at ``tol`` (r_max = 400 when
    None), and a ``k_init`` is refused.
    """
    core.check_tol(tol)
    if r_max is not None and not core.R_START < r_max < math.inf:
        raise ValueError(f"r_max must be finite and above the series cut "
                         f"core.R_START = {core.R_START:g}, got {r_max!r}")
    if q == 0.0:
        if k_init is not None:
            raise ValueError(f"an untwisted solve takes no initial k, got "
                             f"{k_init!r}: at q = 0, k = 0 exactly")
        return _q0_solve(n, r_max, tol)
    if k_init is not None and not 0.0 < k_init < 1.0:
        raise ValueError(f"initial k={k_init!r} is outside (0, 1)")
    ka = wavenumber.kappa_asym(n, abs(q))
    # an underflowed kappa is 0.0
    k0 = min(ka.value, 0.3) if k_init is None else k_init
    if k0 == 0.0:
        raise ValueError(
            f"twist q={q} is below the tractable window: the selected "
            f"wavenumber has log k = {ka.log_value:.1f}, far beyond "
            "double-precision dynamic range")
    r_match = R_MATCH_TARGET / (k0 * abs(q)) if r_max is None else r_max
    if r_max is None and r_match > MAX_DOMAIN:
        raise ValueError(
            f"twist q={q} needs a matching radius ~{r_match:.3g} "
            f"(log k = {math.log(k0):.2f}), beyond the domain budget "
            f"MAX_DOMAIN = {MAX_DOMAIN:.3g}")
    sol, bc = _collocation_solve(n, q, k0, r_match, tol)
    k = float(np.exp(sol.p[1]))
    profile = _profile(n, q, k, float(sol.p[0]), sol.x, sol.y, sol.sol)
    res_f, res_v = bc(sol.y[:, 0], sol.y[:, -1], sol.p)[3:]
    report = WavenumberReport(
        n=n, q=q, k_numeric=k, k_asymptotic=ka.value,
        ratio=k / ka.value if ka.value > 0 else math.inf,
        boundary_residuals=(float(res_f), float(res_v)),
        newton_iterations=int(sol.niter),
        residual=float(np.max(sol.rms_residuals)), r_max=profile.r_max,
        mu=SpiralParams(n=n, q=q, k=k).mu, c_f=profile.c_f)
    _check_properties(profile, report)
    return profile, report


def wavenumber_sweep(n, q_list, tol=1e-10):
    """Descending-twist sweep with asymptotically warm-started k seeds.

    Each solve seeds the next one's k_init through the asymptotic transfer
    log k(q_next) ~ log k(q_prev) + [log kappa(q_next) - log kappa(q_prev)],
    except at q = 0, the twist after it and a twist whose sign differs from
    the last solved one, which start cold, so that a sweep meets the exact
    mirror of a cold solve on the other sign.  Per-twist
    failures are isolated: the report row carries the error message and
    the sweep continues.
    """
    core.check_tol(tol)
    qs = list(q_list)
    if any(b >= a for a, b in zip(qs, qs[1:])):
        raise ValueError(f"sweep twists must be strictly descending, got {qs}")
    reports = []
    k_prev = q_prev = None
    for q in qs:
        try:
            k_init = None
            if k_prev and q * q_prev > 0.0:
                k_init = math.exp(
                    math.log(k_prev)
                    + wavenumber.kappa_asym(n, abs(q)).log_value
                    - wavenumber.kappa_asym(n, abs(q_prev)).log_value)
            _, report = solve_spiral(n, q, k_init=k_init, tol=tol)
            k_prev, q_prev = report.k_numeric, q
        except (ValueError, RuntimeError) as exc:
            report = WavenumberReport(n=n, q=q, status=2, message=str(exc))
        reports.append(report)
    return reports
