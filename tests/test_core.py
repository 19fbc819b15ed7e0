"""Core amplitude profile against frozen two-route oracle values.

The rise coefficients and tail constants below were produced by two
independent methods (bisection shooting and collocation, agreeing to
1e-12) in an offline run; they are frozen here as regression anchors.
"""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from cglspiral import core

CF_FROZEN = {1: 0.583189495860, 2: 0.153099102860, 3: 0.026183420716}
C_FROZEN = {1: -0.119118106318, 2: -4.237255816682, 3: -13.750790141263}


@pytest.fixture(scope="module", params=[1, 2, 3])
def profile(request):
    return core.solve_profile(request.param)


def test_rise_coefficient_frozen(profile):
    assert profile.c_f == pytest.approx(CF_FROZEN[profile.n], abs=1e-9)


def test_tail_constant_frozen(profile):
    tc = core.tail_constant(profile)
    assert tc.value == pytest.approx(C_FROZEN[profile.n], abs=2e-8)
    assert tc.halving_gap < 1e-7


def test_tail_constants_all_negative(profile):
    assert core.tail_constant(profile).value < 0.0


def test_boundary_residuals(profile):
    assert profile.bc_residual <= 1e-8
    assert profile.rms_residual <= 1e-10


def test_monotone_and_bounded(profile):
    scan = core.property_scan(profile)
    assert scan["monotone"]
    assert scan["in_range"]


def test_far_field_r4_coefficient(profile):
    # (1 - f^2 - n^2/r^2) r^4 -> 2 n^2, within 5% and stable when the
    # probe radius is halved
    scan = core.property_scan(profile)
    expect = scan["r4_expected"]
    assert scan["r4_coeff"] == pytest.approx(expect, rel=0.05)
    assert scan["r4_coeff_half"] == pytest.approx(expect, rel=0.05)


def test_far_field_slope(profile):
    scan = core.property_scan(profile)
    assert scan["df_r3_coeff"] == pytest.approx(scan["df_r3_expected"],
                                                rel=0.01)


def test_origin_slope_of_phase_gradient(profile):
    scan = core.property_scan(profile)
    assert scan["origin_slope"] == pytest.approx(
        scan["origin_slope_expected"], rel=1e-6)


def test_phase_gradient_envelope(profile):
    # |v| stays under const * (1 + log(1+r^2))/(1+r); the constant scales
    # with the n^2 log-tail strength
    const = core.property_scan(profile)["v_envelope_constant"]
    assert 0.0 < const < profile.n ** 2


def test_series_junction_continuity(profile):
    rs = profile.r_start
    below = profile.f(rs * (1.0 - 1e-9))
    above = profile.f(rs * (1.0 + 1e-9))
    assert below == pytest.approx(above, rel=1e-7)
    # above the cut f' is formed from the collocated z row
    below = profile.df(rs * (1.0 - 1e-9))
    above = profile.df(rs * (1.0 + 1e-9))
    assert below == pytest.approx(above, rel=1e-7)


def test_far_junction_continuity(profile):
    rm = profile.r_max
    inside = profile.f(rm * (1.0 - 1e-9))
    outside = profile.f(rm * (1.0 + 1e-9))
    assert inside == pytest.approx(outside, rel=1e-9, abs=1e-9)
    # f' ~ n^2 / r^3 is about 1e-7 there, so the collocation's absolute
    # error of about 1e-13 reads as up to 7e-7 relative (n = 3)
    inside = profile.df(rm * (1.0 - 1e-9))
    outside = profile.df(rm * (1.0 + 1e-9))
    assert inside == pytest.approx(outside, rel=2e-6)


def test_moment_against_adaptive_quadrature(profile):
    # the collocation-carried moment vs scipy.integrate.quad of the same
    # integrand over the solved profile: independent accumulation routes
    def integrand(r):
        f = profile.f(r)
        return r * f * f * (1.0 - f * f)

    ref, err = quad(integrand, profile.r_start, 10.0, limit=400,
                    epsabs=1e-13, epsrel=1e-12)
    i1_hi, _ = profile.moments(10.0)
    i1_lo, _ = profile.moments(profile.r_start)
    assert i1_hi - i1_lo == pytest.approx(ref, abs=5e-9)


def test_amplitude_moment_against_adaptive_quadrature(profile):
    def integrand(r):
        f = profile.f(r)
        return r * f * f

    ref, err = quad(integrand, profile.r_start, 50.0, limit=400,
                    epsabs=1e-12, epsrel=1e-12)
    _, i2_hi = profile.moments(50.0)
    _, i2_lo = profile.moments(profile.r_start)
    assert i2_hi - i2_lo == pytest.approx(ref, rel=1e-9)


def test_phase_gradient_two_routes():
    p = core.solve_profile(1)
    rg = np.geomspace(0.5, 300.0, 40)
    va = core.v_inner(p, 0.5, 0.06, rg)
    vb = core.v_inner_by_ode(p, 0.5, 0.06, rg)
    assert np.max(np.abs(va / vb - 1.0)) < 1e-8


def test_phase_gradient_two_routes_multiarm():
    p = core.solve_profile(2)
    rg = np.geomspace(0.5, 200.0, 30)
    va = core.v_inner(p, 0.3, 0.0, rg)
    vb = core.v_inner_by_ode(p, 0.3, 0.0, rg)
    assert np.max(np.abs(va / vb - 1.0)) < 1e-8


def test_phase_gradient_ode_refuses_grid_below_cut():
    p = core.solve_profile(1)
    with pytest.raises(ValueError, match="must start at or above the cut"):
        core.v_inner_by_ode(p, 0.5, 0.06, [0.5 * p.r_start, 1.0])


def test_phase_gradient_negative_and_zero_at_origin():
    # at zero spatial wavenumber the induced gradient is negative
    # everywhere (the k^2 counter-term flips it only beyond r ~ n/k)
    p = core.solve_profile(1)
    assert core.v_inner(p, 0.5, 0.05, 0.0) == 0.0
    grid = np.geomspace(1e-2, 300.0, 200)
    assert np.all(core.v_inner(p, 0.5, 0.0, grid) < 0.0)
    inner = grid[grid < 1.0 / 0.05]
    assert np.all(core.v_inner(p, 0.5, 0.05, inner) < 0.0)


def test_tail_constant_radius_stability():
    # the corrected estimate read at 100 and 200 agrees to 1e-6
    for n in (1, 2):
        p = core.solve_profile(n)
        a = core.tail_constant(p, 200.0).value
        b = core.tail_constant(p, 100.0).value
        assert abs(a - b) <= 1e-6, n


def test_mesh_density_stability():
    # a solve from a twice-coarser initial mesh lands on the same answer
    p_fine = core.solve_profile(1)
    p_coarse = core.solve_profile(1, n_mesh=450)
    assert p_coarse.c_f == pytest.approx(p_fine.c_f, abs=1e-8)
    a = core.tail_constant(p_fine).value
    b = core.tail_constant(p_coarse).value
    assert abs(a - b) <= 1e-6


def test_series_coefficients_satisfy_equation():
    # the expansion must satisfy the profile equation through its carried
    # orders: the residual vanishes faster than the last kept term (the
    # derivatives here come from independent polynomial calculus)
    for n in (1, 2, 3):
        c = CF_FROZEN[n]
        a2 = -1.0 / (4.0 * (n + 1))
        a4 = (c * c + 0.125) / 24.0 if n == 1 else -a2 / (8.0 * (n + 2))

        def resid(r):
            f = c * r ** n * (1 + a2 * r ** 2 + a4 * r ** 4)
            d1 = c * (n * r ** (n - 1) + (n + 2) * a2 * r ** (n + 1)
                      + (n + 4) * a4 * r ** (n + 3))
            d2 = c * (n * (n - 1) * r ** (n - 2)
                      + (n + 2) * (n + 1) * a2 * r ** n
                      + (n + 4) * (n + 3) * a4 * r ** (n + 2))
            return d2 + d1 / r - n * n * f / (r * r) + f * (1 - f * f)

        r_hi, r_lo = 0.1, 0.05
        ratio = abs(resid(r_hi)) / max(abs(resid(r_lo)), 1e-300)
        # dropping r by 2 must shrink the residual by at least 2^(n+3)
        assert ratio > 2.0 ** (n + 3), (n, ratio)


def test_invalid_arm_count():
    with pytest.raises(ValueError):
        core.solve_profile(0)
    with pytest.raises(ValueError):
        core.solve_profile(-2)


@pytest.mark.parametrize("r_max", [5e-4, 1e-3, core.R_START, -1.0,
                                   math.inf, math.nan])
def test_refuses_radius_inside_series_cut(r_max):
    with pytest.raises(ValueError,
                       match=re.escape(f"core.R_START = {core.R_START:g}")):
        core.solve_profile(1, r_max=r_max)


@pytest.mark.parametrize("n, r_max", [(1, 0.05), (1, 1.0), (1, 1.15),
                                      (2, 1.9), (3, 2.5)])
def test_refuses_radius_below_tail_floor(n, r_max):
    # there the algebraic tail imposes f <= 0; a solve at r_max = 1.0 once
    # "converged" to c_f = -0.697
    with pytest.raises(ValueError, match=r"algebraic tail's floor.*"
                                         r"outside \(0, 1\).*needs r_max >"):
        core.solve_profile(n, r_max=r_max)


def test_refuses_nonpositive_rise_coefficient(monkeypatch):
    # a collocation that converges to c_f <= 0 has not found a profile
    real = core.solve_bvp

    def flipped(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.p = -sol.p
        return sol

    monkeypatch.setattr(core, "solve_bvp", flipped)
    with pytest.raises(RuntimeError, match="c_f = -0.58.*not a profile"):
        core.solve_profile(1, r_max=21.0)


def test_tail_constant_outside_range_rejected():
    p = core.solve_profile(1)
    with pytest.raises(ValueError):
        core.tail_constant(p, p.r_max * 2.0)


def test_tail_constant_reads_i1_alone():
    # the tail constant drops I2, so it must not build the 30,001-point
    # quadrature spline that I2 is read from (about 10 ms per profile)
    p = core.solve_profile.__wrapped__(1)
    tail = core.tail_constant(p)
    assert "_i2_spline" not in p.__dict__
    assert tail.value == core.tail_constant(core.solve_profile(1)).value
    assert p.i1(p.r_max) == p.moments(p.r_max)[0]


def test_moments_and_v_inner_refuse_past_solved_range():
    p = core.solve_profile(1)
    with pytest.raises(ValueError, match="solved range"):
        p.moments(2.0 * p.r_max)
    with pytest.raises(ValueError, match="solved range"):
        p.moments(0.5 * p.r_start)
    with pytest.raises(ValueError, match="solved range"):
        core.v_inner(p, 0.5, 0.05, np.array([1.0, 2.0 * p.r_max]))
    # the ends themselves are in range
    assert np.all(np.isfinite(p.moments(np.array([p.r_start, p.r_max]))))


def test_piecewise_pieces_and_return_convention():
    calls = []

    def piece(tag):
        def fn(x):
            calls.append((tag, x.copy()))
            return np.full_like(x, tag)
        return fn

    r = np.array([[0.5, 1.0], [2.0, 3.5]])
    out = core.piecewise(r, 1.0, 2.0, piece(-1.0), piece(0.0), piece(1.0))
    assert out.shape == r.shape
    assert np.array_equal(out, [[-1.0, 0.0], [0.0, 1.0]])
    assert [tag for tag, _ in calls] == [-1.0, 0.0, 1.0]
    assert np.array_equal(calls[1][1], [1.0, 2.0])
    # a scalar gives a float; a piece whose range is empty is never called
    val = core.piecewise(1.5, -np.inf, np.inf, None, piece(7.0), None)
    assert type(val) is float and val == 7.0
    assert core.piecewise(np.array([1.5]), 1.0, 2.0, None, piece(7.0),
                          None).shape == (1,)


def test_origin_law_in_one_place():
    p = core.solve_profile(2)
    slope = core.origin_slope(2, 0.5, 0.1)
    assert slope == -0.5 * (1.0 - 0.1 ** 2) / 6
    r = 0.25 * p.r_start
    law = core.origin_law(2, 0.5, 0.1, p.c_f, r)
    assert core.v_inner(p, 0.5, 0.1, r) == law
    assert law == pytest.approx(
        slope * r * (1.0 + r * r / 24.0) + 0.5 * p.c_f ** 2 * r ** 5 / 10,
        rel=1e-15)
    assert core.series_moment(2, 0.3, 0.0, 0.1) == pytest.approx(
        0.3 ** 2 * (0.1 ** 6 / 6 - 0.1 ** 8 / 48) - 0.3 ** 4 * 0.1 ** 10 / 10,
        rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_head_matches_quadrature_of_series(n):
    # the head of int xi f^2 (1 - f^2 - k^2) against adaptive quadrature of
    # the three-order series of f: at the cut its truncation is O(r^4)
    # relative, where the leading term alone is off by 3.9e-5 at n = 1
    c, k2, r = CF_FROZEN[n], 0.04, core.R_START

    def integrand(x):
        f = core.core_series(n, c, x)[0]
        return x * f * f * (1.0 - f * f - k2)

    ref, _ = quad(integrand, 0.0, r, epsabs=0.0, epsrel=1e-13)
    assert core.series_moment(n, c, k2, r) == pytest.approx(ref, rel=1e-8)


def test_series_start_rows_match_extended_precision():
    # the rows (f, z, M) at the cut against the series summed in 40 digits,
    # z = f' - n u^2 f / r included
    k2, r = 0.09, core.R_START
    for n in (1, 2, 3):
        c = CF_FROZEN[n]
        rows = core.series_start(n, c, k2)[0]
        with mp.workdps(40):
            rm, cm = mp.mpf(r), mp.mpf(c)
            a2 = -mp.mpf(1) / (4 * (n + 1))
            a4 = (cm * cm + mp.mpf(1) / 8) / 24 if n == 1 \
                else -a2 / (8 * (n + 2))
            f = cm * rm ** n * (1 + a2 * rm ** 2 + a4 * rm ** 4)
            df = cm * (n * rm ** (n - 1) + (n + 2) * a2 * rm ** (n + 1)
                       + (n + 4) * a4 * rm ** (n + 3))
            lift = n / (rm * (1 + rm / mp.mpf(core.LIFT_WIDTH)) ** 2)
            ref = [float(f), float(df - lift * f)]
        np.testing.assert_allclose(rows[:2], ref, rtol=1e-14, atol=0)
        assert rows[2] == core.series_moment(n, c, k2, r)


def test_series_c_derivative_matches_complex_step():
    # the (f, z) rows' derivatives at the cut against complex steps; the
    # c-dependent r^4 coefficient of n = 1 moves f_c by about 3e-10
    # relative there, far above the tolerance
    k2, h, r = 0.09, 1e-30, core.R_START
    for n in (1, 2, 3):
        c = CF_FROZEN[n]
        d_rows = core.series_start(n, c, k2)[1]
        step_c = core.series_start(n, c + 1j * h, k2)[0]
        np.testing.assert_allclose(d_rows[:2, 0], step_c[:2].imag / h,
                                   rtol=1e-14, atol=0)
        f, _ = core.core_series(n, c + 1j * h, r)
        np.testing.assert_allclose(d_rows[0, 0], f.imag / h,
                                   rtol=1e-14, atol=0)
        # f and z do not depend on k^2
        step_k2 = core.series_start(n, c, k2 + 1j * h)[0]
        assert not np.any(d_rows[:2, 1]) and not np.any(step_k2[:2].imag)


def test_series_moment_derivatives_match_complex_step():
    k2, h, r = 0.09, 1e-30, core.R_START
    for n in (1, 2, 3):
        c = CF_FROZEN[n]
        m_c, m_k2 = core.series_start(n, c, k2)[1][2]
        np.testing.assert_allclose(
            m_c, core.series_moment(n, c + 1j * h, k2, r).imag / h,
            rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            m_k2, core.series_moment(n, c, k2 + 1j * h, r).imag / h,
            rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobians_match_central_differences(n, monkeypatch):
    # the exact fun_jac and bc_jac of the (f, z, I1) rows, read at the
    # solved profile, against central differences of fun and bc
    real, seen = core.solve_bvp, {}

    def spy(fun, bc, x, y, p, **kwargs):
        seen.update(fun=fun, bc=bc, sol=real(fun, bc, x, y, p, **kwargs),
                    **kwargs)
        return seen["sol"]

    monkeypatch.setattr(core, "solve_bvp", spy)
    core.solve_profile.__wrapped__(n)
    fun, bc, sol = seen["fun"], seen["bc"], seen["sol"]
    r, y, p = sol.x, sol.y, sol.p
    df_dy, df_dp = seen["fun_jac"](r, y, p)
    for j in range(3):
        step = np.zeros_like(y)
        step[j] = 1e-6 * (1.0 + np.abs(y[j]))
        fd = (fun(r, y + step, p) - fun(r, y - step, p)) / (2.0 * step[j])
        np.testing.assert_allclose(df_dy[:, j], fd, rtol=1e-7, atol=1e-7)
    assert not np.any(df_dp)
    assert np.array_equal(fun(r, y, 2.0 * p), fun(r, y, p))

    ya, yb = y[:, 0], y[:, -1]
    dbc_dya, dbc_dyb, dbc_dp = seen["bc_jac"](ya, yb, p)
    for j, step in enumerate(1e-6 * np.eye(3)):
        fd = (bc(ya + step, yb, p) - bc(ya - step, yb, p)) / 2e-6
        np.testing.assert_allclose(dbc_dya[:, j], fd, rtol=1e-8, atol=1e-10)
        fd = (bc(ya, yb + step, p) - bc(ya, yb - step, p)) / 2e-6
        np.testing.assert_allclose(dbc_dyb[:, j], fd, rtol=1e-8, atol=1e-10)
    h = 1e-6 * p[0]
    fd = (bc(ya, yb, p + h) - bc(ya, yb, p - h)) / (2.0 * h)
    np.testing.assert_allclose(dbc_dp[:, 0], fd, rtol=1e-7, atol=1e-12)


@pytest.mark.parametrize("n, r_max", [(n, r_max) for n in (1, 2, 3)
                                      for r_max in (50.0, 400.0)]
                         + [(1, 2000.0)])
def test_one_jacobian_per_mesh_pass(n, r_max, monkeypatch):
    # solve_bvp's Newton stops only when each collocation residual is below
    # about 0.033 h tol (1 + |rhs|), some 4e-17 next to the series cut; a
    # row that sits at its round-off there spends scipy's cap of four
    # Jacobians on every pass, as the f' row of n = 1 did (17 for 5 passes)
    real = core.solve_bvp
    seen = {"jacobians": 0}

    def spy(fun, bc, x, y, p, fun_jac, **kwargs):
        def counted(r, yy, pp):
            # each Jacobian reads fun_jac on the nodes and on the midpoints;
            # only the nodes start at the series cut
            seen["jacobians"] += r[0] == core.R_START
            return fun_jac(r, yy, pp)

        sol = real(fun, bc, x, y, p, fun_jac=counted, **kwargs)
        seen["passes"] = sol.niter
        return sol

    monkeypatch.setattr(core, "solve_bvp", spy)
    core.solve_profile.__wrapped__(n, r_max=r_max)
    assert 0 < seen["jacobians"] <= seen["passes"]


@pytest.mark.parametrize("n", [1, 2])
def test_converges_at_tight_tolerance(n):
    # n = 1 at tol = 1e-12 once stopped on the node budget after 8.7 s
    p = core.solve_profile(n, tol=1e-12)
    assert p.c_f == pytest.approx(CF_FROZEN[n], abs=1e-9)
    assert core.tail_constant(p).value == pytest.approx(C_FROZEN[n],
                                                        abs=2e-8)


@pytest.mark.parametrize("tol", [0.0, -1e-10, 1e-15, math.nan, math.inf])
def test_refuses_tolerance_below_floor(tol):
    # solve_bvp itself warns, solves at 100 eps and runs to the node budget
    with pytest.raises(ValueError, match=re.escape(
            f"core.TOL_FLOOR = {core.TOL_FLOOR:.3g}")):
        core.solve_profile(1, tol=tol)

