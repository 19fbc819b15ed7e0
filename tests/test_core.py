"""Core amplitude profile against frozen two-route oracle values.

The rise coefficients and tail constants below were produced by two
independent methods (bisection shooting and collocation, agreeing to
1e-12) in an offline run; they are frozen here as regression anchors.
"""

import math

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


def test_far_junction_continuity(profile):
    rm = profile.r_max
    inside = profile.f(rm * (1.0 - 1e-9))
    outside = profile.f(rm * (1.0 + 1e-9))
    assert inside == pytest.approx(outside, rel=1e-9, abs=1e-9)


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


@pytest.mark.parametrize("r_max", [5e-4, core.R_START, -1.0, math.inf,
                                   math.nan])
def test_refuses_radius_inside_series_cut(r_max):
    with pytest.raises(ValueError, match=r"core\.R_START = 0\.001"):
        core.solve_profile(1, r_max=r_max)


def test_tail_constant_outside_range_rejected():
    p = core.solve_profile(1)
    with pytest.raises(ValueError):
        core.tail_constant(p, p.r_max * 2.0)


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


def test_series_c_derivative_matches_complex_step():
    # at r = 0.5 the c-dependent r^4 coefficient of n = 1 moves df/dc by
    # about 1e-3 relative, far above the tolerance
    r, h = np.array([1e-3, 0.1, 0.5]), 1e-30
    for n in (1, 2, 3):
        c = CF_FROZEN[n]
        f_c, df_c = core.core_series_dc(n, c, r)
        f, df = core.core_series(n, c + 1j * h, r)
        np.testing.assert_allclose(f_c, f.imag / h, rtol=1e-14, atol=0)
        np.testing.assert_allclose(df_c, df.imag / h, rtol=1e-14, atol=0)


def test_origin_law_in_one_place():
    p = core.solve_profile(2)
    slope = core.origin_slope(2, 0.5, 0.1)
    assert slope == -0.5 * (1.0 - 0.1 ** 2) / 6
    r = 0.25 * p.r_start
    assert core.v_inner(p, 0.5, 0.1, r) == slope * r
    assert core.series_moment(2, 0.3, 0.0, 0.1) == 0.3 * 0.3 * 0.1 ** 6 / 6
