"""Imaginary-order Bessel machinery against its independent oracles.

Frozen reference values were produced once with a 40-digit arbitrary
precision evaluation of the integral representation (and of arg Gamma); the
runtime code never sees them except through these assertions.  mpmath, a
declared test dependency, is the live high-precision oracle.
"""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import k0, k1

from cglspiral import specfun as sf

# (nu, x) -> (K_{i nu}(x), d/dx K_{i nu}(x)), 40-digit quadrature oracle
FROZEN = {
    (0.1, 0.5): (0.9187802975011916254443, -1.638434847111281024395),
    (0.3, 2.0): (0.1117868418333256657292, -0.1363869595691827599883),
    (0.02, 0.01): (4.712841350687279493291, -99.49573621764513078031),
    (0.3, 10.0): (1.770383657968536749227e-5, -1.856154485926602937454e-5),
    (0.5, 7.0): (4.177401187257794603458e-4, -4.456971447934325398226e-4),
    (0.0, 0.5): (0.9244190712276658617819, -1.656441120003300893696),
    (0.0, 1.0): (0.4210244382407083333356, -0.6019072301972345747375),
}

# nu -> arg Gamma(1 + i nu), 40-digit oracle
FROZEN_THETA0 = {
    0.01: -0.005771755984118056909994,
    0.2: -0.1123022226441836710873,
    1.0: -0.3016403204675331978875,
}
FROZEN_THETA3_02 = 0.2513301534726829247521


@pytest.mark.parametrize("nu,x", sorted(FROZEN))
def test_against_frozen_oracle(nu, x):
    K_ref, K1_ref = FROZEN[(nu, x)]
    K, K1 = sf.k_imag(nu, x)
    assert K == pytest.approx(K_ref, rel=5e-10)
    assert K1 == pytest.approx(K1_ref, rel=5e-10)


def _mp_log_slope(nu, x):
    """(V0, V0') of K_{i nu} at x from mpmath at 80 digits.

    K' = -(K_{i nu - 1} + K_{i nu + 1})/2 = -Re K_{1 + i nu}, and V0' is the
    Riccati right-hand side; mp.diff gives false references at large x.
    """
    with mp.workdps(80):
        x, nu = mp.mpf(x), mp.mpf(nu)
        K = mp.re(mp.besselk(1j * nu, x))
        V = -mp.re(mp.besselk(1 + 1j * nu, x)) / K
        return V, 1 - nu ** 2 / x ** 2 - V / x - V ** 2, K


@pytest.mark.parametrize("nu", (0.0, 0.05, 0.3, 1.0, 2.0, 3.0))
def test_log_slope_matches_mpmath(nu):
    # from the sign floor (or the float64 limit) to 1e8, on both sides of
    # x = 10; K itself where float64 holds it
    lo = max(sf.sign_validity_floor(nu), sf.X_MIN)
    for x in (lo, 1.6, 9.99, 10.01, 700.0, 1e4, 1e8):
        V_ref, dV_ref, K_ref = _mp_log_slope(nu, x)
        V, dV = sf.log_slope(nu, x)
        assert abs(V / V_ref - 1) <= 1e-12, (nu, x)
        assert abs(dV / dV_ref - 1) <= 1e-12, (nu, x)
        if x <= 700.0:
            K, K1 = sf.k_imag(nu, x)
            assert abs(K / K_ref - 1) <= 1e-12, (nu, x)
            assert abs(K1 / (K_ref * V_ref) - 1) <= 1e-12, (nu, x)


def _check_against_quadrature(nu, xs):
    for x in xs:
        K, K1 = sf.k_imag(nu, float(x))
        K_ref, K1_ref = sf.k_imag_quadrature(nu, float(x))
        assert K == pytest.approx(K_ref, rel=1e-9), (nu, x)
        assert K1 == pytest.approx(K1_ref, rel=1e-9), (nu, x)


def test_series_versus_quadrature_grid():
    # the trapezoid sum and scipy's adaptive quadrature are mutual oracles
    # over the small-argument range, oscillatory regime included
    for nu in (0.0, 0.02, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0):
        lo = max(0.01, sf.sign_validity_floor(nu))
        _check_against_quadrature(nu, np.geomspace(lo, 9.5, 25))


def test_asym_versus_quadrature_grid():
    # the same comparison over the large-argument range
    for nu in (0.0, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0):
        _check_against_quadrature(nu, np.geomspace(10.0, 100.0, 15))


def test_continuity_at_split():
    # the step h = min(0.1, 0.7/sqrt(x)) changes its rule at x = 49; value
    # and log-slope are continuous across it to rounding
    eps = np.finfo(float).eps * 49.0
    for nu in (0.0, 0.1, 0.5, 3.0):
        (K_lo, K1_lo), (K_hi, K1_hi) = sf.k_imag(nu, 49.0 - eps), \
            sf.k_imag(nu, 49.0 + eps)
        assert K_lo == pytest.approx(K_hi, rel=1e-13)
        assert K1_lo == pytest.approx(K1_hi, rel=1e-13)
        (V_lo, dV_lo), (V_hi, dV_hi) = sf.log_slope(nu, 49.0 - eps), \
            sf.log_slope(nu, 49.0 + eps)
        assert V_lo == pytest.approx(V_hi, rel=1e-13)
        assert dV_lo == pytest.approx(dV_hi, rel=1e-12)


def test_ode_residual_termwise():
    # K'' + K'/x - (1 - nu^2/x^2) K = 0, with the second derivative from
    # the variance of the trapezoid sum, independent of the equation
    for nu in (0.05, 0.1, 0.3, 3.0):
        for x in np.geomspace(0.05, 50.0, 40):
            K, K1, K2 = sf.k_imag_triple(nu, float(x))
            drive = K * (1.0 - nu * nu / (x * x))
            resid = K2 + K1 / x - drive
            scale = max(abs(K2), abs(K1 / x), abs(drive))
            assert abs(resid) <= 1e-8 * scale, (nu, x)


def test_sign_pattern_above_floor():
    # K > 0, K' < 0, K'' > 0 beyond the oscillation floor, via scale-free
    # margins (K itself underflows float64 past x ~ 745)
    for nu in (0.05, 0.1, 0.3, 2.0, 3.0):
        floor = sf.sign_validity_floor(nu)
        for x in np.geomspace(max(floor, 1e-280), 1000.0, 60):
            m0, m1, m2 = sf.sign_margins(nu, float(x))
            assert m0 > 0.0, (nu, x)
            assert m1 > 0.0, (nu, x)
            assert m2 > 0.0, (nu, x)


def test_sign_pattern_matches_values_where_representable():
    # the margins helper agrees with direct evaluation at moderate x, K''
    # composed from the defining equation
    for nu in (0.1, 0.3):
        for x in (0.5, 3.0, 9.0, 20.0, 300.0):
            K, K1 = sf.k_imag(nu, x)
            K2 = (1.0 - nu * nu / (x * x)) * K - K1 / x
            m0, m1, m2 = sf.sign_margins(nu, x)
            assert math.copysign(1.0, m0) == math.copysign(1.0, K)
            assert math.copysign(1.0, m1) == -math.copysign(1.0, K1)
            assert math.copysign(1.0, m2) == math.copysign(1.0, K2)


def test_oscillation_below_floor():
    # well below the floor the function oscillates: K takes both signs
    nu = 0.3
    xs = np.geomspace(1e-12, sf.sign_validity_floor(nu) * 1e-3, 200)
    values = [sf.k_imag(nu, float(x))[0] for x in xs]
    assert min(values) < 0.0 < max(values)


def test_small_x_leading_term():
    # K ~ -(1/nu) sqrt(nu pi/sinh(nu pi)) sin(nu log(x/2) - theta_0)
    nu, x = 0.2, 1e-6
    theta0 = sf.gamma_arg(0, nu)
    lead = -(1.0 / nu) * math.sqrt(nu * math.pi / math.sinh(nu * math.pi)) \
        * math.sin(nu * math.log(x / 2.0) - theta0)
    K, _ = sf.k_imag(nu, x)
    assert K == pytest.approx(lead, rel=1e-10)


def test_nu_zero_matches_integer_order():
    for x in (0.3, 1.0, 5.0, 20.0):
        K, K1 = sf.k_imag(0.0, x)
        assert K == pytest.approx(float(k0(x)), rel=1e-12)
        assert K1 == pytest.approx(-float(k1(x)), rel=1e-12)


def test_integer_large_x_asym_form():
    # sqrt(pi/(2x)) e^{-x} leading behavior of K_0 at x = 30
    x = 30.0
    K, _ = sf.k_imag(0.0, x)
    lead = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert K == pytest.approx(lead, rel=1e-2)
    assert K == pytest.approx(float(k0(x)), rel=1e-12)


def test_tiny_nu_continuous_with_nu_zero():
    # cos(nu t) is smooth in nu, so nu = 0 needs no special case
    for x in (0.1, 2.0, 9.0):
        a, _ = sf.k_imag(0.0, x)
        b, _ = sf.k_imag(5e-9, x)
        assert a == pytest.approx(b, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.05, max_value=100.0))
def test_trapezoid_quadrature_property(nu, x):
    K, _ = sf.k_imag(nu, x)
    assert K == pytest.approx(sf.k_imag_quadrature(nu, x)[0], rel=1e-9)


def test_domain_errors():
    with pytest.raises(ValueError):
        sf.k_imag(0.1, 0.0)
    with pytest.raises(ValueError):
        sf.k_imag(0.1, -2.0)
    with pytest.raises(ValueError):
        sf.k_imag_quadrature(0.1, -1.0)
    for nu, x in ((0.1, math.inf), (0.1, math.nan), (math.nan, 1.0),
                  (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            sf.k_imag(nu, x)


def test_tiny_argument_names_float64_limit():
    # below x ~ 1e-152 s^2 ~ 1/x^2 and (K'/K)' overflow
    for nu, x in ((0.1, 1e-200), (0.003, 1e-155)):
        with pytest.raises(ValueError, match="float64"):
            sf.k_imag(nu, x)
        with pytest.raises(ValueError, match="float64"):
            sf.k_imag_triple(nu, x)
        with pytest.raises(ValueError, match="float64"):
            sf.sign_margins(nu, x)


# ---------------- arg Gamma ----------------

@pytest.mark.parametrize("nu", sorted(FROZEN_THETA0))
def test_theta0_frozen(nu):
    assert sf.gamma_arg(0, nu) == pytest.approx(FROZEN_THETA0[nu], rel=1e-13)


def test_theta_recurrence_example():
    theta = sf.gamma_arg(3, 0.2)
    expect = FROZEN_THETA0[0.2] + math.atan(0.2) + math.atan(0.1) \
        + math.atan(0.2 / 3.0)
    assert theta == pytest.approx(expect, rel=1e-13)
    assert theta == pytest.approx(FROZEN_THETA3_02, rel=1e-13)


def test_theta0_at_zero():
    assert sf.gamma_arg(0, 0.0) == 0.0


@pytest.mark.parametrize("k,nu,message", [
    (-1, 0.2, "index must be a nonnegative integer, got -1"),
    (0.5, 0.2, "index must be a nonnegative integer, got 0.5"),
    (0, -0.1, "order magnitude must be nonnegative, got nu=-0.1"),
])
def test_gamma_arg_refusals(k, nu, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sf.gamma_arg(k, nu)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=1e-4, max_value=1.0))
def test_theta_recurrence_property(k, nu):
    step = sf.gamma_arg(k, nu) - sf.gamma_arg(k - 1, nu)
    assert step == pytest.approx(math.atan(nu / k), abs=1e-14)


@given(st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=80)
def test_theta0_small_order_bound(nu):
    # |theta_0 + gamma nu| <= C nu^2 with C from the cubic leading term
    assert abs(sf.gamma_arg(0, nu) + sf.EULER_GAMMA_F * nu) <= 0.45 * nu ** 2


def test_theta0_routes_agree():
    # scipy's complex log-Gamma against mpmath's, up to the largest order
    # nu = n |q| the solver meets
    for nu in np.linspace(0.01, 3.0, 23):
        a = sf.gamma_arg(0, float(nu))
        b = float(mp.im(mp.loggamma(1 + 1j * mp.mpf(float(nu)))))
        assert a == pytest.approx(b, abs=2e-14)


def test_theta_k_matches_mpmath():
    # one complex log-Gamma at every index, against mpmath's arg Gamma
    for k in (1, 2, 7, 40):
        for nu in (0.01, 0.5, 3.0):
            ref = mp.im(mp.loggamma(1 + k + 1j * mp.mpf(nu)))
            assert sf.gamma_arg(k, nu) == pytest.approx(float(ref), rel=1e-15)


def test_negative_order_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        sf.k_imag(-0.1, 1.0)
