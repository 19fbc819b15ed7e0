"""Far-field slope and amplitude: Riccati residual, shape, cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kv

from cglspiral import outer, specfun


def test_riccati_residual_on_certified_window():
    # independent-derivative residual of V' = 1 - nu^2/R^2 - V/R - V^2
    for nu in (0.05, 0.1, 0.3):
        scan = outer.property_scan(nu)
        assert scan["riccati_worst"] <= 1e-8, nu


def test_sign_and_monotonicity_margins():
    for nu in (0.05, 0.1, 0.3):
        scan = outer.property_scan(nu)
        assert scan["sign_margin"] > 0.0, nu
        assert scan["monotone_margin"] > 0.0, nu
        assert scan["slope_margin"] > 0.0, nu


@pytest.mark.parametrize("nu", [0.0, 0.003])
def test_scan_below_float64_limit_starts_at_x_min(nu):
    # the sign floor lies below specfun.X_MIN for these orders (5.9e-227
    # at 0.003, zero at 0), so the scan starts at the float64 limit
    scan = outer.property_scan(nu)
    assert scan["window"][0] == specfun.X_MIN
    assert scan["sign_margin"] > 0.0
    assert scan["monotone_margin"] > 0.0
    assert scan["slope_margin"] > 0.0
    assert scan["riccati_worst"] <= 1e-8


def test_scan_window_starts_at_sign_floor():
    scan = outer.property_scan(0.1)
    assert scan["window"][0] == specfun.sign_validity_floor(0.1)
    assert scan["window"][0] == pytest.approx(2.227e-6, rel=1e-3)


def test_far_law_constant_bounded():
    # V0 = -1 - 1/(2R) + O(R^-2) with a small constant (~(1+4nu^2)/8)
    for nu in (0.05, 0.3):
        scan = outer.property_scan(nu)
        assert scan["far_law_constant"] < 0.5, nu


def test_slope_riccati_property_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        nu = rng.uniform(0.03, 0.5)
        t = rng.uniform(0.0, 1.0)
        lo = specfun.sign_validity_floor(nu)
        R = lo * (1000.0 / lo) ** t
        V, dV = outer.decay_slope(nu, R)
        rhs = 1.0 - nu * nu / (R * R) - V / R - V * V
        scale = max(1.0, V * V, nu * nu / (R * R), abs(V) / R)
        assert abs(dV - rhs) <= 1e-8 * scale, (nu, R)


def test_cotangent_form_small_argument():
    # leading small-R form agrees up to a relative O(R^2) defect
    nu = 0.1

    def rel(R):
        full, _ = outer.decay_slope(nu, R)
        return abs(outer.slope_cotangent(nu, R) / full - 1.0)

    assert rel(1e-3) < 1e-5
    assert rel(1e-2) < 1e-3
    # shrinks quadratically: two decades of R^2 between those points
    assert rel(1e-3) / rel(1e-2) < 0.02


def test_tiny_radius_names_float64_limit():
    # nu = 0.003 has its validity floor at 8e-228, far below where float64
    # holds K'' ~ 1/R^2; the slope is exact down to R = 1e-150
    nu = 0.003
    with pytest.raises(ValueError, match="float64"):
        outer.decay_slope(nu, 1e-155)
    V, dV = outer.decay_slope(nu, 1e-150)
    assert math.isfinite(dV)
    assert V == pytest.approx(outer.slope_cotangent(nu, 1e-150), rel=1e-15)


def test_zero_order_limit_matches_integer_ratio():
    for R in (0.5, 3.0, 9.0, 20.0):
        V, _ = outer.decay_slope(0.0, R)
        ref = -float(kv(1, R) / kv(0, R))
        assert V == pytest.approx(ref, rel=1e-11)


def test_refusal_below_floor_and_override():
    nu = 0.3
    low = 0.5 * outer.validity_floor(nu)
    with pytest.raises(ValueError):
        outer.decay_slope(nu, low)
    V, dV = outer.decay_slope(nu, low, allow_oscillatory=True)
    assert math.isfinite(V) and math.isfinite(dV)


def test_params_properties_and_validation():
    p = outer.SpiralParams(n=2, q=-0.5, k=0.1)
    assert p.nu == pytest.approx(1.0)
    assert p.eps == pytest.approx(0.05)
    with pytest.raises(ValueError):
        outer.SpiralParams(n=0, q=0.5, k=0.1)
    with pytest.raises(ValueError):
        outer.SpiralParams(n=1, q=0.0, k=0.1)
    for k in (-0.1, 0.0, 1.0):
        with pytest.raises(ValueError, match="wavenumber"):
            outer.SpiralParams(n=1, q=0.5, k=k)


def test_chirality_mirror():
    plus = outer.SpiralParams(n=1, q=0.5, k=0.06)
    minus = outer.SpiralParams(n=1, q=-0.5, k=0.06)
    for r in (5.0, 40.0, 300.0):
        assert outer.v_out(minus, r) == -outer.v_out(plus, r)
    assert outer.v_out(plus, 40.0) < 0.0


def test_log_radius_path():
    p = outer.SpiralParams(n=1, q=0.4, k=0.05)
    for r in (12.0, 95.0, 1e200):
        direct = outer.v_out(p, r)
        via_log = outer.v_out(p, log_r=math.log(r))
        assert via_log == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        outer.v_out(p, 5.0, log_r=1.0)
    with pytest.raises(ValueError):
        outer.v_out(p)


def test_amplitude_limit_and_derivative():
    p = outer.SpiralParams(n=1, q=0.5, k=0.1)
    # approaches sqrt(1 - k^2) from below, at the k^2/R rate set by the
    # -1/(2R) tail of the slope
    limit = math.sqrt(1.0 - 0.01)
    f7 = outer.f_out(p, 1e7)
    assert f7 == pytest.approx(limit, rel=1e-7)
    assert f7 < limit
    assert abs(outer.f_out(p, 1e9) - limit) < abs(f7 - limit)
    R = 5.0
    F0, dF0 = outer.amplitude_factor(p, R)
    h = 1e-6
    fd = (outer.amplitude_factor(p, R + h)[0]
          - outer.amplitude_factor(p, R - h)[0]) / (2 * h)
    assert dF0 == pytest.approx(fd, rel=1e-7)
    assert 0.0 < F0 < 1.0


def test_amplitude_refuses_core_region():
    p = outer.SpiralParams(n=1, q=0.5, k=0.5)
    with pytest.raises(ValueError, match="radicand"):
        outer.amplitude_factor(p, 0.2)
    # the phase gradient shares the amplitude's domain: one far-field
    # evaluation, one refusal
    with pytest.raises(ValueError, match="radicand"):
        outer.v_out(p, 0.2 / p.eps)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.5),
       st.floats(min_value=0.0, max_value=1.0))
def test_slope_negative_above_sign_floor(nu, t):
    lo = specfun.sign_validity_floor(nu)
    R = lo * (1000.0 / lo) ** t
    V, _ = outer.decay_slope(nu, R)
    assert V < 0.0
