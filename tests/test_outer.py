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


@pytest.mark.parametrize("nu", [2.0, 3.0])
def test_sign_margin_at_large_order(nu):
    # nu = n|q| reaches 2 and 3 at twists the solver accepts; the slope
    # stays negative on the scanned window there (V0' itself does not stay
    # positive: the scan's slope_margin is negative from nu ~ 1.88)
    scan = outer.property_scan(nu)
    assert scan["sign_margin"] > 0.0, nu
    assert scan["riccati_worst"] <= 1e-8, nu


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


@pytest.mark.parametrize("slope", [outer.decay_slope, outer.slope_cotangent],
                         ids=["decay_slope", "slope_cotangent"])
@pytest.mark.parametrize("R", [0.0, -1.0])
def test_nonpositive_radius_refused(slope, R):
    with pytest.raises(ValueError,
                       match="stretched radius must be positive, got R="):
        slope(0.5, R)


def test_zero_order_limit_matches_integer_ratio():
    for R in (0.5, 3.0, 9.0, 20.0):
        V, _ = outer.decay_slope(0.0, R)
        ref = -float(kv(1, R) / kv(0, R))
        assert V == pytest.approx(ref, rel=1e-11)


def test_refusal_below_floor_and_override():
    nu = 0.3
    low = 0.5 * outer.validity_floor(nu)
    with pytest.raises(ValueError, match="oscillation floor") as exc:
        outer.decay_slope(nu, low)
    assert "allow_oscillatory" not in str(exc.value)
    # the ratio itself is still defined there, just not single-signed
    V, dV = specfun.log_slope(nu, low)
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
    k = 0.06
    for r in (5.0, 40.0, 300.0):
        R = k * 0.5 * r
        plus = outer.far_field(1, 0.5, k, R)
        minus = outer.far_field(1, -0.5, k, R)
        assert minus[:3] == plus[:3]
        assert minus[3] == -plus[3]
    assert outer.far_field(1, 0.5, k, k * 0.5 * 40.0)[3] < 0.0


def test_amplitude_limit_and_derivative():
    p = outer.SpiralParams(n=1, q=0.5, k=0.1)
    # approaches sqrt(1 - k^2) from below, at the k^2/R rate set by the
    # -1/(2R) tail of the slope
    limit = math.sqrt(1.0 - 0.01)
    f7 = outer.far_field(p.n, p.q, p.k, p.eps * 1e7)[2]
    assert f7 == pytest.approx(limit, rel=1e-7)
    assert f7 < limit
    f9 = outer.far_field(p.n, p.q, p.k, p.eps * 1e9)[2]
    assert abs(f9 - limit) < abs(f7 - limit)
    assert 0.0 < outer.far_field(p.n, p.q, p.k, 5.0)[2] < 1.0


def test_amplitude_refuses_core_region():
    # amplitude and phase gradient come from one far-field evaluation, so
    # they share one refusal
    with pytest.raises(ValueError, match="radicand"):
        outer.far_field(1, 0.5, 0.5, 0.2)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.5),
       st.floats(min_value=0.0, max_value=1.0))
def test_slope_negative_above_sign_floor(nu, t):
    lo = specfun.sign_validity_floor(nu)
    R = lo * (1000.0 / lo) ** t
    V, _ = outer.decay_slope(nu, R)
    assert V < 0.0
