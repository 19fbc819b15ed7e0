import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from cglspiral import core
from cglspiral import wavenumber as wn

# Raw tail constants solved independently at high resolution (collocation
# and shooting agreed to 1e-12); the prefactor constants are their
# negatives.  Tests that do not probe the on-demand solve pass these
# explicitly to stay fast.
T_FROZEN = {
    1: -0.119118106318,
    2: -4.237255816682,
    3: -13.750790141263,
}
CN = {n: -t for n, t in T_FROZEN.items()}

GAMMA = 0.57721566490153286061


def test_tail_const_on_demand_matches_frozen():
    assert wn.matching_constant(1) == pytest.approx(-T_FROZEN[1], abs=2e-8)


def test_matching_constant_is_minus_tail():
    for n in (1, 2, 3):
        tail = core.tail_constant(core.solve_profile(n)).value
        assert wn.matching_constant(n) == -tail
        assert wn.matching_constant(n) == pytest.approx(-T_FROZEN[n], abs=2e-8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_bar_against_high_precision(n):
    with mp.workdps(40):
        want = 2 * mp.e ** (-mp.mpf(CN[n]) / n ** 2 - mp.euler)
        got = wn.mu_bar(n, cn=CN[n])
        assert abs(got / float(want) - 1.0) < 1e-14


def test_mu_bar_one_armed_value():
    # 2 exp(-C_1 - gamma) with C_1 = 0.119118...: just below 1
    got = wn.mu_bar(1, cn=CN[1])
    assert got == pytest.approx(0.9968, abs=2e-4)
    assert got < 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [0.8, 0.5, 0.3, 0.1, 0.05])
def test_log_composition_identity(n, q):
    s = wn.kappa_asym(n, q, cn=CN[n])
    with mp.workdps(40):
        want = mp.log(2) - mp.log(mp.mpf(q)) - mp.mpf(CN[n]) / n ** 2 \
            - mp.euler - mp.pi / (2 * n * mp.mpf(q))
        assert abs(s.log_value - float(want)) < 1e-14 * max(1.0, abs(float(want)))


def test_value_is_exp_of_log():
    s = wn.kappa_asym(2, 0.4, cn=CN[2])
    assert s.value == math.exp(s.log_value)
    assert not s.underflowed


def test_underflow_flagged_with_finite_log():
    s = wn.kappa_asym(1, 0.001, cn=CN[1])
    assert s.underflowed
    assert s.value == 0.0
    assert math.isfinite(s.log_value)
    assert s.log_value < -1500


def test_no_underflow_just_above_floor():
    # pi/(2 q) ~ 654 at q = 0.0024
    s = wn.kappa_asym(1, 0.0024, cn=CN[1])
    assert not s.underflowed
    assert s.value > 0.0


def test_kappa_increasing_in_twist():
    qs = [0.05, 0.1, 0.2, 0.4, 0.8, 1.2]
    logs = [wn.kappa_asym(1, q, cn=CN[1]).log_value for q in qs]
    for a, b in zip(logs, logs[1:]):
        assert b > a


def test_prefactor_recovered_from_kappa():
    for n, q in [(1, 0.5), (2, 0.3), (3, 0.2)]:
        s = wn.kappa_asym(n, q, cn=CN[n])
        mu_back = math.exp(s.log_value + math.log(q) + math.pi / (2 * n * q))
        assert mu_back == pytest.approx(s.mu, rel=1e-12)
        assert s.mu == pytest.approx(wn.mu_bar(n, CN[n]), rel=1e-15)


def test_matching_root_approaches_prediction_quadratically():
    n = 1
    mu0 = wn.mu_bar(n, CN[n])
    rel_coarse = abs(wn.solve_matching_mu(n, 0.05, CN[n]) / mu0 - 1.0)
    rel_fine = abs(wn.solve_matching_mu(n, 0.01, CN[n]) / mu0 - 1.0)
    assert rel_coarse < 2e-3
    assert rel_fine < 1e-4
    assert rel_fine < 0.1 * rel_coarse


@pytest.mark.parametrize("n,q", [(1, 0.05), (2, 0.04), (3, 0.03), (3, 0.5),
                                 (2, 0.7), (1, 1.5)])
def test_matching_root_closed_form(n, q):
    # the closed-form root zeroes the residual at every twist kappa_asym
    # accepts, including nq above 4/3, where it lies more than a factor 3/2
    # from mu_bar
    root = wn.solve_matching_mu(n, q, CN[n])
    assert abs(wn.leading_matching_residual(n, q, root, CN[n])) < 1e-12


def test_matching_root_value_at_large_order():
    assert wn.solve_matching_mu(3, 0.5, CN[3]) == pytest.approx(
        0.3893234056872, rel=1e-12)


def test_matching_root_against_mpmath():
    # theta_0 = arg Gamma(1 + i nu) from mpmath, the residual's root at 30
    # digits: log(mu/2) = theta_0/(nq) - C/n^2.  A root finder stopping at
    # xtol = 1e-14 misses it by 1.6e-15 relative at (2, 0.4)
    with mp.workdps(30):
        for n, q in [(1, 0.05), (1, 0.7), (2, 0.3), (2, 0.4), (3, 0.5)]:
            nu = mp.mpf(n) * mp.mpf(q)
            theta0 = mp.im(mp.loggamma(1 + 1j * nu))
            ref = 2 * mp.exp(theta0 / nu - mp.mpf(CN[n]) / n ** 2)
            assert wn.solve_matching_mu(n, q, CN[n]) == pytest.approx(
                float(ref), rel=1e-15)


def test_geometry_values():
    g = wn.matching_geometry(1, 0.05, cn=CN[1])
    rho = (0.05 / abs(math.log(0.05))) ** (1.0 / 3.0)
    assert g.rho == pytest.approx(rho, rel=1e-14)
    assert g.log_r0 == pytest.approx(rho / 0.05 - 0.5 * math.log(2.0), rel=1e-14)
    assert g.r0 == pytest.approx(math.exp(g.log_r0), rel=1e-14)


def test_geometry_exponents_converge():
    d_coarse = abs(wn.matching_geometry(1, 0.05, cn=CN[1]).alpha_measured
                   - wn.matching_geometry(1, 0.05, cn=CN[1]).alpha_design)
    d_fine = abs(wn.matching_geometry(1, 0.005, cn=CN[1]).alpha_measured
                 - wn.matching_geometry(1, 0.005, cn=CN[1]).alpha_design)
    assert d_coarse < 0.02
    assert d_fine < d_coarse / 5.0


def test_geometry_radius_overflow_keeps_log():
    g = wn.matching_geometry(1, 1e-6, cn=CN[1])
    assert math.isinf(g.r0)
    assert math.isfinite(g.log_r0)


def test_domain_errors():
    with pytest.raises(ValueError, match="mirror"):
        wn.kappa_asym(1, -0.5, cn=CN[1])
    with pytest.raises(ValueError):
        wn.kappa_asym(1, 0.0, cn=CN[1])
    with pytest.raises(ValueError):
        wn.kappa_asym(0, 0.5, cn=0.0)
    with pytest.raises(ValueError):
        wn.kappa_asym(1.5, 0.5, cn=0.0)
    with pytest.raises(ValueError):
        wn.matching_geometry(1, 1.0, cn=CN[1])
    with pytest.raises(ValueError):
        wn.leading_matching_residual(1, 0.5, -1.0, CN[1])
    for q in (math.nan, math.inf):
        with pytest.raises(ValueError, match="twist must be a finite number"):
            wn.kappa_asym(1, q, cn=CN[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.01, max_value=0.9))
def test_composition_always_finite(n, q):
    s = wn.kappa_asym(n, q, cn=CN[n])
    assert math.isfinite(s.log_value)
    if not s.underflowed:
        assert s.value == math.exp(s.log_value)
    assert s.mu > 0.0
