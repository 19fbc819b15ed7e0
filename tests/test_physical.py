"""Reduced <-> physical parameter map tests."""

import math

import numpy as np
import pytest
from hypothesis import given, assume, example, settings, strategies as st

from cglspiral import physical

# draws with 1 - alpha*q barely positive produce large beta, which is
# admissible but outside the smallness assumption; silence that advisory
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def admissible_draws(n_draws, seed=20260822):
    """Random (alpha, q, k) with both admissibility margins bounded away from 0."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_draws:
        alpha = rng.uniform(-2.0, 2.0)
        q = rng.uniform(-0.95, 0.95)
        k = rng.uniform(0.0, 0.9)
        if 1.0 - alpha * q < 0.05:
            continue
        if 1.0 - alpha * q * (1.0 - k * k) < 0.05:
            continue
        out.append((alpha, q, k))
    return out


class TestTwistMaps:
    def test_beta_roundtrip(self):
        beta = physical.beta_from_alpha_q(0.3, 0.2)
        assert physical.twist_from(0.3, beta) == pytest.approx(0.2, abs=1e-14)

    def test_equal_coefficients_give_zero_twist(self):
        assert physical.twist_from(0.7, 0.7) == 0.0
        assert physical.beta_from_alpha_q(0.7, 0.0) == pytest.approx(0.7, abs=1e-15)

    def test_singular_denominator(self):
        with pytest.raises(ValueError, match="singular"):
            physical.beta_from_alpha_q(2.0, 0.5)

    def test_inadmissible_product(self):
        with pytest.raises(ValueError, match="inadmissible"):
            physical.beta_from_alpha_q(2.0, 0.6)
        with pytest.raises(ValueError, match="positive"):
            physical.twist_from(2.0, -0.6)

    def test_large_separation_warns_but_evaluates(self):
        with pytest.warns(UserWarning, match="smallness"):
            beta = physical.beta_from_alpha_q(0.0, 1.5)
        assert beta == pytest.approx(1.5)


class TestForwardMap:
    def test_zero_twist_is_identity_up_to_frequency(self):
        trip = physical.physical_from_reduced(0.4, 0.0, 0.3)
        assert trip.beta == pytest.approx(0.4, abs=1e-15)
        assert trip.Omega == pytest.approx(-0.4, abs=1e-15)
        assert trip.k_star == pytest.approx(0.3, abs=1e-15)
        assert trip.Omega_hat == 0.0

    def test_zero_wavenumber(self):
        trip = physical.physical_from_reduced(0.5, 0.3, 0.0)
        assert trip.k_star == 0.0
        # on-axis frequency equals -beta, amplitude defaults to 1
        res = physical.dispersion_check(trip.alpha, trip.beta, trip.Omega,
                                        trip.k_star)
        assert abs(res[0]) <= 1e-15
        assert res[1] == 0.0

    def test_dispersion_residual_small(self):
        trip = physical.physical_from_reduced(0.5, 0.3, 0.1)
        res1, res2 = physical.dispersion_check(trip.alpha, trip.beta,
                                               trip.Omega, trip.k_star)
        assert abs(res1) <= 1e-12
        assert abs(res2) <= 1e-15

    def test_rescale_factors_positive_and_match_closed_forms(self):
        for alpha, q, k in admissible_draws(50):
            trip = physical.physical_from_reduced(alpha, q, k)
            den = 1.0 - alpha * trip.Omega_hat
            assert trip.a > 0 and trip.delta > 0
            assert trip.a == pytest.approx(math.sqrt(den), rel=1e-12)
            assert trip.delta == pytest.approx(
                math.sqrt(den / (1.0 - alpha * q)), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="lie in"):
            physical.physical_from_reduced(0.1, 0.2, 1.0)
        # the twist-map admissibility check fires before the frequency one:
        # with 1 - alpha*q > 0 the second denominator 1 - alpha*q*(1-k^2)
        # is automatically positive as well
        with pytest.raises(ValueError, match="inadmissible"):
            physical.physical_from_reduced(1.9, 0.6, 0.1)


class TestConsistencyIdentities:
    """The two lemma-level identities and the roundtrip, on 10^3 draws."""

    draws = admissible_draws(1000)

    def test_amplitude_identity(self):
        worst = 0.0
        for alpha, q, k in self.draws:
            t = physical.physical_from_reduced(alpha, q, k)
            lhs = 1.0 - t.k_star ** 2
            rhs = (1.0 - k * k) * (1.0 - t.Omega * alpha) / (1.0 + alpha * t.beta)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_frequency_identity(self):
        worst = 0.0
        for alpha, q, k in self.draws:
            t = physical.physical_from_reduced(alpha, q, k)
            lhs = (1.0 - t.Omega * alpha) * (1.0 - alpha * q * (1.0 - k * k))
            worst = max(worst, abs(lhs - (1.0 + alpha * alpha)))
        assert worst <= 1e-12

    def test_roundtrip(self):
        worst = 0.0
        for alpha, q, k in self.draws:
            t = physical.physical_from_reduced(alpha, q, k)
            q2, k2, Om2 = physical.reduced_from_physical(alpha, t.beta, t.k_star)
            worst = max(worst, abs(q2 - q), abs(k2 - k), abs(Om2 - t.Omega))
        assert worst <= 1e-12

    def test_dispersion_residual_sweep(self):
        worst = 0.0
        for alpha, q, k in self.draws:
            t = physical.physical_from_reduced(alpha, q, k)
            r1, r2 = physical.dispersion_check(alpha, t.beta, t.Omega, t.k_star)
            worst = max(worst, abs(r1), abs(r2))
        assert worst <= 1e-12


class TestDispersionCheck:
    def test_perturbed_frequency_moves_residual_linearly(self):
        t = physical.physical_from_reduced(0.5, 0.3, 0.1)
        r1, _ = physical.dispersion_check(t.alpha, t.beta, t.Omega + 1e-3,
                                          t.k_star)
        assert r1 == pytest.approx(1e-3, rel=1e-9)

    def test_explicit_amplitude(self):
        _, r2 = physical.dispersion_check(0.0, 0.2, -0.2, 0.0, amplitude=0.9)
        assert r2 == pytest.approx(0.81 - 1.0, abs=1e-15)

    def test_wavenumber_bound(self):
        with pytest.raises(ValueError, match="k\\*"):
            physical.dispersion_check(0.0, 0.2, -0.2, 1.5)
        with pytest.raises(ValueError, match="k\\*"):
            physical.reduced_from_physical(0.0, 0.2, 1.5)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(-1.5, 1.5), q=st.floats(-0.9, 0.9),
       k=st.floats(0.0, 0.85))
@example(alpha=0.0, q=0.0, k=4.77e-7)
@example(alpha=0.5, q=0.5, k=1e-9)
def test_roundtrip_property(alpha, q, k):
    assume(1.0 - alpha * q > 0.05)
    assume(1.0 - alpha * q * (1.0 - k * k) > 0.05)
    t = physical.physical_from_reduced(alpha, q, k)
    q2, k2, _ = physical.reduced_from_physical(alpha, t.beta, t.k_star)
    assert abs(q2 - q) <= 1e-11
    assert abs(k2 - k) <= 1e-11


@pytest.mark.parametrize("alpha,q", [(0.5, 0.5), (0.0, 0.0), (-1.2, 0.3)])
@pytest.mark.parametrize("k", [1.5e-6, 1e-8, 1e-9, 1e-12])
def test_roundtrip_keeps_relative_precision_at_small_k(alpha, q, k):
    # the selected wavenumbers are exponentially small in 1/q, so the map
    # back must hold relative, not absolute, precision
    t = physical.physical_from_reduced(alpha, q, k)
    _, k_back, _ = physical.reduced_from_physical(alpha, t.beta, t.k_star)
    assert abs(k_back - k) <= 1e-14 * k
