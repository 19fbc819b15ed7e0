"""Modified Bessel functions of purely imaginary order, and friends.

The workhorse is K_{i nu}(x), needed by the far-field description of
rotating spiral solutions.  It comes from one trapezoid sum of the integral
representation

    e^x K_{i nu}(x) = int_0^inf exp(-x s(t)) cos(nu t) dt,
    s(t) = cosh t - 1 = 2 sinh^2(t/2),

whose integrand is analytic in a strip about the real axis, so the rule
converges exponentially in the step (Trefethen & Weideman, SIAM Rev. 56,
2014; quadrature of integral representations is one of the routes of Gil,
Segura & Temme, ACM TOMS 30, 2004).  The step h = min(0.1, 0.7/sqrt(x))
resolves both cos(nu t) and the integrand's width 1/sqrt(x) at large x,
and the sum stops where x s(t) = 40.  The envelope e^{-x} stays out
analytically, and so do the derivatives: under the signed weight
exp(-x s) cos(nu t),

    K'/K = -1 - E[s],        (K'/K)' = Var s,

so the log-slope and its derivative are scale-free, finite where K itself
underflows float64, and free of the cancellation in K''/K - (K'/K)^2.
Scipy's adaptive quadrature of the same integral, :func:`k_imag_quadrature`,
is kept as the trapezoid sum's oracle for the tests and the self-check;
no solve calls it.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import loggamma

UNDERFLOW_WALL = 745.0  # exp(-746) is zero in float64
# smallest argument held in float64 at every order: below it s^2 ~ 1/x^2
# and the slope's derivative (K'/K)' overflow
X_MIN = 1e-150

EULER_GAMMA_F = 0.57721566490153286061


class QuadratureError(RuntimeError):
    """Raised when the integral representation misses its tolerance."""

    def __init__(self, nu, x, achieved):
        self.nu = nu
        self.x = x
        self.achieved = achieved
        super().__init__(
            f"quadrature for nu={nu!r}, x={x!r} achieved only "
            f"relative error {achieved:.3e}"
        )


def sign_validity_floor(nu):
    """Smallest x where the (K>0, K'<0, K''>0) sign pattern is guaranteed.

    The oscillatory small-argument regime ends near 2 e^2 e^{-pi/(2 nu)};
    above it K is positive, decreasing and convex.  For nu = 0 the pattern
    holds on all of x > 0.
    """
    if nu <= 0.0:
        return 0.0
    return 2.0 * math.exp(2.0 - math.pi / (2.0 * nu))


def _moments(nu, x):
    """(e^x K_{i nu}(x), E[s], Var s) by the trapezoid rule.

    The mean and the variance, centred on the mean, are those of
    s = cosh t - 1 under the signed weight exp(-x s) cos(nu t) on t >= 0.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"argument must be positive and finite, got x={x!r}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(
            f"order magnitude must be nonnegative and finite, got nu={nu!r}")
    if x < X_MIN:
        raise ValueError(
            f"K_{{i nu}} at nu={nu!r}, x={x!r} is beyond float64 range: below "
            f"specfun.X_MIN = {X_MIN:g} the slope's derivative (K'/K)' ~ 1/x^2 "
            "overflows")
    h = min(0.1, 0.7 / math.sqrt(x))
    # x s(T) = 40; the form acosh(1 + 40/x) rounds to T = 0 above x ~ 1e16
    T = 2.0 * math.asinh(math.sqrt(20.0 / x))
    t = h * np.arange(int(T / h) + 1)
    s = 2.0 * np.sinh(0.5 * t) ** 2
    w = np.exp(-x * s) * np.cos(nu * t)
    w[0] *= 0.5
    S = float(w.sum())
    mean = float(w @ s) / S
    return h * S, mean, float(w @ (s - mean) ** 2) / S


def _cosh_quad(x, integrand):
    """(value, abserr) of int_0^T of the integrand by Gauss-Kronrod, with
    x cosh T at the float64 underflow wall so the discarded tail is below
    e^{-745}; a missed request shows in abserr, not as a warning."""
    T = math.acosh(UNDERFLOW_WALL / x) if x < UNDERFLOW_WALL else 1e-8
    return quad(integrand, 0.0, T, epsabs=0.0, epsrel=1e-13, limit=200,
                full_output=1)[:2]


def k_imag_quadrature(nu, x):
    """(K, K') of K_{i nu} at x from the integrals
    int_0^T exp(-x cosh t) cos(nu t) dt and -int_0^T exp(-x cosh t) cosh t
    cos(nu t) dt: the oracle for the trapezoid sum.

    Raises :class:`QuadratureError` when the error estimate of K is worse
    than 1e-9 relative.
    """
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got x={x!r}")
    K, abserr = _cosh_quad(
        x, lambda t: math.exp(-x * math.cosh(t)) * math.cos(nu * t))
    scale = max(abs(K), 5e-324)
    if abserr / scale > 1e-9:
        raise QuadratureError(nu, x, abserr / scale)
    K1 = _cosh_quad(
        x, lambda t: -math.exp(-x * math.cosh(t)) * math.cosh(t)
        * math.cos(nu * t))[0]
    return K, K1


def k_imag(nu, x):
    """(K, K') of K_{i nu} at x from the trapezoid sum, for order magnitude
    nu >= 0 and argument x > 0."""
    S, mean, _ = _moments(nu, x)
    K = math.exp(-x) * S
    return K, K * (-1.0 - mean)


def k_imag_triple(nu, x):
    """(K, K', K'') of K_{i nu} at x.

    The second derivative comes from the variance of s, independently of
    the defining differential equation, so residual tests of that equation
    are meaningful.
    """
    S, mean, var = _moments(nu, x)
    K = math.exp(-x) * S
    w = -1.0 - mean
    return K, K * w, K * (w * w + var)


def log_slope(nu, x):
    """(K'/K, (K'/K)') of K_{i nu} at x, as (-1 - E[s], Var s).

    Both are scale-free, so they stay finite where K itself underflows
    float64, and the variance is centred, so the derivative keeps its
    relative precision where K''/K and (K'/K)^2 nearly cancel.
    """
    _, mean, var = _moments(nu, x)
    return -1.0 - mean, var


def sign_margins(nu, x):
    """Scale-free margins of the sign pattern (K > 0, K' < 0, K'' > 0).

    Returns a triple of floats, each positive exactly when the corresponding
    inequality holds.  The triple is formed from e^x K, so the check stays
    meaningful at arguments where K itself underflows float64 (e^{-x}
    vanishes beyond x ~ 745), and normalized by its own magnitude.
    """
    S, mean, var = _moments(nu, x)
    w = -1.0 - mean
    K, K1, K2 = S, S * w, S * (w * w + var)
    s = abs(K) + abs(K1) + abs(K2)
    return K / s, -K1 / s, K2 / s


def gamma_arg(k, nu):
    """theta_{k, nu} = arg Gamma(1 + k + i nu), from the complex log-Gamma.

    The imaginary part of loggamma is the continuous branch of the
    argument, so theta_k = theta_0 + sum_{l<=k} atan(nu/l) holds without
    any 2 pi jumps.  Satisfies theta_{0,nu} = -gamma nu + O(nu^3).
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"index must be a nonnegative integer, got {k!r}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(
            f"order magnitude must be nonnegative and finite, got nu={nu!r}")
    return float(loggamma(1.0 + int(k) + 1j * nu).imag)
