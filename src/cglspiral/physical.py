"""Parameter and scaling maps between the reduced and physical settings.

The radial solve works in reduced variables: twist q, wavenumber k, and
the derived rotation rate Omega_hat = q(1 - k^2).  The physical equation
carries linear and nonlinear dispersion coefficients (alpha, beta), an
observed rotation frequency Omega, and a physical wavenumber k_star.
The bridge is

    q       = (beta - alpha)/(1 + alpha beta)
    Omega   = -(alpha + Omega_hat)/(1 - alpha Omega_hat)
    k_star  = k / sqrt(1 - alpha Omega_hat)
    a       = sqrt((1+alpha^2)/(1 - Omega alpha))     (radial rescale)
    delta   = sqrt((1+alpha beta)/(1 - Omega alpha))  (amplitude rescale)

together with the wave-train dispersion relation
Omega = -beta + k_star^2 (beta - alpha), amplitude C = sqrt(1-k_star^2).
Admissibility needs 1 + alpha beta > 0 (equivalently 1 - alpha q > 0)
and 0 <= k < 1; then 1 - alpha Omega_hat > 0 and 1 - Omega alpha > 0
follow, as does the dispersion relation (an algebraic identity, checked
here only against float rounding).  Formed as a difference, 1 - Omega
alpha cancels at extreme |q|, so the rescales are computed from the
closed forms a = sqrt(1 - alpha Omega_hat) and delta = sqrt((1 - alpha
Omega_hat)/(1 - alpha q)); a denominator 1 - alpha Omega_hat <= 0 is
refused.
"""

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "PhysicalTriple", "twist_from", "beta_from_alpha_q",
    "physical_from_reduced", "reduced_from_physical", "dispersion_check",
]


@dataclass(frozen=True)
class PhysicalTriple:
    """Physical-side parameters with their rescale factors."""

    alpha: float
    beta: float
    Omega: float
    k_star: float
    a: float
    delta: float
    q: float
    k: float
    Omega_hat: float


def twist_from(alpha, beta):
    """Twist q = (beta - alpha)/(1 + alpha beta)."""
    den = 1.0 + alpha * beta
    if den <= 0.0:
        raise ValueError(
            f"inadmissible pair: 1 + alpha*beta = {den:.4g} must be positive")
    return (beta - alpha) / den


def beta_from_alpha_q(alpha, q):
    """Nonlinear dispersion coefficient giving twist q at given alpha."""
    den = 1.0 - alpha * q
    if den == 0.0:
        raise ValueError(f"singular map: 1 - alpha*q = 0 at alpha={alpha!r}, q={q!r}")
    if den < 0.0:
        raise ValueError(
            f"inadmissible pair: 1 - alpha*q = {den:.4g} < 0 makes "
            "1 + alpha*beta negative")
    beta = (alpha + q) / den
    if abs(alpha - beta) >= 1.0:
        warnings.warn(
            f"|alpha - beta| = {abs(alpha - beta):.4g} >= 1: outside the "
            "standing smallness assumption, formulas remain evaluable",
            stacklevel=2)
    return beta


def physical_from_reduced(alpha, q, k):
    """Map reduced (q, k) at dispersion alpha to the physical parameters."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"reduced wavenumber must lie in [0, 1), got {k!r}")
    beta = beta_from_alpha_q(alpha, q)
    omega_hat = q * (1.0 - k * k)
    den = 1.0 - alpha * omega_hat
    if den <= 0.0:
        raise ValueError(f"1 - alpha*Omega_hat = {den:.4g} at "
                         f"alpha={alpha!r}, q={q!r}, k={k!r}; it must be "
                         "positive")
    Omega = -(alpha + omega_hat) / den
    # 1 - Omega alpha = (1 + alpha^2)/den and 1 + alpha beta = (1 + alpha^2)
    # /(1 - alpha q): the closed forms, not the differences, which cancel
    a = math.sqrt(den)
    k_star = k / a
    delta = math.sqrt(den / (1.0 - alpha * q))
    return PhysicalTriple(alpha=alpha, beta=beta, Omega=Omega, k_star=k_star,
                          a=a, delta=delta, q=q, k=k, Omega_hat=omega_hat)


def reduced_from_physical(alpha, beta, k_star):
    """Recover (q, k, Omega) from physical-side parameters.

    Omega comes from the dispersion relation; the reduced wavenumber from
    the amplitude identity (1 - k_star^2) = (1 - k^2)(1 - Omega alpha)/
    (1 + alpha beta), whose radicand is k_star^2 (1+alpha^2)/(1 - Omega
    alpha) and hence nonnegative whenever 1 + alpha beta > 0.
    """
    if abs(k_star) > 1.0:
        raise ValueError(f"physical wavenumber must satisfy |k*| <= 1, got {k_star!r}")
    q = twist_from(alpha, beta)
    Omega = -beta + k_star * k_star * (beta - alpha)
    one_minus = 1.0 - Omega * alpha
    # k^2 = k_star^2 (1 + alpha^2)/(1 - Omega alpha) keeps full relative
    # precision; 1 minus the amplitude ratio cancels at small k
    k = abs(k_star) * math.sqrt((1.0 + alpha * alpha) / one_minus)
    return q, k, Omega


def dispersion_check(alpha, beta, Omega, k_star, amplitude=None):
    """Residual pair of the single-mode wave-train relations.

    Returns (Omega + beta - k_star^2 (beta - alpha), C^2 - (1 - k_star^2))
    with C the supplied amplitude (defaulting to the consistent value).
    Both vanish on valid wave trains.
    """
    if abs(k_star) > 1.0:
        raise ValueError(f"physical wavenumber must satisfy |k*| <= 1, got {k_star!r}")
    res1 = Omega + beta - k_star * k_star * (beta - alpha)
    if amplitude is None:
        amplitude = math.sqrt(1.0 - k_star * k_star)
    res2 = amplitude * amplitude - (1.0 - k_star * k_star)
    return res1, res2
