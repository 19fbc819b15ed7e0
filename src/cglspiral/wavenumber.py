"""Selected asymptotic wavenumber of an n-armed rotating solution.

For small twist q the spatial wavenumber selected by the core is
exponentially small:

    kappa(q) = (2/q) exp(-C/n^2 - gamma) exp(-pi/(2 n q)),

with gamma the Euler constant and C a constant that depends only on the
arm count n.  Two closely related constants appear:

* the raw tail constant of the core moment,
  T_n = lim (integral of xi f0^2 (1 - f0^2) - n^2 log r), which is what
  :func:`cglspiral.core.tail_constant` measures (negative for every n);
* the matching constant C_n = -T_n that enters the exponential
  prefactor above.

The sign flip is fixed by the leading matching condition: writing the
phase gradient of the core solution for large r as
-q n^2 (1+k^2) log(r)/r + q C/r - q k^2 r/2 + ... requires C = -T_n.
The leading matching residual C + n^2 log(mu/2) - n theta_0(nq)/q is
linear in log mu, so its root is the closed form

    mu = 2 exp(theta_0(nq)/(nq) - C/n^2),    theta_0 = arg Gamma(1 + i nu),

at every twist, and since theta_0(nu) = -gamma nu + O(nu^3) it tends to
mu = 2 exp(-C/n^2 - gamma) as q -> 0.  Full rotating-solution solves
confirm the orientation:
k q e^{pi/(2nq)} measured from the boundary-value problem converges to
that value (and not to the one with the opposite sign) as q decreases.

All formula operations here take the constant as an explicit argument
and compose it literally; when omitted it defaults to
:func:`matching_constant`, which performs the sign flip in exactly one
place.

Everything is composed in log space first; the plain value underflows
float64 once pi/(2nq) passes ~745 and is then reported as zero with an
explicit flag, while the log stays finite and usable.

Only positive twist is accepted here: the negative-twist solution is the
exact mirror image (same wavenumber, reversed phase gradient), handled at
the solver level, and silently folding the sign here would mask errors.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from . import core, specfun

EULER_GAMMA = specfun.EULER_GAMMA_F

__all__ = [
    "EULER_GAMMA", "SelectedWavenumber", "MatchingGeometry",
    "matching_constant", "mu_bar",
    "kappa_asym", "matching_geometry", "leading_matching_residual",
    "solve_matching_mu",
]

_LOG_UNDERFLOW = -745.0


def _check_nq(n, q):
    if n < 1 or int(n) != n:
        raise ValueError(f"arm count must be a positive integer, got {n!r}")
    if not math.isfinite(q):
        raise ValueError(f"twist must be a finite number, got q={q!r}")
    if q <= 0.0:
        raise ValueError(
            f"twist must be positive, got q={q!r}; the negative-twist "
            "branch is the mirror image with the same wavenumber"
        )


@lru_cache(maxsize=8)
def matching_constant(n):
    """Constant entering the exponential prefactor of kappa(q).

    Equal to minus the raw tail constant of the core moment, solved on
    demand; see the module docstring for why the orientation matters and
    how it is confirmed numerically.
    """
    return -core.tail_constant(core.solve_profile(int(n))).value


def mu_bar(n, cn=None):
    """Predicted matching prefactor 2 exp(-C_n/n^2 - gamma)."""
    if cn is None:
        cn = matching_constant(n)
    return 2.0 * math.exp(-cn / (n * n) - EULER_GAMMA)


@dataclass(frozen=True)
class SelectedWavenumber:
    """kappa(q) with its always-finite logarithm and underflow marker."""

    n: int
    q: float
    log_value: float
    value: float
    underflowed: bool
    mu: float
    cn: float


def kappa_asym(n, q, cn=None):
    """Asymptotic selected wavenumber for positive twist.

    Composed as log kappa = log 2 - log q - cn/n^2 - gamma - pi/(2nq);
    the exponential is reported as 0.0 with ``underflowed`` set once the
    log drops below the float64 floor.  ``cn`` defaults to
    :func:`matching_constant`.
    """
    _check_nq(n, q)
    if cn is None:
        cn = matching_constant(n)
    n = int(n)
    mu = mu_bar(n, cn)
    log_kappa = math.log(2.0) - math.log(q) - cn / (n * n) \
        - EULER_GAMMA - math.pi / (2.0 * n * q)
    under = log_kappa < _LOG_UNDERFLOW
    value = 0.0 if under else math.exp(log_kappa)
    return SelectedWavenumber(n=n, q=q, log_value=log_kappa, value=value,
                              underflowed=under, mu=mu, cn=cn)


@dataclass(frozen=True)
class MatchingGeometry:
    """Where the core and far-field descriptions are glued together.

    The matching radius r0 = e^{rho/q}/sqrt(2) with rho = (q/|log q|)^{1/3}
    sits between the algebraic core tail and the first far-field
    oscillation; in terms of the small parameter eps = kappa q it behaves
    like eps^{-(1 - alpha)}.  Both the design exponent 1 - 2 n rho / pi
    and the directly measured one are carried so their approach to each
    other as q -> 0 can be verified.
    """

    n: int
    q: float
    rho: float
    log_r0: float
    r0: float
    alpha_design: float
    alpha_measured: float


def matching_geometry(n, q, cn=None):
    _check_nq(n, q)
    if q >= 1.0:
        raise ValueError(
            f"matching geometry is meaningful for twist below 1, got q={q!r}")
    rho = (q / abs(math.log(q))) ** (1.0 / 3.0)
    log_r0 = rho / q - 0.5 * math.log(2.0)
    r0 = math.exp(log_r0) if log_r0 < 709.0 else math.inf
    log_eps = math.log(mu_bar(n, cn)) - math.pi / (2.0 * n * q)
    alpha_design = 1.0 - 2.0 * n * rho / math.pi
    alpha_measured = 1.0 - log_r0 / (-log_eps)
    return MatchingGeometry(n=int(n), q=q, rho=rho, log_r0=log_r0, r0=r0,
                            alpha_design=alpha_design,
                            alpha_measured=alpha_measured)


def leading_matching_residual(n, q, mu, cn=None):
    """Residual of the leading matching condition at prefactor mu.

    C_n + n^2 log(mu/2) - n theta_0(n q)/q; its root is the selected
    prefactor and tends to :func:`mu_bar` as the twist vanishes, since
    theta_0(nu) = -gamma nu + O(nu^3).
    """
    _check_nq(n, q)
    if mu <= 0.0:
        raise ValueError(f"prefactor must be positive, got mu={mu!r}")
    if cn is None:
        cn = matching_constant(n)
    theta0 = specfun.gamma_arg(0, n * q)
    return cn + n * n * math.log(0.5 * mu) - n * theta0 / q


def solve_matching_mu(n, q, cn=None):
    """Root of the leading matching condition, 2 exp(theta_0(nq)/(nq) - C/n^2).

    The residual of :func:`leading_matching_residual` is linear in
    log mu, so the root is this closed form at every positive twist.
    """
    _check_nq(n, q)
    if cn is None:
        cn = matching_constant(n)
    nu = n * q
    return 2.0 * math.exp(specfun.gamma_arg(0, nu) / nu - cn / (n * n))
