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
    "EULER_GAMMA", "SelectedWavenumber", "matching_constant", "mu_bar",
    "kappa_asym", "leading_matching_residual", "solve_matching_mu",
]


def _check_nq(n, q):
    core.check_arms(n)
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
    under = log_kappa < -specfun.UNDERFLOW_WALL
    value = 0.0 if under else math.exp(log_kappa)
    return SelectedWavenumber(n=n, q=q, log_value=log_kappa, value=value,
                              underflowed=under, mu=mu, cn=cn)


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
