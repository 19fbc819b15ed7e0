"""Modified Bessel functions of purely imaginary order, and friends.

The workhorse is K_{i nu}(x) for small order magnitude nu, needed by the
far-field description of rotating spiral solutions.  Three independent
representations are implemented and cross-checked:

* an ascending series in real form,

      K_{i nu}(x) = -(1/nu) sqrt(nu pi / sinh(nu pi))
                    * sum_k (x^2/4)^k sin(nu log(x/2) - theta_k) / (k! P_k),

  with P_k = sqrt((1+nu^2)(4+nu^2)...(k^2+nu^2)) and
  theta_k = arg Gamma(1+k+i nu);

* the large-argument expansion sqrt(pi/(2x)) e^{-x} (1 + a_1/x + ...) with
  a_j built from mu_hat = (2 i nu)^2 = -4 nu^2;

* the integral representation int_0^inf exp(-x cosh t) cos(nu t) dt, kept as
  a cross-validation oracle rather than a hot path.

The series runs below the fixed handover X_SPLIT = 10 and the expansion
from it on.  Near the handover the series suffers cancellation of order
e^{2x} (about 5e8 at x = 10), far beyond what compensated float64 summation
can absorb, so the series core runs in double-double arithmetic
(:mod:`.ddarith`).  The oscillating factors sin/cos(A_k)/P_k are advanced by
exact rational rotations

    u_k = (k u_{k-1} - nu v_{k-1}) / (k^2 + nu^2),
    v_k = (k v_{k-1} + nu u_{k-1}) / (k^2 + nu^2),

so no transcendental is evaluated per term; only the initial angle
A_0 = nu log(x/2) - theta_0 needs dd-accurate log, arg-Gamma and sin/cos.

Integer-order I_n/K_n are thin wrappers over scipy's exponentially scaled
routines with recurrence derivatives, carrying log-magnitude forms so the
Wronskian remains checkable at arguments where I_n overflows.
"""

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import ive, kve, loggamma

from .ddarith import (
    EULER_GAMMA,
    PI,
    ZETA_ODD_MINUS_1,
    dd,
    dd_add,
    dd_atan,
    dd_div,
    dd_div_d,
    dd_log,
    dd_mul,
    dd_mul_d,
    dd_neg,
    dd_sincos,
    dd_sinh,
    dd_sqrt,
    dd_sub,
    to_float,
)

# handover from the ascending series (x < X_SPLIT) to the large-argument
# expansion; both agree to 1e-9 relative there for nu <= 0.5
X_SPLIT = 10.0
# term cap of the ascending series
SERIES_TERMS = 200
# term cap of the divergent large-argument sums, which also stop at
# their smallest term
ASYM_TERMS = 60
UNDERFLOW_WALL = 745.0  # exp(-746) is zero in float64
# smallest argument the series holds in float64 at every order: below it
# K'' ~ 1/x^2 overflows (from x ~ 6e-151 to 3e-151, by order) and x*x
# underflows (from x ~ 1.5e-162)
X_MIN = 1e-150
# K_{i nu} is even in nu, so evaluating orders below this floor at the
# floor moves K by O((nu log x)^2), below 1e-35 relative for x > 1e-150
_NU_FLOOR = 1e-20

EULER_GAMMA_F = 0.57721566490153286061


class SeriesDivergenceError(RuntimeError):
    """Raised when the ascending series fails to converge in budget."""

    def __init__(self, nu, x, max_terms):
        self.nu = nu
        self.x = x
        self.max_terms = max_terms
        super().__init__(
            f"imaginary-order series did not converge within {max_terms} "
            f"terms at nu={nu!r}, x={x!r}"
        )


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


@dataclass(frozen=True)
class ImagOrderEval:
    """One evaluation of K_{i nu}: value, x-derivative, and provenance."""

    x: float
    nu: float
    value: float
    derivative: float
    method: str
    err_estimate: float = 0.0

    def second_derivative_ode(self):
        """K'' composed from the defining equation (not an independent sum)."""
        return (1.0 - self.nu * self.nu / (self.x * self.x)) * self.value \
            - self.derivative / self.x


@dataclass(frozen=True)
class GammaArg:
    """theta_{k, nu} = arg Gamma(1 + k + i nu)."""

    k: int
    nu: float
    theta: float


def sign_validity_floor(nu):
    """Smallest x where the (K>0, K'<0, K''>0) sign pattern is guaranteed.

    The oscillatory small-argument regime ends near 2 e^2 e^{-pi/(2 nu)};
    above it K is positive, decreasing and convex.  For nu = 0 the pattern
    holds on all of x > 0.
    """
    if nu <= 0.0:
        return 0.0
    return 2.0 * math.exp(2.0 - math.pi / (2.0 * nu))


def _theta0_dd(nu):
    """arg Gamma(1 + i nu) in dd for 0 <= nu <= ~1.05.

    Uses the odd-zeta expansion
    theta_0 = -gamma nu + (nu - atan nu)
              + sum_{m>=1} (-1)^{m+1} (zeta(2m+1)-1) nu^{2m+1} / (2m+1),
    absorbing the slowly convergent part of the zeta series into atan.
    """
    nud = dd(nu)
    acc = dd_mul(dd_neg(EULER_GAMMA), nud)
    acc = dd_add(acc, dd_sub(nud, dd_atan(nud)))
    nu2 = dd_mul(nud, nud)
    p = dd_mul(nud, nu2)  # nu^3
    sign = 1.0
    for m, zc in enumerate(ZETA_ODD_MINUS_1, start=1):
        term = dd_mul_d(dd_div_d(dd_mul(zc, p), float(2 * m + 1)), sign)
        acc = dd_add(acc, term)
        p = dd_mul(p, nu2)
        sign = -sign
        if abs(term[0]) < 1e-37 * abs(acc[0]) + 1e-320:
            break
    return acc


def _series_core(nu, x):
    """dd summation of the series and its two term-wise derivatives.

    Returns (K, K', K'', n_terms, cond) as floats, where cond is the
    cancellation condition estimate sum|t_k| / |sum t_k| of the value sum.
    Raises ValueError where float64 cannot hold the result: x*x
    underflows below x ~ 1.5e-162, and K'' ~ 1/x^2 overflows (or its dd
    split does) below x ~ 1e-150.
    """
    x2 = x * x
    if x2 == 0.0:
        raise _float64_limit(nu, x)
    L = dd_log(x / 2.0)
    A0 = dd_sub(dd_mul_d(L, nu), _theta0_dd(nu))
    u, v = dd_sincos(A0)  # u_k = sin(A_k)/P_k, v_k = cos(A_k)/P_k
    x2_4 = dd_mul_d(dd_mul_d(dd(x), x), 0.25)
    w = dd(1.0)  # (x^2/4)^k / k!
    nu2_dd = dd_mul(dd(nu), dd(nu))
    S = dd(0.0)
    S1 = dd(0.0)
    S2 = dd(0.0)
    abs_sum = 0.0
    converged = False
    n_terms = SERIES_TERMS
    for k in range(SERIES_TERMS):
        fk = float(k)
        t = dd_mul(w, u)
        S = dd_add(S, t)
        abs_sum += abs(t[0])
        S1 = dd_add(S1, dd_mul(w, dd_add(dd_mul_d(u, 2.0 * fk),
                                         dd_mul_d(v, nu))))
        w2 = dd_sub(dd(4.0 * fk * fk - 2.0 * fk), nu2_dd)
        S2 = dd_add(S2, dd_mul(w, dd_add(dd_mul(u, w2),
                                         dd_mul_d(dd_mul_d(v, 4.0 * fk - 1.0), nu))))
        kk = fk + 1.0
        denom = dd_add(dd(kk * kk), nu2_dd)
        un = dd_div(dd_sub(dd_mul_d(u, kk), dd_mul_d(v, nu)), denom)
        vn = dd_div(dd_add(dd_mul_d(v, kk), dd_mul_d(u, nu)), denom)
        u, v = un, vn
        w = dd_div_d(dd_mul(w, x2_4), kk)
        tail = abs(w[0]) * math.hypot(u[0], v[0]) * (4.0 * kk * kk + 2.0)
        if tail < 1e-35 * abs(S[0]) + 1e-320:
            converged = True
            n_terms = k + 1
            break
    if not converged:
        raise SeriesDivergenceError(nu, x, SERIES_TERMS)
    nupi = dd_mul_d(PI, nu)
    pref = dd_neg(dd_div_d(dd_sqrt(dd_div(nupi, dd_sinh(nupi))), nu))
    K = to_float(dd_mul(pref, S))
    K1 = to_float(dd_div_d(dd_mul(pref, S1), x))
    K2 = to_float(dd_div_d(dd_mul(pref, S2), x2))
    if not (math.isfinite(K) and math.isfinite(K1) and math.isfinite(K2)):
        raise _float64_limit(nu, x)
    cond = abs_sum / abs(S[0]) if S[0] != 0.0 else math.inf
    return K, K1, K2, n_terms, cond


def _float64_limit(nu, x):
    return ValueError(
        f"K_{{i nu}} at nu={nu!r}, x={x!r} is beyond float64 range: below "
        f"specfun.X_MIN = {X_MIN:g} the series' x*x underflows or "
        "K'' ~ 1/x^2 overflows")


def _series_triple(nu, x):
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got x={x!r}")
    if nu < 0.0:
        raise ValueError(f"order magnitude must be nonnegative, got nu={nu!r}")
    return _series_core(max(nu, _NU_FLOOR), x)


def _asym_sums(nu, x):
    """The three asymptotic sums, each truncated at its own smallest term.

    The expansion coefficients follow a_j = a_{j-1} (mu_hat - (2j-1)^2)/(8j)
    with mu_hat = -4 nu^2; the series is divergent, so each sum stops right
    before its terms start growing and the first omitted term is the error.
    """
    muhat = -4.0 * nu * nu
    sums = [1.0, 0.0, 0.0]
    # the last term looked at: the last one added while a sum runs, its
    # first growing term once it has stopped
    err = [math.inf] * 3
    running = [True] * 3
    a = 1.0
    for j in range(1, ASYM_TERMS):
        a *= (muhat - (2 * j - 1) ** 2) / (8.0 * j)
        terms = (a * x ** (-j), -j * a * x ** (-j - 1),
                 j * (j + 1) * a * x ** (-j - 2))
        for i, t in enumerate(terms):
            if running[i]:
                if abs(t) >= err[i]:
                    running[i] = False
                else:
                    sums[i] += t
                err[i] = abs(t)
        if not any(running):
            break
    S, Sp, Spp = sums
    return S, Sp, Spp, max(err[0], err[1] / max(abs(Sp), 1.0), err[2])


def asym_log_slope(nu, x):
    """Large-argument log-slope (K'/K, (K'/K)') of K_{i nu}, scale-free.

    K = sqrt(pi/(2x)) e^{-x} S with S the asymptotic sum, so
    K'/K = -1 - 1/(2x) + S'/S: the e^{-x} envelope cancels analytically
    and the slope stays finite where K itself underflows float64.
    Returns (w, w', S, err) with err the sums' first omitted term.
    """
    S, Sp, Spp, err = _asym_sums(nu, x)
    w = -1.0 - 1.0 / (2.0 * x) + Sp / S
    wp = 1.0 / (2.0 * x * x) + Spp / S - (Sp / S) ** 2
    return w, wp, S, err


def _asym_triple(nu, x):
    """Large-argument (K, K', K'', err); relative accuracy around 2e-10 at
    x = 10 and machine precision beyond x ~ 17."""
    if x < 2.0:
        raise ValueError(
            f"large-argument branch called below its validity floor: x={x!r}"
        )
    w, wp, S, err = asym_log_slope(nu, x)
    pref = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    K = pref * S
    K1 = K * w
    K2 = K * (w * w + wp)
    return K, K1, K2, err


def _cosh_quad(x, integrand):
    """int_0^T of the integrand, with x cosh T at the float64 underflow
    wall so the discarded tail is below e^{-745}; Gauss-Kronrod."""
    T = math.acosh(UNDERFLOW_WALL / x) if x < UNDERFLOW_WALL else 1e-8
    return quad(integrand, 0.0, T, epsabs=0.0, epsrel=1e-13, limit=200)


def k_imag_quadrature(nu, x):
    """K_{i nu}(x) from the integral int_0^T exp(-x cosh t) cos(nu t) dt.

    Raises :class:`QuadratureError` when the reported error estimate is
    worse than 1e-9 relative.
    """
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got x={x!r}")
    val, abserr = _cosh_quad(
        x, lambda t: math.exp(-x * math.cosh(t)) * math.cos(nu * t))
    scale = max(abs(val), 5e-324)
    if abserr / scale > 1e-9:
        raise QuadratureError(nu, x, abserr / scale)
    return val


def _quadrature_derivative(nu, x):
    # companion to k_imag_quadrature for the CLI's quad method
    return _cosh_quad(
        x, lambda t: -math.exp(-x * math.cosh(t)) * math.cosh(t)
        * math.cos(nu * t))[0]


def k_imag(nu, x, method=None):
    """Evaluate K_{i nu}(x), dispatching on argument size.

    Parameters
    ----------
    nu, x : float
        Order magnitude and positive argument.
    method : str or None
        Force a branch: "series", "asymptotic" or "quadrature".  By default
        the ascending series runs below :data:`X_SPLIT` and the
        large-argument expansion from it on; the split was calibrated
        against the quadrature oracle.

    Returns
    -------
    ImagOrderEval
    """
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got x={x!r}")
    if method is None:
        method = "series" if x < X_SPLIT else "asymptotic"
    if method == "series":
        K, K1, _, n_terms, cond = _series_triple(nu, x)
        err = max(cond * 1.3e-31, 2.3e-16)
        return ImagOrderEval(x=x, nu=nu, value=K, derivative=K1,
                             method="series", err_estimate=err)
    if method == "asymptotic":
        K, K1, _, err = _asym_triple(nu, x)
        return ImagOrderEval(x=x, nu=nu, value=K, derivative=K1,
                             method="asymptotic",
                             err_estimate=max(err, 2.3e-16))
    if method == "quadrature":
        K = k_imag_quadrature(nu, x)
        K1 = _quadrature_derivative(nu, x)
        return ImagOrderEval(x=x, nu=nu, value=K, derivative=K1,
                             method="quadrature", err_estimate=1e-12)
    raise ValueError(f"unknown method {method!r}")


def k_imag_triple(nu, x):
    """(K, K', K'') with the second derivative from the same branch's sums.

    The second derivative here is summed term by term, independently of the
    defining differential equation, so residual tests of that equation are
    meaningful.  Contrast :meth:`ImagOrderEval.second_derivative_ode`.
    """
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got x={x!r}")
    if x < X_SPLIT:
        K, K1, K2, _, _ = _series_triple(nu, x)
    else:
        K, K1, K2, _ = _asym_triple(nu, x)
    return K, K1, K2


def log_slope(nu, x):
    """(K'/K, (K'/K)') of K_{i nu} at x.

    Below the split the ratios come from the triple, with the second
    derivative summed independently of the differential equation; from
    the split on they come scale-free from the asymptotic sums, so they
    stay finite where K itself underflows float64.
    """
    if x < X_SPLIT:
        K, K1, K2 = k_imag_triple(nu, x)
        if K == 0.0:
            raise ZeroDivisionError(
                f"K vanishes at x={x!r} (oscillatory regime)")
        w = K1 / K
        return w, K2 / K - w * w
    return asym_log_slope(nu, x)[:2]


def sign_margins(nu, x):
    """Scale-free margins of the sign pattern (K > 0, K' < 0, K'' > 0).

    Returns a triple of floats, each positive exactly when the corresponding
    inequality holds.  Below the branch split the evaluated triple is
    normalized by its own magnitude; above it the manifestly positive
    envelope sqrt(pi/(2x)) e^{-x} is divided out analytically, so the check
    stays meaningful at arguments where K itself underflows float64
    (e^{-x} vanishes beyond x ~ 745).
    """
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got x={x!r}")
    if x < X_SPLIT:
        K, K1, K2, _, _ = _series_triple(nu, x)
        s = abs(K) + abs(K1) + abs(K2)
        return K / s, -K1 / s, K2 / s
    w, wp, S, _ = asym_log_slope(nu, x)
    return S, -w, w * w + wp


def gamma_arg(k, nu):
    """theta_{k, nu} = arg Gamma(1 + k + i nu).

    theta_0 comes from the complex log-Gamma; theta_k accumulates the exact
    recurrence theta_k = theta_{k-1} + atan(nu/k) with compensated
    summation.  Satisfies theta_{0,nu} = -gamma nu + O(nu^3).
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"index must be a nonnegative integer, got {k!r}")
    if nu < 0.0:
        raise ValueError(f"order magnitude must be nonnegative, got nu={nu!r}")
    theta0 = float(loggamma(1.0 + 1j * nu).imag)
    if k == 0:
        return GammaArg(k=0, nu=nu, theta=theta0)
    theta = theta0 + math.fsum(math.atan(nu / l) for l in range(1, int(k) + 1))
    return GammaArg(k=int(k), nu=nu, theta=theta)


def theta0_series(nu):
    """Small-order form of theta_{0,nu} used by the matching formulas.

    Equals -gamma*nu plus an O(nu^3) odd-zeta tail; exposed separately so
    callers can quantify the O(nu^2) bound of |theta_0 + gamma nu|.
    """
    return to_float(_theta0_dd(nu))


@dataclass(frozen=True)
class IntegerOrderEval:
    """Integer-order I_n or K_n with derivative, in plain and log scale.

    ``scaled_value``/``scaled_derivative`` carry e^{-x} I_n resp. e^{x} K_n
    (and their derivatives), which stay finite at arguments where the plain
    values overflow or underflow; identities whose scale factors cancel, the
    Wronskian above all, should be checked through them.
    """

    kind: str
    n: int
    x: float
    log_abs_value: float
    value_sign: float
    log_abs_derivative: float
    derivative_sign: float
    scaled_value: float
    scaled_derivative: float

    @property
    def value(self):
        if self.log_abs_value > 709.0:
            return math.inf * self.value_sign
        return self.value_sign * math.exp(self.log_abs_value)

    @property
    def derivative(self):
        if self.log_abs_derivative > 709.0:
            return math.inf * self.derivative_sign
        return self.derivative_sign * math.exp(self.log_abs_derivative)

    @property
    def overflowed(self):
        return self.log_abs_value > 709.0 or self.log_abs_derivative > 709.0


def bessel_integer(kind, n, x):
    """Integer-order modified Bessel value and derivative.

    Parameters
    ----------
    kind : {"I", "K"}
    n : int
        Nonnegative order.
    x : float
        Positive argument.

    Returns
    -------
    IntegerOrderEval
        Carries log-magnitude plus sign so extreme arguments (where I_n
        overflows float64) remain usable; the Wronskian
        I' K - I K' = 1/x stays verifiable in log scale.
    """
    if kind not in ("I", "K"):
        raise ValueError(f"kind must be 'I' or 'K', got {kind!r}")
    if n < 0 or int(n) != n:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got x={x!r}")
    n = int(n)
    if kind == "I":
        # ive(n, x) = I_n(x) exp(-x); I_n' = (I_{n-1} + I_{n+1})/2
        s = float(ive(n, x))
        sm = float(ive(n - 1, x)) if n > 0 else float(ive(1, x))
        sp = float(ive(n + 1, x))
        der = 0.5 * (sm + sp)
        return IntegerOrderEval(kind="I", n=n, x=x,
                                log_abs_value=math.log(s) + x, value_sign=1.0,
                                log_abs_derivative=math.log(der) + x,
                                derivative_sign=1.0,
                                scaled_value=s, scaled_derivative=der)
    # kve(n, x) = K_n(x) exp(x); K_n' = -(K_{n-1} + K_{n+1})/2
    s = float(kve(n, x))
    sm = float(kve(abs(n - 1), x))
    sp = float(kve(n + 1, x))
    der = 0.5 * (sm + sp)
    return IntegerOrderEval(kind="K", n=n, x=x,
                            log_abs_value=math.log(s) - x, value_sign=1.0,
                            log_abs_derivative=math.log(der) - x,
                            derivative_sign=-1.0,
                            scaled_value=s, scaled_derivative=-der)
