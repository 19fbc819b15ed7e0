import math

import mpmath as mp
import numpy as np
import pytest

from cglspiral import core, field, outer, solver, wavenumber


@pytest.fixture(scope="module")
def base():
    return solver.solve_spiral(1, 0.5)


@pytest.fixture(scope="module")
def sweep():
    return solver.wavenumber_sweep(1, [1.0, 0.8, 0.6, 0.5, 0.4])


def test_newton_converges_quickly(base):
    _, rep = base
    assert rep.status == 0
    assert rep.newton_iterations <= 50


def test_selected_wavenumber_regression(base):
    # value established by this solver with matching radius k q r_max = 1.6,
    # stable to ~7e-5 relative under halving/doubling of that radius
    _, rep = base
    assert rep.k_numeric == pytest.approx(0.0936689780, abs=1e-6)


def test_first_integral_identity(base):
    prof, _ = base
    assert prof.first_integral_gap() <= 1e-9


def test_profile_structure(base):
    prof, rep = base
    cap = math.sqrt(1.0 - prof.k ** 2)
    assert np.all(np.diff(prof.f) > -1e-12)
    assert np.all((prof.f > 0) & (prof.f < cap))
    assert np.all(prof.v < 0)
    assert rep.properties["suspect"] is False


def test_boundary_mismatch_small(base):
    _, rep = base
    m_f, m_v = rep.boundary_residuals
    assert abs(m_f) <= 1e-6
    assert abs(m_v) <= 1e-6
    assert rep.residual <= 1e-10


def test_outer_mismatch_op_consistency(base):
    # the report's residuals are the endpoint's distance from the far field
    # at the matching radius
    prof, rep = base
    p = solver.SpiralParams(1, 0.5, rep.k_numeric)
    _, _, F0, v = outer.far_field(p.n, p.q, p.k, p.eps * prof.r_max)
    assert rep.boundary_residuals == (float(prof.f[-1] - F0),
                                      float(prof.v[-1] - v))


def test_prefactor_and_ratio_consistent(base):
    _, rep = base
    params = solver.SpiralParams(rep.n, rep.q, rep.k_numeric)
    assert rep.mu == params.mu
    mu_ratio = rep.mu / wavenumber.mu_bar(1)
    assert mu_ratio == pytest.approx(rep.ratio, rel=1e-10)


def test_matching_radius_in_window(base):
    _, rep = base
    R = rep.k_numeric * abs(rep.q) * rep.r_max
    assert 0.5 <= R <= 2.0


def test_zero_twist_is_untwisted_core():
    prof, rep = solver.solve_spiral(1, 0.0)
    assert rep.k_numeric == 0.0
    assert math.isnan(rep.ratio)
    assert np.all(prof.v == 0.0)
    assert prof.first_integral_gap() == 0.0
    prof0 = core.solve_profile(1)
    r = np.geomspace(0.01, 100.0, 40)
    assert np.max(np.abs(prof.f_at(r) - prof0.f(r))) < 1e-12


def test_mirror_twist_symmetry(base):
    prof_p, rep_p = base
    prof_m, rep_m = solver.solve_spiral(1, -0.5)
    assert abs(rep_m.k_numeric - rep_p.k_numeric) <= 1e-12
    assert abs(prof_m.c_f - prof_p.c_f) <= 1e-12
    r = np.geomspace(0.01, prof_p.r_max, 200)
    assert np.max(np.abs(prof_m.v_at(r) + prof_p.v_at(r))) <= 1e-10
    assert np.max(np.abs(prof_m.f_at(r) - prof_p.f_at(r))) <= 1e-10


def test_profile_freezes_past_r_max(base):
    # past the solved range f and v hold their endpoint values, as the
    # sampled field does; the interpolant's last cubic is not extrapolated
    prof, _ = base
    assert prof.f_at(3000.0) == prof.f[-1]
    assert prof.v_at(3000.0) == prof.v[-1]
    r = np.array([prof.r_max, 2.0 * prof.r_max])
    assert np.array_equal(prof.f_at(r), [prof.f[-1], prof.f[-1]])


@pytest.mark.parametrize("r_max", [1.0, 1.5])
def test_matching_radius_below_oscillation_floor_fails(r_max):
    # k|q| r_max lands below the far field's oscillation floor: the solve
    # fails with the far field's reason instead of reporting a wrong k, and
    # offers no override that solve_spiral does not have
    with pytest.raises(RuntimeError, match="oscillation floor") as exc:
        solver.solve_spiral(1, 0.5, r_max=r_max)
    assert "allow_oscillatory" not in str(exc.value)


def test_explicit_r_max_past_matching_window_reports_residuals():
    # k|q| r_max ~ 1.4e3 lies far past R_MATCH_WINDOW; the endpoint is
    # still checked against the far field, not reported as NaN
    _, rep = solver.solve_spiral(1, 0.5, r_max=30000.0)
    assert rep.status == 0
    for m in rep.boundary_residuals:
        assert math.isfinite(m) and abs(m) <= 1e-6


def test_sweep_wavenumber_decreasing(sweep):
    ks = [r.k_numeric for r in sweep]
    assert all(r.status == 0 for r in sweep)
    assert all(k > 0 for k in ks)
    assert all(b < a for a, b in zip(ks, ks[1:]))


def test_sweep_ratio_approaches_one(sweep):
    devs = [abs(r.ratio - 1.0) for r in sweep]
    assert all(b <= a for a, b in zip(devs, devs[1:]))


def test_sweep_log_weighted_deviation_bounded(sweep):
    prods = [r.abs_ratio_minus_1_times_logq for r in sweep]
    assert max(prods) < 0.1


def test_sweep_iterations_bounded(sweep):
    assert all(r.newton_iterations <= 50 for r in sweep)


def test_sweep_requires_descending():
    with pytest.raises(ValueError, match="descending"):
        solver.wavenumber_sweep(1, [0.4, 0.5])


def test_sweep_isolates_failures():
    reports = solver.wavenumber_sweep(1, [0.5, 1e-8])
    assert reports[0].status == 0
    assert reports[1].status == 2
    assert math.isnan(reports[1].k_numeric)
    assert reports[1].message


def test_sweep_through_zero_twist_restarts_cold():
    # q = 0 has no asymptotic law to warm-start from, and its k = 0 seeds
    # nothing, so -0.5 solves cold and lands on the mirror of +0.5
    reports = solver.wavenumber_sweep(1, [0.5, 0.0, -0.5])
    assert [r.status for r in reports] == [0, 0, 0]
    assert reports[1].k_numeric == 0.0
    assert reports[2].k_numeric == reports[0].k_numeric
    assert reports[2].r_max == reports[0].r_max


def test_refuses_twist_beyond_domain_budget():
    # the budget admits cold solves down to q ~ 0.142, 0.078 and 0.054 for
    # n = 1, 2, 3; the refusal comes before any solve
    assert solver.MAX_DOMAIN == 1e5
    for n, q in ((1, 0.12), (2, 0.07), (3, 0.05)):
        with pytest.raises(ValueError,
                           match=r"needs a matching radius ~[0-9.e+]+ .*"
                                 r"beyond the domain budget "
                                 r"MAX_DOMAIN = 1e\+05"):
            solver.solve_spiral(n, q)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_refuses_nonfinite_twist(q):
    with pytest.raises(ValueError, match="twist must be a finite number"):
        solver.solve_spiral(1, q)


def test_init_validation():
    with pytest.raises(ValueError):
        solver.solve_spiral(1, 0.5, init=(0.5, 1.5))
    with pytest.raises(ValueError):
        solver.solve_spiral(1, 0.5, init=(-0.1, 0.1))
    for c_f in (math.nan, math.inf):
        with pytest.raises(ValueError, match="out of range"):
            solver.solve_spiral(1, 0.5, init=(c_f, 0.1))


@pytest.mark.parametrize("q", [0.5, 0.0])
@pytest.mark.parametrize("r_max", [0.0, -3.0, 5e-4, core.R_START, math.inf,
                                   math.nan])
def test_refuses_radius_inside_series_cut(q, r_max):
    with pytest.raises(ValueError, match=r"core\.R_START = 0\.001"):
        solver.solve_spiral(1, q, r_max=r_max)


def test_system_residual_on_converged_profile(base):
    prof, _ = base
    params = solver.SpiralParams(prof.n, prof.q, prof.k)
    # off-node points exercise the interpolant between collocation points
    x = np.geomspace(prof.r_start * 2, prof.r_max * 0.98, 4001)
    y = prof.interpolant(x)
    dy = prof.interpolant(x, 1)
    f, g, w = y
    df, dg, dw = dy
    v = w / (x * f * f)
    dv = dw / (x * f * f) - w * (f * f + 2 * x * f * g) / (x * f * f) ** 2
    res_f, res_v = solver.system_residual(x, f, g, dg, v, dv, params)
    assert np.max(np.abs(res_f)) < 1e-7
    assert np.max(np.abs(res_v)) < 1e-7
    # at the solver's own nodes the collocation conditions are exact
    xn = prof.r_grid[1:-1]
    yn = prof.interpolant(xn)
    dyn = prof.interpolant(xn, 1)
    vn = yn[2] / (xn * yn[0] ** 2)
    dvn = dyn[2] / (xn * yn[0] ** 2) \
        - yn[2] * (yn[0] ** 2 + 2 * xn * yn[0] * yn[1]) / (xn * yn[0] ** 2) ** 2
    rf, rv = solver.system_residual(xn, yn[0], yn[1], dyn[1], vn, dvn, params)
    assert np.max(np.abs(rf)) < 1e-11
    assert np.max(np.abs(rv)) < 1e-11


def test_lambda_omega_specialization_identity():
    rng = np.random.default_rng(42)
    N = 1000
    r = rng.uniform(0.1, 50.0, N)
    f = rng.uniform(0.05, 1.1, N)
    df = rng.uniform(-1.0, 1.0, N)
    ddf = rng.uniform(-1.0, 1.0, N)
    v = rng.uniform(-0.5, 0.5, N)
    dv = rng.uniform(-1.0, 1.0, N)
    q = rng.uniform(-1.0, 1.0, N)
    k = rng.uniform(0.0, 0.9, N)
    Om = rng.uniform(-2.0, 2.0, N)
    worst = 0.0
    for i in range(N):
        params = solver.SpiralParams(1, q[i], k[i])
        a1, b1 = solver.system_residual(r[i], f[i], df[i], ddf[i], v[i],
                                        dv[i], params)
        lam, om = solver.cgl_lambda_omega(q[i], k[i], Om[i])
        a2, b2 = solver.lambda_omega_residual(r[i], f[i], df[i], ddf[i],
                                              v[i], dv[i], lam, om, Om[i],
                                              n=1)
        worst = max(worst, abs(a1 - a2), abs(b1 - b2))
    assert worst <= 1e-12


def test_lambda_omega_admissibility():
    lam, om = solver.cgl_lambda_omega(0.5, 0.1, -0.3)
    assert lam(1.0) == 0.0
    z = np.linspace(0.05, 1.0, 50)
    dlam = (lam(z + 1e-7) - lam(z - 1e-7)) / 2e-7
    dom = (om(z + 1e-7) - om(z - 1e-7)) / 2e-7
    assert np.all(dlam < 0)
    assert np.all(dom < 0)


def test_residual_against_complex_field_route():
    # the reduced equations are the real/imaginary parts of
    # B'' + B'/r - n^2 B/r^2 + B(1-|B|^2) + i q B (1 - |B|^2 - k^2) = 0
    # for B = f e^{i chi}; recombining through complex arithmetic is an
    # independent evaluation order
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        r, f, chi = rng.uniform(0.2, 30), rng.uniform(0.05, 1.1), rng.uniform(0, 6)
        df, ddf = rng.uniform(-1, 1), rng.uniform(-1, 1)
        v, dv = rng.uniform(-0.6, 0.6), rng.uniform(-1, 1)
        q, k = rng.uniform(-1, 1), rng.uniform(0, 0.9)
        params = solver.SpiralParams(n, q, k)
        res_f, res_v = solver.system_residual(r, f, df, ddf, v, dv, params)
        e = np.exp(1j * chi)
        B = f * e
        dB = (df + 1j * f * v) * e
        ddB = (ddf + 2j * df * v + 1j * f * dv - f * v * v) * e
        z = ddB + dB / r - n * n * B / (r * r) + B * (1 - f * f) \
            + 1j * q * B * (1 - f * f - k * k)
        z *= np.conj(e)
        worst = max(worst, abs(z.real - res_f), abs(z.imag - res_v))
    assert worst <= 1e-12


def test_integrate_from_origin_matches_collocation(base):
    prof, rep = base
    params = solver.SpiralParams(1, 0.5, rep.k_numeric)
    ivp = solver.integrate_from_origin(params, prof.c_f, 12.0)
    assert not ivp.escaped
    gap = np.max(np.abs(ivp.f - prof.f_at(ivp.r_grid)))
    # the growing mode amplifies rounding by ~e^{sqrt(2) r}; machine
    # agreement is impossible at r=12, which is why collocation is the engine
    assert gap < 1e-5
    assert np.max(np.abs(ivp.v - prof.v_at(ivp.r_grid))) < 1e-5
    assert ivp.first_integral_gap() < 1e-9


def test_integrate_from_origin_reads_like_collocation(base):
    # the march fills the same (f, f', w) record as the collocation solve,
    # so its readers v_at and theta_of_r give the same phase
    prof, rep = base
    params = solver.SpiralParams(1, 0.5, rep.k_numeric)
    ivp = solver.integrate_from_origin(params, prof.c_f, 5.0)
    r = np.linspace(0.5, 5.0, 91)
    assert np.max(np.abs(ivp.v_at(r) - prof.v_at(r))) < 1e-5
    theta_ivp = field.theta_of_r(ivp)(r)
    theta_col = field.theta_of_r(prof)(r)
    assert np.max(np.abs(theta_ivp - theta_col)) < 1e-5
    assert 0.0 < ivp.first_integral_gap() < 1e-9


def test_integrate_from_origin_escape_diagnosis(base):
    prof, rep = base
    params = solver.SpiralParams(1, 0.5, rep.k_numeric)
    high = solver.integrate_from_origin(params, prof.c_f * 1.1, 30.0)
    assert high.escaped
    assert high.escape_radius < 30.0
    with pytest.raises(ValueError):
        solver.integrate_from_origin(params, -0.5, 10.0)


def test_spiral_params_validation():
    with pytest.raises(ValueError):
        solver.SpiralParams(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        solver.SpiralParams(1, 0.5, 1.2)
    p = solver.SpiralParams(2, -0.5, 0.1)
    assert p.eps == pytest.approx(0.05)
    assert p.nu == pytest.approx(1.0)
    with pytest.raises(ValueError, match="twist"):
        solver.SpiralParams(1, 0.0, 0.1)
    assert solver.SpiralParams is outer.SpiralParams
    q = solver.SpiralParams(1, 0.5, 0.0936689780)
    assert q.mu == pytest.approx(0.0936689780 * 0.5 * math.exp(math.pi), rel=1e-12)


@pytest.mark.parametrize("n,q", [(2, 1.0), (1, 2.0)])
def test_endpoint_slope_at_large_order(n, q):
    # nu = n|q| = 2: the endpoint phase gradient v = sgn(q) k V0(k|q| r_max)
    # carries the decaying slope of K_{2i}, checked against mpmath
    prof, rep = solver.solve_spiral(n, q)
    assert rep.status == 0
    R = rep.k_numeric * abs(q) * rep.r_max
    with mp.workdps(40):
        V_ref = float(-mp.re(mp.besselk(1 + 1j * n * q, R))
                      / mp.re(mp.besselk(1j * n * q, R)))
    V_end = prof.v[-1] / (math.copysign(1.0, q) * rep.k_numeric)
    assert V_end == pytest.approx(V_ref, rel=1e-9)


@pytest.fixture(scope="module", params=[(1, 0.5), (1, -0.5), (2, 0.5),
                                        (2, -0.5)], ids=str)
def converged(request):
    n, q = request.param
    prof, rep = solver.solve_spiral(n, q)
    y = np.vstack([prof.f, prof.df, prof.w])
    return n, q, prof, y, np.array([prof.c_f, math.log(rep.k_numeric)])


def test_rhs_jacobian_matches_complex_step(converged):
    # complex steps take no differences, so they hold where w ~ 0 and at
    # n = 2, where f ~ 1e-7 at the series cut
    n, q, prof, y, (c, logk) = converged
    r, h = prof.r_grid, 1e-30
    df_dy, df_dp = solver._rhs_jac(n, q, math.exp(logk), r, y)
    for j in range(3):
        yc = y.astype(complex)
        yc[j] += 1j * h
        step = solver._rhs(n, q, math.exp(logk), r, yc).imag / h
        np.testing.assert_allclose(df_dy[:, j], step, rtol=1.5e-12, atol=0)
    step = solver._rhs(n, q, np.exp(logk + 1j * h), r, y.astype(complex))
    np.testing.assert_allclose(df_dp[:, 1], step.imag / h, rtol=1.5e-12,
                               atol=0)
    assert not np.any(df_dp[:, 0])


def test_boundary_jacobian_matches_central_differences(converged):
    n, q, prof, y, p = converged
    bc, bc_jac = solver._boundary(n, q, prof.r_max)
    ya, yb, h = y[:, 0], y[:, -1], 1e-4

    def central(fn, x):
        cols = []
        for e in np.eye(x.size) * h:
            cols.append((8.0 * (fn(x + e) - fn(x - e))
                         - (fn(x + 2 * e) - fn(x - 2 * e))) / (12.0 * h))
        return np.array(cols).T

    exact = bc_jac(ya, yb, p)
    numeric = (central(lambda x: bc(x, yb, p), ya),
               central(lambda x: bc(ya, x, p), yb),
               central(lambda x: bc(ya, yb, x), p))
    for jac, ref in zip(exact, numeric):
        np.testing.assert_allclose(jac, ref, rtol=1e-10, atol=0)


def test_mirror_twists_share_the_mesh():
    # exact Jacobians make the Newton path at -q the mirror of the one at
    # +q bit for bit; 0.3 and 0.28 took 124,687 and 53,552 nodes at +q
    # under forward-difference Jacobians
    for q in (0.5, 0.3, 0.28):
        plus, rep_p = solver.solve_spiral(2, q)
        minus, rep_m = solver.solve_spiral(2, -q)
        assert np.array_equal(plus.r_grid, minus.r_grid), q
        assert np.array_equal(plus.v, -minus.v), q
        assert rep_p.k_numeric == rep_m.k_numeric, q
        assert plus.r_grid.size < 5000, q


def test_three_arm_solve_at_small_twist():
    plus, rep_p = solver.solve_spiral(3, 0.3)
    minus, rep_m = solver.solve_spiral(3, -0.3)
    for prof, rep in ((plus, rep_p), (minus, rep_m)):
        assert rep.status == 0 and not rep.properties["suspect"]
        assert prof.first_integral_gap() <= 1e-9
        assert max(map(abs, rep.boundary_residuals)) <= 1e-6
    assert rep_p.k_numeric == rep_m.k_numeric
    assert np.array_equal(plus.r_grid, minus.r_grid)
    assert np.array_equal(plus.v, -minus.v)


# Standing faults, pinned until the fix of ROADMAP item 3 flips them.

@pytest.mark.xfail(strict=True, reason=(
    "FOUND: n = 3 fails at q = 0.5: solve_spiral(3, 0.5) stops with 'The "
    "maximum number of mesh nodes is exceeded', though |q| = 0.3 and 0.25 "
    "converge on 3.1k nodes"))
def test_three_arm_solve_converges():
    _, report = solver.solve_spiral(3, 0.5)
    assert report.status == 0


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the n = 1 solve misses its own first-integral tolerance at small "
    "twist: the gap is 1.78e-9 for a cold solve_spiral(1, 0.15) and its "
    "mirror"))
def test_first_integral_holds_at_small_twist():
    for q in (0.15, -0.15):
        profile, _ = solver.solve_spiral(1, q)
        assert profile.first_integral_gap() <= 1e-9, q
