import math
import re

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
    # value established by this solver matching at r_max = 1.6 / (k0 q) from
    # the cold seed k0 (R = k q r_max = 1.74), 6.5e-5 relative from the k
    # continued to long matching radii
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


@pytest.mark.parametrize("n,q", [(1, 0.2), (1, 0.5), (1, -1.0), (1, 1.5),
                                 (2, 0.3), (2, -0.5), (3, 0.5), (3, 0.7)])
def test_cold_solve_matches_at_or_past_target(n, q):
    # r_max = R_MATCH_TARGET / (k0 |q|) with the cold seed k0 = min(kappa,
    # 0.3), which never exceeds the selected k, so R = k|q| r_max >= 1.6;
    # the solve is not re-run to pull a larger R back to 1.6
    _, rep = solver.solve_spiral(n, q)
    assert rep.status == 0 and rep.properties["matching_radius"]
    assert rep.k_numeric * abs(q) * rep.r_max >= solver.R_MATCH_TARGET


@pytest.mark.parametrize("n,q", [(2, 0.5), (1, 1.0)])
def test_one_collocation_solve_per_twist(monkeypatch, n, q):
    # both converge at R > 2, where a retry once threw the solve away and
    # solved again at R = 1.6, further from the converged k
    core.solve_profile(n)
    real, calls = solver.solve_bvp, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_bvp", spy)
    _, rep = solver.solve_spiral(n, q)
    assert rep.status == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n,q", [(3, 0.5), (2, 0.5), (1, 1.0)])
def test_cold_k_agrees_with_long_matching_radius(n, q):
    # the error of matching at r_max falls like e^{-cR}: continued warm to
    # R = 6.4 and then 12.8, k is converged far below this bound; a re-solve
    # at R = 1.6 was off by 2.6e-3, 1.1e-3 and 6.9e-3
    _, cold = solver.solve_spiral(n, q)
    ref = cold
    for R in (6.4, 12.8):
        _, ref = solver.solve_spiral(n, q, k_init=ref.k_numeric,
                                     r_max=R / (ref.k_numeric * abs(q)))
        assert ref.status == 0 and not ref.properties["suspect"]
    assert cold.k_numeric == pytest.approx(ref.k_numeric, rel=5e-4)


def test_oversized_seed_marks_solve_suspect():
    # a seed k five times the selected one puts r_max = 1.6 / (k0 |q|) at
    # 6.4: the solve converges at R = k|q| r_max = 0.30, below
    # R_MATCH_TARGET / 2, and is reported, not re-solved
    _, rep = solver.solve_spiral(1, 0.5, k_init=0.5)
    assert rep.status == 0
    assert rep.k_numeric * 0.5 * rep.r_max < solver.R_MATCH_TARGET / 2
    assert rep.properties["matching_radius"] is False
    assert rep.properties["suspect"] is True
    assert rep.message.endswith("checks failed: matching_radius")


def test_zero_twist_is_untwisted_core():
    prof, rep = solver.solve_spiral(1, 0.0)
    assert rep.k_numeric == 0.0
    assert math.isnan(rep.ratio)
    assert np.all(prof.v == 0.0)
    assert prof.first_integral_gap() == 0.0
    assert rep.properties["matching_radius"] is True
    prof0 = core.solve_profile(1)
    r = np.geomspace(0.01, 100.0, 40)
    assert np.max(np.abs(prof.f_at(r) - prof0.f(r))) < 1e-12


def test_zero_twist_honours_r_max():
    # the untwisted solve once ran on the core's default r_max = 400
    prof, rep = solver.solve_spiral(1, 0.0, r_max=5000.0)
    assert rep.r_max == prof.r_max == 5000.0
    assert rep.status == 0 and not rep.properties["suspect"]
    assert rep.c_f == core.solve_profile(1, r_max=5000.0, tol=1e-10).c_f


def test_zero_twist_honours_tol():
    # the untwisted solve once ran at the core's default tol = 1e-11
    _, rep = solver.solve_spiral(1, 0.0, tol=1e-12)
    assert rep.c_f == core.solve_profile(1, tol=1e-12).c_f
    assert rep.c_f != core.solve_profile(1).c_f


def test_zero_twist_refuses_init():
    # at q = 0 there is no k to seed, and a seed was dropped silently
    with pytest.raises(ValueError, match="untwisted solve takes no initial k"):
        solver.solve_spiral(1, 0.0, k_init=0.5)


@pytest.mark.parametrize("q", [1e-3, -1e-3])
def test_small_twist_names_log_k(q):
    # kappa underflows float64: the refusal names log k before any solve
    with pytest.raises(ValueError, match=r"log k = -1563\.9, far beyond"):
        solver.solve_spiral(1, q)


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
    # k|q| r_max ~ 1.4e3 lies far past the automatic R ~ 1.6; the endpoint
    # is still checked against the far field, not reported as NaN
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
    failed = reports[1]
    assert failed.status == 2
    assert failed.message
    # every outcome field of the failed row keeps its default
    for name in ("k_numeric", "k_asymptotic", "ratio", "residual", "r_max",
                 "mu", "c_f"):
        assert math.isnan(getattr(failed, name)), name
    assert all(math.isnan(x) for x in failed.boundary_residuals)
    assert failed.newton_iterations == 0


def test_sweep_through_zero_twist_restarts_cold():
    # q = 0 has no asymptotic law to warm-start from, and its k = 0 seeds
    # nothing, so -0.5 solves cold and lands on the mirror of +0.5
    reports = solver.wavenumber_sweep(1, [0.5, 0.0, -0.5])
    assert [r.status for r in reports] == [0, 0, 0]
    assert reports[1].k_numeric == 0.0
    assert reports[2].k_numeric == reports[0].k_numeric
    assert reports[2].r_max == reports[0].r_max


def test_sweep_across_sign_restarts_cold():
    # the warm start from +0.5 once put -0.5 on matching radius 34.16
    # instead of 37.14 and moved its k by 3.5e-5 off the mirror
    reports = solver.wavenumber_sweep(1, [0.5, -0.5])
    assert [r.status for r in reports] == [0, 0]
    assert reports[1].k_numeric == reports[0].k_numeric
    assert reports[1].r_max == reports[0].r_max


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
    for k_init in (1.5, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match=r"initial k=.* is outside \(0, 1\)"):
            solver.solve_spiral(1, 0.5, k_init=k_init)


def test_newton_iterate_outside_unit_k_fails_cleanly():
    # from its own converged k at r_max = 200 (R = 25.7), an n = 2 iterate
    # once ran log k to overflow inside np.exp; it is refused naming log k
    _, rep = solver.solve_spiral(2, 0.5)
    with pytest.raises(RuntimeError, match=r"left k in \(0, 1\): log k = "):
        solver.solve_spiral(2, 0.5, k_init=rep.k_numeric, r_max=200.0)


@pytest.mark.parametrize("q", [0.5, 0.0])
@pytest.mark.parametrize("r_max", [0.0, -3.0, 5e-4, 1e-3, core.R_START,
                                   math.inf, math.nan])
def test_refuses_radius_inside_series_cut(q, r_max):
    with pytest.raises(ValueError,
                       match=re.escape(f"core.R_START = {core.R_START:g}")):
        solver.solve_spiral(1, q, r_max=r_max)


def _slope_and_curvature(n, x, y, dy):
    # f' = z + a f from the rows (f, z, w), and f'' = z' + a' f + a f',
    # with a read off core.slope_from_z and a' by a complex step
    h = 1e-30
    a = core.slope_from_z(n, x, 1.0, 0.0)
    da = core.slope_from_z(n, x + 1j * h, 1.0, 0.0).imag / h
    return y[1] + a * y[0], dy[1] + da * y[0] + a * dy[0]


def test_system_residual_on_converged_profile(base):
    prof, _ = base
    params = solver.SpiralParams(prof.n, prof.q, prof.k)
    # off-node points exercise the interpolant between collocation points
    x = np.geomspace(prof.r_start * 2, prof.r_max * 0.98, 4001)
    y = prof.interpolant(x)
    dy = prof.interpolant(x, 1)
    f, w, dw = y[0], y[2], dy[2]
    g, dg = _slope_and_curvature(prof.n, x, y, dy)
    v = w / (x * f * f)
    dv = dw / (x * f * f) - w * (f * f + 2 * x * f * g) / (x * f * f) ** 2
    res_f, res_v = solver.system_residual(x, f, g, dg, v, dv, params)
    assert np.max(np.abs(res_f)) < 1e-7
    assert np.max(np.abs(res_v)) < 1e-7
    # at the solver's own nodes the collocation conditions are exact
    xn = prof.r_grid[1:-1]
    yn = prof.interpolant(xn)
    dyn = prof.interpolant(xn, 1)
    gn, dgn = _slope_and_curvature(prof.n, xn, yn, dyn)
    vn = yn[2] / (xn * yn[0] ** 2)
    dvn = dyn[2] / (xn * yn[0] ** 2) \
        - yn[2] * (yn[0] ** 2 + 2 * xn * yn[0] * gn) / (xn * yn[0] ** 2) ** 2
    rf, rv = solver.system_residual(xn, yn[0], gn, dgn, vn, dvn, params)
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
    # the march fills the same (f, z, w) record as the collocation solve,
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
    # the collocated rows (f, z, w)
    z = core.z_from_slope(n, prof.r_grid, prof.f, prof.df)
    y = np.vstack([prof.f, z, prof.w])
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


def _assert_mirror_pair(n, q):
    # both signs converge, meet the first-integral and far-field guarantees
    # and are mirrors bit for bit
    plus, rep_p = solver.solve_spiral(n, q)
    minus, rep_m = solver.solve_spiral(n, -q)
    for prof, rep in ((plus, rep_p), (minus, rep_m)):
        assert rep.status == 0 and not rep.properties["suspect"]
        assert prof.first_integral_gap() <= 1e-9
        assert max(map(abs, rep.boundary_residuals)) <= 1e-6
    assert rep_p.k_numeric == rep_m.k_numeric
    assert np.array_equal(plus.r_grid, minus.r_grid)
    assert np.array_equal(plus.v, -minus.v)


def test_three_arm_solve_at_small_twist():
    _assert_mirror_pair(3, 0.3)


@pytest.mark.parametrize("q", [0.35, 0.4, 0.5, 0.6, 0.7, 1.0])
def test_three_arm_solve_converges(q):
    # each twist at both signs; with the series cut at 1e-3 every one of
    # these stopped on the node budget; q = 1.0 converges at R = 6.5, where
    # a re-solve at R = 1.6 put r_max inside the core and was refused;
    # q = 0.8 is still out of reach (ROADMAP item 1)
    _assert_mirror_pair(3, q)


def test_tight_tolerance_converges(base):
    # at tol = 1e-11 the solve once piled 163k nodes just outside the
    # series cut and stopped on the node budget
    _, rep = solver.solve_spiral(1, 0.5, tol=1e-11)
    _, ref = base
    assert rep.status == 0
    assert rep.k_numeric == pytest.approx(ref.k_numeric, rel=1e-10)


def test_one_jacobian_per_mesh_pass(monkeypatch):
    # an f' row, O(c_f) at the series cut, sat at its round-off above
    # solve_bvp's Newton stopping test and spent scipy's cap of four
    # Jacobians on a pass: 13 for 4 passes at this tolerance
    real, seen = solver.solve_bvp, []

    def spy(fun, bc, x, y, p, fun_jac, **kwargs):
        count = [0]

        def counted(r, yy, pp):
            # each Jacobian reads fun_jac on the nodes and on the midpoints;
            # only the nodes start at the series cut
            count[0] += r[0] == core.R_START
            return fun_jac(r, yy, pp)

        sol = real(fun, bc, x, y, p, fun_jac=counted, **kwargs)
        seen.append((count[0], sol.niter))
        return sol

    monkeypatch.setattr(solver, "solve_bvp", spy)
    _, rep = solver.solve_spiral(1, 0.5, tol=1e-11)
    assert rep.status == 0 and seen
    for jacobians, passes in seen:
        assert 0 < jacobians <= passes


@pytest.mark.parametrize("n", [1, 2])
def test_converges_at_tolerance_1e12(n):
    # n = 1 once stopped on the node budget after about 8 s; n = 3 still
    # does (README, "Solver limits")
    _, ref = solver.solve_spiral(n, 0.5)
    _, rep = solver.solve_spiral(n, 0.5, tol=1e-12)
    assert rep.status == 0 and not rep.properties["suspect"]
    assert rep.k_numeric == pytest.approx(ref.k_numeric, rel=1e-10)


def test_phase_gradient_continuous_at_series_cut(base):
    # below the cut v_at follows the origin law through order r^3, whose
    # truncation there is O(r^4) relative; the leading law alone jumps by
    # 1.4e-5 relative
    prof, _ = base
    rs = prof.r_start
    below = prof.v_at(rs * (1.0 - 1e-12))
    assert below == pytest.approx(prof.v_at(rs), rel=1e-8)


def test_first_integral_miss_marks_solve_suspect():
    # at this long explicit matching radius the solve converges with
    # status 0, but its first-integral gap, about 1.3e-9, is above 1e-9
    profile, rep = solver.solve_spiral(1, 0.5, r_max=30000.0)
    assert rep.status == 0
    assert profile.first_integral_gap() > solver.FIRST_INTEGRAL_BOUND
    assert rep.properties["first_integral"] is False
    assert rep.properties["suspect"] is True
    assert rep.message.endswith("checks failed: first_integral")


@pytest.mark.parametrize("tol", [0.0, -1e-10, 1e-15, math.nan, math.inf])
def test_refuses_tolerance_below_floor(tol):
    floor = re.escape(f"core.TOL_FLOOR = {core.TOL_FLOOR:.3g}")
    with pytest.raises(ValueError, match=floor):
        solver.solve_spiral(1, 0.5, tol=tol)
    with pytest.raises(ValueError, match=floor):
        solver.wavenumber_sweep(1, [0.5, 0.4], tol=tol)


# Standing fault, pinned until the fix of ROADMAP item 3 flips it.

@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the n = 1 solve misses its own first-integral tolerance at small "
    "twist: the gap is 1.78e-9 for a cold solve_spiral(1, 0.15) and its "
    "mirror"))
def test_first_integral_holds_at_small_twist():
    for q in (0.15, -0.15):
        profile, _ = solver.solve_spiral(1, q)
        assert profile.first_integral_gap() <= 1e-9, q
