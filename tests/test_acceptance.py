"""Acceptance suite: one test, and one pass/fail line, per criterion.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion lines.
Each test asserts the full criterion at its stated tolerance; expensive
solves are shared through module-scoped fixtures.
"""

import math
import warnings

import numpy as np
import pytest

from cglspiral import core, field, outer, physical, solver, specfun, \
    wavenumber

# criterion 7(c): the sweep's |ratio - 1| |log q| values must sit under a
# single constant; this one was frozen from the first converged run of
# the final solver (max observed 0.075)
RATIO_LOGQ_BOUND = 0.5

SWEEP_TWISTS = [1.0, 0.8, 0.6, 0.5, 0.4]


@pytest.fixture(scope="module")
def solve_q05():
    return solver.solve_spiral(1, 0.5)


@pytest.fixture(scope="module")
def sweep_reports():
    return solver.wavenumber_sweep(1, SWEEP_TWISTS)


@pytest.fixture(scope="module")
def field_solve():
    # wide domain so several spiral windings fit inside the sampled window
    return solver.solve_spiral(1, 0.5, r_max=1500.0)


def test_01_bessel_cross_validation():
    """The trapezoid sum against the quadrature oracle, small and large x."""
    for nu in (0.02, 0.05, 0.1, 0.3, 1.0, 2.0, 3.0):
        for x in np.concatenate([np.geomspace(0.01, 2.0, 25),
                                 np.geomspace(10.0, 100.0, 12)]):
            ref, _ = specfun.k_imag_quadrature(nu, float(x))
            got, _ = specfun.k_imag(nu, float(x))
            assert abs(got / ref - 1.0) <= 1e-9, \
                f"trapezoid vs quadrature at nu={nu}, x={x}"


def test_02_riccati_residual_and_shape():
    """Far-field slope satisfies its first-order equation with clean signs."""
    for nu in (0.05, 0.1, 0.3):
        lo = specfun.sign_validity_floor(nu)
        for R in np.geomspace(lo, 1e3, 60):
            R = float(R)
            V0, dV0 = outer.decay_slope(nu, R)
            rhs = 1.0 - nu * nu / (R * R) - V0 / R - V0 * V0
            scale = max(1.0, V0 * V0, nu * nu / (R * R), abs(V0) / R)
            assert abs(dV0 - rhs) / scale <= 1e-8, f"nu={nu}, R={R}"
        scan = outer.property_scan(nu)
        assert scan["sign_margin"] > 0.0
        assert scan["monotone_margin"] > 0.0
        assert scan["slope_margin"] > 0.0


def test_03_core_profile_three_arm_counts():
    """Untwisted profile: boundary residuals, far field, monotonicity."""
    window = np.linspace(20.0, 100.0, 400)
    for n in (1, 2, 3):
        prof = core.solve_profile(n)
        assert prof.bc_residual <= 1e-8, f"n={n} boundary residual"
        tail = window ** 4 * (prof.f(window) - 1.0
                              + n * n / (2.0 * window ** 2))
        sup = float(np.max(np.abs(tail)))
        assert math.isfinite(sup)
        half = core.solve_profile(n, n_mesh=450)
        tail_h = window ** 4 * (half.f(window) - 1.0
                                + n * n / (2.0 * window ** 2))
        sup_h = float(np.max(np.abs(tail_h)))
        assert abs(sup - sup_h) / sup <= 0.05, f"n={n} far-field stability"
        nodes = prof.sol.x
        f_nodes = prof.sol(nodes)[0]
        assert np.all(np.diff(f_nodes) > 0.0), f"n={n} monotone"


def test_04_tail_constant_convergence():
    """The log-subtracted core constant has settled by r = 100."""
    for n in (1, 2):
        prof = core.solve_profile(n)
        est = core.tail_constant(prof, r_eval=200.0)
        assert est.halving_gap <= 1e-6, f"n={n} radius convergence"
        alt = core.tail_constant(core.solve_profile(n, n_mesh=450),
                                 r_eval=200.0)
        assert abs(est.value - alt.value) <= 1e-6, f"n={n} grid agreement"


def test_05_algebraic_identities():
    """Generalized-form specialization, parameter-map identities, roundtrip."""
    rng = np.random.default_rng(42)
    lam, om = solver.cgl_lambda_omega(0.37, 0.11, 0.37 * (1 - 0.11 ** 2))
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.3, 30.0)
        f, df, ddf = rng.uniform(0.05, 1.2), rng.uniform(-1, 1), \
            rng.uniform(-1, 1)
        v, dv = rng.uniform(-1, 1), rng.uniform(-1, 1)
        res_f, res_v = solver.system_residual(
            r, f, df, ddf, v, dv, 1, 0.37, 0.11)
        glo_f, glo_chi = solver.lambda_omega_residual(
            r, f, df, ddf, v, dv, lam, om, 0.37 * (1 - 0.11 ** 2), n=1)
        worst = max(worst, abs(res_f - glo_f), abs(res_v - glo_chi))
    assert worst <= 1e-12, "generalized-form specialization"

    worst = 0.0
    count = 0
    while count < 1000:
        alpha = rng.uniform(-2.0, 2.0)
        q = rng.uniform(-0.95, 0.95)
        k = rng.uniform(0.0, 0.9)
        if 1 - alpha * q < 0.05 or 1 - alpha * q * (1 - k * k) < 0.05:
            continue
        count += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = physical.physical_from_reduced(alpha, q, k)
        lhs1 = 1.0 - t.k_star ** 2
        rhs1 = (1 - k * k) * (1 - t.Omega * alpha) / (1 + alpha * t.beta)
        lhs2 = (1 - t.Omega * alpha) * (1 - alpha * q * (1 - k * k))
        q2, k2, Om2 = physical.reduced_from_physical(alpha, t.beta, t.k_star)
        r1, r2 = physical.dispersion_check(alpha, t.beta, t.Omega, t.k_star)
        worst = max(worst, abs(lhs1 - rhs1), abs(lhs2 - (1 + alpha * alpha)),
                    abs(q2 - q), abs(k2 - k), abs(Om2 - t.Omega),
                    abs(r1), abs(r2))
    assert worst <= 1e-12, "parameter-map identities and roundtrip"


def test_06_full_solve_property_suite(solve_q05):
    """Twisted solve at (n=1, q=0.5) with every structural property."""
    profile, report = solve_q05
    assert report.newton_iterations <= 50
    assert profile.first_integral_gap() <= 1e-9
    assert np.all(np.diff(profile.f) > 0.0), "f increasing"
    bound = math.sqrt(1.0 - report.k_numeric ** 2)
    assert np.all(profile.f > 0.0)
    assert np.all(profile.f < bound + 1e-12)
    assert np.all(profile.v < 0.0), "v negative"
    assert abs(report.boundary_residuals[0]) <= 1e-6
    assert abs(report.boundary_residuals[1]) <= 1e-6


def test_07_wavenumber_trend(sweep_reports):
    """Sweep trend: positivity, monotone ratio approach, bounded product."""
    k = np.array([rep.k_numeric for rep in sweep_reports])
    assert np.all(k > 0.0)
    assert np.all(np.diff(k) < 0.0), "k strictly decreasing in q"
    dev = np.array([abs(rep.ratio - 1.0) for rep in sweep_reports])
    assert np.all(np.diff(dev) <= 0.0), "|ratio - 1| non-increasing"
    prod = np.array([rep.abs_ratio_minus_1_times_logq
                     for rep in sweep_reports])
    assert np.all(prod <= RATIO_LOGQ_BOUND), "|ratio-1| |log q| bounded"


def test_08_mirror_symmetry(solve_q05):
    """The -q solve is the +q solve with the phase gradient negated."""
    prof_p, rep_p = solve_q05
    prof_m, rep_m = solver.solve_spiral(1, -0.5)
    tol = 1e-10
    assert abs(rep_m.k_numeric - rep_p.k_numeric) <= tol
    assert abs(prof_m.c_f - prof_p.c_f) <= tol
    assert np.max(np.abs(prof_m.r_grid - prof_p.r_grid)) == 0.0
    assert np.max(np.abs(prof_m.f - prof_p.f)) <= tol
    assert np.max(np.abs(prof_m.v + prof_p.v)) <= tol


def test_09_field_export(field_solve, tmp_path):
    """Arm spacing from the exported grid; vanishing defect amplitude."""
    profile, report = field_solve
    table = field.theta_of_r(profile)
    omega = profile.q * (1.0 - report.k_numeric ** 2)
    grid = field.sample_field(profile, table, 1, omega, 0.0,
                              (513, 513, 1500.0))
    out = tmp_path / "field.csv"
    field.export(grid, out, "csv")
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    values = (data[:, 2] + 1j * data[:, 3]).reshape(513, 513)
    exported = field.FieldGrid(
        nx=513, ny=513, extent=1500.0, t=0.0, chirality=1, n=1,
        q=profile.q, k=report.k_numeric, omega=omega,
        x=np.unique(data[:, 0]), y=np.unique(data[:, 1]), values=values)
    measured = field.measure_arm_spacing(exported)
    expected = field.expected_arm_spacing(1, report.k_numeric)
    assert abs(measured.arm_spacing / expected - 1.0) <= 0.02
    center = exported.origin_index()
    assert center is not None
    assert abs(exported.values[center]) <= 1e-6
