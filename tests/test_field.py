"""Field assembly, export, and arm-spacing measurement tests."""

import io
import json
import math
import os
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import RegularGridInterpolator

from cglspiral import field, solver


# Values at the edges of the CSV writer's numpy path (1e-4 <= |x| < 1e16)
# and of its digit rounding: every power of ten from 1e-6 to 1e18 with both
# neighbours, exact half-way ties that round to even, integers, and the
# values only the fallback formats.  tools/fingerprint.py hashes the same.
POWERS = np.array([float(f"1e{j}") for j in range(-6, 19)])
EDGE_VALUES = np.concatenate([
    POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf),
    [1000000000000000.25, 1000000000000000.75, 123456789012345.125],
    [1.0, 7.0, 42.0, 1234567.0, 9999999999999998.0, 2.0 ** 53],
])
EDGE_VALUES = np.concatenate([EDGE_VALUES, -EDGE_VALUES, [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308]])


@pytest.fixture(scope="module")
def big_solve():
    # wide domain: the endpoint phase slope is within 1e-4 of -k only
    # once k q r_max is in the hundreds
    return solver.solve_spiral(1, 0.5, r_max=12000.0)


@pytest.fixture(scope="module")
def big_theta(big_solve):
    prof, _ = big_solve
    return field.theta_of_r(prof)


@pytest.fixture(scope="module")
def big_grid(big_solve, big_theta):
    prof, rep = big_solve
    omega = prof.q * (1.0 - rep.k_numeric ** 2)
    return field.sample_field(prof, big_theta, 1, omega, 0.0,
                              (513, 513, 1500.0))


@pytest.fixture(scope="module")
def default_solve():
    return solver.solve_spiral(1, 0.5)


class TestPhaseTable:
    def test_vanishes_at_origin_with_flat_slope(self, big_theta):
        assert big_theta(0.0) == 0.0
        assert abs(big_theta(1e-6) / 1e-6) <= 1e-7

    def test_head_matches_quadratic_model(self, big_solve, big_theta):
        prof, _ = big_solve
        r = 0.5 * prof.r_start
        model = -prof.q * (1.0 - prof.k ** 2) / (2 * prof.n + 2) * r * r / 2
        assert big_theta(r) == pytest.approx(model, rel=1e-12)

    def test_constant_gradient_gives_linear_phase(self):
        r = np.linspace(0.5, 10.0, 400)
        c = -0.37
        fake = types.SimpleNamespace(
            r_grid=r, v=np.full_like(r, c), n=1, q=0.0, k=0.0,
            v_at=lambda rr: np.full_like(rr, c))
        table = field.theta_of_r(fake)
        assert np.max(np.abs(np.diff(table.theta) - c * np.diff(r))) <= 1e-12

    def test_endpoint_slope_near_minus_k(self, big_solve, big_theta):
        _, rep = big_solve
        assert abs(big_theta.slope_end + rep.k_numeric) <= 1e-4

    def test_decreasing_for_positive_twist(self, big_theta):
        assert np.all(np.diff(big_theta.theta[5:]) < 0)

    def test_extension_is_continuous(self, big_theta):
        rm = big_theta.r_max
        step = big_theta(rm * (1 + 1e-9)) - big_theta(rm)
        assert abs(step) <= 2 * abs(big_theta.slope_end) * rm * 1e-9


class TestSampleField:
    def test_defect_at_origin(self, big_grid):
        oi = big_grid.origin_index()
        assert oi is not None
        assert abs(big_grid.values[oi]) <= 1e-6

    def test_magnitude_is_amplitude_profile(self, big_solve, big_grid):
        prof, _ = big_solve
        rng = np.random.default_rng(7)
        ix = rng.integers(0, big_grid.nx, 200)
        iy = rng.integers(0, big_grid.ny, 200)
        r = np.hypot(big_grid.x[ix], big_grid.y[iy])
        expect = prof.f_at(r)
        got = np.abs(big_grid.values[iy, ix])
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_amplitude_bound(self, big_solve, big_grid):
        _, rep = big_solve
        bound = math.sqrt(1.0 - rep.k_numeric ** 2)
        assert np.max(big_grid.magnitude()) <= bound + 1e-9

    def test_zero_twist_contours_are_radial(self):
        prof, rep = solver.solve_spiral(1, 0.0)
        table = field.theta_of_r(prof)
        grid = field.sample_field(prof, table, 1, 0.0, 0.0, (65, 65, 10.0))
        X, Y = np.meshgrid(grid.x, grid.y)
        phi = np.arctan2(Y, X)
        mask = grid.magnitude() > 0.01
        resid = grid.values[mask] * np.exp(-1j * grid.n * phi[mask])
        # phase identically zero along every ray: the rotated values are
        # real and positive, so contour lines emanate straight from 0
        assert np.max(np.abs(np.angle(resid))) <= 1e-12

    def test_rotational_equivariance(self, default_solve):
        prof, rep = default_solve
        table = field.theta_of_r(prof)
        omega = prof.q * (1.0 - rep.k_numeric ** 2)
        spec = (301, 301, 30.0)
        g0 = field.sample_field(prof, table, 1, omega, 0.0, spec)
        dt = 0.7
        g1 = field.sample_field(prof, table, 1, omega, dt, spec)
        # A(t+dt) at angle phi equals A(t) at phi + omega*dt/(chi*n)
        delta = omega * dt / (g0.chirality * g0.n)
        interp_re = RegularGridInterpolator((g0.y, g0.x), g0.values.real)
        interp_im = RegularGridInterpolator((g0.y, g0.x), g0.values.imag)
        X, Y = np.meshgrid(g0.x, g0.y)
        r = np.hypot(X, Y)
        mask = (r > 5.0) & (r < 20.0)
        phi = np.arctan2(Y, X)[mask] + delta
        pts = np.column_stack([r[mask] * np.sin(phi), r[mask] * np.cos(phi)])
        rotated = interp_re(pts) + 1j * interp_im(pts)
        assert np.max(np.abs(rotated - g1.values[mask])) <= 2e-3

    def test_input_validation(self, default_solve):
        prof, _ = default_solve
        table = field.theta_of_r(prof)
        with pytest.raises(ValueError, match="exceeds"):
            field.sample_field(prof, table, 1, 0.0, 0.0,
                               (33, 33, prof.r_max * 2))
        with pytest.raises(ValueError, match="chirality"):
            field.sample_field(prof, table, 1, 0.0, 0.0, (33, 33, 10.0),
                               chirality=2)
        with pytest.raises(ValueError, match="at least"):
            field.sample_field(prof, table, 1, 0.0, 0.0, (1, 33, 10.0))
        with pytest.raises(ValueError, match="positive"):
            field.sample_field(prof, table, 1, 0.0, 0.0, (33, 33, -5.0))

    def test_nan_extent_refused(self, default_solve):
        # NaN passed both comparisons and gave an all-NaN grid
        prof, _ = default_solve
        table = field.theta_of_r(prof)
        with pytest.raises(ValueError, match="positive, got nan"):
            field.sample_field(prof, table, 1, 0.0, 0.0,
                               (33, 33, math.nan))

    def test_arm_count_must_match_profile(self, default_solve):
        # an n-armed phase on a profile solved for another n is no solution
        prof, _ = default_solve
        table = field.theta_of_r(prof)
        with pytest.raises(ValueError, match="arm count n=2 differs"):
            field.sample_field(prof, table, 2, 0.0, 0.0, (33, 33, 10.0))

    def test_chirality_mirrors_phase(self, default_solve):
        prof, _ = default_solve
        table = field.theta_of_r(prof)
        spec = (41, 41, 10.0)
        gp = field.sample_field(prof, table, 1, 0.0, 0.0, spec, chirality=1)
        gm = field.sample_field(prof, table, 1, 0.0, 0.0, spec, chirality=-1)
        X, Y = np.meshgrid(gp.x, gp.y)
        phi = np.arctan2(Y, X)
        resid = gp.values * np.exp(-2j * phi) - gm.values
        assert np.max(np.abs(resid)) <= 1e-12


class TestExport:
    @pytest.fixture()
    def small_grid(self, default_solve):
        prof, rep = default_solve
        table = field.theta_of_r(prof)
        return field.sample_field(prof, table, 1, 0.3, 0.25, (21, 17, 10.0))

    def test_csv_roundtrip_exact(self, small_grid, tmp_path):
        path = tmp_path / "f.csv"
        field.export(small_grid, path, "csv")
        with open(path) as fh:
            assert fh.readline().strip() == "x,y,re,im,abs"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (21 * 17, 5)
        # row-major with x fastest
        assert data[0, 0] == small_grid.x[0] and data[0, 1] == small_grid.y[0]
        assert data[1, 0] == small_grid.x[1] and data[1, 1] == small_grid.y[0]
        vals = (data[:, 2] + 1j * data[:, 3]).reshape(17, 21)
        assert np.array_equal(vals, small_grid.values)
        assert np.array_equal(data[:, 4].reshape(17, 21),
                              np.abs(small_grid.values))

    def test_json_schema_and_roundtrip(self, small_grid, tmp_path):
        path = tmp_path / "f.json"
        field.export(small_grid, path, "json")
        doc = json.loads(path.read_text())
        for key in ("nx", "ny", "extent", "t", "n", "q", "k", "omega",
                    "chirality", "re", "im"):
            assert key in doc
        assert doc["nx"] == 21 and doc["ny"] == 17 and doc["t"] == 0.25
        vals = (np.array(doc["re"]) + 1j * np.array(doc["im"])).reshape(17, 21)
        assert np.array_equal(vals, small_grid.values)

    def test_empty_grid_refused(self, tmp_path):
        empty = field.FieldGrid(nx=0, ny=0, extent=1.0, t=0.0, chirality=1,
                                n=1, q=0.5, k=0.1, omega=0.0,
                                x=np.empty(0), y=np.empty(0),
                                values=np.empty((0, 0), dtype=complex))
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty"):
            field.export(empty, path, "csv")
        assert not path.exists()

    def test_unknown_format(self, small_grid, tmp_path):
        with pytest.raises(ValueError, match="format"):
            field.export(small_grid, tmp_path / "f.xml", "xml")

    @staticmethod
    def savetxt_bytes(path, header, columns):
        # the oracle: numpy's own row-at-a-time writer
        np.savetxt(path, np.column_stack(columns), fmt="%.17g",
                   delimiter=",", header=header, comments="")
        return path.read_bytes()

    def assert_export_matches_savetxt(self, grid, tmp_path):
        X, Y = np.meshgrid(grid.x, grid.y)
        want = self.savetxt_bytes(tmp_path / "oracle.csv", "x,y,re,im,abs", [
            X.ravel(), Y.ravel(), grid.values.real.ravel(),
            grid.values.imag.ravel(), np.abs(grid.values).ravel()])
        field.export(grid, tmp_path / "f.csv", "csv")
        assert (tmp_path / "f.csv").read_bytes() == want

    @pytest.mark.parametrize("spec", [
        (21, 17, 10.0), (3, 2, 10.0),
        (257, 129, 10.0),                  # 31 grid rows a block, last short
        (field._BLOCK_ROWS + 7, 3, 10.0),  # a block is one grid row
    ])
    def test_csv_bytes_match_savetxt(self, default_solve, spec, tmp_path):
        prof, _ = default_solve
        grid = field.sample_field(prof, field.theta_of_r(prof), 1, 0.3, 0.25,
                                  spec)
        self.assert_export_matches_savetxt(grid, tmp_path)

    def test_csv_bytes_match_savetxt_edge_values(self, tmp_path):
        values = np.empty((2, 2), dtype=complex)
        values.real = [[-0.0, 5e-324], [1e300, -2.5]]
        values.imag = [[0.0, -1e300], [-0.0, -5e-324]]
        grid = field.FieldGrid(nx=2, ny=2, extent=1.0, t=0.0, chirality=1,
                               n=1, q=0.5, k=0.1, omega=0.0,
                               x=np.array([-1.0, 1.0]),
                               y=np.array([-0.0, 1.0 / 3.0]), values=values)
        self.assert_export_matches_savetxt(grid, tmp_path)
        text = (tmp_path / "f.csv").read_text()
        assert "-1,-0,-0,0,0\n" in text
        assert ",-4.9406564584124654e-324,2.5\n" in text
        assert ",1.0000000000000001e+300,-0,1.0000000000000001e+300\n" in text

        # the edge values on a grid whose row count is not a multiple of
        # the export's block of grid rows
        nx = EDGE_VALUES.size
        ny = field._BLOCK_ROWS // nx + 3
        values = np.empty((ny, nx), dtype=complex)
        values.real = EDGE_VALUES
        values.imag = np.roll(EDGE_VALUES, 1)
        grid = field.FieldGrid(nx=nx, ny=ny, extent=1.0, t=0.0, chirality=1,
                               n=1, q=0.5, k=0.1, omega=0.0, x=EDGE_VALUES,
                               y=np.resize(EDGE_VALUES[::-1], ny),
                               values=values)
        self.assert_export_matches_savetxt(grid, tmp_path)
        text = (tmp_path / "f.csv").read_text()
        assert ",1000000000000000.2," in text
        assert ",1000000000000000.8," in text
        assert ",123456789012345.12," in text

    def test_block_error_reaches_caller_and_stops_pool(self, default_solve,
                                                       monkeypatch, tmp_path):
        prof, _ = default_solve
        grid = field.sample_field(prof, field.theta_of_r(prof), 1, 0.3, 0.25,
                                  (4000, 13, 10.0))   # seven blocks
        rows, calls = field._csv_rows, []

        def failing(columns):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("block 3")
            return rows(columns)

        monkeypatch.setattr(field, "_csv_rows", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 3"):
            field.export(grid, tmp_path / "f.csv", "csv")
        assert threading.active_count() == before

    def test_blocks_formatted_at_most_one_past_the_workers(self):
        cpus = field._available_cpus()
        workers = len(cpus)
        written, ahead, masks, out = [], [], set(), io.BytesIO()

        def block(i):
            # blocks started and not yet written, this one included
            ahead.append(i + 1 - len(written))
            masks.add(frozenset(os.sched_getaffinity(0)))
            return b"%d\n" % i

        class SlowFile:
            def write(self, data):
                time.sleep(0.002)   # let the pool run ahead of the write
                out.write(data)
                written.append(data)

        before = threading.active_count()
        count = 4 * (workers + 1) + 3
        field._write_blocks(SlowFile(), block, range(count))
        assert out.getvalue() == b"".join(b"%d\n" % i for i in range(count))
        assert max(ahead) <= workers + 1
        assert threading.active_count() == before
        # each worker ran on one CPU of the mask; the caller's mask is kept
        assert all(len(m) == 1 and m <= set(cpus) for m in masks)
        assert field._available_cpus() == cpus

    def test_json_bytes_match_json_dump(self, small_grid, tmp_path):
        path = tmp_path / "f.json"
        field.export(small_grid, path, "json")
        # the oracle: the stdlib's streaming encoder on the same document
        buf = io.StringIO()
        json.dump(json.loads(path.read_text()), buf)
        assert path.read_text() == buf.getvalue() + "\n"

    def test_write_csv_matches_savetxt(self, tmp_path):
        # a sweep table: nan and inf where a solve failed, integer counts
        columns = [np.array([0.5, 0.4, 0.3]),
                   np.array([np.nan, np.inf, -np.inf]),
                   np.array([7, 12, 0]), np.array([-0.0, 5e-324, 1e300])]
        want = self.savetxt_bytes(tmp_path / "oracle.csv", "q,k,iters,res",
                                  columns)
        field.write_csv(tmp_path / "t.csv", "q,k,iters,res", columns)
        assert (tmp_path / "t.csv").read_bytes() == want
        assert b"nan,7," in want and b"-inf,0," in want

    @pytest.mark.parametrize("rows", [0, EDGE_VALUES.size,
                                      field._BLOCK_ROWS + 5])
    def test_write_csv_edge_table_matches_savetxt(self, rows, tmp_path):
        # rows past one block cover the blocked write; 0 rows is the header
        columns = [np.resize(EDGE_VALUES, rows),
                   np.resize(EDGE_VALUES[::-1], rows)]
        want = self.savetxt_bytes(tmp_path / "oracle.csv", "a,b", columns)
        field.write_csv(tmp_path / "t.csv", "a,b", columns)
        assert (tmp_path / "t.csv").read_bytes() == want
        if rows == 0:
            assert want == b"a,b\n"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=4, max_size=40))
    def test_any_floats_match_savetxt(self, tmp_path_factory, floats):
        tmp_path = tmp_path_factory.mktemp("floats")
        v = np.array(floats)
        m = v.size // 2
        columns = [v[:m], v[m:2 * m]]
        want = self.savetxt_bytes(tmp_path / "oracle.csv", "a,b", columns)
        field.write_csv(tmp_path / "t.csv", "a,b", columns)
        assert (tmp_path / "t.csv").read_bytes() == want
        values = np.empty((2, m), dtype=complex)
        values.real = columns
        values.imag = columns[::-1]
        grid = field.FieldGrid(nx=m, ny=2, extent=1.0, t=0.0, chirality=1,
                               n=1, q=0.5, k=0.1, omega=0.0, x=v[:m],
                               y=v[-2:], values=values)
        self.assert_export_matches_savetxt(grid, tmp_path)

    def test_deterministic_bytes(self, small_grid, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        field.export(small_grid, p1, "csv")
        field.export(small_grid, p2, "csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestArmSpacing:
    def test_expected_value(self):
        assert field.expected_arm_spacing(3, 0.5) == pytest.approx(
            6 * math.pi / 0.5)
        with pytest.raises(ValueError, match="arm spacing"):
            field.expected_arm_spacing(1, 0.0)

    def test_measured_spacing_within_two_percent(self, big_solve, big_grid):
        _, rep = big_solve
        measured = field.measure_arm_spacing(big_grid)
        expected = field.expected_arm_spacing(1, rep.k_numeric)
        assert abs(measured.arm_spacing / expected - 1.0) <= 0.02
        assert abs(measured.k_estimate / rep.k_numeric - 1.0) <= 0.02

    def test_individual_gaps_consistent(self, big_grid):
        measured = field.measure_arm_spacing(big_grid)
        assert measured.crest_radii.size >= 5
        assert np.all(np.abs(measured.crossing_spacings /
                             np.mean(measured.crossing_spacings) - 1) < 0.03)

    def test_crest_refinement_matches_loop(self):
        # the array form of the parabolic refinement against the per-peak
        # loop it replaced, on a ray with one peak whose three samples
        # round to a zero second difference (1 - 2^-53, 1, 1)
        x = np.arange(-60.0, 61.0)
        re = np.cos(2.0 * math.pi * x / 7.3)
        re[[89, 90, 91]] = 1.0 - 2.0 ** -53, 1.0, 1.0
        assert re[89] - 2.0 * re[90] + re[91] == 0.0
        grid = types.SimpleNamespace(x=x, y=np.array([-1.0, 0.0, 1.0]),
                                     values=np.vstack([re, re, re]) + 0j,
                                     extent=60.0, n=1)
        xs, ray = x[x > 0.0], re[x > 0.0]
        peaks = []
        for i in range(1, ray.size - 1):
            if ray[i] > ray[i - 1] and ray[i] >= ray[i + 1]:
                den = ray[i - 1] - 2.0 * ray[i] + ray[i + 1]
                off = 0.5 * (ray[i - 1] - ray[i + 1]) / den if den != 0.0 \
                    else 0.0
                peaks.append(xs[i] + off * (xs[1] - xs[0]))
        radii = np.array(peaks)
        assert 30.0 in radii
        measured = field.measure_arm_spacing(grid)
        assert np.array_equal(measured.crest_radii, radii[radii >= 30.0])

    def test_too_few_crossings(self, default_solve):
        prof, _ = default_solve
        table = field.theta_of_r(prof)
        grid = field.sample_field(prof, table, 1, 0.0, 0.0, (65, 65, 20.0))
        with pytest.raises(ValueError, match="crest crossings"):
            field.measure_arm_spacing(grid)
