"""Print a bit-level fingerprint of the core solves and a fixed set of
twisted solves.

First comes one line per untwisted core solve ``core.solve_profile(n)``,
n = 1, 2, 3, with c_f and the tail constant as ``float.hex`` and the
collocation node count.  Then one line per twisted case: the case, k and
the matching radius r_max as ``float.hex``, the collocation mesh node
count and the report's ``newton_iterations`` (or the error a refused case
raises).  That count is solve_bvp's ``niter``, the number of
mesh-refinement passes of the twist's one collocation solve, not of
Newton steps.  Each case at q < 0 adds a ``mirror`` line with v[-1] and
the report's v boundary residual as ``float.hex`` and the sha256 of
``interpolant(x)`` and ``interpolant(x, 1)`` at fixed off-node radii x,
so a sign slip in w, v or the interpolant of a negative twist shows.
Two trees give the same output exactly when every case keeps its c_f,
tail constant, k and r_max bit for bit, its mesh and its pass count, so
a refactor that claims bit-identity is checked with

    PYTHONPATH=src python3 tools/fingerprint.py > new.txt
    diff old.txt new.txt

The cases are cold n = 1 solves across both signs of q and past q = 1,
two explicit matching radii far past the automatic one, the cold
n = 2 twists of the benchmark's ``cold_n2`` workload with their mirrors,
n = 3 at q = +-0.5, an n = 1 solve at the tight tolerance 1e-11, n = 1
and 2 at 1e-12, the refusal of n = 2, q = 0.5 at r_max = 200 (a Newton
iterate's k leaves (0, 1)), and the benchmark's unjittered 15-twist
n = 1 sweep.  The other producers of the radial-profile record follow:
the untwisted q = 0 solves, with the last value of their first integral
and, at tol = 1e-12, their c_f (so a q = 0 solve that ignores its tol
shows), and one march from
the origin at the converged n = 1, q = 0.5 solve, with the last values of
its first integral and of v.  Then come the sha256 digests of a small CSV
and JSON export of the field of that solve, of a CSV export of a 257x129
frame of it, which the writer formats in five blocks of grid rows, and of
a ``write_csv`` table of edge values for the CSV float formatter (every
power of ten from 1e-6 to 1e18 with both neighbours, half-way ties and
integers, with their negatives, zeros, nan, infinities and subnormals),
so a change to the writers is diffed like a solve.  Last come the sha256
digests of the stdout and the output files of fixed in-process
``cli.main`` runs of ``solve``, ``inner-solve``, ``sweep``, ``kappa``,
``physical``, ``field``, ``outer-eval`` and ``bessel-eval`` in a
temporary directory; manifests are not hashed.  Each run passes only
flags its subcommand reads, after the subcommand name.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from cglspiral import cli, core, field, solver

SOLVES = [
    *((1, q, {"r_max": None}) for q in (0.5, -0.5, 0.9, 1.2, 1.5)),
    (1, 0.5, {"r_max": 1500.0}), (1, 0.5, {"r_max": 30000.0}),
    *((2, s * q, {"r_max": None}) for q in (0.5, 0.4, 0.35, 0.3, 0.28, 0.6)
      for s in (1, -1)),
    (3, 0.5, {"r_max": None}), (3, -0.5, {"r_max": None}),
    (1, 0.5, {"tol": 1e-11}),
    *((n, 0.5, {"tol": 1e-12}) for n in (1, 2)),
    (2, 0.5, {"r_max": 200.0}),
]
# inside [R_START, r_max] of every negative twist above (r_max >= 15.2)
MIRROR_RADII = np.geomspace(0.0123, 15.1, 97)
# 8192 // 257 = 31 grid rows to a CSV block: four full blocks, a short fifth
MULTI_BLOCK_GRID = (257, 129, 30.0)
SWEEP_TWISTS = tuple(1.0 - 0.8 * i / 14 for i in range(15))
POWERS = np.array([float(f"1e{j}") for j in range(-6, 19)])
CSV_EDGES = np.concatenate([
    POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf),
    [1000000000000000.25, 1000000000000000.75, 123456789012345.125],
    [1.0, 7.0, 42.0, 1234567.0, 9999999999999998.0, 2.0 ** 53],
])
CSV_EDGES = np.concatenate([CSV_EDGES, -CSV_EDGES, [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308]])
# run in order: physical and field read the report that solve writes
CLI_RUNS = [
    ["solve", "--n", "1", "--q", "0.5"],
    ["inner-solve", "--n", "1"],
    ["sweep", "--n", "1", "--q-list", "0.6,0.5", "--quiet"],
    ["kappa", "--n", "1", "--q", "0.5"],
    ["physical", "--alpha", "0.3", "--from-solve", "{dir}/solve_report.json"],
    ["field", "--solve-report", "{dir}/solve_report.json", "--nx", "9",
     "--ny", "7", "--extent", "20", "--t", "0.25", "--quiet"],
    ["outer-eval", "--n", "1", "--q", "0.5", "--k", "0.09",
     "--r-grid", "40:400:8", "--quiet"],
    ["bessel-eval", "--nu", "0.1", "--x", "1.0"],
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _line(label, profile, report):
    return (f"{label}: k={float(report.k_numeric).hex()} "
            f"r_max={report.r_max.hex()} nodes={profile.r_grid.size} "
            f"iters={report.newton_iterations}")


def _mirror_line(label, profile, report):
    rows = np.concatenate([profile.interpolant(MIRROR_RADII),
                           profile.interpolant(MIRROR_RADII, 1)])
    return (f"{label} mirror: v[-1]={float(profile.v[-1]).hex()} "
            f"res_v={report.boundary_residuals[1].hex()} "
            f"interpolant sha256={_sha256(rows.tobytes())}")


def main():
    for n in (1, 2, 3):
        profile = core.solve_profile(n)
        tail = core.tail_constant(profile).value
        print(f"solve_profile({n}): c_f={profile.c_f.hex()} "
              f"tail={tail.hex()} nodes={profile.n_nodes}")

    for n, q, kwargs in SOLVES:
        args = ", ".join(f"{key}={val}" for key, val in kwargs.items())
        label = f"solve_spiral({n}, {q}, {args})"
        try:
            profile, report = solver.solve_spiral(n, q, **kwargs)
        except (ValueError, RuntimeError) as exc:
            print(f"{label}: {type(exc).__name__}: {exc}")
            continue
        print(_line(label, profile, report))
        if q < 0:
            print(_mirror_line(label, profile, report))

    # wavenumber_sweep calls the module-level solve_spiral; wrap it to see
    # each solve's mesh
    inner = solver.solve_spiral
    solves = []

    def capture(*args, **kwargs):
        profile, report = inner(*args, **kwargs)
        solves.append((profile, report))
        return profile, report

    solver.solve_spiral = capture
    try:
        reports = solver.wavenumber_sweep(1, SWEEP_TWISTS)
    finally:
        solver.solve_spiral = inner
    profiles = {report.q: profile for profile, report in solves}
    for report in reports:
        label = f"sweep(1) q={report.q!r}"
        if report.status != 0:
            print(f"{label}: failed: {report.message}")
            continue
        print(_line(label, profiles[report.q], report))

    for n in (1, 2):
        profile, _ = solver.solve_spiral(n, 0.0)
        print(f"solve_spiral({n}, 0.0): "
              f"integral[-1]={float(profile.integral[-1]).hex()}")
        _, report = solver.solve_spiral(n, 0.0, tol=1e-12)
        print(f"solve_spiral({n}, 0.0, tol=1e-12): c_f={report.c_f.hex()}")
    profile, report = solver.solve_spiral(1, 0.5)
    march = solver.integrate_from_origin(
        solver.SpiralParams(1, 0.5, report.k_numeric), profile.c_f, 5.0)
    print("integrate_from_origin(1, 0.5, r_max=5.0): "
          f"integral[-1]={float(march.integral[-1]).hex()} "
          f"v[-1]={float(march.v[-1]).hex()}")

    omega = 0.5 * (1.0 - report.k_numeric ** 2)
    table = field.theta_of_r(profile)
    grid = field.sample_field(profile, table, 1, omega, 0.25, (33, 25, 30.0))
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            path = Path(tmp) / f"frame.{fmt}"
            field.export(grid, path, fmt)
            digest = _sha256(path.read_bytes())
            print(f"export(1, 0.5, 33x25, {fmt}): sha256={digest}")
        wide = field.sample_field(profile, table, 1, omega, 0.25,
                                  MULTI_BLOCK_GRID)
        path = Path(tmp) / "wide.csv"
        field.export(wide, path, "csv")
        print(f"export(1, 0.5, {wide.nx}x{wide.ny}, csv): "
              f"sha256={_sha256(path.read_bytes())}")
        path = Path(tmp) / "edges.csv"
        field.write_csv(path, "x,reversed", [CSV_EDGES, CSV_EDGES[::-1]])
        print(f"write_csv({CSV_EDGES.size} edge values): "
              f"sha256={_sha256(path.read_bytes())}")

    with tempfile.TemporaryDirectory() as tmp:
        for argv in CLI_RUNS:
            argv = [arg.format(dir=tmp) for arg in argv] + ["--out-dir", tmp]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
            print(f"cli {argv[0]}: rc={rc} "
                  f"stdout sha256={_sha256(stdout.getvalue().encode())}")
        for path in sorted(Path(tmp).iterdir()):
            if not path.name.endswith("_manifest.json"):
                print(f"cli file {path.name}: "
                      f"sha256={_sha256(path.read_bytes())}")


if __name__ == "__main__":
    main()
