"""Print a bit-level fingerprint of a fixed set of twisted solves.

One line per case: the case, k as ``float.hex``, the collocation mesh
node count and the report's ``newton_iterations`` (or the error a refused
case raises).  That count is solve_bvp's ``niter``, the number of
mesh-refinement passes of the last matching-radius attempt, not of Newton
steps.  Two trees give the same output exactly when every case keeps its
k bit for bit, its mesh and its pass count, so a refactor that
claims bit-identity is checked with

    PYTHONPATH=src python3 tools/fingerprint.py > new.txt
    diff old.txt new.txt

The cases are cold n = 1 solves across both signs of q and past q = 1,
explicit matching radii on either side of the validated window, the cold
n = 2 twists of the benchmark's ``cold_n2`` workload with their mirrors,
and the benchmark's unjittered 15-twist n = 1 sweep.  The other producers
of the radial-profile record follow: the untwisted q = 0 solves, with the
last value of their first integral, and one march from the origin at the
converged n = 1, q = 0.5 solve, with the last values of its first integral
and of v.  Last come the sha256 digests of a small CSV and JSON export of
the field of that solve, so a change to the writers is diffed like a solve.
"""

import hashlib
import tempfile
from pathlib import Path

from cglspiral import field, solver

SOLVES = [
    (1, 0.5, None), (1, -0.5, None), (1, 0.9, None), (1, 1.2, None),
    (1, 1.5, None), (1, 0.5, 1500.0), (1, 0.5, 30000.0),
    *((2, s * q, None) for q in (0.5, 0.4, 0.35, 0.3, 0.28, 0.6)
      for s in (1, -1)),
]
SWEEP_TWISTS = tuple(1.0 - 0.8 * i / 14 for i in range(15))


def _line(label, profile, report):
    return (f"{label}: k={float(report.k_numeric).hex()} "
            f"nodes={profile.r_grid.size} iters={report.newton_iterations}")


def main():
    for n, q, r_max in SOLVES:
        label = f"solve_spiral({n}, {q}, r_max={r_max})"
        try:
            print(_line(label, *solver.solve_spiral(n, q, r_max=r_max)))
        except (ValueError, RuntimeError) as exc:
            print(f"{label}: {type(exc).__name__}: {exc}")

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
    meshes = {report.q: profile.r_grid.size for profile, report in solves}
    for report in reports:
        label = f"sweep(1) q={report.q!r}"
        if report.status != 0:
            print(f"{label}: failed: {report.message}")
            continue
        print(f"{label}: k={float(report.k_numeric).hex()} "
              f"nodes={meshes[report.q]} iters={report.newton_iterations}")

    for n in (1, 2):
        profile, _ = solver.solve_spiral(n, 0.0)
        print(f"solve_spiral({n}, 0.0): "
              f"integral[-1]={float(profile.integral[-1]).hex()}")
    profile, report = solver.solve_spiral(1, 0.5)
    march = solver.integrate_from_origin(
        solver.SpiralParams(1, 0.5, report.k_numeric), profile.c_f, 5.0)
    print("integrate_from_origin(1, 0.5, r_max=5.0): "
          f"integral[-1]={float(march.integral[-1]).hex()} "
          f"v[-1]={float(march.v[-1]).hex()}")

    omega = 0.5 * (1.0 - report.k_numeric ** 2)
    grid = field.sample_field(profile, field.theta_of_r(profile), 1, omega,
                              0.25, (33, 25, 30.0))
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            path = Path(tmp) / f"frame.{fmt}"
            field.export(grid, path, fmt)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"export(1, 0.5, 33x25, {fmt}): sha256={digest}")


if __name__ == "__main__":
    main()
