"""The benchmark's workloads: inputs from the seed, set-up, operation, checks.

Each workload is a class with the same steps:

``setup(hook)``
    imports the package and builds what every operation reuses; this is
    the timed set-up.  ``hook(modules)`` runs right after the imports, so a
    tracer can wrap module attributes before any work is done.
``prepare_checks()``
    untimed state the checks need (reference frames, the checker's own
    imports); returns the problems found in the set-up's own output.
``round_inputs(rng)``
    the inputs of one round, drawn from a ``random.Random`` seeded with
    ``--seed``; a run attempts whole rounds only.
``run(inp)``
    one operation; raises if the program fails.
``check(inp, out)`` / ``end_round()``
    lists of problems found in one output / across a finished round.

Only the standard library is imported at module level: the package and
numpy are imported inside ``setup`` so their import is part of set-up time.
"""

import dataclasses
import math
import os

SWEEP_TWISTS = tuple(1.0 - 0.8 * i / 14 for i in range(15))
SWEEP_JITTER = 0.2
COLD_TWISTS = (0.5, 0.4, 0.35, 0.3, 0.28)
SMOKE_COLD_TWISTS = (0.4,)
FIELD_Q = 0.5
FIELD_R_MAX = 1500.0
FIELD_GRID = (512, 512, FIELD_R_MAX)


def _import_package():
    import numpy  # noqa: F401  (part of the timed import)
    import scipy.integrate  # noqa: F401
    from cglspiral import core, field, outer, solver, specfun, wavenumber
    return {"core": core, "field": field, "outer": outer, "solver": solver,
            "specfun": specfun, "wavenumber": wavenumber}


def _slim(profile):
    """A copy of ``profile`` with only what ``checks.solve`` reads.

    That is n, q, k, the end points of the grid, f and v, and the w and
    integral arrays of ``first_integral_gap``.  The interpolant and the
    rest of the arrays are dropped, so the sweep's solves are not kept
    alive by the benchmark and do not add to the measured memory.
    """
    ends = [0, -1]
    return dataclasses.replace(
        profile, r_grid=profile.r_grid[ends], f=profile.f[ends],
        df=profile.df[ends], v=profile.v[ends], interpolant=None)


class SweepN1:
    """Descending-twist k_*(q) sweep for one-armed spirals."""

    name = "sweep_n1"
    n = 1

    def setup(self, hook=None):
        self.mods = _import_package()
        self._captured = []
        solver = self.mods["solver"]
        inner = solver.solve_spiral

        # keep what the checks need of each solve the sweep makes;
        # wavenumber_sweep calls the module-level name
        def capture(*args, **kwargs):
            profile, report = inner(*args, **kwargs)
            self._captured.append((_slim(profile), report))
            return profile, report
        solver.solve_spiral = capture
        if hook is not None:
            hook(self.mods)
        self.mods["wavenumber"].kappa_asym(self.n, SWEEP_TWISTS[0])

    def prepare_checks(self):
        import checks
        self.checks = checks
        self.cn = self.mods["wavenumber"].matching_constant(self.n)
        return []

    def round_inputs(self, rng):
        step = SWEEP_TWISTS[0] - SWEEP_TWISTS[1]
        qs = [SWEEP_TWISTS[0]]
        qs += [q + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER) * step
               for q in SWEEP_TWISTS[1:-1]]
        qs.append(SWEEP_TWISTS[-1])
        return [tuple(qs)]

    def run(self, qs):
        self._captured = []
        reports = self.mods["solver"].wavenumber_sweep(self.n, qs)
        bad = [r for r in reports if r.status != 0]
        if bad:
            raise RuntimeError(f"sweep failed at q={bad[0].q}: "
                               f"{bad[0].message}")
        solves, self._captured = self._captured, []
        return reports, solves

    def check(self, qs, out):
        reports, solves = out
        problems = []
        for profile, report in solves:
            problems += self.checks.solve(profile, report)
        problems += self.checks.sweep_trend(
            [r.q for r in reports], [r.k_numeric for r in reports], self.cn,
            self.n)
        return problems

    def end_round(self):
        return []


class ColdN2:
    """Independent two-armed solves at both signs of the twist."""

    name = "cold_n2"
    n = 2
    twists = COLD_TWISTS

    def setup(self, hook=None):
        self.mods = _import_package()
        if hook is not None:
            hook(self.mods)
        self.mods["wavenumber"].kappa_asym(self.n, self.twists[0])

    def prepare_checks(self):
        import numpy as np
        import checks
        self.np = np
        self.checks = checks
        self._radii = {}
        self._half = {}
        return []

    def round_inputs(self, rng):
        qs = [s * q for q in self.twists for s in (1.0, -1.0)]
        rng.shuffle(qs)
        return qs

    def run(self, q):
        return self.mods["solver"].solve_spiral(self.n, q)

    def check(self, q, out):
        profile, report = out
        problems = self.checks.solve(profile, report)
        # v is sampled at radii shared by both members of the pair, so no
        # profile stays alive across operations
        key = abs(q)
        if key not in self._radii:
            self._radii[key] = self.np.geomspace(1e-2, 0.95 * profile.r_max,
                                                 48)
        self._half.setdefault(key, {})[q > 0] = (
            profile.k, profile.v_at(self._radii[key]))
        return problems

    def end_round(self):
        problems = []
        for q, pair in sorted(self._half.items()):
            if len(pair) != 2:
                continue
            (k_pos, v_pos), (k_neg, v_neg) = pair[True], pair[False]
            problems += self.checks.mirror(q, k_pos, k_neg, v_pos, v_neg)
        self._radii.clear()
        self._half.clear()
        return problems


class SmokeColdN2(ColdN2):
    """One cheap mirror pair of the cold workload, for the smoke run."""

    twists = SMOKE_COLD_TWISTS


class FieldFrames:
    """Planar frames of one reference spiral: sample, export, measure."""

    name = "field_frames"
    n = 1

    def __init__(self, work_dir):
        self.path = os.path.join(work_dir, "frame.csv")

    def setup(self, hook=None):
        self.mods = _import_package()
        if hook is not None:
            hook(self.mods)
        solver, field = self.mods["solver"], self.mods["field"]
        self.profile, self.report = solver.solve_spiral(
            self.n, FIELD_Q, r_max=FIELD_R_MAX)
        self.table = field.theta_of_r(self.profile)
        self.omega = FIELD_Q * (1.0 - self.report.k_numeric ** 2)

    def prepare_checks(self):
        import checks
        self.checks = checks
        field = self.mods["field"]
        self.ref = field.sample_field(self.profile, self.table, self.n,
                                      self.omega, 0.0, FIELD_GRID)
        self.expected = field.expected_arm_spacing(self.n,
                                                   self.report.k_numeric)
        return checks.solve(self.profile, self.report)

    def round_inputs(self, rng):
        return [rng.uniform(0.0, 2.0 * math.pi / self.omega)]

    def run(self, t):
        field = self.mods["field"]
        grid = field.sample_field(self.profile, self.table, self.n,
                                  self.omega, t, FIELD_GRID)
        field.export(grid, self.path)
        spacing = field.measure_arm_spacing(grid)
        return grid, spacing

    def check(self, t, out):
        grid, spacing = out
        problems = self.checks.frame(grid, self.ref, spacing.arm_spacing,
                                      self.expected)
        problems += self.checks.csv_roundtrip(self.path, grid)
        return problems

    def end_round(self):
        return []

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)
