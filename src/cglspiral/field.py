"""Two-dimensional field assembly and export from a solved radial profile.

The rotating solution has the form A(t, r, phi) = f(r) exp(i(omega t
+ Theta(r) + chi n phi)) with chirality chi = +-1 and cumulative phase
Theta(r) = integral of v from 0 to r.  This module builds the phase
table, samples the field on a Cartesian grid, exports CSV/JSON data
files, and measures the arm spacing of the sampled pattern, whose far
field approximates an Archimedean spiral of radial pitch 2 pi n / |k|
per arm.

Grid corners lie beyond the inscribed disk of radius ``extent``; where
the radius exceeds the profile domain the amplitude is frozen at its
endpoint value and the phase continued linearly with slope v(r_max), so
exported files contain no holes.  All quantitative checks stay inside
r <= r_max.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .core import cumulative_midpoint_simpson, origin_slope, piecewise

__all__ = [
    "PhaseTable", "FieldGrid", "ArmSpacing", "theta_of_r", "sample_field",
    "export", "write_csv", "measure_arm_spacing", "expected_arm_spacing",
]


@dataclass
class PhaseTable:
    """Cumulative phase Theta(r) with Theta(0) = 0.

    Below the first tabulated radius the phase follows the parabolic
    head slope*r^2/2 from the origin behavior v ~ slope*r; beyond the
    last radius it continues linearly with the endpoint slope.
    """

    r: np.ndarray
    theta: np.ndarray
    origin_slope: float

    def __post_init__(self):
        self._spline = CubicSpline(self.r, self.theta)

    @property
    def r_max(self):
        return float(self.r[-1])

    @property
    def slope_end(self):
        """Phase derivative at the outer edge, the numerical Theta'(r_max)."""
        return float(self._spline(self.r[-1], 1))

    def __call__(self, rr):
        r1 = self.r[-1]
        return piecewise(rr, self.r[0], r1,
                         lambda x: 0.5 * self.origin_slope * x ** 2,
                         self._spline,
                         lambda x: self.theta[-1] + self.slope_end * (x - r1))


def theta_of_r(profile):
    """Integrate the phase gradient v into a cumulative phase table.

    Uses the same composite Simpson quadrature as the profile's stored
    first integral: the node values ``profile.v`` plus midpoint values
    read by ``profile.v_at``, segment by segment, with the parabolic
    origin head below the first node.
    """
    r = profile.r_grid
    mid = 0.5 * (r[:-1] + r[1:])
    slope = origin_slope(profile.n, profile.q, profile.k)
    theta = cumulative_midpoint_simpson(r, profile.v, profile.v_at(mid),
                                        0.5 * slope * r[0] ** 2)
    return PhaseTable(r=r.copy(), theta=theta, origin_slope=slope)


@dataclass
class FieldGrid:
    """Complex field samples on a centered Cartesian grid.

    ``values[iy, ix]`` holds A at (x[ix], y[iy]) for the stored time;
    the grid is row-major with x fastest.
    """

    nx: int
    ny: int
    extent: float
    t: float
    chirality: int
    n: int
    q: float
    k: float
    omega: float
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray

    def magnitude(self):
        return np.abs(self.values)

    def origin_index(self):
        """Grid index of the exact origin, or None if it is not a node."""
        ix = int(np.argmin(np.abs(self.x)))
        iy = int(np.argmin(np.abs(self.y)))
        if self.x[ix] == 0.0 and self.y[iy] == 0.0:
            return iy, ix
        return None


def sample_field(profile, theta, n, omega, t, grid_spec, chirality=1):
    """Sample A(t) = f(r) exp(i(omega t + Theta(r) + chi n phi)) on a grid.

    ``grid_spec`` is (nx, ny, extent); the half-width extent must not
    exceed the profile domain, and n must be the profile's arm count.
    Corner samples outside r_max use the frozen-amplitude linear-phase
    continuation of the phase table.
    """
    nx, ny, extent = grid_spec
    nx, ny = int(nx), int(ny)
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must be at least 2x2, got {nx}x{ny}")
    if n != profile.n:
        raise ValueError(f"arm count n={n!r} differs from the profile's "
                         f"n={profile.n}")
    if not extent > 0.0:
        raise ValueError(f"grid extent must be positive, got {extent!r}")
    if extent > profile.r_max * (1.0 + 1e-12):
        raise ValueError(
            f"grid extent {extent:.4g} exceeds the profile domain "
            f"r_max={profile.r_max:.4g}")
    if chirality not in (1, -1):
        raise ValueError(f"chirality must be +1 or -1, got {chirality!r}")
    x = np.linspace(-extent, extent, nx)
    y = np.linspace(-extent, extent, ny)
    X, Y = np.meshgrid(x, y)
    r = np.hypot(X, Y)
    phi = np.arctan2(Y, X)
    f = profile.f_at(r)
    psi = theta(r) + chirality * n * phi + omega * t
    values = f * np.exp(1j * psi)
    return FieldGrid(nx=nx, ny=ny, extent=float(extent), t=float(t),
                     chirality=int(chirality), n=int(n), q=float(profile.q),
                     k=float(profile.k), omega=float(omega), x=x, y=y,
                     values=values)


def export(grid, path, format="csv"):
    """Write the grid to ``path`` as CSV or JSON.

    CSV has header x,y,re,im,abs, one row per sample, row-major with x
    fastest, every float printed with 17 significant digits so reading
    the file back reproduces the doubles exactly.  It is streamed one
    grid row at a time: the x strings are formatted once per frame and
    each y once per row, and the bytes are those ``write_csv`` would
    give for the five columns.  JSON carries the metadata plus flat
    row-major re/im arrays.
    """
    if grid.values.size == 0:
        raise ValueError("refusing to export an empty grid")
    if format == "csv":
        xs = ["%.17g" % x for x in grid.x.tolist()]
        with open(path, "w") as fh:
            fh.write("x,y,re,im,abs\n")
            for y, row in zip(grid.y.tolist(), grid.values):
                # "<x>,<y>,%.17g,%.17g,%.17g\n" for every x of the row
                tail = ",%.17g" % y + ",%.17g,%.17g,%.17g\n"
                cells = np.column_stack((row.real, row.imag, np.abs(row)))
                fh.write((tail.join(xs) + tail)
                         % tuple(cells.ravel().tolist()))
    elif format == "json":
        doc = {
            "nx": grid.nx, "ny": grid.ny, "extent": grid.extent, "t": grid.t,
            "chirality": grid.chirality, "n": grid.n, "q": grid.q,
            "k": grid.k, "omega": grid.omega,
            "re": grid.values.real.ravel().tolist(),
            "im": grid.values.imag.ravel().tolist(),
        }
        with open(path, "w") as fh:
            # dumps takes the C encoder; dump would iterate in Python
            fh.write(json.dumps(doc) + "\n")
    else:
        raise ValueError(f"unknown export format {format!r}")


def write_csv(path, header, columns):
    """Write equal-length columns as CSV under a one-line header.

    Every float is printed with 17 significant digits, so reading the
    file back reproduces the doubles exactly.
    """
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


@dataclass
class ArmSpacing:
    """Arm spacing measured from crest crossings on the +x ray."""

    arm_spacing: float
    crossing_spacings: np.ndarray
    crest_radii: np.ndarray
    k_estimate: float


def expected_arm_spacing(n, k_star):
    """Asymptotic radial distance between windings, 2 pi n / |k_star|."""
    if k_star == 0.0:
        raise ValueError("untwisted pattern has no finite arm spacing")
    return 2.0 * math.pi * n / abs(k_star)


def measure_arm_spacing(grid):
    """Trace crest crossings of Re A along the +x ray and average their gaps.

    Local maxima of the sampled real part are refined by a parabolic fit
    through the three nearest samples; crossings closer to the core than
    extent/2, where the phase gradient still differs visibly from its
    limit, are discarded.  Adjacent crossings on a ray are one winding
    apart per arm, so the arm spacing of the n-armed pattern is n times
    the mean crossing gap.
    """
    r_cut = 0.5 * grid.extent
    iy = int(np.argmin(np.abs(grid.y)))
    y0 = float(grid.y[iy])
    pos = grid.x > 0.0
    xs = grid.x[pos]
    re = grid.values.real[iy, pos]
    if xs.size < 5:
        raise ValueError("grid too coarse to trace crest crossings")
    j = np.where((re[1:-1] > re[:-2]) & (re[1:-1] >= re[2:]))[0] + 1
    y_lo, y_md, y_hi = re[j - 1], re[j], re[j + 1]
    den = y_lo - 2.0 * y_md + y_hi
    off = np.divide(0.5 * (y_lo - y_hi), den, out=np.zeros_like(den),
                    where=den != 0.0)
    radii = np.hypot(xs[j] + off * (xs[1] - xs[0]), y0)
    radii = radii[radii >= r_cut]
    if radii.size < 3:
        raise ValueError(
            f"only {radii.size} crest crossings beyond r={r_cut:.4g}: "
            "enlarge the grid")
    gaps = np.diff(radii)
    spacing = grid.n * float(np.mean(gaps))
    return ArmSpacing(arm_spacing=spacing, crossing_spacings=gaps,
                      crest_radii=radii,
                      k_estimate=2.0 * math.pi * grid.n / spacing)
