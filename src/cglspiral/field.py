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

Every float in a CSV file is the text ``"%.17g" % value`` gives, so
reading the file back reproduces the doubles exactly.  The text is made
in numpy, a block of rows at a time: a value with 1e-4 <= |value| < 1e16
is scaled to its correctly rounded 17-digit integer by an exact
(Dekker) product, whose digits come from a table of 4-digit groups and
are laid into a fixed-width cell; every other value (zero, nan, inf,
subnormals, and the exponent notation outside that range) is formatted
by Python's own ``%``.
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
    fastest, every float as ``%.17g`` (see the module docstring), so
    reading the file back reproduces the doubles exactly; the bytes are
    those ``write_csv`` would give for the five columns.  The x and y
    cells are formatted once per frame and re, im, abs in blocks of whole
    grid rows.  JSON carries the metadata plus flat row-major re/im
    arrays.
    """
    if grid.values.size == 0:
        raise ValueError("refusing to export an empty grid")
    if format == "csv":
        xs, ys = _format_g17(grid.x), _format_g17(grid.y)
        step = max(1, _BLOCK_ROWS // grid.nx)
        with open(path, "wb") as fh:
            fh.write(b"x,y,re,im,abs\n")
            for i in range(0, grid.ny, step):
                rows = grid.values[i:i + step]
                cells = _format_g17(
                    np.stack((rows.real, rows.imag, np.abs(rows)), axis=-1))
                fh.write(_csv_rows([xs, ys[i:i + step, None],
                                    *np.moveaxis(cells, -2, 0)]))
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

    Every float is printed as ``%.17g`` (see the module docstring), so
    reading the file back reproduces the doubles exactly; the bytes are
    those numpy's own text writer gives for ``np.column_stack(columns)``
    with that format, a comma delimiter and the header as an uncommented
    first line.  Rows are formatted in blocks of ``_BLOCK_ROWS``.
    """
    table = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for i in range(0, len(table), _BLOCK_ROWS):
            cells = _format_g17(table[i:i + _BLOCK_ROWS])
            fh.write(_csv_rows(list(np.moveaxis(cells, -2, 0))))


# Longest %.17g text of a float64: "-2.2250738585072014e-308".
_CELL = 24
# CSV rows formatted at a time; export rounds down to whole grid rows.
_BLOCK_ROWS = 8192
# "%04d" % g for g < 10**4 as a little-endian word, and the number of its
# digits up to the last nonzero one
_GROUP_TEXT = (np.arange(10 ** 4)[:, None] // [1000, 100, 10, 1] % 10
               + ord("0")).astype(np.uint8)
_DIGITS4 = _GROUP_TEXT.view("<u4").ravel().astype("<u8")
_SIGNIFICANT4 = ((_GROUP_TEXT != ord("0")) * np.arange(1, 5)).max(axis=1)
_POW10 = np.array([float(10 ** j) for j in range(21)])  # all exact


def _cell_masks(X, K):
    """Byte masks that lay out a 17-digit integer D as a ``%.17g`` cell.

    The value is D * 10**(X - 16) with K significant digits (D's trailing
    zeros dropped).  Cell byte 0 holds the sign, bytes 1-5 the ``0.`` and
    leading zeros of an |x| < 1, and digit j of D sits at byte 6 + j up to
    the point and at byte 7 + j after it.  Returns three cells joined:
    the mask on the digits at 6 + j, the mask on the digits at 7 + j, and
    the constant bytes; unused bytes are NUL.
    """
    at6, at7, const = bytearray(_CELL), bytearray(_CELL), bytearray(_CELL)
    if X < 0:
        head = b"0." + b"0" * (-X - 1)
        const[1:1 + len(head)] = head
        at6[6:6 + K] = b"\xff" * K
    else:
        keep = max(K, X + 1)
        at6[6:7 + X] = b"\xff" * (X + 1)
        if keep > X + 1:
            const[7 + X] = ord(".")
            at7[8 + X:7 + keep] = b"\xff" * (keep - X - 1)
    return at6 + at7 + const


# row (X + 4) * 17 + K - 1 for X in [-4, 15], K in [1, 17]
_CELL_MASKS = np.frombuffer(
    b"".join(_cell_masks(X, K) for X in range(-4, 16) for K in range(1, 18)),
    "<u8").reshape(-1, 9)


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _format_g17(values):
    """``"%.17g" % v`` of every float64 v, as NUL-padded ``_CELL``-byte cells.

    Returns a uint8 array of shape ``values.shape + (_CELL,)``; removing
    the NUL bytes from a cell leaves exactly the ``%.17g`` text.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    scale = _POW10[16 - X]
    # Dekker's product: a * scale = p + e exactly, with p = fl(a * scale).
    # Where D = p + rint(e) lies in [1e16, 1e17), p >= 2**53 is an even
    # integer, so D is a * scale rounded to an integer with ties to even:
    # the 17 significant digits %.17g prints, with decimal exponent X.
    # (No product below 1e16 reaches D = 1e16: the double just under each
    # of 10**-4 .. 10**15 scales to at most 1e16 - 0.83.)  Any other D,
    # from a misjudged log10, goes to the fallback.
    p = a * scale
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scale)
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fast &= (D >= 10 ** 16) & (D < 10 ** 17)
    rest, g4 = np.divmod(D, 10 ** 4)
    rest, g3 = np.divmod(rest, 10 ** 4)
    rest, g2 = np.divmod(rest, 10 ** 4)
    d0, g1 = np.divmod(rest, 10 ** 4)
    K = np.ones(x.size, np.intp)
    for first, g in ((1, g1), (5, g2), (9, g3), (13, g4)):
        K = np.where(g != 0, first + _SIGNIFICANT4[g], K)
    # the cell as three little-endian words: digit j at byte 7 + j ...
    at7 = [(d0 + ord("0")).astype("<u8") << 56,
           _DIGITS4[g1] | (_DIGITS4[g2] << 32),
           _DIGITS4[g3] | (_DIGITS4[g4] << 32)]
    # ... and at byte 6 + j
    at6 = [(at7[0] >> 8) | (at7[1] << 56), (at7[1] >> 8) | (at7[2] << 56),
           at7[2] >> 8]
    masks = _CELL_MASKS[(X + 4) * 17 + K - 1]
    cells = np.empty((x.size, 3), "<u8")
    for w in range(3):
        cells[:, w] = ((at6[w] & masks[:, w]) | (at7[w] & masks[:, 3 + w])
                       | masks[:, 6 + w])
    cells[:, 0] |= (x < 0.0) * np.uint64(ord("-"))
    cells = cells.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((b"%.17g" % v).ljust(_CELL, b"\0")
                        for v in x[slow].tolist())
        cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, _CELL)
    return cells.reshape(np.shape(values) + (_CELL,))


def _csv_rows(columns):
    """CSV rows from one array of ``_format_g17`` cells per column.

    The arrays broadcast to one shape (..., _CELL); each row of it is
    joined with commas and ended by a newline, and the NUL padding is
    dropped.
    """
    shape = np.broadcast_shapes(*(c.shape for c in columns))[:-1]
    out = np.empty(shape + (len(columns), _CELL + 1), np.uint8)
    for j, cells in enumerate(columns):
        out[..., j, :_CELL] = cells
    out[..., _CELL] = ord(",")
    out[..., -1, _CELL] = ord("\n")
    return out.tobytes().translate(None, b"\0")


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
