"""Two-dimensional field assembly and export from a solved radial profile.

The rotating solution has the form A(t, r, phi) = f(r) exp(i(omega t
+ Theta(r) + chi n phi)) with chirality chi = +-1 and cumulative phase
Theta(r) = integral of v from 0 to r.  This module builds the phase
table, samples the field on a Cartesian grid, exports CSV/JSON data
files, and measures the arm spacing of the sampled pattern, whose far
field approximates an Archimedean spiral of radial pitch 2 pi n / |k|
per arm.  Sampling evaluates f and Theta once per distinct radius
hypot(|x|, |y|) of the grid and gathers them back onto every grid point;
a centred grid repeats most of its radii.

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
by Python's own ``%``.  A cell's text is one run of bytes, most often
ending at the cell's last byte, so the NUL padding is dropped in few
runs.  The tables it reads (the split powers of ten, the place of a
group's last nonzero digit, one contiguous row per cell-mask word) are
built once, at import.  The blocks are formatted on one thread per CPU
the process may run on, each thread pinned to its CPU, and written in
order, so the bytes do not depend on the CPU count; no option sets it.
A table of one block is written on the calling thread.  JSON export is
single-threaded.
"""

import collections
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
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
    continuation of the phase table.  f and Theta are evaluated once per
    distinct radius hypot(|x|, |y|), which gives the same doubles as
    evaluating them at every grid point.
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
    # np.hypot(|x|, |y|) is np.hypot(x, y), so f and Theta are evaluated
    # once per distinct radius and gathered back onto the grid
    ax, ix = np.unique(np.abs(x), return_inverse=True)
    ay, iy = np.unique(np.abs(y), return_inverse=True)
    r = np.hypot(ax, ay[:, None])
    on_grid = np.ix_(iy, ix)
    phi = np.arctan2(y[:, None], x)
    psi = theta(r)[on_grid] + chirality * n * phi + omega * t
    values = profile.f_at(r)[on_grid] * np.exp(1j * psi)
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
    grid rows, on one thread per available CPU (a single block on the
    calling thread).  JSON carries the metadata plus flat row-major re/im
    arrays.
    """
    if grid.values.size == 0:
        raise ValueError("refusing to export an empty grid")
    if format == "csv":
        xs, ys = _format_g17(grid.x), _format_g17(grid.y)
        step = max(1, _BLOCK_ROWS // grid.nx)

        def block(i):
            rows = grid.values[i:i + step]
            cells = _format_g17(
                np.stack((rows.real, rows.imag, np.abs(rows)), axis=-1))
            return _csv_rows([xs, ys[i:i + step, None],
                              *np.moveaxis(cells, -2, 0)])

        with open(path, "wb") as fh:
            fh.write(b"x,y,re,im,abs\n")
            _write_blocks(fh, block, range(0, grid.ny, step))
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
    first line.  Rows are formatted in blocks of ``_BLOCK_ROWS``, on one
    thread per available CPU (a single block on the calling thread).
    """
    table = np.column_stack(columns)

    def block(i):
        cells = _format_g17(table[i:i + _BLOCK_ROWS])
        return _csv_rows(list(np.moveaxis(cells, -2, 0)))

    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        _write_blocks(fh, block, range(0, len(table), _BLOCK_ROWS))


def _available_cpus():
    """The CPUs this process may run on, from its affinity mask.

    Where the OS keeps no affinity mask, ``os.cpu_count()`` entries of
    None: as many CPUs, which the workers are not pinned to.
    """
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return [None] * (os.cpu_count() or 1)


def _write_blocks(fh, block, starts):
    """Write ``block(i)`` for each i of ``starts`` to ``fh``, in order.

    The blocks are formatted on a pool of one thread per available CPU
    (numpy releases the GIL in the formatter's array operations), at most
    workers + 1 of them ahead of the write, so no more than workers + 1
    formatted blocks are held at once.  Each worker is pinned to its own
    CPU: a kernel that does not balance load between CPUs (a cpuset with
    ``sched_load_balance`` off) keeps a new thread on the CPU of the
    thread that started it.  The bytes do not depend on the number of
    workers.  An exception from a block is raised here, and no pool thread
    outlives the call.  A single block is formatted on the calling thread,
    with no pool.
    """
    if len(starts) <= 1:
        for i in starts:
            fh.write(block(i))
        return
    cpus = _available_cpus()
    unpinned = iter(cpus)

    def pin():
        # runs once in each new worker; a list iterator's next() is one
        # call under the GIL, so no two workers take the same CPU
        cpu = next(unpinned)
        if cpu is None:
            return
        try:
            os.sched_setaffinity(0, {cpu})   # 0: the calling thread
        except OSError:
            pass   # the pin is for speed only: say the CPU went offline

    workers = len(cpus)
    pending = collections.deque()
    with ThreadPoolExecutor(workers, initializer=pin) as pool:
        for i in starts:
            if len(pending) > workers:
                fh.write(pending.popleft().result())
            pending.append(pool.submit(block, i))
        while pending:
            fh.write(pending.popleft().result())


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
# the last nonzero digit's place in a 17-digit integer (1 for none) when
# the group is the one at digits 1-4, 5-8, 9-12 or 13-16 (0 is the first)
_LAST_NONZERO = np.where(_SIGNIFICANT4 > 0,
                         np.array([[1], [5], [9], [13]]) + _SIGNIFICANT4,
                         1).astype(np.uint8)
_POW10 = np.array([float(10 ** j) for j in range(21)])  # all exact


def _cell_masks(X, K):
    """Byte masks that lay out a 17-digit integer D as a ``%.17g`` cell.

    The value is D * 10**(X - 16) with K significant digits (D's trailing
    zeros dropped).  Digit j of D sits at byte 6 + j up to the point and
    at byte 7 + j after it; the ``0.`` and leading zeros of an |x| < 1 end
    at byte 6, and the sign goes just before the text.  So a cell's text
    is one run of bytes, which ends at the cell's last byte when K = 17,
    the common case, and joins the separator after the cell.  Returns
    three cells and a word joined: the mask on the digits at 6 + j, the
    mask on the digits at 7 + j, the constant bytes, and the minus sign
    in the first word; unused bytes are NUL.
    """
    at6, at7, const = bytearray(_CELL), bytearray(_CELL), bytearray(_CELL)
    sign = bytearray(8)
    if X < 0:
        head = b"0." + b"0" * (-X - 1)
        const[7 - len(head):7] = head
        at7[7:7 + K] = b"\xff" * K
        sign[6 - len(head)] = ord("-")
    else:
        keep = max(K, X + 1)
        at6[6:7 + X] = b"\xff" * (X + 1)
        if keep > X + 1:
            const[7 + X] = ord(".")
            at7[8 + X:7 + keep] = b"\xff" * (keep - X - 1)
        sign[5] = ord("-")
    return at6 + at7 + const + sign


# row (X + 4) * 17 + K - 1 for X in [-4, 15], K in [1, 17]
_CELL_MASKS = np.frombuffer(
    b"".join(_cell_masks(X, K) for X in range(-4, 16) for K in range(1, 18)),
    "<u8").reshape(-1, 10)
# one contiguous row per mask word, so that a word's gather reads no other
_MASK_WORDS = np.ascontiguousarray(_CELL_MASKS.T)


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


# each power of ten split once, for _round17's exact product
_POW10_HI, _POW10_LO = _split(_POW10)


def _round17(a, X):
    """a * 10**(16 - X) rounded to an integer, ties to even, for a > 0.

    Dekker's product: a * scale = p + e exactly, with p = fl(a * scale).
    Where D = p + rint(e) lies in [1e16, 1e17), p >= 2**53 is an even
    integer, so D is a * scale rounded to an integer with ties to even:
    the 17 significant digits %.17g prints, with decimal exponent X.  (No
    product below 1e16 reaches D = 1e16: the double just under each of
    10**-4 .. 10**15 scales to at most 1e16 - 0.83.)  Any other D, from a
    misjudged log10, is the caller's to send to the fallback.
    """
    j = 16 - X
    p = a * _POW10[j]
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _POW10_HI[j], _POW10_LO[j]
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _divmod_10k(a):
    """divmod(a, 10**4) for integers a >= 0.

    numpy's floor division by a constant is about twice as fast as its
    divmod, and the remainder is one multiply and subtract more.
    """
    q = a // 10 ** 4
    return q, a - q * 10 ** 4


def _digit_words(D):
    """The 17 digits of D as cell words, and D's significant-digit count.

    Returns the three little-endian words with digit j at byte 6 + j, the
    three with it at byte 7 + j, and K, the number of digits up to the
    last nonzero one.
    """
    rest, g4 = _divmod_10k(D)
    rest, g3 = _divmod_10k(rest)
    rest, g2 = _divmod_10k(rest)
    d0, g1 = _divmod_10k(rest)
    K = np.maximum(np.maximum(_LAST_NONZERO[0][g1], _LAST_NONZERO[1][g2]),
                   np.maximum(_LAST_NONZERO[2][g3], _LAST_NONZERO[3][g4]))
    at7 = [(d0 + ord("0")).astype("<u8") << 56,
           _DIGITS4[g1] | (_DIGITS4[g2] << 32),
           _DIGITS4[g3] | (_DIGITS4[g4] << 32)]
    at6 = [(at7[0] >> 8) | (at7[1] << 56), (at7[1] >> 8) | (at7[2] << 56),
           at7[2] >> 8]
    return at6, at7, K


def _format_g17(values):
    """``"%.17g" % v`` of every float64 v, as NUL-padded ``_CELL``-byte cells.

    Returns a uint8 array of shape ``values.shape + (_CELL,)``; removing
    the NUL bytes from a cell leaves exactly the ``%.17g`` text.  That
    text is one run of bytes, and it ends at the cell's last byte when it
    has 17 significant digits or comes from ``%``.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    D = _round17(a, X)
    fast &= (D >= 10 ** 16) & (D < 10 ** 17)
    at6, at7, K = _digit_words(D)
    # the masks are gathered a word at a time, not as one (size, 10) table,
    # to keep small the temporaries of a block, which each writer thread
    # holds one of
    row = (X + 4) * 17 + K - 1
    cells = np.empty((x.size, 3), "<u8")
    for w in range(3):
        cells[:, w] = ((at6[w] & _MASK_WORDS[w][row])
                       | (at7[w] & _MASK_WORDS[3 + w][row])
                       | _MASK_WORDS[6 + w][row])
    cells[:, 0] |= (x < 0.0) * _MASK_WORDS[9][row]
    cells = cells.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((b"%.17g" % v).rjust(_CELL, b"\0")
                        for v in x[slow].tolist())
        cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, _CELL)
    return cells.reshape(np.shape(values) + (_CELL,))


def _csv_rows(columns):
    """CSV rows from one array of ``_format_g17`` cells per column.

    The arrays broadcast to one shape (..., _CELL); each row of it is
    joined with commas and ended by a newline, and the NUL padding is
    dropped.  Returns the text as a flat uint8 array.
    """
    shape = np.broadcast_shapes(*(c.shape for c in columns))[:-1]
    out = np.empty(shape + (len(columns), _CELL + 1), np.uint8)
    for j, cells in enumerate(columns):
        out[..., j, :_CELL] = cells
    out[..., _CELL] = ord(",")
    out[..., -1, _CELL] = ord("\n")
    # a mask, not bytes.translate: numpy releases the GIL, translate holds
    # it; the mask copies run by run, and a cell whose text ends at its
    # last byte adds no run of its own to the separator after it
    return out[out != 0]


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
