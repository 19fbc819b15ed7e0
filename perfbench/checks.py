"""Correctness checks the benchmark applies to the program's outputs.

Every check compares against an independent computation or a property the
method must have, never against a stored copy of earlier output.  Each
function returns a list of problems; an empty list means the output
passed.
"""

import math

import mpmath
import numpy as np

FIRST_INTEGRAL_TOL = 1e-9
ENDPOINT_TOL = 1e-6
MIRROR_K_TOL = 1e-8
MIRROR_V_TOL = 1e-6
ARM_SPACING_TOL = 0.02
ROTATION_TOL = 1e-12
MODULUS_TOL = 1e-12
CSV_HEADER = "x,y,re,im,abs"


def far_field_endpoint(n, q, k, r_max):
    """(f, v) the decaying far field prescribes at r_max, from mpmath.

    V0 = K'_{i nu}(R) / K_{i nu}(R) at 30 digits with R = k|q| r_max and
    nu = n|q|, K' from the exact recurrence -(K_{i nu-1} + K_{i nu+1})/2;
    then v = sgn(q) k V0 and f = sqrt(1 - k^2 V0^2 - (eps n / R)^2).
    """
    nu = n * abs(q)
    eps = k * abs(q)
    R = eps * r_max
    with mpmath.workdps(30):
        K = mpmath.besselk(1j * nu, R)
        dK = -(mpmath.besselk(1j * nu - 1, R)
               + mpmath.besselk(1j * nu + 1, R)) / 2
        V0 = float(mpmath.re(dK / K))
    v = math.copysign(1.0, q) * k * V0
    f = math.sqrt(1.0 - k * k * V0 * V0 - (eps * n / R) ** 2)
    return f, v


def solve(profile, report):
    """Checks every converged solve must pass."""
    problems = []
    tag = f"n={report.n} q={report.q:+.6g}"
    if report.status != 0:
        problems.append(f"{tag}: not converged: {report.message}")
        return problems
    if report.properties.get("suspect", True):
        problems.append(f"{tag}: structure check flagged: {report.message}")
    gap = profile.first_integral_gap()
    if not gap <= FIRST_INTEGRAL_TOL:
        problems.append(f"{tag}: first-integral gap {gap:.3e}")
    f_ref, v_ref = far_field_endpoint(profile.n, profile.q, profile.k,
                                      profile.r_max)
    df = abs(float(profile.f[-1]) - f_ref)
    dv = abs(float(profile.v[-1]) - v_ref)
    if not (df <= ENDPOINT_TOL and dv <= ENDPOINT_TOL):
        problems.append(f"{tag}: endpoint off the mpmath far field by "
                        f"f {df:.3e}, v {dv:.3e}")
    return problems


def sweep_trend(qs, ks, cn, n=1):
    """k_*(q) rises with q; k/kappa falls toward 1 with the paper's law.

    kappa(q) = (2/q) exp(-C_n/n^2 - gamma - pi/(2 n q)) is composed here
    from the matching constant C_n, so the ratio does not come from the
    solver's own report.
    """
    problems = []
    pairs = sorted(zip(qs, ks))
    for (qa, ka), (qb, kb) in zip(pairs, pairs[1:]):
        if not ka < kb:
            problems.append(f"k not increasing: k({qa:.4g})={ka:.6g} "
                            f">= k({qb:.4g})={kb:.6g}")
    gamma = float(mpmath.euler)
    ratios = []
    for q, k in pairs:
        kappa = (2.0 / q) * math.exp(-cn / (n * n) - gamma
                                     - math.pi / (2.0 * n * q))
        ratios.append((q, k / kappa))
    low = [(q, r) for q, r in ratios if q < 0.7]
    for (qa, ra), (qb, rb) in zip(low, low[1:]):
        if not 1.0 < ra < rb:
            problems.append(f"k/kappa not falling toward 1 below q=0.7: "
                            f"{ra:.6g} at q={qa:.4g}, {rb:.6g} at q={qb:.4g}")
    for q, r in ratios:
        law = abs(r - 1.0) * abs(math.log(q))
        if not law < 0.1:
            problems.append(f"|k/kappa - 1| |log q| = {law:.4g} at q={q:.4g}")
    return problems


def mirror(q, k_pos, k_neg, v_pos, v_neg):
    """A +-q pair shares k and has opposite phase gradients."""
    problems = []
    rel = abs(k_pos - k_neg) / abs(k_pos)
    if not rel <= MIRROR_K_TOL:
        problems.append(f"|q|={q}: mirror k differ by {rel:.3e} relative")
    scale = float(np.max(np.abs(v_pos)))
    dv = float(np.max(np.abs(v_pos + v_neg)))
    if not dv <= MIRROR_V_TOL * scale:
        problems.append(f"|q|={q}: v(+q) + v(-q) reaches {dv:.3e}")
    return problems


def frame(grid, ref, spacing, expected_spacing):
    """Arm spacing, constant modulus, and rigid rotation against t = 0."""
    problems = []
    dev = abs(spacing / expected_spacing - 1.0)
    if not dev <= ARM_SPACING_TOL:
        problems.append(f"t={grid.t:.6g}: arm spacing off 2 pi n/k by "
                        f"{dev:.3%}")
    mod = np.abs(grid.values)
    ref_mod = np.abs(ref.values)
    dmod = float(np.max(np.abs(mod - ref_mod) / ref_mod))
    if not dmod <= MODULUS_TOL:
        problems.append(f"t={grid.t:.6g}: |A| changed by {dmod:.3e}")
    phase = np.exp(1j * grid.omega * (grid.t - ref.t))
    drot = float(np.max(np.abs(grid.values / ref.values - phase)))
    if not drot <= ROTATION_TOL:
        problems.append(f"t={grid.t:.6g}: A(t)/A(0) off e^(i omega t) by "
                        f"{drot:.3e}")
    return problems


def csv_roundtrip(path, grid):
    """Parse the exported CSV with the standard library, row by row.

    Every row must reproduce the in-memory doubles exactly, rows run
    row-major with x fastest, and there are nx*ny of them.
    """
    xs = grid.x.tolist()
    ys = grid.y.tolist()
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            return [f"CSV header {header!r}"]
        rows = 0
        for iy in range(grid.ny):
            vals = grid.values[iy]
            re_row = vals.real.tolist()
            im_row = vals.imag.tolist()
            abs_row = np.abs(vals).tolist()
            y = ys[iy]
            for ix in range(grid.nx):
                line = fh.readline()
                if not line:
                    return [f"CSV ends after {rows} rows of "
                            f"{grid.nx * grid.ny}"]
                got = [float(s) for s in line.split(",")]
                want = [xs[ix], y, re_row[ix], im_row[ix], abs_row[ix]]
                if got != want:
                    return [f"CSV row {rows} reads {got}, memory holds {want}"]
                rows += 1
        if fh.readline():
            return [f"CSV has rows past the expected {grid.nx * grid.ny}"]
    return []
