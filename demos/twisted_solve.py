"""Solve the twisted spiral boundary-value problem at moderate twist.

The amplitude f and phase slope v of an n-armed spiral satisfy a coupled
system on (0, infinity) whose far field forces v -> -k for exactly one
wavenumber k.  solve_spiral finds the profile and k together: a coarse
and a final collocation Newton solve at one matching radius carry the
core slope c_f and log k as unknown parameters next to the profile, with
the far field as their outer boundary condition.
This script reports the full diagnostic record for n=1, q=0.5, checks
the conserved first-integral identity on the returned mesh, and shows
that flipping the sign of the twist just mirrors the phase.
"""

import numpy as np

from cglspiral.solver import solve_spiral

profile, report = solve_spiral(1, 0.5)

m_f, m_v = report.boundary_residuals
print("n=1, q=0.5 twisted spiral")
print(f"  selected wavenumber k : {report.k_numeric:.12f}")
print(f"  mesh passes (2 calls) : {report.newton_iterations}")
print(f"  collocation residual  : {report.residual:.2e}")
print(f"  core slope c_f        : {report.c_f:.12f}")
print(f"  domain                : [{profile.r_grid[0]:g}, {profile.r_grid[-1]:.1f}]"
      f"  ({profile.r_grid.size} nodes)")
print(f"  far-field mismatches  : f {m_f:.2e}, v {m_v:.2e}")

k = report.k_numeric
f, v = profile.f, profile.v
print()
print("structural checks on the returned mesh:")
print(f"  f strictly increasing        : {bool(np.all(np.diff(f) > 0))}")
print(f"  0 < f < sqrt(1-k^2)          : "
      f"{bool(np.all(f[1:] > 0) and np.all(f < np.sqrt(1 - k * k)))}")
print(f"  v strictly negative (r > 0)  : {bool(np.all(v[1:] < 0))}")
gap = profile.first_integral_gap()
print(f"  first-integral identity gap  : {gap:.2e}")
print("  (r f^2 v must equal -q * integral of s f^2 (1-f^2-k^2) ds)")

print()
print("profile samples from the core out to the matching endpoint:")
print(f"{'r':>8}  {'f':>10}  {'v':>12}")
for r_show in (0.5, 2.0, 10.0, profile.r_grid[-1]):
    i = np.argmin(np.abs(profile.r_grid - r_show))
    print(f"{profile.r_grid[i]:8.2f}  {f[i]:10.6f}  {v[i]:12.8f}")
print(f"far-field targets: f -> sqrt(1-k^2) = {np.sqrt(1 - k * k):.6f}, "
      f"v -> -k = {-k:.6f}")

print()
print("mirror symmetry: q -> -q negates the phase slope, k is unchanged")
profile_m, report_m = solve_spiral(1, -0.5)
print(f"  k(+0.5) - k(-0.5)       : {report.k_numeric - report_m.k_numeric:.2e}")
print(f"  max |v(+q) + v(-q)|     : {np.max(np.abs(v + profile_m.v)):.2e}")
print(f"  max |f(+q) - f(-q)|     : {np.max(np.abs(f - profile_m.f)):.2e}")
