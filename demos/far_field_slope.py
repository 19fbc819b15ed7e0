"""The decaying far-field branch and its first-order equation.

Far from the core the phase gradient is k times the logarithmic
derivative V0(R) = K'_{i nu}(R)/K_{i nu}(R) of the imaginary-order
Bessel function at the stretched radius R = k|q| r.  V0 solves the
Riccati equation V0' = 1 - nu^2/R^2 - V0/R - V0^2 and approaches -1
from below like -1 - 1/(2R).  The residual printed here uses an
independently summed derivative, so it actually tests the identity.
"""

import numpy as np

from cglspiral import outer, specfun

nu = 0.1
print(f"decaying slope for nu = {nu}")
print(f"window: [{outer.validity_floor(nu):.3e}, inf); "
      f"clean signs from {specfun.sign_validity_floor(nu):.3e}")
print(f"{'R':>10}  {'V0':>12}  {'V0 + 1 + 1/(2R)':>16}  {'riccati resid':>13}")
for R in np.geomspace(specfun.sign_validity_floor(nu), 1e3, 12):
    R = float(R)
    V0, dV0 = outer.decay_slope(nu, R)
    resid = dV0 - (1.0 - nu * nu / R ** 2 - V0 / R - V0 ** 2)
    print(f"{R:10.3e}  {V0:12.6f}  {V0 + 1 + 1/(2*R):16.3e}  {abs(resid):13.2e}")

print()
scan = outer.property_scan(nu)
print("certified-shape scan over", scan["window"])
print(f"  worst scaled equation residual : {scan['riccati_worst']:.2e}")
print(f"  sign margin  min(-V0)          : {scan['sign_margin']:.4f}")
print(f"  monotonicity margin min(dV0)   : {scan['slope_margin']:.3e}")
print(f"  far-law constant |V0+1+1/(2R)| R^2 <= {scan['far_law_constant']:.4f}")

print()
n, q, k = 1, 0.5, 0.09
print(f"physical-variable view at (n={n}, q={q}, k={k}):")
for r in (40.0, 100.0, 400.0):
    _, _, f, v = outer.far_field(n, q, k, k * abs(q) * r)
    print(f"  r={r:6.0f}: v_out = {v:+.6f} (heads to -k = {-k}), "
          f"f_out = {f:.6f}")
