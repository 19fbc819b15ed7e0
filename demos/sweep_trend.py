"""Sweep the twist and watch the numerics converge to the selection law.

As q decreases, the numerically selected wavenumber k(q) should approach
the asymptotic prediction kappa(q), with the relative error shrinking.
This is the central quantitative claim of the library: the ratio
k_numeric / kappa tends to 1, and |ratio - 1| scaled by |log q| stays
bounded.  Each solve is seeded with the previous twist's k, carried down
the sweep by the asymptotic law, which keeps the Newton counts low.
"""

import math

from cglspiral.solver import wavenumber_sweep

qs = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3]
reports = wavenumber_sweep(1, qs)

print("n=1 twist sweep, warm-started downward")
print(f"{'q':>5}  {'k numeric':>12}  {'kappa asym':>12}  {'ratio':>8}"
      f"  {'|r-1||log q|':>12}  {'iters':>5}")
for rep in reports:
    scaled = abs(rep.ratio - 1.0) * abs(math.log(rep.q))
    print(f"{rep.q:5.2f}  {rep.k_numeric:12.6e}  {rep.k_asymptotic:12.6e}"
          f"  {rep.ratio:8.5f}  {scaled:12.5f}  {rep.newton_iterations:5d}")

print()
print("trend: k falls steeply (the law is exponential in 1/q) while the")
print("ratio descends toward 1 from above; the |log q|-scaled error stays")
print("small and bounded even at q=1 where |log q| vanishes by itself.")

last = reports[-1]
print()
print(f"smallest twist solved here: q={last.q}")
print(f"  k = {last.k_numeric:.8e}  vs  kappa = {last.k_asymptotic:.8e}")
print(f"  relative gap {abs(last.ratio - 1.0):.4f}, "
      f"domain reached r_max = {last.r_max:.0f}")
