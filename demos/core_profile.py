"""Untwisted core profiles and the constant that feeds the selection law.

The untwisted (q = 0) amplitude f0 rises from c_f r^n at the origin to 1,
approaching as 1 - n^2/(2 r^2).  Two numbers extracted from it drive
everything downstream: the rise coefficient c_f and the log-subtracted
tail constant lim (integral of x f0^2 (1 - f0^2) - n^2 log r).
"""

import numpy as np

from cglspiral import core

print(f"{'n':>2}  {'c_f':>16}  {'tail constant':>16}  {'halving gap':>12}")
for n in (1, 2, 3):
    prof = core.solve_profile(n)
    tail = core.tail_constant(prof)
    print(f"{n:2d}  {prof.c_f:16.12f}  {tail.value:16.12f}  "
          f"{tail.halving_gap:12.2e}")

print()
n = 1
prof = core.solve_profile(n)
print(f"n={n} profile shape (f0 monotone, 1 - f0 ~ n^2/(2 r^2)):")
print(f"{'r':>7}  {'f0':>12}  {'r^2 (1 - f0)':>13}")
for r in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
    f = prof.f(r)
    print(f"{r:7.1f}  {f:12.8f}  {r * r * (1 - f):13.6f}")

print()
print("first-moment growth (the n^2 log r divergence the tail constant strips):")
for r in (10.0, 50.0, 200.0):
    i1 = prof.i1(r)
    print(f"  I1({r:6.1f}) = {i1:12.8f}   I1 - n^2 log r = "
          f"{i1 - n * n * np.log(r):12.8f}")
print("the r -> inf limit of the right column, after an O(1/r^2) tail")
print("correction, is the tail constant printed above")
