"""Walk K_{i nu} from small to large argument against its oracle.

The imaginary-order modified Bessel function comes from one trapezoid sum
of its integral representation at every argument; scipy's adaptive
quadrature of the same integral is the reference.  This script scans
x from the sign floor up to 60 and prints the relative gap of value and
slope at orders nu = n|q| up to 3.
"""

import numpy as np

from cglspiral import specfun

for nu in (0.1, 3.0):
    print(f"K_(i {nu})(x): trapezoid vs quadrature reference")
    print(f"{'x':>8}  {'value':>16}  {'rel gap':>10}  {'slope gap':>10}")
    for x in np.geomspace(max(0.02, specfun.sign_validity_floor(nu)),
                          60.0, 10):
        x = float(x)
        ref = specfun.k_imag(nu, x, method="quadrature")
        ev = specfun.k_imag(nu, x)
        gap = abs(ev.value / ref.value - 1.0)
        slope_gap = abs(ev.derivative / ref.derivative - 1.0)
        print(f"{x:8.3f}  {ev.value:16.8e}  {gap:10.2e}  {slope_gap:10.2e}")
    print()

print("small-argument oscillation: K_(i nu) flips sign deep below the floor")
floor = specfun.sign_validity_floor(0.3)
print(f"  sign validity floor for nu=0.3: {floor:.3e}")
for x in (2e-5, 4e-5, 1e-4, floor, 1.0):
    ev = specfun.k_imag(0.3, x)
    print(f"  K(i 0.3)({x:9.3e}) = {ev.value:+.6e}")
