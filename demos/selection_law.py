"""The exponentially small selected wavenumber and its matching origin.

For small twist q the selected wavenumber obeys

    kappa(q) = (2/q) exp(-C_n / n^2 - gamma_E) exp(-pi / (2 n q))

where C_n is the core matching constant.  The prefactor mu_bar =
2 exp(-C_n/n^2 - gamma_E) is the q -> 0 limit of k q e^{pi/(2 n q)}.
Because kappa underflows float64 long before q is interesting, the whole
law lives in log scale; this script shows the numbers, the log-scale
guard, and the transcendental matching root that produces mu_bar.
"""

from cglspiral import wavenumber

n = 1
cn = wavenumber.matching_constant(n)
print(f"matching constant (n={n}): {cn:.12f}")
print(f"prefactor mu_bar         : {wavenumber.mu_bar(n):.12f}")
print()
print(f"{'q':>7}  {'kappa(q)':>13}  {'log kappa':>10}  {'underflowed':>11}")
for q in (0.8, 0.5, 0.3, 0.1, 0.05, 0.01, 0.002):
    kap = wavenumber.kappa_asym(n, q)
    print(f"{q:7.3f}  {kap.value:13.6e}  {kap.log_value:10.2f}  "
          f"{str(kap.underflowed):>11}")
print("(at q = 0.002 the value is ~e^-779: representable only as its log)")


print()
print("the finite-q matching root vs the asymptotic prefactor:")
print(f"{'q':>7}  {'root mu(q)':>14}  {'mu_bar':>10}  {'rel gap':>9}")
mb = wavenumber.mu_bar(n)
for q in (0.2, 0.1, 0.05, 0.02):
    mu = wavenumber.solve_matching_mu(n, q)
    print(f"{q:7.3f}  {mu:14.10f}  {mb:10.6f}  {abs(mu/mb - 1):9.2e}")
print("the gap closes quadratically in q: the law is the q -> 0 limit")
