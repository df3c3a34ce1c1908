# coding: utf-8
"""
================================================
Exact bounds and the precision ledger
================================================

Three exact quantities make the certificate pipeline airtight:

* siegel_bound(m)     — coordinate bound (4m)^{3m} on hyperplane
                        certificates, so enumeration is finite;
* min_gap(m,k)        — every non-member of denominator k sits at least
                        1/(k(4m)^{4m}) away from the polytope;
* accept_threshold2   — the membership verifier accepts within squared
                        distance (min_gap/2)^2, keeping the two verdicts
                        mutually exclusive;
* required_bits(m,k)  — dyadic truncation precision that provably cannot
                        push an exact point past the threshold.
"""

import numpy as np

from kronkit import (
    accept_threshold2,
    min_gap,
    reduced_densities,
    required_bits,
    siegel_bound,
    truncate,
)

# %%
# The ledger for small ranks.  Everything is an exact integer or rational;
# floats appear only in this table's display.

print(f"{'m':>2} {'k':>3} {'siegel_bound':>14} {'min_gap':>10} "
      f"{'threshold^2':>12} {'bits':>5}")
for m, k in [(1, 1), (2, 1), (2, 2), (2, 16), (3, 3), (4, 2)]:
    print(f"{m:>2} {k:>3} {siegel_bound(m):>14} "
          f"{float(min_gap(m, k)):>10.1e} "
          f"{float(accept_threshold2(m, k)):>12.1e} "
          f"{required_bits(m, k):>5}")

# %%
# Truncation is exact: multiplying a float by 2^b only shifts its
# exponent, so trunc(x * 2^b) / 2^b is the float's own dyadic value.
# 1/sqrt(2) at two bits becomes exactly 1/2.

cert = truncate([2**-0.5], 2)
print(f"\ntruncate(1/sqrt2, b=2) -> {cert.entries[(1, 1, 1)].re}")

# %%
# And the truncation error obeys the bound that justifies required_bits:
# a b-bit truncation of a unit vector moves each reduced density by at
# most 5 * m^(3/4) * 2^(-b/2) in Frobenius norm.  The empirical worst
# case sits far below it.  kronkit keeps no float view of its exact
# densities, so the demo divides each integer Gram by the common
# denominator itself (int / int rounds correctly).

rng = np.random.default_rng(1)
m, b = 3, 16
bound = 5.0 * m**0.75 * 2.0 ** (-b / 2)
worst = 0.0
for _ in range(50):
    v = rng.normal(size=m**3) + 1j * rng.normal(size=m**3)
    v /= np.linalg.norm(v)
    t = v.reshape(m, m, m)
    rho = reduced_densities(truncate(v, b))
    exact = [
        np.array([[complex(re / rho.den, im / rho.den) for re, im in row]
                  for row in gram])
        for gram in rho.grams
    ]
    floats = (
        np.einsum("abc,dbc->ad", t, t.conj()),
        np.einsum("abc,adc->bd", t, t.conj()),
        np.einsum("abc,abd->cd", t, t.conj()),
    )
    for e_mat, f_mat in zip(exact, floats):
        worst = max(worst, float(np.linalg.norm(e_mat - f_mat)))
print(f"\nworst marginal drift at (m={m}, b={b}): {worst:.3e}  "
      f"(bound {bound:.3e})")
