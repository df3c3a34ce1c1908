# coding: utf-8
"""
===================================================
Witness vectors: proving a spectra triple IS real
===================================================

A membership certificate is a vector with Gaussian-rational amplitudes on
the m×m×m grid.  Its reduced density matrices are computed exactly, and
the certificate is accepted when the squared Frobenius distance to the
target spectra is at most an exact squared threshold — rational against
rational, no floats in the decision.
"""

from fractions import Fraction

from kronkit import (
    GaussianRational,
    MembershipCertificate,
    accept_threshold2,
    frobenius_gap2,
    make_instance,
    parse_young,
    reduced_densities,
    search_witness,
    verify_membership,
)

one = GaussianRational(Fraction(1), Fraction(0))


def inst(rows_a, rows_b, rows_c, k, m=None):
    return make_instance(
        parse_young(rows_a), parse_young(rows_b), parse_young(rows_c), k,
        m_override=m,
    )


# %%
# The GHZ vector |111> + |222> (unnormalized on purpose — the verifier
# normalizes exactly) has all three marginals maximally mixed, which hits
# the target ((1,1),(1,1),(1,1))/2 with gap exactly zero.

ghz = MembershipCertificate(2, {(1, 1, 1): one, (2, 2, 2): one})
mixed = inst([1, 1], [1, 1], [1, 1], 2)
rho = reduced_densities(ghz)
# the densities are integer Gram matrices over one denominator
gram_a = rho.grams[0]
print("GHZ marginal A:", [[str(Fraction(re, rho.den)) for re, _ in row] for row in gram_a])
print(f"gap^2       = {frobenius_gap2(rho, mixed)}")
print(f"threshold^2 = {accept_threshold2(2, 2)}")
print(f"verdict     = {verify_membership(mixed, ghz)}")

# %%
# A Bell pair on legs A,B with C pinned to |1> realizes two mixed
# marginals and one pure marginal.

bell = MembershipCertificate(2, {(1, 1, 1): one, (2, 2, 1): one})
print(f"\nBell x e1 vs ((1,1),(1,1),(2)): {verify_membership(inst([1, 1], [1, 1], [2], 2), bell)}")

# the same vector against all-pure targets misses by exactly 1
corner = inst([2], [2], [2], 2, m=2)
gap2 = frobenius_gap2(reduced_densities(bell), corner)
print(f"Bell x e1 vs ((2),(2),(2)):     gap^2 = {gap2} -> {verify_membership(corner, bell)}")

# %%
# search_witness automates this.  It first solves one exact LP per free
# support (the diagonal, then cyclic Latin supports), on which all three
# marginals are diagonal; if none works and no committed facet (m = 2, 3)
# cuts the point off, it falls back to marginal steering in fixed-point
# integers from one seeded start, stopped at the verifier's threshold.
# Either vector is cut to dyadic rationals and re-verified exactly: only
# verified certificates are ever returned.

target = inst([5, 3], [6, 2], [7, 1], 8)
cert = search_witness(target)
print(f"\nwitness for {target}: {len(cert.entries)} nonzero amplitudes")
print(f"re-verified: {verify_membership(target, cert)}")

lam = parse_young([1, 1, 1])
mixed3 = make_instance(lam, lam, lam, 3)
cert3 = search_witness(mixed3)
print(f"witness for {mixed3}: {len(cert3.entries)} amplitudes, "
      f"{verify_membership(mixed3, cert3)}")

# %%
# For a point outside the polytope no witness can pass the exact gate,
# so the search reports NotFound instead of a near miss.

outside = inst([2], [2], [1, 1], 2)
print(f"\nwitness for {outside}: {search_witness(outside)}")
