# coding: utf-8
"""
======================================================
Enumerating every facet of the rank-2 spectra polytope
======================================================

At rank m, every admissible hyperplane is affinely spanned by 3(m-1) of
the m^3 weights.  Iterating over those subsets and solving each exact
integer system finds every inequality candidate; the survivors of the
verification pipeline are then thinned to an irredundant set by exact
rational linear programming.
"""

from kronkit import enumerate_ressayre, reduce_irredundant
from kronkit.floats import sample_spectra, spectra_csv  # the one float module

# %%
# Complete enumeration at m = 2: 56 weight subsets collapse to 9 verified
# inequalities, and the LP reduction leaves exactly 3 — the symmetric
# orbit of "no marginal can be purer than the other two combined".

raw = enumerate_ressayre(2)
print(f"verified inequalities at m=2: {len(raw.nontrivial)}")

facets = reduce_irredundant(raw)
print(f"irredundant facets:           {len(facets.nontrivial)}")
for elem in facets.nontrivial:
    h = elem.h
    print(f"  H = {h.blocks}, z = {h.z}, evaluation point p = {elem.witness_point}")

# %%
# Monte-Carlo containment: spectra of random pure states must satisfy
# every facet inequality.  The margin min(r·H - z) over 2000 samples
# stays nonnegative (up to eigensolver noise).  The sampler computes in
# floats, so it lives apart in kronkit.floats: standard library only, its
# eigenvalues come from a cyclic complex Jacobi iteration.

samples = sample_spectra(2, 2000, seed=0)
worst = min(
    sum(c * x for c, x in zip(
        [v for block in e.h.blocks for v in block],
        [x for spectrum in triple for x in spectrum],
    )) - e.h.z
    for triple in samples
    for e in facets.nontrivial
)
print(f"\nworst margin over 2000 random spectra: {worst:.3e}")

# %%
# The samples serialize to CSV (one row of 3m floats per state), and the
# facet system to JSON, for downstream plotting or archiving.

print("\nfirst two CSV rows:")
for line in spectra_csv(samples[:2]).strip().split("\n"):
    print(" ", line)

print(f"\nfacet JSON keys: {sorted(facets.to_json())}")

# %%
# Rank 3 works the same way over C(27,6) = 296010 subsets, in about 20
# seconds (rank 4 exceeds the subset budget and is refused):
#
#   fs = enumerate_ressayre(3)
#   print(len(fs.nontrivial))   # -> 114 verified inequalities
