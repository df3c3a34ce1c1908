"""kronkit: exact certificates for the polytope of joint marginal spectra.

Given a triple of Young diagrams with k boxes each, the normalized triple of
row vectors is a rational point in the product of three simplices.  This
toolkit decides — with bit-exact arithmetic — on which side of the
tensor-multiplicity polytope that point lies, and certifies the answer in
both directions:

* non-membership via hyperplane certificates checked by
  :func:`verify_nonmembership`,
* membership via Gaussian-rational witness vectors checked by
  :func:`verify_membership`,

with desk-scale generators for both certificate kinds, :func:`decide` to
return one or the other for a point, and an independent
character-theoretic oracle for cross-validation.
"""

from .diagrams import KronInstance, YoungDiagram, make_instance, parse_young
from .errors import KronkitError
from .marginals import (
    DensityTriple,
    MembershipCertificate,
    accept_threshold2,
    frobenius_gap2,
    reduced_densities,
    required_bits,
    truncate,
    verify_membership,
)
from .oracle import (
    kron_coeff,
    mn_character,
    partitions,
    semigroup_member,
)
from .ressayre import (
    Decision,
    PolyMatrix,
    Reason,
    RessayreCertificate,
    Verdict,
    build_det_matrix,
    check_admissible,
    check_trace,
    eval_determinant,
    min_gap,
    siegel_bound,
    verify_nonmembership,
)
from .scalars import GaussianRational, format_rational
from .search import (
    FacetSystem,
    decide,
    enumerate_ressayre,
    find_point,
    reduce_irredundant,
    search_witness,
)
from .weights import (
    HyperplaneCandidate,
    affine_rank,
    negative_roots,
    negative_roots_on,
    split_weights,
    weight_vector,
    weights,
)

__version__ = "0.1.0"

__all__ = [
    "KronInstance",
    "YoungDiagram",
    "make_instance",
    "parse_young",
    "KronkitError",
    "DensityTriple",
    "MembershipCertificate",
    "accept_threshold2",
    "frobenius_gap2",
    "reduced_densities",
    "required_bits",
    "truncate",
    "verify_membership",
    "kron_coeff",
    "mn_character",
    "partitions",
    "semigroup_member",
    "Decision",
    "PolyMatrix",
    "Reason",
    "RessayreCertificate",
    "Verdict",
    "build_det_matrix",
    "check_admissible",
    "check_trace",
    "eval_determinant",
    "min_gap",
    "siegel_bound",
    "verify_nonmembership",
    "GaussianRational",
    "format_rational",
    "FacetSystem",
    "decide",
    "enumerate_ressayre",
    "find_point",
    "reduce_irredundant",
    "search_witness",
    "HyperplaneCandidate",
    "affine_rank",
    "negative_roots",
    "negative_roots_on",
    "split_weights",
    "weight_vector",
    "weights",
]
