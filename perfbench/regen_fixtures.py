"""Regenerate the benchmark's committed fixtures from the program itself.

    python3 perfbench/regen_fixtures.py

Writes, in this order, into ``perfbench/fixtures/`` (several minutes):

* ``facets_m3.json``, the m = 3 enumeration at seed 0 (114 elements, about
  a minute); ``facets_m3_irredundant.json``, its irredundant subset (39
  elements, a few minutes of exact LP); and ``facets_m2_irredundant.json``
  (3 elements).
* ``verify_pool.json``, the certificates the ``verify`` workload draws
  from, each with the verdict the verifier gives.  Every item is built to
  reach one verdict and the script stops if the verifier disagrees.
* ``reduce_m3_kept.json``, the ``reduce-m3`` sample and the elements
  ``reduce_irredundant`` keeps of it (several seconds).
* ``certify_kron.json``, the Kronecker coefficient of every ``certify``
  panel instance with k ≤ 12, the value ``kron`` must print.

The later files are built from the facets files written first.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from kronkit.diagrams import make_instance, parse_young  # noqa: E402
from kronkit.marginals import (  # noqa: E402
    MembershipCertificate,
    required_bits,
    truncate,
    verify_membership,
)
from kronkit.oracle import kron_coeff  # noqa: E402
from kronkit.ressayre import RessayreCertificate, verify_nonmembership  # noqa: E402
from kronkit.scalars import GaussianRational  # noqa: E402
from kronkit.search import (  # noqa: E402
    FacetSystem,
    enumerate_ressayre,
    reduce_irredundant,
    search_witness,
)
from kronkit.weights import HyperplaneCandidate  # noqa: E402

from workloads import (  # noqa: E402
    FIXTURES,
    KRON_MAX_K,
    certify_panel,
    kron_key,
    REDUCE_SAMPLE_SEED,
    load_facets,
    random_triple,
    hz_key,
    reduce_sample,
    violated,
    violates,
)

POOL_SEED = 0
PER_NONMEMBER_CLASS = 6
PER_MEMBER_CLASS = 4
K_RANGE = {2: (2, 12), 3: (3, 12)}


def _write(name: str, obj) -> None:
    with open(FIXTURES / name, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")
    print(f"wrote {FIXTURES / name}")


def regen_facets() -> None:
    m3 = enumerate_ressayre(3, seed=0)
    _write("facets_m3.json", m3.to_json())
    _write("facets_m3_irredundant.json", reduce_irredundant(m3).to_json())
    _write("facets_m2_irredundant.json", reduce_irredundant(enumerate_ressayre(2)).to_json())


# ---------------------------------------------------------------------------
# verify pool


def _instance(rng: random.Random, m: int):
    k = rng.randint(*K_RANGE[m])
    triple = random_triple(rng, k, m)
    return make_instance(*(parse_young(lam) for lam in triple), k)


def _perturbed(rng: random.Random, h: HyperplaneCandidate) -> HyperplaneCandidate:
    """H plus e_i − e_j in one random block: still traceless, same z."""
    blocks = [list(b) for b in h.blocks]
    block = rng.randrange(3)
    i, j = rng.sample(range(h.m), 2)
    blocks[block][i] += 1
    blocks[block][j] -= 1
    return HyperplaneCandidate(*(tuple(b) for b in blocks), h.z)


def _nonmember_candidates(rng, m, facets, expected):
    """Endless stream of (instance, certificate) aimed at ``expected``."""
    while True:
        element = rng.choice(facets.nontrivial)
        inst = _instance(rng, m)
        h, p = element.h, element.witness_point
        outside = violates(h, inst.padded_rows(), inst.k)
        if expected == "Accept" and outside:
            yield inst, RessayreCertificate(h, p)
        elif expected == "Reject(InequalityNotViolated)" and not outside:
            yield inst, RessayreCertificate(h, p)
        elif expected == "Reject(NotAdmissible)":
            yield inst, RessayreCertificate(_perturbed(rng, h), p)
        elif expected == "Reject(TraceMismatch)":
            yield inst, RessayreCertificate(h.negated(), p)
            yield inst, RessayreCertificate(_perturbed(rng, h), p)
        elif expected == "Reject(DeterminantVanishes)":
            yield inst, RessayreCertificate(h, (0,) * len(p))
            yield inst, RessayreCertificate(h, tuple(rng.randint(0, 2) for _ in p))


def _nonmember_items(rng, m, facets) -> list[dict]:
    items = []
    for expected in (
        "Accept",
        "Reject(NotAdmissible)",
        "Reject(TraceMismatch)",
        "Reject(DeterminantVanishes)",
        "Reject(InequalityNotViolated)",
    ):
        seen = set()
        for attempt, (inst, cert) in enumerate(
            _nonmember_candidates(rng, m, facets, expected)
        ):
            if attempt > 100_000:
                raise SystemExit(f"no {expected} certificate found at m={m}")
            got = str(verify_nonmembership(inst, cert))
            key = (str(inst), json.dumps(cert.to_json()))
            if got != expected or key in seen:
                continue
            seen.add(key)
            items.append(
                {
                    "class": f"nonmember m={m} {expected}",
                    "kind": "nonmember",
                    "instance": inst.to_json(),
                    "certificate": cert.to_json(),
                    "expected": expected,
                }
            )
            if len(seen) == PER_NONMEMBER_CLASS:
                break
    return items


def _rational_orthogonal(rng: random.Random) -> list[list[Fraction]]:
    """A 4×4 rational orthogonal matrix with no zero entry: the Kronecker
    product of two Pythagorean rotations, rows shuffled and signed."""
    triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]
    rots = []
    for _ in range(2):
        a, b, c = rng.choice(triples)
        rots.append([[Fraction(a, c), Fraction(-b, c)], [Fraction(b, c), Fraction(a, c)]])
    kron = [
        [rots[0][i // 2][j // 2] * rots[1][i % 2][j % 2] for j in range(4)]
        for i in range(4)
    ]
    order = list(range(4))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in order]
    return [[sign * v for v in kron[r]] for sign, r in zip(signs, order)]


def _dense_m4_witness(rng: random.Random) -> MembershipCertificate:
    """(R_A ⊗ R_B ⊗ R_C) Σᵢ|iii⟩ for rational orthogonal R: marginals I/4."""
    ra, rb, rc = (_rational_orthogonal(rng) for _ in range(3))
    entries = {}
    for a in range(4):
        for b in range(4):
            for c in range(4):
                v = sum(ra[a][i] * rb[b][i] * rc[c][i] for i in range(4))
                entries[(a + 1, b + 1, c + 1)] = GaussianRational(v, Fraction(0))
    return MembershipCertificate(4, entries)


def _member_item(cls: str, inst, cert, expected: str) -> dict:
    got = str(verify_membership(inst, cert))
    if got != expected:
        raise SystemExit(f"{cls}: verifier gave {got}, expected {expected}")
    return {
        "class": f"member {cls}",
        "kind": "member",
        "instance": inst.to_json(),
        "certificate": cert.to_json(),
        "expected": expected,
    }


def _member_items(rng, systems) -> list[dict]:
    items = []
    accept = "Accept(InThreshold)"
    for m in (2, 3):
        found = 0
        while found < PER_MEMBER_CLASS:
            inst = _instance(rng, m)
            if violated(systems[m], inst.padded_rows(), inst.k):
                continue
            cert = search_witness(inst, seed=0)
            if cert is None:
                continue
            items.append(_member_item(f"m={m} search_witness", inst, cert, accept))
            found += 1
    for _ in range(PER_MEMBER_CLASS):
        c = rng.randint(1, 3)
        inst = make_instance(*(parse_young([c] * 4),) * 3, 4 * c)
        items.append(_member_item("m=4 exact dense", inst, _dense_m4_witness(rng), accept))
    nprng = np.random.default_rng(POOL_SEED)
    for _ in range(PER_MEMBER_CLASS):
        a = sorted((rng.randint(1, 3) for _ in range(4)), reverse=True)
        lam = parse_young([v * v for v in a])
        inst = make_instance(lam, lam, lam, lam.boxes)
        psi = nprng.standard_normal(64) + 1j * nprng.standard_normal(64)
        cert = truncate(psi / np.linalg.norm(psi), required_bits(4, inst.k))
        items.append(_member_item("m=4 float truncated", inst, cert, "Reject(OutOfThreshold)"))
    return items


def regen_pool() -> None:
    rng = random.Random(POOL_SEED)
    systems = {
        2: load_facets("facets_m2_irredundant.json"),
        3: load_facets("facets_m3_irredundant.json"),
    }
    items = []
    for m in (2, 3):
        items += _nonmember_items(rng, m, systems[m])
    items += _member_items(rng, systems)
    _write("verify_pool.json", {"seed": POOL_SEED, "items": items})


def regen_reduce() -> None:
    m3 = load_facets("facets_m3.json")
    sample = reduce_sample(len(m3.nontrivial))
    system = FacetSystem(3, tuple(m3.nontrivial[i] for i in sample), m3.chamber)
    kept = {hz_key(e.h) for e in reduce_irredundant(system).nontrivial}
    _write(
        "reduce_m3_kept.json",
        {
            "sample_seed": REDUCE_SAMPLE_SEED,
            "sample": sample,
            "kept": [i for i in sample if hz_key(m3.nontrivial[i].h) in kept],
        },
    )


def regen_kron() -> None:
    panel = certify_panel(load_facets("facets_m3_irredundant.json"))
    kron = {}
    for triple, _ in panel:
        if sum(triple[0]) <= KRON_MAX_K:
            kron[kron_key(triple)] = kron_coeff(*(parse_young(lam) for lam in triple))
    _write("certify_kron.json", dict(sorted(kron.items())))


def main() -> None:
    regen_facets()
    regen_pool()
    regen_reduce()
    regen_kron()


if __name__ == "__main__":
    main()
