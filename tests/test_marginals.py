import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kronkit.diagrams import KronInstance, make_instance, parse_young
from kronkit.errors import KronkitError, ZeroVector
from kronkit.marginals import (
    MembershipCertificate,
    accept_threshold2,
    frobenius_gap2,
    reduced_densities,
    required_bits,
    truncate,
    verify_membership,
)
from kronkit.ressayre import Decision, Reason
from kronkit.scalars import GaussianRational
from kronkit.weights import weights

F = Fraction


def GR(re, im=0):
    return GaussianRational(F(re), F(im))


def cert_from(m, raw):
    return MembershipCertificate(m, {idx: GR(*v) for idx, v in raw.items()})


def ghz():
    return cert_from(2, {(1, 1, 1): (1,), (2, 2, 2): (1,)})


def bell_e1():
    return cert_from(2, {(1, 1, 1): (1,), (2, 2, 1): (1,)})


def inst(rows_a, rows_b, rows_c, k, m=None):
    return make_instance(
        parse_young(rows_a), parse_young(rows_b), parse_young(rows_c), k,
        m_override=m,
    )


def float_densities(vec, m):
    """Reduced density matrices computed on the float side — the comparison
    route that never touches the exact Gram code."""
    t = np.asarray(vec, dtype=complex).reshape(m, m, m)
    t = t / np.linalg.norm(t)
    return (
        np.einsum("abc,dbc->ad", t, t.conj()),
        np.einsum("abc,adc->bd", t, t.conj()),
        np.einsum("abc,abd->cd", t, t.conj()),
    )


def float_view(rho):
    """The exact densities as float matrices (int / int rounds correctly)."""
    return tuple(
        np.array([[complex(re / rho.den, im / rho.den) for re, im in row] for row in gram])
        for gram in rho.grams
    )


def float_vector(cert):
    """The certificate vector as floats, in the canonical order of weights."""
    zero = GaussianRational()
    return [
        complex(float(v.re), float(v.im))
        for v in (cert.entries.get(w, zero) for w in weights(cert.m))
    ]


def test_certificate_validation():
    with pytest.raises(KronkitError, match=r"index \(1, 3, 1\) outside 1\.\.2"):
        cert_from(2, {(1, 3, 1): (1,)})
    with pytest.raises(ZeroVector):
        cert_from(2, {(1, 1, 1): (0,)})
    # zero entries are dropped, nonzero ones survive
    c = cert_from(2, {(1, 1, 1): (1,), (2, 2, 2): (0,)})
    assert list(c.entries) == [(1, 1, 1)]


# Gram matrices of the densities over the denominator 2
IDENTITY_2 = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
CORNER_2 = (((2, 0), (0, 0)), ((0, 0), (0, 0)))


def test_ghz_densities_are_maximally_mixed():
    rho = reduced_densities(ghz())
    assert rho.den == 2
    assert rho.grams == (IDENTITY_2,) * 3


def test_bell_e1_densities():
    rho = reduced_densities(bell_e1())
    assert rho.den == 2
    assert rho.grams == (IDENTITY_2, IDENTITY_2, CORNER_2)


def test_product_state_densities():
    rho = reduced_densities(cert_from(1, {(1, 1, 1): (F(2, 3),)}))
    assert rho.den == 1
    assert rho.grams == ((((1, 0),),),) * 3


def scaled(cert, re, im=0):
    """The certificate vector times the Gaussian rational re + i·im."""
    re, im = F(re), F(im)
    return MembershipCertificate(cert.m, {
        idx: GaussianRational(v.re * re - v.im * im, v.re * im + v.im * re)
        for idx, v in cert.entries.items()
    })


def test_densities_invariant_under_rescaling():
    c = bell_e1()
    for factor in ((3,), (F(-2, 7),), (1, 2), (F(5, 9), F(-1, 3))):
        assert reduced_densities(scaled(c, *factor)) == reduced_densities(c)


def test_densities_hermitian_unit_trace_exactly():
    rng = random.Random(79)
    for _ in range(20):
        m = rng.choice([2, 3])
        entries = {}
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                for c in range(1, m + 1):
                    if rng.random() < 0.4:
                        entries[(a, b, c)] = (
                            F(rng.randint(-3, 3), rng.randint(1, 4)),
                            F(rng.randint(-2, 2), rng.randint(1, 3)),
                        )
        if not any(v[0] or v[1] for v in entries.values()):
            continue
        rho = reduced_densities(cert_from(m, entries))
        # lowest terms: the denominator shares no factor with every part
        parts = [p for gram in rho.grams for row in gram for pair in row for p in pair]
        assert rho.den > 0 and math.gcd(rho.den, *parts) == 1
        for gram in rho.grams:
            assert sum(gram[r][r][0] for r in range(m)) == rho.den
            assert all(gram[r][r][1] == 0 for r in range(m))
            for r in range(m):
                for s in range(m):
                    re, im = gram[s][r]
                    assert gram[r][s] == (re, -im)


def test_exact_densities_match_float_route():
    rng = random.Random(83)
    for _ in range(10):
        m = rng.choice([2, 3])
        entries = {
            (a, b, c): (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 4))
            for a in range(1, m + 1)
            for b in range(1, m + 1)
            for c in range(1, m + 1)
        }
        try:
            cert = cert_from(m, entries)
        except ZeroVector:
            continue
        exact = float_view(reduced_densities(cert))
        floats = float_densities(float_vector(cert), m)
        for e_mat, f_mat in zip(exact, floats):
            assert np.abs(e_mat - f_mat).max() < 1e-12


def test_gap2_frozen_values():
    ghz_inst = inst([1, 1], [1, 1], [1, 1], 2)
    assert frobenius_gap2(reduced_densities(ghz()), ghz_inst) == 0

    bell_inst = inst([1, 1], [1, 1], [2], 2)
    assert frobenius_gap2(reduced_densities(bell_e1()), bell_inst) == 0

    # Bell pair against the all-ones corner misses by exactly 1
    corner = inst([2], [2], [2], 2, m=2)
    assert frobenius_gap2(reduced_densities(bell_e1()), corner) == 1

    # rank-2 densities against a rank-3 instance
    with pytest.raises(KronkitError, match="density rank 2 vs instance m=3"):
        frobenius_gap2(reduced_densities(ghz()), inst([1, 1], [1, 1], [1, 1], 2, m=3))


def test_verify_membership_verdicts():
    v = verify_membership(inst([1, 1], [1, 1], [1, 1], 2), ghz())
    assert v.decision is Decision.ACCEPT and v.reason is Reason.IN_THRESHOLD

    v = verify_membership(inst([1, 1], [1, 1], [2], 2), bell_e1())
    assert v.accepted

    v = verify_membership(inst([2], [2], [2], 2, m=2), bell_e1())
    assert v.decision is Decision.REJECT
    assert v.reason is Reason.OUT_OF_THRESHOLD


def test_verify_membership_shape_mismatch():
    with pytest.raises(KronkitError, match="certificate rank 3 does not match"):
        verify_membership(inst([1, 1], [1, 1], [2], 2), cert_from(3, {(1, 1, 1): (1,)}))


def test_accept_threshold2_frozen():
    assert accept_threshold2(2, 2) == F(1, 2**52)
    assert accept_threshold2(1, 1) == F(1, 262144)
    assert accept_threshold2(2, 1) == F(1, 2**50)


def test_required_bits_frozen():
    assert required_bits(2, 2) == 60
    assert required_bits(1, 1) == 26


def test_required_bits_is_minimal_even_and_sufficient():
    # b suffices iff 5625·m³·(2k(4m)^{4m})⁴ ≤ 2^{2b}; the returned value must
    # be the least even b with that property
    def suffices(m, k, b):
        lhs = 5625 * m**3 * (2 * k * (4 * m) ** (4 * m)) ** 4
        return lhs <= 1 << (2 * b)

    for m in range(1, 9):
        for exp in range(0, 17, 4):
            k = 1 << exp
            b = required_bits(m, k)
            assert b % 2 == 0
            assert suffices(m, k, b)
            assert not suffices(m, k, b - 2)


def test_required_bits_monotone():
    for m in range(1, 6):
        assert required_bits(m, 2) >= required_bits(m, 1)
        if m > 1:
            assert required_bits(m, 1) > required_bits(m - 1, 1)


def test_truncate_examples():
    c = truncate([2**-0.5], 2)
    assert c.m == 1 and c.entries[(1, 1, 1)] == GR(F(1, 2))

    c = truncate([-0.75 + 0.3j], 1)
    assert c.entries == {(1, 1, 1): GR(F(-1, 2))}

    with pytest.raises(ZeroVector):
        truncate([1e-9], 8)
    with pytest.raises(KronkitError, match="vector length 2 is not a cube"):
        truncate([0.5, 0.5], 4)


def test_truncate_is_exact_dyadic():
    rng = random.Random(89)
    vec = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
    b = 16
    cert = truncate(vec, b)
    for idx, value in cert.entries.items():
        for part in (value.re, value.im):
            assert part.denominator & (part.denominator - 1) == 0
            assert part.denominator <= 1 << b
        # truncation moves toward zero by strictly less than one step
        pos = (idx[0] - 1) * 4 + (idx[1] - 1) * 2 + (idx[2] - 1)
        assert abs(vec[pos].real - float(value.re)) < 2**-b
        assert abs(float(value.re)) <= abs(vec[pos].real)
        assert abs(vec[pos].imag - float(value.im)) < 2**-b


def test_truncate_is_exact_beyond_float_range():
    # float·2^b overflows once b > 1023; up to there it is exact, so the
    # integer truncation must agree with it bit for bit
    rng = random.Random(101)
    vec = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)]
    vec.insert(0, complex(5e-324, -3e-310))  # subnormals: both truncate to 0 at b ≤ 1023
    for b in (16, 1023, 1100):
        cert = truncate(vec, b)
        for pos, idx in enumerate(itertools.product((1, 2), repeat=3)):
            value = cert.entries.get(idx, GR(F(0)))
            for part, x in ((value.re, vec[pos].real), (value.im, vec[pos].imag)):
                assert part == F(math.trunc(F(x) * 2**b), 2**b)
                if b <= 1023:
                    assert part == F(math.trunc(x * 2**b), 2**b)
    assert truncate(vec, 1100).entries[(1, 1, 1)].re == F(2**26, 2**1100)


def test_truncation_perturbs_densities_within_bound():
    # the guarantee behind required_bits: a b-bit truncation of a unit vector
    # moves each reduced density by at most 5·m^{3/4}·2^{−b/2} in Frobenius norm
    rng = np.random.default_rng(97)
    for m in (2, 3):
        for b in (8, 16):
            bound = 5.0 * m**0.75 * 2.0 ** (-b / 2)
            for _ in range(15):
                v = rng.normal(size=m**3) + 1j * rng.normal(size=m**3)
                v /= np.linalg.norm(v)
                cert = truncate(v, b)
                exact = float_view(reduced_densities(cert))
                floats = float_densities(v, m)
                for e_mat, f_mat in zip(exact, floats):
                    assert np.linalg.norm(e_mat - f_mat) <= bound


def test_spectra_match_gap_via_hoffman_wielandt():
    # sorted spectra can't be further from the target than the Frobenius gap
    rng = random.Random(101)
    target = inst([3, 1], [2, 2], [2, 2], 4)
    for _ in range(10):
        entries = {
            (a, b, c): (F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 3))
            for a in (1, 2)
            for b in (1, 2)
            for c in (1, 2)
        }
        try:
            cert = cert_from(2, entries)
        except ZeroVector:
            continue
        rho = reduced_densities(cert)
        gap2 = float(frobenius_gap2(rho, target))
        per_subsystem = 0.0
        for mat, rows in zip(float_view(rho), target.padded_rows()):
            spec = np.linalg.eigvalsh(mat)[::-1]
            goal = np.array([r / target.k for r in rows])
            per_subsystem += float(np.sum((spec - goal) ** 2))
        assert per_subsystem <= gap2 + 1e-9


def test_json_round_trip():
    obj = ghz().to_json()
    assert obj == {
        "m": 2,
        "entries": [
            {"idx": [1, 1, 1], "re": "1/1", "im": "0/1"},
            {"idx": [2, 2, 2], "re": "1/1", "im": "0/1"},
        ],
    }
    assert MembershipCertificate.from_json(obj) == ghz()

    fancy = cert_from(2, {(1, 2, 1): (F(-3, 7), F(1, 2))})
    assert MembershipCertificate.from_json(fancy.to_json()) == fancy


def test_json_refuses_fractional_rank_and_index():
    entry = {"re": "1/1", "im": "0/1"}
    for obj in (
        {"m": 2.0, "entries": [{"idx": [1, 1, 1], **entry}]},
        {"m": 2, "entries": [{"idx": [1.5, 1, 1], **entry}]},
        {"m": 2, "entries": [{"idx": [True, 1, 1], **entry}]},
    ):
        with pytest.raises(KronkitError, match="expected an integer"):
            MembershipCertificate.from_json(obj)


# ---------------------------------------------------------------------------
# independent reference: densities and gap² as plain Fraction sums


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "verify_pool.json"


def reference_densities(cert):
    """ρ_X[r][s] = Σ ψ(..r..)·conj(ψ(..s..)) / ‖ψ‖² over the other two legs,
    as (re, im) Fraction pairs, straight from the definition."""
    amps = {idx: (v.re, v.im) for idx, v in cert.entries.items()}
    norm2 = sum(re * re + im * im for re, im in amps.values())
    out = []
    for axis in range(3):
        mat = [[[F(0), F(0)] for _ in range(cert.m)] for _ in range(cert.m)]
        for x, (xr, xi) in amps.items():
            for y, (yr, yi) in amps.items():
                if all(x[p] == y[p] for p in range(3) if p != axis):
                    entry = mat[x[axis] - 1][y[axis] - 1]
                    entry[0] += xr * yr + xi * yi
                    entry[1] += xi * yr - xr * yi
        out.append([[(re / norm2, im / norm2) for re, im in row] for row in mat])
    return out


def reference_gap2(ref, target):
    total = F(0)
    for mat, lam in zip(ref, target.padded_rows()):
        for r, row in enumerate(mat):
            for s, (re, im) in enumerate(row):
                if r == s:
                    re -= F(lam[r], target.k)
                total += re * re + im * im
    return total


def random_partition(rng, k, m):
    """A partition of k with at most m rows, from a random composition."""
    while True:
        cuts = sorted(rng.randint(0, k) for _ in range(m - 1))
        rows = [b - a for a, b in zip([0, *cuts], [*cuts, k])]
        rows = sorted((r for r in rows if r), reverse=True)
        if rows:
            return rows


def random_certificates(count, seed):
    """Seeded (instance, certificate) pairs at m = 2, 3, 4 whose amplitudes
    have non-dyadic denominators; the instance rank is always m, so a
    triple of shorter diagrams carries an m override."""
    rng = random.Random(seed)
    dens = (1, 3, 5, 6, 7, 9, 10, 12, 15, 21)
    out = []
    while len(out) < count:
        m = (2, 3, 4)[len(out) % 3]
        raw = {
            idx: (F(rng.randint(-5, 5), rng.choice(dens)),
                  F(rng.randint(-3, 3), rng.choice(dens)) if rng.random() < 0.5 else 0)
            for idx in itertools.product(range(1, m + 1), repeat=3)
            if rng.random() < 0.4
        }
        if not any(re or im for re, im in raw.values()):
            continue
        k = rng.randint(2, 12)
        rows = [random_partition(rng, k, m) for _ in range(3)]
        out.append((inst(*rows, k, m=m), cert_from(m, raw)))
    return out


def pool_members():
    items = json.loads(POOL.read_text(encoding="utf-8"))["items"]
    return [
        (KronInstance.from_json(item["instance"]),
         MembershipCertificate.from_json(item["certificate"]))
        for item in items
        if item["kind"] == "member"
    ]


def test_densities_and_gap_match_fraction_reference():
    members = pool_members()
    randoms = random_certificates(240, seed=107)
    assert len(members) == 16
    assert sum(target.m_overridden for target, _ in randoms) > 0
    accepted = 0
    for target, cert in members + randoms:
        rho = reduced_densities(cert)
        ref = reference_densities(cert)
        for gram, mat in zip(rho.grams, ref):
            for gram_row, ref_row in zip(gram, mat):
                for (re, im), expected in zip(gram_row, ref_row):
                    assert (F(re, rho.den), F(im, rho.den)) == expected
        gap2 = reference_gap2(ref, target)
        assert frobenius_gap2(rho, target) == gap2
        verdict = verify_membership(target, cert)
        threshold = 2 * target.k * (4 * target.m) ** (4 * target.m)
        assert verdict.gap2 == gap2
        assert verdict.accepted == (gap2 * threshold**2 <= 1)
        accepted += verdict.accepted
    # both verdicts are exercised: the pool holds 12 accepted witnesses
    assert accepted >= 12
