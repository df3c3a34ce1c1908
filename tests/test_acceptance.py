"""End-to-end acceptance gate.

Eight self-contained criteria, each timed against its stated budget and
reported with a one-line PASS/FAIL verdict on stdout.  Every criterion
recomputes what it needs inside its own timed body, so the reported runtime
is the full cost of the capability being demonstrated.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

import numpy as np

from kronkit.diagrams import make_instance, parse_young
from kronkit.floats import sample_spectra
from kronkit.marginals import (
    MembershipCertificate,
    accept_threshold2,
    reduced_densities,
    required_bits,
    truncate,
    verify_membership,
)
from kronkit.oracle import kron_coeff, partitions, semigroup_member
from kronkit.ressayre import (
    Reason,
    RessayreCertificate,
    min_gap,
    siegel_bound,
    verify_nonmembership,
)
from kronkit.scalars import GaussianRational
from kronkit.search import (
    enumerate_ressayre,
    find_point,
    reduce_irredundant,
    search_witness,
)
from kronkit.weights import HyperplaneCandidate, weights

F = Fraction

H_WORKED = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -1)


def report(number: int, ok: bool, elapsed: float, limit: float, detail: str):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"CRITERION {number}: {verdict} — {detail} "
        f"({elapsed:.2f}s, limit {limit:g}s)"
    )
    assert ok
    assert elapsed < limit


def inst(rows_a, rows_b, rows_c, k, m=None):
    return make_instance(
        parse_young(rows_a), parse_young(rows_b), parse_young(rows_c), k,
        m_override=m,
    )


def test_criterion_1_nonmembership_end_to_end():
    t0 = time.perf_counter()
    outside = inst([2], [2], [1, 1], 2)
    good = RessayreCertificate(H_WORKED, (1, 0, 0))
    ok = verify_nonmembership(outside, good).accepted

    rank_broken = RessayreCertificate(
        HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), 0), (1, 0, 0)
    )
    v = verify_nonmembership(outside, rank_broken)
    ok = ok and v.reason is Reason.NOT_ADMISSIBLE

    trace_broken = RessayreCertificate(
        HyperplaneCandidate((1, -1), (1, -1), (-1, 1), -1), (1, 0, 0)
    )
    v = verify_nonmembership(outside, trace_broken)
    ok = ok and v.reason is Reason.TRACE_MISMATCH

    vanishing = RessayreCertificate(H_WORKED, (0, 5, 7))
    v = verify_nonmembership(outside, vanishing)
    ok = ok and v.reason is Reason.DETERMINANT_VANISHES

    satisfied = inst([1, 1], [1, 1], [1, 1], 2)
    v = verify_nonmembership(satisfied, good)
    ok = ok and v.reason is Reason.INEQUALITY_NOT_VIOLATED

    elapsed = time.perf_counter() - t0
    report(1, ok, elapsed, 0.1, "worked certificate accepted, 4 mutations rejected with correct reasons")


def test_criterion_2_membership_end_to_end():
    t0 = time.perf_counter()
    one = GaussianRational(F(1), F(0))
    ghz = MembershipCertificate(2, {(1, 1, 1): one, (2, 2, 2): one})
    mixed = inst([1, 1], [1, 1], [1, 1], 2)
    from kronkit.marginals import frobenius_gap2

    gap2 = frobenius_gap2(reduced_densities(ghz), mixed)
    ok = gap2 == 0
    ok = ok and accept_threshold2(2, 2) == F(1, 2**52)
    ok = ok and verify_membership(mixed, ghz).accepted

    bell = MembershipCertificate(2, {(1, 1, 1): one, (2, 2, 1): one})
    ok = ok and verify_membership(inst([1, 1], [1, 1], [2], 2), bell).accepted

    elapsed = time.perf_counter() - t0
    report(2, ok, elapsed, 0.1, "GHZ gap²=0 vs threshold²=2⁻⁵²; Bell⊗e₁ accepted")


def test_criterion_3_membership_verifier_soundness():
    t0 = time.perf_counter()
    outside = inst([2], [2], [1, 1], 2)
    rng = random.Random(20260823)
    rejected = 0
    for _ in range(1000):
        entries = {}
        while not entries:
            for a in (1, 2):
                for b in (1, 2):
                    for c in (1, 2):
                        if rng.random() < 0.7:
                            re = F(rng.randint(-9, 9), rng.randint(1, 9))
                            im = F(rng.randint(-9, 9), rng.randint(1, 9))
                            if re or im:
                                entries[(a, b, c)] = GaussianRational(re, im)
        cert = MembershipCertificate(2, entries)
        if not verify_membership(outside, cert).accepted:
            rejected += 1
    elapsed = time.perf_counter() - t0
    report(3, rejected == 1000, elapsed, 60,
           f"{rejected}/1000 random certificates rejected for an outside point")


def test_criterion_4_facet_discovery_and_witnesses():
    t0 = time.perf_counter()
    fs = reduce_irredundant(enumerate_ressayre(2))
    lo, hi = (-1, 1), (1, -1)
    expected = {
        ((lo, lo, hi), -1),
        ((lo, hi, lo), -1),
        ((hi, lo, lo), -1),
    }
    got = {(e.h.blocks, e.h.z) for e in fs.nontrivial}
    ok = got == expected

    samples = sample_spectra(2, 10_000, seed=0)
    worst = min(
        sum(c * x for c, x in zip(
            [v for block in e.h.blocks for v in block],
            [x for spectrum in triple for x in spectrum],
        )) - e.h.z
        for triple in samples
        for e in fs.nontrivial
    )
    ok = ok and worst >= -1e-9

    grid = []
    for sa in range(1, 8):
        for sb in range(1, 8):
            for sc in range(1, 8):
                if sa < sb + sc and sb < sa + sc and sc < sa + sb:
                    grid.append((sa, sb, sc))
                if len(grid) == 50:
                    break
            if len(grid) == 50:
                break
        if len(grid) == 50:
            break
    accepted = 0
    for sa, sb, sc in grid:
        target = inst([16 - sa, sa], [16 - sb, sb], [16 - sc, sc], 16)
        cert = search_witness(target)
        if cert is not None and verify_membership(target, cert).accepted:
            accepted += 1
    ok = ok and accepted == 50

    elapsed = time.perf_counter() - t0
    report(4, ok, elapsed, 300,
           f"3 facets; 10⁴ samples inside (margin ≥ {worst:.1e}); "
           f"{accepted}/50 interior witnesses verified")


def test_criterion_5_oracle_consistency():
    t0 = time.perf_counter()
    system = enumerate_ressayre(2).nontrivial

    violations = 0
    positive = 0
    for k in range(1, 9):
        two_rows = [p for p in partitions(k) if len(p) <= 2]
        for rows_a in two_rows:
            for rows_b in two_rows:
                for rows_c in two_rows:
                    g = kron_coeff(
                        parse_young(rows_a), parse_young(rows_b), parse_young(rows_c)
                    )
                    if g == 0:
                        continue
                    positive += 1
                    rows = inst(rows_a, rows_b, rows_c, k, m=2).padded_rows()
                    flat = [Fraction(x, k) for row in rows for x in row]
                    for e in system:
                        coeffs = [v for block in e.h.blocks for v in block]
                        value = sum(c * x for c, x in zip(coeffs, flat))
                        if value < e.h.z:
                            violations += 1
    ok = violations == 0 and positive > 0

    delta_ok = True
    for k in range(1, 7):
        parts = [parse_young(p) for p in partitions(k)]
        triv = parse_young([k])
        for lam in parts:
            for mu in parts:
                expected = 1 if lam == mu else 0
                if kron_coeff(lam, mu, triv) != expected:
                    delta_ok = False
    ok = ok and delta_ok

    perm_ok = True
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(2, 6)
        parts = list(partitions(k))
        triple = tuple(parse_young(rng.choice(parts)) for _ in range(3))
        base = kron_coeff(*triple)
        for perm in permutations(triple):
            if kron_coeff(*perm) != base:
                perm_ok = False
    ok = ok and perm_ok

    elapsed = time.perf_counter() - t0
    report(5, ok, elapsed, 300,
           f"{positive} positive triples inside all inequalities; "
           "delta and permutation identities hold")


def test_criterion_6_stretching_vs_unstretched():
    t0 = time.perf_counter()
    lam = parse_young([1, 1])
    ok = kron_coeff(lam, lam, lam) == 0

    one = GaussianRational(F(1), F(0))
    ghz = MembershipCertificate(2, {(1, 1, 1): one, (2, 2, 2): one})
    target = inst([1, 1], [1, 1], [1, 1], 2)
    ok = ok and verify_membership(target, ghz).accepted
    ok = ok and semigroup_member(target, l_max=4) == 2

    elapsed = time.perf_counter() - t0
    report(6, ok, elapsed, 1,
           "unstretched multiplicity 0, yet both membership routes certify the point")


def test_criterion_7_bound_suite():
    t0 = time.perf_counter()

    def slow_pow(base, exp):
        out = 1
        for _ in range(exp):
            out *= base
        return out

    def ind_required_bits(m, k):
        target = 5625 * slow_pow(m, 3) * slow_pow(2 * k, 4) * slow_pow(4 * m, 16 * m)
        b = 2
        while (1 << (2 * b)) < target:
            b += 2
        return b

    rng = random.Random(77)
    ks = sorted(
        {1, 2, 3, 5, 8, 16, 100, 1024, 65535, 65536}
        | {rng.randint(1, 65536) for _ in range(50)}
    )
    ok = True
    for m in range(1, 9):
        p4 = slow_pow(4 * m, 4 * m)
        ok = ok and siegel_bound(m) == slow_pow(4 * m, 3 * m)
        for k in ks:
            ok = ok and min_gap(m, k) == F(1, k * p4)
            ok = ok and accept_threshold2(m, k) == F(1, (2 * k * p4) ** 2)
            ok = ok and required_bits(m, k) == ind_required_bits(m, k)

    gen = np.random.default_rng(123)
    trunc_ok = True
    for m in (2, 3):
        dim = m**3
        for b in (8, 16, 24):
            vec_bound = (2 * dim) ** 0.5 * 2.0**-b
            marg_bound = 5.0 * m**0.75 * 2.0 ** (-b / 2)
            for _ in range(100):
                v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
                v /= np.linalg.norm(v)
                cert = truncate(v, b)
                zero = GaussianRational()
                as_floats = [
                    complex(float(q.re), float(q.im))
                    for q in (cert.entries.get(w, zero) for w in weights(m))
                ]
                trunc_ok = trunc_ok and (
                    np.linalg.norm(np.array(as_floats) - v) <= vec_bound
                )
                rho = reduced_densities(cert)
                exact = [
                    np.array([[complex(re / rho.den, im / rho.den) for re, im in row]
                              for row in gram])
                    for gram in rho.grams
                ]
                t = v.reshape(m, m, m)
                floats = (
                    np.einsum("abc,dbc->ad", t, t.conj()),
                    np.einsum("abc,adc->bd", t, t.conj()),
                    np.einsum("abc,abd->cd", t, t.conj()),
                )
                for e_mat, f_mat in zip(exact, floats):
                    trunc_ok = trunc_ok and (
                        np.linalg.norm(e_mat - f_mat) <= marg_bound
                    )
    ok = ok and trunc_ok

    elapsed = time.perf_counter() - t0
    report(7, ok, elapsed, 60,
           f"bounds match independent reimplementation for m≤8 over {len(ks)} k values; "
           "truncation bounds hold on 600 unit vectors")


def test_criterion_8_evaluation_point_search(enumerate_once):
    t0 = time.perf_counter()
    checked = 0
    failures = 0
    for m in (2, 3):
        fs = enumerate_once(m)
        for elem in fs.nontrivial:
            for seed in range(10):
                checked += 1
                if find_point(elem.h, m, seed=seed, trials=10) is None:
                    failures += 1
    elapsed = time.perf_counter() - t0
    report(8, failures == 0 and checked > 0, elapsed, 600,
           f"{checked} (element, seed) pairs all found a point within 10 trials")
