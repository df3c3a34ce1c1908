import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kronkit.diagrams import make_instance, parse_young
from kronkit.errors import (
    IndexOutOfRange,
    MalformedInput,
    NotHermitian,
    ShapeMismatch,
    TruncatedToZero,
    ZeroVector,
)
from kronkit.marginals import (
    MembershipCertificate,
    accept_threshold2,
    frobenius_gap2,
    reduced_densities,
    required_bits,
    sorted_spectrum,
    truncate,
    verify_membership,
)
from kronkit.ressayre import Decision, Reason
from kronkit.scalars import GaussianRational

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


def test_certificate_validation():
    with pytest.raises(IndexOutOfRange):
        cert_from(2, {(1, 3, 1): (1,)})
    with pytest.raises(ZeroVector):
        cert_from(2, {(1, 1, 1): (0,)})
    # zero entries are dropped, nonzero ones survive
    c = cert_from(2, {(1, 1, 1): (1,), (2, 2, 2): (0,)})
    assert list(c.entries) == [(1, 1, 1)]


def test_norm2_and_scaling():
    c = ghz()
    assert c.norm2() == 2
    scaled = c.scaled(GR(3, 4))
    assert scaled.norm2() == 2 * 25


def test_ghz_densities_are_maximally_mixed():
    rho = reduced_densities(ghz())
    half = GR(F(1, 2))
    zero = GR(0)
    for mat in rho.matrices:
        assert mat == ((half, zero), (zero, half))


def test_bell_e1_densities():
    rho = reduced_densities(bell_e1())
    half, zero, one = GR(F(1, 2)), GR(0), GR(1)
    assert rho.rho_a == ((half, zero), (zero, half))
    assert rho.rho_b == ((half, zero), (zero, half))
    assert rho.rho_c == ((one, zero), (zero, zero))


def test_product_state_densities():
    rho = reduced_densities(cert_from(1, {(1, 1, 1): (F(2, 3),)}))
    assert rho.rho_a == ((GR(1),),)


def test_densities_invariant_under_rescaling():
    c = bell_e1()
    for factor in (GR(3), GR(F(-2, 7)), GR(1, 2)):
        assert reduced_densities(c.scaled(factor)) == reduced_densities(c)


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
        for mat in rho.matrices:
            trace = sum((mat[r][r].re for r in range(m)), F(0))
            assert trace == 1
            assert all(mat[r][r].im == 0 for r in range(m))
            for r in range(m):
                for s in range(m):
                    assert mat[r][s] == mat[s][r].conjugate()


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
        exact = reduced_densities(cert).to_numpy()
        floats = float_densities(cert.to_complex_array(), m)
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


def test_verify_membership_verdicts():
    v = verify_membership(inst([1, 1], [1, 1], [1, 1], 2), ghz())
    assert v.decision is Decision.ACCEPT and v.reason is Reason.IN_THRESHOLD

    v = verify_membership(inst([1, 1], [1, 1], [2], 2), bell_e1())
    assert v.accepted

    v = verify_membership(inst([2], [2], [2], 2, m=2), bell_e1())
    assert v.decision is Decision.REJECT
    assert v.reason is Reason.OUT_OF_THRESHOLD


def test_verify_membership_shape_mismatch():
    with pytest.raises(ShapeMismatch):
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

    with pytest.raises(TruncatedToZero):
        truncate([1e-9], 8)
    with pytest.raises(ShapeMismatch):
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
                exact = reduced_densities(cert).to_numpy()
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
        for mat, rows in zip(rho.to_numpy(), target.padded_rows()):
            spec = sorted_spectrum(mat)
            goal = np.array([r / target.k for r in rows])
            per_subsystem += float(np.sum((spec - goal) ** 2))
        assert per_subsystem <= gap2 + 1e-9


def test_sorted_spectrum_examples():
    spec = sorted_spectrum(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(spec, [1.0, 0.0])
    spec = sorted_spectrum(np.diag([0.25, 0.75]))
    assert np.allclose(spec, [0.75, 0.25])
    with pytest.raises(NotHermitian):
        sorted_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
        with pytest.raises(MalformedInput):
            MembershipCertificate.from_json(obj)
