import random
from fractions import Fraction

import pytest

from kronkit.errors import MalformedInput
from kronkit.scalars import (
    GaussianRational,
    as_fraction,
    format_rational,
    json_int,
)


def random_fraction(rng, digits=30):
    num = rng.randint(-(10**digits), 10**digits)
    den = rng.randint(1, 10**digits)
    return Fraction(num, den)


def test_rational_round_trips_random_big():
    rng = random.Random(7)
    for _ in range(200):
        a = random_fraction(rng)
        b = random_fraction(rng)
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_rational_serialization_canonical():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(6, -14)) == "-3/7"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(5)) == "5/1"


def test_rational_parse_format_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        q = random_fraction(rng, digits=12)
        assert as_fraction(format_rational(q)) == q
    assert as_fraction("3") == 3
    assert as_fraction("-3/7") == Fraction(-3, 7)


def test_as_fraction_rejects_junk():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_as_fraction_reads_only_num_den_strings():
    # Fraction alone reads all of these; the last is a 3.3-million-bit integer
    for text in ("0.5", "+1/2", "1_0/1", " 1/2", "1/-2", "1e1000000"):
        with pytest.raises(ValueError):
            as_fraction(text)


def test_as_fraction_rejects_bool():
    # bool is an int subclass; JSON true must not read as the amplitude 1
    for value in (True, False):
        with pytest.raises(TypeError):
            as_fraction(value)


def test_gaussian_json_round_trip():
    a = GaussianRational(Fraction(-3, 7), Fraction(22, 6))
    assert a.to_json() == {"re": "-3/7", "im": "11/3"}
    assert GaussianRational.from_json(a.to_json()) == a
    assert GaussianRational().is_zero()
    assert not a.is_zero() and not GaussianRational(0, 1).is_zero()
    # omitted imaginary part reads as zero
    assert GaussianRational.from_json({"re": "2/5"}) == GaussianRational(
        Fraction(2, 5), Fraction(0)
    )


def test_json_int_takes_only_integers():
    assert json_int(7) == 7
    assert json_int(-(2**70)) == -(2**70)
    for bad in (2.9, 2.0, True, False, "3", None, [1]):
        with pytest.raises(MalformedInput):
            json_int(bad)
