import random
from fractions import Fraction

import pytest

from kronkit.errors import KronkitError
from kronkit.scalars import (
    GaussianRational,
    as_fraction,
    format_rational,
    json_int,
    json_ints,
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


def test_single_parse_as_fraction_refuses_what_it_refused():
    # the Fraction is built from the regex match alone, so the match must
    # still be the whole gate
    with pytest.raises(TypeError):
        as_fraction(True)
    for text in ("0.5", "1_0", "1e1000000", " 1/2", "1/-2", "+1"):
        with pytest.raises(ValueError):
            as_fraction(text)
    with pytest.raises(ZeroDivisionError):
        as_fraction("1/0")
    assert as_fraction("-6/4") == Fraction(-3, 2)
    assert as_fraction("0/7") == 0 and as_fraction("-0") == 0


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
        with pytest.raises(KronkitError, match="expected an integer"):
            json_int(bad)


def test_json_ints_reads_a_list_of_integers_only():
    assert json_ints([1, -2, 2**70], "p") == (1, -2, 2**70)
    assert json_ints([], "p") == ()
    # each entry goes through json_int's refusal
    for bad in ([1, True], [2.0], [1, "3"]):
        with pytest.raises(KronkitError, match="expected an integer"):
            json_ints(bad, "p")
    for bad, kind in (("abc", "str"), ({"a": 1}, "dict"), (3, "int")):
        with pytest.raises(KronkitError, match=f"^p must be a list, got {kind}$"):
            json_ints(bad, "p")
