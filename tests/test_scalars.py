import random
from fractions import Fraction

import pytest

from kronkit.errors import KronkitError
from kronkit.search import FacetSystem
from kronkit.scalars import (
    DIGIT_CAP,
    GaussianRational,
    decimal_int,
    format_rational,
    json_int,
    json_ints,
    json_rational,
    quoted,
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
        assert json_rational(format_rational(q)) == q
    assert json_rational("3") == 3
    assert json_rational("-3/7") == Fraction(-3, 7)


def test_json_rational_rejects_junk():
    # a JSON number is no rational: a rational is always a string
    for value in (0.5, 1, 0, None, [], {}):
        with pytest.raises(KronkitError, match="^expected a num/den string, got "):
            json_rational(value)


def test_json_rational_reads_only_num_den_strings():
    # Fraction alone reads all of these; the last is a 3.3-million-bit integer
    for text in ("0.5", "+1/2", "1_0/1", " 1/2", "1/-2", "1e1000000"):
        with pytest.raises(KronkitError, match="^expected a num/den string, got "):
            json_rational(text)


def test_single_parse_json_rational_refuses_what_it_refused():
    # the Fraction is built from the regex match alone, so the match must
    # still be the whole gate
    with pytest.raises(KronkitError):
        json_rational(True)
    for text in ("0.5", "1_0", "1e1000000", " 1/2", "1/-2", "+1"):
        with pytest.raises(KronkitError):
            json_rational(text)
    for text in ("1/0", "0/00"):
        reason = f"^rational '{text}' has a zero denominator$"
        with pytest.raises(KronkitError, match=reason):
            json_rational(text)
    assert json_rational("-6/4") == Fraction(-3, 2)
    assert json_rational("0/7") == 0 and json_rational("-0") == 0


def test_the_digit_limit_is_refused_in_kronkit_words():
    # Python's own text would advise calling sys.set_int_max_str_digits()
    reason = "^an integer exceeds the 4300-digit limit on integers$"
    past = "1" * (DIGIT_CAP + 1)
    for text in (past, "-" + past, "1/" + past, "0" + "1" * DIGIT_CAP):
        with pytest.raises(KronkitError, match=reason):
            json_rational(text)
    assert decimal_int("-" + "1" * DIGIT_CAP) == -int("1" * DIGIT_CAP)


def test_an_amplitude_past_the_cap_is_not_written():
    # to_json refuses what from_json could not read back
    nines = Fraction(-(10**DIGIT_CAP - 1), 10**DIGIT_CAP - 2)  # 4300 digits each
    at_cap = GaussianRational(nines, -nines)
    assert GaussianRational.from_json(at_cap.to_json()) == at_cap
    for part in (Fraction(10**DIGIT_CAP), Fraction(-(10**DIGIT_CAP)),
                 Fraction(1, 10**DIGIT_CAP)):
        with pytest.raises(KronkitError, match="^a rational exceeds the 4300-digit"):
            GaussianRational(Fraction(0), part).to_json()


def test_quoted_shows_a_value_on_one_short_line():
    assert quoted("") == "''" and quoted("2,1") == "'2,1'"
    assert quoted(12) == "12" and quoted(2.5) == "2.5" and quoted(None) == "None"
    assert quoted([1, 1]) == "[1, 1]" and quoted(True) == "True"
    assert quoted("x" * 21) == "'xxxxxxxxxxxxxxxxxxxx'... (21 characters)"
    assert quoted(-(10**30)) == "-1000000000000000000... (32 characters)"
    assert quoted([0] * 10) == "[0, 0, 0, 0, 0, 0, 0... (30 characters)"
    # an int past the cap is never turned into digits
    assert quoted(10**DIGIT_CAP - 1).endswith("... (4300 characters)")
    assert quoted(10**DIGIT_CAP) == "<a 14285-bit integer>"
    assert quoted(-(2**100_000)) == "<a 100001-bit integer>"


def test_json_rational_rejects_bool():
    # bool is an int subclass; JSON true must not read as the amplitude 1
    for value in (True, False):
        reason = f"^expected a num/den string, got {value}$"
        with pytest.raises(KronkitError, match=reason):
            json_rational(value)


def test_gaussian_json_round_trip():
    a = GaussianRational(Fraction(-3, 7), Fraction(22, 6))
    assert a.to_json() == {"re": "-3/7", "im": "11/3"}
    assert GaussianRational.from_json(a.to_json()) == a
    assert GaussianRational().is_zero()
    assert not a.is_zero() and not GaussianRational(Fraction(0), Fraction(1)).is_zero()
    # omitted imaginary part reads as zero
    assert GaussianRational.from_json({"re": "2/5"}) == GaussianRational(
        Fraction(2, 5), Fraction(0)
    )


def test_gaussian_rational_takes_only_fractions():
    # nothing is converted where it is built: JSON values go through json_rational
    for re, im in ((0, Fraction(1)), (Fraction(1), "0/1"), (True, Fraction(0))):
        with pytest.raises(KronkitError, match="are not both Fractions$"):
            GaussianRational(re, im)


def test_gaussian_from_json_names_a_missing_real_part():
    with pytest.raises(KronkitError, match="^missing field 're'$"):
        GaussianRational.from_json({"im": "1/2"})
    # a present imaginary part follows its type: null is no zero
    with pytest.raises(KronkitError, match="^expected a num/den string, got None$"):
        GaussianRational.from_json({"re": "1/2", "im": None})


@pytest.mark.parametrize(
    "read, value, kind",
    [
        (lambda v: FacetSystem.from_json({"m": 2, "nontrivial": [v]}), [1, 2], "list"),
        (lambda v: FacetSystem.from_json({"m": 2, "nontrivial": [v]}), "x", "str"),
        (GaussianRational.from_json, ["re"], "list"),
        (GaussianRational.from_json, "xim", "str"),
        (GaussianRational.from_json, 3, "int"),
    ],
    ids=["element-list", "element-str", "re-list", "re-str", "re-int"],
)
def test_a_value_that_is_no_object_is_refused_by_json_field(read, value, kind):
    # a list or a string holding a field's name, or a number: Python's
    # TypeError does not reach the reader's caller
    with pytest.raises(KronkitError, match=f"^expected an object, got {kind}$"):
        read(value)


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
