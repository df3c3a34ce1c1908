import dataclasses

import numpy as np
import pytest

from kronkit.diagrams import KronInstance, make_instance, parse_young
from kronkit.errors import KronkitError


def test_parse_young_valid():
    d = parse_young([2, 1])
    assert d.boxes == 3 and d.height == 2
    d = parse_young([3])
    assert d.boxes == 3 and d.height == 1


class Row:
    """An integer-like row length with no arithmetic but ``__index__``."""

    def __index__(self):
        return 2


def test_parse_young_refuses_what_operator_index_takes():
    # a row is a plain int, as in every reader: nothing is converted
    for row in (Row(), np.int64(2), True):
        with pytest.raises(KronkitError, match="row length .* is not an integer"):
            parse_young([row, 1])


def test_parse_young_rejects():
    with pytest.raises(KronkitError, match="not weakly decreasing"):
        parse_young([1, 2])
    with pytest.raises(KronkitError, match="row length 0 is not strictly positive"):
        parse_young([2, 0])
    with pytest.raises(KronkitError, match="row length -1 is not strictly positive"):
        parse_young([-1])
    with pytest.raises(KronkitError, match="needs at least one row"):
        parse_young([])
    # rows are not converted: a float, a string or a bool is refused by name
    with pytest.raises(KronkitError, match="row length 2.9 is not an integer"):
        parse_young([2.9, 1.2])
    with pytest.raises(KronkitError, match="row length '3' is not an integer"):
        parse_young(["3", "1"])
    with pytest.raises(KronkitError, match="row length True is not an integer"):
        parse_young([True])
    with pytest.raises(KronkitError, match="row length 2.0 is not an integer"):
        parse_young([3, 2.0])


def test_parse_serialize_identity():
    for rows in [[2, 1], [3], [5, 5, 2, 1], [1, 1, 1, 1]]:
        assert parse_young(rows).serialize() == rows
        assert parse_young(parse_young(rows).serialize()).rows == tuple(rows)


def test_make_instance_default_m():
    inst = make_instance(parse_young([2]), parse_young([2]), parse_young([1, 1]), 2)
    assert inst.m == 2 and not inst.m_overridden


def test_make_instance_box_mismatch():
    with pytest.raises(KronkitError, match="has 2 boxes, expected 3"):
        make_instance(parse_young([2]), parse_young([2]), parse_young([1, 1]), 3)


def test_make_instance_override_padding():
    inst = make_instance(
        parse_young([1]), parse_young([1]), parse_young([1]), 1, m_override=2
    )
    assert inst.m == 2 and inst.m_overridden
    assert inst.padded_rows() == ((1, 0), (1, 0), (1, 0))
    with pytest.raises(KronkitError, match="cannot pad height-2 diagram to length 1"):
        parse_young([2, 1]).padded(1)
    with pytest.raises(KronkitError, match="m=1 is below the maximum height 2"):
        make_instance(
            parse_young([1, 1]), parse_young([2]), parse_young([2]), 2, m_override=1
        )


def test_kron_instance_checks_its_invariants():
    one, two, pair = parse_young([1]), parse_young([2]), parse_young([1, 1])
    with pytest.raises(KronkitError, match="diagram \\(2\\) has 2 boxes, expected 3"):
        KronInstance(two, two, pair, 3, 2)
    with pytest.raises(KronkitError, match="m=1 is below the maximum height 2"):
        KronInstance(pair, two, two, 2, 1)
    inst = make_instance(pair, two, two, 2)
    assert inst.height == inst.m == 2
    with pytest.raises(KronkitError, match="m=1 is below the maximum height 2"):
        dataclasses.replace(inst, m=1)
    with pytest.raises(KronkitError, match="diagram \\(1\\) has 1 boxes, expected 2"):
        dataclasses.replace(inst, lambda_A=one)
    for k, m, bad in ((2.0, 2, "2.0"), (2, 2.0, "2.0"), (True, 2, "True")):
        with pytest.raises(KronkitError, match=f"expected an integer, got {bad}"):
            KronInstance(pair, two, two, k, m)


def test_height_is_the_natural_rank_under_an_override():
    inst = make_instance(parse_young([2, 1]), parse_young([3]), parse_young([1, 1, 1]), 3,
                         m_override=5)
    assert inst.height == 3 and inst.m == 5 and inst.m_overridden
    assert dataclasses.replace(inst, m=inst.height).m_overridden is False


def test_instance_json_round_trip():
    inst = make_instance(
        parse_young([1]), parse_young([1]), parse_young([1]), 1, m_override=2
    )
    again = KronInstance.from_json(inst.to_json())
    assert again == inst and again.m == 2
    plain = make_instance(parse_young([2]), parse_young([2]), parse_young([1, 1]), 2)
    assert "m" not in plain.to_json()  # only overrides are flagged
    assert KronInstance.from_json(plain.to_json()) == plain

