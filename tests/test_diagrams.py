import itertools

import pytest

from kronkit.diagrams import KronInstance, make_instance, parse_young
from kronkit.errors import KronkitError
from kronkit.weights import weight_index


def test_parse_young_valid():
    d = parse_young([2, 1])
    assert d.boxes == 3 and d.height == 2
    d = parse_young([3])
    assert d.boxes == 3 and d.height == 1


def test_parse_young_rejects():
    with pytest.raises(KronkitError, match="not weakly decreasing"):
        parse_young([1, 2])
    with pytest.raises(KronkitError, match="row length 0 is not strictly positive"):
        parse_young([2, 0])
    with pytest.raises(KronkitError, match="row length -1 is not strictly positive"):
        parse_young([-1])
    with pytest.raises(KronkitError, match="needs at least one row"):
        parse_young([])


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


def test_normalized_point_blocks_sum_to_one():
    inst = make_instance(parse_young([3, 1]), parse_young([2, 2]), parse_young([4]), 4)
    for block in inst.normalized_point():
        assert sum(block) == 1


def test_instance_json_round_trip():
    inst = make_instance(
        parse_young([1]), parse_young([1]), parse_young([1]), 1, m_override=2
    )
    again = KronInstance.from_json(inst.to_json())
    assert again == inst and again.m == 2
    plain = make_instance(parse_young([2]), parse_young([2]), parse_young([1, 1]), 2)
    assert "m" not in plain.to_json()  # only overrides are flagged
    assert KronInstance.from_json(plain.to_json()) == plain


def test_weight_index_examples():
    assert weight_index(2, (1, 1, 1)) == 0
    assert weight_index(2, (2, 2, 2)) == 7
    assert weight_index(2, (1, 2, 1)) == 2


def test_weight_index_bijection():
    for m in (1, 2, 3, 4):
        seen = sorted(
            weight_index(m, w)
            for w in itertools.product(range(1, m + 1), repeat=3)
        )
        assert seen == list(range(m**3))


def test_weight_index_out_of_range():
    with pytest.raises(KronkitError, match=r"index 0 outside 1\.\.2"):
        weight_index(2, (0, 1, 1))
    with pytest.raises(KronkitError, match=r"index 3 outside 1\.\.2"):
        weight_index(2, (1, 3, 1))
