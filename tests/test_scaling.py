"""The fixed-point scaling's safety exits, which no decided point reaches."""

from kronkit import scaling
from kronkit.marginals import accept_threshold2, required_bits
from kronkit.weights import HyperplaneCandidate


def test_singular_block_gram_ends_the_scaling(monkeypatch):
    # the level set of (H, z) is {(1,1,1), (2,1,1)}: leg A's block {1, 2}
    # has a single traced-out pair, so its Gram matrix has rank one, the
    # first step refuses it, and the scaling gives up after one pass
    passes = 0
    real_pass = scaling._pass

    def counted(*args):
        nonlocal passes
        passes += 1
        return real_pass(*args)

    monkeypatch.setattr(scaling, "_pass", counted)
    h = HyperplaneCandidate((0, 0), (1, -1), (1, -1), 2)
    stop = accept_threshold2(2, 2) / 4
    assert scaling.scale(((1, 1),) * 3, 2, h, 0, required_bits(2, 2), stop) is None
    assert passes == 1


def test_eigenframe_skips_an_uncoupled_pair():
    # equal diagonal entries and no coupling: the rotation would divide by
    # 0 = |d| + √(d² + 4|a|²), so the pair is left alone and the frame is
    # the identity at 2^P
    precision, c = 40, 3 << 70
    qr, qi, eig = scaling._eigenframe([[c, 0], [0, c]], [[0, 0], [0, 0]], precision)
    one = 1 << precision
    assert qr == [[one, 0], [0, one]]
    assert qi == [[0, 0], [0, 0]]
    assert eig == [c, c]
