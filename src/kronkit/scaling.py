"""Fixed-point scaling: the witness search where no free support reaches.

A complex vector ψ on [r]³ is stored as Python integers, its real and
imaginary parts times 2^P.  One pass steps each leg X in turn, within each
block I of equal entries of H_X.  One Jacobi sweep of ρ_X[I, I] gives an
approximate eigenframe Q with eigenvalues e, and the step
diag(√(λ_X[I]/(k·e)))·Q maps each eigendirection onto a standard basis
vector with its target weight, the largest eigenvalue onto the largest
target.  This is the alternating scaling of Bürgisser–Franks–Garg–
Oliveira–Walter–Wigderson (FOCS 2018) with an eigenbasis step in place of
their Cholesky (Borel) step, which needs several times the passes, with a
long tail over seeds (``BENCH_witness.json``, ``integer_scaling``).  The
leg's previous step left ρ_X diagonal, so one sweep from the identity is
close to an exact eigendecomposition.

The start is drawn by ``random.Random(seed).getrandbits`` over [r]³ in
lexicographic order, real part first, and zeroed off the level set of
(H, z) (``weights.split_weights``) and on every row whose target is 0.
It is complex because a real start can fall into a real orbit whose closure
misses the target, and then the scaling stalls.  Two level-set indices
that share the other two legs have equal h_X, so every marginal is
block-diagonal, each step is too, and the support stays on the level set:
the scaling runs in the face that (H, z) cuts out.  The zero hyperplane's
level set is all of [r]³, with one block per leg: that is the plain
scaling.  Nothing here is a float, so a seed gives the same vector on every
machine; the caller's exact verifier decides whether it is a witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from operator import mul

from .weights import HyperplaneCandidate, split_weights, weights

# Passes of one seeded scaling: every plain and face point of the m = 3
# sweep (k ≤ 12) stops within 337 and 81 passes at seeds 0–9
# (BENCH_witness.json, integer_scaling).
MAX_PASSES = 400

# Bits carried below the certificate's precision while the scaling runs.
GUARD_BITS = 32

# One block of a leg, per row: λ_i·2^{4P}/k (over an eigenvalue of 2^{2P}·ρ,
# the squared step factor at 2^{2P}), λ_i·2^{2P} (the target of k·2^{2P}·ρ's
# diagonal entry), and the positions in ψ of the row's entries, one per
# traced-out pair, in the same pair order for every row.
Block = tuple[list[int], list[int], list[list[int]]]


def _legs(
    rows: tuple[tuple[int, ...], ...],
    k: int,
    h: HyperplaneCandidate,
    support: list[tuple[int, int, int]],
    precision: int,
) -> list[list[Block]]:
    """Each leg's fiber table: its blocks, each with its targets and rows."""
    position = {s: p for p, s in enumerate(support)}
    legs = []
    for axis in range(3):
        others = [x for x in range(3) if x != axis]
        blocks = []
        for value in sorted(set(h.blocks[axis])):
            indices = [
                i for i, (lam, hx) in enumerate(zip(rows[axis], h.blocks[axis]), 1)
                if lam and hx == value
            ]
            if not indices:
                continue
            pairs = sorted({
                (s[others[0]], s[others[1]]) for s in support if s[axis] == indices[0]
            })
            positions = []
            for i in indices:
                row = []
                for a, b in pairs:
                    s = [0, 0, 0]
                    s[axis], s[others[0]], s[others[1]] = i, a, b
                    row.append(position[tuple(s)])
                positions.append(row)
            lam = [rows[axis][i - 1] for i in indices]
            blocks.append((
                [(x << 4 * precision) // k for x in lam],
                [x << 2 * precision for x in lam],
                positions,
            ))
        legs.append(blocks)
    return legs


def _grams(re: list[int], im: list[int], leg: list[Block]) -> list:
    """2^{2P}·ρ_X[I, I] for each block I of a leg, with the block's rows.

    Row a of a block, x + iy over the traced-out pairs, is held as x ++ y,
    so that Re ρ_ab = (x_a ++ y_a)·(x_b ++ y_b) and Im ρ_ab = (y_a ++ −x_a)·
    (x_b ++ y_b), each one C-level dot product.  Each block gives the real
    and imaginary parts of ρ and its rows.
    """
    out = []
    for _, _, positions in leg:
        rows = [
            list(map(re.__getitem__, row)) + list(map(im.__getitem__, row))
            for row in positions
        ]
        half = len(positions[0])
        n = len(rows)
        gr = [[0] * n for _ in range(n)]
        gi = [[0] * n for _ in range(n)]
        for a, row in enumerate(rows):
            turned = row[half:] + [-v for v in row[:half]]
            for b in range(a + 1):
                gr[a][b] = gr[b][a] = sum(map(mul, row, rows[b]))
                if a != b:
                    gi[a][b] = sum(map(mul, turned, rows[b]))
                    gi[b][a] = -gi[a][b]
        out.append((gr, gi, rows))
    return out


def _deviation(k: int, leg: list[Block], grams) -> int:
    """(k·2^{2P})² times the squared Frobenius distance of ρ_X to its target."""
    total = 0
    for (_, diag, _), (gr, gi, _) in zip(leg, grams):
        for a, (row_r, row_i) in enumerate(zip(gr, gi)):
            off = sum(g * g for g in row_r) + sum(g * g for g in row_i) - row_r[a] ** 2
            total += k * k * off + (k * row_r[a] - diag[a]) ** 2
    return total


def _eigenframe(gr, gi, precision: int):
    """An approximate eigenbasis of the Hermitian 2^{2P}·ρ: one Jacobi sweep.

    Returns the frame's rows Q (real and imaginary parts, at 2^P) and the
    diagonal of Q·ρ·Qᴴ, both sorted by that diagonal, non-increasing.  Each
    pair (p, q) is rotated by the unitary [[c, −σ], [σ̄, c]] that zeroes
    a[p][q]: with a[p][q] = |a|·w and d = a[q][q] − a[p][p], σ = c·t·w,
    t = 2|a|·sign(d)/(|d| + √(d² + 4|a|²)) and c = 1/√(1 + t²).  ρ has just
    been steered to a diagonal target by this leg's last step, so one sweep
    from the identity is close to exact.
    """
    n, one = len(gr), 1 << precision
    ar = [row[:] for row in gr]
    ai = [row[:] for row in gi]
    qr = [[one * (a == b) for b in range(n)] for a in range(n)]
    qi = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            xr, xi = ar[p][q], ai[p][q]
            if not (xr or xi):
                continue
            d = ar[q][q] - ar[p][p]
            root = abs(d) + isqrt(d * d + 4 * (xr * xr + xi * xi))
            sign = 2 if d >= 0 else -2
            tr, ti = (sign * xr << precision) // root, (sign * xi << precision) // root
            c = (one * one) // isqrt(one * one + tr * tr + ti * ti)
            sr, si = (tr * c) >> precision, (ti * c) >> precision
            shift = (tr * xr + ti * xi) >> precision  # t·|a|
            ar[p][p] -= shift
            ar[q][q] += shift
            ar[p][q] = ar[q][p] = ai[p][q] = ai[q][p] = 0
            for x in range(n):
                if x == p or x == q:
                    continue
                pr, pi, ur, ui = ar[x][p], ai[x][p], ar[x][q], ai[x][q]
                ar[x][p] = ar[p][x] = (c * pr - sr * ur - si * ui) >> precision
                ai[x][p] = (c * pi - sr * ui + si * ur) >> precision
                ai[p][x] = -ai[x][p]
                ar[x][q] = ar[q][x] = (sr * pr - si * pi + c * ur) >> precision
                ai[x][q] = (sr * pi + si * pr + c * ui) >> precision
                ai[q][x] = -ai[x][q]
            pr, pi, ur, ui = qr[p], qi[p], qr[q], qi[q]
            qr[p] = [(c * a - sr * b + si * e) >> precision for a, b, e in zip(pr, ur, ui)]
            qi[p] = [(c * a - sr * b - si * e) >> precision for a, b, e in zip(pi, ui, ur)]
            qr[q] = [(sr * a + si * b + c * e) >> precision for a, b, e in zip(pr, pi, ur)]
            qi[q] = [(sr * a - si * b + c * e) >> precision for a, b, e in zip(pi, pr, ui)]
    order = sorted(range(n), key=lambda i: -ar[i][i])
    return [qr[i] for i in order], [qi[i] for i in order], [ar[i][i] for i in order]


def _step(re, im, leg: list[Block], grams, precision: int) -> bool:
    """Step each block of a leg; False if a block's ρ is singular (to rounding).

    The step is diag(√(λ_i/(k·e_i)))·Q, with Q and e the block's eigenframe
    and eigenvalues (``_eigenframe``): it maps each eigendirection of ρ onto
    a standard basis vector and scales it to its target, the largest first.
    """
    for (targets, _, positions), (gr, gi, rows) in zip(leg, grams):
        qr, qi, eig = _eigenframe(gr, gi, precision)
        if eig[-1] << precision <= sum(eig):  # singular, up to rounding
            return False
        half = len(positions[0])
        # ψ's columns over the block, one per traced-out pair, as x ++ y
        columns = list(zip(*(row[:half] for row in rows), *(row[half:] for row in rows)))
        for places, target, fr, fi, e in zip(positions, targets, qr, qi, eig):
            f = isqrt(target // e)  # √(λ_i/(k·e_i))·2^P
            mr = [(f * v) >> precision for v in fr]
            mi = [(f * v) >> precision for v in fi]
            real = mr + [-v for v in mi]
            imag = mi + mr
            new_re = [sum(map(mul, real, column)) >> precision for column in columns]
            new_im = [sum(map(mul, imag, column)) >> precision for column in columns]
            for p, x, y in zip(places, new_re, new_im):
                re[p] = x
                im[p] = y
    return True


def _pass(re, im, legs, grams_a, precision: int) -> bool:
    """One pass: leg A with its Gram blocks given, then legs B and C."""
    if not _step(re, im, legs[0], grams_a, precision):
        return False
    return all(_step(re, im, leg, _grams(re, im, leg), precision) for leg in legs[1:])


def scale(
    rows: tuple[tuple[int, ...], ...],
    k: int,
    h: HyperplaneCandidate,
    seed: int,
    bits: int,
    stop: Fraction,
) -> dict[tuple[int, int, int], tuple[int, int]] | None:
    """One seeded scaling within the face of (H, z), shifted down to ``bits``.

    ``rows`` are the three diagrams padded to the rank r of ``h``; the
    start keeps the on-level weights of ``split_weights(h, r)``.  The
    scaling runs at P = ``bits + GUARD_BITS`` bits until its gap², the
    integer squared Frobenius distance of the three marginals to λ/k, is at
    most ``stop``, or for ``MAX_PASSES`` passes.  Returns the nonzero entries
    (1-based (i,j,l)) of ψ·2^bits as (real, imaginary) pairs, or None when it
    does not stop or a block's Gram matrix is singular (the level set cannot
    carry the targets).  Each leg's fiber table is built once.  The stop
    test reuses ρ_A for the next pass's first step, and computes ρ_B and ρ_C
    only once the legs before them are within ``stop``.
    """
    precision = bits + GUARD_BITS
    limit = stop.numerator * (k << 2 * precision) ** 2 // stop.denominator
    rng = random.Random(seed)
    on = set(split_weights(h, h.m)[0])
    support, re, im = [], [], []
    for w in weights(h.m):
        x = rng.getrandbits(precision + 1) - (1 << precision)
        y = rng.getrandbits(precision + 1) - (1 << precision)
        if w in on and all(row[t - 1] for row, t in zip(rows, w)):
            support.append(w)
            re.append(x)
            im.append(y)
    legs = _legs(rows, k, h, support, precision)
    grams_a = _grams(re, im, legs[0])
    for _ in range(MAX_PASSES):
        if not _pass(re, im, legs, grams_a, precision):
            return None
        grams_a = _grams(re, im, legs[0])
        gap = _deviation(k, legs[0], grams_a)
        for leg in legs[1:]:
            if gap > limit:
                break
            gap += _deviation(k, leg, _grams(re, im, leg))
        if gap <= limit:
            return {
                s: (x >> GUARD_BITS, y >> GUARD_BITS)
                for s, x, y in zip(support, re, im)
                if x >> GUARD_BITS or y >> GUARD_BITS
            }
    return None
