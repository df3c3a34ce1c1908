"""The Monte-Carlo spectra sampler: kronkit's one float computation.

Standard library only; no certificate is found or checked here."""

import random
from math import copysign, fsum, hypot, sqrt

from .marginals import _grams
from .weights import weights


def eigvalsh(a: list[list[complex]]) -> tuple[float, ...]:
    """The eigenvalues of a Hermitian matrix, non-increasing, by cyclic Jacobi.

    Rotations zero the off-diagonal entries in turn, overwriting ``a``, until
    none is left above rounding next to the Frobenius norm, which they keep."""
    norm = sqrt(fsum(abs(x) ** 2 for row in a for x in row))
    pairs = [(p, q) for q in range(len(a)) for p in range(q)]
    rotated = True
    while rotated:
        rotated = False
        for p, q in pairs:
            ap, aq = a[p], a[q]
            r = abs(ap[q])
            if not norm + r > norm:  # also ends on a nan or an infinity
                continue
            # the phase e makes ap[q] = r real, then a real rotation zeroes it
            rotated, e = True, ap[q].conjugate() / r
            tau = (aq[q].real - ap[p].real) / (2 * r)
            t = copysign(1.0, tau) / (abs(tau) + hypot(1.0, tau))
            c, s = 1 / hypot(1.0, t), t / hypot(1.0, t)
            ap[p], aq[q], ap[q], aq[p] = ap[p] - t * r, aq[q] + t * r, 0j, 0j
            for k, ak in enumerate(a):
                if k != p and k != q:
                    kp, kq = ak[p], ak[q] * e
                    ak[p], ak[q] = c * kp - s * kq, s * kp + c * kq
                    ap[k], aq[k] = ak[p].conjugate(), ak[q].conjugate()
    return tuple(sorted((row[i].real for i, row in enumerate(a)), reverse=True))


def sample_spectra(m: int, n: int, seed: int = 0) -> list[tuple[tuple[float, ...], ...]]:
    """n spectra triples of seeded Gaussian random vectors, non-increasing.

    ``random.Random(seed)`` draws each amplitude, real part first, in canonical
    weight order.  Ranks above the weight cap raise KronkitError.
    """
    phi, gauss, out = weights(m), random.Random(seed).gauss, []
    for _ in range(n):
        grams = _grams([(w, gauss(0.0, 1.0), gauss(0.0, 1.0)) for w in phi], m)
        norm2 = sum(grams[0][r][r][0] for r in range(m))
        out.append(tuple(
            eigvalsh([[complex(*z) / norm2 for z in row] for row in g]) for g in grams
        ))
    return out


def spectra_csv(samples: list[tuple[tuple[float, ...], ...]]) -> str:
    """CSV serialization: one row of 3m floats per sample."""
    return "\n".join(",".join(repr(x) for s in triple for x in s) for triple in samples) + "\n"
