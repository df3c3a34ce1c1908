"""Every float computation in kronkit: the Monte-Carlo spectra sampler.

The only module that imports numpy, loaded only by ``kronkit sample`` (and
by callers of ``sample_spectra``).  No certificate is found or checked
here: the witness search scales in integers (:mod:`kronkit.scaling`), so
``decide`` and every verifier run without numpy.
"""

from __future__ import annotations

import numpy as np

from .weights import check_weight_cap


def _random_state(rng: np.random.Generator, m: int) -> np.ndarray:
    """A unit complex Gaussian m×m×m tensor, real part drawn first."""
    psi = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
    return psi / np.linalg.norm(psi)


def _marginal(psi: np.ndarray, axis: int) -> np.ndarray:
    specs = [("abc,dbc->ad"), ("abc,adc->bd"), ("abc,abd->cd")]
    return np.einsum(specs[axis], psi, psi.conj())


def sample_spectra(
    m: int, n: int, seed: int = 0
) -> list[tuple[tuple[float, ...], ...]]:
    """n spectra triples of seeded Gaussian random vectors, non-increasing.

    Each sample is a dense m³ vector, so ranks above the weight cap raise
    KronkitError.
    """
    check_weight_cap(m)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        psi = _random_state(rng, m)
        triple = tuple(
            tuple(np.linalg.eigvalsh(_marginal(psi, axis))[::-1].tolist())
            for axis in range(3)
        )
        out.append(triple)
    return out


def spectra_csv(samples: list[tuple[tuple[float, ...], ...]]) -> str:
    """CSV serialization: one row of 3m floats per sample."""
    lines = []
    for triple in samples:
        flat = [x for spectrum in triple for x in spectrum]
        lines.append(",".join(repr(x) for x in flat))
    return "\n".join(lines) + "\n"
