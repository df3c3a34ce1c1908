"""Every float computation in kronkit: the witness scaling and the sampler.

The only module that imports numpy, loaded only where a float runs: by
``search.search_witness`` once its exact route misses and the float64 floor
admits a scaling, and by ``kronkit sample``.  A scaled vector counts only once
``marginals.truncate`` and the exact ``verify_membership`` have passed it.
"""

from __future__ import annotations

import numpy as np

from .diagrams import KronInstance
from .weights import check_weight_cap

# Alternating scaling passes of the float fallback's one seeded start.
MAX_SCALING_ITERS = 400


def _random_state(rng: np.random.Generator, m: int) -> np.ndarray:
    """A unit complex Gaussian m×m×m tensor, real part drawn first."""
    psi = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
    return psi / np.linalg.norm(psi)


def _marginal(psi: np.ndarray, axis: int) -> np.ndarray:
    specs = [("abc,dbc->ad"), ("abc,adc->bd"), ("abc,abd->cd")]
    return np.einsum(specs[axis], psi, psi.conj())


def _apply_leg(psi: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(
        np.tensordot(mat, psi, axes=([1], [axis])), 0, axis
    )


def _scaling_pass(psi: np.ndarray, targets: list[np.ndarray]) -> np.ndarray:
    """One alternating pass steering each marginal toward its target."""
    for axis in range(3):
        rho = _marginal(psi, axis)
        vals, vecs = np.linalg.eigh(rho)
        vals, vecs = vals[::-1], vecs[:, ::-1]  # non-increasing, aligned
        factors = np.sqrt(targets[axis] / np.maximum(vals, 1e-30))
        # rotate the eigenbasis onto the standard basis, then rescale there
        mat = np.diag(factors) @ vecs.conj().T
        psi = _apply_leg(psi, mat, axis)
        psi = psi / np.linalg.norm(psi)
    return psi


def scale(inst: KronInstance, seed: int, stop: float) -> np.ndarray:
    """The flat m³ vector of one seeded scaling toward the instance's spectra.

    Alternating passes run from one start drawn from ``seed`` until the
    float gap² is at most ``stop``, or for ``MAX_SCALING_ITERS`` passes.
    """
    m = inst.m
    targets = [np.array(row) / inst.k for row in inst.padded_rows()]
    psi = _random_state(np.random.default_rng(seed), m)
    for _ in range(MAX_SCALING_ITERS):
        psi = _scaling_pass(psi, targets)
        gap2 = sum(
            float((np.abs(_marginal(psi, axis) - np.diag(t)) ** 2).sum())
            for axis, t in enumerate(targets)
        )
        if gap2 <= stop:
            break
    return psi.ravel()


def sample_spectra(
    m: int, n: int, seed: int = 0
) -> list[tuple[tuple[float, ...], ...]]:
    """n spectra triples of seeded Gaussian random vectors, non-increasing.

    Each sample is a dense m³ vector, so ranks above the weight cap raise
    CapExceeded.
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
