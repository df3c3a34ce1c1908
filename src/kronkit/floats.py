"""Every float computation in kronkit: the witness scaling and the sampler.

The only module that imports numpy, loaded only where a float runs: by
``search.search_witness`` once its exact route misses and the float64 floor
admits a scaling, and by ``kronkit sample``.  One scaling serves both
float routes: the face route steers each marginal within the blocks of a
hyperplane's level set, and the plain route is the same scaling for the
zero hyperplane, whose level set is all of [m]³.  A scaled vector counts
only once ``marginals.truncate`` and the exact ``verify_membership`` have
passed it.
"""

from __future__ import annotations

import numpy as np

from .diagrams import KronInstance
from .weights import HyperplaneCandidate, check_weight_cap

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


def _step(rho: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The matrix taking the spectrum of rho, non-increasing, onto target."""
    vals, vecs = np.linalg.eigh(rho)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # non-increasing, aligned
    factors = np.sqrt(target / np.maximum(vals, 1e-30))
    # rotate the eigenbasis onto the standard basis, then rescale there
    return np.diag(factors) @ vecs.conj().T


def _scaling_pass(
    psi: np.ndarray, targets: list[np.ndarray], blocks: list[list[tuple]]
) -> np.ndarray:
    """One alternating pass steering each marginal toward its target.

    ``blocks[axis]`` partitions the leg's indices, each block I given as
    (I, np.ix_(I, I)).  Each block of ρ_X is scaled by itself, its
    eigenvalues mapped onto λ_X[I], so the step is block-diagonal.
    """
    for axis in range(3):
        rho = _marginal(psi, axis)
        mat = np.zeros_like(rho)
        for idx, grid in blocks[axis]:
            mat[grid] = _step(rho[grid], targets[axis][idx])
        psi = _apply_leg(psi, mat, axis)
        psi = psi / np.linalg.norm(psi)
    return psi


def scale(
    inst: KronInstance, seed: int, stop: float, h: HyperplaneCandidate
) -> np.ndarray:
    """The flat m³ vector of one seeded scaling within the face of (H, z).

    Alternating passes run from one start drawn from ``seed`` until the
    float gap² is at most ``stop``, or for ``MAX_SCALING_ITERS`` passes.
    The start is zeroed off the level set {(i,j,l) : H_A[i] + H_B[j] +
    H_C[l] = z} and each leg is scaled within the blocks of equal entries of
    H_X.  Two level-set indices that share the other two legs have equal
    h_X, so every marginal is block-diagonal, each step is too, and the
    support stays on the level set: the scaling runs in the face that (H, z)
    cuts out.  The zero hyperplane's level set is all of [m]³, with one
    block per leg: that is the plain scaling.
    """
    targets = [np.array(row) / inst.k for row in inst.padded_rows()]
    psi = _random_state(np.random.default_rng(seed), inst.m)
    ha, hb, hc = (np.array(block) for block in h.blocks)
    psi = psi * (ha[:, None, None] + hb[None, :, None] + hc[None, None, :] == h.z)
    blocks = []
    for hx, block in zip((ha, hb, hc), h.blocks):
        # not np.unique, which loads numpy.ma (about 1.7 MiB)
        indices = [np.flatnonzero(hx == v) for v in sorted(set(block))]
        # each grid built once: np.ix_ costs about a marginal's time per call
        blocks.append([(idx, np.ix_(idx, idx)) for idx in indices])
    for _ in range(MAX_SCALING_ITERS):
        psi = _scaling_pass(psi, targets, blocks)
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
