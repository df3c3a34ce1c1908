"""Independent ground truth: symmetric-group characters and tensor-product
multiplicities.

This module is deliberately self-contained — it shares no combinatorics with
the verifier modules, so agreement between the two routes is meaningful
evidence rather than a tautology.

Characters are computed by the border-strip recursion, which runs on
beta-numbers (first column hook lengths) from start to end: removing a strip
of length t from the diagram means lowering one beta-number by t, with a sign
given by the number of beta-numbers jumped over.  A diagram is turned into
beta-numbers once (``_beta`` is cached) and never back.  The multiplicity of
interest is then the exact class-weighted triple product of characters.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .diagrams import KronInstance, YoungDiagram, parse_young
from .errors import KronkitError

# A contract, not a speed limit: kron and member-bruteforce exit 2 from
# k = 13, and tools/bench_witness.py reads this cap for its panels' k.
DEFAULT_ORACLE_CAP = 12


def partitions(n: int):
    """Yield all partitions of n as weakly decreasing tuples.

    They come in reverse lexicographic order, (n) first and (1,…,1) last.
    Each is made from the one before: its last part above 1 drops by one,
    and the ones after it plus that one are regrouped into parts as large
    as it now is.
    """
    if n == 0:
        yield ()
        return
    rows = [n]
    while True:
        yield tuple(rows)
        ones = 0
        while rows and rows[-1] == 1:
            rows.pop()
            ones += 1
        if not rows:
            return
        part = rows.pop() - 1
        q, r = divmod(ones + 1, part)
        rows += [part] * (q + 1)
        rows += [r] * (r > 0)


def centralizer_order(mu: tuple[int, ...]) -> int:
    """z_μ = Π_i i^{m_i} · m_i! over the part multiplicities m_i."""
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m_i in mult.items():
        z *= part**m_i * math.factorial(m_i)
    return z


@lru_cache(maxsize=None)
def _beta(lam: tuple[int, ...]) -> tuple[int, ...]:
    r = len(lam)
    return tuple(lam[i] + r - 1 - i for i in range(r))


@lru_cache(maxsize=None)
def _char_rec(beta: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """χ_λ(μ) for λ given by its beta-numbers, a strictly decreasing tuple.

    The recursion keeps the length of beta: a subdiagram with fewer rows
    than λ ends in the beta-numbers (…, 2, 1, 0) of its empty rows, and the
    Murnaghan–Nakayama rule holds for them unchanged.
    """
    if not mu:
        return 1
    strip, rest = mu[0], mu[1:]
    total = 0
    for i, b in enumerate(beta):
        nb = b - strip
        if nb < 0 or nb in beta:
            continue
        # beta[i+1:j] are the beta-numbers jumped over; nb goes in at j
        j = i + 1
        while j < len(beta) and beta[j] > nb:
            j += 1
        value = _char_rec(beta[:i] + beta[i + 1 : j] + (nb,) + beta[j:], rest)
        total += -value if (j - i - 1) % 2 else value
    return total


def mn_character(lam: YoungDiagram, mu: YoungDiagram) -> int:
    """Irreducible character value χ_λ(μ) in S_k."""
    if lam.boxes != mu.boxes:
        raise KronkitError(
            f"{lam} has {lam.boxes} boxes but cycle type {mu} has {mu.boxes}"
        )
    return _char_rec(_beta(lam.rows), mu.rows)


def kron_coeff(
    lam_a: YoungDiagram, lam_b: YoungDiagram, lam_c: YoungDiagram
) -> int:
    """Exact multiplicity Σ_μ χ_{λA}(μ)·χ_{λB}(μ)·χ_{λC}(μ)·|C_μ| / k!.

    The class of cycle type μ has |C_μ| = k!/z_μ elements.  Each class is
    built once, χ_{λB}(μ) is evaluated only where χ_{λA}(μ) ≠ 0, χ_{λC}(μ)
    and z_μ only where both are, and every character through
    ``mn_character``.
    """
    k = lam_a.boxes
    if lam_b.boxes != k or lam_c.boxes != k:
        raise KronkitError("the three diagrams must have equal box counts")
    factorial_k = math.factorial(k)
    total = 0
    for rows in partitions(k):
        mu = YoungDiagram(rows)
        chi = mn_character(lam_a, mu)
        if chi:
            chi *= mn_character(lam_b, mu)
        if chi:
            total += factorial_k // centralizer_order(rows) * chi * mn_character(lam_c, mu)
    g, rem = divmod(total, factorial_k)
    if rem or g < 0:
        raise RuntimeError(f"class sum {total} / {k}! is not a natural number")
    return g


def _stretched(lam: YoungDiagram, l: int) -> YoungDiagram:
    return parse_young([row * l for row in lam.rows])


def semigroup_member(
    inst: KronInstance, l_max: int, cap: int = DEFAULT_ORACLE_CAP
) -> int | None:
    """Smallest stretching factor l ≤ l_max with positive stretched
    multiplicity, or None (Unknown — absence of a small stretching proves
    nothing)."""
    if l_max * inst.k > cap:
        raise KronkitError(
            f"stretching up to l={l_max} needs {l_max * inst.k} boxes, cap is {cap}"
        )
    for l in range(1, l_max + 1):
        g = kron_coeff(*(_stretched(lam, l) for lam in inst.diagrams))
        if g > 0:
            return l
    return None
