"""The benchmark's four workloads: seeded inputs, the operations of one pass,
and the correctness gates that run after the timed region.

Every workload reaches kronkit through its public entry points: the CLI's
``main`` in-process where a subcommand exists, the library function where
none does.  Functions are looked up on their module at call time, so the
traced run's wrappers see every call.

* ``enumerate-m3`` — one ``facets --m 3`` per pass.  Nearly all its time is
  the per-subset kernel solve in ``intlinalg``; no LP, witness search or
  marginals.
* ``reduce-m3`` — ``reduce_irredundant`` on a fixed 40-element sample of the
  committed m = 3 system.  Nearly all its time is ``exactlp.solve_lp``; no
  kernel solve and no marginals.
* ``certify`` — a fixed panel of 100 instances, in seeded order, decided the
  way a user decides them: a violated committed facet is verified with
  ``verify-nonmembership``, anything else goes through ``find-witness`` and
  ``verify-membership``; instances with k ≤ 12 also get ``kron``, whose
  value must equal the committed one.  Dominated
  by the float witness search.
* ``verify`` — a seeded draw from the committed pool of certificates with
  their expected verdicts.  The exact verifiers alone, with no search.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from kronkit import cli, marginals, oracle, ressayre, search
from kronkit.diagrams import KronInstance, make_instance, parse_young
from kronkit.marginals import MembershipCertificate
from kronkit.ressayre import RessayreCertificate
from kronkit.scalars import GaussianRational
from kronkit.search import FacetSystem

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The reduce-m3 sample and the certify panel are drawn once, from fixed
# seeds, and do not change with the run's seed.  Between seeds, the LP time
# of a 40-element sample varied by 40% (IQR over median; 29% with the order
# of one sample) and a certify pass by 27% between panels, far more than any
# bound a change could be held to; with the find-witness seed, the number of
# undecided instances of one panel moved between 41 and 45.  The run's seed
# orders the certify panel and draws the verify checks.
REDUCE_SAMPLE = 40
REDUCE_SAMPLE_SEED = 0
CERTIFY_PANEL_SEED = 0
CERTIFY_WITNESS_SEED = 0
KRON_MAX_K = 12
# certify panel: instances per stratum
CERTIFY_M2 = 20
CERTIFY_M3_OUTSIDE = 22
CERTIFY_M3_REST = 33
CERTIFY_M4 = 25
# verify pass: draws from each nonmembership class of the pool
VERIFY_PER_NONMEMBER_CLASS = 240


class StaleFixture(Exception):
    """A committed fixture no longer matches what the program computes."""


def hz_key(h) -> tuple:
    """(H, z) of a hyperplane candidate as a hashable key."""
    return (h.blocks, h.z)


def facet_problem(h, p, m: int) -> str | None:
    """Why (H, z, p) fails the three instance-free checks, or None."""
    if not ressayre.check_admissible(h, m):
        return "not admissible"
    if not ressayre.check_trace(h, m):
        return "trace count differs"
    if ressayre.eval_determinant(ressayre.build_det_matrix(h, m), p) == 0:
        return "determinant vanishes at p"
    return None


def violates(h, rows, k: int) -> bool:
    """H·λ < k·z for padded integer rows, by integer pairing."""
    lhs = sum(x * y for block, lam in zip(h.blocks, rows) for x, y in zip(block, lam))
    return lhs < k * h.z


def violated(system: FacetSystem | None, rows, k: int):
    """First element of ``system`` whose inequality the rows violate."""
    if system is None:
        return None
    return next((e for e in system.nontrivial if violates(e.h, rows, k)), None)


def _json(name: str):
    with open(FIXTURES / name, encoding="utf-8") as fh:
        return json.load(fh)


def load_facets(name: str) -> FacetSystem:
    """A committed FacetSystem fixture."""
    return FacetSystem.from_json(_json(name))


@dataclass
class Fixtures:
    m2: FacetSystem  # irredundant m = 2 system (3 elements)
    m3: FacetSystem  # m = 3 enumeration output (114 elements)
    m3_irredundant: FacetSystem  # its irredundant subset (39 elements)
    pool: list[dict]
    reduce_kept: dict  # the reduce-m3 sample and the indices it keeps
    kron: dict  # kron_key of each certify instance with k ≤ 12 -> its value


def load_fixtures() -> Fixtures:
    """Load the committed fixtures and re-check every committed facet."""
    fx = Fixtures(
        load_facets("facets_m2_irredundant.json"),
        load_facets("facets_m3.json"),
        load_facets("facets_m3_irredundant.json"),
        _json("verify_pool.json")["items"],
        _json("reduce_m3_kept.json"),
        _json("certify_kron.json"),
    )
    for name, fs in (
        ("m2", fx.m2),
        ("m3", fx.m3),
        ("m3 irredundant", fx.m3_irredundant),
    ):
        for element in fs.nontrivial:
            problem = facet_problem(element.h, element.witness_point, fs.m)
            if problem:
                raise StaleFixture(f"{name} facet {hz_key(element.h)}: {problem}")
    full = {hz_key(e.h) for e in fx.m3.nontrivial}
    if not {hz_key(e.h) for e in fx.m3_irredundant.nontrivial} <= full:
        raise StaleFixture("m3 irredundant set is not a subset of the m3 system")
    return fx


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``kronkit <argv>`` in-process; returns the exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Checked:
    """Gate outcome for one pass: per-operation failure flags and problems."""

    failed: list[bool]
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class Workload:
    """One pass is ``operations()`` run in order; ``kinds`` labels each."""

    name = ""

    def warm_up(self) -> None:
        """One untimed call through the same entry points."""

    def start_pass(self) -> None:
        """Untimed reset before each pass."""

    def operations(self) -> list:
        raise NotImplementedError

    def kinds(self) -> list[str]:
        raise NotImplementedError

    def check(self, results: list) -> Checked:
        raise NotImplementedError


class Raised:
    """Result placeholder for an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"raised {self.text}"


# ---------------------------------------------------------------------------
# enumerate-m3


class EnumerateM3(Workload):
    name = "enumerate-m3"

    def __init__(self, fx: Fixtures, seed: int, work: Path) -> None:
        self.fx = fx
        self.out = work / "facets_m3.json"
        self.argv = ["facets", "--m", "3", "--seed", str(seed), "--out", str(self.out)]
        self.warm_argv = ["facets", "--m", "2", "--out", str(work / "warm.json")]

    def warm_up(self) -> None:
        run_cli(self.warm_argv)

    def operations(self) -> list:
        return [lambda: run_cli(self.argv)[0]]

    def kinds(self) -> list[str]:
        return ["facets"]

    def check(self, results: list) -> Checked:
        (rc,) = results
        if rc != 0:
            return Checked([True], [f"facets --m 3 gave {rc!r}"])
        fs = FacetSystem.from_json(read_json(self.out))
        problems = []
        got = {hz_key(e.h) for e in fs.nontrivial}
        want = {hz_key(e.h) for e in self.fx.m3.nontrivial}
        if len(got) != len(fs.nontrivial):
            problems.append("output repeats an (H, z)")
        if got != want:
            problems.append(
                f"(H, z) set differs from the fixture: {len(got - want)} extra, "
                f"{len(want - got)} missing"
            )
        for e in fs.nontrivial:
            problem = facet_problem(e.h, e.witness_point, fs.m)
            if problem:
                problems.append(f"{hz_key(e.h)} does not re-verify: {problem}")
        return Checked([bool(problems)], problems)


# ---------------------------------------------------------------------------
# reduce-m3


def reduce_sample(n_elements: int) -> list[int]:
    """Indices of the reduce-m3 sample, in committed order."""
    rng = random.Random(REDUCE_SAMPLE_SEED)
    return sorted(rng.sample(range(n_elements), REDUCE_SAMPLE))


class ReduceM3(Workload):
    name = "reduce-m3"

    def __init__(self, fx: Fixtures, seed: int, work: Path) -> None:
        self.fx = fx
        self.sample = reduce_sample(len(fx.m3.nontrivial))
        elements = tuple(fx.m3.nontrivial[i] for i in self.sample)
        self.system = FacetSystem(3, elements, fx.m3.chamber)

    def warm_up(self) -> None:
        search.reduce_irredundant(self.fx.m2)

    def operations(self) -> list:
        return [lambda: search.reduce_irredundant(self.system)]

    def kinds(self) -> list[str]:
        return ["reduce"]

    def check(self, results: list) -> Checked:
        (fs,) = results
        if isinstance(fs, Raised):
            return Checked([True], [repr(fs)])
        problems = []
        kept = {hz_key(e.h) for e in fs.nontrivial}
        sample_keys = {hz_key(e.h) for e in self.system.nontrivial}
        facets = {hz_key(e.h) for e in self.fx.m3_irredundant.nontrivial}
        dropped_facets = (facets & sample_keys) - kept
        if dropped_facets:
            problems.append(f"dropped {len(dropped_facets)} of the 39 facets")
        ref = self.fx.reduce_kept
        if ref["sample"] != self.sample:
            problems.append("sample differs from the committed one")
        want = {hz_key(self.fx.m3.nontrivial[i].h) for i in ref["kept"]}
        if kept != want:
            problems.append(f"kept {len(kept)} elements, reference keeps {len(want)}")
        return Checked([bool(problems)], problems)


# ---------------------------------------------------------------------------
# certify


def partitions_upto(k: int, rows: int, largest: int | None = None):
    """All partitions of k with at most ``rows`` parts, decreasing.

    The benchmark's own generator, not ``kronkit.oracle.partitions``: the
    inputs must not change when the program under test does.
    """
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(k, largest), 0, -1):
        for rest in partitions_upto(k - first, rows - 1, first):
            yield (first, *rest)


def random_triple(rng: random.Random, k: int, m: int) -> tuple:
    """Three random partitions of k with at most m rows, one with exactly m."""
    choices = list(partitions_upto(k, m))
    while True:
        triple = tuple(rng.choice(choices) for _ in range(3))
        if max(len(lam) for lam in triple) == m:
            return triple


def square_witness(a: list[int]) -> MembershipCertificate:
    """Σ aᵢ|iii⟩: an exact witness for (λ, λ, λ) with λᵢ = aᵢ²."""
    one = Fraction(1)
    return MembershipCertificate(
        len(a),
        {(i, i, i): GaussianRational(one * v, Fraction(0)) for i, v in enumerate(a, 1)},
    )


def kron_key(triple: tuple) -> str:
    """The ``kron`` arguments of a partition triple, as one string."""
    return " ".join(",".join(map(str, lam)) for lam in triple)


@dataclass
class PanelItem:
    rows: tuple  # three partitions
    inst: KronInstance
    stem: str  # the instance, certificate and witness files share it
    kron: int | None = None  # the committed value ``kron`` must print

    def file(self, suffix: str) -> str:
        return f"{self.stem}.{suffix}.json"


def certify_panel(m3_facets: FacetSystem) -> list[tuple[tuple, list[int] | None]]:
    """The panel as (partition triple, square roots or None).

    About 20% at m = 2 (k from 2 to 16), 55% at m = 3 (k from 3 to 12, 40%
    of them violating a committed facet) and 25% at m = 4 inside by
    construction.  Which instances the program decides plays no part.
    """
    rng = random.Random(CERTIFY_PANEL_SEED)
    panel: list[tuple[tuple, list[int] | None]] = []
    for _ in range(CERTIFY_M2):
        panel.append((random_triple(rng, rng.randint(2, 16), 2), None))
    outside, rest = [], []
    while len(outside) < CERTIFY_M3_OUTSIDE or len(rest) < CERTIFY_M3_REST:
        k = rng.randint(3, 12)
        triple = random_triple(rng, k, 3)
        rows = [lam + (0,) * (3 - len(lam)) for lam in triple]
        bucket = outside if violated(m3_facets, rows, k) else rest
        quota = CERTIFY_M3_OUTSIDE if bucket is outside else CERTIFY_M3_REST
        if len(bucket) < quota:
            bucket.append((triple, None))
    panel += outside + rest
    for _ in range(CERTIFY_M4):
        a = sorted((rng.randint(1, 3) for _ in range(4)), reverse=True)
        lam = tuple(v * v for v in a)
        panel.append(((lam, lam, lam), a))
    rng.shuffle(panel)
    return panel


class Certify(Workload):
    name = "certify"

    def __init__(self, fx: Fixtures, seed: int, work: Path) -> None:
        self.systems = {2: fx.m2, 3: fx.m3_irredundant}
        self.items = []
        panel = certify_panel(fx.m3_irredundant)
        random.Random(seed).shuffle(panel)
        for idx, (triple, roots) in enumerate(panel):
            k = sum(triple[0])
            inst = make_instance(*(parse_young(lam) for lam in triple), k)
            if roots and not marginals.verify_membership(inst, square_witness(roots)).accepted:
                raise StaleFixture(f"square witness for {triple} rejected")
            kron = None
            if k <= KRON_MAX_K:
                kron = fx.kron.get(kron_key(triple))
                if kron is None:
                    raise StaleFixture(f"no committed kron value for {triple}")
            self.items.append(PanelItem(triple, inst, str(work / f"i{idx}"), kron))
        warm = make_instance(*(parse_young(lam) for lam in ((2, 1),) * 3), 3)
        self.warm_item = PanelItem(((2, 1),) * 3, warm, str(work / "warm"))
        for item in (*self.items, self.warm_item):
            write_json(item.file("instance"), item.inst.to_json())

    def _decide(self, item: PanelItem) -> tuple[str, int | str | None]:
        inst, inst_path = item.inst, item.file("instance")
        facet = violated(self.systems.get(inst.m), inst.padded_rows(), inst.k)
        if facet is not None:
            write_json(item.file("cert"), facet.to_json())
            rc, _ = run_cli(["verify-nonmembership", inst_path, item.file("cert")])
            verdict = "outside" if rc == 0 else f"verify-nonmembership exit {rc}"
        else:
            rc, _ = run_cli(
                [
                    "find-witness", inst_path,
                    "--seed", str(CERTIFY_WITNESS_SEED), "--out", item.file("witness"),
                ]
            )
            if rc == 1:
                verdict = "undecided"
            elif rc == 0:
                rc, _ = run_cli(["verify-membership", inst_path, item.file("witness")])
                verdict = "inside" if rc == 0 else f"verify-membership exit {rc}"
            else:
                verdict = f"find-witness exit {rc}"
        kron = None
        if inst.k <= KRON_MAX_K:
            rc, out = run_cli(["kron", *kron_key(item.rows).split()])
            kron = int(out.split()[0]) if rc in (0, 1) else f"exit {rc}"
        return verdict, kron

    def warm_up(self) -> None:
        self._decide(self.warm_item)

    def start_pass(self) -> None:
        # the character recursion keeps an lru_cache across calls: clear it
        # so that every pass starts cold, as a fresh CLI process would
        oracle._char_rec.cache_clear()

    def operations(self) -> list:
        return [lambda item=item: self._decide(item) for item in self.items]

    def kinds(self) -> list[str]:
        return ["instance"] * len(self.items)

    def check(self, results: list) -> Checked:
        failed, problems, notes = [], [], []
        for item, result in zip(self.items, results):
            inst = item.inst
            label = f"{inst}"
            if isinstance(result, Raised):
                failed.append(True)
                problems.append(f"{label}: {result!r}")
                continue
            verdict, kron = result
            bad = None
            if kron != item.kron:
                bad = f"kron gave {kron}, expected {item.kron}"
            elif verdict == "outside":
                cert = RessayreCertificate.from_json(read_json(item.file("cert")))
                if not ressayre.verify_nonmembership(inst, cert).accepted:
                    bad = "outside certificate does not re-verify"
                elif kron is not None and kron > 0:
                    bad = f"certified outside but kron = {kron}"
            elif verdict == "inside":
                cert = MembershipCertificate.from_json(read_json(item.file("witness")))
                if not marginals.verify_membership(inst, cert).accepted:
                    bad = "witness does not re-verify"
            elif verdict == "undecided":
                notes.append(f"undecided: {label}")
            else:
                bad = verdict
            if bad:
                problems.append(f"{label}: {bad}")
            failed.append(bad is not None or verdict not in ("outside", "inside"))
        return Checked(failed, problems, notes)


# ---------------------------------------------------------------------------
# verify


def pool_classes(pool: list[dict]) -> dict[str, list[dict]]:
    """Pool items grouped by class, classes in a fixed order."""
    classes: dict[str, list[dict]] = {}
    for item in pool:
        classes.setdefault(item["class"], []).append(item)
    return dict(sorted(classes.items()))


class Verify(Workload):
    name = "verify"

    def __init__(self, fx: Fixtures, seed: int, work: Path) -> None:
        # every membership item once, nonmembership checks drawn with
        # replacement: membership checks cost 1-34 ms each, so drawing them
        # would make the pass time depend on the seed
        rng = random.Random(seed)
        draw = []
        for items in pool_classes(fx.pool).values():
            if items[0]["kind"] == "member":
                draw += items
            else:
                draw += [rng.choice(items) for _ in range(VERIFY_PER_NONMEMBER_CLASS)]
        rng.shuffle(draw)
        self.draw = [
            (item["kind"], KronInstance.from_json(item["instance"]), item)
            for item in draw
        ]

    @staticmethod
    def _check_one(kind: str, inst: KronInstance, cert_json: dict) -> str:
        if kind == "nonmember":
            cert = RessayreCertificate.from_json(cert_json)
            return str(ressayre.verify_nonmembership(inst, cert))
        cert = MembershipCertificate.from_json(cert_json)
        return str(marginals.verify_membership(inst, cert))

    def warm_up(self) -> None:
        seen = set()
        for kind, inst, item in self.draw:
            if kind not in seen:
                seen.add(kind)
                self._check_one(kind, inst, item["certificate"])

    def operations(self) -> list:
        return [
            lambda kind=kind, inst=inst, cert=item["certificate"]: self._check_one(
                kind, inst, cert
            )
            for kind, inst, item in self.draw
        ]

    def kinds(self) -> list[str]:
        return [kind for kind, _, _ in self.draw]

    def check(self, results: list) -> Checked:
        failed, problems = [], []
        for (kind, inst, item), got in zip(self.draw, results):
            wrong = got != item["expected"]
            failed.append(wrong)
            if wrong:
                problems.append(
                    f"{item['class']} {inst}: got {got!r}, expected {item['expected']}"
                )
        return Checked(failed, problems)


WORKLOADS = {
    cls.name: cls for cls in (EnumerateM3, ReduceM3, Certify, Verify)
}

