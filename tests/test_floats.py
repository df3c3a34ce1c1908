"""kronkit without numpy: every command runs on the standard library alone.

Each command runs through ``cli.main`` in a fresh interpreter where
``import numpy`` fails, which then reports the exit codes and whether a
packaged facet system, ``facets_m2.json`` or ``facets_m3.json``, was opened.
The exact commands open neither.  ``find-witness`` reads the system only
after its exact route misses, to look for a violated element before any
scaling: a point that an element puts outside opens the file, and so do the
scaled routes (the face route reuses that one read), so the check can tell
them from the exact route.  ``kronkit sample`` runs there too: its
eigenvalues come from ``floats.eigvalsh``, checked here against numpy, which
is a test-only reference.
"""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from kronkit.floats import eigvalsh

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kronkit"

RUN = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
opened = []
sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
from kronkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "codes": codes,
    "facets": any(path.endswith(("facets_m2.json", "facets_m3.json")) for path in opened),
}))
"""


def run_fresh(argvs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def instance(tmp_path, name, a, b, c):
    return write(tmp_path / f"{name}.json",
                 {"lambda_A": a, "lambda_B": b, "lambda_C": c, "k": sum(a)})


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    outside = instance(tmp_path, "outside", [2], [2], [1, 1])
    mixed = instance(tmp_path, "mixed", [1, 1], [1, 1], [1, 1])
    hyperplane = write(tmp_path / "h.json",
                       {"H": [[-1, 1], [-1, 1], [1, -1]], "z": -1, "p": [1, 0, 0]})
    one = {"re": "1/1", "im": "0/1"}
    ghz = write(tmp_path / "ghz.json", {"m": 2, "entries": [
        {"idx": [1, 1, 1], **one}, {"idx": [2, 2, 2], **one},
    ]})
    exact_m3 = instance(tmp_path, "exact_m3", [4, 1], [2, 2, 1], [3, 2])
    miss_m4 = instance(tmp_path, "miss_m4", [4, 4, 1], [7, 2], [5, 2, 1, 1])
    out = str(tmp_path / "w.json")
    report = run_fresh([
        ["verify-nonmembership", outside, hyperplane],
        ["verify-membership", mixed, ghz],
        ["kron", "4,2", "3,3", "2,2,2"],
        ["member-bruteforce", mixed, "--lmax", "1"],
        ["facets", "--m", "2", "--irredundant"],
        ["find-witness", exact_m3, "--seed", "0", "--out", out],
        ["find-witness", miss_m4, "--seed", "0", "--out", out],
    ])
    assert report == {"codes": [0, 0, 1, 1, 0, 0, 1], "facets": False}


def test_scaled_routes_leave_numpy_unloaded(tmp_path):
    # the certify panel's two scaled points: the plain route, then the face route
    plain_m3 = instance(tmp_path, "plain_m3", [8, 4], [7, 5], [8, 2, 2])
    face_m3 = instance(tmp_path, "face_m3", [8, 4], [6, 5, 1], [10, 2])
    out = str(tmp_path / "w.json")
    report = run_fresh([
        ["find-witness", plain_m3, "--seed", "0", "--out", out],
        ["find-witness", face_m3, "--seed", "0", "--out", out],
    ])
    assert report == {"codes": [0, 0], "facets": True}


def test_facet_outside_point_scales_nothing(tmp_path):
    # the exact route misses, then a committed m = 3 element decides
    outside = instance(tmp_path, "outside_m3", [5, 1], [5, 1], [3, 2, 1])
    out = str(tmp_path / "w.json")
    report = run_fresh([["find-witness", outside, "--seed", "0", "--out", out]])
    assert report == {"codes": [1], "facets": True}


def test_sample_runs_without_numpy():
    report = run_fresh([["sample", "--m", "2", "--n", "3"], ["sample", "--m", "13"]])
    assert report == {"codes": [0, 2], "facets": False}


def test_packaged_system_is_the_committed_one():
    for m in (2, 3):
        committed = ROOT / "perfbench" / "fixtures" / f"facets_m{m}_irredundant.json"
        assert (PACKAGE / f"facets_m{m}.json").read_bytes() == committed.read_bytes()


def imported_modules(path):
    """The top-level names of a module's absolute imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    foreign = {
        (p.name, name)
        for p in sorted(PACKAGE.glob("*.py"))
        for name in imported_modules(p)
        if name not in sys.stdlib_module_names
    }
    assert foreign == set()
    assert {"math", "random"} <= set(imported_modules(PACKAGE / "floats.py"))


def random_hermitian(rng, n):
    """A seeded complex Hermitian matrix of order n, PSD when 3 divides n."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x @ x.conj().T if n % 3 == 0 else (x + x.conj().T) / 2


def test_eigvalsh_matches_numpy():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(480):
        h = random_hermitian(rng, trial % 12 + 1)
        reference = np.linalg.eigvalsh(h)[::-1]
        got = eigvalsh(h.tolist())
        assert list(got) == sorted(got, reverse=True)
        error = np.max(np.abs(np.array(got) - reference)) / np.max(np.abs(reference))
        worst = max(worst, error)
    assert worst <= 1e-12


def test_eigvalsh_of_structured_matrices():
    # diagonal, degenerate and rank-one inputs, where a rotation may have
    # nothing or everything to do
    assert eigvalsh([[2.0 + 0j]]) == (2.0,)
    assert eigvalsh([[1 + 0j, 0j], [0j, 3 + 0j]]) == (3.0, 1.0)
    assert eigvalsh([[0j] * 4 for _ in range(4)]) == (0.0,) * 4
    nan = complex("nan")
    assert len(eigvalsh([[1 + 0j, nan], [nan, 1 + 0j]])) == 2  # ends, no hang
    rng = random.Random(1)
    v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(5)]
    rank_one = [[a * b.conjugate() for b in v] for a in v]
    top = sum(abs(a) ** 2 for a in v)
    got = eigvalsh(rank_one)
    assert abs(got[0] - top) <= 1e-12 * top
    assert all(abs(x) <= 1e-12 * top for x in got[1:])
