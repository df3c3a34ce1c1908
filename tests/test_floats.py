"""The numpy boundary: only ``kronkit.floats`` imports numpy.

Each command runs through ``cli.main`` in a fresh interpreter, which then
reports whether numpy was loaded and whether a packaged facet system,
``facets_m2.json`` or ``facets_m3.json``, was opened.  The exact commands
must do neither.  ``find-witness`` reads the system only after its exact
route misses, to look for a violated element before any scaling: a point
that an element puts outside opens the file, and so do the scaled routes
(the face route reuses that one read), so the check can tell them from the
exact route.  No witness route loads numpy; only ``kronkit sample`` does.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kronkit"

RUN = """
import contextlib, io, json, sys
opened = []
sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
from kronkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "codes": codes,
    "numpy": "numpy" in sys.modules,
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
    assert report == {"codes": [0, 0, 1, 1, 0, 0, 1], "numpy": False, "facets": False}


def test_scaled_routes_leave_numpy_unloaded(tmp_path):
    # the certify panel's two scaled points: the plain route, then the face route
    plain_m3 = instance(tmp_path, "plain_m3", [8, 4], [7, 5], [8, 2, 2])
    face_m3 = instance(tmp_path, "face_m3", [8, 4], [6, 5, 1], [10, 2])
    out = str(tmp_path / "w.json")
    report = run_fresh([
        ["find-witness", plain_m3, "--seed", "0", "--out", out],
        ["find-witness", face_m3, "--seed", "0", "--out", out],
    ])
    assert report == {"codes": [0, 0], "numpy": False, "facets": True}


def test_facet_outside_point_scales_nothing(tmp_path):
    # the exact route misses, then a committed m = 3 element decides
    outside = instance(tmp_path, "outside_m3", [5, 1], [5, 1], [3, 2, 1])
    out = str(tmp_path / "w.json")
    report = run_fresh([["find-witness", outside, "--seed", "0", "--out", out]])
    assert report == {"codes": [1], "numpy": False, "facets": True}


def test_sample_loads_numpy():
    report = run_fresh([["sample", "--m", "2", "--n", "3"]])
    assert report == {"codes": [0], "numpy": True, "facets": False}


def test_packaged_system_is_the_committed_one():
    for m in (2, 3):
        committed = ROOT / "perfbench" / "fixtures" / f"facets_m{m}_irredundant.json"
        assert (PACKAGE / f"facets_m{m}.json").read_bytes() == committed.read_bytes()


def imports_numpy(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_floats_imports_numpy():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py")) if imports_numpy(p)]
    assert importers == ["floats.py"]
