"""Single-field mutations of valid files: a bad file is refused in kronkit's words.

One valid file of each kind is built by kronkit itself: an instance with an
m override (so that its optional field is present), a witness that
find-witness writes for it, and a hyperplane certificate that decide finds
for a point outside the polytope.  Every field, and the first two elements
of every list, is mutated once each: deleted, or replaced by one of JUNK.
Each mutated file goes through main() with the verifier that reads it.  A
run may accept, reject or refuse (exit 0, 1 or 2), but it never crashes,
a refusal names what is wrong without Python's own words, and no line it
writes to stderr reaches 200 characters, the file's path aside.
"""

import json
import re

import pytest

from kronkit.cli import main
from kronkit.diagrams import KronInstance, make_instance, parse_young
from kronkit.marginals import MembershipCertificate
from kronkit.ressayre import RessayreCertificate
from kronkit.scalars import DIGIT_CAP
from kronkit.search import decide

DELETE = object()
LITERAL = object()  # a JSON integer literal of 5,000 digits, past the cap
NINES = 10**DIGIT_CAP - 1  # the largest integer that is read
JUNK = (
    DELETE, None, True, 1.5, "x", [], {}, -1, 0, 10**30, NINES, LITERAL, "x" * 100_000,
)
# a bare quoted key, the text of a KeyError, or an interpreter message
PYTHON_WORDS = re.compile(
    r"^'[^']*'$|not enough values to unpack|Fraction\(|cannot interpret"
    r"|indices must be|set_int_max_str_digits"
)

# kind: (verifier and its two files, the reader of the kind, optional fields)
KINDS = {
    "instance": (
        ("verify-membership", "instance", "witness"), KronInstance.from_json, {"m"},
    ),
    "witness": (
        ("verify-membership", "instance", "witness"), MembershipCertificate.from_json,
        {"im"},
    ),
    "hyperplane": (
        ("verify-nonmembership", "outside", "hyperplane"), RessayreCertificate.from_json,
        set(),
    ),
}


def paths(obj, prefix=()):
    """Each field of obj and the first two elements of each list, depth first."""
    if type(obj) is dict:
        children = obj.items()
    elif type(obj) is list:
        children = enumerate(obj[:2])
    else:
        return
    for key, value in children:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def dumped(obj) -> str:
    """obj as JSON text, with LITERAL written as raw digits: no int that long
    can be built to pass to json.dumps."""
    return json.dumps(obj, default=lambda _: "LITERAL").replace('"LITERAL"', "1" * 5000)


def mutated(obj, path, junk):
    """A copy of obj with the item at path deleted or replaced by junk."""
    copy = json.loads(json.dumps(obj))
    *parents, last = path
    holder = copy
    for key in parents:
        holder = holder[key]
    if junk is DELETE:
        del holder[last]
    else:
        holder[last] = junk
    return copy


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The three valid files, and the outside point the hyperplane cuts off."""
    tmp = tmp_path_factory.mktemp("valid")
    files = {name: str(tmp / f"{name}.json") for name in (
        "instance", "outside", "witness", "hyperplane",
    )}
    rows = parse_young([2, 1])
    outside = make_instance(
        parse_young([3]), parse_young([2, 1]), parse_young([1, 1, 1]), 3
    )
    for name, obj in (
        ("instance", make_instance(rows, rows, rows, 3, m_override=3)),
        ("outside", outside),
        ("hyperplane", decide(outside)),
    ):
        assert obj is not None
        with open(files[name], "w") as fh:
            json.dump(obj.to_json(), fh)
    assert main(["find-witness", files["instance"], "--out", files["witness"]]) == 0
    return files


def argv_for(kind, valid, path):
    """The verifier's argv with path in place of the valid file of this kind."""
    (command, *names), _, _ = KINDS[kind]
    return [command, *(path if name == kind else valid[name] for name in names)]


def problem(kind, field, junk, obj, code, err, path):
    """What is wrong with one run, or None."""
    _, reader, optional = KINDS[kind]
    last = field[-1]
    # a rational from a JSON number or null, an instance's m from a non-int
    must_refuse = junk is not DELETE and (
        last in ("re", "im")
        or (kind, field) == ("instance", ("m",)) and type(junk) is not int
    )
    if code not in (0, 1, 2) or "Traceback" in err:
        return f"exit {code}: {err[:300]}"
    longest = max(map(len, err.replace(path, "").splitlines()), default=0)
    if longest >= 200:
        return f"a stderr line of {longest} characters: {err[:100]!r}"
    prefix = f"error: bad {'instance' if kind == 'instance' else 'certificate'} "
    prefix += f"file {path}: "
    if must_refuse and not err.startswith(prefix):
        return f"not refused by the reader: exit {code}, {err!r}"
    if code != 2:
        return None
    if err.count("\n") != 1 or not err.startswith("error: "):
        return f"not one error line: {err!r}"
    if err.startswith(prefix):
        reason = err[len(prefix):-1]
    else:
        reader(obj)  # a check on the pair, made after both readers took their file
        reason = err[len("error: "):-1]
    if PYTHON_WORDS.search(reason):
        return f"reason in Python's words: {reason!r}"
    if junk is DELETE and type(last) is str and last not in optional:
        if reason != f"missing field {last!r}":
            return f"deleted field not named: {reason!r}"
    return None


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_single_field_mutation_is_decided_or_refused_by_name(
    kind, valid, tmp_path, capsys
):
    assert main(argv_for(kind, valid, valid[kind])) == 0
    with open(valid[kind]) as fh:
        original = json.load(fh)
    path = str(tmp_path / f"{kind}.json")
    problems, runs = [], 0
    for field in paths(original):
        for junk in JUNK:
            obj = mutated(original, field, junk)
            with open(path, "w") as fh:
                fh.write(dumped(obj))
            capsys.readouterr()
            code = main(argv_for(kind, valid, path))
            runs += 1
            found = problem(kind, field, junk, obj, code, capsys.readouterr().err, path)
            if found:
                shown = (
                    "deleted" if junk is DELETE
                    else "a 5000-digit literal" if junk is LITERAL
                    else repr(junk)[:40]
                )
                problems.append(f"{list(field)} <- {shown}: {found}")
    assert not problems, "\n".join(problems)
    assert runs >= 100
