import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from kronkit import cli, oracle, search
from kronkit.cli import main
from kronkit.diagrams import KronInstance
from kronkit.marginals import MembershipCertificate, verify_membership
from kronkit.ressayre import Decision, Reason, Verdict
from kronkit.scalars import DIGIT_CAP

OUTSIDE = {"lambda_A": [2], "lambda_B": [2], "lambda_C": [1, 1], "k": 2}
INSIDE = {"lambda_A": [1, 1], "lambda_B": [1, 1], "lambda_C": [1, 1], "k": 2}
BELL_TARGET = {"lambda_A": [1, 1], "lambda_B": [1, 1], "lambda_C": [2], "k": 2}
CORNER = {"lambda_A": [2], "lambda_B": [2], "lambda_C": [2], "k": 2, "m": 2}

WORKED_CERT = {"H": [[-1, 1], [-1, 1], [1, -1]], "z": -1, "p": [1, 0, 0]}
GHZ_CERT = {
    "m": 2,
    "entries": [
        {"idx": [1, 1, 1], "re": "1/1", "im": "0/1"},
        {"idx": [2, 2, 2], "re": "1/1", "im": "0/1"},
    ],
}
BELL_CERT = {
    "m": 2,
    "entries": [
        {"idx": [1, 1, 1], "re": "1/1", "im": "0/1"},
        {"idx": [2, 2, 1], "re": "1/1", "im": "0/1"},
    ],
}


def jfile(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def literal_k_file(tmp_path, name, digits):
    """INSIDE with k written as a JSON integer literal of these digits."""
    path = tmp_path / name
    path.write_text(json.dumps(INSIDE).replace('"k": 2', f'"k": {digits}'))
    return str(path)


def deep_file(tmp_path, name):
    """Nesting past the recursion limit: json.load raises RecursionError."""
    path = tmp_path / name
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


def test_verify_nonmembership_accept(tmp_path, capsys):
    code = main([
        "verify-nonmembership",
        jfile(tmp_path, "inst.json", OUTSIDE),
        jfile(tmp_path, "cert.json", WORKED_CERT),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "Accept" in out and "H·lambda = -4 < k·z = -2" in out


def test_verify_nonmembership_reject(tmp_path, capsys):
    code = main([
        "verify-nonmembership",
        jfile(tmp_path, "inst.json", INSIDE),
        jfile(tmp_path, "cert.json", WORKED_CERT),
    ])
    assert code == 1
    assert "InequalityNotViolated" in capsys.readouterr().out


def test_verify_nonmembership_json_output(tmp_path, capsys):
    code = main([
        "verify-nonmembership",
        jfile(tmp_path, "inst.json", OUTSIDE),
        jfile(tmp_path, "cert.json", WORKED_CERT),
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Accept"
    assert payload["violated_inequality"] == {"H.lambda": -4, "k.z": -2}


def test_verify_nonmembership_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main([
        "verify-nonmembership",
        str(bad),
        jfile(tmp_path, "cert.json", WORKED_CERT),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_nonmembership_inconsistent_instance(tmp_path, capsys):
    unbalanced = {"lambda_A": [3], "lambda_B": [2], "lambda_C": [2], "k": 2}
    code = main([
        "verify-nonmembership",
        jfile(tmp_path, "inst.json", unbalanced),
        jfile(tmp_path, "cert.json", WORKED_CERT),
    ])
    assert code == 2


def test_verify_nonmembership_rank_mismatch_is_malformed(tmp_path):
    inst3 = {
        "lambda_A": [1, 1, 1],
        "lambda_B": [1, 1, 1],
        "lambda_C": [1, 1, 1],
        "k": 3,
    }
    code = main([
        "verify-nonmembership",
        jfile(tmp_path, "inst.json", inst3),
        jfile(tmp_path, "cert.json", WORKED_CERT),
    ])
    assert code == 2


def test_verify_membership_accept(tmp_path, capsys):
    code = main([
        "verify-membership",
        jfile(tmp_path, "inst.json", INSIDE),
        jfile(tmp_path, "cert.json", GHZ_CERT),
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Accept(InThreshold)"
    assert payload["gap2"] == "0/1"
    assert payload["threshold2"] == f"1/{2**52}"


def test_verify_membership_reject(tmp_path, capsys):
    code = main([
        "verify-membership",
        jfile(tmp_path, "inst.json", CORNER),
        jfile(tmp_path, "cert.json", BELL_CERT),
        "--json",
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Reject(OutOfThreshold)"
    assert payload["gap2"] == "1/1"


def test_find_witness_then_verify(tmp_path, capsys):
    inst = jfile(tmp_path, "inst.json", INSIDE)
    out_path = str(tmp_path / "witness.json")
    assert main(["find-witness", inst, "--out", out_path]) == 0
    assert main(["verify-membership", inst, out_path]) == 0
    assert "Accept" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["find-witness", "INSIDE"], ["facets", "--m", "2"], ["sample", "--m", "2"]],
    ids=lambda argv: argv[0],
)
def test_empty_out_writes_the_file_text_to_stdout(argv, tmp_path, capsys):
    argv = [jfile(tmp_path, "inst.json", INSIDE) if a == "INSIDE" else a for a in argv]
    out_path = tmp_path / "out"
    assert main([*argv, "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main([*argv, "--out", ""]) == 0
    assert capsys.readouterr().out == out_path.read_text(encoding="utf-8")


def test_find_witness_not_found(tmp_path, capsys):
    inst = jfile(tmp_path, "inst.json", OUTSIDE)
    out_path = tmp_path / "witness.json"
    code = main(["find-witness", inst, "--out", str(out_path)])
    assert code == 1
    assert "NotFound" in capsys.readouterr().out
    assert not out_path.exists()


def test_find_witness_huge_k_failing_a_rank_inequality_not_found(tmp_path, capsys):
    # k = 2^500: a pure λ_A and λ_C force a pure λ_B, so (k), (k/2, k/2), (k)
    # fails a rank inequality and no witness is sought
    k = 2**500
    big = {"lambda_A": [k], "lambda_B": [k // 2, k // 2], "lambda_C": [k], "k": k}
    code = main(["find-witness", jfile(tmp_path, "inst.json", big)])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert "NotFound" in captured.out


def test_find_witness_beyond_float_range_then_verify(tmp_path, capsys):
    # k = 2^500 needs more than 1023 bits of truncation, past float·2^b; the
    # exact route writes the diagonal witness, and the verifier accepts it
    k = 2**500
    half = {"lambda_A": [k // 2, k // 2], "lambda_B": [k // 2, k // 2],
            "lambda_C": [k // 2, k // 2], "k": k}
    inst = jfile(tmp_path, "inst.json", half)
    out_path = str(tmp_path / "witness.json")
    assert main(["find-witness", inst, "--out", out_path]) == 0
    assert main(["verify-membership", inst, out_path]) == 0
    assert "Accept" in capsys.readouterr().out


def test_facets_rank_one_stdout(capsys):
    assert main(["facets", "--m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 1 and payload["nontrivial"] == []


def test_facets_irredundant_writes_file(tmp_path, capsys):
    out_path = tmp_path / "facets.json"
    code = main(["facets", "--m", "2", "--irredundant", "--out", str(out_path)])
    assert code == 0
    first = out_path.read_bytes()
    payload = json.loads(first)
    assert len(payload["nontrivial"]) == 3
    assert len(payload["chamber"]["inequalities"]) == 3
    capsys.readouterr()
    # reruns are byte-identical
    assert main(["facets", "--m", "2", "--irredundant", "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == first


def test_facets_rank_cap(capsys):
    assert main(["facets", "--m", "9"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "budget" in err


def test_facets_budget_exceeded(capsys):
    # m = 4 is within the weight cap; only the subset budget refuses it
    assert main(["facets", "--m", "4"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "exceed the budget" in err


def test_kron_positive(capsys):
    assert main(["kron", "2,1", "2,1", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_kron_zero(capsys):
    assert main(["kron", "2", "2", "1,1"]) == 1
    assert capsys.readouterr().out.strip() == "0"


def test_kron_malformed(capsys):
    assert main(["kron", "2,x", "2", "2"]) == 2
    assert main(["kron", "1,2", "3", "3"]) == 2  # rows must be non-increasing
    assert main(["kron", "2", "2", "3"]) == 2  # box counts differ
    capsys.readouterr()


def test_kron_cap(capsys):
    assert main(["kron", "13", "13", "13"]) == 2
    assert main(["kron", "5", "5", "5", "--cap", "4"]) == 2
    assert main(["kron", "5", "5", "5", "--cap", "5"]) == 0
    capsys.readouterr()


def test_member_bruteforce(tmp_path, capsys):
    triple = {"lambda_A": [2, 1], "lambda_B": [2, 1], "lambda_C": [2, 1], "k": 3}
    assert main(["member-bruteforce", jfile(tmp_path, "a.json", triple)]) == 0
    assert capsys.readouterr().out.strip() == "Yes(1)"

    inst = jfile(tmp_path, "b.json", INSIDE)
    assert main(["member-bruteforce", inst, "--lmax", "1"]) == 1
    assert capsys.readouterr().out.strip() == "Unknown"
    assert main(["member-bruteforce", inst, "--lmax", "2"]) == 0
    assert capsys.readouterr().out.strip() == "Yes(2)"

    assert main(["member-bruteforce", jfile(tmp_path, "c.json", OUTSIDE)]) == 1
    capsys.readouterr()


def test_member_bruteforce_cap(tmp_path, capsys):
    inst = jfile(tmp_path, "inst.json", INSIDE)
    assert main(["member-bruteforce", inst, "--lmax", "7"]) == 2
    assert main(["member-bruteforce", inst, "--lmax", "7", "--cap", "14"]) == 0
    capsys.readouterr()


def test_sample_stdout_and_determinism(tmp_path, capsys):
    assert main(["sample", "--m", "1", "--n", "5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    for line in lines:
        values = [float(tok) for tok in line.split(",")]
        assert values == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    out_path = tmp_path / "spectra.csv"
    assert main(["sample", "--m", "2", "--n", "10", "--seed", "3",
                 "--out", str(out_path)]) == 0
    first = out_path.read_bytes()
    capsys.readouterr()
    assert main(["sample", "--m", "2", "--n", "10", "--seed", "3",
                 "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == first
    capsys.readouterr()

    for m in (2, 3, 4):
        assert main(["sample", "--m", str(m), "--n", "50", "--seed", "5"]) == 0
        for line in capsys.readouterr().out.strip().split("\n"):
            values = [float(tok) for tok in line.split(",")]
            assert len(values) == 3 * m
            for spectrum in (values[:m], values[m:2 * m], values[2 * m:]):
                assert spectrum == sorted(spectrum, reverse=True)
                assert abs(sum(spectrum) - 1) <= 1e-12
                assert min(spectrum) >= -1e-12

    # the seed alone fixes the bytes: two fresh processes print the same CSV
    argv = [sys.executable, "-m", "kronkit.cli", "sample", "--m", "3", "--n", "20",
            "--seed", "7"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    first, second = (
        subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        for _ in range(2)
    )
    assert first == second and first.count(b"\n") == 20


# exact values past the 4300-digit cap on what is read are printed in full
HUGE = 10**4299  # 4300 digits, the most a JSON integer may have


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_membership_prints_a_gap_past_4300_digits(tmp_path, capsys, flags):
    big = 10**3000
    cert = {"m": 2, "entries": [
        {"idx": [1, 1, 1], "re": f"1/{big + 1}"},
        {"idx": [2, 2, 2], "re": f"1/{big + 3}"},
    ]}
    code = main([
        "verify-membership",
        jfile(tmp_path, "inst.json", INSIDE),
        jfile(tmp_path, "cert.json", cert),
        *flags,
    ])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    verdict = verify_membership(
        KronInstance.from_json(INSIDE), MembershipCertificate.from_json(cert)
    )
    # Decimal prints an int's digits without CPython's int→str limit
    gap2 = f"{Decimal(verdict.gap2.numerator)}/{Decimal(verdict.gap2.denominator)}"
    assert len(gap2) > 4300 and gap2 in out


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_nonmembership_prints_levels_past_4300_digits(tmp_path, capsys, flags):
    # the worked certificate scaled by 10^4299 is still a proof
    inst = {"lambda_A": [10], "lambda_B": [10], "lambda_C": [5, 5], "k": 10}
    cert = {"H": [[-HUGE, HUGE], [-HUGE, HUGE], [HUGE, -HUGE]], "z": -HUGE,
            "p": [1, 0, 0]}
    code = main([
        "verify-nonmembership",
        jfile(tmp_path, "inst.json", inst),
        jfile(tmp_path, "cert.json", cert),
        *flags,
    ])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    lhs, rhs = "-2" + "0" * 4300, "-1" + "0" * 4300  # -20·HUGE, 10·(-HUGE)
    if flags:
        assert f'"H.lambda": {lhs},' in out and f'"k.z": {rhs}\n' in out
    else:
        assert f"H·lambda = {lhs} < k·z = {rhs}" in out


def test_verify_nonmembership_refuses_a_4301_digit_integer(tmp_path, capsys):
    cert = tmp_path / "cert.json"  # z = -10^4300, written out by hand
    cert.write_text(json.dumps(WORKED_CERT).replace('"z": -1', '"z": -1' + "0" * 4300))
    code = main(["verify-nonmembership", jfile(tmp_path, "i.json", OUTSIDE), str(cert)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: bad certificate file {cert}: {PAST_LIMIT}\n"


@pytest.mark.parametrize("to_stdout", [False, True], ids=["--out PATH", '--out ""'])
def test_find_witness_writes_no_witness_past_the_digit_limit(tmp_path, capsys, to_stdout):
    # every integer of the instance has at most 2201 digits, but the exact
    # witness's entries need more than the 4300 that kronkit reads back
    k = 10**2200
    inst = {"lambda_A": [k - 1, 1], "lambda_B": [k - 1, 1], "lambda_C": [k - 1, 1], "k": k}
    out_path = tmp_path / "w.json"
    out = "" if to_stdout else str(out_path)
    code = main(["find-witness", jfile(tmp_path, "inst.json", inst), "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert f"{DIGIT_CAP}-digit limit" in captured.err
    assert captured.out == "" and not out_path.exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# the error boundary: malformed input exits 2, a crash exits 3

RANK_13 = {key: [1] * 13 for key in ("lambda_A", "lambda_B", "lambda_C")}
RANK_13["k"] = 13
RANK_13_CERT = {"H": [[0] * 13] * 3, "z": 0, "p": []}
RANK_200 = {"lambda_A": [1], "lambda_B": [1], "lambda_C": [1], "k": 1, "m": 200}
RANK_200_CERT = {"m": 200, "entries": [{"idx": [1, 1, 1], "re": "1/1", "im": "0/1"}]}
ONE_OVER_ZERO_CERT = {
    "m": 2,
    "entries": [{"idx": [1, 1, 1], "re": "1/0", "im": "0/1"}],
}
# Fraction("0.5") is 1/2, but a rational is written num/den
DECIMAL_CERT = {
    "m": 2,
    "entries": [{"idx": [1, 1, 1], "re": "0.5"}, {"idx": [2, 2, 2], "re": "1/2"}],
}
# JSON true is a Python int: read as 1, it would make this the GHZ witness
BOOL_CERT = {
    "m": 2,
    "entries": [
        {"idx": [1, 1, 1], "re": True},
        {"idx": [2, 2, 2], "re": 1},
    ],
}
# read as a sum this is 6|111> + |222>; keeping only the last |111>
# amplitude would make it the GHZ witness
REPEATED_INDEX_CERT = {
    "m": 2,
    "entries": [
        {"idx": [1, 1, 1], "re": "5/1"},
        {"idx": [1, 1, 1], "re": "1/1"},
        {"idx": [2, 2, 2], "re": "1/1"},
    ],
}
RANK_3 = {key: [1, 1, 1] for key in ("lambda_A", "lambda_B", "lambda_C")}
RANK_3["k"] = 3
# iterating these would read the characters "1", "1" or the key "1"
STRING_LAMBDA_A = {**INSIDE, "lambda_A": "11"}
OBJECT_LAMBDA_B = {**INSIDE, "lambda_B": {"1": 1}}
# int() would truncate these to OUTSIDE and WORKED_CERT, which verify
FRACTIONAL_INSTANCE = {
    "lambda_A": [2.5], "lambda_B": [2], "lambda_C": [1, 1], "k": 2.9,
}
FRACTIONAL_CERT = {"H": [[-1.9, 1.9], [-1, 1], [1, -1]], "z": -1.5, "p": [1.7, 0, 0]}


# a field missing, or present with a value of the wrong type
WITHOUT_K = {key: value for key, value in INSIDE.items() if key != "k"}
NULL_M = {**INSIDE, "m": None}
WITHOUT_RE_CERT = {"m": 2, "entries": [{"idx": [1, 1, 1], "im": "0/1"}]}
TWO_INDEX_CERT = {"m": 2, "entries": [{"idx": [1, 1], "re": "1/1"}]}
# a rational is a "num/den" string, never a JSON number
NUMBER_CERT = {"m": 2, "entries": [{"idx": [1, 1, 1], "re": 1}]}


# an entry that is no object would fail on its first key
STRING_ENTRY_CERT = {"m": 2, "entries": ["abc"]}
# ASCII digits past kronkit's cap on the digits of an integer
PAST_DIGIT_LIMIT = "1" * 5000
PAST_LIMIT = f"an integer exceeds the {DIGIT_CAP}-digit limit on integers"
# 4300 nines, the largest integer that is read; two of them sum past the cap
NINES = 10**DIGIT_CAP - 1
NINES_ROWS_INSTANCE = {"lambda_A": [NINES, NINES], "lambda_B": [1], "lambda_C": [1], "k": 1}
NINES_BLOCK_CERT = {**WORKED_CERT, "H": [[NINES, NINES], [-1, 1], [1, -1]]}
LONG_STRING_K = {**INSIDE, "k": "x" * 100_000}
PAST_LIMIT_NUM_CERT = {"m": 2, "entries": [{"idx": [1, 1, 1], "re": PAST_DIGIT_LIMIT}]}
PAST_LIMIT_DEN_CERT = {
    "m": 2,
    "entries": [{"idx": [1, 1, 1], "re": "1/" + PAST_DIGIT_LIMIT}],
}


NOT_TRACELESS_CERT = {**WORKED_CERT, "H": [[0, 1], [-1, 1], [1, -1]]}
TWO_COMPONENT_CERT = {**WORKED_CERT, "H": [[-1, 1], [-1, 1]]}
LONG_B_CERT = {**WORKED_CERT, "H": [[-1, 1], [-1, 0, 1], [1, -1]]}
# a string of three characters and an object: iterated, they would read as
# three components and as the object's keys
STRING_H_CERT = {**WORKED_CERT, "H": "abc"}
OBJECT_P_CERT = {**WORKED_CERT, "p": {"a": 1}}


MALFORMED = {
    "verify-nonmembership certificate without p": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", {"H": WORKED_CERT["H"], "z": -1}),
    ],
    "verify-nonmembership H not traceless": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", NOT_TRACELESS_CERT),
    ],
    "verify-nonmembership H with two components": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", TWO_COMPONENT_CERT),
    ],
    "verify-nonmembership H is a string": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", STRING_H_CERT),
    ],
    "verify-nonmembership p is an object": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", OBJECT_P_CERT),
    ],
    "verify-nonmembership B block of length 3": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", LONG_B_CERT),
    ],
    "verify-nonmembership fractional instance": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", FRACTIONAL_INSTANCE),
        jfile(t, "c.json", WORKED_CERT),
    ],
    "verify-nonmembership fractional certificate": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", FRACTIONAL_CERT),
    ],
    "verify-nonmembership m=13": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", RANK_13),
        jfile(t, "c.json", RANK_13_CERT),
    ],
    "verify-membership 1/0 amplitude": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", ONE_OVER_ZERO_CERT),
    ],
    "verify-membership decimal amplitude": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", DECIMAL_CERT),
    ],
    "verify-membership bool amplitude": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", BOOL_CERT),
    ],
    "verify-membership instance without k": lambda t: [
        "verify-membership",
        jfile(t, "i.json", WITHOUT_K),
        jfile(t, "c.json", GHZ_CERT),
    ],
    "verify-membership instance with m null": lambda t: [
        "verify-membership",
        jfile(t, "i.json", NULL_M),
        jfile(t, "c.json", GHZ_CERT),
    ],
    "verify-membership rows summing past the digit limit": lambda t: [
        "verify-membership",
        jfile(t, "i.json", NINES_ROWS_INSTANCE),
        jfile(t, "c.json", GHZ_CERT),
    ],
    "verify-membership k a long string": lambda t: [
        "verify-membership",
        jfile(t, "i.json", LONG_STRING_K),
        jfile(t, "c.json", GHZ_CERT),
    ],
    "verify-membership k a literal past the digit limit": lambda t: [
        "verify-membership",
        literal_k_file(t, "i.json", PAST_DIGIT_LIMIT),
        jfile(t, "c.json", GHZ_CERT),
    ],
    "verify-nonmembership H block summing past the digit limit": lambda t: [
        "verify-nonmembership",
        jfile(t, "i.json", OUTSIDE),
        jfile(t, "c.json", NINES_BLOCK_CERT),
    ],
    "verify-membership entry without re": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", WITHOUT_RE_CERT),
    ],
    "verify-membership idx of two indices": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", TWO_INDEX_CERT),
    ],
    "verify-membership number amplitude": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", NUMBER_CERT),
    ],
    "verify-membership numerator past the digit limit": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", PAST_LIMIT_NUM_CERT),
    ],
    "verify-membership denominator past the digit limit": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", PAST_LIMIT_DEN_CERT),
    ],
    "verify-membership repeated index": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", REPEATED_INDEX_CERT),
    ],
    "verify-nonmembership deeply nested certificate": lambda t: [
        "verify-nonmembership", jfile(t, "i.json", OUTSIDE), deep_file(t, "c.json"),
    ],
    "verify-membership deeply nested instance": lambda t: [
        "verify-membership", deep_file(t, "i.json"), jfile(t, "c.json", GHZ_CERT),
    ],
    "find-witness deeply nested instance": lambda t: [
        "find-witness", deep_file(t, "i.json"), "--out", str(t / "w.json"),
    ],
    "member-bruteforce deeply nested instance": lambda t: [
        "member-bruteforce", deep_file(t, "i.json"),
    ],
    "verify-membership certificate is a list": lambda t: [
        "verify-membership", jfile(t, "i.json", INSIDE), jfile(t, "c.json", [1]),
    ],
    "verify-membership entry is a string": lambda t: [
        "verify-membership",
        jfile(t, "i.json", INSIDE),
        jfile(t, "c.json", STRING_ENTRY_CERT),
    ],
    "find-witness instance is a list": lambda t: [
        "find-witness", jfile(t, "i.json", [[1, 1], [1, 1], [1, 1]]),
        "--out", str(t / "w.json"),
    ],
    "verify-membership rank mismatch": lambda t: [
        "verify-membership", jfile(t, "i.json", OUTSIDE), jfile(t, "c.json", {
            "m": 1, "entries": [{"idx": [1, 1, 1], "re": "1/1"}],
        }),
    ],
    "verify-membership m=200": lambda t: [
        "verify-membership",
        jfile(t, "i.json", RANK_200),
        jfile(t, "c.json", RANK_200_CERT),
    ],
    "find-witness missing instance": lambda t: [
        "find-witness", str(t / "no-such-file.json"),
    ],
    "find-witness lambda_A is a string": lambda t: [
        "find-witness", jfile(t, "i.json", STRING_LAMBDA_A), "--out", str(t / "w.json"),
    ],
    "verify-membership lambda_B is an object": lambda t: [
        "verify-membership",
        jfile(t, "i.json", OBJECT_LAMBDA_B),
        jfile(t, "c.json", GHZ_CERT),
    ],
    "find-witness m=13": lambda t: [
        "find-witness", jfile(t, "i.json", RANK_13), "--out", str(t / "w.json"),
    ],
    "find-witness unwritable --out": lambda t: [
        "find-witness", jfile(t, "i.json", INSIDE),
        "--out", str(t / "no-such-dir" / "w.json"),
    ],
    "find-witness --seed -1": lambda t: [
        "find-witness", jfile(t, "i.json", RANK_3), "--seed", "-1",
        "--out", str(t / "w.json"),
    ],
    "find-witness --seed ' 3'": lambda t: [
        "find-witness", jfile(t, "i.json", RANK_3), "--seed", " 3",
        "--out", str(t / "w.json"),
    ],
    "facets --m 0": lambda t: ["facets", "--m", "0"],
    "facets --m abc": lambda t: ["facets", "--m", "abc"],
    "facets unwritable --out": lambda t: [
        "facets", "--m", "1", "--out", str(t / "no-such-dir" / "f.json"),
    ],
    "kron --cap 0": lambda t: ["kron", "1", "1", "1", "--cap", "0"],
    "kron 2,,1 2,1 2,1": lambda t: ["kron", "2,,1", "2,1", "2,1"],
    "kron 2,1, 2,1 2,1": lambda t: ["kron", "2,1,", "2,1", "2,1"],
    "kron 1_0 1_0 1_0": lambda t: ["kron", "1_0", "1_0", "1_0"],
    "kron ٢ ٢ ٢": lambda t: ["kron", "٢", "٢", "٢"],
    "kron a row past the digit limit": lambda t: ["kron", PAST_DIGIT_LIMIT, "1", "1"],
    "kron a long row of letters": lambda t: ["kron", "x" * 5000, "1", "1"],
    "kron rows summing past the digit limit": lambda t: [
        "kron", f"{NINES},{NINES}", "1", "1",
    ],
    "kron long rows out of order": lambda t: [
        "kron", f"1,{'1' * 4000},{'1' * 4000}", "1", "1",
    ],
    "kron --cap past the digit limit": lambda t: [
        "kron", "1", "1", "1", "--cap", PAST_DIGIT_LIMIT,
    ],
    "member-bruteforce --lmax 0": lambda t: [
        "member-bruteforce", jfile(t, "i.json", INSIDE), "--lmax", "0",
    ],
    "member-bruteforce --lmax of 4300 digits": lambda t: [
        "member-bruteforce", jfile(t, "i.json", INSIDE), "--lmax", str(NINES),
    ],
    "sample --m 0": lambda t: ["sample", "--m", "0"],
    "sample --m 13": lambda t: ["sample", "--m", "13"],
    "sample --m 1_0": lambda t: ["sample", "--m", "1_0"],
    "sample --m +2": lambda t: ["sample", "--m", "+2"],
    "sample --m past the digit limit": lambda t: ["sample", "--m", PAST_DIGIT_LIMIT],
    "sample --m a long word": lambda t: ["sample", "--m", "x" * 5000],
    "sample --n -1": lambda t: ["sample", "--m", "2", "--n", "-1"],
    "sample --seed -1": lambda t: ["sample", "--m", "2", "--seed", "-1"],
    "sample unwritable --out": lambda t: [
        "sample", "--m", "1", "--n", "1", "--out", str(t / "no-such-dir" / "s.csv"),
    ],
}


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a bad argument itself
        return exc.code


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two(case, tmp_path, capsys):
    code = run_cli(MALFORMED[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_rank_13_certificate_hits_the_weight_cap(tmp_path, capsys):
    code = run_cli(MALFORMED["verify-nonmembership m=13"](tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: m=13 exceeds the weight materialization cap 12\n"


def test_not_traceless_certificate_is_refused_when_read(tmp_path, capsys):
    cert = jfile(tmp_path, "c.json", NOT_TRACELESS_CERT)
    code = main(["verify-nonmembership", jfile(tmp_path, "i.json", OUTSIDE), cert])
    err = capsys.readouterr().err
    assert code == 2
    reason = "component A of H sums to 1, not 0"
    assert err == f"error: bad certificate file {cert}: {reason}\n"


@pytest.mark.parametrize(
    "case, reason",
    [
        ("verify-nonmembership H is a string", "H must be a list, got str"),
        ("verify-nonmembership p is an object", "p must be a list, got dict"),
    ],
)
def test_a_field_that_is_no_list_is_refused_by_name(case, reason, tmp_path, capsys):
    argv = MALFORMED[case](tmp_path)
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: bad certificate file {argv[2]}: {reason}\n"


@pytest.mark.parametrize(
    "case, reason",
    [
        ("find-witness lambda_A is a string", "lambda_A must be a list, got str"),
        ("verify-membership lambda_B is an object", "lambda_B must be a list, got dict"),
    ],
)
def test_a_diagram_that_is_no_list_is_refused_by_name(case, reason, tmp_path, capsys):
    argv = MALFORMED[case](tmp_path)
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: bad instance file {argv[1]}: {reason}\n"


@pytest.mark.parametrize(
    "case, at, what, reason",
    [
        ("verify-nonmembership fractional instance", 1, "instance",
         "row 1 is not an integer: 2.5"),
        ("find-witness instance is a list", 1, "instance",
         "expected an object, got list"),
        ("verify-membership certificate is a list", 2, "certificate",
         "expected an object, got list"),
        ("verify-membership entry is a string", 2, "certificate",
         "expected an object, got str"),
        ("verify-membership instance without k", 1, "instance", "missing field 'k'"),
        ("verify-membership entry without re", 2, "certificate", "missing field 're'"),
        ("verify-nonmembership certificate without p", 2, "certificate",
         "missing field 'p'"),
        ("verify-membership instance with m null", 1, "instance",
         "expected an integer, got None"),
        ("verify-membership idx of two indices", 2, "certificate",
         "idx [1, 1] does not have three indices"),
        ("verify-membership number amplitude", 2, "certificate",
         "expected a num/den string, got 1"),
        ("verify-membership 1/0 amplitude", 2, "certificate",
         "rational '1/0' has a zero denominator"),
        ("verify-membership numerator past the digit limit", 2, "certificate",
         PAST_LIMIT),
        ("verify-membership denominator past the digit limit", 2, "certificate",
         PAST_LIMIT),
    ],
)
def test_a_reader_refuses_by_name(case, at, what, reason, tmp_path, capsys):
    argv = MALFORMED[case](tmp_path)
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: bad {what} file {argv[at]}: {reason}\n"


@pytest.mark.parametrize(
    "row, reason",
    [
        ("2,,1", "row length '' is not an integer"),
        ("2,1,", "row length '' is not an integer"),
        ("+2,1", "row length '+2' is not an integer"),
        (" 2,1", "row length ' 2' is not an integer"),
        ("٢,1", "row length '٢' is not an integer"),
        pytest.param(PAST_DIGIT_LIMIT, PAST_LIMIT, id="past-limit"),
    ],
)
def test_a_partition_row_is_ascii_decimal_digits(row, reason, capsys):
    assert main(["kron", row, "2,1", "2,1"]) == 2
    # a row past 20 characters is quoted by its first 20 and its length
    quoted = repr(row) if len(row) <= 20 else f"{row[:20]!r}... ({len(row)} characters)"
    assert capsys.readouterr().err == f"error: bad partition {quoted}: {reason}\n"


@pytest.mark.parametrize(
    "case, past_limit",
    [
        ("kron a row past the digit limit", True),
        ("kron a long row of letters", False),
        ("kron --cap past the digit limit", True),
        ("sample --m past the digit limit", True),
        ("sample --m a long word", False),
    ],
)
def test_an_oversized_token_leaves_short_lines(case, past_limit, tmp_path, capsys):
    # the 5000-character token is quoted by its first 20 characters, in
    # kronkit's words, not argparse's "invalid decimal value"
    token = next(arg for arg in MALFORMED[case](tmp_path) if len(arg) == 5000)
    assert run_cli(MALFORMED[case](tmp_path)) == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert f"{token[:20]!r}... (5000 characters)" in line
    assert max(len(line) for line in err.splitlines()) < 200
    assert line.endswith(f"(5000 characters): {PAST_LIMIT}") == past_limit
    assert "invalid" not in err and "set_int_max_str_digits" not in err


SUM_PAST_CAP = "<a 14286-bit integer>"  # 2 · (10^4300 − 1), shown by its size


@pytest.mark.parametrize(
    "case, at, reason",
    [
        ("verify-membership rows summing past the digit limit", 1,
         f"lambda_A has {SUM_PAST_CAP} boxes, expected 1"),
        ("verify-membership k a long string", 1,
         "expected an integer, got 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)"),
        ("verify-membership k a literal past the digit limit", 1, PAST_LIMIT),
        ("verify-nonmembership H block summing past the digit limit", 2,
         f"component A of H sums to {SUM_PAST_CAP}, not 0"),
        ("kron rows summing past the digit limit", None,
         f"k={SUM_PAST_CAP} exceeds the oracle cap 12"),
        ("kron long rows out of order", None,
         "bad partition '1,111111111111111111'... (8003 characters): "
         "row 2 is longer than row 1"),
        ("member-bruteforce --lmax of 4300 digits", None,
         f"stretching up to l=99999999999999999999... (4300 characters) needs "
         f"{SUM_PAST_CAP} boxes, cap is 12"),
    ],
)
def test_an_oversized_value_is_refused_on_one_short_line(
    case, at, reason, tmp_path, capsys
):
    # a value from a file or an argument, or a sum of such values, is echoed
    # through quoted(): exit 2, in kronkit's words, on one short line
    argv = MALFORMED[case](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    what = "instance" if at == 1 else "certificate"
    prefix = "error: " if at is None else f"error: bad {what} file {argv[at]}: "
    assert err == f"{prefix}{reason}\n"
    assert len(err) - len(prefix) < 150


def test_the_digit_cap_ignores_the_interpreter_setting():
    # kronkit's cap, not CPython's int↔str limit, decides what is read
    src = str(Path(__file__).resolve().parents[1] / "src")

    def kron_cap(digits, limit):
        argv = [sys.executable, "-m", "kronkit.cli", "kron", "--cap", "1" * digits,
                "2,1", "2,1", "2,1"]
        env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS=limit)
        return subprocess.run(argv, env=env, capture_output=True, text=True)

    below = kron_cap(1000, "640")
    assert (below.returncode, below.stdout, below.stderr) == (0, "1\n", "")
    past = kron_cap(5000, "0")
    assert past.returncode == 2 and "digit limit on integers" in past.stderr


def test_main_restores_the_interpreter_limit(capsys):
    # main lifts CPython's limit while it runs, then restores the caller's
    sys.set_int_max_str_digits(1000)
    try:
        assert main(["kron", "--cap", "1" * 2000, "2,1", "2,1", "2,1"]) == 0
        assert capsys.readouterr().out == "1\n"
        with pytest.raises(ValueError):
            str(10**1000)
    finally:
        sys.set_int_max_str_digits(DIGIT_CAP)


def test_every_subcommand_has_a_malformed_case():
    assert {case.split()[0] for case in MALFORMED} == set(cli._COMMANDS)


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def crash(*diagrams):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "kron_coeff", crash)
    assert main(["kron", "1", "1", "1"]) == 3
    err = capsys.readouterr().err
    assert "internal error:" in err and "boom" in err


def test_a_rejected_exact_witness_exits_three(monkeypatch, tmp_path, capsys):
    # three equal rows take the diagonal's witness, which required_bits
    # makes verify: a rejection is a bug, not NotFound (exit 1)
    rejected = Verdict(Decision.REJECT, Reason.OUT_OF_THRESHOLD)
    monkeypatch.setattr(search, "verify_membership", lambda *args: rejected)
    triple = {key: [2, 1] for key in ("lambda_A", "lambda_B", "lambda_C")}
    instance, out = jfile(tmp_path, "i.json", {**triple, "k": 3}), tmp_path / "w.json"
    assert main(["find-witness", instance, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: RuntimeError: ")
    assert captured.out == "" and not out.exists()


def test_non_integral_class_sum_exits_three(monkeypatch, capsys):
    # fake characters make the class sum 1·1 + 1·2³ = 9, not a multiple of 2!
    monkeypatch.setattr(oracle, "mn_character", lambda lam, mu: len(mu.rows))
    assert main(["kron", "1,1", "1,1", "1,1"]) == 3
    assert "internal error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --out is written in place: opened without truncation, then cut to length

def fresh_and_overwritten(tmp_path, argv):
    """The --out bytes of argv on a new file, and on a longer file first."""
    fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
    old.write_bytes(b"x" * 100_000)
    assert main([*argv, "--out", str(fresh)]) == 0
    assert main([*argv, "--out", str(old)]) == 0
    return fresh.read_bytes(), old.read_bytes()


def test_a_shorter_witness_over_a_longer_one_leaves_the_new_bytes(tmp_path, capsys):
    inst, out = jfile(tmp_path, "inst.json", INSIDE), tmp_path / "w.json"
    longer = jfile(tmp_path, "long.json", RANK_3)  # three entries, not two
    fresh, overwritten = fresh_and_overwritten(tmp_path, ["find-witness", inst])
    assert overwritten == fresh
    assert main(["find-witness", longer, "--out", str(out)]) == 0
    assert len(out.read_bytes()) > len(fresh)
    assert main(["find-witness", inst, "--out", str(out)]) == 0
    assert out.read_bytes() == fresh
    assert main(["verify-membership", inst, str(out)]) == 0


def test_facets_out_writes_the_committed_system(tmp_path, capsys):
    from importlib.resources import files

    committed = files("kronkit").joinpath("facets_m2.json").read_bytes()
    argv = ["facets", "--m", "2", "--irredundant"]
    assert fresh_and_overwritten(tmp_path, argv) == (committed, committed)


def test_sample_out_writes_the_stdout_bytes(tmp_path, capsys):
    argv = ["sample", "--m", "3", "--n", "10", "--seed", "3"]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert fresh_and_overwritten(tmp_path, argv) == (printed, printed)


def test_out_onto_dev_null_is_not_truncated(tmp_path, capsys):
    inst = jfile(tmp_path, "inst.json", INSIDE)
    assert main(["find-witness", inst, "--out", os.devnull]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"Accept: verified witness written to {os.devnull}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_out_onto_a_fifo_writes_the_witness(tmp_path, capsys):
    import threading

    inst, fifo = jfile(tmp_path, "inst.json", INSIDE), tmp_path / "pipe"
    fresh = tmp_path / "w.json"
    assert main(["find-witness", inst, "--out", str(fresh)]) == 0
    os.mkfifo(fifo)
    drained = []
    reader = threading.Thread(
        target=lambda: drained.append(fifo.read_bytes()), daemon=True
    )
    reader.start()
    try:
        code = main(["find-witness", inst, "--out", str(fifo)])
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0 and "error" not in capsys.readouterr().err
    assert drained == [fresh.read_bytes()]


def test_out_onto_a_directory_exits_two(tmp_path, capsys):
    inst = jfile(tmp_path, "inst.json", INSIDE)
    assert main(["find-witness", inst, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0,
    reason="the superuser may write a read-only file",
)
def test_out_onto_a_read_only_file_exits_two_and_keeps_it(tmp_path, capsys):
    inst, out = jfile(tmp_path, "inst.json", INSIDE), tmp_path / "w.json"
    out.write_bytes(b"keep")
    out.chmod(0o444)
    assert main(["find-witness", inst, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"
    assert out.read_bytes() == b"keep"


# ---------------------------------------------------------------------------
# one parse per command: a subcommand's parser alone, the full one otherwise

PARSE_CASES = {
    "verify-nonmembership": ["verify-nonmembership", "OUTSIDE", "CERT"],
    "verify-nonmembership --json": ["verify-nonmembership", "OUTSIDE", "CERT", "--json"],
    "verify-nonmembership -h": ["verify-nonmembership", "-h"],
    "verify-nonmembership missing certificate": ["verify-nonmembership", "OUTSIDE"],
    "verify-membership": ["verify-membership", "INSIDE", "GHZ"],
    "verify-membership --json first": ["verify-membership", "--json", "INSIDE", "GHZ"],
    "verify-membership --help": ["verify-membership", "--help"],
    "verify-membership leftover": ["verify-membership", "INSIDE", "GHZ", "more"],
    "find-witness": ["find-witness", "INSIDE", "--seed", "3", "--out", "OUT"],
    "find-witness --out=": ["find-witness", "INSIDE", "--out=OUT"],
    "find-witness -h after": ["find-witness", "INSIDE", "-h"],
    "find-witness bad --seed": ["find-witness", "INSIDE", "--seed", "x"],
    "find-witness --seed -1": ["find-witness", "INSIDE", "--seed", "-1"],
    "find-witness no instance": ["find-witness"],
    "find-witness unknown option": ["find-witness", "INSIDE", "--outt", "OUT"],
    "facets": ["facets", "--m", "1", "--seed", "2", "--irredundant"],
    "facets -h": ["facets", "-h"],
    "facets no --m": ["facets", "--irredundant"],
    "facets --m=x": ["facets", "--m=x"],
    "kron": ["kron", "2,1", "2,1", "2,1", "--cap", "5"],
    "kron -h": ["kron", "-h"],
    "kron missing diagram": ["kron", "2,1", "2,1"],
    "kron leftover": ["kron", "2,1", "2,1", "2,1", "extra"],
    "kron leftover option": ["kron", "2,1", "2,1", "2,1", "--json"],
    "kron -- then leftover": ["kron", "--", "2,1", "2,1", "2,1", "1"],
    "member-bruteforce": ["member-bruteforce", "INSIDE", "--lmax", "1", "--cap", "6"],
    "member-bruteforce -h": ["member-bruteforce", "-h"],
    "member-bruteforce bad --lmax": ["member-bruteforce", "INSIDE", "--lmax", "0"],
    "sample": ["sample", "--m", "2", "--n", "3", "--seed", "1"],
    "sample -h": ["sample", "-h"],
    "sample bad --seed": ["sample", "--m", "2", "--seed", "-3"],
    "empty argv": [],
    "-h": ["-h"],
    "--help then a subcommand": ["--help", "kron"],
    "unknown subcommand": ["no-such-command", "1"],
    "a subcommand's prefix": ["kro", "1", "1", "1"],
    "an option first": ["--json", "verify-membership", "INSIDE", "GHZ"],
    "-- first": ["--", "kron", "1", "1", "1"],
}


def run_captured(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_case_argv(case, tmp_path):
    files = {
        "OUTSIDE": jfile(tmp_path, "outside.json", OUTSIDE),
        "CERT": jfile(tmp_path, "cert.json", WORKED_CERT),
        "INSIDE": jfile(tmp_path, "inside.json", INSIDE),
        "GHZ": jfile(tmp_path, "ghz.json", GHZ_CERT),
        "OUT": str(tmp_path / "out.json"),
    }
    files["--out=OUT"] = "--out=" + files["OUT"]
    return [files.get(a, a) for a in PARSE_CASES[case]]


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_one_parse_matches_the_full_parser(case, tmp_path, capsys, monkeypatch):
    argv = parse_case_argv(case, tmp_path)
    one_pass = run_captured(argv, capsys)
    monkeypatch.setattr(cli, "_COMMANDS", {})  # every argv to the full parser
    assert run_captured(argv, capsys) == one_pass


@pytest.mark.parametrize(
    "argv", [["kron", "2,1", "2,1", "2,1"], ["sample", "--m", "1", "--n", "1"]]
)
def test_a_subcommand_is_parsed_by_its_own_parser_alone(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
    assert main(argv) == 0


NAMED = sorted(c for c, a in PARSE_CASES.items() if a and a[0] in cli._COMMANDS)


@pytest.mark.parametrize("case", NAMED)
def test_a_named_subcommand_is_parsed_once(case, tmp_path, monkeypatch, capsys):
    # no full parse, also when words are left over ("kron leftover" and others)
    calls = []
    full_parse = cli._PARSER.parse_args

    def spy(*args, **kwargs):
        calls.append(args)
        return full_parse(*args, **kwargs)

    monkeypatch.setattr(cli._PARSER, "parse_args", spy)
    run_captured(parse_case_argv(case, tmp_path), capsys)
    assert calls == []


def test_main_reads_sys_argv_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = [sys.executable, "-m", "kronkit.cli", "kron", "2,1", "2,1", "2,1"]
    ok = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "1\n", "")
    extra = subprocess.run(
        [*run, "extra"], env=env, capture_output=True, text=True, timeout=60
    )
    assert extra.returncode == 2 and extra.stdout == ""
    assert extra.stderr.endswith("kronkit: error: unrecognized arguments: extra\n")
