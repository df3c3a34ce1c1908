"""Command-line front end.

Exit-code discipline, used by every subcommand:

* 0 — accepted / true / success,
* 1 — rejected / false / unknown / not found,
* 2 — malformed input (unreadable or unparsable files, bad arguments,
  shape mismatches, exceeded caps, unwritable output); never used for a
  valid rejection,
* 3 — internal error: an unexpected exception, i.e. a bug in kronkit.

The loaders below turn what ``open`` and ``json.load`` raise into a
:class:`~kronkit.errors.KronkitError`, and :func:`main` is the only place that
maps exceptions to exit codes, so a crash never reads as a rejection.

All file formats are JSON with rationals as ``"num/den"`` strings, so
certificates are bit-exact across platforms.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager

from .diagrams import KronInstance, parse_young
from .errors import KronkitError
from .floats import sample_spectra, spectra_csv
from .marginals import MembershipCertificate, accept_threshold2, verify_membership
from .oracle import DEFAULT_ORACLE_CAP, kron_coeff, semigroup_member
from .ressayre import RessayreCertificate, verify_nonmembership
from .scalars import decimal_int, format_rational
from .search import enumerate_ressayre, reduce_irredundant, search_witness

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3

# What open and json.load raise on a bad file: a JSONDecodeError or an integer
# past the digit limit is a ValueError, nesting past the recursion limit a
# RecursionError.  Any other exception from a from_json is a bug: exit 3.
_FOREIGN = (OSError, ValueError, RecursionError)


def _load_json(path: str, build, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh))
    except (KronkitError, *_FOREIGN) as exc:
        raise KronkitError(f"bad {what} file {path}: {exc}") from exc


def _quoted(token: str) -> str:
    """The token in quotes for an error message, cut to its first 20
    characters, so that an oversized token leaves one short line."""
    if len(token) <= 20:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def _parse_partition(text: str):
    """Comma-separated rows.  Only ASCII decimal digits are converted, where
    int() would also read "+2", " 3", "1_0" and "٢"; any other token, ""
    too, is refused."""
    try:
        rows = []
        for token in text.split(","):
            if not (token.isascii() and token.isdigit()):
                raise KronkitError(f"row length {_quoted(token)} is not an integer")
            rows.append(decimal_int(token))
        return parse_young(rows)
    except KronkitError as exc:
        raise KronkitError(f"bad partition {_quoted(text)}: {exc}") from exc


def _int_at_least(low: int, what: str):
    """An argparse type for ASCII decimal integers ≥ low; anything else exits 2."""

    def decimal(text: str) -> int:
        refusal = f"expected a {what} integer, got {_quoted(text)}"
        try:
            value = decimal_int(text) if text.isascii() and text.isdigit() else low - 1
        except KronkitError as exc:
            raise argparse.ArgumentTypeError(f"{refusal}: {exc}") from None
        if value < low:
            raise argparse.ArgumentTypeError(refusal)
        return value

    return decimal


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _write(text: str, out: str | None, summary: str) -> None:
    """Write text to the file out and print summary, or text to stdout.

    The file is written in place, opened without ``O_TRUNC``, and a regular
    file is then cut to the written length; a FIFO or a device such as
    /dev/null cannot be cut and takes the text alone.  A regular file that
    is truncated and then rewritten is flushed to disk on close by some
    file systems (ext4 does so to protect replace-by-truncate), which costs
    about eight times the write itself.  No durability promise changes:
    kronkit never fsyncs, and a file torn by a crash, old bytes behind new
    ones, fails to parse or to verify.
    """
    if out:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
        print(summary)
    else:
        sys.stdout.write(text)


@contextmanager
def _all_digits():
    """Print exact integers in full, past CPython's int→str digit limit.

    The limit (4300 digits by default) stays in force while input is read,
    where it bounds the work a file can ask for.  Pythons before 3.10.7 have
    no limit and no setter.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    setter = getattr(sys, "set_int_max_str_digits", lambda n: None)
    setter(0)
    try:
        yield
    finally:
        setter(limit)


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_verify_nonmembership(args) -> int:
    inst = _load_json(args.instance, KronInstance.from_json, "instance")
    cert = _load_json(args.certificate, RessayreCertificate.from_json, "certificate")
    verdict = verify_nonmembership(inst, cert)
    payload = {"instance": inst.to_json(), "verdict": str(verdict)}
    if verdict.accepted:
        lhs = cert.h.pair_instance(inst.padded_rows())
        rhs = inst.k * cert.h.z
        payload["violated_inequality"] = {"H.lambda": lhs, "k.z": rhs}
        with _all_digits():
            _emit(payload, args.json, [
                f"Accept: certified non-membership for {inst}",
                f"  violated inequality: H·lambda = {lhs} < k·z = {rhs}",
            ])
        return EXIT_ACCEPT
    _emit(payload, args.json, [f"Reject ({verdict.reason.value}) for {inst}"])
    return EXIT_REJECT


def cmd_verify_membership(args) -> int:
    inst = _load_json(args.instance, KronInstance.from_json, "instance")
    cert = _load_json(args.certificate, MembershipCertificate.from_json, "certificate")
    verdict = verify_membership(inst, cert)
    with _all_digits():
        gap2 = format_rational(verdict.gap2)
        thr2 = format_rational(accept_threshold2(inst.m, inst.k))
    payload = {
        "instance": inst.to_json(),
        "verdict": str(verdict),
        "gap2": gap2,
        "threshold2": thr2,
    }
    lines = [
        f"{verdict} for {inst}",
        f"  exact gap^2       = {gap2}",
        f"  exact threshold^2 = {thr2}",
    ]
    _emit(payload, args.json, lines)
    return EXIT_ACCEPT if verdict.accepted else EXIT_REJECT


def cmd_find_witness(args) -> int:
    inst = _load_json(args.instance, KronInstance.from_json, "instance")
    cert = search_witness(inst, seed=args.seed)
    if cert is None:
        print(f"NotFound: no verified witness for {inst}")
        return EXIT_REJECT
    text = json.dumps(cert.to_json(), indent=2) + "\n"
    _write(text, args.out, f"Accept: verified witness written to {args.out}")
    return EXIT_ACCEPT


def cmd_facets(args) -> int:
    fs = enumerate_ressayre(args.m, seed=args.seed)
    if args.irredundant:
        fs = reduce_irredundant(fs)
    _write(
        json.dumps(fs.to_json(), indent=2) + "\n",
        args.out,
        f"{len(fs.nontrivial)} nontrivial inequalities at m={args.m} "
        f"written to {args.out}",
    )
    return EXIT_ACCEPT


def cmd_kron(args) -> int:
    diagrams = [_parse_partition(t) for t in (args.lam_a, args.lam_b, args.lam_c)]
    k = diagrams[0].boxes
    if k > args.cap:
        raise KronkitError(f"k={k} exceeds the oracle cap {args.cap}")
    g = kron_coeff(*diagrams)
    print(g)
    return EXIT_ACCEPT if g > 0 else EXIT_REJECT


def cmd_member_bruteforce(args) -> int:
    inst = _load_json(args.instance, KronInstance.from_json, "instance")
    result = semigroup_member(inst, args.lmax, cap=args.cap)
    if result is None:
        print("Unknown")
        return EXIT_REJECT
    print(f"Yes({result})")
    return EXIT_ACCEPT


def cmd_sample(args) -> int:
    text = spectra_csv(sample_spectra(args.m, args.n, args.seed))
    _write(text, args.out, f"{args.n} spectra at m={args.m} written to {args.out}")
    return EXIT_ACCEPT


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The full parser; each subcommand's parser also goes in ``commands``."""
    parser = argparse.ArgumentParser(
        prog="kronkit",
        description="Exact certificates for the polytope of marginal spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, **kwargs)
        return commands[name]

    p = add("verify-nonmembership", help="check a hyperplane certificate exactly")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_verify_nonmembership)

    p = add("verify-membership", help="check a witness-vector certificate exactly")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_verify_membership)

    p = add("find-witness", help="search for a verified witness vector")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default="witness.json", help="output certificate path")
    p.set_defaults(func=cmd_find_witness)

    p = add("facets", help="enumerate hyperplane certificates")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--irredundant", action="store_true")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_facets)

    p = add("kron", help="exact multiplicity of a diagram triple")
    p.add_argument("lam_a", help="comma-separated rows, e.g. 2,1")
    p.add_argument("lam_b")
    p.add_argument("lam_c")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=cmd_kron)

    p = add("member-bruteforce", help="stretched-multiplicity membership probe")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--lmax", type=_positive_int, default=4)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=cmd_member_bruteforce)

    p = add("sample", help="Monte-Carlo spectra as CSV")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sample)

    return parser


# Built once: every call of main in one process shares them.
_COMMANDS: dict[str, argparse.ArgumentParser] = {}
_PARSER = build_parser(_COMMANDS)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the single place that maps exceptions to exit codes.

    ``argv`` defaults to ``sys.argv[1:]`` and is parsed once.  The full
    parser hands every word after a subcommand's name to that subcommand's
    parser, so an argv that starts with a name is parsed by that parser
    alone; words it leaves over are refused with the full parser's own
    usage and ``unrecognized arguments`` message, exit 2.  Any other argv
    goes to the full parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        args, extra = _COMMANDS[argv[0]].parse_known_args(argv[1:])
        if extra:
            _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (KronkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
