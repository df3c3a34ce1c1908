import json
import sys
from functools import cache
from pathlib import Path

import pytest

from kronkit import marginals, ressayre
from kronkit.search import enumerate_ressayre

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def enumerate_once():
    """enumerate_ressayre(m) at the default seed, computed once per session.

    The m = 3 enumeration is the slowest step of the suite; the tests that
    need it share one result.  The first caller pays the full cost inside
    its own body.
    """
    return cache(enumerate_ressayre)


def _round_tripping(verifier):
    def verify(inst, cert):
        verdict = verifier(inst, cert)
        if verdict.accepted:
            text = json.dumps(cert.to_json())
            assert type(cert).from_json(json.loads(text)) == cert, text
        return verdict

    return verify


@pytest.fixture(scope="session", autouse=True)
def accepted_certificates_round_trip():
    """Every certificate a verifier accepts in the suite reads back equal.

    Both verifiers are wrapped at every binding in kronkit and in the test
    modules, so an Accept whose JSON ``from_json`` refuses, or reads as a
    different certificate, fails the test that produced it.
    """
    undo = []
    for verifier in (ressayre.verify_nonmembership, marginals.verify_membership):
        wrapped = _round_tripping(verifier)
        for name, mod in list(sys.modules.items()):
            path = getattr(mod, "__file__", None) or ""
            if not (name.startswith("kronkit") or Path(path).parent == TESTS):
                continue
            for attr, value in list(vars(mod).items()):
                if value is verifier:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, verifier))
    yield
    for mod, attr, verifier in reversed(undo):
        setattr(mod, attr, verifier)
