"""The certify gate fails a pass whose ``kron`` output is wrong or missing."""

import pytest

import workloads
from kronkit import cli
from kronkit.errors import KronkitError
from worker import measure


def one_outside_item(fx, tmp_path):
    """certify on one m = 3 instance that violates a facet and gets ``kron``."""
    wl = workloads.Certify(fx, 0, tmp_path)
    wl.items = [
        item
        for item in wl.items
        if item.kron is not None
        and workloads.violated(wl.systems.get(item.inst.m), item.inst.padded_rows(), item.inst.k)
    ][:1]
    assert wl.items
    return wl


def broken(*lams):
    raise KronkitError("broken oracle")


@pytest.mark.parametrize(
    "fake, problem", [(lambda *lams: 7, "kron gave 7"), (broken, "kron gave exit 2")]
)
def test_wrong_or_failing_kron_fails(fx, tmp_path, monkeypatch, fake, problem):
    wl = one_outside_item(fx, tmp_path)
    monkeypatch.setattr(cli, "kron_coeff", fake)
    summary = measure(wl, 0)
    assert not summary["correct"]
    assert summary["failed"] == 1
    assert problem in summary["problems"][0]
