"""Each workload, on a tiny input, reaches every layer it is meant to measure.

A wrapper that misses a module binding would read as zero calls; the exact
counts below catch that where the count is known in advance.
"""

import spans
import workloads
from worker import measure

ENUMERATE = [
    "cli.main",
    "search.enumerate_ressayre",
    "search.find_point",
    "intlinalg.kernel_vector_if_unique",
    "intlinalg.row_echelon_ff",
    "intlinalg.integer_rank",
    "weights.split_weights",
    "weights.affine_rank",
    "weights.negative_roots_on",
    "ressayre.check_admissible",
    "ressayre.check_trace",
    "ressayre.build_det_matrix",
    "ressayre.eval_determinant",
]
REDUCE = ["search.reduce_irredundant", "exactlp.solve_lp"]
CERTIFY = [
    "cli.main",
    "search.search_witness",
    "marginals.truncate",
    "marginals.verify_membership",
    "marginals.reduced_densities",
    "marginals.frobenius_gap2",
    "oracle.kron_coeff",
    "oracle.mn_character",
    "ressayre.verify_nonmembership",
]
VERIFY = [
    "ressayre.verify_nonmembership",
    "ressayre.check_admissible",
    "ressayre.check_trace",
    "ressayre.build_det_matrix",
    "ressayre.eval_determinant",
    "intlinalg.det_bareiss",
    "intlinalg.integer_rank",
    "intlinalg.row_echelon_ff",
    "weights.split_weights",
    "weights.affine_rank",
    "weights.negative_roots_on",
    "marginals.verify_membership",
    "marginals.reduced_densities",
    "marginals.frobenius_gap2",
]


def traced_pass(workload):
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        summary = measure(workload, 0, tracer)
    finally:
        uninstall()
    assert summary["counts"]["passes"] == 1
    return summary, tracer.layer_metrics()


def assert_reached(layers, functions):
    missing = [fn for fn in functions if not layers[f"{fn}.calls"] > 0]
    assert not missing


def test_enumerate_layers(fx, tmp_path):
    wl = workloads.EnumerateM3(fx, 0, tmp_path)
    wl.out = tmp_path / "m2.json"
    wl.argv = ["facets", "--m", "2", "--out", str(wl.out)]
    summary, layers = traced_pass(wl)
    assert_reached(layers, ENUMERATE)
    assert layers["cli.main.calls"] == 1
    assert layers["search.enumerate_ressayre.calls"] == 1
    assert layers["intlinalg.kernel_vector_if_unique.calls"] == 56  # C(8, 3)


def test_reduce_layers(fx, tmp_path):
    wl = workloads.ReduceM3(fx, 0, tmp_path)
    sample = fx.m3_irredundant.nontrivial[:3] + fx.m3.nontrivial[:3]
    wl.system = workloads.FacetSystem(3, sample, fx.m3.chamber)
    summary, layers = traced_pass(wl)
    assert_reached(layers, REDUCE)
    assert layers["exactlp.solve_lp.calls"] == len(sample)


def test_certify_layers(fx, tmp_path):
    wl = workloads.Certify(fx, 0, tmp_path)
    by_m = {}
    for item in wl.items:
        outside = workloads.violated(
            wl.systems.get(item.inst.m), item.inst.padded_rows(), item.inst.k
        )
        by_m.setdefault((item.inst.m, outside is not None), item)
    wl.items = [by_m[(2, False)], by_m[(3, True)], by_m[(3, False)]]
    summary, layers = traced_pass(wl)
    assert_reached(layers, CERTIFY)
    assert layers["ressayre.verify_nonmembership.calls"] == 1
    assert layers["search.search_witness.calls"] == 2
    assert summary["correct"], summary["problems"]


def test_verify_layers(fx, tmp_path):
    wl = workloads.Verify(fx, 0, tmp_path)
    first = {}
    for entry in wl.draw:
        first.setdefault(entry[2]["class"], entry)
    wl.draw = list(first.values())
    summary, layers = traced_pass(wl)
    assert_reached(layers, VERIFY)
    kinds = [kind for kind, _, _ in wl.draw]
    assert layers["ressayre.verify_nonmembership.calls"] == kinds.count("nonmember")
    assert layers["marginals.verify_membership.calls"] == kinds.count("member")
    assert summary["correct"], summary["problems"]
    assert summary["failed"] == 0
