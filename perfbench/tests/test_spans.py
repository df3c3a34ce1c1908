"""Self-time arithmetic and binding replacement of the span tracer."""

import pytest

import spans


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # op [0, 10] holds A [1, 6] and C [7, 9]; A holds B [2, 3] and B [4, 5]
    tracer = spans.Tracer(clock=scripted_clock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    with tracer.operation(7):
        a = tracer.enter("m.A")
        b = tracer.enter("m.B")
        tracer.leave(b, useful=True)
        b = tracer.enter("m.B")
        tracer.leave(b)
        tracer.leave(a)
        c = tracer.enter("m.C")
        tracer.leave(c)
    (op,) = tracer.spans
    assert (op["start"], op["end"], op["op"], op["parent"]) == (0, 10, 7, None)
    assert op["self_s"] == 3  # 10 − (5 + 2)
    totals = tracer.totals()
    assert (totals["m.A"].calls, totals["m.A"].busy_s, totals["m.A"].self_s) == (1, 5, 3)
    assert (totals["m.B"].calls, totals["m.B"].self_s, totals["m.B"].useful) == (2, 2, 1)
    assert totals["m.C"].self_s == 2
    assert set(tracer.aggregates) == {("m.A", "op"), ("m.B", "m.A"), ("m.C", "op")}


def test_self_time_subtracts_the_union_of_overlapping_children():
    frame = spans._Frame("x", 0.0)
    for start, end in [(1, 4), (2, 6), (3, 5), (8, 9)]:
        frame.add_child(start, end)
    assert frame.covered == 6  # [1, 6] ∪ [8, 9]


def test_out_of_order_close_is_an_error():
    tracer = spans.Tracer(clock=scripted_clock(range(10)))
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.leave(outer)


def test_install_replaces_every_binding_and_undoes():
    import sys

    import kronkit
    from kronkit import intlinalg, ressayre

    weights = sys.modules["kronkit.weights"]  # kronkit.weights is a function

    original = intlinalg.det_bareiss
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert ressayre.det_bareiss is intlinalg.det_bareiss is not original
        assert kronkit.verify_nonmembership is ressayre.verify_nonmembership
        assert weights.integer_rank([[1, 0], [0, 1]]) == 2
    finally:
        uninstall()
    assert ressayre.det_bareiss is intlinalg.det_bareiss is original
    assert tracer.totals()["intlinalg.integer_rank"].calls == 1
    assert tracer.totals()["intlinalg.row_echelon_ff"].calls == 1


def test_paused_calls_are_not_recorded():
    from kronkit import intlinalg

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        with tracer.paused():
            intlinalg.integer_rank([[1, 2], [2, 4]])
        intlinalg.det_bareiss([[1, 2], [3, 4]])
    finally:
        uninstall()
    assert set(tracer.totals()) == {"intlinalg.det_bareiss", "intlinalg.row_echelon_ff"}


def test_every_layer_function_has_calls_and_self_time():
    names = dict(spans.layer_metric_names())
    for module, functions in spans.LAYERS.items():
        for fn, ratio, _ in functions:
            assert names[f"{module}.{fn}.calls"] == "count"
            assert names[f"{module}.{fn}.self_s"] == "s"
            if ratio:
                assert names[f"{module}.{fn}.{ratio}"] == "ratio"
