"""Per-layer tracing of kronkit from outside the program.

The traced run replaces each public layer function listed in ``LAYERS`` by a
wrapper, at every ``kronkit.*`` module binding that holds the original (the
modules import one another's functions by name, so patching only the defining
module would miss most calls).  A wrapper records a span per call.

Spans at the operation level (one certify instance, one verify check, one
``facets`` call, one reduction) are kept whole: name, start, end, parent and
operation id.  Calls below that level are aggregated per (name, parent name)
into a call count, busy time, self time and a count of useful outcomes, so the
~600k kernel calls of an m = 3 enumeration stay out of memory.

Self time is a span's duration minus the union of its child spans.  Children
of one span start in time order when the program is single-threaded, so the
union is merged incrementally as each child ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


def _not_none(result) -> bool:
    return result is not None


def _truthy(result) -> bool:
    return bool(result)


def _nonzero(result) -> bool:
    return result != 0


def _accepted(result) -> bool:
    return result.accepted


def _optimal(result) -> bool:
    return result.status == "optimal"


# module -> [(function, ratio metric name or None, useful-outcome predicate)]
LAYERS: dict[str, list[tuple[str, str | None, object]]] = {
    "cli": [("main", None, None)],
    "search": [
        ("enumerate_ressayre", None, None),
        ("find_point", "found_ratio", _not_none),
        ("reduce_irredundant", None, None),
        ("search_witness", "found_ratio", _not_none),
    ],
    "intlinalg": [
        ("kernel_vector_if_unique", "hit_ratio", _not_none),
        ("row_echelon_ff", None, None),
        ("det_bareiss", None, None),
        ("integer_rank", None, None),
    ],
    "weights": [
        ("split_weights", None, None),
        ("affine_rank", None, None),
        ("negative_roots_on", None, None),
    ],
    "ressayre": [
        ("check_admissible", "pass_ratio", _truthy),
        ("check_trace", "pass_ratio", _truthy),
        ("build_det_matrix", None, None),
        ("eval_determinant", "nonzero_ratio", _nonzero),
        ("verify_nonmembership", "accept_ratio", _accepted),
    ],
    "exactlp": [("solve_lp", "optimal_ratio", _optimal)],
    "marginals": [
        ("truncate", None, None),
        ("verify_membership", "accept_ratio", _accepted),
        ("reduced_densities", None, None),
        ("frobenius_gap2", None, None),
    ],
    "oracle": [
        ("kron_coeff", None, None),
        ("mn_character", None, None),
    ],
}

OPERATION = "op"


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for module, functions in LAYERS.items():
        for fn, ratio, _ in functions:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
            if ratio:
                out.append((f"{module}.{fn}.{ratio}", "ratio"))
    return out


@dataclass
class _Frame:
    name: str
    start: float
    covered: float = 0.0  # length of the union of finished child spans
    last_end: float = float("-inf")

    def add_child(self, start: float, end: float) -> None:
        """Merge a child interval; children arrive in order of their start."""
        if end > self.last_end:
            self.covered += end - max(start, self.last_end)
            self.last_end = end


@dataclass
class _Aggregate:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    useful: int = 0


@dataclass
class Tracer:
    """Span recorder: whole spans at operation level, aggregates below."""

    clock: object = time.perf_counter
    spans: list[dict] = field(default_factory=list)
    aggregates: dict[tuple[str, str | None], _Aggregate] = field(default_factory=dict)
    recording: bool = True
    _stack: list[_Frame] = field(default_factory=list)
    _op_id: int | None = None

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack.append(frame)
        return frame

    def leave(self, frame: _Frame, useful: bool = False) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.add_child(frame.start, end)
        self_s = (end - frame.start) - frame.covered
        if frame.name == OPERATION:
            self.spans.append(
                {
                    "name": frame.name,
                    "start": frame.start,
                    "end": end,
                    "parent": parent.name if parent else None,
                    "op": self._op_id,
                    "self_s": self_s,
                }
            )
            return
        key = (frame.name, parent.name if parent else None)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = _Aggregate()
        agg.calls += 1
        agg.busy_s += end - frame.start
        agg.self_s += self_s
        agg.useful += useful

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """One benchmark operation: its span is kept whole."""
        self._op_id = op_id
        frame = self.enter(OPERATION)
        try:
            yield
        finally:
            self.leave(frame)
            self._op_id = None

    def totals(self) -> dict[str, _Aggregate]:
        """Aggregates summed over parents, keyed by layer function name."""
        out: dict[str, _Aggregate] = {}
        for (name, _), agg in self.aggregates.items():
            tot = out.setdefault(name, _Aggregate())
            tot.calls += agg.calls
            tot.busy_s += agg.busy_s
            tot.self_s += agg.self_s
            tot.useful += agg.useful
        return out

    def write(self, path: str, **header) -> None:
        """Operation spans and aggregates as JSON, after ``header``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "operation_spans": self.spans,
                    "aggregates": [
                        {"name": name, "parent": parent, **vars(agg)}
                        for (name, parent), agg in self.aggregates.items()
                    ],
                },
                fh,
            )

    def layer_metrics(self, passes: int = 1) -> dict[str, float]:
        """Per-layer metrics per pass: calls, self seconds and useful ratios."""
        totals = self.totals()
        out: dict[str, float] = {}
        for module, functions in LAYERS.items():
            for fn, ratio, _ in functions:
                agg = totals.get(f"{module}.{fn}", _Aggregate())
                out[f"{module}.{fn}.calls"] = agg.calls / passes
                out[f"{module}.{fn}.self_s"] = agg.self_s / passes
                if ratio:
                    out[f"{module}.{fn}.{ratio}"] = (
                        agg.useful / agg.calls if agg.calls else 0.0
                    )
        return out


def _wrap(tracer: Tracer, name: str, fn, useful):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.leave(frame)
            raise
        tracer.leave(frame, useful(result) if useful else False)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every layer function at every kronkit binding; returns an undo."""
    for module in LAYERS:
        importlib.import_module(f"kronkit.{module}")
    bound = [
        mod
        for name, mod in sys.modules.items()
        if name == "kronkit" or name.startswith("kronkit.")
    ]
    undo = []
    for module, functions in LAYERS.items():
        home = sys.modules[f"kronkit.{module}"]
        for fn, _, useful in functions:
            original = getattr(home, fn)
            wrapped = _wrap(tracer, f"{module}.{fn}", original, useful)
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))

    def uninstall() -> None:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return uninstall
