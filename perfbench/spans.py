"""Outside-in tracing of apep for the benchmark's traced runs.

The tracer wraps public functions at the module attributes their callers
resolve, records one span per call (name, start, end, op id, parent span)
in memory, and restores the originals afterwards.  Nothing inside apep
changes.  Counts are taken at the same boundaries from the arguments and
results of the wrapped calls.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# Span name prefix -> layer, for the per-layer self times.
LAYER_OF = {
    "op": "op.self_s",
    "cli.parse": "cli.parse_s",
    "cli.serialize": "cli.serialize_s",
    "model.create": "model.create_s",
    "solve.dispatch": "solve.self_s",
    "matching": "matching.s",
    "verify.in_solve": "verify.in_solve_s",
    "verify.check": "verify.check_s",
    "reduce": "reduce.s",
    "oracle": "oracle.s",
}


class Tracer:
    """Spans and counts of one traced run.

    ``spans`` holds ``(name, start, end, op_id, parent)`` tuples, where
    ``parent`` is the index of the enclosing span or ``None`` for an op's
    root span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self.op_id, parent)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(counts, args, result)`` tallies work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, apep):
        """Swap the traced functions into apep's modules, restoring on exit."""
        patches = _patches(self, apep)
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, op_id, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYER_OF.values(), 0.0)
        for (name, start, end, op_id, parent), inner in zip(self.spans, child):
            out[layer_of(name)] += end - start - inner
        return out

    def op_self_sums(self) -> dict[int, float]:
        """Sum of all span self times per op id, which equals the root span."""
        sums: dict[int, float] = {}
        for name, start, end, op_id, parent in self.spans:
            if parent is None:
                sums[op_id] = sums.get(op_id, 0.0) + end - start
        return sums


def layer_of(name: str) -> str:
    return LAYER_OF[name.split(":", 1)[0]]


def _count_matching(counts, args, result) -> None:
    weights = args[0]
    counts["matching.calls"] += 1
    counts["matching.cells"] += len(weights) * (len(weights[0]) if weights else 0)
    counts["matching.found"] += result is not None


def _calls(key: str):
    def count(counts, args, result) -> None:
        counts[key] += 1

    return count


def _count_kernel(counts, args, result) -> None:
    inst = args[0]
    kernel, trace = result
    counts["reduce.calls"] += 1
    counts["reduce.users_removed"] += len(trace.removed_users)
    counts["reduce.users_in"] += inst.n
    counts["reduce.users_kept"] += kernel.n


def _count_oracle(counts, args, result) -> None:
    counts["oracle.calls"] += 1
    counts["oracle.kernel_cells"] += args[0].base.size


def _patches(tracer: Tracer, apep) -> list[tuple]:
    """(owner, attribute, replacement) for every traced entry point present.

    Attributes a later version of apep no longer has are skipped, so the
    same benchmark runs against every commit.
    """
    solve, cli = apep.solve, apep.cli
    out = []

    def add(owner, attr, name, count=None):
        fn = owner.__dict__.get(attr)
        if fn is not None:
            out.append((owner, attr, tracer.wrap(name, fn, count)))

    add(solve, "max_weight_row_saturating", "matching", _count_matching)
    for module in (solve, apep.reduce, apep.oracle):
        add(module, "check_valid", "verify.in_solve", _calls("verify.in_solve_calls"))
    add(solve, "brute_decide", "oracle", _count_oracle)
    for attr, fn in sorted(vars(solve).items()):
        if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", "") == "apep.reduce":
            count = _count_kernel if attr == "apply_reduction_rule" else _calls("reduce.calls")
            add(solve, attr, f"reduce:{attr}", count)
    add(cli, "parse_instance", "cli.parse:instance")
    add(cli, "parse_relation", "cli.parse:relation")
    add(cli, "serialize_relation", "cli.serialize")

    create = apep.model.Instance.__dict__["create"].__func__
    out.append((apep.model.Instance, "create",
                classmethod(tracer.wrap("model.create", create, _calls("model.create_calls")))))
    return out
