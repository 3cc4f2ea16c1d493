"""Per-layer time and counts for the traced pass, recorded from outside
the package.

Each layer is timed by replacing one of its public functions where its
caller looks it up (a module global or a class attribute) with a wrapper
that records a span.  Spans nest through a stack, so a layer's self time
is its span time minus the time of the spans it caused.  Times are
integer nanoseconds, so the self times of all layers sum exactly to the
root spans as long as every wrapped call runs inside a root span; a call
made outside one adds self time that no root span contains, which is
what the benchmark's sum check catches.  Spans are folded into
per-layer totals as they close; no span list is kept, because the
stochastic workloads make about half a million of them per pass.

Nothing is patched outside ``Tracer.installed()``, and everything is
restored when it exits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Per-layer call counts, total and self nanoseconds, and extra counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._streams: list = []

    def wrap(self, layer: str, fn, after=None):
        """``fn`` inside a span of ``layer``; ``after(args, result)`` updates
        counters once the span has closed."""
        stack, clock = self._stack, time.perf_counter_ns
        calls, total, own = self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[layer] += 1
                total[layer] += elapsed
                own[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, layer: str):
        """The span every other span of a pass nests in."""
        frame = [0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            self.calls[layer] += 1
            self.total_ns[layer] += elapsed
            self.self_ns[layer] += elapsed - frame[0]
            self._sweep_streams(final=True)

    # -- seeding streams: did the stream produce a draw before it died? --

    def _count_stream(self, args, generator) -> None:
        self._streams.append(generator)
        if len(self._streams) >= 1024:
            self._sweep_streams(final=False)

    def _sweep_streams(self, final: bool) -> None:
        alive = []
        for g in self._streams:
            # 3 references: the list, the loop variable, getrefcount's argument.
            if final or sys.getrefcount(g) <= 3:
                state = g.bit_generator.state
                if state["state"]["counter"].any() or state["has_uint32"]:
                    self.counters["stream_used"] += 1
            else:
                alive.append(g)
        self._streams = alive

    # -- patching --

    def _count(self, name: str, amount):
        def after(args, result):
            self.counters[name] += amount(args, result)

        return after

    def _coords(self, args, result) -> None:
        self.counters["coords"] += len(args[0])

    def patches(self):
        """(owner, attribute, layer, after) of every traced entry point."""
        from deedsim import config, engine, harness, quantizer
        from deedsim.problems import QuadraticProblem
        from deedsim.theory import BoundSeries
        from deedsim.trace import RunTrace

        def csv_bytes(args, result):
            return os.path.getsize(args[1]) if isinstance(args[1], str) else 0

        def comm_rounds(args, result):
            traces = result if isinstance(result, list) else [result]
            return sum(int(((t.bits_up + t.bits_down) > 0).sum()) for t in traces)

        out = [
            (engine, "stream", "seeding.stream", self._count_stream),
            (engine, "quantize", "quantizer.quantize", self._coords),
            (quantizer, "sparse_payload_bits", "bitstream.payload_bits", None),
            (QuadraticProblem, "full_grad", "problems.grad", None),
            (QuadraticProblem, "stochastic_grad", "problems.grad", None),
            (QuadraticProblem, "f_gap", "problems.fgap", None),
            (config, "make_linreg", "problems.build", None),
            (config, "estimate_rho", "problems.certify", None),
            (engine, "estimate_rho", "problems.certify", None),
            (engine, "estimate_fed_constants", "problems.certify", None),
            (harness, "estimate_fed_constants", "problems.certify", None),
            (RunTrace, "to_csv", "harness.emit", self._count("csv_bytes", csv_bytes)),
            (BoundSeries, "to_csv", "harness.emit", None),
        ]
        for owner in (engine, harness):
            for name in ("deterministic_bound", "accelerated_bound", "sgd_squared_bound",
                         "fed_bound", "recursion_bound"):
                if name in vars(owner):
                    out.append((owner, name, "theory.bound", None))
        for name in engine.__all__:
            if name.startswith("run_"):
                out.append((engine, name, "engine", self._count("rounds", comm_rounds)))
        return out

    def wire_ops(self, ops):
        """Traced copies of the operations of a wire-codec pass."""
        return dataclasses.replace(
            ops,
            stream=self.wrap("seeding.stream", ops.stream, self._count_stream),
            quantize=self.wrap("quantizer.quantize", ops.quantize, self._coords),
            encode=self.wrap("bitstream.encode", ops.encode,
                             self._count("wire_bits", lambda a, r: r[1])),
            unpack=self.wrap("bitstream.decode", ops.unpack),
            unframe=self.wrap("harness.unframe", ops.unframe),
            decode=self.wrap("bitstream.decode", ops.decode),
            dequantize=self.wrap("quantizer.dequantize", ops.dequantize),
        )

    @contextlib.contextmanager
    def installed(self):
        """Replace every entry point of ``patches()`` for the duration."""
        saved = []
        try:
            for owner, attr, layer, after in self.patches():
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, self.wrap(layer, raw, after))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
