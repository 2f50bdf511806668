"""Span tracer that wraps wlat functions where their callers look them up.

Nothing under ``src/`` knows about tracing: each traced function is
replaced, for the duration of :meth:`Tracer.installed`, by a wrapper bound
to the module attribute its caller reads at call time.  Wrappers record a
span (name, start, end, parent) in memory and never touch an RNG, so a
traced run draws exactly what an untraced one does.

Self time of a span is its duration minus the durations of its direct
children; children never overlap because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


def _dense_flops(args, factor):
    x, layer = args[0], args[1]
    return factor * x.shape[0] * layer.weight.shape[0] * layer.weight.shape[1]


def _head_flops(args, factor):
    h, head = args[0], args[1]
    n_clips, n_frames, width = h.shape
    return factor * n_clips * n_frames * width * head.att_dense.weight.shape[1]


def _forward_mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "infer")


@dataclass(frozen=True)
class Traced:
    """One traced function: its report name and the attributes that hold it.

    ``sites`` are ``module:attribute`` pairs, one per place a caller looks
    the function up.  ``split`` names a sub-span from the call arguments;
    ``flops`` counts the GEMM FLOPs (2 per multiply-add) the call performs.
    """

    name: str
    sites: tuple[str, ...]
    split: Callable | None = None
    flops: Callable | None = None


# Dense layers: forward is one (rows, in) x (in, out) GEMM; backward is two
# (grad_x and grad_W).  An attention head's forward is two (rows, H) x
# (H, K) GEMMs; its backward is four (two for grad_h, two weight grads).
TRACED = (
    Traced("attention.forward_batch", ("wlat.model:forward_batch",),
           flops=lambda args: _head_flops(args, 4)),
    Traced("attention.backward_batch", ("wlat.model:backward_batch",),
           flops=lambda args: _head_flops(args, 8)),
    Traced("attention.softmax_rows", ("wlat.attention:softmax_rows",)),
    Traced("attention.softmax_rows_backward", ("wlat.attention:softmax_rows_backward",)),
    Traced("attention.sigmoid", ("wlat.attention:sigmoid",)),
    Traced("nn.dense_forward", ("wlat.nn:dense_forward",),
           flops=lambda args: _dense_flops(args, 2)),
    Traced("nn.dense_backward", ("wlat.nn:dense_backward",),
           flops=lambda args: _dense_flops(args, 4)),
    Traced("nn.batchnorm_forward", ("wlat.nn:batchnorm_forward",)),
    Traced("nn.batchnorm_backward", ("wlat.nn:batchnorm_backward",)),
    Traced("nn.relu", ("wlat.nn:relu",)),
    Traced("nn.relu_backward", ("wlat.nn:relu_backward",)),
    Traced("nn.dropout_mask", ("wlat.model:dropout_mask",)),
    Traced("nn.sigmoid", ("wlat.nn:sigmoid",)),
    Traced("model.forward_cached", ("wlat.train:forward_cached", "wlat.model:forward_cached"),
           split=_forward_mode),
    Traced("model.backward", ("wlat.train:backward",)),
    Traced("model.predict_scores", ("wlat.train:predict_scores", "wlat.model:predict_scores")),
    Traced("model.load_weights", ("wlat.model:load_weights",)),
    Traced("train.adam_step", ("wlat.train:adam_step",)),
    Traced("train.bce_loss", ("wlat.train:bce_loss",)),
    Traced("train.fit", ("wlat.train:fit",)),
    Traced("metrics.evaluate", ("wlat.train:evaluate", "wlat.metrics:evaluate")),
    Traced("metrics.average_precision", ("wlat.metrics:average_precision",)),
    Traced("metrics.auc", ("wlat.metrics:auc",)),
    Traced("data.read_dataset", ("wlat.data:read_dataset",)),
    Traced("data.write_dataset", ("wlat.data:write_dataset",)),
    Traced("data.generate_synthetic", ("wlat.data:generate_synthetic",)),
    Traced("data.stack_features", ("wlat.train:stack_features", "wlat.data:stack_features")),
    Traced("data.stack_targets", ("wlat.train:stack_targets", "wlat.data:stack_targets")),
)

# Report names: the split function reports one name per mode.
REPORTED = tuple(
    name
    for t in TRACED
    for name in ((f"{t.name}.train", f"{t.name}.infer") if t.split else (t.name,))
)


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    flops: int = 0


@dataclass
class Tracer:
    """Collects spans per phase (``setup`` or ``op``) while installed."""

    phase: str = "op"
    op_index: int = -1
    spans: list[tuple] = field(default_factory=list)
    stats: dict[tuple[str, str], Stat] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    # per phase: wall time of the regions run traced, and the part of it
    # covered by top-level spans
    traced_ns: dict[str, int] = field(default_factory=dict)
    covered_ns: dict[str, int] = field(default_factory=dict)
    _stack: list[list[int]] = field(default_factory=list)

    def _wrap(self, entry: Traced, fn: Callable) -> Callable:
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            name = entry.name if entry.split is None else f"{entry.name}.{entry.split(args, kwargs)}"
            flops = 0
            if entry.flops is not None:
                try:
                    flops = entry.flops(args)
                except (AttributeError, IndexError, TypeError, ValueError):
                    flops = 0
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0]
            self._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.covered_ns[self.phase] = self.covered_ns.get(self.phase, 0) + duration
                self.spans[span_id] = (self.phase, self.op_index, span_id, name, start, end, parent)
                stat = self.stats.get((self.phase, name))
                if stat is None:
                    stat = self.stats[(self.phase, name)] = Stat()
                stat.calls += 1
                stat.self_ns += duration - frame[1]
                stat.total_ns += duration
                stat.flops += flops

        return wrapper

    @contextlib.contextmanager
    def installed(self, phase: str) -> Iterator[None]:
        """Wrap every traced function that still exists; restore on exit.

        A name missing at every site is recorded as absent instead of
        failing, so the tracer keeps working on later versions of wlat.
        """
        saved = []
        absent = []
        for entry in TRACED:
            found = False
            for site in entry.sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                found = True
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(entry, fn))
            if not found:
                absent.append(entry.name)
        self.absent = absent
        self.phase = phase
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.traced_ns[phase] = self.traced_ns.get(phase, 0) + time.perf_counter_ns() - start
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_spans(self, path) -> None:
        """One JSON array per line: phase, op, id, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")

    def per_function(self, n_ops: int, n_setups: int) -> dict[str, dict]:
        """calls, self_ms and self_pct per measured operation for every name.

        ``self_pct`` is self time as a share of the traced wall time.  A
        function seen only during set-up (``data.generate_synthetic``) is
        reported per set-up instead, and says so in ``per``.
        """
        table = {}
        for name in REPORTED:
            base = name.rsplit(".", 1)[0] if name.endswith((".train", ".infer")) else name
            if ("op", name) in self.stats or ("setup", name) not in self.stats:
                phase, count = "op", max(n_ops, 1)
            else:
                phase, count = "setup", n_setups
            stat = self.stats.get((phase, name), Stat())
            wall_ns = self.traced_ns.get(phase, 0)
            status = "absent" if base in self.absent else ("used" if stat.calls else "unused")
            table[name] = {
                "status": status,
                "per": phase,
                "calls": stat.calls / count,
                "self_ms": stat.self_ns / 1e6 / count,
                "total_ms": stat.total_ns / 1e6 / count,
                "self_pct": 100.0 * stat.self_ns / wall_ns if wall_ns else 0.0,
                "flops": stat.flops / count,
            }
        return table
