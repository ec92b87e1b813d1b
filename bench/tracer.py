"""In-memory span tracer and exact counters, attached to sixradii from outside.

:func:`install` replaces the public functions listed in ``_TARGETS`` with
wrappers, in every ``sixradii`` module that imported them, and returns a
function that puts the originals back. The program's own code is untouched.

Each wrapped call records a span: name, start, end and the span that was open
when it started (its parent). A layer's self time is its span's duration
minus the durations of its child spans. Spans stay in memory until
:meth:`Tracer.write`. Alongside the spans the wrappers keep exact counters
(trials, discards, pieces laid and drawn, division steps, ...) that must
repeat bit for bit for a given seed and configuration.

Pool workers are forked from the traced process and inherit the wrappers.
Their spans are dropped, but their counters are added to a shared array
whenever a worker's outermost traced call returns, so counters of a run with
several workers can be compared with a serial run.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from time import perf_counter_ns

SPAN_NAMES = (
    "bench.call",
    "config.resolve",
    "reports.write",
    "svgplot.render",
    "experiments.batch",
    "experiments.cell",
    "histogram.run_campaign",
    "histogram.stopping_met",
    "measurement.simulate_trial",
    "measurement.accumulate",
    "stochastics.derive_child",
    "stochastics.reciprocal_peak_curve",
    "contfrac.cf_expand",
    "contfrac.convergent",
    "contfrac.euclid_quotients",
)

# Exact counters beyond the per-span call counts.
COUNTER_NAMES = (
    "trials",
    "discards",
    "measurements",
    "past_bin16",
    "runaway_trials",
    "campaign_measurements",
    "pieces_laid",
    "pieces_drawn",
    "recip_samples",
    "division_steps",
)

_HIST_HI = 16  # histogram window top (Histogram default); above it is overflow

_SPAN = {name: i for i, name in enumerate(SPAN_NAMES)}
_COUNTER = {name: len(SPAN_NAMES) + i for i, name in enumerate(COUNTER_NAMES)}
_N_EXACT = len(SPAN_NAMES) + len(COUNTER_NAMES)
_DRAWN = _COUNTER["pieces_drawn"]
_TRIAL = _SPAN["measurement.simulate_trial"]


class Tracer:
    """Spans, per-name aggregates and exact counters of one traced process."""

    def __init__(self) -> None:
        self._shared = multiprocessing.RawArray("q", _N_EXACT)
        self._lock = multiprocessing.Lock()
        self.in_child = False
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        """Forget all spans, aggregates and counters (shared ones included)."""
        self.stack: list[list[int]] = []
        self.spans = array("q")  # flat (id, parent, name, start_ns, end_ns)
        self.keep_spans = True
        self.next_id = 0
        self.exact = [0] * _N_EXACT
        self.total_ns = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.runaway_trial_ns = 0
        if not self.in_child:
            with self._lock:
                for i in range(_N_EXACT):
                    self._shared[i] = 0

    def _after_fork(self) -> None:
        self.in_child = True
        self.reset()

    def enter(self, name: int) -> list[int]:
        """Open a span.

        The frame is [id, start_ns, child_ns, runaway flag, name, pieces drawn
        before the call].
        """
        frame = [self.next_id, 0, 0, 0, name, self.exact[_DRAWN]]
        self.next_id += 1
        self.stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def leave(self, name: int, frame: list[int]) -> int:
        """Close the innermost span; returns its duration in ns."""
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        self.exact[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - frame[2]
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        if self.keep_spans and not self.in_child:
            self.spans.extend((frame[0], parent_id, name, frame[1], end))
        return duration

    def count(self, counter: str, amount: int = 1) -> None:
        self.exact[_COUNTER[counter]] += amount

    def settle(self) -> None:
        """In a worker, hand counters to the parent once the outermost call ends."""
        if self.in_child and not self.stack:
            with self._lock:
                for i, value in enumerate(self.exact):
                    if value:
                        self._shared[i] += value
            self.exact = [0] * _N_EXACT

    def counters(self) -> dict[str, int]:
        """Exact counts of this process plus everything flushed by workers."""
        merged = [a + b for a, b in zip(self.exact, self._shared)]
        out = {f"calls.{name}": merged[i] for name, i in _SPAN.items()}
        out.update({name: merged[i] for name, i in _COUNTER.items()})
        return out

    def calls(self, name: str) -> int:
        """Calls of a span made in this process."""
        return self.exact[_SPAN[name]]

    def local_count(self, counter: str) -> int:
        """A counter as counted in this process alone."""
        return self.exact[_COUNTER[counter]]

    def self_us(self, name: str) -> float:
        """Mean self time per call in microseconds (0 when never called)."""
        i = _SPAN[name]
        return self.self_ns[i] / self.exact[i] / 1e3 if self.exact[i] else 0.0

    def total_ms(self, name: str) -> float:
        """Mean inclusive time per call in milliseconds (0 when never called)."""
        i = _SPAN[name]
        return self.total_ns[i] / self.exact[i] / 1e6 if self.exact[i] else 0.0

    def total_s(self, name: str) -> float:
        return self.total_ns[_SPAN[name]] / 1e9

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns (result, seconds)."""
        frame = self.enter(_SPAN[name])
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.leave(_SPAN[name], frame)
        return result, duration / 1e9

    def write(self, path) -> int:
        """Write the recorded spans as CSV; returns the number of spans."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            for k in range(0, len(spans), 5):
                handle.write(
                    f"{spans[k]},{spans[k + 1]},{SPAN_NAMES[spans[k + 2]]},"
                    f"{spans[k + 3]},{spans[k + 4]}\n"
                )
        return len(spans) // 5


def _wrapper(tracer: Tracer, span: str, fn, on_result=None, on_error=None):
    name = _SPAN[span]

    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(tracer, exc, frame)
            tracer.leave(name, frame)
            tracer.settle()
            raise
        duration = tracer.leave(name, frame)
        if on_result is not None:
            on_result(tracer, args, result, frame, duration)
        tracer.settle()
        return result

    traced.__wrapped__ = fn
    return traced


def _counting_wrapper(tracer: Tracer, counter: str, fn, size_arg: int):
    """No span, only a counter of an argument (draw sizes are too fine to span)."""
    index = _COUNTER[counter]

    def counted(*args, **kwargs):
        tracer.exact[index] += args[size_arg]
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _on_trial(tracer, args, trial, frame, duration):
    tracer.count("trials")
    if trial.discarded:
        tracer.count("discards")
    else:
        tracer.count("measurements")
        if trial.second_quotient > _HIST_HI:
            tracer.count("past_bin16")
    if frame[3]:
        tracer.count("runaway_trials")
        tracer.runaway_trial_ns += duration


def _on_accumulate(tracer, args, acc, frame, duration):
    tracer.count("pieces_laid", acc.pieces_used - 1)


def _on_accumulate_error(tracer, exc, frame):
    # A runaway accumulation laid every piece it drew; flag the enclosing trial.
    from sixradii.measurement import DegenerateConfigError

    if isinstance(exc, DegenerateConfigError):
        tracer.count("pieces_laid", tracer.exact[_DRAWN] - frame[5])
        if len(tracer.stack) >= 2 and tracer.stack[-2][4] == _TRIAL:
            tracer.stack[-2][3] = 1


def _on_campaign(tracer, args, result, frame, duration):
    tracer.count("campaign_measurements", result.measurements)


def _on_recip(tracer, args, points, frame, duration):
    cfg = args[0]
    tracer.count("recip_samples", cfg.samples_per_point * len(cfg.denominator_stdevs))


def _on_cf_expand(tracer, args, expansion, frame, duration):
    tracer.count("division_steps", len(expansion.quotients))


def _on_euclid(tracer, args, quotients, frame, duration):
    tracer.count("division_steps", len(quotients))


# (module, function, span, on_result, on_error)
_TARGETS = (
    ("config", "resolve", "config.resolve", None, None),
    ("reports", "write_csv", "reports.write", None, None),
    ("reports", "write_json", "reports.write", None, None),
    ("svgplot", "render_histogram_svg", "svgplot.render", None, None),
    ("experiments", "run_campaign_batch", "experiments.batch", None, None),
    ("experiments", "radius_budget_grid", "experiments.batch", None, None),
    ("experiments", "fixed_budget_success", "experiments.cell", None, None),
    ("histogram", "run_campaign", "histogram.run_campaign", _on_campaign, None),
    ("histogram", "stopping_met", "histogram.stopping_met", None, None),
    ("measurement", "simulate_trial", "measurement.simulate_trial", _on_trial, None),
    ("measurement", "accumulate_until_exceeds", "measurement.accumulate",
     _on_accumulate, _on_accumulate_error),
    ("stochastics", "derive_child", "stochastics.derive_child", None, None),
    ("stochastics", "reciprocal_peak_curve", "stochastics.reciprocal_peak_curve",
     _on_recip, None),
    ("contfrac", "cf_expand", "contfrac.cf_expand", _on_cf_expand, None),
    ("contfrac", "convergent", "contfrac.convergent", None, None),
    ("contfrac", "euclid_quotients", "contfrac.euclid_quotients", _on_euclid, None),
)


def install(tracer: Tracer):
    """Trace the listed public functions everywhere sixradii refers to them.

    Returns a function that restores the originals.
    """
    import importlib
    import sys

    importlib.import_module("sixradii.cli")  # loads every module that imports them
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "sixradii" or name.startswith("sixradii."))]
    replacements = {}
    for module_name, attr, span, on_result, on_error in _TARGETS:
        original = getattr(sys.modules[f"sixradii.{module_name}"], attr)
        replacements[id(original)] = (
            original, _wrapper(tracer, span, original, on_result, on_error))
    from sixradii import stochastics

    original = stochastics.normal_block
    replacements[id(original)] = (
        original, _counting_wrapper(tracer, "pieces_drawn", original, 1))

    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore
