"""In-memory span tracer that wraps spadcorr's public functions from outside.

Nothing in ``src/`` is edited: ``install`` replaces each traced function at
every ``spadcorr`` module attribute that holds it (so ``pipeline``'s
imported copy of ``simulate_frames`` is wrapped as well as ``sensor``'s),
and traced methods on their classes. ``uninstall`` puts the originals back.

A span is (name, start, end, parent, segment). Segments are the benchmark's
phases ("setup0", "round0", ...); spans and counts are kept per segment and
written out once, at the end of the run. Generators are traced per item:
each ``next()`` is one span, so time spent by the consumer between items is
not charged to the producer.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, segment)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.segment = None      # None: tracing paused
        self._stack = []
        self._accumulators = defaultdict(list)  # segment -> filled accs
        self._restore = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def active(self, segment: str):
        """Record spans and counts under segment while the block runs."""
        self.segment = segment
        try:
            yield
        finally:
            self.segment = None

    def close(self, segment: str) -> None:
        """Settle the segment's windowed-pair count and release its arrays."""
        accs = self._accumulators.pop(segment, [])
        self.counts[segment]["correlator.windowed_pairs"] += sum(
            int(acc.g2.sum()) // 2 for acc in accs)

    def count(self, name: str, n: float = 1) -> None:
        if self.segment is not None:
            self.counts[self.segment][name] += n

    def track_accumulator(self, acc) -> None:
        """Remember an accumulator filled in this segment for its pair count."""
        accs = self._accumulators[self.segment]
        if not any(a is acc for a in accs):
            accs.append(acc)

    def call(self, name, fn, *args, **kwargs):
        if self.segment is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.segment)

    # -- wrapping ----------------------------------------------------------

    def wrap_function(self, module, attr, name, after=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            out = self.call(name, original, *args, **kwargs)
            if after is not None and self.segment is not None:
                after(out, *args, **kwargs)
            return out

        self._replace_everywhere(original, traced)

    def wrap_generator(self, owner, attr, name, per_item=None, on_start=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_start is not None and self.segment is not None:
                on_start(*args, **kwargs)
            return self._traced_items(name, original(*args, **kwargs),
                                      per_item)

        if isinstance(owner, type):
            setattr(owner, attr, traced)
            self._restore.append((owner, attr, original))
        else:
            self._replace_everywhere(original, traced)

    def _replace_everywhere(self, original, traced):
        for name, mod in list(sys.modules.items()):
            if name != "spadcorr" and not name.startswith("spadcorr."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def _traced_items(self, name, gen, per_item):
        sentinel = object()
        try:
            while True:
                item = self.call(name, next, gen, sentinel)
                if item is sentinel:
                    return
                if per_item is not None and self.segment is not None:
                    per_item(item)
                yield item
        finally:
            gen.close()

    def wrap_method(self, cls, attr, name, after=None):
        original = getattr(cls, attr)

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            out = self.call(name, original, obj, *args, **kwargs)
            if after is not None and self.segment is not None:
                after(obj, out, *args, **kwargs)
            return out

        setattr(cls, attr, traced)
        self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- reading -----------------------------------------------------------

    def segment_totals(self, segment: str) -> dict:
        """Inclusive and self seconds, and calls, per span name; counts."""
        inclusive = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, seg in self.spans:
            if seg != segment:
                continue
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for idx, (name, start, end, parent, seg) in enumerate(self.spans):
            if seg == segment:
                own[name] += end - start - child.get(idx, 0.0)
        return {"inclusive_s": dict(inclusive), "self_s": dict(own),
                "calls": dict(calls),
                "counts": dict(self.counts.get(segment, {}))}

    def dump(self) -> dict:
        segments = sorted({s[4] for s in self.spans} | set(self.counts))
        return {"segments": {seg: self.segment_totals(seg)
                             for seg in segments},
                "spans": [list(s) for s in self.spans]}


def install(tracer: Tracer) -> Tracer:
    """Wrap the layer boundaries of every spadcorr module."""
    from spadcorr import (arraystore, correlator, epr, eventfile, fitting,
                          pipeline, sensor)

    def on_batch(batch):
        tracer.count("sensor.frames", batch.n_frames)
        tracer.count("sensor.events", batch.n_events)

    tracer.wrap_generator(sensor, "simulate_frames", "sensor.simulate_frames",
                          per_item=on_batch)

    def on_add(acc, out, batch):
        tracer.count("correlator.events", batch.n_events)
        tracer.track_accumulator(acc)

    tracer.wrap_method(correlator.CorrelationAccumulator, "add_batch",
                       "correlator.add_batch", after=on_add)

    def on_encode(writer, out, batch):
        ids = batch.frame_ids
        if ids.size:
            tracer.count("eventfile.frames_stored",
                         1 + int(np.count_nonzero(np.diff(ids))))

    def on_close(writer, out, *args, **kwargs):
        tracer.count("eventfile.bytes", writer.bytes_written)

    tracer.wrap_method(eventfile.EventFileWriter, "add_batch",
                       "eventfile.encode", after=on_encode)
    tracer.wrap_method(eventfile.EventFileWriter, "close",
                       "eventfile.encode", after=on_close)

    def on_decode_start(reader, *args, **kwargs):
        tracer.count("eventfile.bytes_decoded", os.path.getsize(reader.path))

    tracer.wrap_generator(eventfile.EventFileReader, "iter_batches",
                          "eventfile.decode", on_start=on_decode_start)

    for attr in ("run_pair_study", "simulate_accumulator", "simulate_to_file",
                 "accumulate_file"):
        tracer.wrap_function(pipeline, attr, f"pipeline.{attr}")
    tracer.wrap_function(pipeline, "characterize_crosstalk",
                         "pipeline.characterize")
    tracer.wrap_function(pipeline, "correct_chain", "correlator.correct")
    for attr in ("normalize", "estimate_accidentals", "subtract_accidentals",
                 "estimate_crosstalk", "correct_crosstalk", "mask_neighbors"):
        tracer.wrap_function(correlator, attr, f"correlator.{attr}")

    def calls(name):
        return lambda out, *args, **kwargs: tracer.count(name)

    for attr in ("project_axes", "project_sum_diff"):
        tracer.wrap_function(correlator, attr, f"correlator.{attr}",
                             after=calls(f"correlator.{attr}_calls"))

    tracer.wrap_function(epr, "evaluate_epr", "epr.evaluate")
    for method in ("numerical", "gauss1d", "gauss2d", "peaks"):
        tracer.wrap_function(epr, f"inferred_variance_{method}",
                             f"epr.{method}")

    for dims in ("1d", "2d"):
        tracer.wrap_function(fitting, f"fit_gaussian_{dims}",
                             f"fitting.fit{dims}",
                             after=_fit_counter(tracer, dims))

    def on_container(out, path, *args, **kwargs):
        tracer.count("arraystore.bytes", os.path.getsize(path))

    tracer.wrap_function(arraystore, "save_arrays", "arraystore.save",
                         after=on_container)
    tracer.wrap_function(arraystore, "load_arrays", "arraystore.load",
                         after=on_container)
    return tracer


def _fit_counter(tracer, dims):
    # A fit that raises never reaches this hook; it still counts as
    # attempted through its span, which layer_metrics reads.
    def after(fit, *args, **kwargs):
        tracer.count(f"fitting.converged{dims}", 1 if fit.converged else 0)
        tracer.count("fitting.lm_iterations", fit.iterations)
    return after


SPAN_METRICS = {
    "sensor.simulate_s": "sensor.simulate_frames",
    "pipeline.characterize_s": "pipeline.characterize",
    "eventfile.encode_s": "eventfile.encode",
    "eventfile.decode_s": "eventfile.decode",
    "correlator.accumulate_s": "correlator.add_batch",
    "correlator.correct_s": "correlator.correct",
    "correlator.estimate_accidentals_s": "correlator.estimate_accidentals",
    "correlator.estimate_crosstalk_s": "correlator.estimate_crosstalk",
    "correlator.correct_crosstalk_s": "correlator.correct_crosstalk",
    "correlator.mask_neighbors_s": "correlator.mask_neighbors",
    "correlator.project_axes_s": "correlator.project_axes",
    "correlator.project_sum_diff_s": "correlator.project_sum_diff",
    "epr.evaluate_s": "epr.evaluate",
    "epr.numerical_s": "epr.numerical",
    "epr.gauss1d_s": "epr.gauss1d",
    "epr.gauss2d_s": "epr.gauss2d",
    "epr.peaks_s": "epr.peaks",
    "arraystore.save_s": "arraystore.save",
    "arraystore.load_s": "arraystore.load",
}

COUNT_METRICS = ("sensor.frames", "sensor.events", "eventfile.bytes",
                 "eventfile.frames_stored", "correlator.events",
                 "correlator.windowed_pairs", "correlator.project_axes_calls",
                 "correlator.project_sum_diff_calls", "fitting.lm_iterations",
                 "arraystore.bytes")


def _per_round(tracer, segment):
    totals = tracer.segment_totals(segment)
    inc, counts = totals["inclusive_s"], totals["counts"]
    n_spans = totals["calls"]
    out = {metric: inc.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    out.update({name: counts.get(name, 0.0) for name in COUNT_METRICS})
    out["fitting.fit1d_calls"] = n_spans.get("fitting.fit1d", 0)
    out["fitting.fit2d_calls"] = n_spans.get("fitting.fit2d", 0)
    out["fitting.fit_s"] = (inc.get("fitting.fit1d", 0.0)
                            + inc.get("fitting.fit2d", 0.0))
    fits = out["fitting.fit1d_calls"] + out["fitting.fit2d_calls"]
    converged = (counts.get("fitting.converged1d", 0.0)
                 + counts.get("fitting.converged2d", 0.0))
    out["fitting.converged_ratio"] = converged / fits if fits else 0.0

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out["sensor.frames_per_s"] = rate(out["sensor.frames"],
                                      out["sensor.simulate_s"])
    out["correlator.events_per_s"] = rate(out["correlator.events"],
                                          out["correlator.accumulate_s"])
    out["eventfile.decode_mb_per_s"] = rate(
        counts.get("eventfile.bytes_decoded", 0.0) / 1e6,
        out["eventfile.decode_s"])
    return out


def layer_metrics(tracer, segments) -> dict:
    """Median over the given segments (the timed rounds) of each metric."""
    rows = [_per_round(tracer, seg) for seg in segments]
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def unit_of(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"
