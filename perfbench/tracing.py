"""Spans recorded from outside pairtrack, around each module's entry points.

``instrument`` swaps wrappers in for the functions as ``pairtrack.pipeline``
looks them up, for ``Tracker.step`` and for ``OracleDenoiser.denoise_batch``
(the run's one denoiser), and restores the originals on exit. Each wrapper records
a span (name, start, end, parent span, pair id) and row counts in memory.
``layer_metrics`` turns the spans into per-pair and per-sequence numbers.
``step_clock`` is the only instrument of the untraced run: a timestamp as
each ``Tracker.step`` returns.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    pair: int | None
    end: float = float("nan")
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Pair ids number the frame pairs of the whole run from 1; a span without
    an explicit pair inherits its parent's.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.pair: int | None = None
        self._pairs = 0

    def next_pair(self) -> int:
        self._pairs += 1
        self.pair = self._pairs
        return self.pair

    @contextmanager
    def span(self, name: str, pair: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if pair is None and parent is not None:
            pair = parent.pair
        s = Span(len(self.spans), name, perf_counter(),
                 parent.id if parent else None, pair)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counts=None, pair=None):
        """Wrap ``fn`` in a span; ``counts(args, out)`` returns row counts
        and ``pair(args)`` the pair id the call belongs to."""
        def wrapper(*args, **kwargs):
            with self.span(name, pair(args) if pair else None) as s:
                out = fn(*args, **kwargs)
                if counts is not None:
                    s.counts.update(counts(args, out))
                return out
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


@contextmanager
def _patched(obj, name: str, make_wrapper):
    """Replace ``obj.name`` by ``make_wrapper(current)``; restore on exit."""
    own = vars(obj).get(name, _MISSING)
    setattr(obj, name, make_wrapper(getattr(obj, name)))
    try:
        yield
    finally:
        if own is _MISSING:
            delattr(obj, name)
        else:
            setattr(obj, name, own)


def _nms_counts(args, out):
    return {"rows_in": len(args[0]), "kept": len(out)}


def _step_counts(args, out):
    tracker = args[0]
    return {"cands_in": len(args[2]), "active": len(tracker.activated),
            "lost": len(tracker.lost)}


@contextmanager
def instrument(tracer: Tracer, pt):
    """Trace one run: pipeline lookups, ``Tracker.step``, the oracle
    denoiser and ``pairtrack.generate`` as the benchmark calls it."""
    pipeline = pt.pipeline
    wrap = tracer.wrap
    patches = [
        (pipeline, "build_inference_proposals",
         lambda f: wrap("diffusion.build_inference_proposals", f)),
        (pipeline, "corrupt_proposals",
         lambda f: wrap("diffusion.corrupt_proposals", f)),
        (pipeline, "ddim_refine", lambda f: wrap("diffusion.ddim_refine", f)),
        (pipeline, "run_pair", lambda f: wrap(
            "pipeline.run_pair", f,
            counts=lambda a, out: {"kept": len(out[0])},
            pair=lambda a: tracer.next_pair())),
        (pipeline, "nms3d", lambda f: wrap("geometry.nms3d", f, _nms_counts)),
        (pipeline, "nms2d", lambda f: wrap("geometry.nms2d", f, _nms_counts)),
        (pt.tracker.Tracker, "step", lambda f: wrap(
            "tracker.step", f, _step_counts, pair=lambda a: tracer.pair)),
        (pt.OracleDenoiser, "denoise_batch", lambda f: wrap(
            "denoiser.denoise_batch", f,
            counts=lambda a, out: {"rows": int(a[1].shape[0])})),
        (pt, "generate", lambda f: wrap("simulator.generate", f)),
    ]
    with ExitStack() as stack:
        for obj, name, make in patches:
            stack.enter_context(_patched(obj, name, make))
        yield tracer


@contextmanager
def step_clock(pt, marks: list[float]):
    """Append a timestamp to ``marks`` as each ``Tracker.step`` returns."""
    def make(step):
        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            marks.append(perf_counter())
            return out
        return timed_step

    with _patched(pt.tracker.Tracker, "step", make):
        yield marks


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def pair_windows(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Each pair's interval: from the previous ``Tracker.step`` return of
    its sequence (or the ``run_sequence`` call) to its own step's return."""
    last: dict[int, float] = {}
    windows = {}
    for s in spans:
        if s.name == "pipeline.run_sequence":
            last[s.id] = s.start
        elif s.name == "tracker.step":
            windows[s.pair] = (last[s.parent], s.end)
            last[s.parent] = s.end
    return windows


# (metric, unit, span name, what) with what one of: "ms" total duration,
# "self_ms" total self time, "calls", or a count key; all divided by the
# number of pairs. Per-sequence metrics divide durations by span count.
_PER_PAIR = [
    ("geometry.nms3d_ms", "ms", "geometry.nms3d", "ms"),
    ("geometry.nms3d_rows_in", "count", "geometry.nms3d", "rows_in"),
    ("geometry.nms3d_kept", "count", "geometry.nms3d", "kept"),
    ("geometry.nms2d_ms", "ms", "geometry.nms2d", "ms"),
    ("geometry.nms2d_rows_in", "count", "geometry.nms2d", "rows_in"),
    ("geometry.nms2d_kept", "count", "geometry.nms2d", "kept"),
    ("denoiser.denoise_ms", "ms", "denoiser.denoise_batch", "ms"),
    ("denoiser.calls_per_pair", "count", "denoiser.denoise_batch", "calls"),
    ("diffusion.refine_self_ms", "ms", "diffusion.ddim_refine", "self_ms"),
    ("diffusion.proposals_ms", "ms", "diffusion.build_inference_proposals", "ms"),
    ("diffusion.corrupt_ms", "ms", "diffusion.corrupt_proposals", "ms"),
    ("pipeline.run_pair_self_ms", "ms", "pipeline.run_pair", "self_ms"),
    ("pipeline.det_gate_kept", "count", "pipeline.run_pair", "kept"),
    ("pipeline.sequence_self_ms", "ms", "pipeline.run_sequence", "self_ms"),
    ("tracker.step_ms", "ms", "tracker.step", "ms"),
    ("tracker.cands_in", "count", "tracker.step", "cands_in"),
    ("tracker.active_tracks", "count", "tracker.step", "active"),
    ("tracker.lost_tracks", "count", "tracker.step", "lost"),
]
_PER_SEQUENCE = [
    ("metrics.evaluate_ms", "metrics.evaluate"),
    ("harness.io.write_results_ms", "harness.io.write_results"),
    ("simulator.generate_ms", "simulator.generate"),
]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced run, as {name: (value, unit)}."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        self_total[s.name] += own[s.id]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[s.name, key] += value

    windows = pair_windows(spans)
    n_pairs = len(windows)

    def per_pair(x: float) -> float:
        return x / n_pairs if n_pairs else 0.0

    out: dict[str, tuple[float, str]] = {}
    for metric, unit, name, what in _PER_PAIR:
        if what == "ms":
            value = per_pair(total[name]) * 1e3
        elif what == "self_ms":
            value = per_pair(self_total[name]) * 1e3
        elif what == "calls":
            value = per_pair(calls[name])
        else:
            value = per_pair(counts[name, what])
        out[metric] = (value, unit)

    rows_in = counts["geometry.nms3d", "rows_in"]
    out["geometry.nms3d_keep_ratio"] = (
        counts["geometry.nms3d", "kept"] / rows_in if rows_in else 0.0, "ratio")
    n_calls = calls["denoiser.denoise_batch"]
    out["denoiser.rows_per_call"] = (
        counts["denoiser.denoise_batch", "rows"] / n_calls if n_calls else 0.0,
        "count")
    for metric, name in _PER_SEQUENCE:
        out[metric] = (total[name] / calls[name] * 1e3 if calls[name] else 0.0, "ms")
    out["trace.pair_ms"] = (
        per_pair(sum(end - start for start, end in windows.values())) * 1e3, "ms")
    return out
