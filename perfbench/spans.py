"""Spans recorded around the public activeseg functions the query loop calls.

The benchmark never edits the library: it swaps module attributes for
timing wrappers while one experiment runs and puts the originals back
afterwards, also when the experiment raises.  Each wrapped name is a
*boundary*.  Because the loop looks these names up on their modules at
call time (``segmenter.predict``, ``weaklabeler.refine``, the ``infer``
global of ``weaklabeler``, ...), every call made by the loop passes through
a wrapper.

Spans are kept in memory and written out once, after the experiment.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Boundary:
    """One wrapped name: ``module.attr`` recorded as span ``span``."""

    module: str
    attr: str
    span: str
    # derives per-call counters from the call's arguments
    counters: Optional[Callable[..., dict]] = None


def _train_counters(params, labeled_set, cfg, *rest, **kw) -> dict:
    return {"sample_steps": cfg.epochs * len(labeled_set)}


def _infer_counters(image, p, params, *rest, **kw) -> dict:
    return {"pixel_steps": image.height * image.width * params.steps}


def _run_detailed_counters(split, *rest, **kw) -> dict:
    # the pool the queries must come from, for the outcome invariants
    return {"_pool_ids": frozenset(s.id for s in split.pool)}


def _predict_counters(params, image, *rest, **kw) -> dict:
    # identities are safe as keys because the span keeps both objects alive;
    # names starting with "_" stay out of the trace file
    return {"_key": (id(params), id(image)), "_refs": (params, image)}


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("activeseg.harness", "run_experiment", "harness.run_experiment"),
    Boundary("activeseg.harness", "load_samples", "harness.load_samples"),
    Boundary("activeseg.harness", "make_split", "harness.make_split"),
    Boundary("activeseg.harness", "write_run_log", "harness.write_run_log"),
    Boundary("activeseg.harness", "write_timings", "harness.write_timings"),
    Boundary("activeseg.harness", "write_correlation_pairs", "harness.write_correlation_pairs"),
    Boundary("activeseg.harness", "write_scores_csv", "harness.write_scores_csv"),
    Boundary("activeseg.harness", "report_correlation", "harness.report_correlation"),
    Boundary("activeseg.alloop", "run_detailed", "alloop.run_detailed", _run_detailed_counters),
    Boundary("activeseg.alloop", "run_iteration", "alloop.run_iteration"),
    Boundary("activeseg.alloop", "evaluate", "alloop.evaluate"),
    Boundary("activeseg.segmenter", "train", "segmenter.train", _train_counters),
    Boundary("activeseg.segmenter", "predict", "segmenter.predict", _predict_counters),
    Boundary("activeseg.selection", "score_sample", "selection.score_sample"),
    Boundary("activeseg.selection", "select_queries", "selection.select_queries"),
    Boundary("activeseg.weaklabeler", "refine", "weaklabeler.refine"),
    Boundary("activeseg.weaklabeler", "greedy_finetune", "weaklabeler.greedy_finetune"),
    Boundary("activeseg.weaklabeler", "build_ensemble", "weaklabeler.build_ensemble"),
    # the name weaklabeler looks up, so every CRF decode of the loop is seen
    Boundary("activeseg.weaklabeler", "infer", "crf.infer", _infer_counters),
)

# untraced runs wrap only what the end-to-end metrics need: the set-up calls
# for setup_s, the rounds for round_s_p50 and run_detailed for its pool
UNTRACED = tuple(
    b for b in BOUNDARIES
    if b.span in ("harness.load_samples", "harness.make_split", "alloop.run_detailed", "alloop.run_iteration")
)

REPORT_SPANS = (
    "harness.write_run_log",
    "harness.write_timings",
    "harness.write_correlation_pairs",
    "harness.write_scores_csv",
    "harness.report_correlation",
)


class BenchmarkError(RuntimeError):
    """The benchmark no longer matches the library (a renamed or unused boundary)."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call, nested by the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, original: Callable, boundary: Boundary) -> Callable:
        def wrapper(*args, **kwargs):
            counters = boundary.counters(*args, **kwargs) if boundary.counters else {}
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(boundary.span, time.perf_counter(), 0.0, parent, self.run_id, counters)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()

        wrapper.__wrapped__ = original
        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                counters = {k: v for k, v in span.counters.items() if not k.startswith("_")}
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "run_id": span.run_id, "counters": counters,
                }) + "\n")


def resolve(boundaries: Iterable[Boundary]) -> list[tuple[object, Boundary]]:
    """Module objects for every boundary; raises if a wrapped name is gone."""
    resolved = []
    for b in boundaries:
        module = importlib.import_module(b.module)
        if not callable(getattr(module, b.attr, None)):
            raise BenchmarkError(f"wrapped name {b.module}.{b.attr} no longer exists")
        resolved.append((module, b))
    return resolved


@contextmanager
def installed(tracer: Tracer, boundaries: Sequence[Boundary]) -> Iterator[Tracer]:
    """Wrap ``boundaries`` for ``tracer`` and restore the originals on exit,
    also when the body raises.

    Every name in BOUNDARIES is checked even when fewer are wrapped, so an
    untraced run also fails loudly on a rename.
    """
    resolve(BOUNDARIES)
    saved = []
    try:
        for module, b in resolve(boundaries):
            original = getattr(module, b.attr)
            saved.append((module, b.attr, original))
            setattr(module, b.attr, tracer._wrap(original, b))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The loop is single-threaded, so children of one span never overlap and
    their durations can be summed.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def ancestors(spans: Sequence[Span], index: int) -> Iterator[str]:
    """Names of the spans enclosing ``spans[index]``, innermost first."""
    i = spans[index].parent
    while i >= 0:
        yield spans[i].name
        i = spans[i].parent


def context(spans: Sequence[Span], index: int) -> str:
    """Which part of the loop a call ran in: evaluate, round or other."""
    enclosing = list(ancestors(spans, index))
    if "alloop.evaluate" in enclosing:
        return "evaluate"
    return "round" if "alloop.run_iteration" in enclosing else "other"
