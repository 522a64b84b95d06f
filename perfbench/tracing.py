"""Span tracing from outside the package, and the per-layer metrics derived from it.

:func:`install` replaces public functions and methods of ``promptopt`` modules
with wrappers that record one span per call: name, start, end, parent span
and the run identifier. The package's code is not changed; only the names it
looks up at call time are. Spans stay in memory until :meth:`Tracer.dump`.

Call it in a fresh worker process before building the gateway, since the
patches are process-wide.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Span record layout: [name, parent index (-1 at the root), start, end, attr].
NAME, PARENT, START, END, ATTR = range(5)

# Spans whose sum is the artifact-writing phase of a run.
ARTIFACT_SPANS = ("artifact.write_json", "artifact.write_jsonl", "gateway.transcript.save")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.backend = ""  # class name of the traced backend

    @contextmanager
    def span(self, name: str, attr=None):
        record = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0, attr]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, attr_of=None):
        """``fn`` with a span around every call; ``attr_of(args)`` tags the span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0,
                      attr_of(args) if attr_of else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, one per span, in start order."""
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, parent, start, end, attr) in enumerate(self.spans):
                row = {"run": self.run_id, "id": index, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attr is not None:
                    row["attr"] = attr
                handle.write(json.dumps(row) + "\n")


def install(tracer: Tracer) -> None:
    """Patch the public call sites of every traced layer of ``promptopt``."""
    from promptopt import artifact, bandit, gateway, gradients, momentum, scoring, scripted, search

    def patch(owner, attr: str, name: str, attr_of=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attr_of))

    # search calls these through names bound in its own namespace.
    patch(search, "evaluate_prompt", "scoring.evaluate_prompt")
    patch(search, "expand_parent", "search.expand_parent")
    patch(search, "sample_minibatch", "data.sample_minibatch", attr_of=lambda a: a[3])
    patch(search, "sample_by_correctness", "data.sample_by_correctness")
    # ... and these through their modules.
    patch(bandit, "select", "bandit.select")
    for fn in ("record_round", "sample_history_gradient", "history_text"):
        patch(momentum, fn, f"momentum.{fn}")
    patch(artifact, "write_json", "artifact.write_json", attr_of=lambda a: str(a[0]))
    patch(artifact, "write_jsonl", "artifact.write_jsonl", attr_of=lambda a: str(a[0]))
    patch(gradients, "render", "gradients.render")
    patch(gradients, "parse_delimited", "gradients.parse_delimited")
    patch(gateway, "_requests_transport", "gateway.live.transport")
    patch(gateway.Transcript, "save", "gateway.transcript.save", attr_of=lambda a: str(a[1]))
    patch(scripted.HeuristicScript, "__call__", "scripted.respond")

    complete = tracer.wrap("gateway.complete", gateway.Gateway.complete,
                           attr_of=lambda a: a[1].role_tag)

    @functools.wraps(complete)
    def counted_complete(self, req):
        try:
            return complete(self, req)
        except gateway.GatewayError:
            tracer.counts["failures"] += 1
            raise

    gateway.Gateway.complete = counted_complete

    load = gateway.Transcript.load
    gateway.Transcript.load = classmethod(
        tracer.wrap("gateway.transcript.load", lambda cls, path: load(path),
                    attr_of=lambda a: str(a[1]))
    )

    parse_label = scoring.parse_label

    @functools.wraps(parse_label)
    def traced_parse_label(raw, label_set):
        with tracer.span("scoring.parse_label"):
            label = parse_label(raw, label_set)
        tracer.counts["unparsed"] += label is None
        return label

    scoring.parse_label = traced_parse_label

    apply_gradient = gradients.GradientEngine.apply_gradient

    @functools.wraps(apply_gradient)
    def traced_apply_gradient(*args, **kwargs):
        children = apply_gradient(*args, **kwargs)
        tracer.counts["edit_children"] += len(children)
        return children

    gradients.GradientEngine.apply_gradient = traced_apply_gradient

    count_as_eval = gateway.Gateway.count_as_eval

    @contextmanager
    def traced_count_as_eval(self):
        with tracer.span("gateway.count_as_eval"), count_as_eval(self):
            yield

    gateway.Gateway.count_as_eval = traced_count_as_eval


def trace_backend(tracer: Tracer, backend) -> None:
    """Span each ``backend.complete`` call and count the attempts it reports."""
    tracer.backend = type(backend).__name__
    complete = tracer.wrap("gateway.backend.complete", backend.complete)

    def counted_complete(req, on_attempt):
        def counted_attempt():
            tracer.counts["attempts"] += 1
            on_attempt()

        return complete(req, counted_attempt)

    backend.complete = counted_complete


def traced_sleep(tracer: Tracer):
    """A ``sleep`` for ``LiveBackend`` that records each backoff as a span."""
    return tracer.wrap("gateway.live.backoff", time.sleep)


def _duration(record) -> float:
    return record[END] - record[START]


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``; 0.0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _flight(intervals: list[tuple[float, float]]) -> tuple[float, int, int]:
    """(mean in flight while busy, max in flight, stretches with any in flight)."""
    if not intervals:
        return 0.0, 0, 0
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals],
                    key=lambda ev: (ev[0], ev[1]))
    level = peak = waves = 0
    busy = 0.0
    since = 0.0
    for when, step in events:
        if level == 0 and step == 1:
            waves += 1
            since = when
        level += step
        peak = max(peak, level)
        if level == 0:
            busy += when - since
    total = sum(e - s for s, e in intervals)
    return (total / busy if busy > 0 else 1.0), peak, waves


def layer_metrics(tracer: Tracer, depth: int) -> dict[str, float]:
    """Per-layer metrics of one traced run from its span tree and counters.

    ``depth`` is the run's search depth: evaluations called directly from
    ``run`` after the minibatch of round ``depth + 1`` is drawn are the final
    argmax, earlier ones score the round's parents.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for index, record in enumerate(spans):
        children.setdefault(record[PARENT], []).append(index)

    def total(name: str) -> float:
        return sum(_duration(r) for r in spans if r[NAME] == name)

    def child_time(index: int, names=None) -> float:
        return sum(_duration(spans[c]) for c in children.get(index, ())
                   if names is None or spans[c][NAME] in names)

    def parent_name(record) -> str:
        return spans[record[PARENT]][NAME] if record[PARENT] >= 0 else ""

    run_index = next(i for i, r in enumerate(spans) if r[NAME] == "search.run")
    run_span = spans[run_index]
    final_start = min((r[START] for r in spans
                       if r[NAME] == "data.sample_minibatch" and r[ATTR] > depth),
                      default=float("inf"))
    evals = [(i, r) for i, r in enumerate(spans) if r[NAME] == "scoring.evaluate_prompt"]
    direct = [r for _, r in evals if r[PARENT] == run_index]
    requests = [(i, r) for i, r in enumerate(spans) if r[NAME] == "gateway.complete"]
    backend = [r for r in spans if r[NAME] == "gateway.backend.complete"]
    transport = [r for r in spans if r[NAME] == "gateway.live.transport"]
    responder = [r for r in spans if r[NAME] == "scripted.respond"]
    parses = [r for r in spans if r[NAME] == "scoring.parse_label"]
    roles = Counter(r[ATTR] for _, r in requests)
    attempts = tracer.counts["attempts"]
    n_requests = len(requests)
    request_ms = [_duration(r) * 1e3 for _, r in requests]
    transport_ms = [_duration(r) * 1e3 for r in transport]
    mean_flight, max_flight, waves = _flight(
        [(r[START], r[END]) for r in (transport or backend)]
    )
    artifact_bytes = sum(Path(r[ATTR]).stat().st_size for r in spans
                         if r[NAME] in ("artifact.write_json", "artifact.write_jsonl"))
    select_spans = [(i, r) for i, r in enumerate(spans) if r[NAME] == "bandit.select"]
    replay = tracer.backend == "ReplayBackend"

    metrics = {
        "search.phase.parent_eval_s": sum(_duration(r) for r in direct if r[START] < final_start),
        "search.phase.expand_s": total("search.expand_parent"),
        "search.phase.select_s": total("bandit.select"),
        "search.phase.test_eval_s": total("gateway.count_as_eval"),
        "search.phase.final_s": sum(_duration(r) for r in direct if r[START] >= final_start),
        "search.phase.artifact_s": sum(_duration(spans[c]) for c in children.get(run_index, ())
                                       if spans[c][NAME] in ARTIFACT_SPANS),
        "search.self_s": _duration(run_span) - child_time(run_index),
        "gateway.requests": n_requests,
        **{f"gateway.requests.{role}": roles.get(role, 0)
           for role in ("task_eval", "gradient_gen", "prompt_edit", "paraphrase")},
        "gateway.attempts": attempts,
        "gateway.retries": max(0, attempts - n_requests),
        "gateway.failures": tracer.counts["failures"],
        "gateway.self_us_per_request": (
            sum(_duration(r) - child_time(i, ("gateway.backend.complete",)) for i, r in requests)
            / n_requests * 1e6 if n_requests else 0.0
        ),
        "gateway.backend_s": sum(_duration(r) for r in backend),
        "gateway.request_ms.p50": _percentile(request_ms, 50),
        "gateway.request_ms.p99": _percentile(request_ms, 99),
        "gateway.request_ms.samples": len(request_ms),
        "gateway.in_flight.mean": mean_flight,
        "gateway.in_flight.max": max_flight,
        "gateway.waves": waves,
        "gateway.transcript.save_s": total("gateway.transcript.save"),
        "gateway.transcript.load_s": total("gateway.transcript.load"),
        "gateway.replay.lookup_us": (
            sum(_duration(r) for r in backend) / len(backend) * 1e6 if replay and backend else 0.0
        ),
        "gateway.live.backoff_s": total("gateway.live.backoff"),
        "gateway.live.transport_ms.p50": _percentile(transport_ms, 50),
        "gateway.live.transport_ms.p99": _percentile(transport_ms, 99),
        "gateway.live.transport_ms.samples": len(transport_ms),
        "scripted.respond_us": (
            sum(_duration(r) for r in responder) / len(responder) * 1e6 if responder else 0.0
        ),
        "scripted.busy_s": sum(_duration(r) for r in responder),
        "scoring.evaluate_prompt.calls": len(evals),
        "scoring.evaluate_prompt.self_s": sum(
            _duration(r) - child_time(i, ("gateway.complete",)) for i, r in evals
        ),
        "scoring.parse_label.us": (
            sum(_duration(r) for r in parses) / len(parses) * 1e6 if parses else 0.0
        ),
        "scoring.unparsed_share": tracer.counts["unparsed"] / len(parses) if parses else 0.0,
        "gradients.render.s": total("gradients.render"),
        "gradients.parse_delimited.s": total("gradients.parse_delimited"),
        "gradients.edit_yield": (
            tracer.counts["edit_children"] / roles["prompt_edit"] if roles["prompt_edit"] else 0.0
        ),
        "bandit.pulls": sum(1 for _, r in evals if parent_name(r) == "bandit.select"),
        "bandit.select.self_s": sum(
            _duration(r) - child_time(i, ("scoring.evaluate_prompt",)) for i, r in select_spans
        ),
        "momentum.s": sum(total(f"momentum.{fn}") for fn in
                          ("record_round", "sample_history_gradient", "history_text")),
        "data.sample_s": total("data.sample_minibatch") + total("data.sample_by_correctness"),
        "artifact.write_s": total("artifact.write_json") + total("artifact.write_jsonl"),
        "artifact.bytes": artifact_bytes,
    }
    return metrics
