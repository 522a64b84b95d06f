"""Every metric the benchmark reports: name, unit, direction and what it should move.

``BENCHMARK.json`` lists the same names, units and directions; the harness
self-test (``run.py --self-test``) fails if the two disagree. Each per-layer
metric names the end-to-end metric, and the workloads, it is expected to
move, so a later claim can be checked against the trace.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    moves: str = ""  # per-layer only: the end-to-end metric (and workloads) it drives


ALL = "all workloads"
SCRIPTED = "scripted-default"
REPLAY = "replay-default"
LIVE = "live-loopback"

END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("run_s", "s", "lower"),
    Metric("requests_per_s", "1/s", "higher"),
    Metric("wire_calls", "count", "lower"),
    Metric("optimize_calls", "count", "lower"),
    Metric("eval_calls", "count", "lower"),
    Metric("final_test_score", "F1", "higher"),
    # 1 - failed_request_share: the result line may carry no metric that is
    # 0 on a healthy run, so the share that did not fail stands in for it.
    Metric("completed_request_share", "ratio", "higher"),
    Metric("peak_rss_mb", "MiB", "lower"),
)


PER_LAYER = (
    Metric("search.phase.parent_eval_s", "s", "lower", f"run_s on {ALL}"),
    Metric("search.phase.expand_s", "s", "lower", f"run_s on {ALL}"),
    Metric("search.phase.select_s", "s", "lower", f"run_s on {ALL}"),
    Metric("search.phase.test_eval_s", "s", "lower", f"run_s on {ALL}"),
    Metric("search.phase.final_s", "s", "lower", f"run_s on {ALL}"),
    Metric("search.phase.artifact_s", "s", "lower", f"run_s on {ALL}"),
    Metric("search.self_s", "s", "lower", f"run_s on {ALL}"),
    Metric("gateway.requests", "count", "lower", f"wire_calls on {ALL}"),
    Metric("gateway.requests.task_eval", "count", "lower", f"wire_calls on {ALL}"),
    Metric("gateway.requests.gradient_gen", "count", "lower", f"wire_calls on {ALL}"),
    Metric("gateway.requests.prompt_edit", "count", "lower", f"wire_calls on {ALL}"),
    Metric("gateway.requests.paraphrase", "count", "lower", f"wire_calls on {ALL}"),
    Metric("gateway.attempts", "count", "lower", f"wire_calls, completed_request_share on {LIVE}"),
    Metric("gateway.retries", "count", "lower", f"wire_calls, completed_request_share on {LIVE}"),
    Metric("gateway.failures", "count", "lower", f"wire_calls, completed_request_share on {LIVE}"),
    Metric(
        "gateway.self_us_per_request", "us", "lower",
        f"run_s on {SCRIPTED}, {REPLAY}; no change on {LIVE}",
    ),
    Metric("gateway.backend_s", "s", "lower", f"run_s on {LIVE}"),
    Metric("gateway.request_ms.p50", "ms", "lower", f"run_s on {LIVE}"),
    Metric("gateway.request_ms.p99", "ms", "lower", f"run_s on {LIVE}"),
    Metric("gateway.request_ms.samples", "count", "higher", "sample count of the two above"),
    Metric("gateway.in_flight.mean", "count", "higher", f"run_s on {LIVE}"),
    Metric("gateway.in_flight.max", "count", "higher", f"run_s on {LIVE}"),
    Metric("gateway.waves", "count", "lower", f"run_s on {LIVE}"),
    Metric("gateway.repeat_share", "ratio", "lower", f"wire_calls, run_s on {LIVE}"),
    Metric("gateway.transcript.save_s", "s", "lower", f"run_s on {SCRIPTED}"),
    Metric("gateway.transcript.load_s", "s", "lower", f"setup_s on {REPLAY}"),
    Metric("gateway.transcript.bytes", "bytes", "lower", f"peak_rss_mb on {ALL}"),
    Metric("gateway.replay.lookup_us", "us", "lower", f"run_s on {REPLAY}"),
    Metric("gateway.live.backoff_s", "s", "lower", f"run_s on {LIVE}"),
    Metric("gateway.live.transport_ms.p50", "ms", "lower", f"run_s on {LIVE}"),
    Metric("gateway.live.transport_ms.p99", "ms", "lower", f"run_s on {LIVE}"),
    Metric("gateway.live.transport_ms.samples", "count", "higher", "sample count of the two above"),
    Metric("gateway.live.connections_per_request", "ratio", "lower", f"run_s on {LIVE}"),
    Metric("scripted.respond_us", "us", "lower", f"run_s on {SCRIPTED}"),
    Metric("scripted.busy_s", "s", "lower", f"run_s on {SCRIPTED}"),
    Metric("scoring.evaluate_prompt.calls", "count", "lower", f"run_s on {ALL}"),
    Metric("scoring.evaluate_prompt.self_s", "s", "lower", f"run_s on {ALL}"),
    Metric("scoring.parse_label.us", "us", "lower", f"run_s on {SCRIPTED}"),
    Metric("scoring.unparsed_share", "ratio", "lower", f"final_test_score on {ALL}"),
    Metric("gradients.render.s", "s", "lower", f"run_s on {SCRIPTED}"),
    Metric("gradients.parse_delimited.s", "s", "lower", f"run_s on {SCRIPTED}"),
    Metric("gradients.edit_yield", "ratio", "higher", f"final_test_score on {ALL}"),
    Metric("bandit.pulls", "count", "lower", f"wire_calls on {ALL}"),
    Metric("bandit.select.self_s", "s", "lower", f"run_s on {SCRIPTED}"),
    Metric("momentum.s", "s", "lower", f"run_s on {ALL}"),
    Metric("data.sample_s", "s", "lower", f"run_s on {ALL}"),
    Metric("data.setup_s", "s", "lower", f"setup_s on {ALL}"),
    Metric("data.examples", "count", "higher", "workload input: examples per task"),
    Metric("data.train_examples", "count", "higher", "workload input: train split size"),
    Metric("data.test_examples", "count", "higher", "workload input: test split size"),
    Metric("data.mean_input_chars", "chars", "higher", "workload input: mean input length"),
    Metric("artifact.write_s", "s", "lower", f"run_s on {SCRIPTED}"),
    Metric("artifact.bytes", "bytes", "lower", f"run_s on {SCRIPTED}"),
    Metric("trace_overhead_share", "ratio", "lower", "none: traced over untraced run_s, minus 1"),
)
