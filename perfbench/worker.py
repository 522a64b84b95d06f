"""One repetition of one workload task, in a fresh process.

Prints one JSON object on stdout: the end-to-end figures of the repetition,
the facts the parent's correctness checks compare, and with ``--trace`` the
per-layer metrics. A fresh process per repetition makes ``setup_s`` include
the imports and ``peak_rss_mb`` describe this run alone.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # workload start: before the program is imported
CPU0 = time.process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

# Short backoff so that retried 429/503 answers stay a minor share of wall time.
LIVE_RETRY = {"base_delay_s": 0.002, "max_attempts": 4, "max_delay_s": 0.02}


def content_digest(exchanges) -> str:
    """sha256 over the (role, rendered prompt, response text) of each request, in order."""
    digest = hashlib.sha256()
    for exchange in exchanges:
        digest.update(json.dumps(list(exchange)).encode())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MiB.

    ``ru_maxrss`` is no good here: Linux carries it over from the parent
    through fork and exec, so a worker would report the harness's peak.
    ``VmHWM`` is the high-water mark of this process's own address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat_share(entries) -> float:
    seen: set[tuple[str, str]] = set()
    repeats = 0
    for req, _ in entries:
        key = (req.role_tag, req.rendered_prompt)
        repeats += key in seen
        seen.add(key)
    return repeats / len(entries) if entries else 0.0


def build_gateway(args, cfg, examples, split, tracer):
    """The backend as ``promptopt.cli.build_gateway`` builds it for this workload."""
    from promptopt import Gateway, LiveBackend, LiveConfig
    from promptopt.cli import build_gateway as cli_build_gateway
    from promptopt.gateway import RetryPolicy

    if args.workload == "live-loopback":
        # cli.build_gateway's live branch, plus a short retry policy and, when
        # traced, a sleep that records each backoff.
        config = LiveConfig(base_url=args.base_url, model=args.model)
        backend_kwargs = {"retry": RetryPolicy(**LIVE_RETRY)}
        if tracer is not None:
            backend_kwargs["sleep"] = tracing.traced_sleep(tracer)
        return Gateway(LiveBackend(config, **backend_kwargs))
    if args.workload == "replay-default":
        cli_args = argparse.Namespace(backend="replay", transcript=args.transcript)
    else:
        cli_args = argparse.Namespace(backend="scripted")
    return cli_build_gateway(cli_args, {}, cfg, examples, split)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="task seed")
    parser.add_argument("--out", required=True, help="artifact directory for this task")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--transcript", help="recorded transcript (replay-default)")
    parser.add_argument("--base-url", help="stub endpoint (live-loopback)")
    parser.add_argument("--model", help="stub model name (live-loopback)")
    args = parser.parse_args()

    workload.import_program()
    from promptopt import GatewayError, new_seed_prompt, run

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)

    data_t0 = time.perf_counter()
    examples, split, cfg = workload.build_inputs(args.workload, args.seed, args.tiny)
    data_setup_s = time.perf_counter() - data_t0
    gateway = build_gateway(args, cfg, examples, split, tracer)
    if tracer is not None:
        tracing.trace_backend(tracer, gateway.backend)
    seed_prompt = new_seed_prompt(workload.SEED_PROMPT)
    out = Path(args.out)

    # setup ends where the optimization starts; run() issues its first LLM
    # request after only validating the config and creating the directory.
    # The speed loop runs between setup and run(), and after run(), untimed.
    setup_wall_s = time.perf_counter() - T0
    setup_cpu_s = time.process_time() - CPU0
    loop_s = speed.loop_times()
    started = time.perf_counter()
    cpu_started = time.process_time()
    errors: list[str] = []
    result = None
    try:
        if tracer is not None:
            with tracer.span("search.run"):
                result = run(seed_prompt, split, cfg, gateway, out)
        else:
            result = run(seed_prompt, split, cfg, gateway, out)
    except GatewayError as exc:
        errors.append(f"gateway error: {exc}")
    finished = time.perf_counter()
    run_cpu_s = time.process_time() - cpu_started
    loop_s = statistics.median(loop_s + speed.loop_times())

    entries = gateway.transcript.entries
    transcript = out / "transcript.jsonl"
    report = {
        "setup_s": speed.scaled(setup_wall_s, setup_cpu_s, loop_s),
        "setup_wall_s": setup_wall_s,
        "run_wall_s": finished - started,
        "run_cpu_s": run_cpu_s,
        "speed_loop_s": loop_s,
        # A failed request never reaches the transcript but was attempted.
        "requests": len(entries) + (1 if errors else 0),
        "wire_calls": gateway.call_count(),
        "optimize_calls": gateway.optimize_calls(),
        "eval_calls": gateway.eval_calls(),
        "peak_rss_mb": peak_rss_mb(),
        "repeat_share": repeat_share(entries),
        "content_digest": content_digest(
            (req.role_tag, req.rendered_prompt, resp.text) for req, resp in entries
        ),
        "data_setup_s": data_setup_s,
        "examples": len(examples),
        "train_examples": len(split.train),
        "test_examples": len(split.test),
        "mean_input_chars": sum(len(ex.input_text) for ex in examples) / len(examples),
    }
    if result is not None:
        if len(result.beams[-1].prompts) != cfg.beam_width:
            errors.append(f"final beam has {len(result.beams[-1].prompts)} prompts, "
                          f"expected {cfg.beam_width}")
        # Retries count as wire calls, so the closed form holds on the live
        # path only for its logical requests; the parent checks those instead.
        if args.workload != "live-loopback":
            errors.extend(workload.round_call_errors(
                [(e.round, e.optimize_calls) for e in result.events], cfg))
        report.update(
            final_test_score=result.best.test_score,
            best_prompt_id=result.best.id,
            best_prompt=result.best.text,
            transcript_sha256=hashlib.sha256(transcript.read_bytes()).hexdigest(),
            transcript_bytes=transcript.stat().st_size,
        )
    report["errors"] = errors

    if tracer is not None and result is not None:
        layers = tracing.layer_metrics(tracer, cfg.search_depth)
        layers.update({
            "gateway.repeat_share": report["repeat_share"],
            "gateway.transcript.bytes": report["transcript_bytes"],
            "data.setup_s": data_setup_s,
            "data.examples": report["examples"],
            "data.train_examples": report["train_examples"],
            "data.test_examples": report["test_examples"],
            "data.mean_input_chars": report["mean_input_chars"],
        })
        report["layers"] = layers
        tracer.dump(out / "spans.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
