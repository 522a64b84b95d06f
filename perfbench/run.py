"""promptopt benchmark: one command per workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload scripted-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each run optimizes ``TASKS`` inputs derived from ``--seed`` (task seed
``seed * 1000 + k``), each repetition in a fresh worker process, one after
another: a closed loop with one client. Repetitions cycle through the tasks
until ``--seconds`` have passed. A figure is the median over a task's
repetitions, averaged over the tasks.

Before measuring, ``promptopt optimize --backend scripted`` (the shipped CLI)
runs once per task on the same inputs. Its artifact is the reference the
correctness checks compare against and, for replay-default, the recording
that is replayed; neither it nor the loopback stub's start-up is timed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, with
``trace_overhead_share`` from the pair. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import metrics
import speed
import workload
from worker import content_digest

HERE = Path(__file__).resolve().parent
OUT_ROOT = workload.ROOT / ".perfbench_out"
TASKS = 4
WORKER_TIMEOUT_S = 90


def task_seeds(seed: int) -> list[int]:
    return [seed * 1000 + k for k in range(TASKS)]


def child_env() -> dict[str, str]:
    # Nothing the benchmark sends may leave the machine through a proxy.
    return {**os.environ, "NO_PROXY": "127.0.0.1,localhost", "no_proxy": "127.0.0.1,localhost"}


def transcript_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def reference(name: str, seed: int, tiny: bool, directory: Path) -> dict:
    """Run the shipped CLI with the scripted backend on one task's inputs and check it."""
    config = workload.write_cli_inputs(directory / "cli", name, seed, tiny)
    artifact = directory / "reference"
    proc = subprocess.run(
        [sys.executable, "-m", "promptopt.cli", "optimize", "--config", str(config),
         "--backend", "scripted", "--out", str(artifact)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        env={**child_env(), "PYTHONPATH": str(workload.SRC)},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"promptopt optimize failed ({proc.returncode}): {proc.stderr[-500:]}")
    transcript = artifact / "transcript.jsonl"
    rows = transcript_rows(transcript)
    result = json.loads((artifact / "result.json").read_text(encoding="utf-8"))
    events = transcript_rows(artifact / "events.jsonl")
    beams = transcript_rows(artifact / "beams.jsonl")
    cfg = workload.run_config(name, seed, tiny)
    errors = [f"reference {error}" for error in workload.round_call_errors(
        [(e["round"], e["optimize_calls"]) for e in events], cfg)]
    if len(beams[-1]["prompts"]) != cfg.beam_width:
        errors.append(f"reference final beam has {len(beams[-1]['prompts'])} prompts")
    return {
        "transcript": transcript,
        "sha256": hashlib.sha256(transcript.read_bytes()).hexdigest(),
        "content_digest": content_digest(
            (row["role_tag"], row["rendered_prompt"], row["response_text"]) for row in rows
        ),
        "requests": len(rows),
        "best_prompt_id": result["best_prompt_id"],
        "best_prompt": result["text"],
        "test_score": result["test_score"],
        "errors": errors,
    }


class LoopbackStub:
    """The stub server process, started and stopped around a live-loopback run."""

    def __init__(self, seeds: list[int], tiny: bool):
        cmd = [sys.executable, str(HERE / "stub.py"), "--seeds", ",".join(map(str, seeds))]
        if tiny:
            cmd.append("--tiny")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("loopback stub exited before listening")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"
        self.lifetime: dict = {}
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def reset(self) -> dict:
        """Counters since the previous reset; clears them and the fault state."""
        request = urllib.request.Request(self.url + "/reset", data=b"", method="POST")
        with self._opener.open(request, timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = [line for line in (out or "").splitlines() if line.strip()]
        self.lifetime = json.loads(lines[-1]) if lines else {}


def run_worker(args, seed: int, traced: bool, out: Path, rep: int, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(seed), "--out", str(out), "--run-id",
           f"{args.workload}/seed{args.seed}/task{seed}/rep{rep}", *extra]
    if traced:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker timed out after {WORKER_TIMEOUT_S}s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"worker exit {proc.returncode}: {proc.stderr[-500:]}"]}
    return json.loads(lines[-1])


def check_rep(name: str, rep: dict, ref: dict, stub_period: dict | None) -> list[str]:
    """Correctness of one repetition against the task's CLI reference."""
    errors = list(rep.get("errors", []))
    if errors:
        return errors
    if name == "live-loopback":
        if rep["content_digest"] != ref["content_digest"]:
            errors.append("live response texts differ from the scripted run")
        if (rep["best_prompt_id"], rep["best_prompt"], rep["final_test_score"]) != \
                (ref["best_prompt_id"], ref["best_prompt"], ref["test_score"]):
            errors.append("live best prompt or test score differs from the scripted run")
        if rep["requests"] != ref["requests"] or rep["requests"] != stub_period["served"]:
            errors.append(f"live requests {rep['requests']}, scripted {ref['requests']}, "
                          f"stub served {stub_period['served']}")
        if rep["wire_calls"] != stub_period["served"] + stub_period["refused"]:
            errors.append(f"wire_calls {rep['wire_calls']} != attempts the stub saw "
                          f"{stub_period['served'] + stub_period['refused']}")
    else:
        label = "replayed" if name == "replay-default" else "scripted"
        if rep["transcript_sha256"] != ref["sha256"]:
            errors.append(f"{label} transcript.jsonl differs from the recording by "
                          "promptopt optimize --backend scripted")
        if rep["wire_calls"] != ref["requests"]:
            errors.append(f"wire_calls {rep['wire_calls']} != {ref['requests']} recorded")
    return errors


def median_then_mean(per_task: dict[int, list[dict]], key) -> float:
    """Median over each task's repetitions, averaged over the tasks."""
    medians = [statistics.median(key(rep) for rep in reps) for reps in per_task.values() if reps]
    return statistics.fmean(medians)


def end_to_end(per_task: dict[int, list[dict]], attempted: int, failed: int) -> dict:
    values = {
        "setup_s": median_then_mean(per_task, lambda r: r["setup_s"]),
        "run_s": median_then_mean(per_task, lambda r: r["run_s"]),
        "requests_per_s": median_then_mean(per_task, lambda r: r["requests"] / r["run_s"]),
        "completed_request_share": 1 - failed / attempted,
    }
    for key in ("wire_calls", "optimize_calls", "eval_calls", "final_test_score", "peak_rss_mb"):
        values[key] = median_then_mean(per_task, lambda r, k=key: r[k])
    return values


def per_layer(traced: dict[int, list[dict]], untraced: dict[int, list[dict]]) -> dict:
    names = [m.name for m in metrics.PER_LAYER if m.name != "trace_overhead_share"]
    values = {name: median_then_mean(traced, lambda r, n=name: r["layers"][n]) for name in names}
    values["trace_overhead_share"] = (
        median_then_mean(traced, lambda r: r["run_s"])
        / median_then_mean(untraced, lambda r: r["run_s"]) - 1
    )
    return values


def measure(args) -> int:
    workload.import_program()
    seeds = task_seeds(args.seed)
    # One directory per workload and mode, replaced by the next such run, so
    # repeated runs do not pile up transcripts.
    out_root = OUT_ROOT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    refs = {s: reference(args.workload, s, args.tiny, out_root / f"task{s}") for s in seeds}
    stub = LoopbackStub(seeds, args.tiny) if args.workload == "live-loopback" else None
    untraced: dict[int, list[dict]] = {s: [] for s in seeds}
    traced: dict[int, list[dict]] = {s: [] for s in seeds}
    errors: list[str] = [e for ref in refs.values() for e in ref["errors"]]
    attempted = failed = 0
    started = time.perf_counter()
    # Every task runs once (traced and untraced with --trace 1); then the
    # tasks keep taking turns until --seconds have passed.
    schedule = [(seed, traced_rep) for seed in seeds
                for traced_rep in ((False, True) if args.trace else (False,))]
    try:
        repetitions = 0
        while repetitions < len(schedule) or time.perf_counter() - started < args.seconds:
            seed, trace_this = schedule[repetitions % len(schedule)]
            repetitions += 1
            extra: list[str] = []
            if args.workload == "replay-default":
                extra = ["--transcript", str(refs[seed]["transcript"])]
            elif stub is not None:
                extra = ["--base-url", stub.url + "/v1", "--model", f"task-{seed}"]
            rep = run_worker(args, seed, trace_this, out_root / f"task{seed}" / "run",
                             repetitions, extra)
            period = stub.reset() if stub is not None else None
            if "run_wall_s" in rep:
                # The stub's CPU time is part of the run's critical path: the
                # client waits on it, one request at a time.
                cpu_s = rep["run_cpu_s"] + (period["cpu_s"] if period else 0.0)
                rep["run_s"] = speed.scaled(rep["run_wall_s"], cpu_s, rep["speed_loop_s"])
            rep_errors = check_rep(args.workload, rep, refs[seed], period)
            requests = rep.get("requests") or refs[seed]["requests"]
            attempted += requests
            if rep_errors:
                failed += requests
                errors.extend(f"task {seed} repetition {repetitions}: {e}" for e in rep_errors)
                continue
            if trace_this:
                rep["layers"]["gateway.live.connections_per_request"] = (
                    (period["connections"] - period["control_connections"]) / period["served"]
                    if period else 0.0
                )
            (traced if trace_this else untraced)[seed].append(rep)
    finally:
        if stub is not None:
            stub.stop()
    measured_s = time.perf_counter() - started

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} tasks={len(seeds)} "
          f"repetitions={repetitions} measured_s={measured_s:.1f}")
    inputs = {}
    for seed in seeds:
        reps = untraced[seed]
        if reps:
            inputs[seed] = {k: reps[0][k] for k in ("examples", "train_examples", "test_examples",
                                                    "mean_input_chars", "repeat_share")}
            described = " ".join(f"{k}={v:.4g}" for k, v in inputs[seed].items())
            print(f"inputs task {seed}: {described}")
        print(f"fingerprint task {seed}: scripted transcript sha256 {refs[seed]['sha256']}")
    if stub is not None:
        print(f"stub lifetime: {json.dumps(stub.lifetime)}")
    (out_root / "inputs.json").write_text(json.dumps(inputs, indent=2) + "\n", encoding="utf-8")

    complete = all(untraced.values()) and (not args.trace or all(traced.values()))
    correct = not errors and failed == 0 and complete
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    if not complete:
        print("CHECK FAILED: a task has no successful repetition")
    print(f"checks: {'all passed' if correct else 'FAILED'}")

    values: dict = {}
    if complete:
        if args.trace:
            values = per_layer(traced, untraced)
            table = metrics.PER_LAYER
        else:
            values = end_to_end(untraced, attempted, failed)
            table = metrics.END_TO_END
        for metric in table:
            note = f"  -> {metric.moves}" if metric.moves else ""
            print(f"{metric.name:40s} {values[metric.name]:>16.6g} {metric.unit}{note}")
        if not args.trace:
            print(f"{'failed_request_share':40s} {failed / attempted:>16.6g} ratio")
            # The unscaled figures, for reference; the result line carries the scaled ones.
            for key in ("setup_wall_s", "run_wall_s", "speed_loop_s"):
                value = median_then_mean(untraced, lambda r, k=key: r[k])
                print(f"{key:40s} {value:>16.6g} s")
    units = {m.name: m.unit for m in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


def self_test() -> int:
    """Each workload at a tiny size, both modes: every metric printed, every check passed."""
    declared = json.loads((workload.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if listed != [(m.name, m.unit, m.better) for m in table]:
            problems.append(f"BENCHMARK.json {key} differs from perfbench/metrics.py")
    # Every workload the harness has, including live-loopback, which
    # BENCHMARK.json does not list (see README.md).
    for name in workload.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            label = f"{name} --trace {trace}"
            known = len(problems)
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            elif set(result["metrics"]) != wanted:
                problems.append(f"{label}: missing {sorted(wanted - set(result['metrics']))}, "
                                f"extra {sorted(set(result['metrics']) - wanted)}")
            print(f"self-test {label}: {'ok' if len(problems) == known else 'FAILED'}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test: " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
