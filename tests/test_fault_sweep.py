"""Fail or garble the demo run at every backend call, under both presets.

A wrapper backend raises :class:`LiveCallError` at the k-th call that reaches
the backend (0-based), for every k the uninterrupted run makes. Each aborted
run must leave the documented partial artifact: exit code 5, ``status:
incomplete`` in ``run_meta.json``, no ``result.json``, and a transcript
holding exactly the k paid calls before the failure, as the uninterrupted run
recorded them.

Replaying the recording with any one line k left out must end the same way,
at the request that line answered: the replay's transcript is the first k
lines of the recording.

A second wrapper answers the k-th call with text that holds no delimiters, for
every gradient, edit and paraphrase call k. The run must still complete, with
one parse shortfall per time that request was issued: a temperature-0 repeat
gets the same answer from the gateway's memo and falls short again.

Last, a :class:`LiveBackend` talks to a fake chat-completions transport that
answers as :class:`HeuristicScript` does, and sends ``"content": null`` for
the k-th request, once or on every attempt. Once, the retry recovers and the
run's results equal the scripted run's; on every attempt, the run aborts with
the partial artifact.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from promptopt import cli
from promptopt.cli import EXIT_INCOMPLETE, EXIT_OK, main
from promptopt.gateway import Gateway, LiveBackend, LiveCallError, LiveConfig, LlmRequest, RetryPolicy

REPO = Path(__file__).parents[1]
DEMO_ARGS = ["optimize", "--config", "tests/data/demo.ini", "--backend", "scripted"]
PRESETS = {"mapo": [], "protegi": ["--mode", "protegi"]}


class FailAt:
    """Passes calls to ``backend`` and raises at its ``k``-th one."""

    def __init__(self, backend, k: int):
        self.transcript_mode = backend.transcript_mode
        self._backend = backend
        self._k = k
        self._calls = 0

    def complete(self, req, on_attempt):
        if self._calls == self._k:
            raise LiveCallError(f"injected failure at backend call {self._k}")
        self._calls += 1
        return self._backend.complete(req, on_attempt)


class MalformAt(FailAt):
    """Passes calls to ``backend`` and answers its ``k``-th one with no delimiters."""

    def complete(self, req, on_attempt):
        text, latency = self._backend.complete(req, on_attempt)
        if self._calls == self._k:
            text = "no delimiters"
        self._calls += 1
        return text, latency


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_failure_at_every_backend_call_leaves_the_paid_prefix(
    preset, monkeypatch, tmp_path, capsys
) -> None:
    monkeypatch.chdir(REPO)
    argv = DEMO_ARGS + PRESETS[preset]
    whole = tmp_path / "whole"
    assert main([*argv, "--out", str(whole)]) == EXIT_OK
    lines = (whole / "transcript.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) == json.loads((whole / "run_meta.json").read_text())["calls"]["wire"]

    build_gateway = cli.build_gateway
    for k in range(len(lines)):
        monkeypatch.setattr(
            cli,
            "build_gateway",
            lambda *args, k=k: Gateway(FailAt(build_gateway(*args).backend, k)),
        )
        out = tmp_path / f"k{k}"
        assert main([*argv, "--out", str(out)]) == EXIT_INCOMPLETE, k
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "incomplete", k
        assert meta["calls"]["wire"] == k, k
        assert not (out / "result.json").exists(), k
        assert (out / "transcript.jsonl").read_bytes() == b"".join(lines[:k]), k
    assert f"injected failure at backend call {len(lines) - 1}" in capsys.readouterr().err


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_replay_without_any_one_line_stops_at_that_line(preset, monkeypatch, tmp_path) -> None:
    monkeypatch.chdir(REPO)
    argv = DEMO_ARGS + PRESETS[preset]
    whole = tmp_path / "whole"
    assert main([*argv, "--out", str(whole)]) == EXIT_OK
    lines = (whole / "transcript.jsonl").read_bytes().splitlines(keepends=True)

    transcript = tmp_path / "transcript.jsonl"
    # The last --backend given wins.
    replay = [*argv, "--backend", "replay", "--transcript", str(transcript)]
    for k in range(len(lines)):
        transcript.write_bytes(b"".join(lines[:k] + lines[k + 1:]))
        out = tmp_path / f"k{k}"
        assert main([*replay, "--out", str(out)]) == EXIT_INCOMPLETE, k
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "incomplete", k
        assert meta["calls"]["wire"] == k, k
        assert not (out / "result.json").exists(), k
        assert (out / "transcript.jsonl").read_bytes() == b"".join(lines[:k]), k


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_malformed_answer_at_every_expansion_call_is_counted(preset, monkeypatch, tmp_path) -> None:
    monkeypatch.chdir(REPO)
    argv = DEMO_ARGS + PRESETS[preset]
    whole = tmp_path / "whole"
    assert main([*argv, "--out", str(whole)]) == EXIT_OK
    rows = [json.loads(line) for line in (whole / "transcript.jsonl").read_text().splitlines()]
    ks = [k for k, row in enumerate(rows) if row["role_tag"] != "task_eval"]
    roles = {rows[k]["role_tag"] for k in ks}
    assert roles == ({"gradient_gen", "prompt_edit", "paraphrase"} if preset == "protegi"
                     else {"gradient_gen", "prompt_edit"})

    # Every request issued, memo repeats included, keyed as the memo keys it.
    issued: Counter = Counter()
    complete_many = Gateway.complete_many

    def counting_complete_many(self, role_tag, rendered_prompts, **kwargs):
        issued.update((role_tag, prompt) for prompt in rendered_prompts)
        return complete_many(self, role_tag, rendered_prompts, **kwargs)

    monkeypatch.setattr(Gateway, "complete_many", counting_complete_many)
    build_gateway = cli.build_gateway
    repeated = 0
    for k in ks:
        monkeypatch.setattr(
            cli,
            "build_gateway",
            lambda *args, k=k: Gateway(MalformAt(build_gateway(*args).backend, k)),
        )
        issued.clear()
        out = tmp_path / f"k{k}"
        assert main([*argv, "--out", str(out)]) == EXIT_OK, k
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "complete", k
        times = issued[rows[k]["role_tag"], rows[k]["rendered_prompt"]]
        assert meta["anomalies"]["parse_shortfalls"] == times, k
        repeated += times > 1
    # Under protegi a surviving parent's paraphrase request is issued again,
    # and the memo answers it; MAPO repeats no expansion request.
    assert repeated == (2 if preset == "protegi" else 0)


class NullAt:
    """Chat-completions transport answering as the scripted backend does.

    The body holds no role, so each rendered prompt's role is looked up in
    ``roles``. The ``k``-th request (0-based) gets ``"content": null`` on its
    first ``nulls`` attempts.
    """

    def __init__(self, scripted, roles: dict[str, str], k: int, nulls: float):
        self._scripted = scripted
        self._roles = roles
        self._k = k
        self._nulls = nulls
        self._answered = 0

    def __call__(self, url, headers, payload, timeout):
        if self._answered == self._k and self._nulls > 0:
            self._nulls -= 1
            content = None
        else:
            self._answered += 1
            prompt = payload["messages"][0]["content"]
            req = LlmRequest(self._roles[prompt], prompt, payload["temperature"], payload["max_tokens"])
            content, _ = self._scripted.complete(req, lambda: None)
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})


def test_null_content_at_every_live_call_is_retried_or_aborts(monkeypatch, tmp_path) -> None:
    monkeypatch.chdir(REPO)
    whole = tmp_path / "whole"
    assert main([*DEMO_ARGS, "--out", str(whole)]) == EXIT_OK
    rows = [json.loads(line) for line in (whole / "transcript.jsonl").read_text().splitlines()]
    roles = {row["rendered_prompt"]: row["role_tag"] for row in rows}
    assert len(roles) == len(rows)
    wire = json.loads((whole / "run_meta.json").read_text())["calls"]["wire"]
    # Every attempt that reaches the transport is a wire call.
    attempts = RetryPolicy().max_attempts + 1

    build_gateway = cli.build_gateway
    for k in range(len(rows)):
        for nulls in (1, math.inf):
            def live_gateway(*args, k=k, nulls=nulls):
                transport = NullAt(build_gateway(*args).backend, roles, k, nulls)
                config = LiveConfig(base_url="http://endpoint.invalid/v1", model="m")
                return Gateway(LiveBackend(config, transport=transport, sleep=lambda _: None))

            monkeypatch.setattr(cli, "build_gateway", live_gateway)
            out = tmp_path / f"k{k}-{nulls}"
            code = main([*DEMO_ARGS, "--out", str(out)])
            meta = json.loads((out / "run_meta.json").read_text())
            if nulls == 1:
                assert code == EXIT_OK, k
                assert meta["calls"]["wire"] == wire + 1, k
                for name in ("result.json", "beams.jsonl", "prompts.jsonl"):
                    assert (out / name).read_bytes() == (whole / name).read_bytes(), (k, name)
            else:
                assert code == EXIT_INCOMPLETE, k
                assert meta["status"] == "incomplete", k
                assert meta["calls"]["wire"] == k + attempts, k
                assert not (out / "result.json").exists(), k
