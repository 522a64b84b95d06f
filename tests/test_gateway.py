from __future__ import annotations

import json
import random

import pytest

from promptopt.gateway import (
    Gateway,
    LiveBackend,
    LiveCallError,
    LiveConfig,
    LlmRequest,
    LlmResponse,
    ReplayBackend,
    ReplayMissError,
    RetryPolicy,
    ScriptedBackend,
    Transcript,
    request_digest,
)
from promptopt.scripted import SequenceScript, ScriptExhaustedError


def echo_gateway() -> Gateway:
    return Gateway(ScriptedBackend(lambda req: f"echo:{req.rendered_prompt}"))


def test_scripted_passthrough_increments_counter() -> None:
    gw = Gateway(ScriptedBackend(lambda req: "Yes"))
    resp = gw.call("task_eval", "label this")
    assert resp.text == "Yes"
    assert gw.call_count() == 1


def test_counter_counts_each_complete() -> None:
    gw = echo_gateway()
    assert gw.call_count() == 0
    for _ in range(3):
        gw.call("task_eval", "x")
    assert gw.call_count() == 3


def test_request_index_is_monotone_and_echoed() -> None:
    gw = echo_gateway()
    indices = [gw.call("task_eval", f"p{i}").request_index for i in range(4)]
    assert indices == [0, 1, 2, 3]


def test_eval_bucket_is_separate() -> None:
    gw = echo_gateway()
    gw.call("gradient_gen", "a")
    with gw.count_as_eval():
        gw.call("task_eval", "b")
        gw.call("task_eval", "c")
    gw.call("prompt_edit", "d")
    assert gw.optimize_calls() == 2
    assert gw.eval_calls() == 2
    assert gw.call_count() == 4


def test_counter_equals_transcript_length_in_record_modes() -> None:
    gw = echo_gateway()
    for i in range(5):
        gw.call("task_eval", f"p{i}")
    assert gw.call_count() == len(gw.transcript.entries)


def test_default_max_tokens_by_role() -> None:
    gw = echo_gateway()
    gw.call("task_eval", "x")
    gw.call("gradient_gen", "y")
    (req_eval, _), (req_grad, _) = gw.transcript.entries
    assert req_eval.max_tokens == 16
    assert req_grad.max_tokens == 512


def test_unknown_role_tag_rejected() -> None:
    with pytest.raises(ValueError):
        echo_gateway().call("chitchat", "x")


def test_script_exhausted_error_does_not_count() -> None:
    gw = Gateway(ScriptedBackend(SequenceScript({"task_eval": ["Yes"]})))
    assert gw.call("task_eval", "a").text == "Yes"
    with pytest.raises(ScriptExhaustedError):
        gw.call("task_eval", "b")
    assert gw.call_count() == 1


def test_transcript_save_load_round_trip(tmp_path) -> None:
    gw = echo_gateway()
    gw.call("task_eval", "first")
    gw.call("gradient_gen", "second")
    path = tmp_path / "transcript.jsonl"
    gw.transcript.save(path)
    loaded = Transcript.load(path)
    assert loaded.mode == "replay"
    assert [(r.role_tag, r.rendered_prompt) for r, _ in loaded.entries] == [
        ("task_eval", "first"),
        ("gradient_gen", "second"),
    ]
    assert [resp.text for _, resp in loaded.entries] == ["echo:first", "echo:second"]


def test_transcript_save_golden_bytes(tmp_path) -> None:
    # Replay and transcript fingerprints depend on these exact bytes.
    transcript = Transcript(
        entries=[
            (
                LlmRequest("task_eval", "Is it true?\nCafé — naïve", 0.0, 16, 0),
                LlmResponse("Oui, yes", 0, 0.0),
            ),
            (
                LlmRequest("gradient_gen", 'line one\nline "two"', 0.7, 512, 1),
                LlmResponse("<START>reason\n<END>", 1, 0.25),
            ),
        ]
    )
    path = tmp_path / "transcript.jsonl"
    transcript.save(path)
    assert path.read_bytes() == (
        b'{"digest": "59f4827f73f6944148f4349bd9779cc7a68e67984c26f816890def3b3e8a0ea0", '
        b'"latency_s": 0.0, "max_tokens": 16, '
        b'"rendered_prompt": "Is it true?\\nCaf\\u00e9 \\u2014 na\\u00efve", '
        b'"request_index": 0, "response_text": "Oui, yes", "role_tag": "task_eval", '
        b'"temperature": 0.0}\n'
        b'{"digest": "6c5b062ca92737c160dd4cde7c77ec75bef68a838df726d2b130558d18b4f9c1", '
        b'"latency_s": 0.25, "max_tokens": 512, '
        b'"rendered_prompt": "line one\\nline \\"two\\"", '
        b'"request_index": 1, "response_text": "<START>reason\\n<END>", '
        b'"role_tag": "gradient_gen", "temperature": 0.7}\n'
    )


def test_complete_stamps_index_and_keeps_request_fields() -> None:
    gw = echo_gateway()
    gw.call("task_eval", "first")
    resp = gw.complete(LlmRequest("prompt_edit", "edit me", 0.3, 77, request_index=99))
    req, _ = gw.transcript.entries[-1]
    assert resp.request_index == req.request_index == 1
    assert (req.role_tag, req.rendered_prompt, req.temperature, req.max_tokens) == (
        "prompt_edit",
        "edit me",
        0.3,
        77,
    )
    assert req.digest == request_digest("prompt_edit", "edit me")


def test_replay_serves_recorded_responses(tmp_path) -> None:
    gw = echo_gateway()
    gw.call("task_eval", "first")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)

    replay = Gateway(ReplayBackend(Transcript.load(path)))
    assert replay.call("task_eval", "first").text == "echo:first"
    # A repeated identical request sticks to the recorded response.
    assert replay.call("task_eval", "first").text == "echo:first"
    assert replay.call_count() == 2


def test_replay_miss_raises_without_counting(tmp_path) -> None:
    gw = echo_gateway()
    gw.call("task_eval", "known")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)

    replay = Gateway(ReplayBackend(Transcript.load(path)))
    with pytest.raises(ReplayMissError):
        replay.call("task_eval", "unknown")
    assert replay.call_count() == 0


def test_replay_lookup_ignores_issue_order(tmp_path) -> None:
    gw = echo_gateway()
    gw.call("task_eval", "a")
    gw.call("task_eval", "b")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)

    replay = Gateway(ReplayBackend(Transcript.load(path)))
    assert replay.call("task_eval", "b").text == "echo:b"
    assert replay.call("task_eval", "a").text == "echo:a"


def test_digest_depends_on_role_and_content() -> None:
    assert request_digest("task_eval", "x") != request_digest("gradient_gen", "x")
    assert request_digest("task_eval", "x") != request_digest("task_eval", "y")
    assert request_digest("task_eval", "x") == request_digest("task_eval", "x")


def test_retry_policy_gives_up_after_max() -> None:
    policy = RetryPolicy(base_delay_s=0.5, max_attempts=5)
    rng = random.Random(0)
    assert policy.delay(6, rng) is None
    assert policy.delay(5, rng) is not None


def test_retry_policy_first_delay_range() -> None:
    policy = RetryPolicy(base_delay_s=0.5, max_attempts=5)
    for trial in range(50):
        delay = policy.delay(1, random.Random(trial))
        assert 0.5 <= delay <= 1.0


def test_retry_policy_is_seed_deterministic() -> None:
    policy = RetryPolicy()
    seq1 = [policy.delay(a, random.Random(42)) for a in range(1, 6)]
    seq2 = [policy.delay(a, random.Random(42)) for a in range(1, 6)]
    assert seq1 == seq2


def _live_gateway(transport, max_attempts=3):
    backend = LiveBackend(
        LiveConfig(base_url="https://llm.example/v1", model="test-model", api_key="k"),
        retry=RetryPolicy(base_delay_s=0.01, max_attempts=max_attempts),
        rng=random.Random(0),
        transport=transport,
        sleep=lambda s: None,
    )
    return Gateway(backend)


def _ok_body(text: str) -> str:
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_live_backend_builds_chat_payload() -> None:
    seen = {}

    def transport(url, headers, payload, timeout):
        seen.update(url=url, headers=headers, payload=payload)
        return 200, _ok_body("hello")

    gw = _live_gateway(transport)
    resp = gw.call("task_eval", "the prompt", temperature=0.0)
    assert resp.text == "hello"
    assert seen["url"].endswith("/chat/completions")
    assert seen["headers"]["Authorization"] == "Bearer k"
    assert seen["payload"]["messages"] == [{"role": "user", "content": "the prompt"}]
    assert seen["payload"]["temperature"] == 0.0


def test_live_backend_counts_every_attempt() -> None:
    calls = {"n": 0}

    def flaky(url, headers, payload, timeout):
        calls["n"] += 1
        if calls["n"] < 3:
            return 500, "boom"
        return 200, _ok_body("ok")

    gw = _live_gateway(flaky, max_attempts=5)
    assert gw.call("task_eval", "p").text == "ok"
    assert gw.call_count() == 3  # two failed attempts also reached the wire


def test_live_backend_gives_up_after_bounded_retries() -> None:
    gw = _live_gateway(lambda *a: (503, "down"), max_attempts=2)
    with pytest.raises(LiveCallError, match="gave up"):
        gw.call("task_eval", "p")
    assert gw.call_count() == 3  # max_attempts retries + the initial attempt


def test_live_backend_client_error_is_fatal() -> None:
    attempts = {"n": 0}

    def bad_request(url, headers, payload, timeout):
        attempts["n"] += 1
        return 400, "bad request"

    gw = _live_gateway(bad_request, max_attempts=5)
    with pytest.raises(LiveCallError, match="HTTP 400"):
        gw.call("task_eval", "p")
    assert attempts["n"] == 1


def test_live_backend_retries_null_content() -> None:
    bodies = iter([json.dumps({"choices": [{"message": {"content": None}}]}), _ok_body("Yes")])
    gw = _live_gateway(lambda *a: (200, next(bodies)), max_attempts=3)
    assert gw.call("task_eval", "p").text == "Yes"
    assert gw.call_count() == 2  # the null answer reached the wire too


def test_live_backend_gives_up_on_missing_content() -> None:
    gw = _live_gateway(lambda *a: (200, json.dumps({"choices": [{"message": {}}]})),
                       max_attempts=2)
    with pytest.raises(LiveCallError, match="content missing"):
        gw.call("task_eval", "p")
    assert gw.call_count() == 3


def test_replay_elapsed_uses_recorded_latencies(tmp_path) -> None:
    # Record, then patch the stored latency and check replay sums it.
    gw = echo_gateway()
    gw.call("task_eval", "p")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)
    row = json.loads(path.read_text().strip())
    row["latency_s"] = 1.5
    path.write_text(json.dumps(row) + "\n")

    replay = Gateway(ReplayBackend(Transcript.load(path)))
    replay.call("task_eval", "p")
    assert replay.elapsed_seconds() == 1.5


def test_scripted_digest_map_backend() -> None:
    # A responder keyed by content digest: the classic canned-answer script.
    canned = {request_digest("task_eval", "is water wet?"): "Yes"}

    def by_digest(req):
        return canned[request_digest(req.role_tag, req.rendered_prompt)]

    gw = Gateway(ScriptedBackend(by_digest))
    assert gw.call("task_eval", "is water wet?").text == "Yes"
    assert gw.call_count() == 1


class _StubChatServer:
    """Local OpenAI-compatible endpoint; can fail the first N requests."""

    def __init__(self, fail_first: int = 0):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        state = {"remaining_failures": fail_first, "requests": 0}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                state["requests"] += 1
                if state["remaining_failures"] > 0:
                    state["remaining_failures"] -= 1
                    self.send_response(503)
                    self.end_headers()
                    return
                content = body["messages"][0]["content"]
                text = "Yes" if "true" in content else "No"
                payload = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.state = state
        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.base_url = f"http://127.0.0.1:{self._server.server_address[1]}/v1"
        threading.Thread(target=self._server.serve_forever, daemon=True).start()

    def close(self):
        self._server.shutdown()


def test_live_backend_roundtrip_against_local_server() -> None:
    server = _StubChatServer()
    try:
        gw = Gateway(
            LiveBackend(LiveConfig(base_url=server.base_url, model="stub", api_key="k"))
        )
        resp = gw.call("task_eval", "is this true")
        assert resp.text == "Yes"
        assert resp.latency_s > 0
        assert gw.call_count() == 1
    finally:
        server.close()


def test_live_backend_retries_through_transient_errors() -> None:
    server = _StubChatServer(fail_first=2)
    try:
        backend = LiveBackend(
            LiveConfig(base_url=server.base_url, model="stub", api_key="k"),
            retry=RetryPolicy(base_delay_s=0.001, max_attempts=5),
            rng=random.Random(0),
        )
        gw = Gateway(backend)
        assert gw.call("task_eval", "is this true").text == "Yes"
        assert gw.call_count() == 3  # two 503s + the success all reached the wire
        assert server.state["requests"] == 3
    finally:
        server.close()
