"""Loopback chat-completions stub for the live-loopback workload.

Serves ``POST /v1/chat/completions`` on 127.0.0.1 with the text
``promptopt.HeuristicScript`` gives for the same inputs, so a live run must
reproduce the scripted run request by request. The ``model`` field names the
task (``task-<seed>``) whose dataset and seed answer the request. The role is
inferred from the request: ``max_tokens`` 16 is ``task_eval``, otherwise the
template wording decides.

Each answer waits a fixed latency, longer for the 512-token roles. A seeded
share of attempts is refused with 429 or 503; the decision depends only on
the request content and how many times in a row that content was refused, and
never more than ``STUB_MAX_CONSECUTIVE_FAULTS`` times. Bodies are always
well-formed: a ``"content": null`` answer is not exercised.

``POST /reset`` returns the counters and the stub's CPU seconds since the
previous reset, and clears the counters and the fault state. On SIGTERM the
stub prints its lifetime counters as one JSON line and exits.

Usage: python3 perfbench/stub.py --seeds 1000,1001 [--tiny]
Prints ``{"port": N}`` once it listens.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import workload

# Wording of the default templates in promptopt.gradients, checked in this order.
ROLE_MARKERS = (
    (re.compile(r"The 1 new prompt is:"), "prompt_edit"),
    (re.compile(r"Generate a variation of the following instruction"), "paraphrase"),
    (re.compile(r"give \d+ reasons"), "gradient_gen"),
)


def infer_role(content: str, max_tokens: int) -> str:
    if max_tokens == 16:
        return "task_eval"
    for marker, role in ROLE_MARKERS:
        if marker.search(content):
            return role
    raise ValueError("cannot infer the request role")


def _hash01(*parts: object) -> float:
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


class Stub:
    """Answers, latency, injected faults and counters; shared by handler threads."""

    def __init__(self, seeds: list[int], tiny: bool):
        from promptopt import HeuristicScript, LlmRequest

        self._request = LlmRequest
        self.scripts = {}
        for seed in seeds:
            examples, split, cfg = workload.build_inputs("live-loopback", seed, tiny)
            self.scripts[f"task-{seed}"] = (
                seed, HeuristicScript(examples, split.label_set, seed=cfg.rng_seed)
            )
        self._lock = threading.Lock()
        self._refusals: dict[str, int] = {}
        self.period = self._zero()
        self.lifetime = self._zero()
        self._cpu_mark = time.process_time()

    @staticmethod
    def _zero() -> dict[str, int]:
        return {"connections": 0, "served": 0, "refused": 0, "control_connections": 0}

    def count(self, key: str) -> None:
        with self._lock:
            self.period[key] += 1
            self.lifetime[key] += 1

    def reset(self) -> dict:
        """Counters and process CPU seconds since the previous reset."""
        with self._lock:
            period, self.period = self.period, self._zero()
            self._refusals.clear()
            cpu = time.process_time()
            period["cpu_s"], self._cpu_mark = cpu - self._cpu_mark, cpu
        return period

    def refusal(self, model: str, content: str, max_tokens: int) -> int | None:
        """HTTP status to refuse this attempt with, or None to answer it."""
        seed = self.scripts[model][0]
        key = hashlib.sha256(f"{model}\n{max_tokens}\n{content}".encode()).hexdigest()
        with self._lock:
            streak = self._refusals.get(key, 0)
            if streak < workload.STUB_MAX_CONSECUTIVE_FAULTS and \
                    _hash01(seed, key, streak) < workload.STUB_FAULT_SHARE:
                self._refusals[key] = streak + 1
                return 429 if _hash01(seed, key, streak, "status") < 0.5 else 503
            self._refusals.pop(key, None)
        return None

    def answer(self, model: str, content: str, max_tokens: int) -> str:
        role = infer_role(content, max_tokens)
        request = self._request(role_tag=role, rendered_prompt=content, max_tokens=max_tokens)
        latency_ms = workload.STUB_LATENCY_MS["short" if role == "task_eval" else "long"]
        time.sleep(latency_ms / 1000)
        return self.scripts[model][1](request)


def make_handler(stub: Stub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keeps connections open for clients that reuse them

        def setup(self):
            super().setup()
            stub.count("connections")
            self._control = False

        def log_message(self, format, *args):  # noqa: A002 - signature fixed by the base class
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                if not self._control:
                    self._control = True
                    stub.count("control_connections")
                self._send(200, stub.reset())
                return
            if self.path != "/v1/chat/completions":
                self._send(404, {"error": "not found"})
                return
            try:
                payload = json.loads(raw)
                model = payload["model"]
                content = payload["messages"][-1]["content"]
                max_tokens = int(payload["max_tokens"])
                if model not in stub.scripts:
                    raise KeyError(f"unknown model {model!r}")
                infer_role(content, max_tokens)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self._send(400, {"error": f"bad request: {exc}"})
                return
            status = stub.refusal(model, content, max_tokens)
            if status is not None:
                stub.count("refused")
                self._send(status, {"error": "injected fault"})
                return
            text = stub.answer(model, content, max_tokens)
            stub.count("served")
            self._send(200, {
                "object": "chat.completion",
                "model": model,
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": text}}],
            })

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="comma-separated task seeds")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workload.import_program()
    stub = Stub([int(s) for s in args.seeds.split(",")], args.tiny)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stub))
    server.daemon_threads = True
    # shutdown() blocks until serve_forever returns, so call it off the main thread.
    signal.signal(signal.SIGTERM,
                  lambda *_: threading.Thread(target=server.shutdown, daemon=True).start())
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print(json.dumps(stub.lifetime), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
