"""Single chokepoint for all LLM text generation.

Three interchangeable backends sit behind :class:`Gateway`: a live adapter for
chat-completions-style HTTP endpoints, a deterministic scripted backend, and a
record/replay transcript store. The gateway owns the API-call counters; every
attempt that reaches a backend counts as one call.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROLE_TAGS = ("gradient_gen", "prompt_edit", "paraphrase", "task_eval")

# Per-role completion budgets; task evaluation answers are short by design.
DEFAULT_MAX_TOKENS = {
    "gradient_gen": 512,
    "prompt_edit": 512,
    "paraphrase": 512,
    "task_eval": 16,
}


class GatewayError(Exception):
    """Base class for backend failures."""


class ReplayMissError(GatewayError):
    """A replayed run issued a request absent from the transcript."""


class ScriptExhaustedError(GatewayError):
    """A scripted backend ran out of canned responses."""


class LiveCallError(GatewayError):
    """The HTTP backend failed after exhausting its retries."""


@dataclass(frozen=True)
class LlmRequest:
    """One rendered request; ``request_index`` is stamped at issue time."""

    role_tag: str
    rendered_prompt: str
    temperature: float = 0.0
    max_tokens: int = 512
    request_index: int = -1

    @property
    def digest(self) -> str:
        """:func:`request_digest` of this request, computed on first use and kept.

        A replayed request is hashed for the lookup and again for the saved
        transcript; keeping the value makes that one hash. Not a field, so it
        takes no part in equality or ``repr``.
        """
        value = getattr(self, "_digest", None)
        if value is None:
            value = request_digest(self.role_tag, self.rendered_prompt)
            object.__setattr__(self, "_digest", value)
        return value


@dataclass(frozen=True)
class LlmResponse:
    text: str
    request_index: int
    latency_s: float = 0.0


def request_digest(role_tag: str, rendered_prompt: str) -> str:
    """Content digest keying replay lookups; independent of issue order."""
    material = f"{role_tag}\n{rendered_prompt}".encode("utf-8")
    return hashlib.sha256(material).hexdigest()


# One encoder for every transcript line: ``json.dumps(..., sort_keys=True)``
# builds a new one per call and writes the same bytes.
_TRANSCRIPT_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class Transcript:
    """Append-only record of request/response pairs for replay and audit."""

    entries: list[tuple[LlmRequest, LlmResponse]]
    mode: str = "record"

    def save(self, path: str | Path) -> None:
        encode = _TRANSCRIPT_ENCODER.encode
        lines = [
            encode(
                {
                    "digest": req.digest,
                    "role_tag": req.role_tag,
                    "rendered_prompt": req.rendered_prompt,
                    "temperature": req.temperature,
                    "max_tokens": req.max_tokens,
                    "request_index": req.request_index,
                    "response_text": resp.text,
                    "latency_s": resp.latency_s,
                }
            )
            for req, resp in self.entries
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        entries: list[tuple[LlmRequest, LlmResponse]] = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            req = LlmRequest(
                role_tag=row["role_tag"],
                rendered_prompt=row["rendered_prompt"],
                temperature=row["temperature"],
                max_tokens=row["max_tokens"],
                request_index=row["request_index"],
            )
            resp = LlmResponse(
                text=row["response_text"],
                request_index=row["request_index"],
                latency_s=row["latency_s"],
            )
            entries.append((req, resp))
        return cls(entries=entries, mode="replay")


class ScriptedBackend:
    """Deterministic backend delegating to a responder callable.

    The responder maps a request to completion text; it may raise
    :class:`ScriptExhaustedError` when a canned script runs dry. Scripted
    latency is always 0.0 so recorded transcripts are byte-stable.
    """

    transcript_mode = "scripted"

    def __init__(self, responder: Callable[[LlmRequest], str]):
        self._responder = responder

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> tuple[str, float]:
        text = self._responder(req)
        on_attempt()
        return text, 0.0


class ReplayBackend:
    """Serves responses from a recorded transcript; never touches a network.

    Lookup is keyed by (role_tag, content digest). Repeated identical requests
    consume recorded entries in order and then stick to the last one, matching
    temperature-0 semantics.
    """

    transcript_mode = "replay"

    def __init__(self, transcript: Transcript):
        self._queues: dict[str, deque[LlmResponse]] = {}
        self._last: dict[str, LlmResponse] = {}
        for req, resp in transcript.entries:
            # Not ``req.digest``: these requests are never saved again, so
            # keeping the value on them would only hold memory.
            key = request_digest(req.role_tag, req.rendered_prompt)
            self._queues.setdefault(key, deque()).append(resp)
            self._last[key] = resp

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> tuple[str, float]:
        key = req.digest
        if key not in self._last:
            raise ReplayMissError(
                f"no recorded response for {req.role_tag} request (digest {key[:12]})"
            )
        queue = self._queues[key]
        resp = queue.popleft() if queue else self._last[key]
        on_attempt()
        return resp.text, resp.latency_s


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter; gives up after ``max_attempts``."""

    base_delay_s: float = 0.5
    max_attempts: int = 5
    max_delay_s: float = 30.0

    def delay(self, attempt: int, rng: random.Random) -> float | None:
        """Delay before retrying ``attempt`` (1-based), or None to give up."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if attempt > self.max_attempts:
            return None
        raw = self.base_delay_s * 2 ** (attempt - 1) * (1.0 + rng.random())
        return min(raw, self.max_delay_s)


@dataclass(frozen=True)
class LiveConfig:
    base_url: str
    model: str
    api_key: str = ""
    timeout_s: float = 60.0


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float):
    import requests

    resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    return resp.status_code, resp.text


class LiveBackend:
    """OpenAI-compatible chat-completions adapter with retry and backoff."""

    transcript_mode = "record"

    def __init__(
        self,
        config: LiveConfig,
        retry: RetryPolicy | None = None,
        rng: random.Random | None = None,
        transport: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.retry = retry or RetryPolicy()
        self._rng = rng or random.Random(0)
        self._transport = transport or _requests_transport
        self._sleep = sleep

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> tuple[str, float]:
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": req.rendered_prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        attempt = 0
        last_error = "no attempt made"
        while True:
            attempt += 1
            started = time.monotonic()
            try:
                on_attempt()
                status, body = self._transport(url, headers, payload, self.config.timeout_s)
            except Exception as exc:
                last_error = f"transport error: {exc}"
            else:
                if status == 200:
                    try:
                        message = json.loads(body)["choices"][0]["message"]
                        text = message.get("content")
                    except (KeyError, IndexError, TypeError, AttributeError,
                            json.JSONDecodeError) as exc:
                        raise LiveCallError(f"malformed completion body: {exc}") from exc
                    if isinstance(text, str):
                        return text, time.monotonic() - started
                    # Null or missing content is retried like a 503: scoring
                    # and editing need text.
                    last_error = "completion content missing or not a string"
                elif status not in (429,) and status < 500:
                    raise LiveCallError(f"HTTP {status}: {body[:200]}")
                else:
                    last_error = f"HTTP {status}"
            delay = self.retry.delay(attempt, self._rng)
            if delay is None:
                raise LiveCallError(
                    f"gave up after {attempt} attempts (last: {last_error})"
                )
            self._sleep(delay)


class Gateway:
    """Issues requests to exactly one backend; owns counters and the transcript.

    Calls are attributed to one of two buckets: ``optimize`` (default) and
    ``eval`` (test-set scoring, switched with :meth:`count_as_eval`), so cost
    reports can state both figures.
    """

    def __init__(self, backend):
        self.backend = backend
        self.transcript = Transcript(entries=[], mode=backend.transcript_mode)
        self._counts = {"optimize": 0, "eval": 0}
        self._bucket = "optimize"
        self._next_index = 0
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._replay_latency = 0.0

    def call(
        self,
        role_tag: str,
        rendered_prompt: str,
        *,
        temperature: float = 0.0,
        max_tokens: int | None = None,
    ) -> LlmResponse:
        if role_tag not in ROLE_TAGS:
            raise ValueError(f"unknown role_tag {role_tag!r}")
        req = LlmRequest(
            role_tag=role_tag,
            rendered_prompt=rendered_prompt,
            temperature=temperature,
            max_tokens=max_tokens if max_tokens is not None else DEFAULT_MAX_TOKENS[role_tag],
        )
        return self.complete(req)

    def complete(self, req: LlmRequest) -> LlmResponse:
        with self._lock:
            index = self._next_index
            self._next_index += 1
            bucket = self._bucket
        # A direct constructor call: ``dataclasses.replace`` walks the fields
        # on every call, and this runs once per request.
        req = LlmRequest(req.role_tag, req.rendered_prompt, req.temperature, req.max_tokens, index)

        def on_attempt() -> None:
            with self._lock:
                self._counts[bucket] += 1

        text, latency = self.backend.complete(req, on_attempt)
        resp = LlmResponse(text=text, request_index=req.request_index, latency_s=latency)
        with self._lock:
            self.transcript.entries.append((req, resp))
            if self.transcript.mode == "replay":
                self._replay_latency += latency
        return resp

    @contextmanager
    def count_as_eval(self):
        """Attribute calls inside the block to the ``eval`` bucket."""
        with self._lock:
            previous, self._bucket = self._bucket, "eval"
        try:
            yield
        finally:
            with self._lock:
                self._bucket = previous

    def call_count(self) -> int:
        with self._lock:
            return self._counts["optimize"] + self._counts["eval"]

    def optimize_calls(self) -> int:
        with self._lock:
            return self._counts["optimize"]

    def eval_calls(self) -> int:
        with self._lock:
            return self._counts["eval"]

    def elapsed_seconds(self) -> float:
        """Wall-clock elapsed time; in replay mode, the sum of recorded latencies."""
        if self.transcript.mode == "replay":
            with self._lock:
                return self._replay_latency
        return time.monotonic() - self._t0
