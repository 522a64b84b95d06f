"""Single chokepoint for all LLM text generation.

Three interchangeable backends sit behind :class:`Gateway`: a live adapter for
chat-completions-style HTTP endpoints, a deterministic scripted backend, and a
record/replay transcript store. The gateway owns the API-call counters and
the transcript.

At temperature 0 an exact repeat of a request already answered in the run,
same role and rendered prompt, gets the answer the gateway holds and never
reaches the backend. Two kinds of count follow: *wire* calls are the attempts
that reach a backend, and only they join the transcript; the ``optimize`` and
``eval`` buckets count every request issued, memo hits included, so per-round
call counts do not depend on the memo.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .model import check_file

ROLE_TAGS = ("gradient_gen", "prompt_edit", "paraphrase", "task_eval")

# Per-role completion budgets; task evaluation answers are short by design.
DEFAULT_MAX_TOKENS = {
    "gradient_gen": 512,
    "prompt_edit": 512,
    "paraphrase": 512,
    "task_eval": 16,
}


class GatewayError(Exception):
    """Base class for backend failures.

    ``batch_position`` is the 0-based position, within its
    :meth:`Gateway.complete_many` batch, of the request that failed.
    """

    batch_position: int | None = None


class ReplayMissError(GatewayError):
    """A replayed run issued a request absent from the transcript."""


class ScriptExhaustedError(GatewayError):
    """A scripted backend ran out of canned responses."""


class LiveCallError(GatewayError):
    """The HTTP backend failed after exhausting its retries."""


class LlmRequest(NamedTuple):
    """One rendered request; ``request_index`` is stamped at issue time.

    A named tuple: immutable, hashable and cheap to build, since the gateway
    makes one per request and the loader one per transcript line.
    """

    role_tag: str
    rendered_prompt: str
    temperature: float = 0.0
    max_tokens: int = 512
    request_index: int = -1

    @property
    def digest(self) -> str:
        """:func:`request_digest` of this request, computed on each access.

        Nothing keeps it: a named tuple holds only its five fields. The saved
        transcript and a replay miss message read it, once per request;
        replay lookups are keyed by content.
        """
        return request_digest(self.role_tag, self.rendered_prompt)


class LlmResponse(NamedTuple):
    """The answer half of one transcript line; its index is on the request."""

    text: str
    latency_s: float = 0.0


def request_digest(role_tag: str, rendered_prompt: str) -> str:
    """sha256 hex of a request's content, written to each transcript line.

    Independent of issue order; its first 12 characters name a request that
    replay could not find.
    """
    material = f"{role_tag}\n{rendered_prompt}".encode("utf-8")
    return hashlib.sha256(material).hexdigest()


# Encodes a transcript field that is not a ``str``, a plain ``int`` or a
# finite ``float`` exactly as ``json.dumps(..., sort_keys=True)`` would.
_TRANSCRIPT_ENCODER = json.JSONEncoder(sort_keys=True)


def _json_str(value) -> str:
    if type(value) is str:
        return encode_basestring_ascii(value)
    return _TRANSCRIPT_ENCODER.encode(value)


def _json_num(value) -> str:
    kind = type(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return _TRANSCRIPT_ENCODER.encode(value)


def transcript_line(req: LlmRequest, resp: LlmResponse) -> str:
    """One transcript line, without its newline.

    A fixed template with the keys in sorted order: equal to
    ``json.dumps(row, sort_keys=True)`` of the eight-field row for every
    input, since any value the fast paths do not cover (a bool, NaN, an
    ``int`` subclass) goes through the generic encoder. It is the reference
    for :meth:`Transcript.save`, which writes the same bytes per entry.
    """
    return (
        f'{{"digest": {_json_str(req.digest)}, "latency_s": {_json_num(resp.latency_s)}, '
        f'"max_tokens": {_json_num(req.max_tokens)}, '
        f'"rendered_prompt": {_json_str(req.rendered_prompt)}, '
        f'"request_index": {_json_num(req.request_index)}, '
        f'"response_text": {_json_str(resp.text)}, "role_tag": {_json_str(req.role_tag)}, '
        f'"temperature": {_json_num(req.temperature)}}}'
    )


# The C scanner that ``json.loads`` runs under its Python-level wrapper: it
# parses one JSON value at an index and returns the value and its end.
_SCANNER = json.JSONDecoder().scan_once
# What ``json.loads`` skips around a value.
_JSON_WHITESPACE = json.decoder.WHITESPACE.match
# Matches no transcript field, so the first entry always starts a run.
_UNSET = object()


class TranscriptFormatError(ValueError):
    """A transcript file holds a line that is not a transcript entry."""


@dataclass
class Transcript:
    """Append-only record of request/response pairs for replay and audit."""

    entries: list[tuple[LlmRequest, LlmResponse]]
    mode: str = "record"

    def save(self, path: str | Path) -> None:
        """Write the entries in order, one line and one ``write`` at a time.

        Each line equals ``transcript_line(req, resp)`` and a newline; a
        property test pins the two to each other. The fields that a run
        of consecutive entries shares (``role_tag``, ``temperature`` and
        ``max_tokens``, and the ``role_tag`` line that starts the digest's
        input) are rendered once per run. A run lasts while those
        fields are the same objects, not merely equal ones: ``0``, ``0.0``,
        ``-0.0`` and ``False`` compare equal but render differently.
        """
        run_role = run_temperature = run_max_tokens = _UNSET
        sha256 = hashlib.sha256
        inf = math.inf
        with open(path, "w", encoding="utf-8") as handle:
            write = handle.write
            for req, resp in self.entries:
                role_tag, prompt, temperature, max_tokens, index = req
                if (
                    role_tag is not run_role
                    or temperature is not run_temperature
                    or max_tokens is not run_max_tokens
                ):
                    run_role, run_temperature, run_max_tokens = role_tag, temperature, max_tokens
                    digest_head = f"{role_tag}\n"
                    middle = f', "max_tokens": {_json_num(max_tokens)}, "rendered_prompt": '
                    tail = (
                        f', "role_tag": {_json_str(role_tag)}, '
                        f'"temperature": {_json_num(temperature)}}}\n'
                    )
                text, latency = resp
                # request_digest, and the str, int and finite-float fast paths
                # of _json_str and _json_num, inlined.
                if type(prompt) is str:
                    digest = sha256((digest_head + prompt).encode("utf-8")).hexdigest()
                    prompt_json = encode_basestring_ascii(prompt)
                else:
                    digest = request_digest(role_tag, prompt)
                    prompt_json = _json_str(prompt)
                latency_json = (
                    repr(latency) if type(latency) is float and -inf < latency < inf
                    else _json_num(latency)
                )
                index_json = repr(index) if type(index) is int else _json_num(index)
                text_json = encode_basestring_ascii(text) if type(text) is str else _json_str(text)
                write(
                    f'{{"digest": "{digest}", "latency_s": {latency_json}{middle}{prompt_json}, '
                    f'"request_index": {index_json}, "response_text": {text_json}{tail}'
                )

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        """Read a saved transcript; blank lines are skipped.

        Each line goes to json's C scanner. A line it refuses, or one with
        anything but JSON whitespace after the object, is parsed again by
        ``json.loads``, so the lines accepted and the errors raised are those
        of ``json.loads`` on each line.

        Raises :class:`TranscriptFormatError` naming the path and the 1-based
        line number of the first line that is not a complete entry, such as
        the cut-off last line of a file whose writer was killed, or whose
        ``role_tag``, ``rendered_prompt`` or ``response_text`` is not a
        string, or ``latency_s`` not an int or float that is finite and >= 0.
        A missing path or a directory raises it too. The file is streamed, so a
        byte order mark is not skipped: this program writes transcripts without one.
        """
        check_file(path, "transcript", TranscriptFormatError)
        scan = _SCANNER
        skip_space = _JSON_WHITESPACE
        make_request = LlmRequest._make
        make_response = LlmResponse._make
        inf = math.inf
        number = (int, float)
        entries: list[tuple[LlmRequest, LlmResponse]] = []
        lineno = 0
        try:
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    try:
                        row, end = scan(line, 0)
                        whole = end == len(line) or skip_space(line, end).end() == len(line)
                    except (StopIteration, json.JSONDecodeError):
                        whole = False
                    if not whole:
                        if not line.strip():
                            continue
                        row = json.loads(line)
                    role = row["role_tag"]
                    prompt = row["rendered_prompt"]
                    text = row["response_text"]
                    latency = row["latency_s"]
                    # An int too large for a float raises OverflowError here.
                    if (
                        type(role) is not str
                        or type(prompt) is not str
                        or type(text) is not str
                        or type(latency) not in number
                        or not 0 <= float(latency) < inf
                    ):
                        raise TranscriptFormatError(
                            f"{path}: line {lineno}: role_tag, rendered_prompt and "
                            "response_text must be strings and latency_s a finite number >= 0"
                        )
                    entries.append((
                        make_request((
                            role,
                            prompt,
                            row["temperature"],
                            row["max_tokens"],
                            row["request_index"],
                        )),
                        make_response((text, latency)),
                    ))
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
            raise TranscriptFormatError(
                f"{path}: line {lineno}: not a transcript entry ({type(exc).__name__}: {exc})"
            ) from exc
        except UnicodeDecodeError as exc:
            raise TranscriptFormatError(f"{path}: not UTF-8 text ({exc})") from exc
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

    The answers sit in one dict per ``role_tag``, from a rendered prompt to
    the :class:`LlmResponse` recorded for it; ``request_index``,
    ``temperature`` and ``max_tokens`` take no part in the lookup. A prompt
    recorded more than once (at temperature > 0, or live before the gateway
    answered temperature-0 repeats itself) holds a list of them instead,
    served in order until its last one, which is served from then on.

    A served entry is set again under the request's own prompt string, so
    the recording's equal copy is freed and the table shares the string the
    run holds anyway. Calls must not overlap: the gateway sends one request
    at a time.
    """

    transcript_mode = "replay"

    def __init__(self, transcript: Transcript):
        self._answers: dict[str, dict[str, LlmResponse | list[LlmResponse]]] = {}
        for req, resp in transcript.entries:
            table = self._answers.setdefault(req.role_tag, {})
            held = table.setdefault(req.rendered_prompt, resp)
            if held is not resp:
                if type(held) is list:
                    held.append(resp)
                else:
                    table[req.rendered_prompt] = [held, resp]

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> LlmResponse:
        prompt = req.rendered_prompt
        table = self._answers.get(req.role_tag)
        held = table.pop(prompt, None) if table is not None else None
        if held is None:
            raise ReplayMissError(
                f"no recorded response for {req.role_tag} request (digest {req.digest[:12]})"
            )
        answer = held
        if type(held) is list:
            answer = held.pop(0)
            if len(held) == 1:
                # The last recorded answer is served from then on.
                held = held[0]
        # Under the run's own string: the recording's copy is freed.
        table[prompt] = held
        on_attempt()
        return answer


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
    """Issues requests to exactly one backend; owns counters, memo and transcript.

    Every request goes through :meth:`complete_many`; :meth:`complete`, which
    sends a batch of one, stays only as the span the benchmark's tracer wraps.

    Requests at temperature 0 are memoised for the life of the gateway, which
    is one run: an exact repeat of a request already answered gets that
    request's answer text and reaches neither the backend nor the
    transcript.

    :meth:`call_count` counts wire calls: every attempt that reaches a backend,
    retries included. With the scripted and replay backends, which never
    retry, it equals the number of transcript entries. Requests issued are attributed to one of two buckets, ``optimize``
    (default) and ``eval`` (test-set scoring, switched with
    :meth:`count_as_eval`), which count those attempts plus memo hits, so cost
    reports state the calls the method issued whatever the memo saved.

    A batch's attempts and memo hits reach the counters together when the
    batch ends, whether it completed, failed or was interrupted; a backend
    must not read the counters while a batch is in flight.
    """

    def __init__(self, backend):
        self.backend = backend
        self.transcript = Transcript(entries=[], mode=backend.transcript_mode)
        self._counts = {"optimize": 0, "eval": 0, "wire": 0, "memo_hits": 0}
        self._bucket = "optimize"
        self._next_index = 0
        # One dict per role_tag, from a rendered prompt to the answer text it
        # got: the key shape of ReplayBackend's table.
        self._memo: dict[str, dict[str, str]] = {role: {} for role in ROLE_TAGS}
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._replay_latency = 0.0

    def complete_many(
        self,
        role_tag: str,
        rendered_prompts: Sequence[str],
        *,
        temperature: float = 0.0,
    ) -> list[str]:
        """Answer each prompt, in order; the answer texts come back in that order.

        The role check, the token budget (``DEFAULT_MAX_TOKENS`` of the role),
        the memo and the ``optimize``/``eval`` bucket are settled once for the
        batch. At temperature 0 a prompt answered earlier in the run, or
        earlier in this batch, is not sent: it gets the earlier answer. The
        requests that are sent reserve their ``request_index`` values
        together, in submission order, before the first one goes out.

        Completed pairs join the transcript in index order even when a request
        fails. If the request for the prompt at position ``k`` raises, the
        paid calls and memo hits before it stay recorded and counted, the
        failed request is not recorded, a :class:`GatewayError` carries
        ``batch_position = k``, and the indices reserved for it and the rest
        of the batch are never used.
        """
        if role_tag not in ROLE_TAGS:
            raise ValueError(f"unknown role_tag {role_tag!r}")
        max_tokens = DEFAULT_MAX_TOKENS[role_tag]
        if temperature == 0:
            memo = self._memo[role_tag]
            sent = len(set(rendered_prompts).difference(memo))
        else:
            memo = None
            sent = len(rendered_prompts)
        lock = self._lock
        with lock:
            index = self._next_index
            self._next_index += sent
            bucket = self._bucket
        # Attempts are counted without the lock and reach the counters once,
        # in the finally block below.
        attempts = itertools.count()
        on_attempt = attempts.__next__
        complete = self.backend.complete
        make_request = LlmRequest._make
        make_response = LlmResponse._make
        texts: list[str] = []
        done: list[tuple[LlmRequest, LlmResponse]] = []
        try:
            for prompt in rendered_prompts:
                if memo is not None:
                    text = memo.get(prompt)
                    if text is not None:
                        texts.append(text)
                        continue
                req = make_request((role_tag, prompt, temperature, max_tokens, index))
                text, latency = complete(req, on_attempt)
                index += 1
                done.append((req, make_response((text, latency))))
                texts.append(text)
                if memo is not None:
                    memo[prompt] = text
        except GatewayError as exc:
            exc.batch_position = len(texts)
            raise
        finally:
            wire = next(attempts)
            hits = len(texts) - len(done)
            with lock:
                counts = self._counts
                counts["wire"] += wire
                counts[bucket] += wire + hits
                counts["memo_hits"] += hits
                self.transcript.entries.extend(done)
                if self.transcript.mode == "replay":
                    # One at a time, so the float sum equals that of single calls.
                    for _, resp in done:
                        self._replay_latency += resp.latency_s
        return texts

    def complete(self, req: LlmRequest) -> str:
        """The answer text to ``req``, sent as a batch of one; its index and budget are ignored."""
        return self.complete_many(
            req.role_tag, (req.rendered_prompt,), temperature=req.temperature
        )[0]

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
        """Wire calls: attempts that reached the backend."""
        with self._lock:
            return self._counts["wire"]

    def memo_hits(self) -> int:
        """Temperature-0 requests answered from the memo, never sent."""
        with self._lock:
            return self._counts["memo_hits"]

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
