"""Single chokepoint for all LLM text generation.

Three interchangeable backends sit behind :class:`Gateway`: a live adapter for
chat-completions-style HTTP endpoints, a deterministic scripted backend, and a
record/replay transcript store. The gateway owns the run's temperature, the
API-call counters and the transcript.

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

from .model import ConfigError, check_file

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
    replay could not find. A lone surrogate, which JSON text can carry as a
    ``\\ud800`` escape, is hashed as its three UTF-8-style bytes
    (``surrogatepass``) instead of failing the encode.
    """
    material = f"{role_tag}\n{rendered_prompt}".encode("utf-8", "surrogatepass")
    return hashlib.sha256(material).hexdigest()


def transcript_line(req: LlmRequest, resp: LlmResponse) -> str:
    """One transcript line, without its newline: ``json.dumps`` of the eight-field row, keys sorted.

    It is the reference for :meth:`Transcript.save`, which writes the same
    bytes per entry.
    """
    row = {
        "digest": req.digest,
        "latency_s": resp.latency_s,
        "max_tokens": req.max_tokens,
        "rendered_prompt": req.rendered_prompt,
        "request_index": req.request_index,
        "response_text": resp.text,
        "role_tag": req.role_tag,
        "temperature": req.temperature,
    }
    return json.dumps(row, sort_keys=True)


# The C scanner that ``json.loads`` runs under its Python-level wrapper: it
# parses one JSON value at an index and returns the value and its end.
_SCANNER = json.JSONDecoder().scan_once
# What ``json.loads`` skips around a value.
_JSON_WHITESPACE = json.decoder.WHITESPACE.match
# Matches no transcript field, so the first entry always starts a run.
_UNSET = object()


class TranscriptFormatError(ConfigError):
    """A transcript file holds a line that is not a transcript entry."""


@dataclass
class Transcript:
    """Append-only record of request/response pairs for replay and audit."""

    entries: list[tuple[LlmRequest, LlmResponse]]

    def save(self, path: str | Path) -> None:
        """Write the entries in order, one line and one ``write`` at a time.

        Each line equals ``transcript_line(req, resp)`` and a newline; a
        property test pins the two to each other. The fields that a run
        of consecutive entries shares (``role_tag``, ``temperature`` and
        ``max_tokens``, and the ``role_tag`` line that starts the digest's
        input) are looked up once per run, by each value's type and
        ``repr``, so ``json.dumps`` renders each distinct three values once,
        also for a transcript just read by :meth:`load`, whose every line
        decoded to objects of its own. The lookup does not go by equality:
        ``0``, ``0.0``, ``-0.0`` and ``False`` compare equal but render
        differently.
        """
        run_role = run_temperature = run_max_tokens = _UNSET
        rendered: dict[tuple, tuple[str, str, str]] = {}
        dumps = json.dumps
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
                    key = (
                        type(role_tag), repr(role_tag), type(temperature), repr(temperature),
                        type(max_tokens), repr(max_tokens),
                    )
                    parts = rendered.get(key)
                    if parts is None:
                        parts = rendered[key] = (
                            f"{role_tag}\n",
                            f', "max_tokens": {dumps(max_tokens, sort_keys=True)}, "rendered_prompt": ',
                            f', "role_tag": {dumps(role_tag, sort_keys=True)}, '
                            f'"temperature": {dumps(temperature, sort_keys=True)}}}\n',
                        )
                    digest_head, middle, tail = parts
                text, latency = resp
                # An entry with a field that is not a str, a plain int or a
                # finite float takes the reference line.
                if (
                    type(prompt) is not str
                    or type(text) is not str
                    or type(index) is not int
                    or type(latency) is not float
                    or not -inf < latency < inf
                ):
                    write(transcript_line(req, resp) + "\n")
                    continue
                # request_digest and json.dumps of each field, inlined.
                digest = sha256((digest_head + prompt).encode("utf-8", "surrogatepass")).hexdigest()
                write(
                    f'{{"digest": "{digest}", "latency_s": {latency!r}{middle}'
                    f'{encode_basestring_ascii(prompt)}, "request_index": {index!r}, '
                    f'"response_text": {encode_basestring_ascii(text)}{tail}'
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
        return cls(entries=entries)


class ScriptedBackend:
    """Deterministic backend delegating to a responder callable.

    The responder maps a request to completion text; it may raise
    :class:`ScriptExhaustedError` when a canned script runs dry. Scripted
    latency is always 0.0 so recorded transcripts are byte-stable.
    """

    def __init__(self, responder: Callable[[LlmRequest], str]):
        self._responder = responder

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> LlmResponse:
        text = self._responder(req)
        on_attempt()
        return LlmResponse(text, 0.0)


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


class RetryPolicy(NamedTuple):
    """Exponential backoff with seeded jitter; up to ``max_attempts`` retries after the first try."""

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


def check_timeout(timeout_s: float) -> None:
    """:class:`ConfigError` unless ``timeout_s`` is a finite number above 0, which the HTTP client needs."""
    if not (math.isfinite(timeout_s) and timeout_s > 0):
        raise ConfigError(f"[gateway] timeout_s: expected a finite number > 0, got {timeout_s}")


@dataclass(frozen=True)
class LiveConfig:
    """The live backend's endpoint; an empty ``base_url`` or ``model`` or a bad ``timeout_s`` is refused."""

    base_url: str = ""
    model: str = ""
    api_key: str = ""
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if not self.base_url or not self.model:
            raise ConfigError("[gateway] base_url and model are required for the live backend")
        check_timeout(self.timeout_s)


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float):
    """POST ``payload`` as JSON on a new connection; return the status and the body text.

    An error status is returned, not raised. The benchmark's tracer patches this name.
    """
    import urllib.error
    import urllib.request

    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        response = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as error:
        response = error
    with response:
        return response.status, response.read().decode("utf-8", errors="replace")


class LiveBackend:
    """OpenAI-compatible chat-completions adapter with retry and backoff."""

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

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> LlmResponse:
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json", "User-Agent": "promptopt"}
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
                        return LlmResponse(text, time.monotonic() - started)
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

    ``temperature`` is the run's sampling temperature, sent with every
    request. At temperature 0 requests are memoised for the life of the
    gateway, which is one run: an exact repeat of a request already answered
    gets that request's answer text and reaches neither the backend nor the
    transcript. Above 0 there is no memo, and every request is sent.

    :meth:`call_count` counts wire calls: every attempt that reaches a backend,
    retries included. With the scripted and replay backends, which never
    retry, it equals the number of transcript entries. Requests issued are
    attributed to one of two buckets, ``optimize`` (default) and ``eval``
    (test-set scoring, switched with :meth:`count_as_eval`), which count those
    attempts plus memo hits, so cost reports state the calls the method issued
    whatever the memo saved.

    A backend's ``complete(req, on_attempt)`` calls ``on_attempt()`` once per
    attempt and returns the :class:`LlmResponse` that the transcript keeps as
    it is: a replay's entries are the recorded objects themselves.

    A batch's attempts and memo hits reach the counters together when the
    batch ends, whether it completed, failed or was interrupted; a backend
    must not read the counters while a batch is in flight.

    :meth:`elapsed_seconds` keeps the wall clock, except behind a
    :class:`ReplayBackend`, chosen once when the gateway is built: a replay's
    clock is the sum of the latencies recorded for the answers it served.
    """

    def __init__(self, backend, temperature: float = 0.0):
        self.backend = backend
        self.temperature = temperature
        self.transcript = Transcript(entries=[])
        self._counts = {"optimize": 0, "eval": 0, "wire": 0, "memo_hits": 0}
        self._bucket = "optimize"
        self._next_index = 0
        # One dict per role_tag, from a rendered prompt to the answer text it
        # got: the key shape of ReplayBackend's table.
        self._memo: dict[str, dict[str, str]] | None = (
            {role: {} for role in ROLE_TAGS} if temperature == 0 else None
        )
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._replaying = isinstance(backend, ReplayBackend)
        self._replay_latency = 0.0

    def complete_many(self, role_tag: str, rendered_prompts: Sequence[str]) -> list[str]:
        """Answer each prompt, in order; the answer texts come back in that order.

        The role check, the token budget (``DEFAULT_MAX_TOKENS`` of the role)
        and the ``optimize``/``eval`` bucket are settled once for the batch.
        At temperature 0 a prompt answered earlier in the run, or earlier in
        this batch, is not sent: it gets the earlier answer. The
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
        temperature = self.temperature
        if self._memo is not None:
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
        new = tuple.__new__
        texts: list[str] = []
        done: list[tuple[LlmRequest, LlmResponse]] = []
        try:
            for prompt in rendered_prompts:
                if memo is not None:
                    text = memo.get(prompt)
                    if text is not None:
                        texts.append(text)
                        continue
                # What LlmRequest._make does, less its length check and frame.
                req = new(LlmRequest, (role_tag, prompt, temperature, max_tokens, index))
                resp = complete(req, on_attempt)
                index += 1
                done.append((req, resp))
                text = resp[0]
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
                if self._replaying:
                    # One at a time, so the float sum equals that of single calls.
                    for _, resp in done:
                        self._replay_latency += resp.latency_s
        return texts

    def complete(self, req: LlmRequest) -> str:
        """The answer text to ``req``, sent as a batch of one; the gateway sets its other fields."""
        return self.complete_many(req.role_tag, (req.rendered_prompt,))[0]

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
        """Requests answered from the temperature-0 memo, never sent."""
        with self._lock:
            return self._counts["memo_hits"]

    def optimize_calls(self) -> int:
        with self._lock:
            return self._counts["optimize"]

    def eval_calls(self) -> int:
        with self._lock:
            return self._counts["eval"]

    def elapsed_seconds(self) -> float:
        """Wall-clock elapsed time; behind a replay backend, the sum of recorded latencies."""
        if self._replaying:
            with self._lock:
                return self._replay_latency
        return time.monotonic() - self._t0
