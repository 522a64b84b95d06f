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

import itertools
import json
import math
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .model import ConfigError, check_field_types, check_file, read_text

# Per-role completion budgets; task evaluation answers are short by design.
DEFAULT_MAX_TOKENS = {
    "gradient_gen": 512,
    "prompt_edit": 512,
    "paraphrase": 512,
    "task_eval": 16,
}
ROLE_TAGS = tuple(DEFAULT_MAX_TOKENS)


class GatewayError(Exception):
    """Base class for backend failures.

    ``batch_position`` is the 0-based position, within its
    :meth:`Gateway.complete_many` batch, of the request that failed.
    """

    batch_position: int | None = None


class ReplayMissError(GatewayError):
    """A replayed run issued a request absent from the transcript.

    The message names the request's role and its ``request_index``: a run
    that follows its recording misses at the line with that index.
    """


class ScriptExhaustedError(GatewayError):
    """A scripted responder has no answer for a request, such as one of a role it has no script for."""


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


class LlmResponse(NamedTuple):
    """The answer half of one transcript line; its index is on the request."""

    text: str
    latency_s: float = 0.0


def transcript_line(req: LlmRequest, resp: LlmResponse) -> str:
    """One transcript line, without its newline: ``json.dumps`` of the seven-field row, keys sorted.

    It is the reference for :meth:`Transcript.save`, which writes the same
    bytes per entry.
    """
    row = {
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
    """Append-only record of request/response pairs for replay and audit.

    ``path`` is the file that :meth:`load` read it from, else None.
    """

    entries: list[tuple[LlmRequest, LlmResponse]]
    path: Path | None = field(default=None, compare=False)

    def save(self, path: str | Path) -> None:
        """Write the entries in order, one line and one ``write`` at a time.

        Each line equals ``transcript_line(req, resp)`` and a newline; a
        property test pins the two to each other. The fields that a run
        of consecutive entries shares (``role_tag``, ``temperature`` and
        ``max_tokens``) are looked up once per run, by each value's type and
        ``repr``, so ``json.dumps`` renders each distinct three values once,
        also for entries that hold equal values in objects of their own. The
        lookup does not go by equality: ``0``, ``0.0``, ``-0.0`` and
        ``False`` compare equal but render differently.
        """
        run_role = run_temperature = run_max_tokens = _UNSET
        rendered: dict[tuple, tuple[str, str]] = {}
        dumps = json.dumps
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
                            f', "max_tokens": {dumps(max_tokens, sort_keys=True)}, "rendered_prompt": ',
                            f', "role_tag": {dumps(role_tag, sort_keys=True)}, '
                            f'"temperature": {dumps(temperature, sort_keys=True)}}}\n',
                        )
                    middle, tail = parts
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
                # json.dumps of each field, inlined.
                write(
                    f'{{"latency_s": {latency!r}{middle}'
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

        Equal values are loaded once and shared: one ``role_tag`` string per
        role, one object per distinct ``temperature`` and ``max_tokens``, and
        one :class:`LlmResponse` per distinct (``response_text``,
        ``latency_s``). A number is keyed by its type and value, and a zero by
        its ``repr``, so ``0``, ``0.0`` and ``-0.0`` stay apart and
        :meth:`save` writes back every byte read.

        Raises :class:`TranscriptFormatError` naming the path and the 1-based
        line number of the first line that is not a complete entry, such as
        the cut-off last line of a file whose writer was killed, or whose
        ``role_tag``, ``rendered_prompt`` or ``response_text`` is not a
        string, ``latency_s`` or ``temperature`` not an int or float that is
        finite and >= 0, or ``max_tokens`` or ``request_index`` not an int
        (a bool is none of these). A missing path, a directory or a byte that
        is not UTF-8 raises it too, the byte named with its line. The file is
        streamed, so a byte order mark is not skipped: this program writes
        transcripts without one.
        """
        check_file(path, "transcript", TranscriptFormatError)
        scan = _SCANNER
        skip_space = _JSON_WHITESPACE
        new = tuple.__new__
        make_response = LlmResponse._make
        inf = math.inf
        number = (int, float)
        roles: dict[str, str] = {}
        numbers: dict[tuple, int | float] = {}
        responses: dict[tuple, LlmResponse] = {}
        entries: list[tuple[LlmRequest, LlmResponse]] = []
        lineno = 0
        try:
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    try:
                        row, end = scan(line, 0)
                        # A saved line holds nothing but its newline after the object.
                        whole = (
                            line[end:] == "\n"
                            or end == len(line)
                            or skip_space(line, end).end() == len(line)
                        )
                    except (StopIteration, json.JSONDecodeError):
                        whole = False
                    if not whole:
                        if not line.strip():
                            continue
                        row = json.loads(line)
                    role = row["role_tag"]
                    prompt = row["rendered_prompt"]
                    temperature = row["temperature"]
                    max_tokens = row["max_tokens"]
                    index = row["request_index"]
                    text = row["response_text"]
                    latency = row["latency_s"]
                    # An int too large for a float raises OverflowError here.
                    if (
                        type(role) is not str
                        or type(prompt) is not str
                        or type(text) is not str
                        or type(latency) not in number
                        or type(temperature) not in number
                        or type(max_tokens) is not int
                        or type(index) is not int
                        or not 0 <= float(latency) < inf
                        or not 0 <= float(temperature) < inf
                    ):
                        raise TranscriptFormatError(
                            f"{path}: line {lineno}: role_tag, rendered_prompt and "
                            "response_text must be strings, latency_s and temperature "
                            "finite numbers >= 0, and max_tokens and request_index integers"
                        )
                    # One object per distinct value. A number is keyed by its
                    # type and value, and a zero by its repr: 0, 0.0 and -0.0
                    # compare equal but render differently.
                    role = roles.setdefault(role, role)
                    temperature = numbers.setdefault(
                        (type(temperature), temperature or repr(temperature)), temperature
                    )
                    max_tokens = numbers.setdefault((int, max_tokens or "0"), max_tokens)
                    key = (text, type(latency), latency or repr(latency))
                    response = responses.get(key)
                    if response is None:
                        response = responses[key] = make_response((text, latency))
                    # What LlmRequest._make does, less its length check and frame.
                    request = new(LlmRequest, (role, prompt, temperature, max_tokens, index))
                    entries.append((request, response))
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
            raise TranscriptFormatError(
                f"{path}: line {lineno}: not a transcript entry ({type(exc).__name__}: {exc})"
            ) from exc
        except UnicodeDecodeError as exc:
            # read_text names the line and the byte.
            read_text(path, "transcript", TranscriptFormatError)
            raise TranscriptFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        return cls(entries=entries, path=Path(path))


class ScriptedBackend:
    """Deterministic backend delegating to a responder callable.

    The responder maps a request to completion text; it may raise
    :class:`ScriptExhaustedError` for a request it has no answer for, as
    ``HeuristicScript`` does for a role it has no script for. Scripted
    latency is always 0.0 so recorded transcripts are byte-stable, and one
    :class:`LlmResponse` per distinct answer text is built and shared.
    """

    def __init__(self, responder: Callable[[LlmRequest], str]):
        self._responder = responder
        self._responses: dict[str, LlmResponse] = {}

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> LlmResponse:
        text = self._responder(req)
        on_attempt()
        response = self._responses.get(text)
        if response is None:
            response = self._responses[text] = LlmResponse(text, 0.0)
        return response


class ReplayBackend:
    """Serves responses from a recorded transcript; never touches a network.

    The answers sit in one dict per ``role_tag``, from a rendered prompt to
    the :class:`LlmResponse` recorded for it; ``request_index``,
    ``temperature`` and ``max_tokens`` take no part in the lookup. A prompt
    recorded more than once (at temperature > 0, or live before the gateway
    answered temperature-0 repeats itself) holds a list of them instead,
    served in order until its last one, which is served from then on. A
    repeat is found by the prompt already in the table, not by the response
    object, since equal answers may share one (:meth:`Transcript.load`,
    :class:`ScriptedBackend`).

    A served entry is set again under the request's own prompt string, so
    the recording's equal copy is freed and the table shares the string the
    run holds anyway. Calls must not overlap: the gateway sends one request
    at a time.
    """

    def __init__(self, transcript: Transcript):
        # The recording's file, so that a run can refuse to replace it.
        self.source = transcript.path
        self._answers: dict[str, dict[str, LlmResponse | list[LlmResponse]]] = {}
        for req, resp in transcript.entries:
            table = self._answers.setdefault(req.role_tag, {})
            prompt = req.rendered_prompt
            held = table.get(prompt)
            if held is None:
                table[prompt] = resp
            elif type(held) is list:
                held.append(resp)
            else:
                table[prompt] = [held, resp]

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> LlmResponse:
        prompt = req.rendered_prompt
        table = self._answers.get(req.role_tag)
        held = table.pop(prompt, None) if table is not None else None
        if held is None:
            raise ReplayMissError(
                f"no recorded response for {req.role_tag} request {req.request_index}"
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
    """The live backend's endpoint, checked when it is built.

    An empty ``base_url`` or ``model``, a bad ``timeout_s`` or a value not of
    its field's type raises :class:`ConfigError`.
    """

    base_url: str = ""
    model: str = ""
    api_key: str = ""
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        check_field_types(self, "[gateway] ")
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
        # The config is frozen, so the endpoint and headers are built once.
        self._url = config.base_url.rstrip("/") + "/chat/completions"
        self._headers = {"Content-Type": "application/json", "User-Agent": "promptopt"}
        if config.api_key:
            self._headers["Authorization"] = f"Bearer {config.api_key}"

    def complete(self, req: LlmRequest, on_attempt: Callable[[], None]) -> LlmResponse:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": req.rendered_prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        for attempt in itertools.count(1):
            started = time.monotonic()
            try:
                on_attempt()
                status, body = self._transport(self._url, self._headers, payload, self.config.timeout_s)
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
