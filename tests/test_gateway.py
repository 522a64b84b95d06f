from __future__ import annotations

import json
import math
import random
import re
import socket
import sys
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from promptopt.gateway import (
    DEFAULT_MAX_TOKENS,
    ROLE_TAGS,
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
    TranscriptFormatError,
    request_digest,
    transcript_line,
)
from promptopt.model import ConfigError
from promptopt.scripted import ScriptExhaustedError
from promptopt.search import run

from conftest import SequenceScript, call, scripted_gateway


def echo_gateway(temperature: float = 0.0) -> Gateway:
    return Gateway(ScriptedBackend(lambda req: f"echo:{req.rendered_prompt}"), temperature)


def test_scripted_passthrough_increments_counter() -> None:
    gw = Gateway(ScriptedBackend(lambda req: "Yes"))
    assert call(gw, "task_eval", "label this") == "Yes"
    assert gw.call_count() == 1


def test_counter_counts_each_complete() -> None:
    gw = echo_gateway(0.7)
    assert gw.call_count() == 0
    # Above temperature 0 a repeated request is sent each time.
    for _ in range(3):
        call(gw, "task_eval", "x")
    assert gw.call_count() == 3


def test_request_index_is_monotone() -> None:
    gw = echo_gateway()
    for i in range(4):
        call(gw, "task_eval", f"p{i}")
    assert [req.request_index for req, _ in gw.transcript.entries] == [0, 1, 2, 3]


def test_eval_bucket_is_separate() -> None:
    gw = echo_gateway()
    call(gw, "gradient_gen", "a")
    with gw.count_as_eval():
        call(gw, "task_eval", "b")
        call(gw, "task_eval", "c")
    call(gw, "prompt_edit", "d")
    assert gw.optimize_calls() == 2
    assert gw.eval_calls() == 2
    assert gw.call_count() == 4


def test_counter_equals_transcript_length_in_record_modes() -> None:
    gw = echo_gateway()
    for i in range(5):
        call(gw, "task_eval", f"p{i}")
    assert gw.call_count() == len(gw.transcript.entries)


def test_default_max_tokens_by_role() -> None:
    gw = echo_gateway()
    call(gw, "task_eval", "x")
    call(gw, "gradient_gen", "y")
    (req_eval, _), (req_grad, _) = gw.transcript.entries
    assert req_eval.max_tokens == 16
    assert req_grad.max_tokens == 512


def test_unknown_role_tag_rejected() -> None:
    with pytest.raises(ValueError):
        call(echo_gateway(), "chitchat", "x")


def test_script_exhausted_error_does_not_count() -> None:
    gw = Gateway(ScriptedBackend(SequenceScript({"task_eval": ["Yes"]})))
    assert call(gw, "task_eval", "a") == "Yes"
    with pytest.raises(ScriptExhaustedError):
        call(gw, "task_eval", "b")
    assert gw.call_count() == 1


def test_transcript_save_load_round_trip(tmp_path) -> None:
    gw = echo_gateway()
    call(gw, "task_eval", "first")
    call(gw, "gradient_gen", "second")
    path = tmp_path / "transcript.jsonl"
    gw.transcript.save(path)
    loaded = Transcript.load(path)
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
                LlmResponse("Oui, yes", 0.0),
            ),
            (
                LlmRequest("gradient_gen", 'line one\nline "two"', 0.7, 512, 1),
                LlmResponse("<START>reason\n<END>", 0.25),
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


# Characters whose JSON escapes differ in kind: quote, backslash, control
# characters, DEL, a no-break space, a line separator, lone surrogates and
# astral characters (written as surrogate pairs).
_SPECIAL_CHARS = '"\\\x00\x08\x1f\x7f\xa0\u2028\ud800\udfff\U0001f600\U0010ffff'
_TEXT = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(_SPECIAL_CHARS)),
    max_size=40,
)
_INT = st.one_of(st.integers(), st.integers(min_value=-(2**80), max_value=2**80))
_NUMBER = st.one_of(
    _INT,
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e-7, 1e16, 1e22, 0.1, 2.5e-324, float("nan"), float("inf")]),
)
# Values that json writes in forms of their own, allowed in any field.
_OTHER = st.one_of(st.booleans(), st.none(), st.sampled_from([float("-inf")]))


class _Int(int):
    """An ``int`` subclass, which ``Transcript.save`` hands to ``transcript_line``."""


# Values that compare equal in Python but render differently (0, 0.0, -0.0,
# False; 1, True, _Int(1)), plus NaN, which equals nothing. Fixed objects, so
# that consecutive entries can share them.
_LOOKALIKES = [0, 0.0, -0.0, False, True, 1, _Int(1), float("nan"), 0.7, 16, 512]

# A prompt or response text: any text, text that holds lone surrogates (a
# JSON ``\ud800`` escape decodes to one), or a value that is not a str.
_TEXTS = st.one_of(
    _TEXT,
    st.lists(
        st.one_of(st.characters(), st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])),
        max_size=8,
    ).map("".join),
    _NUMBER,
    _OTHER,
    st.integers().map(_Int),
)
# A number field: any number, an equal-looking shared object, or another value.
_NUMBERS = st.one_of(_NUMBER, st.sampled_from(_LOOKALIKES), _OTHER)


_NON_FINITE = [float("inf"), float("nan"), float("-inf")]


def _lookalike_runs() -> list:
    """Runs of one role whose shared fields only look alike, each next to the last."""
    rows = [("p", 0, "a", 0.0)]
    shared = [(0, 16), (0.0, 16), (-0.0, 16), (False, 16), (0.0, 1), (0.0, True), (0.0, _Int(1))]
    shared += [(float("nan"), 16), (float("nan"), 16)]
    return [("task_eval", temperature, max_tokens, rows) for temperature, max_tokens in shared]


@example(runs=_lookalike_runs())
# Non-finite latencies among entries that save would otherwise write itself.
@example(runs=[("task_eval", 0.0, 16, [("p", i, "a", x) for i, x in enumerate(_NON_FINITE)])])
@given(
    runs=st.lists(
        st.tuples(
            st.one_of(st.sampled_from(ROLE_TAGS), _TEXT, _OTHER),  # role
            _NUMBERS,  # temperature
            _NUMBERS,  # max_tokens
            st.lists(
                st.one_of(
                    # (prompt, index, response text, latency) of the types
                    # that save writes itself, non-finite floats included ...
                    st.tuples(_TEXT, _INT, _TEXT, st.floats()),
                    # ... or of any type.
                    st.tuples(_TEXTS, _NUMBERS, _TEXTS, _NUMBERS),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        max_size=6,
    )
)
def test_transcript_save_equals_transcript_line_per_entry(tmp_path_factory, runs) -> None:
    # Each line must be json.dumps of its row, whichever of save's paths
    # writes it: the inlined one, or transcript_line for a value that is not
    # a str, a plain int or a finite float.
    entries = []
    expected = ""
    for role, temperature, max_tokens, rows in runs:
        for prompt, index, text, latency in rows:
            entries.append((
                LlmRequest(role, prompt, temperature, max_tokens, index),
                LlmResponse(text, latency),
            ))
            row = {
                "digest": request_digest(role, prompt),
                "role_tag": role,
                "rendered_prompt": prompt,
                "temperature": temperature,
                "max_tokens": max_tokens,
                "request_index": index,
                "response_text": text,
                "latency_s": latency,
            }
            expected += json.dumps(row, sort_keys=True) + "\n"
    path = tmp_path_factory.mktemp("save") / "transcript.jsonl"
    Transcript(entries=entries).save(path)
    assert path.read_bytes() == expected.encode("utf-8")


def test_transcript_save_of_a_loaded_transcript_renders_each_shared_value_once(
    tmp_path, monkeypatch
) -> None:
    # Every line of a loaded transcript decodes to objects of its own, so the
    # shared fields are found by value: json.dumps renders each of role_tag,
    # temperature and max_tokens once per distinct triple, not once per entry.
    entries = []
    for temperature in (0.0, 0.7):
        for role in ("task_eval", "gradient_gen", "prompt_edit") * 20:
            i = len(entries)
            request = LlmRequest(role, f"prompt {i}", temperature, DEFAULT_MAX_TOKENS[role], i)
            entries.append((request, LlmResponse(f"answer {i}", 0.25)))
    recorded = tmp_path / "recorded.jsonl"
    Transcript(entries=entries).save(recorded)
    loaded = Transcript.load(recorded)
    triples = {(req.role_tag, req.temperature, req.max_tokens) for req, _ in loaded.entries}
    dumps = json.dumps
    rendered = []

    def counting_dumps(*args, **kwargs):
        rendered.append(args[0])
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    saved = tmp_path / "saved.jsonl"
    loaded.save(saved)
    monkeypatch.undo()
    assert saved.read_bytes() == recorded.read_bytes()
    assert len(triples) == 6
    assert len(rendered) <= 3 * len(triples)


def test_transcript_save_memory_stays_bounded(tmp_path) -> None:
    # Lines go to the file one at a time: a save that built the whole file
    # in memory would peak at about its size.
    entries = [
        (
            LlmRequest("task_eval", f"prompt {i}: " + "word " * 200, 0.0, 16, i),
            LlmResponse("positive", 0.0),
        )
        for i in range(4000)
    ]
    transcript = Transcript(entries=entries)
    path = tmp_path / "transcript.jsonl"
    tracemalloc.start()
    try:
        transcript.save(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written > 4000 * 1000
    assert peak < written / 100


def test_transcript_save_empty_writes_empty_file(tmp_path) -> None:
    path = tmp_path / "transcript.jsonl"
    Transcript(entries=[]).save(path)
    assert path.read_bytes() == b""
    assert Transcript.load(path).entries == []


def _saved_lines(tmp_path) -> list[str]:
    gw = echo_gateway()
    call(gw, "task_eval", "first")
    call(gw, "gradient_gen", "second\nline")
    path = tmp_path / "saved.jsonl"
    gw.transcript.save(path)
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "join",
    [
        lambda lines: "\n\n" + "\n  \n".join(lines) + "\n\n",  # blank lines
        lambda lines: "\r\n".join(lines) + "\r\n",  # CRLF line endings
        lambda lines: "\n".join(lines),  # no final newline
    ],
    ids=["blank-lines", "crlf", "no-final-newline"],
)
def test_transcript_load_tolerates_line_layout(tmp_path, join) -> None:
    path = tmp_path / "t.jsonl"
    path.write_bytes(join(_saved_lines(tmp_path)).encode("utf-8"))
    loaded = Transcript.load(path)
    assert [(r.role_tag, r.rendered_prompt, r.request_index) for r, _ in loaded.entries] == [
        ("task_eval", "first", 0),
        ("gradient_gen", "second\nline", 1),
    ]
    assert [resp.text for _, resp in loaded.entries] == ["echo:first", "echo:second\nline"]


def _load_line_by_line(path) -> list | str:
    """Per-line ``json.loads``: the entries, or the error message for the first bad line."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                entries.append(
                    (
                        LlmRequest(
                            row["role_tag"],
                            row["rendered_prompt"],
                            row["temperature"],
                            row["max_tokens"],
                            row["request_index"],
                        ),
                        LlmResponse(row["response_text"], row["latency_s"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                name = type(exc).__name__
                return f"{path}: line {lineno}: not a transcript entry ({name}: {exc})"
    return entries


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: "   " + line,
        lambda line: "\t" + line,
        lambda line: line + "   ",
        lambda line: line + " \t\r",
        lambda line: line + " x",
        lambda line: line + "\x0b",  # not JSON whitespace
        lambda line: "\ufeff" + line,
        lambda line: "42",
        lambda line: "null",
        lambda line: line + " " + line,
        lambda line: line + line,
    ],
    ids=[
        "leading-spaces", "leading-tab", "trailing-spaces", "trailing-whitespace",
        "trailing-garbage", "trailing-vertical-tab", "byte-order-mark", "bare-number",
        "null", "two-objects", "two-objects-touching",
    ],
)
def test_transcript_load_matches_json_loads_per_line(tmp_path, edit) -> None:
    first, second = _saved_lines(tmp_path)
    path = tmp_path / "t.jsonl"
    path.write_text(f"{first}\n{edit(second)}\n{first}\n", encoding="utf-8")
    expected = _load_line_by_line(path)
    if isinstance(expected, str):
        assert "line 2:" in expected
        with pytest.raises(TranscriptFormatError) as err:
            Transcript.load(path)
        assert str(err.value) == expected
    else:
        assert len(expected) == 3
        assert Transcript.load(path).entries == expected


def test_transcript_load_names_line_of_truncated_entry(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    first, second = _saved_lines(tmp_path)
    path.write_text(f"{first}\n\n{second[:-10]}", encoding="utf-8")
    with pytest.raises(TranscriptFormatError, match=r"t\.jsonl: line 3: .*JSONDecodeError"):
        Transcript.load(path)


def test_transcript_load_names_line_of_malformed_entry(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    first, second = _saved_lines(tmp_path)
    row = json.loads(second)
    del row["latency_s"]
    path.write_text(f"{first}\n{json.dumps(row)}\n", encoding="utf-8")
    with pytest.raises(TranscriptFormatError, match=r"line 2: .*KeyError: 'latency_s'"):
        Transcript.load(path)
    path.write_text(f"{first}\n[1, 2]\n", encoding="utf-8")
    with pytest.raises(TranscriptFormatError, match=r"line 2: .*TypeError"):
        Transcript.load(path)
    path.write_bytes(first.encode() + b"\n\xff\n")
    with pytest.raises(TranscriptFormatError, match=r"t\.jsonl: not UTF-8"):
        Transcript.load(path)


def test_transcript_load_refuses_a_missing_path_or_a_directory(tmp_path) -> None:
    with pytest.raises(TranscriptFormatError, match="^transcript not found: .*gone.jsonl$"):
        Transcript.load(tmp_path / "gone.jsonl")
    with pytest.raises(TranscriptFormatError, match="^transcript is a directory: "):
        Transcript.load(tmp_path)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("response_text", None),
        ("response_text", 5),
        ("latency_s", "x"),
        ("latency_s", None),
        ("latency_s", float("nan")),
        ("latency_s", float("inf")),
        ("latency_s", -1.0),
        ("latency_s", True),
        pytest.param("latency_s", 10**400, id="latency_s-int-too-large-for-a-float"),
        ("role_tag", {"a": 1}),
        ("rendered_prompt", [1]),
    ],
)
def test_transcript_load_names_line_of_unusable_field_type(tmp_path, field, value) -> None:
    path = tmp_path / "t.jsonl"
    first, second = _saved_lines(tmp_path)
    row = json.loads(second)
    row[field] = value
    path.write_text(f"{first}\n{json.dumps(row)}\n", encoding="utf-8")
    with pytest.raises(TranscriptFormatError, match=f"^{re.escape(str(path))}: line 2: "):
        Transcript.load(path)


def test_complete_stamps_index_and_keeps_request_fields() -> None:
    gw = echo_gateway(0.7)
    call(gw, "task_eval", "first")
    text = gw.complete(LlmRequest("prompt_edit", "edit me", 0.3, 77, request_index=99))
    assert text == "echo:edit me"
    req, _ = gw.transcript.entries[-1]
    assert req.request_index == 1
    # The temperature is the gateway's and the budget the role's, whatever
    # the request carried.
    assert (req.role_tag, req.rendered_prompt, req.temperature, req.max_tokens) == (
        "prompt_edit",
        "edit me",
        0.7,
        512,
    )
    assert req.digest == request_digest("prompt_edit", "edit me")


def test_request_digest_is_not_kept_on_the_request() -> None:
    req = LlmRequest("task_eval", "x", 0.0, 16, 0)
    assert req.digest == request_digest("task_eval", "x")
    # A named tuple has no instance dict, so nothing but the five fields can be kept.
    assert not hasattr(req, "__dict__")
    assert req._fields == (
        "role_tag", "rendered_prompt", "temperature", "max_tokens", "request_index"
    )
    assert tuple(req) == ("task_eval", "x", 0.0, 16, 0)


def test_complete_many_reserves_contiguous_indices_in_submission_order() -> None:
    gw = echo_gateway(0.5)
    call(gw, "task_eval", "a")
    first = gw.complete_many("task_eval", ["b", "c", "d"])
    call(gw, "gradient_gen", "e")
    second = gw.complete_many("prompt_edit", ["f", "g"])
    assert first + second == ["echo:b", "echo:c", "echo:d", "echo:f", "echo:g"]
    entries = gw.transcript.entries
    assert [req.rendered_prompt for req, _ in entries] == list("abcdefg")
    assert [req.request_index for req, _ in entries] == list(range(7))
    assert [(req.temperature, req.max_tokens) for req, _ in entries] == [(0.5, 16)] * 4 + [
        (0.5, 512)
    ] * 3
    assert gw.call_count() == 7


@given(
    role=st.sampled_from(ROLE_TAGS),
    prompts=st.lists(st.text(max_size=20), max_size=6),
    temperature=st.sampled_from([0.0, 0.7]),
    before=st.integers(min_value=0, max_value=2),
    as_eval=st.booleans(),
)
def test_complete_many_writes_the_bytes_of_one_call_per_prompt(
    role, prompts, temperature, before, as_eval
) -> None:
    def send(batched: bool):
        gw = echo_gateway(temperature)
        for i in range(before):
            call(gw, "task_eval", f"earlier {i}")
        with gw.count_as_eval() if as_eval else nullcontext():
            if batched:
                texts = gw.complete_many(role, prompts)
            else:
                texts = [call(gw, role, p) for p in prompts]
        lines = "".join(transcript_line(req, resp) + "\n" for req, resp in gw.transcript.entries)
        return texts, lines, gw.optimize_calls(), gw.eval_calls()

    assert send(batched=True) == send(batched=False)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_complete_many_failure_at_k_keeps_the_k_calls_before_it(k) -> None:
    def gateway() -> Gateway:
        script = {"task_eval": [f"answer {i}" for i in range(k)], "gradient_gen": ["later"]}
        return Gateway(ScriptedBackend(SequenceScript(script)))

    prompts = [f"p{i}" for i in range(5)]
    batched = gateway()
    with pytest.raises(ScriptExhaustedError) as err:
        batched.complete_many("task_eval", prompts)
    assert err.value.batch_position == k
    one_by_one = gateway()
    with pytest.raises(ScriptExhaustedError):
        for prompt in prompts:
            call(one_by_one, "task_eval", prompt)
    assert len(batched.transcript.entries) == k
    assert batched.transcript.entries == one_by_one.transcript.entries
    assert (batched.optimize_calls(), batched.eval_calls()) == (k, 0)
    assert (one_by_one.optimize_calls(), one_by_one.eval_calls()) == (k, 0)
    # The failed request's index and the rest of the batch's stay unused.
    call(batched, "gradient_gen", "next")
    assert batched.transcript.entries[-1][0].request_index == len(prompts)


def test_complete_many_inside_count_as_eval_counts_the_whole_batch() -> None:
    gw = echo_gateway()
    with gw.count_as_eval():
        gw.complete_many("task_eval", ["a", "b", "c"])
    gw.complete_many("task_eval", ["d"])
    assert (gw.eval_calls(), gw.optimize_calls()) == (3, 1)


def test_complete_many_rejects_unknown_role_before_reserving() -> None:
    gw = echo_gateway()
    with pytest.raises(ValueError, match="chitchat"):
        gw.complete_many("chitchat", ["x", "y"])
    call(gw, "task_eval", "z")
    assert gw.transcript.entries[0][0].request_index == 0
    assert gw.call_count() == 1


def test_complete_many_empty_batch_reserves_nothing() -> None:
    gw = echo_gateway()
    assert gw.complete_many("task_eval", []) == []
    assert gw.transcript.entries == []
    assert gw.call_count() == 0
    call(gw, "task_eval", "x")
    assert gw.transcript.entries[0][0].request_index == 0


def test_complete_many_replay_elapsed_adds_latencies_in_order() -> None:
    # 0.1 + (0.2 + 0.3) != (0.1 + 0.2) + 0.3 in binary floating point.
    recorded = Transcript(entries=[
        (LlmRequest("task_eval", prompt, 0.0, 16, index), LlmResponse("Yes", latency))
        for index, (prompt, latency) in enumerate(zip("abc", [0.1, 0.2, 0.3]))
    ])

    batched = Gateway(ReplayBackend(recorded))
    call(batched, "task_eval", "a")
    batched.complete_many("task_eval", ["b", "c"])
    one_by_one = Gateway(ReplayBackend(recorded))
    for prompt in "abc":
        call(one_by_one, "task_eval", prompt)
    assert batched.elapsed_seconds() == one_by_one.elapsed_seconds() == (0.1 + 0.2) + 0.3


class _Counting:
    """Echo backend that lists the prompts reaching it."""

    def __init__(self, fail_on: str | None = None):
        self.sent: list[str] = []
        self._fail_on = fail_on

    def complete(self, req, on_attempt):
        if req.rendered_prompt == self._fail_on:
            raise LiveCallError("injected")
        self.sent.append(req.rendered_prompt)
        on_attempt()
        return LlmResponse(f"echo:{req.rendered_prompt}", 0.0)


def test_memo_sends_a_repeat_across_batches_once() -> None:
    backend = _Counting()
    gw = Gateway(backend)
    first = gw.complete_many("task_eval", ["a", "b"])
    second = gw.complete_many("task_eval", ["b", "c", "a"])
    # A hit is the earlier answer itself, and is not sent.
    assert backend.sent == ["a", "b", "c"]
    assert second[0] is first[1] and second[2] is first[0]
    assert [req.rendered_prompt for req, _ in gw.transcript.entries] == ["a", "b", "c"]
    assert [req.request_index for req, _ in gw.transcript.entries] == [0, 1, 2]
    assert (gw.call_count(), gw.memo_hits(), gw.optimize_calls()) == (3, 2, 5)


def test_memo_sends_a_repeat_inside_one_batch_once() -> None:
    backend = _Counting()
    gw = Gateway(backend)
    texts = gw.complete_many("prompt_edit", ["x", "y", "x", "x", "z"])
    # The hits are not sent.
    assert backend.sent == ["x", "y", "z"]
    assert texts == ["echo:x", "echo:y", "echo:x", "echo:x", "echo:z"]
    assert [req.request_index for req, _ in gw.transcript.entries] == [0, 1, 2]
    # Only the three sent requests reserved an index.
    call(gw, "prompt_edit", "w")
    assert gw.transcript.entries[-1][0].request_index == 3
    assert (gw.call_count(), gw.memo_hits(), gw.optimize_calls()) == (4, 2, 6)


def test_memo_never_answers_above_temperature_zero() -> None:
    backend = _Counting()
    gw = Gateway(backend, temperature=0.7)
    gw.complete_many("task_eval", ["a", "a"])
    call(gw, "task_eval", "a")
    with gw.count_as_eval():
        gw.complete_many("task_eval", ["a", "b", "a"])
    # Every repeat is sent, within a batch and across batches and buckets.
    assert backend.sent == ["a", "a", "a", "a", "b", "a"]
    assert (gw.call_count(), gw.memo_hits(), len(gw.transcript.entries)) == (6, 0, 6)
    assert (gw.optimize_calls(), gw.eval_calls()) == (3, 3)
    assert [req.temperature for req, _ in gw.transcript.entries] == [0.7] * 6
    assert [req.request_index for req, _ in gw.transcript.entries] == list(range(6))


def test_memo_keys_on_role() -> None:
    backend = _Counting()
    gw = Gateway(backend)
    call(gw, "task_eval", "a")
    call(gw, "gradient_gen", "a")
    call(gw, "task_eval", "a")
    assert backend.sent == ["a", "a"]
    assert gw.memo_hits() == 1


def test_memo_hits_count_in_the_bucket_of_their_batch() -> None:
    gw = Gateway(_Counting())
    gw.complete_many("task_eval", ["a", "b"])
    with gw.count_as_eval():
        gw.complete_many("task_eval", ["a", "b", "c"])
    assert (gw.optimize_calls(), gw.eval_calls()) == (2, 3)
    assert (gw.call_count(), gw.memo_hits()) == (3, 2)


def test_memo_failure_after_hits_reports_first_position_and_keeps_counts() -> None:
    backend = _Counting(fail_on="bad")
    gw = Gateway(backend)
    call(gw, "task_eval", "a")
    with pytest.raises(LiveCallError) as err:
        gw.complete_many("task_eval", ["a", "b", "a", "bad", "c", "bad"])
    assert err.value.batch_position == 3
    # The hits before the failure (two of "a") stay counted; "b" was paid for.
    assert backend.sent == ["a", "b"]
    assert (gw.call_count(), gw.memo_hits(), gw.optimize_calls()) == (2, 2, 4)
    assert [req.rendered_prompt for req, _ in gw.transcript.entries] == ["a", "b"]
    # "bad" and "c" reserved indices 2 and 3, which stay unused.
    call(gw, "task_eval", "d")
    assert gw.transcript.entries[-1][0].request_index == 4


class _Retrying:
    """Makes three attempts per request, as a live backend retrying twice; stops on ``fail_on``."""

    def __init__(self, fail_on: str, error: type[BaseException]):
        self.attempts = 0
        self._fail_on = fail_on
        self._error = error

    def complete(self, req, on_attempt):
        for _ in range(3):
            on_attempt()
            self.attempts += 1
        if req.rendered_prompt == self._fail_on:
            raise self._error("injected")
        return LlmResponse(f"echo:{req.rendered_prompt}", 0.0)


@pytest.mark.parametrize("error", [LiveCallError, KeyboardInterrupt])
def test_batch_that_stops_counts_every_attempt_and_memo_hit(error) -> None:
    backend = _Retrying(fail_on="bad", error=error)
    gw = Gateway(backend)
    call(gw, "task_eval", "a")
    with gw.count_as_eval(), pytest.raises(error):
        gw.complete_many("task_eval", ["a", "b", "b", "bad", "c"])
    # The batch hit "a" and "b" in the memo and paid three attempts each for
    # "b" and for "bad", whose last attempt failed; "c" was never sent.
    assert backend.attempts == 9
    assert gw.call_count() == 9
    assert gw.memo_hits() == 2
    assert (gw.optimize_calls(), gw.eval_calls()) == (3, 8)
    assert [req.rendered_prompt for req, _ in gw.transcript.entries] == ["a", "b"]
    # The bucket is restored when the block ends, the interrupt notwithstanding.
    call(gw, "task_eval", "d")
    assert (gw.optimize_calls(), gw.eval_calls(), gw.call_count()) == (6, 8, 12)


def test_replay_serves_recorded_responses(tmp_path) -> None:
    gw = echo_gateway()
    call(gw, "task_eval", "first")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)

    replay = Gateway(ReplayBackend(Transcript.load(path)), temperature=0.7)
    # At temperature 0.7 both requests reach the backend; a repeated identical
    # request sticks to the recorded response.
    assert call(replay, "task_eval", "first") == "echo:first"
    assert call(replay, "task_eval", "first") == "echo:first"
    assert replay.call_count() == 2


def test_replay_miss_raises_without_counting(tmp_path) -> None:
    gw = echo_gateway()
    call(gw, "task_eval", "known")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)

    replay = Gateway(ReplayBackend(Transcript.load(path)))
    with pytest.raises(ReplayMissError):
        call(replay, "task_eval", "unknown")
    assert replay.call_count() == 0


def test_replay_ignores_index_temperature_and_max_tokens(tmp_path) -> None:
    # Recorded with a budget other than the role's, at indices the replay does
    # not reuse, so each request below differs from its entry in all three.
    budget = DEFAULT_MAX_TOKENS["task_eval"]
    assert budget != 3
    path = tmp_path / "t.jsonl"
    Transcript(entries=[
        (LlmRequest("task_eval", "zero", 0.0, 3, 5), LlmResponse("echo:zero", 0.0)),
        (LlmRequest("task_eval", "p", 0.0, 3, 6), LlmResponse("echo:p", 0.0)),
    ]).save(path)

    replay = Gateway(ReplayBackend(Transcript.load(path)), temperature=0.7)
    assert call(replay, "task_eval", "p") == "echo:p"
    assert call(replay, "task_eval", "zero") == "echo:zero"
    assert [req[2:] for req, _ in replay.transcript.entries] == [
        (0.7, budget, 0),
        (0.7, budget, 1),
    ]


def test_replay_consumes_repeats_in_order_then_sticks_to_last() -> None:
    answers = iter(["one", "two", "three"])
    gw = Gateway(ScriptedBackend(lambda req: next(answers)), temperature=0.7)
    for _ in range(3):
        call(gw, "task_eval", "same")
    replay = Gateway(ReplayBackend(gw.transcript), temperature=0.7)
    texts = [call(replay, "task_eval", "same") for _ in range(5)]
    assert texts == ["one", "two", "three", "three", "three"]
    assert replay.call_count() == 5


def test_replay_miss_names_digest_prefix_and_role() -> None:
    gw = echo_gateway()
    call(gw, "task_eval", "known")
    replay = Gateway(ReplayBackend(gw.transcript))
    prefix = request_digest("gradient_gen", "known")[:12]
    with pytest.raises(ReplayMissError, match=rf"gradient_gen request \(digest {prefix}\)$"):
        call(replay, "gradient_gen", "known")


def test_replay_lookup_ignores_issue_order(tmp_path) -> None:
    gw = echo_gateway()
    call(gw, "task_eval", "a")
    call(gw, "task_eval", "b")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)

    replay = Gateway(ReplayBackend(Transcript.load(path)))
    assert call(replay, "task_eval", "b") == "echo:b"
    assert call(replay, "task_eval", "a") == "echo:a"


class _Numbered:
    """Records a distinct answer, and a distinct latency, for every call."""

    def __init__(self):
        self.calls = 0

    def complete(self, req, on_attempt):
        self.calls += 1
        on_attempt()
        return LlmResponse(f"answer {self.calls}", self.calls / 8)


# One prompt text under two roles, and repeats: answered by the memo at
# temperature 0, sent again at 0.7.
_REPLAY_EXAMPLE = [
    ("task_eval", "alpha"),
    ("gradient_gen", "alpha"),
    ("task_eval", "alpha"),
    ("task_eval", "beta"),
    ("task_eval", "beta"),
    ("task_eval", "alpha"),
    ("paraphrase", "beta"),
]


@example(requests=_REPLAY_EXAMPLE, temperature=0.0, order=random.Random(0))
@example(requests=_REPLAY_EXAMPLE, temperature=0.7, order=random.Random(0))
@given(
    requests=st.lists(
        st.tuples(
            st.sampled_from(ROLE_TAGS),
            st.sampled_from(["alpha", "beta", "alpha\nbeta", "é"]),
        ),
        max_size=30,
    ),
    temperature=st.sampled_from([0.0, 0.7]),
    order=st.randoms(use_true_random=False),
)
def test_replay_table_serves_what_was_recorded(
    tmp_path_factory, requests, temperature, order
) -> None:
    def send(backend, sequence):
        gw = Gateway(backend, temperature)
        return gw, [call(gw, role, prompt) for role, prompt in sequence]

    recording, recorded_texts = send(_Numbered(), requests)
    path = tmp_path_factory.mktemp("replay") / "transcript.jsonl"
    recording.transcript.save(path)

    replay, texts = send(ReplayBackend(Transcript.load(path)), requests)
    assert texts == recorded_texts
    assert replay.call_count() == recording.call_count()
    replay_path = path.with_name("replayed.jsonl")
    replay.transcript.save(replay_path)
    assert replay_path.read_bytes() == path.read_bytes()

    # Only content recorded once is served the same answer whatever the
    # order: a repeat recorded at 0.7 is served its answers in turn.
    recorded = Counter(
        (req.role_tag, req.rendered_prompt) for req, _ in recording.transcript.entries
    )
    pairs = list(zip(requests, recorded_texts))
    order.shuffle(pairs)
    _, shuffled_texts = send(ReplayBackend(Transcript.load(path)), [r for r, _ in pairs])
    for (request, text), got in zip(pairs, shuffled_texts):
        if recorded[request] == 1:
            assert got == text


def test_replay_table_keys_are_the_run_prompt_strings(
    examples, split, cfg, seed_prompt, tmp_path
) -> None:
    gateway = scripted_gateway(examples, split.label_set)
    recorded = run(seed_prompt, split, cfg, gateway, tmp_path / "rec")
    backend = ReplayBackend(Transcript.load(Path(recorded.artifact_dir) / "transcript.jsonl"))
    replay = Gateway(backend)
    run(seed_prompt, split, cfg, replay, tmp_path / "rep")
    assert len(replay.transcript.entries) == len(gateway.transcript.entries)
    # Each role's keys as the table holds them, found through an equal string.
    keys = {role: {key: key for key in table} for role, table in backend._answers.items()}
    for req, _ in replay.transcript.entries:
        assert keys[req.role_tag][req.rendered_prompt] is req.rendered_prompt, req.request_index


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


def _live_gateway(transport, max_attempts=3, temperature=0.0):
    backend = LiveBackend(
        LiveConfig(base_url="https://llm.example/v1", model="test-model", api_key="k"),
        retry=RetryPolicy(base_delay_s=0.01, max_attempts=max_attempts),
        rng=random.Random(0),
        transport=transport,
        sleep=lambda s: None,
    )
    return Gateway(backend, temperature)


@pytest.mark.parametrize(
    "settings",
    [
        {"base_url": "", "model": "test-model"},
        {"base_url": "https://llm.example/v1", "model": ""},
        {"model": "test-model"},
        *(
            {"base_url": "https://llm.example/v1", "model": "m", "timeout_s": timeout_s}
            for timeout_s in (0, -1, math.nan, math.inf)
        ),
    ],
)
def test_live_config_refuses_a_bad_value_before_any_attempt(settings) -> None:
    attempts = []
    message = r"^\[gateway\] (base_url and model are required|timeout_s: expected a finite number > 0)"
    with pytest.raises(ConfigError, match=message):
        gw = Gateway(LiveBackend(LiveConfig(**settings), transport=attempts.append, sleep=attempts.append))
        call(gw, "task_eval", "the prompt")
    assert attempts == []


def _ok_body(text: str) -> str:
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_live_backend_builds_chat_payload() -> None:
    seen = {}

    def transport(url, headers, payload, timeout):
        seen.update(url=url, headers=headers, payload=payload)
        return 200, _ok_body("hello")

    gw = _live_gateway(transport)
    assert call(gw, "task_eval", "the prompt") == "hello"
    assert seen["url"].endswith("/chat/completions")
    assert seen["headers"]["Authorization"] == "Bearer k"
    assert seen["payload"]["messages"] == [{"role": "user", "content": "the prompt"}]
    assert seen["payload"]["temperature"] == 0.0
    # The temperature sent is the gateway's.
    call(_live_gateway(transport, temperature=0.7), "task_eval", "the prompt")
    assert seen["payload"]["temperature"] == 0.7


def test_live_backend_counts_every_attempt() -> None:
    calls = {"n": 0}

    def flaky(url, headers, payload, timeout):
        calls["n"] += 1
        if calls["n"] < 3:
            return 500, "boom"
        return 200, _ok_body("ok")

    gw = _live_gateway(flaky, max_attempts=5)
    assert call(gw, "task_eval", "p") == "ok"
    assert gw.call_count() == 3  # two failed attempts also reached the wire


def test_live_backend_gives_up_after_bounded_retries() -> None:
    gw = _live_gateway(lambda *a: (503, "down"), max_attempts=2)
    with pytest.raises(LiveCallError, match="gave up"):
        call(gw, "task_eval", "p")
    assert gw.call_count() == 3  # max_attempts retries + the initial attempt


def test_live_backend_client_error_is_fatal() -> None:
    attempts = {"n": 0}

    def bad_request(url, headers, payload, timeout):
        attempts["n"] += 1
        return 400, "bad request"

    gw = _live_gateway(bad_request, max_attempts=5)
    with pytest.raises(LiveCallError, match="HTTP 400"):
        call(gw, "task_eval", "p")
    assert attempts["n"] == 1


def test_live_backend_retries_null_content() -> None:
    bodies = iter([json.dumps({"choices": [{"message": {"content": None}}]}), _ok_body("Yes")])
    gw = _live_gateway(lambda *a: (200, next(bodies)), max_attempts=3)
    assert call(gw, "task_eval", "p") == "Yes"
    assert gw.call_count() == 2  # the null answer reached the wire too


def test_live_backend_gives_up_on_missing_content() -> None:
    gw = _live_gateway(lambda *a: (200, json.dumps({"choices": [{"message": {}}]})),
                       max_attempts=2)
    with pytest.raises(LiveCallError, match="content missing"):
        call(gw, "task_eval", "p")
    assert gw.call_count() == 3


def test_replay_elapsed_uses_recorded_latencies(tmp_path) -> None:
    # Record, then patch the stored latency and check replay sums it.
    gw = echo_gateway()
    call(gw, "task_eval", "p")
    path = tmp_path / "t.jsonl"
    gw.transcript.save(path)
    row = json.loads(path.read_text().strip())
    row["latency_s"] = 1.5
    path.write_text(json.dumps(row) + "\n")

    replay = Gateway(ReplayBackend(Transcript.load(path)))
    call(replay, "task_eval", "p")
    assert replay.elapsed_seconds() == 1.5


def test_scripted_digest_map_backend() -> None:
    # A responder keyed by content digest: the classic canned-answer script.
    canned = {request_digest("task_eval", "is water wet?"): "Yes"}

    def by_digest(req):
        return canned[request_digest(req.role_tag, req.rendered_prompt)]

    gw = Gateway(ScriptedBackend(by_digest))
    assert call(gw, "task_eval", "is water wet?") == "Yes"
    assert gw.call_count() == 1


class _StubChatServer:
    """Local OpenAI-compatible endpoint; can answer the first N requests with ``fail_status``."""

    def __init__(self, fail_first: int = 0, fail_status: int = 503, fail_body: bytes = b""):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        state = {"remaining_failures": fail_first, "requests": 0, "user_agents": []}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                state["requests"] += 1
                state["user_agents"].append(self.headers["User-Agent"])
                if state["remaining_failures"] > 0:
                    state["remaining_failures"] -= 1
                    self.send_response(fail_status)
                    self.send_header("Content-Length", str(len(fail_body)))
                    self.end_headers()
                    self.wfile.write(fail_body)
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
        self._server.server_close()


def test_live_backend_roundtrip_against_local_server(monkeypatch) -> None:
    # The default transport needs nothing outside the standard library.
    monkeypatch.setitem(sys.modules, "requests", None)
    server = _StubChatServer()
    try:
        gw = Gateway(
            LiveBackend(LiveConfig(base_url=server.base_url, model="stub", api_key="k"))
        )
        assert call(gw, "task_eval", "is this true") == "Yes"
        _, resp = gw.transcript.entries[0]
        assert resp.latency_s > 0
        assert gw.call_count() == 1
        assert server.state["user_agents"] == ["promptopt"]
    finally:
        server.close()


@pytest.mark.parametrize(
    "status, body, message",
    [
        (400, b'{"error": "no such model"}', 'HTTP 400: {"error": "no such model"}'),
        # A byte that is not UTF-8 is decoded as a replacement character, not a transport error.
        (200, b"\xff", "malformed completion body"),
    ],
)
def test_live_backend_final_answer_from_local_server_is_fatal(status, body, message) -> None:
    server = _StubChatServer(fail_first=1, fail_status=status, fail_body=body)
    try:
        gw = Gateway(LiveBackend(LiveConfig(base_url=server.base_url, model="stub")))
        with pytest.raises(LiveCallError, match=re.escape(message)):
            call(gw, "task_eval", "is this true")
        assert server.state["requests"] == gw.call_count() == 1
    finally:
        server.close()


def test_live_backend_retries_a_refused_connection_then_gives_up() -> None:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # Nothing listens on the port now, so every attempt fails in the transport.
    backend = LiveBackend(
        LiveConfig(base_url=f"http://127.0.0.1:{port}/v1", model="stub"),
        retry=RetryPolicy(base_delay_s=0.001, max_attempts=2),
        rng=random.Random(0),
    )
    gw = Gateway(backend)
    with pytest.raises(LiveCallError, match=r"gave up after 3 attempts \(last: transport error: "):
        call(gw, "task_eval", "is this true")
    assert gw.call_count() == 3


def test_live_backend_retries_through_transient_errors() -> None:
    server = _StubChatServer(fail_first=2)
    try:
        backend = LiveBackend(
            LiveConfig(base_url=server.base_url, model="stub", api_key="k"),
            retry=RetryPolicy(base_delay_s=0.001, max_attempts=5),
            rng=random.Random(0),
        )
        gw = Gateway(backend)
        assert call(gw, "task_eval", "is this true") == "Yes"
        assert gw.call_count() == 3  # two 503s + the success all reached the wire
        assert server.state["requests"] == 3
    finally:
        server.close()
