"""A fixed table of broken and odd inputs, each run through ``cli.main``.

Every case starts from a copy of the demo inputs (``demo.ini``, ``demo.tsv``, a
JSONL copy of it, a template directory, or a transcript recorded from the
demo) and changes one thing. Each must end in a documented way: exit 0, or a
refusal with exit 2 (``config error:``) or 3 (``dataset error:``) that prints
one stderr line, raises no traceback and leaves no artifact directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from promptopt.cli import EXIT_CONFIG, EXIT_DATASET, EXIT_OK, main
from promptopt.gradients import TAU_BODY

DATA = Path(__file__).parent / "data"
DEMO_INI = (DATA / "demo.ini").read_text(encoding="utf-8")
DEMO_TSV = (DATA / "demo.tsv").read_text(encoding="utf-8")
SEED_PROMPT = "Decide whether the statement happened. Answer Yes or No."
PREFIX = {EXIT_CONFIG: "config error: ", EXIT_DATASET: "dataset error: "}


def _jsonl(tsv: str) -> str:
    rows = (line.split("\t") for line in tsv.splitlines())
    return "".join(json.dumps({"text": text, "label": label}) + "\n" for text, label in rows)


def _replace(old: str, new: str) -> Callable[[str], str]:
    def edit(text: str) -> str:
        assert old in text, old
        return text.replace(old, new, 1)

    return edit


def _first_line(field: str, value) -> Callable[[str], str]:
    """Set one field of a transcript's first line."""

    def edit(text: str) -> str:
        first, rest = text.split("\n", 1)
        row = json.loads(first)
        row[field] = value
        return json.dumps(row, sort_keys=True) + "\n" + rest

    return edit


class Case(NamedTuple):
    code: int
    ini: Callable[[str], str] | None = None
    tsv: Callable[[str], str] | bytes | None = None
    jsonl: Callable[[str], str] | None = None
    templates: dict[str, str | bytes] | None = None
    transcript: Callable[[str], str] | None = None
    command: str = "optimize"
    # Extra arguments; "{dir}" stands for the case's directory.
    flags: tuple[str, ...] = ()
    # Text the one stderr line of a refusal must hold.
    says: str = ""


CASES = {
    # The config file.
    "ini-no-dataset-section": Case(
        EXIT_CONFIG, ini=lambda t: t.split("[dataset]")[0], says="no [dataset] section"
    ),
    "ini-empty-dataset-path": Case(
        EXIT_CONFIG, ini=_replace("path = {tsv}", "path ="), says="[dataset] path is empty"
    ),
    "ini-seed-prompt-and-file": Case(
        EXIT_CONFIG,
        ini=_replace("[run]\n", "[run]\nseed_prompt_file = {tsv}\n"),
        says="both seed_prompt and seed_prompt_file",
    ),
    "ini-no-seed-prompt": Case(
        EXIT_CONFIG, ini=_replace(f"seed_prompt = {SEED_PROMPT}\n", ""), says="seed_prompt"
    ),
    "ini-empty-seed-prompt": Case(EXIT_CONFIG, ini=_replace(SEED_PROMPT, "")),
    "ini-unknown-section": Case(
        EXIT_CONFIG, ini=_replace("[bandit]", "[bandits]"), says="[bandits]"
    ),
    "ini-default-section": Case(EXIT_CONFIG, ini=lambda t: "[DEFAULT]\nbeam_width = 2\n" + t),
    "ini-unknown-key": Case(
        EXIT_CONFIG, ini=_replace("beam_width", "beam_widht"), says="beam_widht"
    ),
    "ini-duplicate-key": Case(EXIT_CONFIG, ini=_replace("[run]\n", "[run]\nbeam_width = 3\n")),
    "ini-zero-beam-width": Case(EXIT_CONFIG, ini=_replace("beam_width = 2", "beam_width = 0")),
    "ini-word-for-number": Case(EXIT_CONFIG, ini=_replace("beam_width = 2", "beam_width = two")),
    "ini-zero-time-steps": Case(EXIT_CONFIG, ini=_replace("time_steps = 8", "time_steps = 0")),
    "ini-nan-exploration": Case(
        EXIT_CONFIG, ini=_replace("[bandit]\n", "[bandit]\nexploration = nan\n")
    ),
    "ini-unknown-format": Case(EXIT_CONFIG, ini=_replace("format = tsv", "format = csv")),
    "ini-unknown-task-type": Case(
        EXIT_CONFIG, ini=_replace("task_type = classification", "task_type = regression")
    ),
    "ini-unknown-backend": Case(EXIT_CONFIG, ini=lambda t: t + "\n[gateway]\nbackend = nope\n"),
    "ini-zero-timeout": Case(EXIT_CONFIG, ini=lambda t: t + "\n[gateway]\ntimeout_s = 0\n"),
    "ini-not-utf8": Case(EXIT_CONFIG, ini=_replace("Answer Yes", "Answer \udce9 Yes")),
    "ini-missing-dataset-file": Case(
        EXIT_DATASET, ini=_replace("path = {tsv}", "path = {tsv}.gone")
    ),
    "ini-positive-label-outside-labels": Case(
        EXIT_DATASET, ini=_replace("positive_label = Yes", "positive_label = Maybe")
    ),
    # Odd values that are still valid, and run to the end.
    "ini-byte-order-mark": Case(EXIT_OK, ini=lambda t: "\ufeff" + t),
    "ini-label-set-of-commas": Case(EXIT_OK, ini=lambda t: t + "label_set = ,\n"),
    "ini-negative-rng-seed": Case(EXIT_OK, ini=_replace("rng_seed = 11", "rng_seed = -5")),
    "ini-oversized-minibatch": Case(
        EXIT_OK, ini=_replace("minibatch_size = 8", "minibatch_size = 500")
    ),
    "ini-oversized-correct-examples": Case(
        EXIT_OK, ini=_replace("num_correct_examples = 2", "num_correct_examples = 50")
    ),
    "ini-bad-backend-overridden-by-flag": Case(
        EXIT_OK, ini=lambda t: t + "\n[gateway]\nbackend = nope\n", flags=("--backend", "scripted")
    ),
    # The TSV dataset.
    "tsv-crlf": Case(EXIT_OK, tsv=lambda t: t.replace("\n", "\r\n")),
    "tsv-row-without-tab": Case(EXIT_DATASET, tsv=lambda t: "no tab here\n" + t, says=":1:"),
    "tsv-empty": Case(EXIT_DATASET, tsv=lambda t: ""),
    "tsv-not-utf8": Case(
        EXIT_DATASET, tsv=DEMO_TSV.encode("utf-8") + b"caf\xe9\tYes\n", says="not UTF-8"
    ),
    # The JSONL copy.
    "jsonl-copy": Case(EXIT_OK, jsonl=lambda t: t),
    "jsonl-invalid-json": Case(
        EXIT_DATASET, jsonl=lambda t: t + "{not json\n", says="invalid JSON"
    ),
    "jsonl-missing-label": Case(EXIT_DATASET, jsonl=lambda t: t + '{"text": "a"}\n'),
    "jsonl-object-text": Case(
        EXIT_DATASET, jsonl=lambda t: t + '{"text": {"a": 1}, "label": "Yes"}\n'
    ),
    "jsonl-bool-label": Case(EXIT_DATASET, jsonl=lambda t: t + '{"text": "a", "label": true}\n'),
    "jsonl-byte-order-mark": Case(EXIT_OK, jsonl=lambda t: "\ufeff" + t),
    # The template directory.
    "templates-default-body": Case(EXIT_OK, templates={"tau.txt": TAU_BODY}),
    "templates-unknown-slot": Case(EXIT_CONFIG, templates={"alpha.txt": "For a {taks_type} task"}),
    "templates-unknown-file-name": Case(EXIT_CONFIG, templates={"alpah.txt": "{prompt}"}),
    "templates-not-utf8": Case(EXIT_CONFIG, templates={"tau.txt": b"caf\xe9 {prompt}"}),
    "templates-missing-directory": Case(
        EXIT_CONFIG, flags=("--templates", "{dir}/gone"), says="template directory not found"
    ),
    # The recorded transcript, replayed.
    "transcript-as-recorded": Case(EXIT_OK, transcript=lambda t: t),
    "transcript-cut-last-line": Case(
        EXIT_CONFIG, transcript=lambda t: t[:-40], says="not a transcript entry"
    ),
    "transcript-null-response-text": Case(
        EXIT_CONFIG, transcript=_first_line("response_text", None), says="line 1: "
    ),
    "transcript-number-response-text": Case(
        EXIT_CONFIG, transcript=_first_line("response_text", 5), says="line 1: "
    ),
    "transcript-string-latency": Case(
        EXIT_CONFIG, transcript=_first_line("latency_s", "x"), says="line 1: "
    ),
    "transcript-nan-latency": Case(
        EXIT_CONFIG, transcript=_first_line("latency_s", float("nan")), says="line 1: "
    ),
    "transcript-negative-latency": Case(
        EXIT_CONFIG, transcript=_first_line("latency_s", -1.0), says="line 1: "
    ),
    "transcript-bool-latency": Case(
        EXIT_CONFIG, transcript=_first_line("latency_s", True), says="line 1: "
    ),
    "transcript-huge-int-latency": Case(
        EXIT_CONFIG, transcript=_first_line("latency_s", 10**400), says="line 1: "
    ),
    "transcript-object-role-tag": Case(
        EXIT_CONFIG, transcript=_first_line("role_tag", {"a": 1}), says="line 1: "
    ),
    "transcript-array-rendered-prompt": Case(
        EXIT_CONFIG, transcript=_first_line("rendered_prompt", [1]), says="line 1: "
    ),
    "evaluate-transcript-as-recorded": Case(EXIT_OK, transcript=lambda t: t, command="evaluate"),
    "evaluate-transcript-null-response-text": Case(
        EXIT_CONFIG,
        transcript=_first_line("response_text", None),
        command="evaluate",
        says="line 1: ",
    ),
}


@pytest.fixture(scope="module")
def recording(tmp_path_factory) -> str:
    """The transcript of the unchanged demo, recorded with the scripted backend."""
    directory = tmp_path_factory.mktemp("recording")
    out = directory / "rec"
    argv = _argv(Case(EXIT_OK), directory, "")
    assert main([*argv, "--backend", "scripted", "--out", str(out)]) == EXIT_OK
    return (out / "transcript.jsonl").read_text(encoding="utf-8")


def _argv(case: Case, directory: Path, recording: str) -> list[str]:
    """Write the case's inputs under ``directory``; the command line that runs them."""
    tsv = directory / "demo.tsv"
    data, data_format = tsv, "tsv"
    if case.jsonl is not None:
        data, data_format = directory / "demo.jsonl", "jsonl"
        data.write_text(case.jsonl(_jsonl(DEMO_TSV)), encoding="utf-8")
    if isinstance(case.tsv, bytes):
        tsv.write_bytes(case.tsv)
    else:
        tsv.write_text(case.tsv(DEMO_TSV) if case.tsv else DEMO_TSV, encoding="utf-8", newline="")
    ini = DEMO_INI.replace("tests/data/demo.tsv", "{tsv}")
    ini = case.ini(ini) if case.ini else ini
    ini = ini.replace("{tsv}", str(data)).replace("format = tsv", f"format = {data_format}")
    config = directory / "run.ini"
    # A lone surrogate stands for a byte that is not UTF-8.
    config.write_bytes(ini.encode("utf-8", "surrogateescape"))

    argv = [case.command, "--config", str(config), *(f.format(dir=directory) for f in case.flags)]
    if case.command == "evaluate":
        prompt = directory / "prompt.txt"
        prompt.write_text(SEED_PROMPT, encoding="utf-8")
        argv += ["--prompt-file", str(prompt)]
    if case.templates is not None:
        templates = directory / "templates"
        templates.mkdir()
        for name, body in case.templates.items():
            if isinstance(body, bytes):
                (templates / name).write_bytes(body)
            else:
                (templates / name).write_text(body, encoding="utf-8")
        argv += ["--templates", str(templates)]
    if case.transcript is not None:
        transcript = directory / "transcript.jsonl"
        transcript.write_text(case.transcript(recording), encoding="utf-8")
        argv += ["--backend", "replay", "--transcript", str(transcript)]
    return argv


@pytest.mark.parametrize("name", list(CASES))
def test_input_ends_in_a_documented_way(name, recording, tmp_path, capsys) -> None:
    case = CASES[name]
    assert case.code in (EXIT_OK, EXIT_CONFIG, EXIT_DATASET)
    argv = _argv(case, tmp_path, recording)
    out = tmp_path / "out"
    if case.command == "optimize":
        argv += ["--out", str(out)]
    capsys.readouterr()
    # An exception that main does not turn into an exit code fails the test here.
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == case.code, err
    if code != EXIT_OK:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(PREFIX[code]), err
        assert case.says in lines[0]
        assert not out.exists()
