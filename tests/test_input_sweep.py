"""Broken and odd inputs, each run through ``cli.main``: a fixed table, then drawn dataset rows.

The table is the one home of the CLI inputs that are refused. Every case
starts from a copy of the demo inputs (``demo.ini``, ``demo.tsv``, a JSONL copy
of it, a template directory, or a transcript recorded from the demo) and
changes one thing, or gives ``--out`` a directory that already holds
something. Each must end in a documented way: exit 0, or a refusal with exit
2 (``config error:``) or 3 (``dataset error:``) that prints one stderr line
holding the case's message, raises no traceback, sends no request and leaves
``--out`` as it was, no directory if there was none; ``evaluate`` on a
replayed transcript that lacks the prompt's answers ends the same way with
exit 4 (``gateway error:``).
Hypothesis then draws demo datasets with a few rows mutated, template
directories, and recorded transcripts with a few lines changed, and holds each
to the same rule; a replayed transcript that lacks an answer the run asks for
may also end the run incomplete, with exit 5 (``incomplete run:``).
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from promptopt import Gateway
from promptopt.cli import EXIT_CONFIG, EXIT_DATASET, EXIT_GATEWAY, EXIT_INCOMPLETE, EXIT_OK, main
from promptopt.gradients import _SLOT_RE, TAU_BODY, TemplateSet

DATA = Path(__file__).parent / "data"
DEMO_INI = (DATA / "demo.ini").read_text(encoding="utf-8")
DEMO_TSV = (DATA / "demo.tsv").read_text(encoding="utf-8")
SEED_PROMPT = "Decide whether the statement happened. Answer Yes or No."
PREFIX = {
    EXIT_CONFIG: "config error: ",
    EXIT_DATASET: "dataset error: ",
    EXIT_GATEWAY: "gateway error: ",
    EXIT_INCOMPLETE: "incomplete run: ",
}


def _jsonl(tsv: str) -> str:
    rows = (line.split("\t") for line in tsv.splitlines())
    return "".join(json.dumps({"text": text, "label": label}) + "\n" for text, label in rows)


def _replace(old: str, new: str) -> Callable[[str], str]:
    def edit(text: str) -> str:
        assert old in text, old
        return text.replace(old, new, 1)

    return edit


def _in(section: str, line: str) -> Callable[[str], str]:
    """Put ``line`` first in the config's ``[section]``."""
    return _replace(f"[{section}]\n", f"[{section}]\n{line}\n")


def _gateway(line: str) -> Callable[[str], str]:
    """Add a ``[gateway]`` section that holds ``line``."""
    return lambda text: f"{text}\n[gateway]\n{line}\n"


def _first_line(field: str, value) -> Callable[[str], str]:
    """Set one field of a transcript's first line."""

    def edit(text: str) -> str:
        first, rest = text.split("\n", 1)
        row = json.loads(first)
        row[field] = value
        return json.dumps(row, sort_keys=True) + "\n" + rest

    return edit


def _without_prompt(prompt: str) -> Callable[[str], str]:
    """Drop every transcript line whose request was sent with ``prompt``."""

    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        sent = f"{prompt}\n"
        kept = [line for line in lines if not json.loads(line)["rendered_prompt"].startswith(sent)]
        assert len(kept) < len(lines)
        return "".join(kept)

    return edit


def _math_rows(*labels) -> Callable[[str], str]:
    """The JSONL copy as a math task, its labels 1 and 0, then one row per label (line 81 on)."""

    def edit(text: str) -> str:
        text = text.replace('"label": "Yes"', '"label": "1"').replace('"label": "No"', '"label": "0"')
        rows = (json.dumps({"text": f"row {i}", "label": label}) for i, label in enumerate(labels))
        return text + "".join(row + "\n" for row in rows)

    return edit


def _recorded_out(out: Path, recording: str) -> None:
    """Make ``--out`` hold the demo recording as its ``transcript.jsonl``."""
    out.mkdir()
    (out / "transcript.jsonl").write_text(recording, encoding="utf-8")


def _transcript_directory_out(out: Path, recording: str) -> None:
    """Make ``--out`` hold a complete run's ``run_meta.json`` and a directory named ``transcript.jsonl``."""
    (out / "transcript.jsonl").mkdir(parents=True)
    (out / "run_meta.json").write_text('{"status": "complete"}\n', encoding="utf-8")


def _tree(path: Path) -> dict[str, bytes | None] | None:
    """Each file under ``path`` by its relative name, with its bytes (None for a directory).

    None when ``path`` does not exist.
    """
    if not path.exists():
        return None
    return {
        str(item.relative_to(path)): None if item.is_dir() else item.read_bytes()
        for item in sorted(path.rglob("*"))
    }


def _all_yes(tsv: str) -> str:
    """Every row of the TSV dataset labelled ``Yes``."""
    assert "\tNo\n" in tsv
    return tsv.replace("\tNo\n", "\tYes\n")


_MATH = _replace("task_type = classification", "task_type = math")
_BAD_ENTRY = (
    "{dir}/transcript.jsonl: line 1: role_tag, rendered_prompt and response_text must be strings, "
    "latency_s and temperature finite numbers >= 0, and max_tokens and request_index integers"
)


class Case(NamedTuple):
    code: int
    ini: Callable[[str], str] | None = None
    tsv: Callable[[str], str] | bytes | None = None
    jsonl: Callable[[str], str] | None = None
    # A template body of None stands for a directory of that name.
    templates: dict[str, str | bytes | None] | None = None
    transcript: Callable[[str], str] | None = None
    command: str = "optimize"
    # Extra arguments; "{dir}" here and in says stands for the case's directory.
    flags: tuple[str, ...] = ()
    # Text the one stderr line of a refusal must hold; every refusal names it.
    # "{lines}" here stands for the number of lines in the demo recording.
    says: str = ""
    # Fills the --out directory, {dir}/out, from the demo recording before the run.
    out: Callable[[Path, str], None] | None = None


CASES = {
    # The config file.
    "ini-missing": Case(
        EXIT_CONFIG, flags=("--config", "{dir}/gone.ini"), says="config file not found: {dir}/gone.ini"
    ),
    "ini-no-section-header": Case(
        EXIT_CONFIG,
        ini=_replace("[run]\n", ""),
        says=(
            "malformed config file {dir}/run.ini: File contains no section headers. "
            "file: '{dir}/run.ini', line: 3 'seed_prompt = "
        ),
    ),
    "ini-line-without-value": Case(
        EXIT_CONFIG,
        ini=_in("run", "beam_width"),
        says="malformed config file {dir}/run.ini: Source contains parsing errors: '{dir}/run.ini' [line  4]",
    ),
    "ini-duplicate-key": Case(
        EXIT_CONFIG,
        ini=_in("run", "beam_width = 3"),
        says=(
            "malformed config file {dir}/run.ini: While reading from '{dir}/run.ini' [line  6]: "
            "option 'beam_width' in section 'run' already exists"
        ),
    ),
    "ini-not-utf8": Case(
        EXIT_CONFIG,
        ini=_replace("Answer Yes", "Answer \udce9 Yes"),
        says="{dir}/run.ini:4: not UTF-8 text (byte 0xe9)",
    ),
    "ini-no-dataset-section": Case(
        EXIT_CONFIG, ini=lambda t: t.split("[dataset]")[0], says="config file has no [dataset] section"
    ),
    "ini-no-dataset-path": Case(
        EXIT_CONFIG, ini=_replace("path = {tsv}\n", ""), says="[dataset] missing key 'path'"
    ),
    "ini-empty-dataset-path": Case(
        EXIT_CONFIG, ini=_replace("path = {tsv}", "path ="), says="[dataset] path is empty"
    ),
    "ini-seed-prompt-and-file": Case(
        EXIT_CONFIG,
        ini=_in("run", "seed_prompt_file = {tsv}"),
        says="[run] sets both seed_prompt and seed_prompt_file; keep one",
    ),
    "ini-no-seed-prompt": Case(
        EXIT_CONFIG,
        ini=_replace(f"seed_prompt = {SEED_PROMPT}\n", ""),
        says="config needs [run] seed_prompt or seed_prompt_file",
    ),
    "ini-empty-seed-prompt": Case(
        EXIT_CONFIG, ini=_replace(SEED_PROMPT, ""), says="prompt text is empty after trimming"
    ),
    "ini-unknown-section": Case(
        EXIT_CONFIG,
        ini=_replace("[bandit]", "[bandits]"),
        says="unknown section [bandits]; expected one of run, bandit, dataset, gateway",
    ),
    # Section names are case-sensitive.
    "ini-capitalised-section": Case(
        EXIT_CONFIG, ini=_replace("[bandit]", "[Bandit]"), says="unknown section [Bandit]; "
    ),
    # [DEFAULT] is not merged into the other sections: empty or not, it is an unknown section.
    "ini-default-section": Case(
        EXIT_CONFIG, ini=lambda t: "[DEFAULT]\nbeam_width = 2\n" + t, says="unknown section [DEFAULT]; "
    ),
    "ini-empty-default-section": Case(
        EXIT_CONFIG, ini=lambda t: "[DEFAULT]\n" + t, says="unknown section [DEFAULT]; "
    ),
    "ini-unknown-key": Case(
        EXIT_CONFIG, ini=_replace("beam_width", "beam_widht"), says="[run] unknown key 'beam_widht'"
    ),
    # A misspelt key, then run switches that were removed (the protegi preset
    # now sets what baseline_mode did).
    **{
        f"ini-unknown-key-{key}": Case(
            EXIT_CONFIG, ini=_in(section, f"{key} = {value}"), says=f"[{section}] unknown key {key!r}"
        )
        for section, key, value in [
            ("run", "beem_width", "4"),
            ("run", "history_mode", "concat"),
            ("run", "full_beam_test_eval", "true"),
            ("run", "include_parents", "false"),
            ("bandit", "update_rule", "mean"),
            ("run", "baseline_mode", "true"),
            ("dataset", "formt", "tsv"),
        ]
    },
    # The API key is read from the environment only.
    "ini-api-key": Case(
        EXIT_CONFIG, ini=_gateway("api_key = secret"), says="[gateway] unknown key 'api_key'"
    ),
    "ini-zero-beam-width": Case(
        EXIT_CONFIG,
        ini=_replace("beam_width = 2", "beam_width = 0"),
        says="beam_width must be a positive integer",
    ),
    "ini-word-for-number": Case(
        EXIT_CONFIG,
        ini=_replace("beam_width = 2", "beam_width = two"),
        says="[run] beam_width: invalid literal for int() with base 10: 'two'",
    ),
    "ini-word-for-target": Case(
        EXIT_CONFIG,
        ini=_in("run", "convergence_target = high"),
        says="[run] convergence_target: could not convert string to float: 'high'",
    ),
    "ini-word-for-boolean": Case(
        EXIT_CONFIG,
        ini=_in("run", "emit_predictions = maybe"),
        says="[run] emit_predictions: expected a boolean, got 'maybe'",
    ),
    "ini-negative-paraphrases": Case(
        EXIT_CONFIG,
        ini=_in("run", "paraphrases_per_parent = -1"),
        says="paraphrases_per_parent must be >= 0",
    ),
    "ini-zero-time-steps": Case(
        EXIT_CONFIG,
        ini=_replace("time_steps = 8", "time_steps = 0"),
        says="bandit.time_steps must be a positive integer",
    ),
    "ini-word-for-exploration": Case(
        EXIT_CONFIG,
        ini=_in("bandit", "exploration = lots"),
        says="[bandit] exploration: could not convert string to float: 'lots'",
    ),
    "ini-nan-exploration": Case(
        EXIT_CONFIG,
        ini=_in("bandit", "exploration = nan"),
        says="bandit.exploration must be a finite number >= 0",
    ),
    # A typo in a dataset value is a config error, not a dataset error.
    "ini-unknown-format": Case(
        EXIT_CONFIG,
        ini=_replace("format = tsv", "format = csv"),
        says="[dataset] format: expected one of ('tsv', 'jsonl'), got 'csv'",
    ),
    "ini-unknown-task-type": Case(
        EXIT_CONFIG,
        ini=_replace("task_type = classification", "task_type = regression"),
        says="[dataset] task_type: expected one of ('classification', 'math'), got 'regression'",
    ),
    "ini-unknown-backend": Case(EXIT_CONFIG, ini=_gateway("backend = nope"), says="unknown backend 'nope'"),
    # A timeout the HTTP client would refuse on every attempt, whichever backend runs.
    **{
        name: Case(EXIT_CONFIG, ini=_gateway(f"timeout_s = {value}"), says=f"[gateway] timeout_s: {says}")
        for name, value, says in [
            ("ini-word-for-timeout", "soon", "could not convert string to float: 'soon'"),
            ("ini-zero-timeout", "0", "expected a finite number > 0, got 0.0"),
            ("ini-negative-timeout", "-1", "expected a finite number > 0, got -1.0"),
            ("ini-nan-timeout", "nan", "expected a finite number > 0, got nan"),
            ("ini-infinite-timeout", "inf", "expected a finite number > 0, got inf"),
        ]
    },
    "ini-missing-dataset-file": Case(
        EXIT_DATASET,
        ini=_replace("path = {tsv}", "path = {tsv}.gone"),
        says="dataset file not found: {dir}/demo.tsv.gone",
    ),
    "ini-positive-label-outside-labels": Case(
        EXIT_DATASET,
        ini=_replace("positive_label = Yes", "positive_label = Maybe"),
        says="positive_label 'Maybe' is not one of the labels No, Yes",
    ),
    "evaluate-positive-label-outside-labels": Case(
        EXIT_DATASET,
        ini=_replace("positive_label = Yes", "positive_label = Maybe"),
        command="evaluate",
        says="positive_label 'Maybe' is not one of the labels No, Yes",
    ),
    "ini-label-outside-label-set": Case(
        EXIT_DATASET, ini=lambda t: t + "label_set = Yes\n", says="label 'No' is not one of the labels Yes"
    ),
    # With one label, the responder's wrong answer is the gold, and every answer scores correct.
    "ini-one-label-set-over-one-label": Case(
        EXIT_DATASET,
        ini=lambda t: t + "label_set = Yes\n",
        tsv=_all_yes,
        says="a classification task needs two labels that differ beyond case, not only Yes",
    ),
    "tsv-one-label": Case(
        EXIT_DATASET,
        tsv=_all_yes,
        says="a classification task needs two labels that differ beyond case, not only Yes",
    ),
    # Odd values that are still valid, and run to the end.
    "ini-byte-order-mark": Case(EXIT_OK, ini=lambda t: "\ufeff" + t),
    # Values are literal: "%" is text, not interpolation syntax.
    "ini-percent-in-value": Case(EXIT_OK, ini=_replace(SEED_PROMPT, "Be 100% sure. Answer Yes or No.")),
    "ini-label-set-of-commas": Case(EXIT_OK, ini=lambda t: t + "label_set = ,\n"),
    "ini-negative-rng-seed": Case(EXIT_OK, ini=_replace("rng_seed = 11", "rng_seed = -5")),
    "ini-oversized-minibatch": Case(
        EXIT_OK, ini=_replace("minibatch_size = 8", "minibatch_size = 500")
    ),
    "ini-oversized-correct-examples": Case(
        EXIT_OK, ini=_replace("num_correct_examples = 2", "num_correct_examples = 50")
    ),
    "ini-bad-backend-overridden-by-flag": Case(
        EXIT_OK, ini=_gateway("backend = nope"), flags=("--backend", "scripted")
    ),
    # The backend flags.
    "replay-without-transcript": Case(
        EXIT_CONFIG, flags=("--backend", "replay"), says="replay backend needs --transcript PATH"
    ),
    # The run removes <out>/transcript.jsonl before its first request.
    "replay-own-transcript": Case(
        EXIT_CONFIG,
        flags=("--backend", "replay", "--transcript", "{dir}/out/../out/transcript.jsonl"),
        out=_recorded_out,
        says=(
            "replay transcript {dir}/out/../out/transcript.jsonl "
            "is the run's own {dir}/out/transcript.jsonl, which the run replaces"
        ),
    ),
    "ini-replay-own-transcript": Case(
        EXIT_CONFIG,
        ini=_gateway("backend = replay\ntranscript = {dir}/out/transcript.jsonl"),
        out=_recorded_out,
        says="replay transcript {dir}/out/transcript.jsonl is the run's own {dir}/out/transcript.jsonl",
    ),
    "out-transcript-is-a-directory": Case(
        EXIT_CONFIG,
        out=_transcript_directory_out,
        says="cannot remove artifact file {dir}/out/transcript.jsonl: Is a directory",
    ),
    "live-without-endpoint": Case(
        EXIT_CONFIG,
        flags=("--backend", "live"),
        says="[gateway] base_url and model are required for the live backend",
    ),
    # The TSV dataset.
    "tsv-crlf": Case(EXIT_OK, tsv=lambda t: t.replace("\n", "\r\n")),
    "tsv-row-without-tab": Case(
        EXIT_DATASET, tsv=lambda t: "no tab here\n" + t, says="{dir}/demo.tsv:1: expected 'input<TAB>label'"
    ),
    "tsv-blank-label": Case(
        EXIT_DATASET, tsv=lambda t: "an input\t \n" + t, says="{dir}/demo.tsv:1: empty input or label"
    ),
    "tsv-empty": Case(EXIT_DATASET, tsv=lambda t: "", says="{dir}/demo.tsv: no examples"),
    "tsv-not-utf8": Case(
        EXIT_DATASET,
        tsv=DEMO_TSV.encode("utf-8") + b"caf\xe9\tYes\n",
        says="{dir}/demo.tsv:81: not UTF-8 text (byte 0xe9)",
    ),
    # The JSONL copy.
    "jsonl-copy": Case(EXIT_OK, jsonl=lambda t: t),
    "jsonl-invalid-json": Case(
        EXIT_DATASET, jsonl=lambda t: t + "{not json\n", says="{dir}/demo.jsonl:81: invalid JSON"
    ),
    "jsonl-missing-label": Case(
        EXIT_DATASET,
        jsonl=lambda t: t + '{"text": "a"}\n',
        says="{dir}/demo.jsonl:81: missing 'text'/'label' (or 'question'/'answer') keys",
    ),
    "jsonl-object-text": Case(
        EXIT_DATASET,
        jsonl=lambda t: t + '{"text": {"a": 1}, "label": "Yes"}\n',
        says="{dir}/demo.jsonl:81: expected a string or finite number, got {'a': 1}",
    ),
    "jsonl-bool-label": Case(
        EXIT_DATASET,
        jsonl=lambda t: t + '{"text": "a", "label": true}\n',
        says="{dir}/demo.jsonl:81: expected a string or finite number, got True",
    ),
    "jsonl-byte-order-mark": Case(EXIT_OK, jsonl=lambda t: "\ufeff" + t),
    # A math label means a number: one number as a whole, or the number after a final "####".
    "jsonl-math-label-forms": Case(
        EXIT_OK,
        ini=_MATH,
        jsonl=_math_rows("+5", "05", ".5", "1,234", 7, "#### 72", "48 + 24 = <<48+24=72>>72.\n#### 72"),
    ),
    **{
        f"jsonl-math-label-{name}": Case(
            EXIT_DATASET,
            ini=_MATH,
            jsonl=_math_rows(label),
            says=f"{{dir}}/demo.jsonl:81: expected a number or a '#### <number>' math label, got {label!r}",
        )
        for name, label in [
            ("word", "seventy-two"),
            ("marker-without-number", "#### none"),
            ("number-and-word", "72 apples"),
        ]
    },
    # The template directory.
    "templates-default-body": Case(EXIT_OK, templates={"tau.txt": TAU_BODY}),
    "templates-unknown-slot": Case(
        EXIT_CONFIG,
        templates={"alpha.txt": "For a {taks_type} task"},
        says="template file {dir}/templates/alpha.txt: unknown slots ['taks_type']; alpha takes [",
    ),
    "templates-unknown-file-name": Case(
        EXIT_CONFIG,
        templates={"alpah.txt": "{prompt}"},
        says="template file {dir}/templates/alpah.txt names no template; expected one of tau.txt, ",
    ),
    "templates-not-utf8": Case(
        EXIT_CONFIG,
        templates={"paraphrase.txt": b"Reword caf\xe9: {prompt}"},
        says="{dir}/templates/paraphrase.txt:1: not UTF-8 text (byte 0xe9)",
    ),
    "templates-directory-for-a-file": Case(
        EXIT_CONFIG, templates={"tau.txt": None}, says="template file is a directory: {dir}/templates/tau.txt"
    ),
    "templates-missing-directory": Case(
        EXIT_CONFIG, flags=("--templates", "{dir}/gone"), says="template directory not found: {dir}/gone"
    ),
    # The recorded transcript, replayed.
    "transcript-as-recorded": Case(EXIT_OK, transcript=lambda t: t),
    # What a writer killed mid-line leaves behind: the recording's last line, cut.
    "transcript-cut-last-line": Case(
        EXIT_CONFIG,
        transcript=lambda t: t[:-40],
        says="{dir}/transcript.jsonl: line {lines}: not a transcript entry",
    ),
    "transcript-not-utf8": Case(
        EXIT_CONFIG,
        transcript=_replace("\n", "\n\udce9"),
        says="{dir}/transcript.jsonl:2: not UTF-8 text (byte 0xe9)",
    ),
    **{
        f"transcript-{name}": Case(EXIT_CONFIG, transcript=_first_line(field, value), says=_BAD_ENTRY)
        for name, field, value in [
            ("null-response-text", "response_text", None),
            ("number-response-text", "response_text", 5),
            ("string-latency", "latency_s", "x"),
            ("nan-latency", "latency_s", float("nan")),
            ("negative-latency", "latency_s", -1.0),
            ("bool-latency", "latency_s", True),
            ("string-temperature", "temperature", "hot"),
            ("array-max-tokens", "max_tokens", [1]),
            ("null-request-index", "request_index", None),
            ("object-role-tag", "role_tag", {"a": 1}),
            ("array-rendered-prompt", "rendered_prompt", [1]),
        ]
    },
    "transcript-huge-int-latency": Case(
        EXIT_CONFIG, transcript=_first_line("latency_s", 10**400),
        says="{dir}/transcript.jsonl: line 1: not a transcript entry (OverflowError: ",
    ),
    "evaluate-transcript-as-recorded": Case(EXIT_OK, transcript=lambda t: t, command="evaluate"),
    "evaluate-transcript-without-the-prompt": Case(
        EXIT_GATEWAY,
        transcript=_without_prompt(SEED_PROMPT),
        command="evaluate",
        says="no recorded response for task_eval request",
    ),
    "evaluate-transcript-null-response-text": Case(
        EXIT_CONFIG,
        transcript=_first_line("response_text", None),
        command="evaluate",
        says=_BAD_ENTRY,
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
    ini = ini.replace("{tsv}", str(data)).replace("{dir}", str(directory))
    ini = ini.replace("format = tsv", f"format = {data_format}")
    config = directory / "run.ini"
    # A lone surrogate stands for a byte that is not UTF-8.
    config.write_bytes(ini.encode("utf-8", "surrogateescape"))

    argv = [case.command, "--config", str(config), *(f.replace("{dir}", str(directory)) for f in case.flags)]
    if case.command == "evaluate":
        prompt = directory / "prompt.txt"
        prompt.write_text(SEED_PROMPT, encoding="utf-8")
        argv += ["--prompt-file", str(prompt)]
    if case.templates is not None:
        templates = directory / "templates"
        templates.mkdir()
        for name, body in case.templates.items():
            if body is None:
                (templates / name).mkdir()
            elif isinstance(body, bytes):
                (templates / name).write_bytes(body)
            else:
                (templates / name).write_text(body, encoding="utf-8")
        argv += ["--templates", str(templates)]
    if case.transcript is not None:
        transcript = directory / "transcript.jsonl"
        transcript.write_bytes(case.transcript(recording).encode("utf-8", "surrogateescape"))
        argv += ["--backend", "replay", "--transcript", str(transcript)]
    return argv


@pytest.mark.parametrize("name", list(CASES))
def test_input_ends_in_a_documented_way(name, recording, tmp_path, monkeypatch, capsys) -> None:
    case = CASES[name]
    assert case.code in (EXIT_OK, EXIT_CONFIG, EXIT_DATASET, EXIT_GATEWAY)
    assert case.code == EXIT_OK or case.says, "a refusal row names its message"
    argv = _argv(case, tmp_path, recording)
    out = tmp_path / "out"
    if case.out is not None:
        case.out(out, recording)
    held = _tree(out)
    if case.command == "optimize":
        argv += ["--out", str(out)]
    if case.code in (EXIT_CONFIG, EXIT_DATASET):
        # A refused input costs no request.
        def no_request(self, role_tag, prompts, **kwargs):
            raise AssertionError(f"a {role_tag} request was sent")

        monkeypatch.setattr(Gateway, "complete_many", no_request)
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
        says = case.says.replace("{dir}", str(tmp_path)).replace("{lines}", str(recording.count("\n")))
        assert says in lines[0]
        assert _tree(out) == held


# Dataset fields: labels of each task, the math label forms, and text that
# may hold a tab, a newline or any other character.
_FIELDS = st.one_of(
    st.sampled_from(["", " ", "Yes", "no", "1", "+5", "05", ".5", "1,234", "#### 72"]),
    st.sampled_from(["seventy-two", "#### none", "72 apples", "NaN", "true", "\u2028", "caf\u00e9"]),
    st.text(max_size=6),
)
# JSON values: scalars, NaN and infinities, bools, nulls and nested arrays and objects.
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _FIELDS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.sampled_from(["text", "label"]), inner, max_size=2)
    ),
    max_leaves=4,
)
_ROWS = {
    # One field is a row without a tab; three are a row with an extra one.
    "tsv": st.lists(_FIELDS, min_size=1, max_size=3).map("\t".join),
    "jsonl": st.one_of(
        st.fixed_dictionaries(
            {}, optional={key: _VALUES for key in ("text", "label", "question", "answer")}
        ),
        _VALUES,
    ).map(json.dumps),
}
# Bytes put into a row: none half the time, else bytes that are not UTF-8.
_BYTES = st.one_of(st.just(b""), st.sampled_from([b"\xe9", b"\xff", b"\x80abc", b"\xed\xa0\x80"]))
# Rows that load: odd input text, and labels in the forms each task reads. A
# lone surrogate has no UTF-8 form; _BYTES writes its bytes.
_INPUTS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1, max_size=6
).filter(str.strip)
_LABELS = {
    "classification": st.sampled_from(["Yes", "No", "yes", "Maybe"]),
    "math": st.sampled_from(["+5", "05", ".5", "-0", "1,234", "#### 72", "so 4 + 4 = 8\n#### 8"]),
}


def _row(data_format: str, text, label) -> str:
    return f"{text}\t{label}" if data_format == "tsv" else json.dumps({"text": text, "label": label})


@st.composite
def _mutated_dataset(draw) -> tuple[str, str, bytes]:
    """(format, task_type, file bytes): the demo's rows with one to three rows replaced or added.

    Each new row is, as a coin falls, one that loads or one drawn from any fields and bytes.
    """
    data_format = draw(st.sampled_from(["tsv", "jsonl"]))
    task_type = draw(st.sampled_from(["classification", "math"]))
    rows = []
    for line in DEMO_TSV.splitlines():
        text, label = line.split("\t")
        if task_type == "math":
            label = "1" if label == "Yes" else "0"
        rows.append(_row(data_format, text, label).encode("utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            label = draw(_LABELS[task_type])
            # A TSV field holds no newline; the GSM8K-form label is for JSONL.
            row = _row(data_format, draw(_INPUTS), label.replace("\n", " ")).encode("utf-8")
        else:
            row = draw(_ROWS[data_format]).encode("utf-8")
            cut = draw(st.integers(0, len(row)))
            row = row[:cut] + draw(_BYTES) + row[cut:]
        at = draw(st.integers(0, len(rows)))
        rows[at : at + draw(st.integers(0, 1))] = [row]
    return data_format, task_type, b"\n".join(rows) + b"\n"


def _run_drawn(directory: Path, argv: list[str]) -> tuple[int, str, Path]:
    """``main(argv)`` with ``--out directory/out``: the exit code, stderr and the out path."""
    out = directory / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    event(f"exit {code}")
    return code, err.getvalue(), out


def _check_ending(code: int, err: str, out: Path) -> None:
    """No traceback; a refusal prints one line with its exit code's prefix."""
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert len(err.splitlines()) == 1 and err.startswith(PREFIX[code]), err
        # Only an incomplete run leaves its partial artifact.
        assert out.exists() == (code == EXIT_INCOMPLETE)


@settings(max_examples=50, deadline=None)
@given(dataset=_mutated_dataset())
def test_mutated_dataset_rows_end_in_a_documented_way(tmp_path_factory, dataset) -> None:
    data_format, task_type, data = dataset
    directory = tmp_path_factory.mktemp("rows")
    path = directory / f"demo.{data_format}"
    path.write_bytes(data)
    ini = DEMO_INI.replace("tests/data/demo.tsv", str(path)).replace("format = tsv", f"format = {data_format}")
    ini = ini.replace("task_type = classification", f"task_type = {task_type}")
    # One round keeps each drawn run short.
    (directory / "run.ini").write_text(ini.replace("search_depth = 2", "search_depth = 1"), encoding="utf-8")
    argv = ["optimize", "--config", str(directory / "run.ini"), "--backend", "scripted"]
    code, err, out = _run_drawn(directory, argv)
    # Only the dataset differs from the demo, so a refusal is a dataset error.
    assert code in (EXIT_OK, EXIT_DATASET), err
    _check_ending(code, err, out)


_TEMPLATE_NAMES = [f"{name}.txt" for name in TemplateSet._fields]
_SLOTS = sorted({slot for body in TemplateSet() for slot in _SLOT_RE.findall(body)})
# Pieces of a template body: its slots, a misspelled one, braces, delimiters and text.
_BODY_PIECES = st.one_of(
    st.sampled_from([f"{{{slot}}}" for slot in _SLOTS] + ["{taks_type}", "{", "}", "{{prompt}}", "{Prompt}"]),
    st.sampled_from(["<START>", "<END>", "\n", '"', "give 2 reasons", TAU_BODY]),
    st.text(max_size=6),
)
_TEMPLATE_FILES = st.dictionaries(
    st.sampled_from([*_TEMPLATE_NAMES, "alpah.txt", "TAU.txt", "notes.md"]),
    # None stands for a directory of that name; a body may end in bytes that are not UTF-8.
    st.one_of(
        st.none(),
        st.tuples(st.lists(_BODY_PIECES, max_size=5).map("".join), _BYTES).map(
            lambda body: body[0].encode("utf-8") + body[1]
        ),
    ),
    max_size=3,
)


@settings(max_examples=50, deadline=None)
@given(files=_TEMPLATE_FILES)
def test_drawn_template_files_end_in_a_documented_way(tmp_path_factory, files) -> None:
    directory = tmp_path_factory.mktemp("templates")
    templates = directory / "templates"
    templates.mkdir()
    for name, body in files.items():
        if body is None:
            (templates / name).mkdir()
        else:
            (templates / name).write_bytes(body)
    ini = DEMO_INI.replace("tests/data/demo.tsv", str(DATA / "demo.tsv"))
    (directory / "run.ini").write_text(ini.replace("search_depth = 2", "search_depth = 1"), encoding="utf-8")
    argv = ["optimize", "--config", str(directory / "run.ini"), "--backend", "scripted"]
    code, err, out = _run_drawn(directory, [*argv, "--templates", str(templates)])
    # A template is checked when it is loaded, before the run starts.
    assert code in (EXIT_OK, EXIT_CONFIG), err
    _check_ending(code, err, out)


_TRANSCRIPT_FIELDS = ("latency_s", "max_tokens", "rendered_prompt", "request_index",
                      "response_text", "role_tag", "temperature")


def _drawn_line(draw, recorded: bytes) -> bytes | None:
    """A line in place of ``recorded``, or None to delete it.

    As a coin falls: the recorded line with one field set to a drawn value or
    removed, the line cut and bytes put in, or a drawn row or JSON value.
    """
    kind = draw(st.sampled_from(["field", "drop-field", "bytes", "row", "delete"]))
    row = json.loads(recorded)
    if kind == "field":
        row[draw(st.sampled_from(_TRANSCRIPT_FIELDS))] = draw(_VALUES)
    elif kind == "drop-field":
        del row[draw(st.sampled_from(_TRANSCRIPT_FIELDS))]
    elif kind == "bytes":
        cut = draw(st.integers(0, len(recorded)))
        return recorded[:cut] + draw(_BYTES) + draw(_FIELDS).encode("utf-8")
    elif kind == "row":
        return draw(_ROWS["jsonl"]).encode("utf-8")
    else:
        return None
    return json.dumps(row, sort_keys=True).encode("utf-8")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_drawn_transcript_lines_end_in_a_documented_way(tmp_path_factory, recording, data) -> None:
    # One to three recorded lines, each replaced by a drawn line or followed by one.
    lines = [line.encode("utf-8") for line in recording.splitlines()]
    positions = st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3, unique=True)
    for at in sorted(data.draw(positions, label="lines"), reverse=True):
        line = _drawn_line(data.draw, lines[at])
        new = [] if line is None else [line]
        lines[at : at + 1] = [lines[at], *new] if data.draw(st.booleans(), label="insert") else new
    directory = tmp_path_factory.mktemp("transcript")
    transcript = directory / "transcript.jsonl"
    transcript.write_bytes(b"\n".join(lines) + b"\n")
    ini = DEMO_INI.replace("tests/data/demo.tsv", str(DATA / "demo.tsv"))
    (directory / "run.ini").write_text(ini, encoding="utf-8")
    argv = ["optimize", "--config", str(directory / "run.ini"), "--backend", "replay"]
    code, err, out = _run_drawn(directory, [*argv, "--transcript", str(transcript)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INCOMPLETE), err
    _check_ending(code, err, out)
