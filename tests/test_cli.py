from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import promptopt
from promptopt import DatasetSpec, Gateway, Transcript, load, make_split, search
from promptopt.cli import (
    EXIT_CONFIG,
    EXIT_DATASET,
    EXIT_INCOMPLETE,
    EXIT_OK,
    build_run_config,
    main,
    read_config_file,
)
from promptopt.model import BanditConfig, ConfigError, RunConfig

DATA = Path(__file__).parent / "data" / "demo.tsv"

CONFIG_BODY = f"""
[run]
seed_prompt = Decide whether the statement happened. Answer Yes or No.
beam_width = 2
search_depth = 2
minibatch_size = 8
candidates_per_parent = 4
num_gradients = 2
num_correct_examples = 2
test_set_size = 16
rng_seed = 11

[bandit]
time_steps = 8
sample_size = 4

[dataset]
path = {DATA}
format = tsv
task_type = classification
positive_label = Yes
"""


@pytest.fixture
def config_file(tmp_path) -> Path:
    file = tmp_path / "run.ini"
    file.write_text(CONFIG_BODY, encoding="utf-8")
    return file


def test_read_config_file_sections(config_file) -> None:
    run_overrides, bandit_overrides, dataset, gateway_section, extra = read_config_file(config_file)
    assert run_overrides["beam_width"] == 2
    assert bandit_overrides == {"time_steps": 8, "sample_size": 4}
    assert dataset.positive_label == "Yes"
    assert extra["seed_prompt"].startswith("Decide whether")
    assert gateway_section == {}


def test_read_config_file_rejects_unknown_key(tmp_path, capsys) -> None:
    # A typo, then the run switches that were removed: history_mode,
    # full_beam_test_eval, include_parents, bandit.update_rule and
    # baseline_mode (now the protegi preset's settings).
    unknown = [
        ("run", "beem_width", "4"),
        ("run", "history_mode", "concat"),
        ("run", "full_beam_test_eval", "true"),
        ("run", "include_parents", "false"),
        ("bandit", "update_rule", "mean"),
        ("run", "baseline_mode", "true"),
    ]
    for section, key, value in unknown:
        file = tmp_path / f"{key}.ini"
        body = CONFIG_BODY.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        file.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            read_config_file(file)
        code = main(["optimize", "--config", str(file), "--backend", "scripted",
                     "--out", str(tmp_path / key)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"[{section}] unknown key {key!r}" in err


def _optimize_config_error(file: Path, tmp_path, capsys) -> str:
    """Run ``optimize`` on ``file``; assert exit code 2 and return the error line."""
    code = main(["optimize", "--config", str(file), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    return err


def test_read_config_file_rejects_unknown_section(tmp_path, capsys) -> None:
    # Section names are case-sensitive: [Bandit] is not [bandit].
    file = tmp_path / "section.ini"
    file.write_text(CONFIG_BODY.replace("[bandit]", "[Bandit]"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown section \[Bandit\]"):
        read_config_file(file)
    assert "unknown section [Bandit]" in _optimize_config_error(file, tmp_path, capsys)


@pytest.mark.parametrize("body", ["", "time_steps = 8\nsample_size = 4\n"], ids=["empty", "keys"])
def test_read_config_file_rejects_default_section(body, tmp_path, capsys) -> None:
    # [DEFAULT] is not merged into the other sections: empty or not, it is
    # an unknown section, named as such.
    file = tmp_path / "default.ini"
    bandit = "[bandit]\ntime_steps = 8\nsample_size = 4\n"
    file.write_text(CONFIG_BODY.replace(bandit, f"[DEFAULT]\n{body}"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        read_config_file(file)
    assert "config error: unknown section [DEFAULT]" in _optimize_config_error(file, tmp_path, capsys)


def test_read_config_file_rejects_unknown_dataset_key(tmp_path, capsys) -> None:
    file = tmp_path / "dataset.ini"
    file.write_text(CONFIG_BODY.replace("format = tsv", "formt = tsv"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[dataset\] unknown key 'formt'"):
        read_config_file(file)
    assert "[dataset] unknown key 'formt'" in _optimize_config_error(file, tmp_path, capsys)


@pytest.mark.parametrize(("key", "value"), [("format", "csv"), ("task_type", "regression")])
def test_read_config_file_rejects_unknown_dataset_value(key, value, tmp_path, capsys) -> None:
    # A typo in a dataset value is a config error (2), not a dataset error (3).
    file = tmp_path / "dataset.ini"
    body = CONFIG_BODY.replace("format = tsv\ntask_type = classification\n", "")
    file.write_text(f"{body}{key} = {value}\n", encoding="utf-8")
    message = rf"\[dataset\] {key}: expected one of .*, got '{value}'"
    with pytest.raises(ConfigError, match=message):
        read_config_file(file)
    assert f"[dataset] {key}: expected one of" in _optimize_config_error(file, tmp_path, capsys)


def test_read_config_file_rejects_unknown_gateway_key(tmp_path, capsys) -> None:
    # The API key is read from the environment only.
    file = tmp_path / "gateway.ini"
    file.write_text(CONFIG_BODY + "\n[gateway]\napi_key = secret\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[gateway\] unknown key 'api_key'"):
        read_config_file(file)
    assert "[gateway] unknown key 'api_key'" in _optimize_config_error(file, tmp_path, capsys)


def test_read_config_file_rejects_non_numeric_timeout(tmp_path, capsys) -> None:
    file = tmp_path / "timeout.ini"
    gateway = (
        "\n[gateway]\nbackend = live\nbase_url = http://127.0.0.1:9/v1\n"
        "model = m\ntimeout_s = soon\n"
    )
    file.write_text(CONFIG_BODY + gateway, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[gateway\] timeout_s"):
        read_config_file(file)
    assert "[gateway] timeout_s" in _optimize_config_error(file, tmp_path, capsys)
    # Values the HTTP client would refuse on every attempt.
    for value in ("0", "-1", "nan", "inf"):
        file.write_text(CONFIG_BODY + gateway.replace("soon", value), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[gateway\] timeout_s: expected a finite"):
            read_config_file(file)
    file.write_text(CONFIG_BODY + gateway.replace("soon", "2.5"), encoding="utf-8")
    assert read_config_file(file)[3]["timeout_s"] == 2.5


PERCENT_PROMPT = "Be 100% sure. Answer Yes or No."


MALFORMED_INI = {
    "no_section_header": CONFIG_BODY.replace("[run]\n", "").encode(),
    "repeated_key": CONFIG_BODY.replace("beam_width = 2\n", "beam_width = 2\nbeam_width = 3\n").encode(),
    "not_utf8": CONFIG_BODY.encode().replace(b"Answer Yes", b"Answer \xff Yes"),
    "percent_in_value": CONFIG_BODY.replace(
        "Decide whether the statement happened. Answer Yes or No.", PERCENT_PROMPT
    ).encode(),
}


@pytest.mark.parametrize("case", list(MALFORMED_INI))
def test_optimize_malformed_ini_is_config_error_and_values_are_literal(
    case, tmp_path, capsys
) -> None:
    file = tmp_path / f"{case}.ini"
    file.write_bytes(MALFORMED_INI[case])
    out = tmp_path / "out"
    code = main(["optimize", "--config", str(file), "--backend", "scripted", "--out", str(out)])
    err = capsys.readouterr().err
    if case == "percent_in_value":
        assert code == EXIT_OK, err
        assert json.loads((out / "config.json").read_text())["seed_prompt"] == PERCENT_PROMPT
    elif case == "not_utf8":
        # Named with its line, as a byte that is not UTF-8 is in every input file.
        assert code == EXIT_CONFIG
        assert err == f"config error: {file}:3: not UTF-8 text (byte 0xff)\n"
    else:
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: malformed config file {file}: ")


def test_seed_prompt_file_with_a_byte_order_mark_gives_a_clean_seed_prompt(tmp_path) -> None:
    seed = "Decide whether the statement happened. Answer Yes or No."
    prompt = tmp_path / "seed.txt"
    prompt.write_bytes(b"\xef\xbb\xbf" + seed.encode("utf-8") + b"\n")
    config = tmp_path / "run.ini"
    body = CONFIG_BODY.replace(f"seed_prompt = {seed}", f"seed_prompt_file = {prompt}")
    config.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["optimize", "--config", str(config), "--backend", "scripted", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads((out / "config.json").read_text(encoding="utf-8"))["seed_prompt"] == seed
    # The transcript writes U+FEFF as the escape \ufeff.
    assert "\\ufeff" not in (out / "transcript.jsonl").read_text(encoding="utf-8")


def test_read_config_file_accepts_a_byte_order_mark(config_file, tmp_path) -> None:
    file = tmp_path / "bom.ini"
    file.write_bytes(b"\xef\xbb\xbf" + CONFIG_BODY.lstrip().encode())
    assert read_config_file(file) == read_config_file(config_file)
    assert main(["optimize", "--config", str(file), "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("command", ["optimize", "evaluate"])
def test_positive_label_outside_the_labels_is_dataset_error_before_any_request(
    command, tmp_path, monkeypatch, capsys
) -> None:
    def no_request(self, role_tag, prompts, **kwargs):
        raise AssertionError(f"a {role_tag} request was sent")

    monkeypatch.setattr(Gateway, "complete_many", no_request)
    config = tmp_path / "run.ini"
    body = CONFIG_BODY.replace("positive_label = Yes", "positive_label = Maybe")
    config.write_text(body, encoding="utf-8")
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("Answer Yes or No.", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "optimize": ["optimize", "--out", str(out)],
        "evaluate": ["evaluate", "--prompt-file", str(prompt)],
    }[command]
    assert main([*argv, "--config", str(config), "--backend", "scripted"]) == EXIT_DATASET
    err = capsys.readouterr().err
    assert err == "dataset error: positive_label 'Maybe' is not one of the labels No, Yes\n"
    assert not out.exists()


def test_optimize_happy_path(config_file, tmp_path, capsys) -> None:
    out = tmp_path / "artifact"
    code = main(
        ["optimize", "--config", str(config_file), "--backend", "scripted", "--out", str(out)]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "best prompt" in printed
    assert (out / "events.jsonl").exists()
    config_echo = json.loads((out / "config.json").read_text())
    assert config_echo["beam_width"] == 2
    assert config_echo["rng_seed"] == 11


def test_optimize_mode_protegi_presets(config_file, tmp_path) -> None:
    out = tmp_path / "baseline"
    code = main(
        [
            "optimize",
            "--config",
            str(config_file),
            "--mode",
            "protegi",
            "--backend",
            "scripted",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    config_echo = json.loads((out / "config.json").read_text())
    assert config_echo["paraphrases_per_parent"] == 2
    assert config_echo["momentum_enabled"] is False
    assert config_echo["gradient_mode"] == "negative_only"
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["method"] == "protegi"


def test_optimize_gradient_mode_flag_overrides(config_file, tmp_path) -> None:
    out = tmp_path / "both"
    code = main(
        [
            "optimize",
            "--config",
            str(config_file),
            "--mode",
            "mapo",
            "--gradient-mode",
            "both",
            "--backend",
            "scripted",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    config_echo = json.loads((out / "config.json").read_text())
    assert config_echo["gradient_mode"] == "both"
    polarities = {
        json.loads(line)["polarity"] for line in (out / "gradients.jsonl").read_text().splitlines()
    }
    assert polarities == {"positive", "negative"}


def test_optimize_momentum_flag(config_file, tmp_path) -> None:
    out = tmp_path / "nomom"
    code = main(
        [
            "optimize",
            "--config",
            str(config_file),
            "--momentum",
            "off",
            "--backend",
            "scripted",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert json.loads((out / "config.json").read_text())["momentum_enabled"] is False


def test_optimize_missing_config_is_config_error(tmp_path) -> None:
    assert main(["optimize", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_optimize_bad_dataset_path_is_dataset_error(tmp_path) -> None:
    file = tmp_path / "run.ini"
    file.write_text(
        CONFIG_BODY.replace(str(DATA), str(tmp_path / "missing.tsv")), encoding="utf-8"
    )
    assert main(["optimize", "--config", str(file)]) == EXIT_DATASET


# Each case points one path the CLI reads at a directory, or --out at a file:
# (argv, the config text it replaces, exit code). The test's own config file
# and artifact directory fill in --config and --out where argv has none.
WRONG_KIND_PATHS = {
    "optimize_transcript": (
        ["optimize", "--backend", "replay", "--transcript", "{dir}"], None, EXIT_CONFIG
    ),
    "evaluate_transcript": (
        ["evaluate", "--prompt-file", "{file}", "--backend", "replay", "--transcript", "{dir}"],
        None,
        EXIT_CONFIG,
    ),
    "seed_prompt_file": (
        ["optimize"], ("seed_prompt = Decide", "seed_prompt_file = {dir}\n; Decide"), EXIT_CONFIG
    ),
    "prompt_file": (["evaluate", "--prompt-file", "{dir}"], None, EXIT_CONFIG),
    "dataset_path": (["optimize"], (str(DATA), "{dir}"), EXIT_DATASET),
    "out": (["optimize", "--out", "{file}"], None, EXIT_CONFIG),
    "config": (["optimize", "--config", "{dir}"], None, EXIT_CONFIG),
    # Files whose bytes are not UTF-8 text.
    "prompt_file_not_utf8": (["evaluate", "--prompt-file", "{latin1}"], None, EXIT_CONFIG),
    "seed_prompt_file_not_utf8": (
        ["optimize"], ("seed_prompt = Decide", "seed_prompt_file = {latin1}\n; Decide"), EXIT_CONFIG
    ),
    "dataset_not_utf8": (["optimize"], (str(DATA), "{latin1}"), EXIT_DATASET),
}


@pytest.mark.parametrize("case", list(WRONG_KIND_PATHS))
def test_path_of_the_wrong_kind_is_a_documented_error(case, tmp_path, capsys) -> None:
    directory = tmp_path / "a_directory"
    directory.mkdir()
    file = tmp_path / "prompt.txt"
    file.write_text("Decide whether the statement happened. Answer Yes or No.", encoding="utf-8")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"Caf\xe9 statement\tYes\n")
    paths = {"dir": directory, "file": file, "latin1": latin1}
    argv, replaced, code = WRONG_KIND_PATHS[case]
    body = CONFIG_BODY
    if replaced is not None:
        body = body.replace(replaced[0], replaced[1].format(**paths))
    config = tmp_path / "run.ini"
    config.write_text(body, encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]
    if "--config" not in argv:
        argv += ["--config", str(config)]
    if argv[0] == "optimize" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]

    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("dataset error: " if code == EXIT_DATASET else "config error: ")
    named = latin1 if case.endswith("not_utf8") else file if case == "out" else directory
    assert str(named) in err
    if case == "dataset_not_utf8":
        assert f"{latin1}:1: not UTF-8 text" in err


def test_optimize_replay_requires_transcript(config_file) -> None:
    assert main(["optimize", "--config", str(config_file), "--backend", "replay"]) == EXIT_CONFIG


def test_optimize_replay_with_wrong_transcript_is_incomplete(config_file, tmp_path) -> None:
    out1 = tmp_path / "rec"
    assert (
        main(
            ["optimize", "--config", str(config_file), "--backend", "scripted", "--out", str(out1)]
        )
        == EXIT_OK
    )
    # Replaying under a different seed issues requests the transcript lacks.
    code = main(
        [
            "optimize",
            "--config",
            str(config_file),
            "--backend",
            "replay",
            "--transcript",
            str(out1 / "transcript.jsonl"),
            "--seed",
            "99",
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code == EXIT_INCOMPLETE
    meta = json.loads((tmp_path / "rep" / "run_meta.json").read_text())
    assert meta["status"] == "incomplete"


def test_optimize_replay_with_truncated_transcript_is_config_error(
    config_file, tmp_path, capsys
) -> None:
    out1 = tmp_path / "rec"
    argv = ["optimize", "--config", str(config_file), "--backend", "scripted", "--out", str(out1)]
    assert main(argv) == EXIT_OK
    transcript = out1 / "transcript.jsonl"
    data = transcript.read_bytes()
    # What a writer killed mid-line leaves behind.
    transcript.write_bytes(data[:-40])
    last_line = data[:-40].count(b"\n") + 1
    capsys.readouterr()
    code = main(
        [
            "optimize",
            "--config",
            str(config_file),
            "--backend",
            "replay",
            "--transcript",
            str(transcript),
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{transcript}: line {last_line}: not a transcript entry" in err


REPO = Path(__file__).parents[1]
DEMO_ARGS = ["optimize", "--config", "tests/data/demo.ini", "--verbose-predictions"]


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_optimize_demo_tests_each_prompt_once(monkeypatch, tmp_path, capsys) -> None:
    # In the demo config the seed stays the top survivor in rounds 1 and 2.
    monkeypatch.chdir(REPO)
    out = tmp_path / "demo"
    assert main([*DEMO_ARGS, "--backend", "scripted", "--out", str(out)]) == EXIT_OK
    assert "eval_calls=32" in capsys.readouterr().out

    split = make_split(load("tests/data/demo.tsv", "tsv"), 16, 11, positive_label="Yes")
    test_inputs = {ex.input_text for ex in split.test}
    test_requests = [
        req.rendered_prompt
        for req, _ in Transcript.load(out / "transcript.jsonl").entries
        if req.role_tag == "task_eval" and req.rendered_prompt.rsplit("\n", 1)[1] in test_inputs
    ]
    assert len(test_requests) == 32
    assert len(set(test_requests)) == len(test_requests)

    test_scores = {row["id"]: row["test_score"] for row in _jsonl(out / "prompts.jsonl")}
    events = _jsonl(out / "events.jsonl")
    assert [e["best_prompt_id"] for e in events] == [0, 0, 0]
    for event in events:
        assert event["best_test_score"] == test_scores[event["best_prompt_id"]]

    pairs = [(row["prompt_id"], row["example_id"]) for row in _jsonl(out / "predictions.jsonl")]
    assert len(pairs) == 32
    assert len(set(pairs)) == len(pairs)


def test_optimize_demo_protegi_transcript_golden_sha256(monkeypatch, tmp_path) -> None:
    # The baseline's requests: negative gradients, paraphrases, no momentum.
    monkeypatch.chdir(REPO)
    out = tmp_path / "protegi"
    argv = ["optimize", "--config", "tests/data/demo.ini", "--mode", "protegi"]
    assert main([*argv, "--backend", "scripted", "--out", str(out)]) == EXIT_OK
    data = (out / "transcript.jsonl").read_bytes()
    # 141 requests issued; 12 repeat one already answered at temperature 0.
    assert data.count(b"\n") == 129
    assert hashlib.sha256(data).hexdigest() == (
        "78f54d020afa8e2067520fa1732f646980115aa3410e5600ef4aa54591322e9d"
    )


def _edits(first: int, count: int) -> tuple:
    return ("prompt_edit", count, tuple(range(first, first + count)))


GEN = ("gradient_gen", 1, ())
# The demo config under three polarity plans, as (flags, config edits, the
# batches of one parent's expansion): each polarity sends one generator call
# and one edit batch along all of its gradients, whose "Variant j of k"
# ordinals continue across polarities; the paraphrases follow as one batch.
BATCH_SHAPES = {
    # 2 gradients x 2 edits each.
    "mapo": ([], {}, [GEN, _edits(1, 4)]),
    # 4 negative gradients x 1 edit each, then 2 paraphrases.
    "protegi": (["--mode", "protegi"], {}, [GEN, _edits(1, 4), ("paraphrase", 2, (1, 2))]),
    # 2 positive, then 2 negative gradients, x 2 edits each.
    "both": (
        ["--gradient-mode", "both"],
        {"num_gradients = 2": "num_gradients = 4", "candidates_per_parent = 4": "candidates_per_parent = 8"},
        [GEN, _edits(1, 4), GEN, _edits(5, 4)],
    ),
}


@pytest.mark.parametrize("case", list(BATCH_SHAPES))
def test_expansion_sends_one_batch_per_role_and_polarity(case, monkeypatch, tmp_path) -> None:
    flags, edits, expansion = BATCH_SHAPES[case]
    body = (REPO / "tests" / "data" / "demo.ini").read_text(encoding="utf-8")
    for old, new in edits.items():
        body = body.replace(old, new)
    config = tmp_path / "demo.ini"
    config.write_text(body.replace("tests/data/demo.tsv", str(DATA)), encoding="utf-8")

    # Each batch as (role, size, Variant ordinals, whether it scored the test
    # split); each round starts where the search samples its minibatch.
    timeline: list[tuple] = []
    complete_many = Gateway.complete_many

    def recorded(self, role_tag, prompts, **kwargs):
        tested = self.eval_calls()
        responses = complete_many(self, role_tag, prompts, **kwargs)
        ordinals = ()
        if role_tag in ("prompt_edit", "paraphrase"):
            ordinals = tuple(int(p.rsplit("\n", 1)[1].split()[1]) for p in prompts)
        timeline.append((role_tag, len(prompts), ordinals, self.eval_calls() > tested))
        return responses

    sample_minibatch = search.sample_minibatch

    def round_start(split, size, seed, round_index):
        timeline.append(("round", round_index))
        return sample_minibatch(split, size, seed, round_index)

    monkeypatch.setattr(Gateway, "complete_many", recorded)
    monkeypatch.setattr(search, "sample_minibatch", round_start)
    out = tmp_path / "out"
    argv = ["optimize", "--config", str(config), *flags, "--backend", "scripted", "--out", str(out)]
    assert main(argv) == EXIT_OK
    anomalies = json.loads((out / "run_meta.json").read_text())["anomalies"]
    assert anomalies["parse_shortfalls"] == anomalies["sample_shortfalls"] == 0

    starts = [i for i, item in enumerate(timeline) if item[0] == "round"]
    assert [timeline[i][1] for i in starts] == [1, 2, 3]  # two rounds, then the final argmax
    polarities = sum(batch[0] == "gradient_gen" for batch in expansion)
    paraphrases = any(batch[0] == "paraphrase" for batch in expansion)
    for begin, end in zip(starts, starts[1:]):
        batches = timeline[begin + 1:end]
        if batches[-1][3]:  # the round's top survivor, unless it was tested before
            assert batches.pop() == ("task_eval", 16, (), True)
        parents = 1 if timeline[begin][1] == 1 else 2
        per_parent = [("task_eval", 8, (), False), *[(*b, False) for b in expansion]]
        pulls = [("task_eval", 4, (), False)] * 8
        assert batches == per_parent * parents + pulls
        assert len(batches) == parents * (1 + 2 * polarities + paraphrases) + 8


def test_replay_accepts_a_recording_that_tests_a_prompt_again(
    monkeypatch, tmp_path, capsys
) -> None:
    # Recordings made before a prompt was tested once per run score the seed on
    # the test split again after each round's work; they must still replay.
    # Re-inserting the seed's batch and renumbering rebuilds such a recording
    # of the demo config byte for byte.
    monkeypatch.chdir(REPO)
    rec, rep = tmp_path / "rec", tmp_path / "rep"
    assert main([*DEMO_ARGS, "--backend", "scripted", "--out", str(rec)]) == EXIT_OK
    events = _jsonl(rec / "events.jsonl")
    seed_tests = events[0]["eval_calls"]
    entries = Transcript.load(rec / "transcript.jsonl").entries
    seed_batch = entries[:seed_tests]
    for repeats, event in enumerate(events[1:]):
        assert (event["best_prompt_id"], event["eval_calls"]) == (0, seed_tests)
        round_end = seed_tests + event["optimize_calls"] + repeats * seed_tests
        entries[round_end:round_end] = seed_batch
    old_style = [(req._replace(request_index=i), resp) for i, (req, resp) in enumerate(entries)]
    transcript = tmp_path / "old.jsonl"
    Transcript(old_style).save(transcript)
    capsys.readouterr()

    argv = [*DEMO_ARGS, "--backend", "replay", "--transcript", str(transcript), "--out", str(rep)]
    assert main(argv) == EXIT_OK
    assert "eval_calls=32" in capsys.readouterr().out
    for name in ("result.json", "beams.jsonl", "prompts.jsonl", "bandit.jsonl"):
        assert (rep / name).read_bytes() == (rec / name).read_bytes(), name


# Fields whose check a value derived from the default would fail.
_VALID_VALUES = {
    "gradient_mode": "both",
    "path": "data.jsonl",
    "format": "jsonl",
    "task_type": "math",
    "label_set": ("No", "Yes"),
}


def _changed_fields(cls) -> dict:
    """A valid value unlike the default, of the field's type, for each INI field of ``cls``."""
    values = {}
    for f in fields(cls):
        default = f.default
        if f.name in _VALID_VALUES:
            values[f.name] = _VALID_VALUES[f.name]
        elif isinstance(default, bool):
            values[f.name] = not default
        elif isinstance(default, str):
            values[f.name] = f"{default}_x"
        elif default is None:  # convergence_target: float | None
            values[f.name] = 0.625
        elif isinstance(default, (int, float)):
            # Doubling keeps candidates_per_parent divisible by num_gradients.
            values[f.name] = type(default)(default * 2 + 2)
        else:
            assert f.name == "bandit", f"no INI value for {f.name}"
    return values


def _ini_text(sections: dict[str, dict]) -> str:
    def text(value) -> str:
        return ", ".join(value) if isinstance(value, tuple) else str(value).lower()

    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {text(value)}\n" for key, value in values.items())
        for name, values in sections.items()
    )


def test_every_config_field_round_trips_through_ini(tmp_path) -> None:
    sections = {"run": _changed_fields(RunConfig), "bandit": _changed_fields(BanditConfig)}
    file = tmp_path / "all.ini"
    file.write_text(_ini_text(sections), encoding="utf-8")
    run_overrides, bandit_overrides, _, _, _ = read_config_file(file)

    def typed(values: dict) -> dict:
        return {key: (type(value), value) for key, value in values.items()}

    assert typed(run_overrides) == typed(sections["run"])
    assert typed(bandit_overrides) == typed(sections["bandit"])


def test_every_config_field_reaches_the_built_config(tmp_path) -> None:
    sections = {
        "run": _changed_fields(RunConfig),
        "bandit": _changed_fields(BanditConfig),
        "dataset": _changed_fields(DatasetSpec),
    }
    file = tmp_path / "all.ini"
    file.write_text(_ini_text(sections), encoding="utf-8")
    run_overrides, bandit_overrides, dataset, _, _ = read_config_file(file)
    cfg = build_run_config(argparse.Namespace(), run_overrides, bandit_overrides)
    built = {"run": cfg, "bandit": cfg.bandit, "dataset": dataset}
    for name, values in sections.items():
        for key, value in values.items():
            got = getattr(built[name], key)
            assert (type(got), got) == (type(value), value), f"[{name}] {key}"


def test_read_config_file_rejects_bad_values(tmp_path) -> None:
    file = tmp_path / "bad.ini"
    file.write_text("[run]\nconvergence_target = high\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[run\] convergence_target"):
        read_config_file(file)
    file.write_text("[bandit]\nexploration = lots\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[bandit\] exploration"):
        read_config_file(file)
    file.write_text("[run]\nemit_predictions = maybe\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected a boolean"):
        read_config_file(file)


def test_evaluate_counts_one_call_per_test_example(config_file, tmp_path, capsys) -> None:
    prompt_file = tmp_path / "prompt.txt"
    prompt_file.write_text("Answer Yes or No.", encoding="utf-8")
    code = main(
        [
            "evaluate",
            "--prompt-file",
            str(prompt_file),
            "--config",
            str(config_file),
            "--backend",
            "scripted",
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "eval_calls=16" in printed  # test_set_size from the config
    assert "test_score=" in printed


def test_evaluate_empty_prompt_file_is_config_error(config_file, tmp_path) -> None:
    prompt_file = tmp_path / "empty.txt"
    prompt_file.write_text("   ", encoding="utf-8")
    code = main(
        ["evaluate", "--prompt-file", str(prompt_file), "--config", str(config_file)]
    )
    assert code == EXIT_CONFIG


def test_report_emits_three_curves_and_comparison(config_file, tmp_path) -> None:
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out, mode in ((out1, "mapo"), (out2, "protegi")):
        assert (
            main(
                [
                    "optimize",
                    "--config",
                    str(config_file),
                    "--mode",
                    mode,
                    "--backend",
                    "scripted",
                    "--out",
                    str(out),
                ]
            )
            == EXIT_OK
        )
    report_dir = tmp_path / "report"
    assert main(["report", str(out1), str(out2), "--out", str(report_dir)]) == EXIT_OK
    for stem in ("a", "b"):
        for curve in ("score_vs_round", "score_vs_time", "score_vs_calls"):
            assert (report_dir / f"{stem}_{curve}.csv").exists()
    rows = (report_dir / "a_score_vs_round.csv").read_text().splitlines()
    assert rows[0] == "round,best_test_score"
    assert len(rows) == 1 + 2 + 1  # header + round 0 + search_depth rounds
    comparison = (report_dir / "comparison.csv").read_text().splitlines()
    assert comparison[0] == "round,mapo,protegi"
    assert len(comparison) == 1 + 3


def test_report_refuses_artifact_dirs_with_the_same_name(config_file, tmp_path, capsys) -> None:
    # Each directory's CSV files are named after it: a second rec_*.csv set
    # would overwrite the first, and comparison.csv would lose a column.
    dirs = [tmp_path / parent / "rec" for parent in ("a", "b", "c")]
    for out in dirs:
        argv = ["optimize", "--config", str(config_file), "--backend", "scripted", "--out", str(out)]
        assert main(argv) == EXIT_OK
    report_dir = tmp_path / "report"
    assert main(["report", *map(str, dirs), "--out", str(report_dir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{dirs[0]} and {dirs[1]}" in err
    assert not report_dir.exists()


def test_report_empty_artifact_dir_errors(tmp_path) -> None:
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def recorded_artifact(tmp_path_factory) -> Path:
    """The artifact of one scripted run of CONFIG_BODY: round 0 and 2 rounds of events."""
    directory = tmp_path_factory.mktemp("recorded")
    config = directory / "run.ini"
    config.write_text(CONFIG_BODY, encoding="utf-8")
    out = directory / "rec"
    argv = ["optimize", "--config", str(config), "--backend", "scripted", "--out", str(out)]
    assert main(argv) == EXIT_OK
    return out


def _drop_best_test_score(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[1])
    del row["best_test_score"]
    lines[1] = json.dumps(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


# Each damages one file of a recorded artifact, or is the file --out names:
# (the file, how to damage it, what the one stderr line says after the path).
BAD_REPORT_INPUTS = {
    "events_line_cut": (
        "events.jsonl",
        lambda f: f.write_text(f.read_text(encoding="utf-8")[:-20], encoding="utf-8"),
        ":3: invalid JSON",
    ),
    "meta_not_utf8": (
        "run_meta.json",
        lambda f: f.write_bytes(b'{"status": "compl\xe9te"}\n'),
        ":1: not UTF-8 text",
    ),
    "event_without_best_test_score": (
        "events.jsonl", _drop_best_test_score, ":2: best_test_score: expected a number"
    ),
    "out_is_a_file": ("out.csv", lambda f: f.write_text("", encoding="utf-8"), ": File exists"),
}


@pytest.mark.parametrize("case", list(BAD_REPORT_INPUTS))
def test_report_refuses_a_malformed_artifact_or_out_path(
    case, recorded_artifact, tmp_path, capsys
) -> None:
    rec = tmp_path / "rec"
    shutil.copytree(recorded_artifact, rec)
    name, damage, says = BAD_REPORT_INPUTS[case]
    path = tmp_path / name if case == "out_is_a_file" else rec / name
    damage(path)
    report_dir = path if case == "out_is_a_file" else tmp_path / "report"
    capsys.readouterr()
    assert main(["report", str(rec), "--out", str(report_dir)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("config error: ")
    assert f"{path}{says}" in lines[0]
    assert report_dir.is_file() if case == "out_is_a_file" else not report_dir.exists()


def test_optimize_live_backend_requires_endpoint_config(config_file) -> None:
    assert main(["optimize", "--config", str(config_file), "--backend", "live"]) == EXIT_CONFIG


def test_optimize_templates_flag_overrides_generator(config_file, tmp_path) -> None:
    template_dir = tmp_path / "templates"
    template_dir.mkdir()
    (template_dir / "tau.txt").write_text(
        "CUSTOM GENERATOR for {task_type}\n"
        'My current prompt is:\n"{prompt}"\n\n'
        "{correct_string}\n{positive_gradient_history}\n"
        "give {num_gradients} reasons why\n"
        "Wrap each reason with <START> and <END>\n",
        encoding="utf-8",
    )
    out = tmp_path / "custom"
    code = main(
        [
            "optimize",
            "--config",
            str(config_file),
            "--backend",
            "scripted",
            "--templates",
            str(template_dir),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    transcript_lines = (out / "transcript.jsonl").read_text().splitlines()
    generator_rows = [
        json.loads(line) for line in transcript_lines if json.loads(line)["role_tag"] == "gradient_gen"
    ]
    assert generator_rows
    assert all(r["rendered_prompt"].startswith("CUSTOM GENERATOR") for r in generator_rows)


# Each (file, how to make it) is refused when the templates are loaded.
BAD_TEMPLATES = {
    "unknown_slot": ("alpha.txt", lambda f: f.write_text("For a {taks_type}: {prompt}", encoding="utf-8")),
    "directory": ("tau.txt", lambda f: f.mkdir()),
    "not_utf8": ("paraphrase.txt", lambda f: f.write_bytes(b"Reword caf\xe9: {prompt}")),
    "unknown_name": ("alpah.txt", lambda f: f.write_text("IGNORED {prompt}", encoding="utf-8")),
}


@pytest.mark.parametrize("case", list(BAD_TEMPLATES))
def test_optimize_bad_template_is_config_error_before_any_request(
    case, config_file, tmp_path, monkeypatch, capsys
) -> None:
    def no_request(self, role_tag, prompts, **kwargs):
        raise AssertionError(f"a {role_tag} request was sent")

    monkeypatch.setattr(Gateway, "complete_many", no_request)
    name, make = BAD_TEMPLATES[case]
    template_dir = tmp_path / "templates"
    template_dir.mkdir()
    make(template_dir / name)
    out = tmp_path / "out"
    argv = ["optimize", "--config", str(config_file), "--backend", "scripted",
            "--templates", str(template_dir), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert str(template_dir / name) in err
    assert not out.exists()


def test_optimize_config_echo_names_dataset_and_seed_prompt(config_file, tmp_path) -> None:
    out = tmp_path / "echo"
    assert (
        main(
            ["optimize", "--config", str(config_file), "--backend", "scripted", "--out", str(out)]
        )
        == EXIT_OK
    )
    config_echo = json.loads((out / "config.json").read_text())
    assert config_echo["dataset"]["path"].endswith("demo.tsv")
    assert config_echo["dataset"]["positive_label"] == "Yes"
    assert config_echo["seed_prompt"].startswith("Decide whether")


def test_read_config_file_strips_inline_comments(tmp_path) -> None:
    file = tmp_path / "commented.ini"
    file.write_text(
        "[run]\n"
        "beam_width = 4              ; prompts kept per round\n"
        "search_depth = 6            # beam search rounds\n",
        encoding="utf-8",
    )
    run_overrides, _, _, _, _ = read_config_file(file)
    assert run_overrides == {"beam_width": 4, "search_depth": 6}


def test_optimize_missing_template_dir_is_config_error(config_file, tmp_path) -> None:
    code = main(
        [
            "optimize",
            "--config",
            str(config_file),
            "--backend",
            "scripted",
            "--templates",
            str(tmp_path / "nowhere"),
        ]
    )
    assert code == EXIT_CONFIG


def test_math_task_through_cli(tmp_path, capsys) -> None:
    data = tmp_path / "sums.jsonl"
    data.write_text(
        "\n".join(
            json.dumps({"question": f"add {i} and {i}", "answer": str(2 * i)})
            for i in range(40)
        )
        + "\n",
        encoding="utf-8",
    )
    config = tmp_path / "math.ini"
    config.write_text(
        "[run]\n"
        "seed_prompt = Work it out. End with #### <number>.\n"
        "beam_width = 2\n"
        "search_depth = 1\n"
        "minibatch_size = 8\n"
        "candidates_per_parent = 4\n"
        "num_correct_examples = 2\n"
        "test_set_size = 10\n"
        "rng_seed = 3\n"
        "[bandit]\n"
        "time_steps = 6\n"
        "sample_size = 4\n"
        "[dataset]\n"
        f"path = {data}\n"
        "format = jsonl\n"
        "task_type = math\n",
        encoding="utf-8",
    )
    out = tmp_path / "math_run"
    assert (
        main(["optimize", "--config", str(config), "--backend", "scripted", "--out", str(out)])
        == EXIT_OK
    )
    printed = capsys.readouterr().out
    assert "test_score=" in printed
    config_echo = json.loads((out / "config.json").read_text())
    assert config_echo["dataset"]["task_type"] == "math"


def test_protegi_preset_defaults_gradient_count_when_file_silent(tmp_path) -> None:
    file = tmp_path / "run.ini"
    file.write_text(
        CONFIG_BODY.replace("num_gradients = 2\n", ""), encoding="utf-8"
    )
    out = tmp_path / "p4"
    code = main(
        ["optimize", "--config", str(file), "--mode", "protegi", "--backend", "scripted",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    assert json.loads((out / "config.json").read_text())["num_gradients"] == 4


def test_gradient_mode_flag_overrides_an_invalid_file_value(tmp_path) -> None:
    # The merged values are checked, not the file's value the flag replaces.
    file = tmp_path / "run.ini"
    file.write_text(
        CONFIG_BODY.replace("[bandit]", "gradient_mode = sideways\n\n[bandit]"), encoding="utf-8"
    )
    out = tmp_path / "both"
    argv = ["optimize", "--config", str(file), "--gradient-mode", "both", "--backend", "scripted",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads((out / "config.json").read_text())["gradient_mode"] == "both"
    without_flag = ["optimize", "--config", str(file), "--backend", "scripted",
                    "--out", str(tmp_path / "sideways")]
    assert main(without_flag) == EXIT_CONFIG


@pytest.mark.parametrize("gradient_mode", ["positive_only", "both"])
def test_protegi_preset_runs_the_gradient_mode_flag(config_file, tmp_path, gradient_mode) -> None:
    # The flag applies after the preset, and the run does what config.json says.
    out = tmp_path / gradient_mode
    argv = ["optimize", "--config", str(config_file), "--mode", "protegi",
            "--gradient-mode", gradient_mode, "--backend", "scripted", "--out", str(out)]
    assert main(argv) == EXIT_OK
    config_echo = json.loads((out / "config.json").read_text())
    meta = json.loads((out / "run_meta.json").read_text())
    assert config_echo["gradient_mode"] == meta["gradient_mode"] == gradient_mode
    polarities = {row["polarity"] for row in _jsonl(out / "gradients.jsonl")}
    expected = {"positive_only": {"positive"}, "both": {"positive", "negative"}}
    assert polarities == expected[gradient_mode]
    assert meta["method"] == "protegi"


def test_paraphrases_per_parent_acts_without_a_preset(tmp_path) -> None:
    file = tmp_path / "run.ini"
    file.write_text(
        CONFIG_BODY.replace("[bandit]", "paraphrases_per_parent = 1\n\n[bandit]"), encoding="utf-8"
    )
    out = tmp_path / "para"
    argv = ["optimize", "--config", str(file), "--backend", "scripted", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads((out / "config.json").read_text())["paraphrases_per_parent"] == 1
    assert json.loads((out / "run_meta.json").read_text())["method"] == "mapo"
    # One parent in round 1, beam_width = 2 parents in round 2: three paraphrase
    # requests, each making one child with no gradient.
    paraphrased = [
        row for row in _jsonl(out / "prompts.jsonl")
        if row["round"] > 0 and row["gradient_id"] is None
    ]
    assert len(paraphrased) == 3
    # The seed survives round 1, so round 2 repeats its request at temperature 0
    # and the gateway answers it without sending it again.
    entries = Transcript.load(out / "transcript.jsonl").entries
    assert sum(req.role_tag == "paraphrase" for req, _ in entries) == 2
    assert paraphrased[0]["text"] in {row["text"] for row in paraphrased[1:]}


def test_read_config_file_dataset_fields_from_the_spec(tmp_path, capsys) -> None:
    file = tmp_path / "dataset.ini"
    body = CONFIG_BODY.replace("format = tsv\ntask_type = classification\n", "")
    file.write_text(body + "label_set = No, Yes ,,\n", encoding="utf-8")
    dataset = read_config_file(file)[2]
    assert (dataset.format, dataset.task_type) == ("tsv", "classification")
    assert dataset.label_set == ("No", "Yes")
    file.write_text(body.replace(f"path = {DATA}\n", ""), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[dataset\] missing key 'path'"):
        read_config_file(file)
    assert "[dataset] missing key 'path'" in _optimize_config_error(file, tmp_path, capsys)


def test_importing_the_package_and_cli_loads_neither_logging_nor_csv() -> None:
    # Each is imported where it is used: logging on a parse shortfall, csv by
    # the report command.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import promptopt, promptopt.cli\n"
        "print(' '.join(sorted({'logging', 'csv'} & (set(sys.modules) - before))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(promptopt.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
