from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from promptopt import (
    ConfigError,
    DatasetSplit,
    Example,
    Gateway,
    HeuristicScript,
    LiveBackend,
    LiveConfig,
    ReplayBackend,
    ScriptedBackend,
    Transcript,
    make_split,
    new_seed_prompt,
    search,
)
from promptopt.cli import build_run_config
from promptopt.data import math_label
from promptopt.gateway import RetryPolicy
from promptopt.scoring import f1
from promptopt.scripted import ScriptExhaustedError
from promptopt.search import (
    ConvergenceReport,
    MetricEvent,
    RunConfig,
    RunIncompleteError,
    detect_convergence,
    expected_calls_per_round,
    run,
)

from conftest import (
    SEED_TEXT,
    SequenceScript,
    check_history,
    confusion_counts,
    extract_history_binding,
    scripted_gateway,
    small_config,
    toy_examples,
)


def _event(round_index: int, score: float, elapsed: float = 0.0, calls: int = 0) -> MetricEvent:
    return MetricEvent(
        round=round_index,
        elapsed_s=elapsed,
        optimize_calls=calls,
        eval_calls=0,
        best_train_score=None if round_index == 0 else score,
        best_test_score=score,
        best_prompt_id=0,
    )


def test_expected_calls_round_one_paper_defaults() -> None:
    cfg = RunConfig()  # b=4, r=6, minibatch 64, c=8, g=2, T=25, s=32
    assert expected_calls_per_round(cfg, 1) == 1 * 64 + 1 * (1 + 8) + 25 * 32 == 873


def test_expected_calls_later_rounds_paper_defaults() -> None:
    cfg = RunConfig()
    for round_index in range(2, 7):
        assert expected_calls_per_round(cfg, round_index) == 4 * 64 + 4 * 9 + 25 * 32 == 1092


def test_expected_calls_zero_expansion_limit() -> None:
    # A config with no candidates cannot be built, so no round counts one.
    with pytest.raises(ConfigError, match="candidates_per_parent must be a positive integer"):
        replace(RunConfig(), candidates_per_parent=0)


def test_expected_calls_protegi_preset_default_shape() -> None:
    # Per parent: 64 evaluations, 1 negative generator call, 4 gradients x 2
    # edits and 2 paraphrases.
    cfg = build_run_config(argparse.Namespace(mode="protegi"), {}, {})
    assert expected_calls_per_round(cfg, 1) == 64 + (1 + 8 + 2) + 25 * 32 == 875
    for round_index in range(2, 7):
        assert expected_calls_per_round(cfg, round_index) == 4 * (64 + 11) + 25 * 32 == 1100


def test_expected_calls_both_polarities_default_shape() -> None:
    # One generator call per polarity; the 2 gradients share the 8 edits.
    cfg = replace(RunConfig(), gradient_mode="both")
    assert expected_calls_per_round(cfg, 1) == 64 + (2 + 8) + 25 * 32 == 874
    assert expected_calls_per_round(cfg, 2) == 4 * (64 + 10) + 25 * 32 == 1096


@pytest.mark.parametrize(
    "overrides",
    [
        {"gradient_mode": "both"},
        {"gradient_mode": "both", "num_gradients": 4, "paraphrases_per_parent": 1},
        {"gradient_mode": "negative_only", "num_gradients": 4, "paraphrases_per_parent": 2},
    ],
)
def test_run_per_round_optimize_calls_match_closed_form_in_every_mode(
    overrides, tmp_path
) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(**overrides)
    gateway = scripted_gateway(examples, split.label_set)
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path)
    # A short correctness sample still sends its generator call; only an
    # empty one, or a short parse, would fall below the closed form.
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["anomalies"]["parse_shortfalls"] == 0
    for before, after in zip(result.events, result.events[1:]):
        assert after.optimize_calls - before.optimize_calls == expected_calls_per_round(
            cfg, after.round
        )


def test_detect_convergence_finds_first_crossing() -> None:
    events = [_event(0, 0.475), _event(1, 0.55, 10, 100), _event(3, 0.61, 30, 300)]
    report = detect_convergence(events, 0.58)
    assert report == ConvergenceReport(
        target_score=0.58,
        reached=True,
        convergence_time_s=30,
        convergence_calls=300,
        convergence_steps=3,
    )


def test_detect_convergence_unreached() -> None:
    report = detect_convergence([_event(0, 0.2), _event(1, 0.4)], 0.9)
    assert not report.reached
    assert report.convergence_steps is None


def test_detect_convergence_seed_boundary() -> None:
    report = detect_convergence([_event(0, 0.5), _event(1, 0.6)], 0.5)
    assert report.reached and report.convergence_steps == 0


def test_detect_convergence_requires_events() -> None:
    with pytest.raises(ValueError):
        detect_convergence([], 0.5)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(search_depth=3)
    gateway = scripted_gateway(examples, split.label_set)
    out = tmp_path_factory.mktemp("small_run")
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, out)
    return result, gateway, cfg, split, examples


def test_run_transcript_golden_sha256(tmp_path) -> None:
    # A refactor of the request path must leave every transcript byte as it was.
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    gateway = scripted_gateway(examples, split.label_set)
    run(new_seed_prompt(SEED_TEXT), split, small_config(), gateway, tmp_path)
    data = (tmp_path / "transcript.jsonl").read_bytes()
    # 179 requests issued; 6 repeat one already answered at temperature 0.
    assert (len(data), data.count(b"\n")) == (56930, 173)
    assert hashlib.sha256(data).hexdigest() == (
        "bfde1b5da607e38c6eac18ddcf2b6cf2b5d685683c0590dbd9c1c6cf5a4dc2ab"
    )


_GOLDEN_ARTIFACT_SHA256 = {
    "beams.jsonl": "c699492c64981d42456d859d37cdcc4c137e0bae18ab16fe841cc79feb34430a",
    "prompts.jsonl": "60594361975fcf583a01d9ad6cad028e01c95f2895886cc723925ba7e64d4402",
    "gradients.jsonl": "30b571106c20420de13ef637bfd14d3e6613d3eb0aa6a9f402816928eb053e7a",
    "history.json": "64e9c52d2a35b47861310f1bcc14105847a1ebea36ae111785ae976099192406",
    "bandit.jsonl": "0c40eea51fafa0ca9a72248bb3d2feaf234b251f45574198ab9ae4a3dfdb7a70",
    "result.json": "24740334db331032938e65de942b24c14e691dc79efa4a0bf435bce426bf0f00",
    "convergence.json": "fa2b9c4a88bf62263a16079ef67d673ab56297ebe49fabf5d10c7561902ac80d",
    "config.json": "709cbcf65bbc1b262b3f62ed219434110c381e3930e4c128aa0cad46c5561e67",
    # anomalies.unpulled_arms is 2 here: round 2 has 10 arms for 8 pulls.
    # calls: 173 wire calls and 6 memo hits.
    "run_meta.json": "1fe05ac94e46043bb75a195191c76c5906312ca2d0014af0ed95016103565dc7",
    "predictions.jsonl": "d63562e738ec64c1e4b814edf68e7f3ed9d2f4b2d353afe7b471348b3eb62e08",
    # events.jsonl re-serialized without its wall-clock elapsed_s.
    "events.jsonl": "b48062607cce63da96be09c2603642b75520ae41f254c0e4e5b4fd9b55c532d7",
}


def test_run_artifact_golden_sha256(tmp_path) -> None:
    # The transcript test above pins the requests; this pins what run() makes of them.
    # emit_predictions changes config.json and adds predictions.jsonl, nothing else.
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    gateway = scripted_gateway(examples, split.label_set)
    run(new_seed_prompt(SEED_TEXT), split, small_config(emit_predictions=True), gateway, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _GOLDEN_ARTIFACT_SHA256
        if name != "events.jsonl"
    }
    events = "".join(
        json.dumps({k: v for k, v in json.loads(line).items() if k != "elapsed_s"}, sort_keys=True)
        + "\n"
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    )
    digests["events.jsonl"] = hashlib.sha256(events.encode()).hexdigest()
    assert digests == _GOLDEN_ARTIFACT_SHA256


_BOTH_POLARITIES_SHA256 = {
    "transcript.jsonl": "eed5309e2a1f2c4f21dce8da1b54bfe2816798c2bd0b40d0c7ffdc200bec9e2e",
    "history.json": "39ce131cb168b0e2c8875b772c6b373f998aa47368acb6a63c59ace9eb65b662",
    "beams.jsonl": "1a7347d8d37704a6dbdab6585d4b430076437d94d171f2ada501d4152b7e021a",
    "prompts.jsonl": "3af9bbcae8f18821d7ff03e9ed67fa5ecb6436d8a2cad07aaea154985b7512f5",
    "gradients.jsonl": "8207876466ff25b889543e199de71df7922a5c09c66f822cd99b20294bfbfc58",
    "bandit.jsonl": "b2d00fd33d046ab57db22ff105dd25100b2c9a6585625373b605c68115bcde16",
    "run_meta.json": "2e455ca8a161e61aa72d92990723b3102469447772bc89067b7ea36c18e33501",
    "result.json": "b8cb9c37f0eb65bf70e1cd2e85da9ab5ed735fdd7459ea29b3f413ef599f2f71",
}


def test_run_both_polarities_golden_sha256(tmp_path) -> None:
    # Momentum pools only positive gradients of the round's own children, so
    # this run's history pins that rule against survivors it must leave out.
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    gateway = scripted_gateway(examples, split.label_set)
    cfg = small_config(gradient_mode="both", search_depth=3)
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path)
    # The record files pin the mode that makes negative gradients too.
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _BOTH_POLARITIES_SHA256
    }
    assert digests == _BOTH_POLARITIES_SHA256
    store = result.store
    negative = carried = 0
    for beam in result.beams[1:]:
        for prompt_id in beam.prompts:
            prompt = store.prompts[prompt_id]
            if prompt.gradient_id is None:
                continue
            gradient = store.gradients[prompt.gradient_id]
            if prompt.round == beam.round:
                negative += gradient.polarity == "negative"
            else:
                carried += gradient.round == prompt.round
    # 2 and 1 in this run.
    assert negative >= 1
    assert carried >= 1


def test_run_beam_shape(small_run) -> None:
    result, _, cfg, _, _ = small_run
    assert len(result.beams[0].prompts) == 1
    for beam in result.beams[1:]:
        assert len(beam.prompts) == cfg.beam_width


def test_run_emits_round_zero_plus_one_event_per_round(small_run) -> None:
    result, _, cfg, _, _ = small_run
    assert [e.round for e in result.events] == list(range(cfg.search_depth + 1))
    assert result.events[0].best_train_score is None


def test_run_counters_nondecreasing_and_elapsed_monotone(small_run) -> None:
    result, _, _, _, _ = small_run
    for before, after in zip(result.events, result.events[1:]):
        assert after.optimize_calls >= before.optimize_calls
        assert after.eval_calls >= before.eval_calls
        assert after.elapsed_s >= before.elapsed_s


def test_run_per_round_optimize_calls_match_closed_form(small_run) -> None:
    result, _, cfg, _, _ = small_run
    for before, after in zip(result.events, result.events[1:]):
        assert after.optimize_calls - before.optimize_calls == expected_calls_per_round(
            cfg, after.round
        )


def test_run_final_counter_identity(small_run) -> None:
    result, gateway, cfg, _, _ = small_run
    # After the last event the only optimize calls are the final fresh-minibatch
    # evaluations of the last beam.
    assert (
        gateway.optimize_calls()
        == result.events[-1].optimize_calls + cfg.beam_width * cfg.minibatch_size
    )


def test_run_best_satisfies_argmax_over_final_beam(small_run) -> None:
    result, _, _, _, _ = small_run
    final_scores = {
        pid: result.store.prompts[pid].train_score for pid in result.beams[-1].prompts
    }
    best_id = min(final_scores, key=lambda pid: (-final_scores[pid], pid))
    assert result.best.id == best_id
    assert result.best.test_score is not None


def test_run_history_membership_invariant(small_run) -> None:
    result, _, _, _, _ = small_run
    check_history(result.history)
    for round_index, pool in result.history.pools.items():
        sampled = result.history.sampled.get(round_index)
        if pool:
            assert sampled in pool


def test_run_artifact_files_written(small_run) -> None:
    result, _, _, _, _ = small_run
    out = Path(result.artifact_dir)
    for name in (
        "config.json",
        "run_meta.json",
        "events.jsonl",
        "beams.jsonl",
        "prompts.jsonl",
        "gradients.jsonl",
        "history.json",
        "bandit.jsonl",
        "convergence.json",
        "result.json",
        "transcript.jsonl",
    ):
        assert (out / name).exists(), name
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "complete"
    # Rounds 2 and 3 each have 10 arms for 8 pulls.
    assert meta["anomalies"] == {"parse_shortfalls": 0, "sample_shortfalls": 0, "unpulled_arms": 4}


def _anomalous_responder(fail_after_edits: bool = False):
    """Answers every task "Yes", gives two reasons and never a parseable edit.

    With ``fail_after_edits`` it runs dry at the first task_eval request that
    follows an edit, which is round 1's first bandit pull.
    """
    edited = []

    def respond(req):
        if req.role_tag == "prompt_edit":
            edited.append(True)
            return "no delimiters here"
        if req.role_tag == "gradient_gen":
            return "<START>reason one<END><START>reason two<END>"
        if fail_after_edits and edited:
            raise ScriptExhaustedError("script ran dry")
        return "Yes"

    return respond


def test_run_meta_counts_parse_and_sample_shortfalls(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    # A minibatch of 8 holds fewer than 8 "Yes" examples, so every sample falls short.
    cfg = small_config(num_correct_examples=8)
    gateway = Gateway(ScriptedBackend(_anomalous_responder()))
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path)
    edits = [req for req, _ in gateway.transcript.entries if req.role_tag == "prompt_edit"]
    parents = sum(len(beam.prompts) for beam in result.beams[:-1])
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["status"] == "complete"
    assert meta["anomalies"] == {
        "parse_shortfalls": len(edits),
        "sample_shortfalls": parents,
        "unpulled_arms": 0,
    }
    assert len(edits) == parents * cfg.candidates_per_parent > 0


def test_incomplete_run_meta_counts_shortfalls_before_the_abort(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    gateway = Gateway(ScriptedBackend(_anomalous_responder(fail_after_edits=True)))
    with pytest.raises(RunIncompleteError):
        run(new_seed_prompt(SEED_TEXT), split, small_config(num_correct_examples=8), gateway,
            tmp_path)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["status"] == "incomplete"
    # The abort comes inside round 1's selection, so no arm table is counted.
    assert meta["anomalies"] == {"parse_shortfalls": 4, "sample_shortfalls": 1, "unpulled_arms": 0}


def test_incomplete_run_meta_skips_an_edit_batch_that_failed_part_way(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    answer = _anomalous_responder()
    edits = []

    def respond(req):
        if req.role_tag == "prompt_edit":
            edits.append(req)
            if len(edits) == 2:
                raise ScriptExhaustedError("script ran dry")
        return answer(req)

    cfg = small_config(num_correct_examples=8)
    assert cfg.candidates_per_parent // cfg.num_gradients == 2  # two edits per batch
    with pytest.raises(RunIncompleteError):
        run(new_seed_prompt(SEED_TEXT), split, cfg, Gateway(ScriptedBackend(respond)), tmp_path)
    lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
    recorded = [row for row in map(json.loads, lines) if row["role_tag"] == "prompt_edit"]
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    # The first edit was answered and recorded, but its batch never finished, so
    # neither its unparseable answer nor the parent's short sample is counted.
    assert len(recorded) == 1
    assert meta["anomalies"] == {"parse_shortfalls": 0, "sample_shortfalls": 0, "unpulled_arms": 0}


def test_run_meta_counts_unpulled_arms_at_the_default_shape(tmp_path) -> None:
    # At the defaults a later round has 36 arms (4 parents, 32 children) and 25
    # pulls; never-pulled arms go first in id order, so the 11 newest never are.
    examples = toy_examples(1200)
    cfg = RunConfig()
    split = make_split(
        examples, cfg.test_set_size, cfg.rng_seed, task_type="classification", positive_label="Yes"
    )
    run(new_seed_prompt(SEED_TEXT), split, cfg, scripted_gateway(examples, split.label_set), tmp_path)
    tables = [
        json.loads(line)["arms"] for line in (tmp_path / "bandit.jsonl").read_text().splitlines()
    ]
    assert [len(arms) for arms in tables] == [9] + [36] * 5
    # N counts examples: 25 pulls of 32 each.
    assert [sum(a["N"] for a in arms) for arms in tables] == [25 * 32] * 6
    assert [sum(a["N"] == 0 for a in arms) for arms in tables] == [0] + [11] * 5
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["anomalies"]["unpulled_arms"] == 55


def test_run_bandit_tables_cover_each_round(small_run) -> None:
    result, _, cfg, _, _ = small_run
    assert len(result.arm_tables) == cfg.search_depth
    for table in result.arm_tables:
        assert sum(a.N for a in table) == cfg.bandit.time_steps * cfg.bandit.sample_size


def test_run_positive_only_artifacts_have_no_negative_gradients(small_run) -> None:
    result, _, _, _, _ = small_run
    assert result.store.gradients
    assert all(g.polarity == "positive" for g in result.store.gradients.values())


def test_run_momentum_disabled_binds_none_everywhere(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(momentum_enabled=False)
    gateway = scripted_gateway(examples, split.label_set)
    run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path / "off")
    for req, _ in gateway.transcript.entries:
        if req.role_tag in ("gradient_gen", "prompt_edit"):
            assert extract_history_binding(req.rendered_prompt) == "(none)"


def test_run_baseline_mode_negative_gradients_and_paraphrases(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(
        gradient_mode="negative_only", momentum_enabled=False, paraphrases_per_parent=2
    )
    gateway = scripted_gateway(examples, split.label_set)
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path / "baseline")
    assert result.store.gradients
    assert all(g.polarity == "negative" for g in result.store.gradients.values())
    paraphrase_children = [
        p
        for p in result.store.prompts.values()
        if p.parent_id is not None and p.gradient_id is None
    ]
    assert paraphrase_children
    paraphrase_calls = sum(
        1 for req, _ in gateway.transcript.entries if req.role_tag == "paraphrase"
    )
    parents_per_round = [1] + [cfg.beam_width] * (cfg.search_depth - 1)
    assert paraphrase_calls == sum(parents_per_round) * cfg.paraphrases_per_parent
    # Positive-gradient momentum pools stay empty without positive gradients.
    assert all(not pool for pool in result.history.pools.values())


def test_run_emit_predictions_writes_records(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(search_depth=1, emit_predictions=True)
    gateway = scripted_gateway(examples, split.label_set)
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path / "verbose")
    rows = [
        json.loads(line)
        for line in (Path(result.artifact_dir) / "predictions.jsonl").read_text().splitlines()
    ]
    assert rows
    assert {"prompt_id", "example_id", "raw_output", "parsed_label", "correct"} <= set(rows[0])


def test_prediction_records_are_built_only_for_predictions_jsonl(monkeypatch, tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    built = []
    make = search.prediction_rows

    def counting(*args):
        rows = make(*args)
        built.extend(rows)
        return rows

    monkeypatch.setattr(search, "prediction_rows", counting)
    run(new_seed_prompt(SEED_TEXT), split, small_config(), scripted_gateway(examples, split.label_set),
        tmp_path / "default")
    assert built == []

    # The configuration of the golden artifact, whose predictions.jsonl is pinned.
    cfg = small_config(emit_predictions=True)
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, scripted_gateway(examples, split.label_set),
                 tmp_path / "verbose")
    tested = [p for p in result.store.prompts.values() if p.test_score is not None]
    assert len(tested) > 1
    assert len(built) == len(tested) * len(split.test)
    data = (tmp_path / "verbose" / "predictions.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _GOLDEN_ARTIFACT_SHA256["predictions.jsonl"]


def _math_task() -> tuple[list[Example], DatasetSplit]:
    examples = [Example(i, f"compute the total for case {i}", str(100 + i)) for i in range(60)]
    return examples, make_split(examples, 10, 7, task_type="math", positive_label="")


@pytest.mark.parametrize("task_type", ["classification", "math"])
def test_predictions_agree_with_the_test_scores(task_type, tmp_path) -> None:
    # evaluate_prompt gives the score; prediction_rows makes the rows from
    # its values in a second call. Each prompt's rows must give its score back.
    if task_type == "math":
        examples, split = _math_task()
        gateway = scripted_gateway(examples, split.label_set, task_type="math")
    else:
        examples = toy_examples()
        split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
        gateway = scripted_gateway(examples, split.label_set)
    cfg = small_config(emit_predictions=True, test_set_size=len(split.test))
    run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path)
    gold = {ex.id: ex.label for ex in split.test}
    rows = [json.loads(line) for line in (tmp_path / "predictions.jsonl").read_text().splitlines()]
    assert not [row for row in rows if row["correct"] and row["parsed_label"] is None]
    tested = [
        prompt
        for prompt in map(json.loads, (tmp_path / "prompts.jsonl").read_text().splitlines())
        if prompt["test_score"] is not None
    ]
    assert tested
    for prompt in tested:
        mine = [row for row in rows if row["prompt_id"] == prompt["id"]]
        assert sorted(row["example_id"] for row in mine) == sorted(gold)
        for row in mine:
            label = gold[row["example_id"]]
            want = math_label(label) if task_type == "math" else label.lower()
            parsed = row["parsed_label"]
            judged = parsed if task_type == "math" or parsed is None else parsed.lower()
            assert row["correct"] == (judged is not None and judged == want), row
        if task_type == "math":
            score = sum(row["correct"] for row in mine) / len(mine)
        else:
            cc = confusion_counts(
                [gold[row["example_id"]] for row in mine],
                [row["parsed_label"] for row in mine],
                split.positive_label,
            )
            score = f1(cc.tp, cc.fp, cc.fn)
        assert score == prompt["test_score"], prompt["id"]


def test_replayed_run_keeps_the_recorded_responses(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    run(new_seed_prompt(SEED_TEXT), split, small_config(), scripted_gateway(examples, split.label_set),
        tmp_path / "rec")
    recorded = Transcript.load(tmp_path / "rec" / "transcript.jsonl")
    responses = [resp for _, resp in recorded.entries]
    gateway = Gateway(ReplayBackend(recorded))
    run(new_seed_prompt(SEED_TEXT), split, small_config(), gateway, tmp_path / "rep")
    kept = [resp for _, resp in gateway.transcript.entries]
    assert len(kept) == len(responses)
    assert all(mine is theirs for mine, theirs in zip(kept, responses))


def test_run_refuses_to_replay_its_own_transcript(tmp_path) -> None:
    # The run would replace the recording it replays; a hard link names the same file.
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    out = tmp_path / "rec"
    run(new_seed_prompt(SEED_TEXT), split, small_config(), scripted_gateway(examples, split.label_set), out)
    recording = (out / "transcript.jsonl").read_bytes()
    link = tmp_path / "link.jsonl"
    os.link(out / "transcript.jsonl", link)
    gateway = Gateway(ReplayBackend(Transcript.load(link)))
    with pytest.raises(ConfigError, match=f"replay transcript {link} is the run's own {out / 'transcript.jsonl'}"):
        run(new_seed_prompt(SEED_TEXT), split, small_config(search_depth=1), gateway, out)
    assert gateway.call_count() == 0
    assert (out / "transcript.jsonl").read_bytes() == recording


def test_run_tests_a_seed_that_carries_a_test_score(tmp_path) -> None:
    # A score measured before the run, on some other split, is not this run's.
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    seed = new_seed_prompt(SEED_TEXT)._replace(test_score=0.999)
    gateway = scripted_gateway(examples, split.label_set)
    result = run(seed, split, small_config(search_depth=1), gateway, tmp_path)
    assert result.events[0].eval_calls == 20
    assert result.events[0].best_test_score == result.store.prompts[0].test_score != 0.999


def test_run_gateway_failure_flags_incomplete_artifact(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config()
    # Only enough canned answers for the round-0 test eval; the run then aborts.
    gateway = Gateway(ScriptedBackend(SequenceScript({"task_eval": ["Yes"] * 25})))
    out = tmp_path / "aborted"
    with pytest.raises(RunIncompleteError) as err:
        run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, out)
    assert err.value.artifact_dir == str(out)
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "incomplete"
    assert (out / "events.jsonl").exists()


def test_run_any_exception_flags_incomplete_artifact_and_propagates(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    calls = {"n": 0}

    def failing_responder(req):
        calls["n"] += 1
        if calls["n"] == 30:
            raise RuntimeError("responder broke")
        return "Yes"

    out = tmp_path / "crashed"
    with pytest.raises(RuntimeError, match="responder broke"):
        gateway = Gateway(ScriptedBackend(failing_responder))
        run(new_seed_prompt(SEED_TEXT), split, small_config(), gateway, out)
    assert json.loads((out / "run_meta.json").read_text())["status"] == "incomplete"
    assert len((out / "transcript.jsonl").read_text().splitlines()) == 29


def test_run_keyboard_interrupt_flags_incomplete_artifact_and_propagates(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    script = HeuristicScript(examples, split.label_set, seed=7)

    def interrupted_responder(req):
        # Requests 0-19 test the seed, 20-28 start round 1; 30 is its second edit call.
        if req.request_index == 30:
            raise KeyboardInterrupt
        return script(req)

    out = tmp_path / "interrupted"
    with pytest.raises(KeyboardInterrupt) as err:
        run(new_seed_prompt(SEED_TEXT), split, small_config(),
            Gateway(ScriptedBackend(interrupted_responder)), out)
    assert type(err.value) is KeyboardInterrupt
    assert json.loads((out / "run_meta.json").read_text())["status"] == "incomplete"
    assert len((out / "transcript.jsonl").read_text().splitlines()) == 30
    assert not (out / "result.json").exists()
    assert not (out / "convergence.json").exists()


def test_run_gateway_error_in_final_test_eval_writes_no_result(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    # Under this config the final argmax picks a prompt no round test-scored.
    cfg = small_config(search_depth=1)
    clean_gateway = scripted_gateway(examples, split.label_set)
    clean = run(new_seed_prompt(SEED_TEXT), split, cfg, clean_gateway, tmp_path / "clean")
    assert clean_gateway.eval_calls() == clean.events[-1].eval_calls + cfg.test_set_size
    final_eval_start = clean_gateway.call_count() - cfg.test_set_size

    script = HeuristicScript(examples, split.label_set, seed=7)

    def failing_responder(req):
        if req.request_index >= final_eval_start:
            raise ScriptExhaustedError("no answers for the final test evaluation")
        return script(req)

    out = tmp_path / "aborted"
    with pytest.raises(RunIncompleteError):
        run(new_seed_prompt(SEED_TEXT), split, cfg, Gateway(ScriptedBackend(failing_responder)), out)
    assert json.loads((out / "run_meta.json").read_text())["status"] == "incomplete"
    assert len((out / "transcript.jsonl").read_text().splitlines()) == final_eval_start
    assert not (out / "result.json").exists()
    assert not (out / "convergence.json").exists()


def test_run_null_live_content_ends_incomplete(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    backend = LiveBackend(
        LiveConfig(base_url="https://llm.example/v1", model="test-model"),
        retry=RetryPolicy(base_delay_s=0.01, max_attempts=2),
        transport=lambda *a: (200, json.dumps({"choices": [{"message": {"content": None}}]})),
        sleep=lambda s: None,
    )
    out = tmp_path / "null"
    with pytest.raises(RunIncompleteError):
        run(new_seed_prompt(SEED_TEXT), split, small_config(), Gateway(backend), out)
    assert json.loads((out / "run_meta.json").read_text())["status"] == "incomplete"


def test_run_convergence_report_uses_configured_target(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(search_depth=1, convergence_target=0.0)
    gateway = scripted_gateway(examples, split.label_set)
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path / "conv")
    assert result.report.reached
    assert result.report.convergence_steps == 0


def test_run_passes_temperature_through_verbatim(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(search_depth=1, temperature=0.7)
    gateway = scripted_gateway(examples, split.label_set, temperature=0.7)
    run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path / "temp")
    assert gateway.transcript.entries
    assert all(req.temperature == 0.7 for req, _ in gateway.transcript.entries)
    # No memo above temperature 0: every request issued went out.
    assert gateway.memo_hits() == 0
    assert gateway.call_count() == gateway.optimize_calls() + gateway.eval_calls()


def test_run_refuses_a_gateway_at_another_temperature(tmp_path) -> None:
    examples = toy_examples()
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = small_config(temperature=0.7)
    gateway = scripted_gateway(examples, split.label_set)
    with pytest.raises(ConfigError, match="gateway temperature 0.0 is not the run's 0.7"):
        run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    assert gateway.call_count() == 0


def test_run_refuses_a_split_of_another_test_set_size(tmp_path) -> None:
    # config.json echoes test_set_size, so a split of another size would be misreported.
    examples = toy_examples()
    split = make_split(examples, 15, 7, task_type="classification", positive_label="Yes")
    gateway = scripted_gateway(examples, split.label_set)
    with pytest.raises(ConfigError, match="split has 15 test examples, not the run's test_set_size 20"):
        run(new_seed_prompt(SEED_TEXT), split, small_config(), gateway, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    assert gateway.call_count() == 0


def test_run_math_task_end_to_end(tmp_path) -> None:
    examples, split = _math_task()
    cfg = small_config(search_depth=1, test_set_size=10)
    gateway = scripted_gateway(examples, split.label_set, task_type="math")
    result = run(new_seed_prompt("Work out the answer. End with #### <number>."),
                 split, cfg, gateway, tmp_path / "math")
    assert 0.0 <= result.best.test_score <= 1.0
    assert result.events[-1].best_test_score >= 0.0


def test_expand_parent_empty_sample_passes_parent_through(tmp_path) -> None:
    from promptopt.gradients import GradientEngine, TemplateSet
    from promptopt.model import PromptStore
    from promptopt.search import expand_parent

    examples = toy_examples(16)
    store = PromptStore()
    parent = store.new_prompt(SEED_TEXT, round=0)
    cfg = small_config()
    gateway = Gateway(ScriptedBackend(lambda req: "<START>unused<END>"))
    engine = GradientEngine(cfg, gateway, store, TemplateSet(), "classification")
    correct = [False] * 16  # nothing to sample from

    assert expand_parent(engine, parent, 1, examples, correct, "(none)") is None
    assert engine.sample_shortfalls == 1
    assert store.prompts == {parent.id: parent}
    assert store.gradients == {}
    assert gateway.call_count() == 0  # the generator call was skipped entirely
