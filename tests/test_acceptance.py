"""Acceptance suite: one test per criterion, each printing a pass line.

Everything runs against deterministic scripted backends; the criteria check
the measurement machinery (scoring, selection, call accounting, momentum
wiring, replay) rather than any benchmark number.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from hashlib import blake2b
from pathlib import Path

import pytest

from promptopt import (
    BanditConfig,
    Example,
    Gateway,
    HeuristicScript,
    Prompt,
    ReplayBackend,
    RunConfig,
    ScriptedBackend,
    Transcript,
    make_split,
    new_seed_prompt,
    select,
)
from promptopt.gradients import mask_history_slot, parse_delimited
from promptopt.model import derived_rng
from promptopt.scoring import f1
from promptopt.search import MetricEvent, detect_convergence, expected_calls_per_round, run

from conftest import check_history, confusion_counts

SEED_TEXT = "Is this statement true? Answer Yes or No."


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {name}")


def _corpus(n: int, label=lambda i: "Yes" if i % 2 == 0 else "No") -> list[Example]:
    return [
        Example(i, f"field report entry {i} describing the event in plain words", label(i))
        for i in range(n)
    ]


# --- criterion 1 -----------------------------------------------------------


def test_c1_f1_oracle_equivalence() -> None:
    started = time.monotonic()
    rng = random.Random(2024)
    labels = ("Yes", "No")
    for _ in range(1000):
        n = rng.randint(1, 200)
        golds = [rng.choice(labels) for _ in range(n)]
        parsed = [rng.choice([*labels, None]) for _ in range(n)]
        # Brute-force oracle: recount tp/fp/fn by iterating the predictions.
        tp = sum(1 for g, p in zip(golds, parsed) if g == "Yes" and p == "Yes")
        fp = sum(1 for g, p in zip(golds, parsed) if g != "Yes" and p == "Yes")
        fn = sum(1 for g, p in zip(golds, parsed) if g == "Yes" and p != "Yes")
        oracle = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
        assert f1(confusion_counts(golds, parsed, "Yes")) == oracle
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(1, "f1 equals the brute-force confusion oracle on 1000 random sets")


# --- criterion 2 -----------------------------------------------------------


def _bernoulli01(run_seed: int, arm_id: int, example_id: int) -> float:
    digest = blake2b(f"{run_seed}|{arm_id}|{example_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def test_c2_ucb_best_arm_identification() -> None:
    started = time.monotonic()
    arms = [Prompt(id=i, text=f"candidate {i}", round=0) for i in range(10)]
    train = [Example(i, f"probe {i}", "Yes") for i in range(100)]
    cfg = BanditConfig(time_steps=200, sample_size=16, exploration=1.0)
    hits = 0
    for run_seed in range(100):

        def bernoulli_reward(prompt: Prompt, batch, run_seed=run_seed) -> float:
            accuracy = (prompt.id + 1) / 10  # arms at 0.1 .. 1.0
            return sum(
                _bernoulli01(run_seed, prompt.id, ex.id) < accuracy for ex in batch
            ) / len(batch)

        result = select(arms, train, cfg, 4, derived_rng(run_seed, "c2"), bernoulli_reward)
        assert all(arm.N > 0 for arm in result.arms)
        assert sum(arm.N for arm in result.arms) == cfg.time_steps * cfg.sample_size
        if 9 in {p.id for p in result.selected}:
            hits += 1
    assert hits >= 95, f"best arm selected in only {hits}/100 runs"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _passed(2, f"best Bernoulli arm in the top-4 in {hits}/100 seeded runs")


# --- criteria 3 and 4 share one scripted run at the default scale ----------


@pytest.fixture(scope="module")
def default_scale_run(tmp_path_factory):
    examples = _corpus(1200)
    split = make_split(examples, 200, 3, task_type="classification", positive_label="Yes")
    cfg = RunConfig(rng_seed=3)  # b=4, r=6, minibatch 64, c=8, g=2, T=25, s=32
    gateway = Gateway(ScriptedBackend(HeuristicScript(examples, split.label_set, seed=3)))
    out = tmp_path_factory.mktemp("default_scale")
    started = time.monotonic()
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, out)
    elapsed = time.monotonic() - started
    return result, gateway, cfg, elapsed


def test_c3_call_accounting_identity(default_scale_run) -> None:
    result, _, cfg, elapsed = default_scale_run
    deltas = [
        after.optimize_calls - before.optimize_calls
        for before, after in zip(result.events, result.events[1:])
    ]
    expected = [expected_calls_per_round(cfg, r) for r in range(1, cfg.search_depth + 1)]
    assert expected == [873] + [1092] * 5
    assert deltas == expected
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _passed(3, "per-round optimize calls equal the closed form (873, then 1092)")


def test_c4_beam_shape_and_argmax(default_scale_run) -> None:
    result, _, cfg, _ = default_scale_run
    assert len(result.beams[0].prompts) == 1
    assert [len(b.prompts) for b in result.beams[1:]] == [4] * cfg.search_depth
    final_scores = {
        pid: result.store.prompts[pid].train_score for pid in result.beams[-1].prompts
    }
    assert result.best.id == min(final_scores, key=lambda pid: (-final_scores[pid], pid))


class _DominantScript:
    """One planted candidate answers every example correctly; others do not."""

    winner = "WINNER: rely on the provided statement."

    def __init__(self, examples):
        self._by_input = {ex.input_text: ex for ex in examples}
        self._edits = 0

    def __call__(self, req):
        if req.role_tag == "task_eval":
            prompt_text, _, input_text = req.rendered_prompt.rpartition("\n")
            example = self._by_input[input_text]
            if self.winner in prompt_text:
                return example.label
            return example.label if example.id % 3 == 0 else "No"
        if req.role_tag == "gradient_gen":
            return "<START>the prompt names the answer tokens<END>"
        if req.role_tag == "prompt_edit":
            self._edits += 1
            if self._edits == 1:
                return f"<START>{self.winner}<END>"
            return f"<START>solve the task, attempt {self._edits}<END>"
        return "<START>reworded instruction<END>"


def test_c4_dominant_candidate_wins_in_100_of_100_seeds(tmp_path) -> None:
    examples = _corpus(40, label=lambda i: "Yes")
    cfg = RunConfig(
        beam_width=2,
        search_depth=2,
        minibatch_size=16,
        candidates_per_parent=2,
        num_gradients=1,
        num_correct_examples=2,
        test_set_size=10,
        bandit=BanditConfig(time_steps=6, sample_size=4),
    )
    wins = 0
    for seed in range(100):
        split = make_split(
            examples, 10, seed,
            task_type="classification", positive_label="Yes", label_set=("Yes", "No"),
        )
        gateway = Gateway(ScriptedBackend(_DominantScript(examples)))
        result = run(
            new_seed_prompt("Answer Yes or No."),
            split,
            replace(cfg, rng_seed=seed),
            gateway,
            tmp_path / f"dom{seed}",
        )
        if result.best.text == _DominantScript.winner:
            wins += 1
    assert wins == 100, f"dominant candidate returned in only {wins}/100 seeds"
    _passed(4, "beam shapes, the argmax property, and 100/100 dominant-candidate wins")


# --- criterion 5 -----------------------------------------------------------


def _paired_momentum_runs(tmp_path):
    examples = _corpus(160)
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = RunConfig(
        beam_width=2,
        search_depth=3,
        minibatch_size=8,
        candidates_per_parent=4,
        num_gradients=2,
        num_correct_examples=2,
        test_set_size=20,
        bandit=BanditConfig(time_steps=8, sample_size=4),
        rng_seed=7,
    )
    runs = {}
    for momentum_on in (True, False):
        gateway = Gateway(ScriptedBackend(HeuristicScript(examples, split.label_set, seed=7)))
        result = run(
            new_seed_prompt(SEED_TEXT),
            split,
            replace(cfg, momentum_enabled=momentum_on),
            gateway,
            tmp_path / ("mom_on" if momentum_on else "mom_off"),
        )
        runs[momentum_on] = (result, gateway)
    return runs, split, cfg


def _tau_alpha_requests_by_round(result, gateway, split, cfg):
    """Group generator/editor requests by round using the closed-form call counts.

    Leaving out the test evaluations, the request stream is round 1's
    ``expected_calls_per_round(cfg, 1)`` optimize calls, then round 2's, and
    so on, then the final-answer minibatch evaluations, which carry no
    generator/editor calls. A round adds a test burst only when its top
    survivor was not yet tested, so the bursts do not mark every round.
    """
    deltas = [
        after.optimize_calls - before.optimize_calls
        for before, after in zip(result.events, result.events[1:])
    ]
    counts = [expected_calls_per_round(cfg, r) for r in range(1, cfg.search_depth + 1)]
    assert deltas == counts  # the split below is exact only if the closed form holds
    test_inputs = {ex.input_text for ex in split.test}
    work = [
        req
        for req, _ in gateway.transcript.entries
        if not (
            req.role_tag == "task_eval"
            and req.rendered_prompt.rsplit("\n", 1)[1] in test_inputs
        )
    ]
    tau_alpha = ("gradient_gen", "prompt_edit")
    rounds, start = [], 0
    for count in counts:
        rounds.append([req for req in work[start : start + count] if req.role_tag in tau_alpha])
        start += count
    assert len(rounds) == cfg.search_depth
    assert not any(req.role_tag in tau_alpha for req in work[start:])
    return rounds


def test_c5_momentum_wiring_isolation(tmp_path) -> None:
    runs, split, cfg = _paired_momentum_runs(tmp_path)
    (result_on, gateway_on), (result_off, gateway_off) = runs[True], runs[False]

    entries_on, entries_off = gateway_on.transcript.entries, gateway_off.transcript.entries
    assert len(entries_on) == len(entries_off)
    for (req_on, resp_on), (req_off, resp_off) in zip(entries_on, entries_off):
        assert resp_on.text == resp_off.text
        assert req_on.role_tag == req_off.role_tag
        if req_on.rendered_prompt != req_off.rendered_prompt:
            # Any difference must vanish once the history slot is masked.
            assert mask_history_slot(req_on.rendered_prompt) == mask_history_slot(
                req_off.rendered_prompt
            )

    # With momentum on, the previous round's sampled gradient appears verbatim
    # in every rendered generator/editor request of the following round.
    history = result_on.history
    assert any(history.pools.values()), "test run never recorded a nonempty pool"
    by_round = _tau_alpha_requests_by_round(result_on, gateway_on, split, cfg)
    for segment_index, requests in enumerate(by_round):
        round_index = segment_index + 1
        sampled_id = history.sampled.get(round_index - 1)
        if history.pools.get(round_index - 1) and sampled_id is not None:
            sampled_text = result_on.store.gradients[sampled_id].text
            assert requests
            for req in requests:
                assert sampled_text in req.rendered_prompt

    for result in (result_on, result_off):
        check_history(result.history)
        for round_index, pool in result.history.pools.items():
            if pool:
                assert result.history.sampled[round_index] in pool
    _passed(5, "momentum on/off transcripts differ only in the history slot")


# --- criterion 6 -----------------------------------------------------------


def test_c6_ablation_mode_purity(tmp_path) -> None:
    examples = _corpus(160)
    split = make_split(examples, 20, 5, task_type="classification", positive_label="Yes")
    cfg = RunConfig(
        beam_width=2,
        search_depth=2,
        minibatch_size=16,
        candidates_per_parent=4,
        num_gradients=2,
        num_correct_examples=2,
        test_set_size=20,
        bandit=BanditConfig(time_steps=8, sample_size=4),
        rng_seed=5,
    )
    polarity_counts = {}
    for mode in ("positive_only", "negative_only", "both"):
        gateway = Gateway(
            ScriptedBackend(
                HeuristicScript(examples, split.label_set, seed=5, skill_range=(0.3, 0.7))
            )
        )
        out = tmp_path / mode
        run(new_seed_prompt(SEED_TEXT), split, replace(cfg, gradient_mode=mode), gateway, out)
        rows = [
            json.loads(line) for line in (out / "gradients.jsonl").read_text().splitlines()
        ]
        assert rows, f"{mode} run produced no gradients"
        counts = {"positive": 0, "negative": 0}
        for row in rows:
            counts[row["polarity"]] += 1
        polarity_counts[mode] = counts

    assert polarity_counts["positive_only"]["negative"] == 0
    assert polarity_counts["negative_only"]["positive"] == 0
    both = polarity_counts["both"]
    assert both["positive"] > 0 and both["negative"] > 0
    # Documented apportionment: the gradient count splits evenly per parent.
    assert both["positive"] == both["negative"]
    _passed(6, "gradient polarity purity holds in all three ablation artifacts")


# --- criterion 7 -----------------------------------------------------------

_WALL_CLOCK_FIELDS = {"elapsed_s", "convergence_time_s"}


def _masked_bytes(path: Path) -> bytes:
    """Artifact bytes with wall-clock fields nulled (JSON and JSONL files)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        for row in rows:
            for field in _WALL_CLOCK_FIELDS & set(row):
                row[field] = None
        return "\n".join(json.dumps(r, sort_keys=True) for r in rows).encode()
    payload = json.loads(text)
    if isinstance(payload, dict):
        for field in _WALL_CLOCK_FIELDS & set(payload):
            payload[field] = None
    return json.dumps(payload, sort_keys=True).encode()


def test_c7_replay_determinism(tmp_path) -> None:
    examples = _corpus(160)
    split = make_split(examples, 20, 7, task_type="classification", positive_label="Yes")
    cfg = RunConfig(
        beam_width=2,
        search_depth=2,
        minibatch_size=8,
        candidates_per_parent=4,
        num_gradients=2,
        num_correct_examples=2,
        test_set_size=20,
        bandit=BanditConfig(time_steps=8, sample_size=4),
        rng_seed=7,
        convergence_target=0.5,
    )
    record_gateway = Gateway(ScriptedBackend(HeuristicScript(examples, split.label_set, seed=7)))
    run(new_seed_prompt(SEED_TEXT), split, cfg, record_gateway, tmp_path / "rec")
    transcript_path = tmp_path / "rec" / "transcript.jsonl"
    for name in ("rep1", "rep2"):
        gateway = Gateway(ReplayBackend(Transcript.load(transcript_path)))
        run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path / name)

    files = sorted(p.name for p in (tmp_path / "rec").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "rep1").iterdir())
    for name in files:
        rec, rep1, rep2 = (tmp_path / d / name for d in ("rec", "rep1", "rep2"))
        # The two replays agree byte for byte, wall-clock fields included.
        assert rep1.read_bytes() == rep2.read_bytes(), name
        # Record vs replay agree on everything outside wall-clock fields.
        assert _masked_bytes(rec) == _masked_bytes(rep1), name
    _passed(7, "record and two replays agree outside wall-clock fields")


# --- criterion 8 -----------------------------------------------------------


def test_c8_convergence_detection_schema() -> None:
    def event(round_index: int, score: float) -> MetricEvent:
        return MetricEvent(
            round=round_index,
            elapsed_s=10.0 * round_index,
            optimize_calls=30 * round_index,
            eval_calls=5 * round_index,
            best_train_score=None if round_index == 0 else score,
            best_test_score=score,
            best_prompt_id=round_index,
        )

    events = [event(0, 0.475), event(1, 0.55), event(3, 0.61)]
    report = detect_convergence(events, 0.58)
    assert report.reached
    assert report.convergence_steps == 3
    assert report.convergence_time_s == 30.0
    assert report.convergence_calls == 90 + 15

    assert not detect_convergence(events, 0.99).reached
    assert detect_convergence(events, 0.475).convergence_steps == 0
    _passed(8, "convergence detection fixes (time, calls, steps) at the first crossing")


# --- criterion 9 -----------------------------------------------------------


def test_c9_delimiter_parser_recovers_planted_payloads() -> None:
    rng = random.Random(99)
    alphabet = "abcdefgh XYZ.,"
    for _ in range(300):
        k = rng.randint(0, 10)
        payloads = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20))).strip() or "x"
            for _ in range(k)
        ]
        parts = []
        for payload in payloads:
            noise = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
            # Distractors: stray closers, then stray openers, never a new pair.
            parts.append(noise + "<END>" * rng.randint(0, 2) + "<START>" * rng.randint(0, 2))
            parts.append(f"<START>{payload}<END>")
        parts.append("tail" + "<END>" * rng.randint(0, 2) + "<START>" * rng.randint(0, 2))
        assert parse_delimited("".join(parts)) == payloads
    _passed(9, "delimiter parser recovers k planted payloads amid distractors")
