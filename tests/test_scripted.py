"""HeuristicScript's task_eval answers against the per-request formula.

The responder keeps each example input's id bytes and answers from
construction, and each prompt text's skill and answer-coin hash state after
the prompt's first request. The reference below finds the example and
recomputes the skill, the coin and the answers for every request, so an
answer taken from a stale or wrongly keyed entry shows up as a difference.
"""

from __future__ import annotations

from hashlib import blake2b

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptopt import Example, HeuristicScript, LlmRequest, evaluate_prompt, new_seed_prompt
from promptopt import scripted
from promptopt.data import math_label
from promptopt.scripted import ScriptExhaustedError

from conftest import SEED_TEXT, scripted_gateway, task_split, toy_examples

UNKNOWN_INPUT = "an input that no example holds"


def reference_hash01(seed: int, *parts: object) -> float:
    key = "|".join(str(p) for p in parts)
    digest = blake2b(f"{seed}|{key}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def reference_answer(examples, labels, seed, skill_range, task_type, req: LlmRequest) -> str:
    """The task_eval answer, with the example found and every hash computed per request."""
    by_input = {ex.input_text: ex for ex in examples}
    lines = req.rendered_prompt.split("\n")
    # The input is the longest suffix of whole lines, after the first, that some example holds.
    for cut in range(1, len(lines)):
        prompt_text, input_text = "\n".join(lines[:cut]), "\n".join(lines[cut:])
        if input_text in by_input:
            example = by_input[input_text]
            break
    else:
        return labels[0] if labels else "unknown"
    lo, hi = skill_range
    skill = lo + (hi - lo) * reference_hash01(seed, "skill", prompt_text)
    correct = reference_hash01(seed, "answer", prompt_text, example.id) < skill
    if task_type == "math":
        if correct:
            return f"#### {example.label}"
        return "#### -99998" if math_label(example.label) == "-99999" else "#### -99999"
    if correct:
        return example.label
    wrong = [lb for lb in labels if lb.lower() != example.label.lower()]
    return wrong[0] if wrong else example.label


# Prompt texts with the hash input's separator, line breaks before the last
# one (which starts the example input) and characters outside ASCII.
prompt_texts = st.text(alphabet=st.sampled_from("ab |\né中\U0001f600#"), min_size=0, max_size=12)
# One line of an example input, and an input of one to three lines.
input_lines = st.text(alphabet=st.sampled_from("ab |é中\U0001f600"), min_size=1, max_size=4)
input_texts = st.lists(input_lines, min_size=1, max_size=3).map("\n".join)

# (label set, gold labels): golds in another case than the label set, a gold
# outside it, a set whose only label is the gold (a wrong answer repeats it)
# and an empty set.
CLASSIFICATION = (
    (("Yes", "No"), ("Yes", "no", "YES", "No", "Maybe")),
    (("No", "Yes"), ("No", "Yes", "No")),
    (("Yes",), ("Yes", "yes")),
    ((), ("Yes", "No")),
)


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32),
    task_type=st.sampled_from(["classification", "math"]),
    skill_range=st.sampled_from([(0.3, 0.9), (0.0, 1.0), (0.5, 0.5)]),
)
def test_task_eval_answers_match_the_per_request_formula(data, seed, task_type, skill_range) -> None:
    if task_type == "math":
        labels = ["12", "-3", "7"]
        golds = ["12", "-3", "7", "12", "4.5", "-99999"]
    else:
        labels, golds = data.draw(st.sampled_from(CLASSIFICATION))
        labels, golds = list(labels), list(golds)
    # Inputs of one or more lines; the first has at least two, and the last
    # input is the first one's last line. Two equal inputs keep the later example.
    first = "\n".join(data.draw(st.lists(input_lines, min_size=2, max_size=3)))
    middle = data.draw(st.lists(input_texts, min_size=len(golds) - 2, max_size=len(golds) - 2))
    texts = [first, *middle, first.rpartition("\n")[2]]
    examples = [Example(i, text, gold) for i, (text, gold) in enumerate(zip(texts, golds))]
    script = HeuristicScript(
        examples, labels, seed=seed, skill_range=skill_range, task_type=task_type
    )
    prompts = data.draw(st.lists(prompt_texts, min_size=1, max_size=4, unique=True))
    inputs = texts + [UNKNOWN_INPUT]
    # Prompts and examples interleaved in any order, repeats included.
    order = data.draw(
        st.lists(st.tuples(st.sampled_from(prompts), st.sampled_from(inputs)), min_size=1, max_size=30)
    )
    for prompt_text, input_text in order:
        req = LlmRequest("task_eval", f"{prompt_text}\n{input_text}")
        want = reference_answer(examples, labels, seed, skill_range, task_type, req)
        assert script(req) == want


def test_a_wrong_math_answer_never_scores_whatever_the_gold() -> None:
    # Skill 0: every coin is wrong, so no answer may parse to its gold.
    golds = ["-99999", "-99999.0", "#### -99999", "-99998", "12"]
    examples = [Example(i, f"question {i}", gold) for i, gold in enumerate(golds)]
    gateway = scripted_gateway(examples, [], task_type="math", skill_range=(0.0, 0.0))
    score, texts, correct = evaluate_prompt(new_seed_prompt(SEED_TEXT), examples, gateway, task_split("math"))
    assert score == 0.0 and not any(correct), texts


def test_scoring_one_prompt_hashes_its_skill_once(monkeypatch) -> None:
    calls = []
    real_hash = scripted._hash

    def counting_hash(seed, size, *parts):
        calls.append(parts[0])
        return real_hash(seed, size, *parts)

    monkeypatch.setattr(scripted, "_hash", counting_hash)
    examples = toy_examples(40)
    gateway = scripted_gateway(examples, ["No", "Yes"])
    task = task_split("classification", ("No", "Yes"), "Yes")
    evaluate_prompt(new_seed_prompt(SEED_TEXT), examples, gateway, task)
    assert calls.count("skill") == 1


def test_a_multi_line_input_is_answered_as_itself_not_as_its_last_line() -> None:
    # The last line of the first input is the whole of the second.
    examples = [Example(0, "Statement 0:\nthe end", "Yes"), Example(1, "the end", "No")]
    script = HeuristicScript(examples, ["Yes", "No"], skill_range=(1.0, 1.0))
    assert script(LlmRequest("task_eval", "P\nStatement 0:\nthe end")) == "Yes"
    assert script(LlmRequest("task_eval", "P\nthe end")) == "No"


def test_a_role_without_a_script_is_refused() -> None:
    script = HeuristicScript(toy_examples(4), ["Yes", "No"])
    with pytest.raises(ScriptExhaustedError, match="no script for role_tag 'chitchat'"):
        script(LlmRequest("chitchat", "P\nsample statement number 0 about an everyday event"))
