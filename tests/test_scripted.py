"""HeuristicScript's task_eval answers against the per-request formula.

The responder keeps each prompt text's skill and the start of its answer-coin
hash input after the prompt's first request. The reference below recomputes
both for every request, so an answer taken from a stale or wrongly keyed
entry shows up as a difference.
"""

from __future__ import annotations

from hashlib import blake2b

from hypothesis import given
from hypothesis import strategies as st

from promptopt import Example, HeuristicScript, LlmRequest, TaskSpec, evaluate_prompt, new_seed_prompt
from promptopt import scripted

from conftest import SEED_TEXT, scripted_gateway, toy_examples

UNKNOWN_INPUT = "an input that no example holds"


def reference_hash01(seed: int, *parts: object) -> float:
    key = "|".join(str(p) for p in parts)
    digest = blake2b(f"{seed}|{key}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def reference_answer(examples, labels, seed, skill_range, task_type, req: LlmRequest) -> str:
    """The task_eval answer, with the skill and the answer coin hashed per request."""
    prompt_text, _, input_text = req.rendered_prompt.rpartition("\n")
    example = {ex.input_text: ex for ex in examples}.get(input_text)
    if example is None:
        return labels[0] if labels else "unknown"
    lo, hi = skill_range
    skill = lo + (hi - lo) * reference_hash01(seed, "skill", prompt_text)
    correct = reference_hash01(seed, "answer", prompt_text, example.id) < skill
    if task_type == "math":
        return f"#### {example.label}" if correct else "#### -99999"
    if correct:
        return example.label
    wrong = [lb for lb in labels if lb.lower() != example.label.lower()]
    return wrong[0] if wrong else example.label


# Prompt texts with the hash input's separator, line breaks before the last
# one (which starts the example input) and characters outside ASCII.
prompt_texts = st.text(alphabet=st.sampled_from("ab |\né中\U0001f600#"), min_size=0, max_size=12)

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
        golds = ["12", "-3", "7", "12", "4.5"]
    else:
        labels, golds = data.draw(st.sampled_from(CLASSIFICATION))
        labels, golds = list(labels), list(golds)
    examples = [Example(i, f"input {i} with | and é", gold) for i, gold in enumerate(golds)]
    script = HeuristicScript(
        examples, labels, seed=seed, skill_range=skill_range, task_type=task_type
    )
    prompts = data.draw(st.lists(prompt_texts, min_size=1, max_size=4, unique=True))
    inputs = [ex.input_text for ex in examples] + [UNKNOWN_INPUT]
    # Prompts and examples interleaved in any order, repeats included.
    order = data.draw(
        st.lists(st.tuples(st.sampled_from(prompts), st.sampled_from(inputs)), min_size=1, max_size=30)
    )
    for prompt_text, input_text in order:
        req = LlmRequest("task_eval", f"{prompt_text}\n{input_text}")
        want = reference_answer(examples, labels, seed, skill_range, task_type, req)
        assert script(req) == want


def test_scoring_one_prompt_hashes_its_skill_once(monkeypatch) -> None:
    calls = []
    real_hash01 = scripted._hash01

    def counting_hash01(seed, *parts):
        calls.append(parts[0])
        return real_hash01(seed, *parts)

    monkeypatch.setattr(scripted, "_hash01", counting_hash01)
    examples = toy_examples(40)
    gateway = scripted_gateway(examples, ["No", "Yes"])
    task = TaskSpec(task_type="classification", positive_label="Yes", label_set=("No", "Yes"))
    evaluate_prompt(new_seed_prompt(SEED_TEXT), examples, gateway, task)
    assert calls.count("skill") == 1
