"""Answer parsing and the prompt metric: F1 for classification, accuracy for math."""

from __future__ import annotations

import functools
import re
from typing import Callable, Sequence

from .data import DatasetSplit, Example, math_label, parse_math_answer
from .gateway import Gateway, GatewayError
from .model import Prompt


@functools.lru_cache(maxsize=64)
def _label_pattern(label_set: tuple[str, ...]) -> re.Pattern:
    """``(?<!\\w)(l1)(?!\\w)|...``: group ``k`` matches label ``k - 1`` as a whole token.

    Search tries the alternatives in order at each position from the left,
    so the first match is the earliest occurrence of any label, with ties
    going to label_set order.
    """
    return re.compile(
        "|".join(rf"(?<!\w)({re.escape(label)})(?!\w)" for label in label_set), re.IGNORECASE
    )


def parse_label(raw: str, label_set: Sequence[str]) -> str | None:
    """Earliest case-insensitive whole-token label occurrence in ``raw``.

    A whole token has no word character just before or just after it, so
    ``+1`` is found in ``"(+1)"`` but not in ``"x+1"``, and ``Yes`` not in
    ``"Yesterday"``. Ties at the same position go to label_set order.
    """
    if not label_set:
        raise ValueError("label_set is empty")
    labels = label_set if isinstance(label_set, tuple) else tuple(label_set)
    match = _label_pattern(labels).search(raw)
    return labels[match.lastindex - 1] if match else None


def f1(tp: int, fp: int, fn: int) -> float:
    """Positive-class F1 from the confusion counts; zero true positives yield 0.0 by convention."""
    if tp == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def _parser(split: DatasetSplit) -> Callable[[str], str | None]:
    """The task type's answer parser, chosen here only.

    Math answers go to :func:`~promptopt.data.parse_math_answer`, the others
    to :func:`parse_label` over the split's labels, looked up at each call.
    """
    if split.task_type == "math":
        return parse_math_answer
    label_set = split.label_set
    return lambda text: parse_label(text, label_set)


def evaluate_prompt(
    prompt: Prompt,
    examples: Sequence[Example],
    gateway: Gateway,
    split: DatasetSplit,
) -> tuple[float, list[str], list[bool]]:
    """Score a prompt over examples with one task_eval call per example, sent as one batch.

    ``split`` gives the task: its type, labels and positive label. The
    rendered input is the prompt text and the example input joined by a
    single newline (zero-shot, no exemplars). Math answers are parsed by
    :func:`~promptopt.data.parse_math_answer` and judged against
    :func:`~promptopt.data.math_label`; classification answers by
    :func:`parse_label`, judged case-insensitively. Each distinct answer
    text in the batch is parsed once. An answer is correct when it parses
    and equals its gold form. The score is accuracy for math and F1 for
    classification, where an unparsed answer counts as negative.

    Returns the score, the answer texts and whether each answer is correct,
    both lists in the order of ``examples``. No row is built:
    :func:`prediction_rows` makes them from these values.
    """
    if not examples:
        raise ValueError("examples is empty")
    # Read once: a named tuple's field costs more to read than a local.
    prompt_text = prompt.text
    try:
        texts = gateway.complete_many(
            "task_eval", [f"{prompt_text}\n{ex.input_text}" for ex in examples]
        )
    except GatewayError as exc:
        ex = examples[exc.batch_position]
        raise type(exc)(f"example id {ex.id}: {exc}") from exc
    parse = _parser(split)
    # The form of a label judged against gold.
    math = split.task_type == "math"
    gold_of = math_label if math else str.lower
    positive = split.positive_label.lower()
    # Each distinct answer text's judged form; a batch holds few distinct texts.
    preds: dict[str, str | None] = {}
    correct: list[bool] = []
    append = correct.append
    hits = tp = fp = fn = 0
    for ex, text in zip(examples, texts):
        if text in preds:
            pred = preds[text]
        else:
            parsed = parse(text)
            pred = preds[text] = parsed if math or parsed is None else parsed.lower()
        gold = gold_of(ex.label)
        ok = pred is not None and pred == gold
        append(ok)
        hits += ok
        if pred == positive:
            if gold == positive:
                tp += 1
            else:
                fp += 1
        elif gold == positive:
            fn += 1
    score = hits / len(correct) if math else f1(tp, fp, fn)
    return score, texts, correct


def prediction_rows(
    prompt_id: int,
    examples: Sequence[Example],
    texts: Sequence[str],
    correct: Sequence[bool],
    split: DatasetSplit,
) -> list[dict]:
    """One prompt's ``predictions.jsonl`` rows, one per example, ordered by example id.

    ``texts`` and ``correct`` are what :func:`evaluate_prompt` returned for
    ``examples`` and ``split``. Each distinct text is parsed again, once, by
    the task type's parser for its ``parsed_label``.
    """
    parse = _parser(split)
    parsed = {text: parse(text) for text in dict.fromkeys(texts)}
    answers = sorted(zip(examples, texts, correct), key=lambda answer: answer[0].id)
    return [
        {"prompt_id": prompt_id, "example_id": ex.id, "raw_output": text,
         "parsed_label": parsed[text], "correct": ok}
        for ex, text, ok in answers
    ]
