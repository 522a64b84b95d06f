"""Answer parsing and the prompt metric: F1 for classification, accuracy for math."""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .data import DatasetSplit, Example
from .gateway import Gateway, GatewayError
from .model import Prompt, RunConfig


@dataclass(frozen=True)
class TaskSpec:
    """What the scorer needs to know about the task."""

    task_type: str  # classification | math
    label_set: tuple[str, ...] = ()
    positive_label: str = ""
    temperature: float = 0.0

    @classmethod
    def from_split(cls, split: DatasetSplit, cfg: RunConfig) -> "TaskSpec":
        """The task a run or an evaluation of ``split`` under ``cfg`` scores."""
        return cls(
            task_type=split.task_type,
            label_set=split.label_set,
            positive_label=split.positive_label,
            temperature=cfg.temperature,
        )


class _PredictionFields(NamedTuple):
    example_id: int
    raw_output: str
    parsed_label: str | None
    correct: bool


class Prediction(_PredictionFields):
    """One scored answer: an immutable named tuple, one per task_eval request.

    Building one, also through ``_make`` and ``_replace``, checks that an
    unparseable output is not marked correct. ``_asdict()`` gives the fields
    in declaration order.
    """

    __slots__ = ()

    def __new__(
        cls, example_id: int, raw_output: str, parsed_label: str | None, correct: bool
    ) -> "Prediction":
        if parsed_label is None and correct:
            raise ValueError("an unparseable output cannot be correct")
        return tuple.__new__(cls, (example_id, raw_output, parsed_label, correct))

    @classmethod
    def _make(cls, iterable) -> "Prediction":
        return cls(*iterable)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


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


_NUMBER_RE = re.compile(r"-?(?:\d[\d,]*(?:\.\d+)?|\.\d+)")
# A number once commas and whitespace are gone: sign, integer digits, fraction digits.
_NUMBER_PARTS = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d+))?")


def canonical_number(token: str) -> str:
    """One spelling per value: commas, whitespace and redundant digits and signs dropped.

    ``1,234`` gives ``1234``, ``1.50`` gives ``1.5``, ``2.00`` gives ``2``,
    ``+5`` and ``05`` give ``5``, ``.5`` and ``00.5`` give ``0.5``, and
    ``-0`` and ``-0.0`` give ``0``; an integer keeps its trailing zeros
    (``100``). A token that is not a number comes back with only its commas
    and whitespace removed.
    """
    cleaned = re.sub(r"[\s,]", "", token)
    match = _NUMBER_PARTS.fullmatch(cleaned)
    if match is None:
        return cleaned
    sign, whole, fraction = match.groups()
    whole = whole.lstrip("0") or "0"
    fraction = fraction.rstrip("0") if fraction else ""
    number = f"{whole}.{fraction}" if fraction else whole
    return "-" + number if sign == "-" and number != "0" else number


def parse_math_answer(raw: str) -> str | None:
    """Answer after a final ``####`` marker, else the last number token in ``raw``.

    A number token may start with its point: ``#### .5`` gives ``0.5``.
    """
    if "####" in raw:
        tail = raw.rsplit("####", 1)[1]
        match = _NUMBER_RE.search(tail)
        return canonical_number(match.group(0)) if match else None
    matches = _NUMBER_RE.findall(raw)
    return canonical_number(matches[-1]) if matches else None


def f1(cc: ConfusionCounts) -> float:
    """Positive-class F1; zero true positives yield 0.0 by convention."""
    if cc.tp == 0:
        return 0.0
    return 2 * cc.tp / (2 * cc.tp + cc.fp + cc.fn)


_BY_EXAMPLE_ID = operator.itemgetter(0)


def evaluate_prompt(
    prompt: Prompt,
    examples: Sequence[Example],
    gateway: Gateway,
    task: TaskSpec,
) -> tuple[float, list[Prediction]]:
    """Score a prompt over examples with one task_eval call per example, sent as one batch.

    The rendered input is the prompt text and the example input joined by a
    single newline (zero-shot, no exemplars). Each distinct answer text in
    the batch is parsed once and its parse reused for every answer equal to
    it. Returns the score and the per-example predictions ordered by example
    id.
    """
    if not examples:
        raise ValueError("examples is empty")
    try:
        texts = gateway.complete_many(
            "task_eval",
            [f"{prompt.text}\n{ex.input_text}" for ex in examples],
            temperature=task.temperature,
        )
    except GatewayError as exc:
        ex = examples[exc.batch_position]
        raise type(exc)(f"example id {ex.id}: {exc}") from exc
    # Each distinct answer text is parsed once; a batch holds few of them.
    predictions: list[Prediction] = []
    append = predictions.append
    if task.task_type == "math":
        answers: dict[str, str | None] = {}
        hits = 0
        for ex, text in zip(examples, texts):
            if text in answers:
                parsed = answers[text]
            else:
                parsed = answers[text] = parse_math_answer(text)
            correct = parsed is not None and parsed == canonical_number(ex.label)
            hits += correct
            append(Prediction(ex.id, text, parsed, correct))
        score = hits / len(predictions)
    else:
        # Parse, judge and count the confusion matrix in one pass; an
        # unparsed answer counts as negative.
        label_set = task.label_set
        positive = task.positive_label.lower()
        # An answer text's label and the label's lower-case form.
        labels: dict[str, tuple[str | None, str | None]] = {}
        tp = fp = fn = 0
        for ex, text in zip(examples, texts):
            parse = labels.get(text)
            if parse is None:
                parsed = parse_label(text, label_set)
                parse = labels[text] = (parsed, None if parsed is None else parsed.lower())
            parsed, pred = parse
            gold = ex.label.lower()
            if pred == positive:
                if gold == positive:
                    tp += 1
                else:
                    fp += 1
            elif gold == positive:
                fn += 1
            append(Prediction(ex.id, text, parsed, pred == gold))
        score = f1(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=len(predictions) - tp - fp - fn))
    predictions.sort(key=_BY_EXAMPLE_ID)
    return score, predictions
