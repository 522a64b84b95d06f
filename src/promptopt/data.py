"""Dataset loading, splitting, the per-round sampling streams, and the numbers in math texts.

All sampling here is a pure function of (data, seed, round): reruns under the
same seed are bit-identical.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .model import ConfigError, derived_rng, read_text

FORMATS = ("tsv", "jsonl")
TASK_TYPES = ("classification", "math")


class DatasetError(ValueError):
    """Dataset file missing, malformed, or too small for the request."""


@dataclass(frozen=True)
class Example:
    id: int
    input_text: str
    label: str

    def __post_init__(self) -> None:
        if not self.input_text:
            raise ValueError("example input_text is empty")
        if not self.label:
            raise ValueError("example label is empty")


class DatasetSplit(NamedTuple):
    """Fixed train/test partition plus the task descriptor fields the scorer needs."""

    train: tuple[Example, ...]
    test: tuple[Example, ...]
    positive_label: str
    task_type: str
    label_set: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatasetSpec:
    """Descriptor naming a dataset file and how to interpret it; a bad value is a :class:`ConfigError`."""

    path: str
    format: str = "tsv"
    task_type: str = "classification"
    positive_label: str = ""
    label_set: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # A typo in the config is a config error, found before the file is opened.
        if not self.path:
            raise ConfigError("[dataset] path is empty")
        if self.format not in FORMATS:
            raise ConfigError(f"[dataset] format: expected one of {FORMATS}, got {self.format!r}")
        if self.task_type not in TASK_TYPES:
            raise ConfigError(
                f"[dataset] task_type: expected one of {TASK_TYPES}, got {self.task_type!r}"
            )


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


def math_label(label: str) -> str | None:
    """The number a math label means, in :func:`canonical_number`'s spelling; None when it holds none.

    A label that holds ``####``, a worked solution in GSM8K's form, means the
    number after its final ``####``. Any other label must be one number as a
    whole, so ``72 apples`` and ``seventy-two`` mean none.
    """
    if "####" in label:
        return parse_math_answer(label)
    number = canonical_number(label)
    return number if _NUMBER_PARTS.fullmatch(number) else None


def load(path: str | Path, format: str, task_type: str = "classification") -> list[Example]:
    """Read a TSV (``input<TAB>label``) or JSONL dataset into examples.

    A JSONL input or label is a string or a finite number, and a math label
    means a number (:func:`math_label`). Ids follow file order; labels are
    trimmed but otherwise untouched. The file is read by
    :func:`~promptopt.model.read_text`, so a bad path or byte raises :class:`DatasetError`.
    """
    if format not in FORMATS:
        raise DatasetError(f"unknown format {format!r}, expected one of {FORMATS}")
    if task_type not in TASK_TYPES:
        raise DatasetError(f"unknown task_type {task_type!r}, expected one of {TASK_TYPES}")
    file = Path(path)
    text = read_text(file, "dataset file", DatasetError)
    examples: list[Example] = []
    # str.splitlines() would also break at U+2028 and other characters inside a row.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if format == "tsv":
            parts = line.split("\t")
            if len(parts) != 2:
                raise DatasetError(f"{file}:{lineno}: expected 'input<TAB>label'")
            input_text, label = parts
        else:
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{file}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(row, dict):
                raise DatasetError(f"{file}:{lineno}: expected a JSON object, got {row!r:.40}")
            input_text = row.get("text", row.get("question"))
            label = row.get("label", row.get("answer"))
            if input_text is None or label is None:
                raise DatasetError(
                    f"{file}:{lineno}: missing 'text'/'label' (or 'question'/'answer') keys"
                )
            for value in (input_text, label):
                # A bool is an int, but `true` is neither text nor a number; nor
                # is JSON's NaN or Infinity, which no answer can be scored against.
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (str, int, float))
                    or (isinstance(value, float) and not math.isfinite(value))
                ):
                    raise DatasetError(
                        f"{file}:{lineno}: expected a string or finite number, got {value!r:.40}"
                    )
        input_text = str(input_text).strip()
        label = str(label).strip()
        if not input_text or not label:
            raise DatasetError(f"{file}:{lineno}: empty input or label")
        # Such a label could never be scored correct.
        if task_type == "math" and math_label(label) is None:
            raise DatasetError(
                f"{file}:{lineno}: expected a number or a '#### <number>' math label, got {label!r:.40}"
            )
        examples.append(Example(id=len(examples), input_text=input_text, label=label))
    if not examples:
        raise DatasetError(f"{file}: no examples")
    return examples


def make_split(
    examples: Sequence[Example],
    test_set_size: int,
    seed: int | str,
    *,
    task_type: str = "classification",
    positive_label: str = "",
    label_set: Sequence[str] | None = None,
) -> DatasetSplit:
    """Draw the test set uniformly without replacement; the rest is train.

    Without a ``label_set`` (None or empty), a classification split takes its labels from the
    examples; a math split has none. A classification ``positive_label`` that is none of the
    labels (compared case-insensitively, as F1 counts it) raises :class:`DatasetError`, so the
    default ``positive_label`` of ``""`` suits only a math split, which scores no label.
    """
    if len(examples) <= test_set_size:
        raise DatasetError(
            f"dataset too small: {len(examples)} examples for a test set of {test_set_size}"
        )
    rng = derived_rng(seed, "split")
    test_ids = set(rng.sample([ex.id for ex in examples], test_set_size))
    test = tuple(ex for ex in examples if ex.id in test_ids)
    train = tuple(ex for ex in examples if ex.id not in test_ids)
    if not label_set:
        label_set = sorted({ex.label for ex in examples}) if task_type == "classification" else ()
    if task_type == "classification" and positive_label.lower() not in map(str.lower, label_set):
        raise DatasetError(
            f"positive_label {positive_label!r} is not one of the labels {', '.join(label_set)}"
        )
    return DatasetSplit(
        train=train,
        test=test,
        positive_label=positive_label,
        task_type=task_type,
        label_set=tuple(label_set),
    )


def draw_examples(pool: Sequence[Example], size: int, rng: random.Random) -> list[Example]:
    """``size`` examples without replacement, or with replacement when ``pool`` is smaller."""
    if len(pool) >= size:
        return rng.sample(pool, size)
    return [rng.choice(pool) for _ in range(size)]


def sample_minibatch(
    split: DatasetSplit, size: int, seed: int | str, round_index: int
) -> list[Example]:
    """Per-round minibatch from train; falls back to replacement when train is tiny."""
    if not split.train:
        raise DatasetError("train split is empty")
    return draw_examples(split.train, size, derived_rng(seed, "minibatch", round_index))


def sample_by_correctness(
    minibatch: Sequence[Example],
    per_example_correctness: Mapping[int, bool],
    n: int,
    want: str,
    seed: int | str,
    round_index: int,
) -> tuple[Example, ...]:
    """Draw ``n`` minibatch examples the prompt got right (or wrong).

    When at most ``n`` distinct examples match, all of them are returned in
    id order. A sample shorter than ``n`` is a shortfall, which the caller
    counts and proceeds with; an empty sample is legal and non-fatal.
    """
    if want not in ("correct", "incorrect"):
        raise ValueError(f"want must be 'correct' or 'incorrect', got {want!r}")
    missing = [ex.id for ex in minibatch if ex.id not in per_example_correctness]
    if missing:
        raise ValueError(f"correctness missing for example ids {missing[:5]}")
    target = want == "correct"
    seen: set[int] = set()
    pool: list[Example] = []
    for ex in sorted(minibatch, key=lambda e: e.id):
        if ex.id in seen:
            continue
        seen.add(ex.id)
        if per_example_correctness[ex.id] == target:
            pool.append(ex)
    if len(pool) <= n:
        return tuple(pool)
    rng = derived_rng(seed, "by_correctness", want, round_index)
    return tuple(rng.sample(pool, n))
