"""Dataset loading, splitting, and the per-round sampling streams.

All sampling here is a pure function of (data, seed, round): reruns under the
same seed are bit-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .model import ConfigError, derived_rng

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


@dataclass(frozen=True)
class DatasetSplit:
    """Fixed train/test partition plus the task descriptor fields the scorer needs."""

    train: tuple[Example, ...]
    test: tuple[Example, ...]
    positive_label: str
    task_type: str
    label_set: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExampleSample:
    """Examples drawn by correctness for gradient generation.

    ``shortfall`` marks that fewer matching examples existed than were asked
    for; the caller proceeds with the smaller (possibly empty) sample.
    """

    examples: tuple[Example, ...]
    shortfall: bool = False


@dataclass(frozen=True)
class DatasetSpec:
    """Descriptor naming a dataset file and how to interpret it."""

    path: str
    format: str = "tsv"
    task_type: str = "classification"
    positive_label: str = ""
    label_set: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # A typo in the config is a config error, found before the file is opened.
        if self.format not in FORMATS:
            raise ConfigError(f"[dataset] format: expected one of {FORMATS}, got {self.format!r}")
        if self.task_type not in TASK_TYPES:
            raise ConfigError(
                f"[dataset] task_type: expected one of {TASK_TYPES}, got {self.task_type!r}"
            )


def load(path: str | Path, format: str, task_type: str = "classification") -> list[Example]:
    """Read a TSV (``input<TAB>label``) or JSONL dataset into examples.

    Ids follow file order; labels are trimmed but otherwise untouched.
    """
    if format not in FORMATS:
        raise DatasetError(f"unknown format {format!r}, expected one of {FORMATS}")
    if task_type not in TASK_TYPES:
        raise DatasetError(f"unknown task_type {task_type!r}, expected one of {TASK_TYPES}")
    file = Path(path)
    if not file.exists():
        raise DatasetError(f"dataset file not found: {file}")
    if file.is_dir():
        raise DatasetError(f"dataset file is a directory: {file}")
    # Bytes that are not UTF-8 are read as lone surrogates, so the error can
    # name their line.
    text = file.read_text(encoding="utf-8", errors="surrogateescape")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        lineno = text.count("\n", 0, exc.start) + 1
        byte = ord(text[exc.start]) - 0xDC00
        raise DatasetError(f"{file}:{lineno}: not UTF-8 text (byte 0x{byte:02x})") from None
    examples: list[Example] = []
    # Reading in text mode turns CRLF into "\n"; str.splitlines() would also
    # break at U+2028, form feeds and other characters that may sit inside a row.
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
        input_text = str(input_text).strip()
        label = str(label).strip()
        if not input_text or not label:
            raise DatasetError(f"{file}:{lineno}: empty input or label")
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
    """Draw the test set uniformly without replacement; the rest is train."""
    if len(examples) <= test_set_size:
        raise DatasetError(
            f"dataset too small: {len(examples)} examples for a test set of {test_set_size}"
        )
    rng = derived_rng(seed, "split")
    test_ids = set(rng.sample([ex.id for ex in examples], test_set_size))
    test = tuple(ex for ex in examples if ex.id in test_ids)
    train = tuple(ex for ex in examples if ex.id not in test_ids)
    if label_set is None:
        label_set = sorted({ex.label for ex in examples})
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
) -> ExampleSample:
    """Draw ``n`` minibatch examples the prompt got right (or wrong).

    When fewer than ``n`` match, the whole matching subset is returned with
    the shortfall flag set; an empty sample is legal and non-fatal.
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
        return ExampleSample(examples=tuple(pool), shortfall=len(pool) < n)
    rng = derived_rng(seed, "by_correctness", want, round_index)
    return ExampleSample(examples=tuple(rng.sample(pool, n)))
