"""Shared domain vocabulary: prompts, gradients, beams, history, run configuration.

All value types are immutable; state evolves only by constructing successor
objects (see :class:`PromptStore`). The records an artifact writes one per
line (:class:`Prompt`, :class:`Gradient`, :class:`Beam`) are named tuples; a
run writes each as the dict of its fields, tagged with its type.
Each declares its fields once, and :class:`Checked` runs its ``_check`` on
every build, ``_make`` and ``_replace`` included. The configuration types
(:class:`RunConfig`, :class:`BanditConfig`) are frozen dataclasses, because
the CLI walks their fields (:func:`field_types`); ``__post_init__`` checks
them, after ``dataclasses.replace`` too, so a :class:`RunConfig` that exists
is valid. A bad configuration value, a wrongly typed one included, raises
:class:`ConfigError`.
"""

from __future__ import annotations

import functools
import math
import random
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

GRADIENT_MODES = ("positive_only", "negative_only", "both")
POLARITIES = ("positive", "negative")

START_DELIM = "<START>"
END_DELIM = "<END>"


class ConfigError(ValueError):
    """Any configuration error; the CLI exits with code 2.

    A run setting that violates its contract, an input file that cannot be
    used, a malformed transcript (:class:`~promptopt.gateway.TranscriptFormatError`)
    or an empty prompt (:class:`EmptyPromptError`).
    """


def check_file(path: str | Path, what: str, error: type[Exception] = ConfigError) -> Path:
    """``path`` as a :class:`Path`; a missing path or a directory raises ``error`` naming ``what``."""
    file = Path(path)
    if not file.exists():
        raise error(f"{what} not found: {file}")
    if file.is_dir():
        raise error(f"{what} is a directory: {file}")
    return file


def read_text(path: str | Path, what: str, error: type[Exception] = ConfigError) -> str:
    """The text of the input file ``path``, read as UTF-8; a leading byte order mark is skipped.

    A missing path or a directory raises ``error`` as :func:`check_file` does;
    a byte that is not UTF-8 raises it naming the file and the line.
    Newlines are read in text mode, so CRLF becomes ``"\\n"``.
    """
    file = check_file(path, what, error)
    # Bytes that are not UTF-8 are read as lone surrogates, so the error can
    # name their line.
    text = file.read_text(encoding="utf-8-sig", errors="surrogateescape")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        lineno = text.count("\n", 0, exc.start) + 1
        byte = ord(text[exc.start]) - 0xDC00
        raise error(f"{file}:{lineno}: not UTF-8 text (byte 0x{byte:02x})") from None
    return text


@functools.cache
def field_types(cls: type) -> dict[str, type]:
    """Value type of each field of the dataclass ``cls``, read from its annotations once per class.

    The config modules postpone their annotations, so they are evaluated
    here; an optional field such as ``convergence_target: float | None``
    takes the type of its non-None member, and ``tuple[str, ...]`` is
    ``tuple``.
    """
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is tuple:
            types[f.name] = tuple
            continue
        members = [t for t in typing.get_args(hint) if t is not type(None)]
        types[f.name] = members[0] if members else hint
    return types


def check_field_types(config: object, prefix: str = "") -> None:
    """Raise :class:`ConfigError` naming the first field of the dataclass ``config`` not of its type.

    Each field's type is the one :func:`field_types` reads. An int is a valid
    float, a bool is no int or float, a tuple holds strings, as every tuple
    field is ``tuple[str, ...]``, and a field whose default is None may be
    None. The message names the field after ``prefix``.
    """
    types = field_types(type(config))
    for f in fields(config):
        value, kind = getattr(config, f.name), types[f.name]
        if value is None and f.default is None:
            continue
        if not isinstance(value, (int, float) if kind is float else kind) or (
            isinstance(value, bool) and kind is not bool
        ):
            raise ConfigError(f"{prefix}{f.name}: expected {kind.__name__}, got {value!r:.40}")
        if kind is tuple and not all(isinstance(item, str) for item in value):
            raise ConfigError(f"{prefix}{f.name}: expected a tuple of str, got {value!r:.40}")


class EmptyPromptError(ConfigError):
    """Prompt text is empty after trimming."""


class Checked:
    """Base of a record that checks its own fields, however it is built.

    A record is declared as ``class Record(Checked, _RecordFields)``: the
    ``NamedTuple`` ``_RecordFields`` declares the fields and their defaults
    once, and the record adds only a ``_check`` method, which raises on a bad
    value. ``__new__`` runs the named tuple's generated constructor and then
    ``_check``; ``_make``, and so ``_replace``, goes through ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _PromptFields(NamedTuple):
    id: int
    text: str
    round: int
    parent_id: int | None = None
    gradient_id: int | None = None
    train_score: float | None = None
    test_score: float | None = None


class Prompt(Checked, _PromptFields):
    """One candidate prompt with lineage and cached scores.

    ``round`` is the beam-search round at which the prompt was created; only
    the seed prompt (round 0) has no parent, and a prompt with a gradient has
    a parent. Text that is blank after trimming raises
    :class:`EmptyPromptError`, a broken lineage ``ValueError``.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.text.strip():
            raise EmptyPromptError("prompt text is empty after trimming")
        if (self.round == 0) != (self.parent_id is None):
            raise ValueError("round 0 iff parent_id absent")
        if self.gradient_id is not None and self.parent_id is None:
            raise ValueError("gradient_id requires a parent_id")


class _GradientFields(NamedTuple):
    id: int
    text: str
    source_prompt_id: int
    round: int
    polarity: str = "positive"


class Gradient(Checked, _GradientFields):
    """One natural-language reason extracted from a completion.

    Attributed to the prompt it appraised and the round it was generated in.
    Its text is not blank and holds no wrap delimiter, and its polarity is
    one of :data:`POLARITIES`; anything else raises ``ValueError``.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.text.strip():
            raise ValueError("gradient text is empty")
        if START_DELIM in self.text or END_DELIM in self.text:
            raise ValueError("gradient text contains a wrap delimiter")
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {self.polarity!r}")


class _BeamFields(NamedTuple):
    round: int
    prompts: tuple[int, ...]


class Beam(Checked, _BeamFields):
    """Ordered prompt ids retained after one selection round (best first); no id twice."""

    __slots__ = ()

    def _check(self) -> None:
        if len(set(self.prompts)) != len(self.prompts):
            raise ValueError("duplicate prompt ids within a beam")


@dataclass
class GradientHistory:
    """Round-indexed pools of positive gradients kept by surviving prompts.

    ``pools[i]`` holds the gradients used to create round-``i`` survivors;
    ``sampled[i]`` is the single member drawn from that round's pool.
    """

    pools: dict[int, tuple[int, ...]] = field(default_factory=dict)
    sampled: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BanditConfig:
    """Selection-loop knobs: time steps, per-pull sample size, exploration weight."""

    time_steps: int = 25
    sample_size: int = 32
    exploration: float = 1.0

    def __post_init__(self) -> None:
        check_field_types(self, "bandit.")
        if self.time_steps < 1:
            raise ConfigError("bandit.time_steps must be a positive integer")
        if self.sample_size < 1:
            raise ConfigError("bandit.sample_size must be a positive integer")
        if not math.isfinite(self.exploration) or self.exploration < 0:
            raise ConfigError("bandit.exploration must be a finite number >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Full hyperparameter set for one optimization run.

    Every instance holds valid values, however it was built (``replace``
    included): a field out of range or not of its type raises
    :class:`ConfigError` naming it.
    """

    beam_width: int = 4
    search_depth: int = 6
    minibatch_size: int = 64
    candidates_per_parent: int = 8
    num_gradients: int = 2
    num_correct_examples: int = 3
    temperature: float = 0.0
    test_set_size: int = 200
    gradient_mode: str = "positive_only"
    momentum_enabled: bool = True
    bandit: BanditConfig = field(default_factory=BanditConfig)
    rng_seed: int = 0
    paraphrases_per_parent: int = 0
    convergence_target: float | None = None
    emit_predictions: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        positive_fields = (
            "beam_width",
            "search_depth",
            "minibatch_size",
            "candidates_per_parent",
            "num_gradients",
            "num_correct_examples",
            "test_set_size",
        )
        for name in positive_fields:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        # NaN compares false with everything, so a range check alone lets it
        # through; it is not JSON and would reach the transcript, the live
        # request body and every UCB value.
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ConfigError("temperature must be a finite number >= 0")
        if self.convergence_target is not None and not math.isfinite(self.convergence_target):
            raise ConfigError("convergence_target must be a finite number")
        if self.paraphrases_per_parent < 0:
            raise ConfigError("paraphrases_per_parent must be >= 0")
        if self.candidates_per_parent % self.num_gradients != 0:
            raise ConfigError(
                "candidates_per_parent must be divisible by num_gradients "
                f"({self.candidates_per_parent} % {self.num_gradients} != 0)"
            )
        if self.gradient_mode not in GRADIENT_MODES:
            raise ConfigError(f"gradient_mode must be one of {GRADIENT_MODES}")


def new_seed_prompt(text: str) -> Prompt:
    """Round-0 seed prompt (id 0, no parent) of ``text``, trimmed; :class:`Prompt` refuses blank text."""
    return Prompt(id=0, text=text.strip(), round=0)


class PromptStore:
    """Creation-ordered registry handing out deterministic sequence ids.

    Each record's id is how many of its kind the store held before it, so the
    seed prompt is 0 and a run under a fixed seed reproduces the exact same id
    assignment.
    """

    def __init__(self) -> None:
        self.prompts: dict[int, Prompt] = {}
        self.gradients: dict[int, Gradient] = {}

    def new_prompt(
        self,
        text: str,
        round: int,
        parent_id: int | None = None,
        gradient_id: int | None = None,
    ) -> Prompt:
        prompt = Prompt(
            id=len(self.prompts),
            text=text,
            round=round,
            parent_id=parent_id,
            gradient_id=gradient_id,
        )
        self.prompts[prompt.id] = prompt
        return prompt

    def new_gradient(
        self, text: str, source_prompt_id: int, round: int, polarity: str
    ) -> Gradient:
        gradient = Gradient(
            id=len(self.gradients),
            text=text,
            source_prompt_id=source_prompt_id,
            round=round,
            polarity=polarity,
        )
        self.gradients[gradient.id] = gradient
        return gradient

    def set_train_score(self, prompt_id: int, score: float) -> Prompt:
        updated = self.prompts[prompt_id]._replace(train_score=score)
        self.prompts[prompt_id] = updated
        return updated

    def set_test_score(self, prompt_id: int, score: float) -> Prompt:
        updated = self.prompts[prompt_id]._replace(test_score=score)
        self.prompts[prompt_id] = updated
        return updated


def derived_rng(seed: int | str, *stream: object) -> random.Random:
    """Independent RNG stream keyed by (seed, *stream).

    String seeding hashes through SHA-512 inside ``random.Random``, so streams
    are stable across processes and platforms.
    """
    return random.Random("|".join(str(part) for part in (seed, *stream)))
