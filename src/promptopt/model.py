"""Shared domain vocabulary: prompts, gradients, beams, history, run configuration.

All value types are frozen dataclasses; state evolves only by constructing
successor objects (see :class:`PromptStore`). Each checks its fields when it is
built, by ``dataclasses.replace`` too, so a :class:`RunConfig` that exists is
valid; a bad configuration value raises :class:`ConfigError`. The types an
artifact writes one per line (prompts, gradients, beams) serialize to a
self-describing one-line text record via :func:`to_record`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

GRADIENT_MODES = ("positive_only", "negative_only", "both")
POLARITIES = ("positive", "negative")

START_DELIM = "<START>"
END_DELIM = "<END>"


class ConfigError(ValueError):
    """A run configuration field violates its contract."""


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


class EmptyPromptError(ValueError):
    """Prompt text is empty after trimming."""


@dataclass(frozen=True)
class Prompt:
    """One candidate prompt with lineage and cached scores.

    ``round`` is the beam-search round at which the prompt was created; only
    the seed prompt (round 0) has no parent.
    """

    id: int
    text: str
    round: int
    parent_id: int | None = None
    gradient_id: int | None = None
    train_score: float | None = None
    test_score: float | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise EmptyPromptError("prompt text is empty after trimming")
        if (self.round == 0) != (self.parent_id is None):
            raise ValueError("round 0 iff parent_id absent")
        if self.gradient_id is not None and self.parent_id is None:
            raise ValueError("gradient_id requires a parent_id")


@dataclass(frozen=True)
class Gradient:
    """One natural-language reason extracted from a completion.

    Attributed to the prompt it appraised and the round it was generated in.
    """

    id: int
    text: str
    source_prompt_id: int
    round: int
    polarity: str = "positive"

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("gradient text is empty")
        if START_DELIM in self.text or END_DELIM in self.text:
            raise ValueError("gradient text contains a wrap delimiter")
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity {self.polarity!r}")


@dataclass(frozen=True)
class Beam:
    """Ordered prompt ids retained after one selection round (best first)."""

    round: int
    prompts: tuple[int, ...]

    def __post_init__(self) -> None:
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
    included): an out-of-range field raises :class:`ConfigError` naming it.
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
    """Build the round-0 seed prompt (id 0, no parent, no scores)."""
    trimmed = text.strip()
    if not trimmed:
        raise EmptyPromptError("seed prompt text is empty after trimming")
    return Prompt(id=0, text=trimmed, round=0)


class PromptStore:
    """Creation-ordered registry handing out deterministic sequence ids.

    Ids are plain counters assigned in creation order, so a run under a fixed
    seed reproduces the exact same id assignment.
    """

    def __init__(self) -> None:
        self.prompts: dict[int, Prompt] = {}
        self.gradients: dict[int, Gradient] = {}
        self._next_prompt_id = 0
        self._next_gradient_id = 0

    def adopt(self, prompt: Prompt) -> Prompt:
        if prompt.id in self.prompts:
            raise ValueError(f"prompt id {prompt.id} already registered")
        self.prompts[prompt.id] = prompt
        self._next_prompt_id = max(self._next_prompt_id, prompt.id + 1)
        return prompt

    def new_prompt(
        self,
        text: str,
        round: int,
        parent_id: int | None = None,
        gradient_id: int | None = None,
    ) -> Prompt:
        prompt = Prompt(
            id=self._next_prompt_id,
            text=text,
            round=round,
            parent_id=parent_id,
            gradient_id=gradient_id,
        )
        self.prompts[prompt.id] = prompt
        self._next_prompt_id += 1
        return prompt

    def new_gradient(
        self, text: str, source_prompt_id: int, round: int, polarity: str
    ) -> Gradient:
        gradient = Gradient(
            id=self._next_gradient_id,
            text=text,
            source_prompt_id=source_prompt_id,
            round=round,
            polarity=polarity,
        )
        self.gradients[gradient.id] = gradient
        self._next_gradient_id += 1
        return gradient

    def set_train_score(self, prompt_id: int, score: float) -> Prompt:
        updated = replace(self.prompts[prompt_id], train_score=score)
        self.prompts[prompt_id] = updated
        return updated

    def set_test_score(self, prompt_id: int, score: float) -> Prompt:
        updated = replace(self.prompts[prompt_id], test_score=score)
        self.prompts[prompt_id] = updated
        return updated


def derived_rng(seed: int | str, *stream: object) -> random.Random:
    """Independent RNG stream keyed by (seed, *stream).

    String seeding hashes through SHA-512 inside ``random.Random``, so streams
    are stable across processes and platforms.
    """
    return random.Random("|".join(str(part) for part in (seed, *stream)))


_TYPE_NAMES = {Prompt: "prompt", Gradient: "gradient", Beam: "beam"}


def to_record(obj: object) -> str:
    """Serialize a core type to one self-describing JSON line.

    The fields are read from the instance's ``__dict__``, not copied by
    ``dataclasses.asdict``: every field of these types is a JSON scalar or a
    tuple of ints, which ``json`` writes as ``asdict`` would leave them.
    """
    name = _TYPE_NAMES.get(type(obj))
    if name is None:
        raise TypeError(f"{type(obj).__name__} has no record form")
    return json.dumps({"type": name, **vars(obj)}, sort_keys=True)
