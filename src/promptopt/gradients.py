"""Meta-prompt templates, delimiter parsing, and candidate expansion.

Two static templates drive refinement: one elicits natural-language reasons
("gradients") for a prompt's behaviour on sampled examples, the other applies
those reasons to produce a child prompt. Negative mirrors and a paraphrase
template support the baseline and ablation modes. Completions wrap payloads in
``<START>``/``<END>`` markers.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .data import Example
from .gateway import Gateway
from .model import END_DELIM, START_DELIM, ConfigError, Gradient, Prompt, PromptStore, RunConfig, read_text


def _warn_shortfall(message: str, *args: object) -> None:
    """Log a parse shortfall; ``logging`` is imported only when one happens."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


HISTORY_EMPTY = "(none)"


class TemplateError(ValueError):
    """A template slot was left unbound at render time."""


TAU_BODY = """\
I'm trying to write a zero-shot {task_type} prompt.

My current prompt is:
"{prompt}"

This prompt gets the following examples correct:
{correct_string}

In addition, consider the following strengths of past
iterations of this prompt:
{positive_gradient_history}

Based on the above information, give {num_gradients} reasons why the
prompt could have gotten these examples correct.

Wrap each reason with <START> and <END>
"""

ALPHA_BODY = """\
I'm trying to write a zero-shot {task_type} solver.

My current prompt is:
"{prompt}"

It gets the following examples correct:
{correct_string}

Based on these examples the strengths
with this current prompt are that {positive_feedback_str}

Consider the following strengths
of past iterations of this prompt:
{positive_gradient_history}

Based on the above information,
modify and revise the current prompt to create a new
prompt which improves upon the strengths of the
original wording.
The new prompt is wrapped with <START> and <END>.

The 1 new prompt is:
"""

# Mirrors of the two templates above for the negative-gradient modes:
# "correct" becomes "wrong" and "strengths" become "weaknesses". The history
# anchor line is kept identical so transcript tooling can locate the slot.
TAU_NEGATIVE_BODY = """\
I'm trying to write a zero-shot {task_type} prompt.

My current prompt is:
"{prompt}"

This prompt gets the following examples wrong:
{correct_string}

In addition, consider the following weaknesses of past
iterations of this prompt:
{positive_gradient_history}

Based on the above information, give {num_gradients} reasons why the
prompt could have gotten these examples wrong.

Wrap each reason with <START> and <END>
"""

ALPHA_NEGATIVE_BODY = """\
I'm trying to write a zero-shot {task_type} solver.

My current prompt is:
"{prompt}"

It gets the following examples wrong:
{correct_string}

Based on these examples the weaknesses
with this current prompt are that {positive_feedback_str}

Consider the following weaknesses
of past iterations of this prompt:
{positive_gradient_history}

Based on the above information,
modify and revise the current prompt to create a new
prompt which fixes the weaknesses of the
original wording.
The new prompt is wrapped with <START> and <END>.

The 1 new prompt is:
"""

PARAPHRASE_BODY = """\
Generate a variation of the following instruction while keeping the semantic meaning.

Input: "{prompt}"

Wrap the new instruction with <START> and <END>.

Output:
"""

class TemplateSet(NamedTuple):
    """The body of each of the five templates in play; defaults are the embedded bodies."""

    tau: str = TAU_BODY
    alpha: str = ALPHA_BODY
    tau_negative: str = TAU_NEGATIVE_BODY
    alpha_negative: str = ALPHA_NEGATIVE_BODY
    paraphrase: str = PARAPHRASE_BODY

    @classmethod
    def from_dir(cls, directory: str | Path) -> "TemplateSet":
        """Override any of the defaults with ``<name>.txt`` files in a directory.

        An override may use only the slots of the default it replaces, which
        are the slots the engine binds for that template. A ``directory``
        that is not one, or a ``.txt`` file that names no template, is a
        directory, is not UTF-8 text or names another slot, raises
        :class:`ConfigError` naming it, so no run starts with it.
        """
        directory = Path(directory)
        if not directory.is_dir():
            problem = "is not a directory" if directory.exists() else "not found"
            raise ConfigError(f"template directory {problem}: {directory}")
        overrides = {}
        for file in sorted(directory.glob("*.txt")):
            default = cls._field_defaults.get(file.stem)
            if default is None:
                names = ", ".join(f"{name}.txt" for name in cls._fields)
                raise ConfigError(f"template file {file} names no template; expected one of {names}")
            body = read_text(file, "template file")
            known = set(_SLOT_RE.findall(default))
            unknown = set(_SLOT_RE.findall(body)) - known
            if unknown:
                raise ConfigError(
                    f"template file {file}: unknown slots {sorted(unknown)}; "
                    f"{file.stem} takes {sorted(known)}"
                )
            overrides[file.stem] = body
        return cls(**overrides)

    def generator(self, polarity: str) -> str:
        return self.tau if polarity == "positive" else self.tau_negative

    def editor(self, polarity: str) -> str:
        return self.alpha if polarity == "positive" else self.alpha_negative


_SLOT_RE = re.compile(r"\{([a-z_]+)\}")


def render(body: str, bindings: Mapping[str, object]) -> str:
    """Pure slot substitution in a template body; raises :class:`TemplateError` on an unbound slot."""

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in bindings:
            raise TemplateError(f"unbound slot '{name}'")
        return str(bindings[name])

    return _SLOT_RE.sub(substitute, body)


_SPAN_RE = re.compile(
    re.escape(START_DELIM) + r"((?:(?!" + re.escape(START_DELIM) + r").)*?)" + re.escape(END_DELIM),
    re.DOTALL,
)


def parse_delimited(raw: str) -> list[str]:
    """Inner texts of all non-overlapping delimiter spans, in order, trimmed.

    Each closer pairs with the nearest preceding opener, so stray unmatched
    delimiters around a payload never swallow it, and a span never holds a
    delimiter: an opener inside it would be the nearer one, and the first
    closer after the opener ends it.
    """
    return [match.group(1).strip() for match in _SPAN_RE.finditer(raw)]


# The history slot sits between this anchor pair in all four gradient/edit
# templates; masking it lets tooling compare transcripts across momentum modes.
_HISTORY_SLOT_RE = re.compile(
    r"(of past\s+iterations of this prompt:\n).*?(\n\nBased on the above information)",
    re.DOTALL,
)


def mask_history_slot(rendered: str) -> str:
    """Replace the rendered history binding with the fixed placeholder ``<HISTORY>``."""
    return _HISTORY_SLOT_RE.sub(r"\g<1><HISTORY>\g<2>", rendered, count=1)


def format_example_block(sample: Sequence[Example]) -> str:
    """Input/answer blocks separated by blank lines, as bound into templates."""
    parts = [f"Input: {ex.input_text}\nCorrect answer: {ex.label}" for ex in sample]
    return "\n\n".join(parts)


class GradientEngine:
    """Runs the generate/apply/paraphrase calls for one optimization run."""

    def __init__(
        self,
        cfg: RunConfig,
        gateway: Gateway,
        store: PromptStore,
        templates: TemplateSet,
        task_label: str,
    ):
        self.cfg = cfg
        self.gateway = gateway
        self.store = store
        self.templates = templates
        self.task_label = task_label
        self.parse_shortfalls = 0
        self.sample_shortfalls = 0

    @property
    def edits_per_gradient(self) -> int:
        return self.cfg.candidates_per_parent // self.cfg.num_gradients

    def generate_gradients(
        self,
        parent: Prompt,
        sample: Sequence[Example],
        history_text: str,
        round_index: int,
        polarity: str,
        count: int,
    ) -> list[Gradient]:
        """One generator call; keeps at most ``count`` parsed reasons."""
        rendered = render(
            self.templates.generator(polarity),
            {
                "task_type": self.task_label,
                "prompt": parent.text,
                "correct_string": format_example_block(sample),
                "positive_gradient_history": history_text,
                "num_gradients": count,
            },
        )
        text = self.gateway.complete_many("gradient_gen", [rendered])[0]
        spans = [s for s in parse_delimited(text) if s]
        if not spans:
            self.parse_shortfalls += 1
            _warn_shortfall("no parseable reasons for prompt %d (round %d)", parent.id, round_index)
        return [
            self.store.new_gradient(
                text=span, source_prompt_id=parent.id, round=round_index, polarity=polarity
            )
            for span in spans[:count]
        ]

    def apply_gradient(
        self,
        parent: Prompt,
        gradients: Sequence[Gradient],
        sample: Sequence[Example],
        history_text: str,
        round_index: int,
        ordinal_start: int,
    ) -> list[Prompt]:
        """Edit the parent along one polarity's gradients via one batch of editor calls.

        The editor prompt carries the newline-joined texts of ``gradients``,
        which must be non-empty and share a polarity. Each gradient gets
        ``edits_per_gradient`` calls, so child ``j`` of the batch is
        attributed to ``gradients[j // edits_per_gradient]``. Each call
        carries a distinct "Variant j of k" ordinal, counting from
        ``ordinal_start``, so temperature-0 backends still produce a diverse
        candidate pool.
        """
        rendered_base = render(
            self.templates.editor(gradients[0].polarity),
            {
                "task_type": self.task_label,
                "prompt": parent.text,
                "correct_string": format_example_block(sample),
                "positive_feedback_str": "\n".join(g.text for g in gradients),
                "positive_gradient_history": history_text,
            },
        )
        total = self.cfg.candidates_per_parent
        owners = [g for g in gradients for _ in range(self.edits_per_gradient)]
        ordinals = range(ordinal_start, ordinal_start + len(owners))
        texts = self.gateway.complete_many(
            "prompt_edit",
            [f"{rendered_base}\nVariant {ordinal} of {total}." for ordinal in ordinals],
        )
        return self._children(parent, texts, round_index, owners, ordinal_start)

    def paraphrase_expand(self, parent: Prompt, n: int, round_index: int) -> list[Prompt]:
        """One batch of n paraphrase calls; each gives one reworded child with no gradient."""
        rendered = render(self.templates.paraphrase, {"prompt": parent.text})
        texts = self.gateway.complete_many(
            "paraphrase",
            [f"{rendered}\nVariant {ordinal} of {n}." for ordinal in range(1, n + 1)],
        )
        return self._children(parent, texts, round_index, [None] * n)

    def _children(
        self,
        parent: Prompt,
        texts: Sequence[str],
        round_index: int,
        gradients: Sequence[Gradient | None],
        ordinal_start: int = 1,
    ) -> list[Prompt]:
        """One child per answer with a span that holds text, from the first such span.

        Each child carries its answer's gradient; paraphrases have ``None``.
        """
        children: list[Prompt] = []
        for ordinal, (answer, grad) in enumerate(zip(texts, gradients), start=ordinal_start):
            gradient_id = grad.id if grad is not None else None
            text = next((span for span in parse_delimited(answer) if span), "")
            if not text:
                self.parse_shortfalls += 1
                what = f"edit along gradient {gradient_id}" if grad is not None else "paraphrase"
                _warn_shortfall("unparseable %s for prompt %d variant %d", what, parent.id, ordinal)
                continue
            children.append(
                self.store.new_prompt(
                    text=text, round=round_index, parent_id=parent.id, gradient_id=gradient_id
                )
            )
        return children
