"""Deterministic scripted stand-ins for a chat model.

:class:`HeuristicScript` lets the full pipeline run offline: it answers task
evaluations from a per-prompt "skill" derived by hashing, and produces
parseable reasons, edits, and paraphrases. All outputs are pure functions of
the request content with the history slot masked out, so runs that differ only
in momentum wiring receive byte-identical completions.
"""

from __future__ import annotations

import re
from hashlib import blake2b
from typing import Iterable, Sequence

from .data import Example
from .gateway import LlmRequest, ScriptExhaustedError
from .gradients import mask_history_slot

_CURRENT_PROMPT_RE = re.compile(r'My current prompt is:\n"(.*?)"\n\n', re.DOTALL)
_PARAPHRASE_INPUT_RE = re.compile(r'Input: "(.*?)"\n\n', re.DOTALL)
_NUM_GRADIENTS_RE = re.compile(r"give (\d+) reasons")


def _hash(seed: int, size: int, *parts: object) -> bytes:
    """The ``size``-byte blake2b digest of ``seed|part|...``."""
    key = "|".join(str(p) for p in (seed, *parts))
    return blake2b(key.encode("utf-8", "surrogatepass"), digest_size=size).digest()


class HeuristicScript:
    """Hash-driven responder covering all four request roles.

    Each prompt text gets a fixed accuracy in ``skill_range``; a task_eval
    answer is correct precisely when a per-(prompt, example) hash coin lands
    under that accuracy, so identical requests always yield identical answers.
    The example is the one whose input is the longest suffix after a newline;
    the text before that newline is the prompt.
    """

    def __init__(
        self,
        examples: Iterable[Example],
        label_set: Sequence[str],
        seed: int = 0,
        skill_range: tuple[float, float] = (0.3, 0.9),
        task_type: str = "classification",
    ):
        self._by_input: dict[str, Example] = {ex.input_text: ex for ex in examples}
        self._labels = list(label_set)
        self._seed = seed
        self._skill_lo, self._skill_hi = skill_range
        self._task_type = task_type
        # Per prompt text, filled by its first task_eval: the prompt's skill and
        # the UTF-8 bytes that start each of its answer coins' hash inputs.
        self._per_prompt: dict[str, tuple[float, bytes]] = {}
        # The label a wrong answer gives, per gold label.
        self._wrong = {
            gold: next((lb for lb in self._labels if lb.lower() != gold.lower()), gold)
            for gold in {ex.label for ex in self._by_input.values()}
        }

    def skill(self, prompt_text: str) -> float:
        u = int.from_bytes(_hash(self._seed, 8, "skill", prompt_text), "big") / 2**64
        return self._skill_lo + (self._skill_hi - self._skill_lo) * u

    def _answer(self, prompt_text: str, example: Example) -> str:
        entry = self._per_prompt.get(prompt_text)
        if entry is None:
            entry = self._per_prompt[prompt_text] = (
                self.skill(prompt_text),
                f"{self._seed}|answer|{prompt_text}|".encode("utf-8", "surrogatepass"),
            )
        skill, coin_prefix = entry
        # The same digest as _hash(self._seed, 8, "answer", prompt_text, example.id).
        digest = blake2b(coin_prefix + str(example.id).encode("utf-8"), digest_size=8).digest()
        correct = int.from_bytes(digest, "big") / 2**64 < skill
        if self._task_type == "math":
            return f"#### {example.label}" if correct else "#### -99999"
        return example.label if correct else self._wrong[example.label]

    def __call__(self, req: LlmRequest) -> str:
        if req.role_tag == "task_eval":
            # Longest suffix first, so a multi-line input is found whole even
            # when its last lines are another example's input.
            prompt_text, _, input_text = req.rendered_prompt.partition("\n")
            example = self._by_input.get(input_text)
            while example is None and "\n" in input_text:
                line, _, input_text = input_text.partition("\n")
                prompt_text = f"{prompt_text}\n{line}"
                example = self._by_input.get(input_text)
            if example is None:
                return self._labels[0] if self._labels else "unknown"
            return self._answer(prompt_text, example)
        masked = mask_history_slot(req.rendered_prompt)
        if req.role_tag == "gradient_gen":
            match = _NUM_GRADIENTS_RE.search(req.rendered_prompt)
            count = int(match.group(1)) if match else 1
            blocks = []
            for i in range(count):
                tag = _hash(self._seed, 4, "reason", masked, i).hex()
                blocks.append(f"<START>the wording anchors the answer format ({tag})<END>")
            return "\n".join(blocks)
        if req.role_tag == "prompt_edit":
            match = _CURRENT_PROMPT_RE.search(req.rendered_prompt)
            current = match.group(1) if match else "Answer the question."
            tag = _hash(self._seed, 4, "edit", masked).hex()
            return f"The 1 new prompt is:\n<START>{current} [rev {tag}]<END>"
        if req.role_tag == "paraphrase":
            match = _PARAPHRASE_INPUT_RE.search(req.rendered_prompt)
            current = match.group(1) if match else "Answer the question."
            tag = _hash(self._seed, 4, "paraphrase", masked).hex()
            return f"<START>{current} (alt {tag})<END>"
        raise ScriptExhaustedError(f"no script for role_tag {req.role_tag!r}")

