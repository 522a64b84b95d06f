"""Deterministic scripted stand-ins for a chat model.

:class:`HeuristicScript` lets the full pipeline run offline: it answers task
evaluations from a per-prompt "skill" derived by hashing, and produces
parseable reasons, edits, and paraphrases. All outputs are pure functions of
the request content with the history slot masked out, so runs that differ only
in momentum wiring receive byte-identical completions.

A task evaluation is answered from two tables: one per example input, built
at construction (the example id's bytes and its right and wrong answers), and
one per prompt text, filled on that prompt's first task evaluation (its skill
and a hash state already fed the start of its answer coins' hash input). An
answer costs two dict lookups and one copy of the hash state.
"""

from __future__ import annotations

import re
from hashlib import blake2b
from typing import Iterable, Sequence

from .data import Example, math_label
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

    Per example input, kept from construction: the example id's UTF-8 bytes
    and its right and wrong answers. For classification these are the gold
    label and the first label that differs from it beyond case (the gold
    itself when none does); for math, ``#### <gold>`` and ``#### -99999``,
    or ``#### -99998`` when the gold means -99999, so that a wrong coin never
    scores. Per prompt text, kept from its first task_eval: its skill and a
    blake2b state already fed ``seed|answer|prompt text|``. Each answer
    copies that state and feeds it the example id.
    """

    def __init__(
        self,
        examples: Iterable[Example],
        label_set: Sequence[str],
        seed: int = 0,
        skill_range: tuple[float, float] = (0.3, 0.9),
        task_type: str = "classification",
    ):
        self._labels = list(label_set)
        self._seed = seed
        self._skill_lo, self._skill_hi = skill_range
        is_math = task_type == "math"
        # Per example input: the example id's UTF-8 bytes, its right answer and its wrong one.
        self._by_input: dict[str, tuple[bytes, str, str]] = {}
        # The wrong answer per gold label: the first other label, or a number that is not the gold.
        wrong: dict[str, str] = {}
        for ex in examples:
            gold = ex.label
            if gold not in wrong:
                if is_math:
                    wrong[gold] = "#### -99998" if math_label(gold) == "-99999" else "#### -99999"
                else:
                    wrong[gold] = next((lb for lb in self._labels if lb.lower() != gold.lower()), gold)
            right = f"#### {gold}" if is_math else gold
            self._by_input[ex.input_text] = (str(ex.id).encode("utf-8"), right, wrong[gold])
        # Per prompt text, filled by its first task_eval: the prompt's skill and a
        # hash state fed the start of each of its answer coins' hash inputs.
        self._per_prompt: dict[str, tuple[float, blake2b]] = {}

    def skill(self, prompt_text: str) -> float:
        u = int.from_bytes(_hash(self._seed, 8, "skill", prompt_text), "big") / 2**64
        return self._skill_lo + (self._skill_hi - self._skill_lo) * u

    def __call__(self, req: LlmRequest) -> str:
        if req.role_tag == "task_eval":
            # Longest suffix first, so a multi-line input is found whole even
            # when its last lines are another example's input.
            by_input = self._by_input
            prompt_text, _, input_text = req.rendered_prompt.partition("\n")
            answers = by_input.get(input_text)
            while answers is None and "\n" in input_text:
                line, _, input_text = input_text.partition("\n")
                prompt_text = f"{prompt_text}\n{line}"
                answers = by_input.get(input_text)
            if answers is None:
                return self._labels[0] if self._labels else "unknown"
            entry = self._per_prompt.get(prompt_text)
            if entry is None:
                start = f"{self._seed}|answer|{prompt_text}|".encode("utf-8", "surrogatepass")
                state = blake2b(start, digest_size=8)
                entry = self._per_prompt[prompt_text] = (self.skill(prompt_text), state)
            skill, state = entry
            id_bytes, right, wrong = answers
            # The same digest as _hash(self._seed, 8, "answer", prompt_text, example.id).
            coin = state.copy()
            coin.update(id_bytes)
            return right if int.from_bytes(coin.digest(), "big") / 2**64 < skill else wrong
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

