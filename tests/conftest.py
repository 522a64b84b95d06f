from __future__ import annotations

import re
from collections import deque
from typing import Mapping, NamedTuple, Sequence

import pytest

from promptopt import (
    DatasetSplit,
    Example,
    Gateway,
    GradientHistory,
    HeuristicScript,
    LlmRequest,
    RunConfig,
    BanditConfig,
    ScriptedBackend,
    make_split,
    new_seed_prompt,
)
from promptopt.gateway import ScriptExhaustedError

SEED_TEXT = "Is this statement true? Answer Yes or No."


def toy_examples(n: int = 120) -> list[Example]:
    return [
        Example(i, f"sample statement number {i} about an everyday event", "Yes" if i % 2 == 0 else "No")
        for i in range(n)
    ]


def small_config(**overrides) -> RunConfig:
    base = dict(
        beam_width=2,
        search_depth=2,
        minibatch_size=8,
        candidates_per_parent=4,
        num_gradients=2,
        num_correct_examples=2,
        test_set_size=20,
        bandit=BanditConfig(time_steps=8, sample_size=4),
        rng_seed=7,
    )
    base.update(overrides)
    return RunConfig(**base)


def call(gateway: Gateway, role_tag: str, rendered_prompt: str) -> str:
    """One request's answer text: a batch of one through :meth:`Gateway.complete_many`."""
    return gateway.complete_many(role_tag, [rendered_prompt])[0]


def task_split(
    task_type: str = "classification", label_set: tuple[str, ...] = (), positive_label: str = ""
) -> DatasetSplit:
    """A split with no examples: only the task fields that ``evaluate_prompt`` reads."""
    return DatasetSplit((), (), positive_label, task_type, label_set)


def scripted_gateway(
    examples, label_set, seed: int = 7, temperature: float = 0.0, **script_kwargs
) -> Gateway:
    responder = HeuristicScript(examples, label_set, seed=seed, **script_kwargs)
    return Gateway(ScriptedBackend(responder), temperature)


@pytest.fixture
def examples():
    return toy_examples()


@pytest.fixture
def split(examples):
    return make_split(examples, 20, 7, task_type="classification", positive_label="Yes")


@pytest.fixture
def cfg():
    return small_config()


@pytest.fixture
def gateway(examples, split):
    return scripted_gateway(examples, split.label_set)


@pytest.fixture
def seed_prompt():
    return new_seed_prompt(SEED_TEXT)


class SequenceScript:
    """Canned per-role response queues; raises once a queue is exhausted."""

    def __init__(self, responses: Mapping[str, Sequence[str]]):
        self._queues = {role: deque(texts) for role, texts in responses.items()}

    def __call__(self, req: LlmRequest) -> str:
        queue = self._queues.get(req.role_tag)
        if not queue:
            raise ScriptExhaustedError(f"script exhausted for role_tag {req.role_tag!r}")
        return queue.popleft()


class ConfusionCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


def confusion_counts(
    golds: Sequence[str], parsed: Sequence[str | None], positive_label: str
) -> ConfusionCounts:
    """Tally binary confusion counts; unparsed predictions count as negative."""
    if len(golds) != len(parsed):
        raise ValueError("golds and parsed have different lengths")
    positive = positive_label.lower()
    tp = fp = fn = tn = 0
    for gold, pred in zip(golds, parsed):
        gold_pos = gold.lower() == positive
        pred_pos = pred is not None and pred.lower() == positive
        if gold_pos and pred_pos:
            tp += 1
        elif gold_pos:
            fn += 1
        elif pred_pos:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


# The history slot sits between this anchor pair in the four gradient and
# edit templates.
_HISTORY_SLOT_RE = re.compile(
    r"of past\s+iterations of this prompt:\n(.*?)\n\nBased on the above information", re.DOTALL
)


def extract_history_binding(rendered: str) -> str | None:
    """The rendered history binding, or None when the request has no slot."""
    match = _HISTORY_SLOT_RE.search(rendered)
    return match.group(1) if match else None


def check_history(history: GradientHistory) -> None:
    """Raise unless each round's sampled gradient is a member of that round's pool."""
    for round_index, gradient_id in history.sampled.items():
        if gradient_id not in history.pools.get(round_index, ()):
            raise ValueError(f"sampled[{round_index}] is not in its pool")
