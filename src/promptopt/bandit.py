"""UCB bandit selection over candidate prompts.

Each time step samples a fresh training subset, pulls the arm with the highest
upper confidence bound, and updates that arm's running statistics. Unpulled
arms score +infinity so every arm is explored before any is repeated. The
update pair is the sample-weighted accumulation (N grows by the sample size,
Q by r/N against the post-update N).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .data import Example, draw_examples
from .model import BanditConfig, Prompt

RewardFn = Callable[[Prompt, Sequence[Example]], float]


@dataclass
class ArmState:
    prompt_id: int
    N: int = 0
    Q: float = 0.0


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[Prompt, ...]
    arms: tuple[ArmState, ...]  # final table, ordered by prompt id


def ucb_value(arm: ArmState, t: int, c_v: float) -> float:
    """Q plus the exploration bonus; +infinity for a never-pulled arm."""
    if t < 1:
        raise ValueError("t is 1-based")
    if arm.N == 0:
        return math.inf
    return arm.Q + c_v * math.sqrt(math.log(t) / arm.N)


def select(
    candidates: Sequence[Prompt],
    train: Sequence[Example],
    cfg: BanditConfig,
    b: int,
    rng: random.Random,
    evaluate: RewardFn,
) -> SelectionResult:
    """Run the bandit for ``cfg.time_steps`` and keep the top ``b`` prompts by Q.

    ``evaluate`` scores a prompt on a sampled subset (the production path wires
    it to the gateway-backed metric). Ties in the argmax and in the final
    ranking break toward the lowest prompt id, which makes selection
    deterministic given (candidates, seed, backend script).
    """
    if not candidates:
        raise ValueError("candidates is empty")
    if len({p.id for p in candidates}) != len(candidates):
        raise ValueError("duplicate candidate prompt ids")
    by_id = {p.id: p for p in candidates}
    arms = [ArmState(prompt_id=p.id) for p in sorted(candidates, key=lambda p: p.id)]
    for t in range(1, cfg.time_steps + 1):
        batch = draw_examples(train, cfg.sample_size, rng)
        # Until every arm is pulled, the first unpulled one has the highest
        # UCB (+infinity) and the lowest id: pull the arms in id order.
        if t <= len(arms):
            arm = arms[t - 1]
        else:
            arm = min(arms, key=lambda a: (-ucb_value(a, t, cfg.exploration), a.prompt_id))
        reward = evaluate(by_id[arm.prompt_id], batch)
        arm.N += len(batch)
        arm.Q += reward / arm.N
    ranked = sorted(arms, key=lambda a: (-a.Q, a.prompt_id))
    selected = tuple(by_id[a.prompt_id] for a in ranked[: min(b, len(arms))])
    return SelectionResult(selected=selected, arms=tuple(arms))
