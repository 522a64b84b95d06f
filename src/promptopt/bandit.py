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


def _pick_arm(arms: Sequence[ArmState], t: int, c_v: float) -> ArmState:
    """The arm with the highest UCB at step ``t``; ties go to the earliest arm.

    With ``arms`` ordered by prompt id this is
    ``min(arms, key=lambda a: (-ucb_value(a, t, c_v), a.prompt_id))``: the
    first never-pulled arm if any, else the first arm of highest value.
    """
    for arm in arms:
        if arm.N == 0:
            return arm
    log_t = math.log(t)
    sqrt = math.sqrt
    best = arms[0]
    best_value = best.Q + c_v * sqrt(log_t / best.N)
    for arm in arms:
        value = arm.Q + c_v * sqrt(log_t / arm.N)
        if value > best_value:
            best, best_value = arm, value
    return best


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
        arm = _pick_arm(arms, t, cfg.exploration)
        reward = evaluate(by_id[arm.prompt_id], batch)
        arm.N += len(batch)
        arm.Q += reward / arm.N
    ranked = sorted(arms, key=lambda a: (-a.Q, a.prompt_id))
    selected = tuple(by_id[a.prompt_id] for a in ranked[: min(b, len(arms))])
    return SelectionResult(selected=selected, arms=tuple(arms))
