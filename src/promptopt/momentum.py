"""Round-indexed gradient history and the momentum sample.

After each selection round, the gradients that produced the surviving prompts
form that round's pool; a single positive gradient sampled from the pool is
injected into the next round's generator and editor templates as textual
momentum.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .gradients import HISTORY_EMPTY
from .model import Beam, Gradient, GradientHistory, Prompt, derived_rng


def record_round(
    beam_next: Beam,
    all_gradients: Sequence[Gradient],
    prompts: Mapping[int, Prompt],
) -> list[Gradient]:
    """Pool of this round's positive gradients that produced a surviving prompt.

    A survivor carried over from an earlier round attributes nothing here; an
    all-carryover beam yields an empty pool.
    """
    by_id = {g.id: g for g in all_gradients}
    pool: list[Gradient] = []
    seen: set[int] = set()
    for prompt_id in beam_next.prompts:
        gradient_id = prompts[prompt_id].gradient_id
        if gradient_id is None or gradient_id in seen or gradient_id not in by_id:
            continue
        gradient = by_id[gradient_id]
        if gradient.polarity != "positive":
            continue
        pool.append(gradient)
        seen.add(gradient_id)
    return pool


def sample_history_gradient(
    pool: Sequence[Gradient], seed: int | str, round_index: int
) -> Gradient | None:
    """Uniform draw from the pool under the (seed, round) stream; None when empty."""
    if not pool:
        return None
    rng = derived_rng(seed, "momentum", round_index)
    return rng.choice(list(pool))


def history_text(
    history: GradientHistory,
    round_index: int,
    gradients: Mapping[int, Gradient],
    *,
    enabled: bool = True,
) -> str:
    """History binding for a round's templates: the gradient sampled the round before.

    Disabled momentum, round 0, and empty pools all bind ``(none)``.
    """
    if not enabled:
        return HISTORY_EMPTY
    gradient_id = history.sampled.get(round_index - 1)
    return gradients[gradient_id].text if gradient_id is not None else HISTORY_EMPTY
