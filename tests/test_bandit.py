from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptopt.bandit import ArmState, select, ucb_value
from promptopt.data import Example
from promptopt.model import BanditConfig, Prompt, derived_rng


def _arms(n: int) -> list[Prompt]:
    return [Prompt(id=i, text=f"candidate {i}", round=0) for i in range(n)]


def _train(n: int = 50) -> list[Example]:
    return [Example(i, f"x {i}", "Yes") for i in range(n)]


def test_ucb_value_unpulled_is_infinite() -> None:
    assert ucb_value(ArmState(prompt_id=0), t=1, c_v=1.0) == math.inf


def test_ucb_value_greedy_degeneration() -> None:
    arm = ArmState(prompt_id=0, N=10, Q=0.7)
    assert ucb_value(arm, t=5, c_v=0.0) == 0.7


def test_ucb_value_matches_arbitrary_precision_oracle() -> None:
    arm = ArmState(prompt_id=0, N=10, Q=0.6)
    oracle = float(mpmath.mpf("0.6") + mpmath.sqrt(mpmath.log(10) / 10))
    assert ucb_value(arm, t=10, c_v=1.0) == pytest.approx(oracle, abs=1e-12)
    assert ucb_value(arm, t=10, c_v=1.0) == pytest.approx(1.0799, abs=1e-4)


@given(
    ids=st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
    rewards=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=8),
    time_steps=st.integers(1, 40),
    sample_size=st.sampled_from([1, 2, 4]),
    c_v=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_select_pulls_follow_the_min_ucb_rule(ids, rewards, time_steps, sample_size, c_v) -> None:
    """Each pull is the arm of highest UCB, ties to the lowest id, at every step.

    Rewards come from a short cycle of few values, so UCB values tie.
    """
    candidates = [Prompt(id=i, text=f"candidate {i}", round=0) for i in ids]
    cfg = BanditConfig(time_steps=time_steps, sample_size=sample_size, exploration=c_v)

    def reward(step: int, prompt_id: int) -> float:
        return rewards[(step + prompt_id) % len(rewards)]

    pulls: list[int] = []

    def evaluate(prompt: Prompt, batch) -> float:
        pulls.append(prompt.id)
        return reward(len(pulls), prompt.id)

    select(candidates, _train(), cfg, 3, derived_rng(0, "t"), evaluate)

    arms = [ArmState(prompt_id=i) for i in sorted(ids)]
    expected: list[int] = []
    for t in range(1, time_steps + 1):
        arm = min(arms, key=lambda a: (-ucb_value(a, t, c_v), a.prompt_id))
        expected.append(arm.prompt_id)
        arm.N += sample_size
        arm.Q += reward(t, arm.prompt_id) / arm.N
    assert pulls == expected


def test_select_singleton_returns_it() -> None:
    (only,) = _arms(1)
    result = select(
        [only], _train(), BanditConfig(time_steps=5, sample_size=4), 4,
        derived_rng(0, "t"), lambda p, batch: 0.5,
    )
    assert result.selected == (only,)


def test_select_initialization_pulls_every_arm_once() -> None:
    arms = _arms(2)
    result = select(
        arms, _train(), BanditConfig(time_steps=2, sample_size=8), 2,
        derived_rng(0, "t"), lambda p, batch: 0.5,
    )
    assert [a.N for a in result.arms] == [8, 8]


def test_select_sample_weighted_counts_sum_to_budget() -> None:
    cfg = BanditConfig(time_steps=20, sample_size=8)
    result = select(
        _arms(5), _train(), cfg, 3, derived_rng(1, "t"),
        lambda p, batch: (p.id + 1) / 10,
    )
    assert sum(a.N for a in result.arms) == cfg.time_steps * cfg.sample_size
    assert all(a.N > 0 for a in result.arms)  # time_steps >= arm count


def test_select_is_deterministic_for_fixed_seed() -> None:
    cfg = BanditConfig(time_steps=30, sample_size=4)

    def noisy(p: Prompt, batch) -> float:
        return sum((p.id * 131 + ex.id) % 7 for ex in batch) / (7 * len(batch))

    runs = [
        [p.id for p in select(_arms(6), _train(), cfg, 3, derived_rng(9, "sel"), noisy).selected]
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_select_monotone_dominance_on_deterministic_rewards() -> None:
    # Arm rewards constant per arm: higher reward must rank strictly higher.
    cfg = BanditConfig(time_steps=40, sample_size=4)
    rewards = {0: 0.2, 1: 0.9, 2: 0.5}
    result = select(
        _arms(3), _train(), cfg, 3, derived_rng(2, "t"),
        lambda p, batch: rewards[p.id],
    )
    assert [p.id for p in result.selected] == [1, 2, 0]
    by_id = {a.prompt_id: a for a in result.arms}
    assert by_id[1].Q > by_id[2].Q > by_id[0].Q


def test_select_ties_break_to_lowest_id() -> None:
    result = select(
        _arms(4), _train(), BanditConfig(time_steps=4, sample_size=2), 2,
        derived_rng(3, "t"), lambda p, batch: 0.5,
    )
    assert [p.id for p in result.selected] == [0, 1]


def test_select_caps_at_candidate_count() -> None:
    result = select(
        _arms(2), _train(), BanditConfig(time_steps=4, sample_size=2), 5,
        derived_rng(0, "t"), lambda p, batch: 1.0,
    )
    assert len(result.selected) == 2


def test_select_accumulate_update_matches_hand_rollout() -> None:
    # Two arms, constant rewards, T=4, s=2: replay the update rule by hand.
    cfg = BanditConfig(time_steps=4, sample_size=2, exploration=1.0)
    rewards = {0: 1.0, 1: 0.5}
    result = select(
        _arms(2), _train(), cfg, 2, derived_rng(5, "t"), lambda p, batch: rewards[p.id]
    )
    # t=1: arm0 (infinity, lowest id) -> N=2, Q=1/2.
    # t=2: arm1 (infinity)            -> N=2, Q=0.25.
    # t=3: UCB0 = .5+sqrt(ln3/2) > UCB1 -> arm0: N=4, Q=.5+1/4.
    # t=4: UCB0 = .75+sqrt(ln4/4) = 1.338 > UCB1 = .25+sqrt(ln4/2) = 1.082
    #      -> arm0 again: N=6, Q=.75+1/6.
    by_id = {a.prompt_id: a for a in result.arms}
    assert by_id[0].N == 6
    assert by_id[0].Q == pytest.approx(0.5 + 0.25 + 1 / 6)
    assert by_id[1].N == 2
    assert by_id[1].Q == pytest.approx(0.25)


def test_select_rejects_empty_and_duplicate_candidates() -> None:
    cfg = BanditConfig(time_steps=2, sample_size=2)
    with pytest.raises(ValueError):
        select([], _train(), cfg, 2, derived_rng(0, "t"), lambda p, b: 0.0)
    dup = _arms(1) * 2
    with pytest.raises(ValueError):
        select(dup, _train(), cfg, 2, derived_rng(0, "t"), lambda p, b: 0.0)
