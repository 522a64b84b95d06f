from __future__ import annotations

import json
import math

from promptopt.data import make_split
from promptopt.model import Beam, Gradient, GradientHistory, Prompt, new_seed_prompt
from promptopt.momentum import (
    history_text,
    record_round,
    sample_history_gradient,
)
from promptopt.search import run

from conftest import SEED_TEXT, check_history, scripted_gateway, small_config, toy_examples


def _prompt(pid: int, gradient_id: int | None = None, parent: int | None = None) -> Prompt:
    if pid == 0:
        return Prompt(id=0, text="seed", round=0)
    return Prompt(id=pid, text=f"p{pid}", round=1, parent_id=parent or 0, gradient_id=gradient_id)


def _gradient(gid: int, polarity: str = "positive", round: int = 1) -> Gradient:
    return Gradient(
        id=gid, text=f"reason {gid}", source_prompt_id=0, round=round, polarity=polarity
    )


def _by_id(gradients: list[Gradient]) -> dict[int, Gradient]:
    return {g.id: g for g in gradients}


def test_record_round_pools_survivor_gradients() -> None:
    gradients = [_gradient(0), _gradient(1)]
    prompts = {
        0: _prompt(0),
        1: _prompt(1, gradient_id=0),
        2: _prompt(2, gradient_id=0),
        3: _prompt(3, gradient_id=1),
        4: _prompt(4, gradient_id=1),
    }
    beam = Beam(round=1, prompts=(1, 2, 3, 4))
    pool = record_round(beam, _by_id(gradients), prompts)
    assert {g.id for g in pool} == {0, 1}


def test_record_round_seed_only_beam_is_empty() -> None:
    prompts = {0: _prompt(0)}
    assert record_round(Beam(round=1, prompts=(0,)), _by_id([_gradient(0)]), prompts) == []


def test_record_round_attribution_matches_brute_force_scan() -> None:
    # 8 gradients generated, 3 attributed to survivors.
    gradients = [_gradient(g) for g in range(8)]
    prompts = {0: _prompt(0)}
    for pid, gid in enumerate([0, 1, 2, 3, 4, 5, 6, 7], start=1):
        prompts[pid] = _prompt(pid, gradient_id=gid)
    beam = Beam(round=1, prompts=(2, 5, 7, 0))  # survivors: children of g1, g4, g6 + the seed
    pool = record_round(beam, _by_id(gradients), prompts)

    oracle = {
        prompts[pid].gradient_id
        for pid in beam.prompts
        if prompts[pid].gradient_id is not None
    }
    assert {g.id for g in pool} == oracle
    assert len(pool) == 3


def test_record_round_excludes_negative_and_stale_gradients() -> None:
    gradients = [
        _gradient(5, round=2),
        _gradient(6, polarity="negative", round=2),
        _gradient(99, round=1),
    ]
    prompts = {
        0: _prompt(0),
        1: _prompt(1, gradient_id=5),
        2: _prompt(2, gradient_id=6),
        3: _prompt(3, gradient_id=99),  # produced by an earlier round's gradient
    }
    pool = record_round(Beam(round=2, prompts=(1, 2, 3)), _by_id(gradients), prompts)
    assert [g.id for g in pool] == [5]


def test_sample_history_gradient_singleton_and_empty() -> None:
    only = _gradient(3)
    assert sample_history_gradient([only], seed=1, round_index=1) == only
    assert sample_history_gradient([], seed=1, round_index=1) is None


def test_sample_history_gradient_is_deterministic() -> None:
    pool = [_gradient(g) for g in range(5)]
    first = sample_history_gradient(pool, seed=4, round_index=2)
    second = sample_history_gradient(pool, seed=4, round_index=2)
    assert first == second


def test_sample_history_gradient_uniform_within_five_sigma() -> None:
    # Monte Carlo check against the uniform law over a pool of 7.
    k = 7
    pool = [_gradient(g) for g in range(k)]
    draws = 10_000
    counts = {g.id: 0 for g in pool}
    for seed in range(draws):
        counts[sample_history_gradient(pool, seed=seed, round_index=1).id] += 1
    expected = draws / k
    sigma = math.sqrt(draws * (1 / k) * (1 - 1 / k))
    for count in counts.values():
        assert abs(count - expected) <= 5 * sigma


def test_history_text_momentum_off_is_none_marker(tmp_path) -> None:
    # A run with momentum off pools and samples nothing, so each round binds (none).
    examples = toy_examples()
    split = make_split(examples, 20, 7, positive_label="Yes")
    cfg = small_config(momentum_enabled=False)
    gateway = scripted_gateway(examples, split.label_set)
    result = run(new_seed_prompt(SEED_TEXT), split, cfg, gateway, tmp_path)
    assert result.history == GradientHistory()
    assert json.loads((tmp_path / "history.json").read_text()) == {"pools": {}, "sampled": {}}
    for round_index in range(cfg.search_depth + 2):
        assert history_text(result.history, round_index, result.store.gradients) == "(none)"


def test_history_text_round_zero_and_empty_pool() -> None:
    assert history_text(GradientHistory(), 0, {}) == "(none)"
    assert history_text(GradientHistory(), 1, {}) == "(none)"


def test_history_text_passthrough_of_previous_round_sample() -> None:
    gradient = _gradient(9)
    history = GradientHistory(pools={2: (9,)}, sampled={2: 9})
    assert history_text(history, 3, {9: gradient}) == gradient.text
    # Other rounds see no binding from round 2's sample.
    assert history_text(history, 2, {9: gradient}) == "(none)"


def test_history_membership_invariant_checker() -> None:
    good = GradientHistory(pools={1: (0, 1)}, sampled={1: 1})
    check_history(good)
    bad = GradientHistory(pools={1: (0,)}, sampled={1: 5})
    try:
        check_history(bad)
    except ValueError as exc:
        assert "sampled[1]" in str(exc)
    else:
        raise AssertionError("membership violation not caught")
