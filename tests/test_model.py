from __future__ import annotations

import json
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptopt.model import (
    Beam,
    BanditConfig,
    ConfigError,
    EmptyPromptError,
    Gradient,
    GradientHistory,
    Prompt,
    PromptStore,
    RunConfig,
    derived_rng,
    new_seed_prompt,
    read_text,
    to_record,
)


def test_new_seed_prompt_basic_fields() -> None:
    prompt = new_seed_prompt("Is this statement a lie? Answer Yes or No.")
    assert prompt.round == 0
    assert prompt.parent_id is None
    assert prompt.gradient_id is None
    assert prompt.train_score is None and prompt.test_score is None


def test_new_seed_prompt_rejects_empty_text() -> None:
    with pytest.raises(EmptyPromptError):
        new_seed_prompt("")
    with pytest.raises(EmptyPromptError):
        new_seed_prompt("   \n ")


def test_new_seed_prompt_trims_outer_whitespace_only() -> None:
    assert new_seed_prompt("  x  ").text == "x"
    assert new_seed_prompt("  a  b  ").text == "a  b"


def test_prompt_round_parent_invariant() -> None:
    with pytest.raises(ValueError):
        Prompt(id=1, text="x", round=1)  # round >= 1 needs a parent
    with pytest.raises(ValueError):
        Prompt(id=1, text="x", round=0, parent_id=0)
    with pytest.raises(ValueError):
        Prompt(id=1, text="x", round=1, gradient_id=2)  # gradient without parent


def test_gradient_rejects_embedded_delimiters() -> None:
    with pytest.raises(ValueError):
        Gradient(id=0, text="keep <START> markers out", source_prompt_id=0, round=1)
    with pytest.raises(ValueError):
        Gradient(id=0, text="", source_prompt_id=0, round=1)


def test_beam_rejects_duplicate_ids() -> None:
    with pytest.raises(ValueError):
        Beam(round=1, prompts=(1, 2, 1))


def test_validate_config_accepts_defaults() -> None:
    cfg = RunConfig()
    assert cfg.beam_width == 4
    assert cfg.search_depth == 6
    assert cfg.minibatch_size == 64
    assert cfg.candidates_per_parent == 8
    assert cfg.num_gradients == 2
    assert cfg.num_correct_examples == 3
    assert cfg.temperature == 0.0
    assert cfg.test_set_size == 200
    assert cfg.bandit == BanditConfig(time_steps=25, sample_size=32, exploration=1.0)


def test_validate_config_divisibility() -> None:
    with pytest.raises(ConfigError, match="divisible"):
        RunConfig(candidates_per_parent=7, num_gradients=2)
    # replace builds a new instance, which checks itself too.
    with pytest.raises(ConfigError, match=r"divisible by num_gradients \(8 % 3 != 0\)"):
        replace(RunConfig(), num_gradients=3)


def test_validate_config_nonpositive_fields() -> None:
    with pytest.raises(ConfigError, match="search_depth"):
        RunConfig(search_depth=0)
    with pytest.raises(ConfigError, match="beam_width"):
        RunConfig(beam_width=0)
    with pytest.raises(ConfigError, match="temperature"):
        RunConfig(temperature=-0.1)
    with pytest.raises(ConfigError, match="gradient_mode"):
        RunConfig(gradient_mode="sideways")
    with pytest.raises(ConfigError, match="time_steps"):
        RunConfig(bandit=BanditConfig(time_steps=0))
    with pytest.raises(ConfigError, match="bandit.sample_size"):
        replace(BanditConfig(), sample_size=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_validate_config_rejects_non_finite_floats(bad) -> None:
    with pytest.raises(ConfigError, match="temperature"):
        RunConfig(temperature=bad)
    with pytest.raises(ConfigError, match="bandit.exploration"):
        RunConfig(bandit=BanditConfig(exploration=bad))
    with pytest.raises(ConfigError, match="convergence_target"):
        RunConfig(convergence_target=bad)


def test_validate_config_accepts_finite_convergence_target() -> None:
    cfg = RunConfig(convergence_target=0.8, bandit=BanditConfig(exploration=0.0))
    assert (cfg.convergence_target, cfg.bandit.exploration) == (0.8, 0.0)


def test_store_assigns_sequential_ids() -> None:
    store = PromptStore()
    seed = store.adopt(new_seed_prompt("seed"))
    child_a = store.new_prompt("child a", round=1, parent_id=seed.id)
    grad = store.new_gradient("a reason", source_prompt_id=seed.id, round=1, polarity="positive")
    child_b = store.new_prompt("child b", round=1, parent_id=seed.id, gradient_id=grad.id)
    assert (seed.id, child_a.id, child_b.id) == (0, 1, 2)
    assert grad.id == 0
    with pytest.raises(ValueError):
        store.adopt(seed)


def test_store_score_updates_replace_immutably() -> None:
    store = PromptStore()
    seed = store.adopt(new_seed_prompt("seed"))
    updated = store.set_train_score(seed.id, 0.5)
    assert updated.train_score == 0.5
    assert seed.train_score is None  # original object untouched
    assert store.prompts[seed.id].train_score == 0.5


def test_lineage_forest_terminates_at_seed() -> None:
    store = PromptStore()
    seed = store.adopt(new_seed_prompt("seed"))
    parent = seed
    for round_index in range(1, 6):
        parent = store.new_prompt(f"gen {round_index}", round=round_index, parent_id=parent.id)
    # Walking parents from any prompt reaches a round-0 prompt within `round` steps.
    for prompt in store.prompts.values():
        node, steps = prompt, 0
        while node.parent_id is not None:
            node = store.prompts[node.parent_id]
            steps += 1
        assert node.round == 0
        assert steps <= prompt.round


def test_derived_rng_streams_are_stable_and_distinct() -> None:
    a1 = derived_rng(7, "minibatch", 1).random()
    a2 = derived_rng(7, "minibatch", 1).random()
    b = derived_rng(7, "minibatch", 2).random()
    c = derived_rng(8, "minibatch", 1).random()
    assert a1 == a2
    assert a1 != b and a1 != c


prompt_strategy = st.builds(
    Prompt,
    id=st.integers(min_value=1, max_value=10**6),
    text=st.text(min_size=1).filter(lambda s: s.strip()),
    round=st.integers(min_value=1, max_value=50),
    parent_id=st.integers(min_value=0, max_value=10**6),
    gradient_id=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    train_score=st.one_of(st.none(), st.floats(min_value=0, max_value=1, allow_nan=False)),
    test_score=st.one_of(st.none(), st.floats(min_value=0, max_value=1, allow_nan=False)),
)

gradient_strategy = st.builds(
    Gradient,
    id=st.integers(min_value=0, max_value=10**6),
    text=st.text(min_size=1).filter(lambda s: s.strip() and "<START>" not in s and "<END>" not in s),
    source_prompt_id=st.integers(min_value=0, max_value=10**6),
    round=st.integers(min_value=0, max_value=50),
    polarity=st.sampled_from(["positive", "negative"]),
)

beam_strategy = st.builds(
    Beam,
    round=st.integers(min_value=0, max_value=50),
    prompts=st.lists(st.integers(min_value=0, max_value=10**6), unique=True, max_size=8).map(tuple),
)

_RECORD_TYPES = {"prompt": Prompt, "gradient": Gradient, "beam": Beam}


def from_record(line: str) -> object:
    """Decode a :func:`to_record` line back into the object it was made from."""
    payload = json.loads(line)
    cls = _RECORD_TYPES[payload.pop("type")]
    if cls is Beam:
        payload["prompts"] = tuple(payload["prompts"])
    return cls(**payload)


@given(
    st.one_of(prompt_strategy, gradient_strategy, beam_strategy)
)
def test_record_round_trip_is_identity(obj) -> None:
    assert from_record(to_record(obj)) == obj


@given(
    st.one_of(prompt_strategy, gradient_strategy, beam_strategy)
)
def test_record_equals_json_of_asdict(obj) -> None:
    # to_record reads the fields without copying them; the line is the same.
    name = next(name for name, cls in _RECORD_TYPES.items() if cls is type(obj))
    assert to_record(obj) == json.dumps({"type": name, **asdict(obj)}, sort_keys=True)


def test_record_forms_only_for_artifact_lines() -> None:
    # history.json and config.json are written from dicts, not records.
    for obj in (GradientHistory(), BanditConfig(), RunConfig()):
        with pytest.raises(TypeError, match="no record form"):
            to_record(obj)


def test_read_text_skips_a_byte_order_mark_and_reads_newlines_in_text_mode(tmp_path) -> None:
    file = tmp_path / "prompt.txt"
    file.write_bytes(b"\xef\xbb\xbfline one\r\nline two\n")
    assert read_text(file, "prompt file") == "line one\nline two\n"
    # Only the first mark is the encoding's; a second is text.
    file.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfx")
    assert read_text(file, "prompt file") == "\ufeffx"


class _Refused(ValueError):
    pass


@pytest.mark.parametrize("error", [ConfigError, _Refused])
def test_read_text_refuses_a_missing_path_a_directory_and_bytes_that_are_not_utf8(
    tmp_path, error
) -> None:
    missing = tmp_path / "gone.txt"
    with pytest.raises(error, match=f"^prompt file not found: {re.escape(str(missing))}$"):
        read_text(missing, "prompt file", error)
    with pytest.raises(error, match=f"^prompt file is a directory: {re.escape(str(tmp_path))}$"):
        read_text(tmp_path, "prompt file", error)
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"\xef\xbb\xbffirst\nsecond\ncaf\xe9\n")
    with pytest.raises(error, match=rf"^{re.escape(str(latin1))}:3: not UTF-8 text \(byte 0xe9\)$"):
        read_text(latin1, "prompt file", error)
