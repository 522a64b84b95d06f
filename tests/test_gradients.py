from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptopt import ConfigError, Gateway, PromptStore, ScriptedBackend
from promptopt.data import Example
from promptopt.gradients import (
    GradientEngine,
    TemplateError,
    TemplateSet,
    format_example_block,
    mask_history_slot,
    parse_delimited,
    render,
)
from conftest import SequenceScript, extract_history_binding, small_config

TEMPLATES = TemplateSet()


def _bindings(**overrides):
    base = dict(
        task_type="classification",
        prompt="Answer Yes or No.",
        correct_string="Input: x\nCorrect answer: Yes",
        positive_gradient_history="(none)",
        num_gradients=2,
        positive_feedback_str="the wording is precise",
    )
    base.update(overrides)
    return base


def test_render_binds_gradient_count() -> None:
    rendered = render(TEMPLATES.tau, _bindings())
    assert "give 2 reasons why" in rendered
    assert "Wrap each reason with <START> and <END>" in rendered


def test_render_keeps_block_with_empty_history_binding() -> None:
    rendered = render(TEMPLATES.tau, _bindings(positive_gradient_history=""))
    assert "strengths of past\niterations of this prompt:" in rendered


def test_render_unbound_slot_names_it() -> None:
    bindings = _bindings()
    del bindings["prompt"]
    with pytest.raises(TemplateError, match="prompt"):
        render(TEMPLATES.tau, bindings)


def test_render_is_pure_substitution() -> None:
    rendered = render(TEMPLATES.alpha, _bindings(prompt='Say "hi" & <tag>'))
    assert 'Say "hi" & <tag>' in rendered


def test_render_distinct_bindings_distinct_output() -> None:
    a = render(TEMPLATES.tau, _bindings(prompt="one"))
    b = render(TEMPLATES.tau, _bindings(prompt="two"))
    assert a != b


def test_negative_templates_mirror_wording() -> None:
    rendered = render(TEMPLATES.tau_negative, _bindings())
    assert "gets the following examples wrong" in rendered
    assert "weaknesses of past" in rendered
    rendered_alpha = render(TEMPLATES.alpha_negative, _bindings())
    assert "fixes the weaknesses" in rendered_alpha


def test_template_override_from_dir(tmp_path) -> None:
    (tmp_path / "tau.txt").write_text("custom {prompt} with {num_gradients}", encoding="utf-8")
    templates = TemplateSet.from_dir(tmp_path)
    assert render(templates.tau, _bindings()) == "custom Answer Yes or No. with 2"
    # Untouched templates keep their defaults.
    assert templates.alpha == TEMPLATES.alpha


def test_template_dir_refuses_a_missing_directory(tmp_path) -> None:
    with pytest.raises(ConfigError, match="template directory not found: .*nowhere"):
        TemplateSet.from_dir(tmp_path / "nowhere")
    (tmp_path / "file").write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="template directory is not a directory: .*file"):
        TemplateSet.from_dir(tmp_path / "file")


def test_template_dir_refuses_a_file_that_names_no_template(tmp_path) -> None:
    (tmp_path / "alpha.txt").write_text("kept {prompt}", encoding="utf-8")
    (tmp_path / "alpah.txt").write_text("IGNORED {prompt}", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        TemplateSet.from_dir(tmp_path)
    message = str(info.value)
    assert str(tmp_path / "alpah.txt") in message
    for name in ("tau", "alpha", "tau_negative", "alpha_negative", "paraphrase"):
        assert f"{name}.txt" in message


def test_parse_delimited_basic() -> None:
    assert parse_delimited("<START>a<END><START>b<END>") == ["a", "b"]


def test_parse_delimited_single_with_noise() -> None:
    assert parse_delimited("noise <START> only one <END> tail") == ["only one"]


def test_parse_delimited_unclosed_ignored() -> None:
    assert parse_delimited("<START>unclosed") == []
    assert parse_delimited("dangling <END> closer") == []
    assert parse_delimited("") == []


def test_parse_delimited_nearest_opener_wins() -> None:
    # A stray opener never swallows the next block.
    assert parse_delimited("<START> junk <START>payload<END>") == ["payload"]


payload_text = st.text(
    alphabet=st.characters(blacklist_characters="<>"), min_size=1, max_size=30
).filter(lambda s: s.strip())
noise_text = st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=15)


@given(
    payloads=st.lists(payload_text, max_size=10),
    gaps=st.lists(st.tuples(noise_text, st.integers(0, 2), st.integers(0, 2)), min_size=11, max_size=11),
)
def test_parse_delimited_recovers_planted_blocks(payloads, gaps) -> None:
    # Build: gap (with stray closers then stray openers) + planted block, repeated.
    parts = []
    for payload, (noise, stray_closers, stray_openers) in zip(payloads, gaps):
        parts.append(noise + "<END>" * stray_closers + "<START>" * stray_openers)
        parts.append(f"<START>{payload}<END>")
    trailing_noise, closers, openers = gaps[-1]
    parts.append(trailing_noise + "<END>" * closers + "<START>" * openers)
    assert parse_delimited("".join(parts)) == [p.strip() for p in payloads]


delimiter_fragments = st.lists(
    st.sampled_from(["<START>", "<END>", "<START", "END>", "a", "b", " ", "\n"]), max_size=40
).map("".join)


@given(delimiter_fragments)
def test_parse_delimited_spans_hold_no_delimiter(raw) -> None:
    # The engine keeps spans as they come, so no span may carry a marker or
    # surrounding whitespace, however the delimiters nest.
    for span in parse_delimited(raw):
        assert "<START>" not in span
        assert "<END>" not in span
        assert span == span.strip()


def test_mask_history_slot_normalizes_both_templates() -> None:
    for template in (TEMPLATES.tau, TEMPLATES.alpha, TEMPLATES.tau_negative, TEMPLATES.alpha_negative):
        with_history = render(template, _bindings(positive_gradient_history="a past reason"))
        without = render(template, _bindings(positive_gradient_history="(none)"))
        assert with_history != without
        assert mask_history_slot(with_history) == mask_history_slot(without)
        assert extract_history_binding(with_history) == "a past reason"


def test_format_example_block_layout() -> None:
    sample = (
        Example(0, "first input", "Yes"),
        Example(1, "second input", "No"),
    )
    block = format_example_block(sample)
    assert block == (
        "Input: first input\nCorrect answer: Yes\n\nInput: second input\nCorrect answer: No"
    )


def _engine(responses: dict, cfg=None):
    cfg = cfg or small_config()
    store = PromptStore()
    parent = store.new_prompt("Answer Yes or No.", round=0)
    gateway = Gateway(ScriptedBackend(SequenceScript(responses)))
    engine = GradientEngine(cfg, gateway, store, TemplateSet(), "classification")
    return engine, parent, gateway


def _sample():
    return (Example(0, "an input", "Yes"),)


def test_generate_gradients_two_blocks() -> None:
    engine, parent, _ = _engine({"gradient_gen": ["<START>reason a<END><START>reason b<END>"]})
    gradients = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 2)
    assert [g.text for g in gradients] == ["reason a", "reason b"]
    assert all(g.polarity == "positive" for g in gradients)
    assert all(g.source_prompt_id == parent.id and g.round == 1 for g in gradients)


def test_generate_gradients_zero_blocks_logs_shortfall() -> None:
    engine, parent, _ = _engine({"gradient_gen": ["no delimiters at all"]})
    assert engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 2) == []
    assert engine.parse_shortfalls == 1


def test_generate_gradients_truncates_to_requested_count() -> None:
    engine, parent, _ = _engine(
        {"gradient_gen": ["<START>a<END><START>b<END><START>c<END>"]}
    )
    gradients = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 2)
    assert [g.text for g in gradients] == ["a", "b"]


def test_apply_gradient_edit_call_count_and_lineage() -> None:
    cfg = small_config(candidates_per_parent=8, num_gradients=2)
    engine, parent, gateway = _engine(
        {
            "gradient_gen": ["<START>g1<END><START>g2<END>"],
            "prompt_edit": [f"<START>child {i}<END>" for i in range(8)],
        },
        cfg=cfg,
    )
    gradients = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 2)
    children = engine.apply_gradient(parent, gradients, _sample(), "(none)", 1, 1)
    assert gateway.call_count() == 1 + 8  # one generator call + c editor calls
    assert len(children) == 8
    assert {c.parent_id for c in children} == {parent.id}
    assert {c.gradient_id for c in children} == {g.id for g in gradients}
    assert all(c.round == 1 for c in children)


def test_apply_gradient_single_child_text() -> None:
    engine, parent, _ = _engine(
        {
            "gradient_gen": ["<START>g<END>"],
            "prompt_edit": ["<START>improved prompt<END>", "<START>improved prompt<END>"],
        },
        cfg=small_config(candidates_per_parent=2, num_gradients=1),
    )
    gradient = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 1)[0]
    children = engine.apply_gradient(parent, [gradient], _sample(), "(none)", 1, 1)
    assert [c.text for c in children] == ["improved prompt", "improved prompt"]


def test_apply_gradient_all_unparseable_yields_no_children() -> None:
    engine, parent, _ = _engine(
        {
            "gradient_gen": ["<START>g<END>"],
            "prompt_edit": ["nope", "still nope"],
        },
        cfg=small_config(candidates_per_parent=2, num_gradients=1),
    )
    gradient = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 1)[0]
    assert engine.apply_gradient(parent, [gradient], _sample(), "(none)", 1, 1) == []
    assert engine.parse_shortfalls == 2


def test_apply_gradient_ordinal_lines_are_distinct() -> None:
    engine, parent, gateway = _engine(
        {
            "gradient_gen": ["<START>g<END>"],
            "prompt_edit": ["<START>a<END>", "<START>b<END>"],
        },
        cfg=small_config(candidates_per_parent=2, num_gradients=1),
    )
    gradient = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 1)[0]
    engine.apply_gradient(parent, [gradient], _sample(), "(none)", 1, 1)
    edits = [r.rendered_prompt for r, _ in gateway.transcript.entries if r.role_tag == "prompt_edit"]
    assert edits[0] != edits[1]
    assert edits[0].endswith("Variant 1 of 2.")
    assert edits[1].endswith("Variant 2 of 2.")


def test_batched_edits_and_paraphrases_keep_children_ids_and_shortfalls() -> None:
    engine, parent, gateway = _engine(
        {
            "gradient_gen": ["<START>g1<END><START>g2<END>"],
            "prompt_edit": ["<START>c1<END>", "junk", "<START><END>", "<START>c4<END>"],
            "paraphrase": ["<START>p1<END>", "nah", "<START>p3<END>"],
        },
        cfg=small_config(candidates_per_parent=4, num_gradients=2),
    )
    g1, g2 = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 2)
    children = engine.apply_gradient(parent, [g1, g2], _sample(), "(none)", 1, 1)
    children += engine.paraphrase_expand(parent, 3, round_index=1)
    assert [(c.id, c.text, c.gradient_id) for c in children] == [
        (1, "c1", g1.id),
        (2, "c4", g2.id),
        (3, "p1", None),
        (4, "p3", None),
    ]
    assert engine.parse_shortfalls == 3
    entries = gateway.transcript.entries
    assert [req.request_index for req, _ in entries] == list(range(8))
    assert [req.rendered_prompt.rsplit("\n", 1)[1] for req, _ in entries[1:]] == [
        "Variant 1 of 4.",
        "Variant 2 of 4.",
        "Variant 3 of 4.",
        "Variant 4 of 4.",
        "Variant 1 of 3.",
        "Variant 2 of 3.",
        "Variant 3 of 3.",
    ]


def test_a_child_takes_the_first_span_that_holds_text() -> None:
    # A blank first span is passed over, as it is when gradients are parsed.
    answer = "<START> <END>\n<START>Better prompt<END>"
    engine, parent, _ = _engine(
        {"gradient_gen": [answer], "prompt_edit": [answer, answer], "paraphrase": [answer]},
        cfg=small_config(candidates_per_parent=2, num_gradients=1),
    )
    gradients = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 1)
    children = engine.apply_gradient(parent, gradients, _sample(), "(none)", 1, 1)
    children += engine.paraphrase_expand(parent, 1, round_index=1)
    assert [g.text for g in gradients] == ["Better prompt"]
    assert [(c.text, c.gradient_id) for c in children] == [
        ("Better prompt", gradients[0].id),
        ("Better prompt", gradients[0].id),
        ("Better prompt", None),
    ]
    assert engine.parse_shortfalls == 0


def test_paraphrase_expand_contract() -> None:
    engine, parent, _ = _engine(
        {"paraphrase": ["<START>first rewording<END>", "<START>second rewording<END>"]}
    )
    children = engine.paraphrase_expand(parent, 2, round_index=1)
    assert [c.text for c in children] == ["first rewording", "second rewording"]
    assert all(c.gradient_id is None and c.parent_id == parent.id for c in children)


def test_paraphrase_expand_zero_and_unparseable() -> None:
    engine, parent, _ = _engine({"paraphrase": ["garbled"]})
    assert engine.paraphrase_expand(parent, 0, round_index=1) == []
    assert engine.paraphrase_expand(parent, 1, round_index=1) == []
    assert engine.parse_shortfalls == 1


def test_scripted_round_trip_recovers_planted_blocks() -> None:
    # What a scripted backend embeds is exactly what the parser recovers.
    planted = ["first reason", "second reason"]
    text = "".join(f"<START>{p}<END>" for p in planted)
    engine, parent, _ = _engine({"gradient_gen": [text]})
    gradients = engine.generate_gradients(parent, _sample(), "(none)", 1, "positive", 2)
    assert [g.text for g in gradients] == planted
