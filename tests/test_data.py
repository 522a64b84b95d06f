from __future__ import annotations

import pytest

from promptopt.data import (
    DatasetError,
    Example,
    load,
    make_split,
    sample_by_correctness,
    sample_minibatch,
)

from conftest import toy_examples


def test_load_tsv(tmp_path) -> None:
    file = tmp_path / "d.tsv"
    file.write_text("the sky is green\t1\nwater is wet\t0\n", encoding="utf-8")
    examples = load(file, "tsv")
    assert examples[0] == Example(id=0, input_text="the sky is green", label="1")
    assert examples[1].label == "0"


def test_load_jsonl_with_aliases(tmp_path) -> None:
    file = tmp_path / "d.jsonl"
    file.write_text(
        '{"text": "q", "label": "0"}\n{"question": "2+2?", "answer": "4"}\n',
        encoding="utf-8",
    )
    examples = load(file, "jsonl", task_type="math")
    assert examples[0].label == "0"
    assert examples[1] == Example(id=1, input_text="2+2?", label="4")


def test_load_tsv_malformed_line_names_line(tmp_path) -> None:
    file = tmp_path / "d.tsv"
    file.write_text("good line\t1\nno tab here\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=":2"):
        load(file, "tsv")


@pytest.mark.parametrize(
    "format, body, text",
    [
        # ensure_ascii=False leaves U+2028 raw inside the JSON string.
        ("jsonl", '{"text": "line\u2028separator", "label": "Yes"}\r\n\r\n', "line\u2028separator"),
        ("tsv", "page\x0cbreak\tYes\r\n\r\n", "page\x0cbreak"),
    ],
    ids=["jsonl-line-separator", "tsv-form-feed"],
)
def test_load_breaks_lines_at_newline_only(tmp_path, format, body, text) -> None:
    file = tmp_path / f"d.{format}"
    file.write_bytes((body + body).encode("utf-8"))
    examples = load(file, format)
    assert examples == [Example(0, text, "Yes"), Example(1, text, "Yes")]


def test_load_errors(tmp_path) -> None:
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DatasetError, match="no examples"):
        load(empty, "tsv")
    with pytest.raises(DatasetError, match="not found"):
        load(tmp_path / "missing.tsv", "tsv")
    with pytest.raises(DatasetError, match="format"):
        load(empty, "csv")
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"good line\tYes\ncaf\xe9 line\tNo\n")
    with pytest.raises(DatasetError, match=r"latin1.tsv:2: not UTF-8 text \(byte 0xe9\)"):
        load(latin1, "tsv")
    for row in ("[1, 2]", '"text"', "42"):
        not_object = tmp_path / "rows.jsonl"
        not_object.write_text(f'{{"text": "ok", "label": "Yes"}}\n{row}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="rows.jsonl:2: expected a JSON object"):
            load(not_object, "jsonl")


def test_load_trims_labels_only(tmp_path) -> None:
    file = tmp_path / "d.tsv"
    file.write_text("text body\t Yes \n", encoding="utf-8")
    assert load(file, "tsv")[0].label == "Yes"


def test_make_split_sizes_and_disjointness() -> None:
    examples = toy_examples(1000)
    split = make_split(examples, 200, seed=7)
    assert len(split.test) == 200
    assert len(split.train) == 800
    assert not {e.id for e in split.test} & {e.id for e in split.train}


def test_make_split_boundary_and_error() -> None:
    examples = toy_examples(201)
    split = make_split(examples, 200, seed=1)
    assert len(split.train) == 1
    with pytest.raises(DatasetError, match="too small"):
        make_split(toy_examples(100), 200, seed=1)


def test_make_split_is_seed_deterministic() -> None:
    examples = toy_examples(300)
    a = make_split(examples, 50, seed=9)
    b = make_split(examples, 50, seed=9)
    c = make_split(examples, 50, seed=10)
    assert [e.id for e in a.test] == [e.id for e in b.test]
    assert [e.id for e in a.test] != [e.id for e in c.test]


def test_make_split_infers_label_set() -> None:
    split = make_split(toy_examples(30), 5, seed=0)
    assert split.label_set == ("No", "Yes")


def test_sample_minibatch_distinct_when_train_large() -> None:
    split = make_split(toy_examples(900), 100, seed=3)
    batch = sample_minibatch(split, 64, seed=3, round_index=1)
    assert len(batch) == 64
    assert len({e.id for e in batch}) == 64


def test_sample_minibatch_with_replacement_when_train_small() -> None:
    split = make_split(toy_examples(12), 2, seed=3)
    batch = sample_minibatch(split, 64, seed=3, round_index=1)
    assert len(batch) == 64
    assert {e.id for e in batch} <= {e.id for e in split.train}


def test_sample_minibatch_streams_by_round() -> None:
    split = make_split(toy_examples(900), 100, seed=3)
    again = sample_minibatch(split, 64, seed=3, round_index=1)
    first = sample_minibatch(split, 64, seed=3, round_index=1)
    second = sample_minibatch(split, 64, seed=3, round_index=2)
    assert [e.id for e in first] == [e.id for e in again]
    assert [e.id for e in first] != [e.id for e in second]


def _correctness(minibatch, n_correct):
    ids = sorted(e.id for e in minibatch)
    correct_ids = set(ids[:n_correct])
    return {i: i in correct_ids for i in ids}


def test_sample_by_correctness_draws_requested_count() -> None:
    minibatch = toy_examples(64)
    correctness = _correctness(minibatch, 40)
    sample = sample_by_correctness(minibatch, correctness, 3, "correct", seed=1, round_index=1)
    assert len(sample.examples) == 3
    assert not sample.shortfall
    assert all(correctness[e.id] for e in sample.examples)


def test_sample_by_correctness_empty_subset_flags_shortfall() -> None:
    minibatch = toy_examples(10)
    correctness = _correctness(minibatch, 0)
    sample = sample_by_correctness(minibatch, correctness, 3, "correct", seed=1, round_index=1)
    assert sample.examples == ()
    assert sample.shortfall


def test_sample_by_correctness_partial_subset_returned_whole() -> None:
    minibatch = toy_examples(10)
    correctness = _correctness(minibatch, 2)
    sample = sample_by_correctness(minibatch, correctness, 3, "correct", seed=1, round_index=1)
    assert len(sample.examples) == 2
    assert sample.shortfall


def test_sample_by_correctness_never_disagrees_with_polarity() -> None:
    minibatch = toy_examples(64)
    correctness = {e.id: e.id % 3 == 0 for e in minibatch}
    for want in ("correct", "incorrect"):
        for round_index in range(5):
            sample = sample_by_correctness(
                minibatch, correctness, 5, want, seed=11, round_index=round_index
            )
            assert all(correctness[e.id] == (want == "correct") for e in sample.examples)


def test_sample_by_correctness_requires_full_coverage() -> None:
    minibatch = toy_examples(4)
    with pytest.raises(ValueError, match="missing"):
        sample_by_correctness(minibatch, {0: True}, 1, "correct", seed=1, round_index=1)
