from __future__ import annotations

import json

import pytest

from promptopt import ConfigError
from promptopt.data import (
    DatasetError,
    DatasetSpec,
    Example,
    load,
    make_split,
    math_label,
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


@pytest.mark.parametrize(
    "format, line",
    [("tsv", "first\tYes\n"), ("jsonl", '{"text": "first", "label": "Yes"}\n')],
    ids=["tsv", "jsonl"],
)
def test_load_skips_a_byte_order_mark(tmp_path, format, line) -> None:
    file = tmp_path / f"d.{format}"
    file.write_bytes(b"\xef\xbb\xbf" + line.encode("utf-8"))
    assert load(file, format) == [Example(0, "first", "Yes")]


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


@pytest.mark.parametrize(
    "row",
    [
        '{"text": {"a": 1}, "label": "Yes"}',
        '{"text": "ok", "label": true}',
        '{"question": ["2+2"], "answer": 4}',
        '{"question": "2+2?", "answer": NaN}',
    ],
    ids=["object-text", "bool-label", "list-question", "nan-answer"],
)
def test_load_jsonl_refuses_a_value_that_is_not_a_string_or_finite_number(tmp_path, row) -> None:
    file = tmp_path / "rows.jsonl"
    file.write_text(f'{{"text": "ok", "label": "Yes"}}\n{row}\n', encoding="utf-8")
    with pytest.raises(DatasetError, match=r"rows.jsonl:2: "):
        load(file, "jsonl")


def test_load_jsonl_reads_numbers_as_text(tmp_path) -> None:
    file = tmp_path / "math.jsonl"
    file.write_text(
        '{"question": 12, "answer": 4}\n{"question": "half of 5?", "answer": 2.5}\n', encoding="utf-8"
    )
    assert load(file, "jsonl", task_type="math") == [
        Example(0, "12", "4"),
        Example(1, "half of 5?", "2.5"),
    ]


@pytest.mark.parametrize(
    ("label", "number"),
    [
        ("+5", "5"),
        ("05", "5"),
        (".5", "0.5"),
        ("1,234", "1234"),
        ("-0.0", "0"),
        ("#### 72", "72"),
        ("48 + 24 = <<48+24=72>>72.\n#### 72", "72"),
        ("seventy-two", None),
        ("#### none", None),
        ("72 apples", None),
        ("5.", None),
    ],
)
def test_math_label_is_one_number_or_the_number_after_a_final_marker(tmp_path, label, number) -> None:
    assert math_label(label) == number
    # load refuses a math label that means no number, naming the file and the line.
    file = tmp_path / "math.jsonl"
    rows = [{"question": "q", "answer": "4"}, {"question": "q", "answer": label}]
    file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    if number is None:
        with pytest.raises(DatasetError, match=r"math.jsonl:2: expected a number"):
            load(file, "jsonl", task_type="math")
    else:
        assert load(file, "jsonl", task_type="math")[1].label == label


def test_load_trims_labels_only(tmp_path) -> None:
    file = tmp_path / "d.tsv"
    file.write_text("text body\t Yes \n", encoding="utf-8")
    assert load(file, "tsv")[0].label == "Yes"


def test_make_split_sizes_and_disjointness() -> None:
    examples = toy_examples(1000)
    split = make_split(examples, 200, seed=7, positive_label="Yes")
    assert len(split.test) == 200
    assert len(split.train) == 800
    assert not {e.id for e in split.test} & {e.id for e in split.train}


def test_make_split_boundary_and_error() -> None:
    examples = toy_examples(201)
    split = make_split(examples, 200, seed=1, positive_label="Yes")
    assert len(split.train) == 1
    with pytest.raises(DatasetError, match="too small"):
        make_split(toy_examples(100), 200, seed=1)


def test_make_split_is_seed_deterministic() -> None:
    examples = toy_examples(300)
    a = make_split(examples, 50, seed=9, positive_label="Yes")
    b = make_split(examples, 50, seed=9, positive_label="Yes")
    c = make_split(examples, 50, seed=10, positive_label="Yes")
    assert [e.id for e in a.test] == [e.id for e in b.test]
    assert [e.id for e in a.test] != [e.id for e in c.test]


def test_make_split_infers_label_set() -> None:
    split = make_split(toy_examples(30), 5, seed=0, positive_label="Yes")
    assert split.label_set == ("No", "Yes")
    assert make_split(toy_examples(30), 5, seed=0, positive_label="Yes", label_set=()) == split


@pytest.mark.parametrize("label_set", [None, (), ("No", "Yes")])
def test_make_split_refuses_a_positive_label_outside_the_labels(label_set) -> None:
    # F1 counts hits on the positive label, so with any other every score would read 0.0.
    message = "positive_label 'Maybe' is not one of the labels No, Yes"
    with pytest.raises(DatasetError, match=f"^{message}$"):
        make_split(toy_examples(30), 5, seed=0, positive_label="Maybe", label_set=label_set)
    with pytest.raises(DatasetError, match="positive_label '' is not one of the labels"):
        make_split(toy_examples(30), 5, seed=0, label_set=label_set)
    # Compared case-insensitively, as the scorer compares labels.
    split = make_split(toy_examples(30), 5, seed=0, positive_label="yes", label_set=label_set)
    assert split.positive_label == "yes"


def test_dataset_spec_refuses_an_empty_path() -> None:
    with pytest.raises(ConfigError, match=r"^\[dataset\] path is empty$"):
        DatasetSpec(path="")


def test_sample_minibatch_distinct_when_train_large() -> None:
    split = make_split(toy_examples(900), 100, seed=3, positive_label="Yes")
    batch = sample_minibatch(split, 64, seed=3, round_index=1)
    assert len(batch) == 64
    assert len({e.id for e in batch}) == 64


def test_sample_minibatch_with_replacement_when_train_small() -> None:
    split = make_split(toy_examples(12), 2, seed=3, positive_label="Yes")
    batch = sample_minibatch(split, 64, seed=3, round_index=1)
    assert len(batch) == 64
    assert {e.id for e in batch} <= {e.id for e in split.train}


def test_sample_minibatch_streams_by_round() -> None:
    split = make_split(toy_examples(900), 100, seed=3, positive_label="Yes")
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
    assert len(sample) == 3
    assert all(correctness[e.id] for e in sample)


def test_sample_by_correctness_empty_subset_flags_shortfall() -> None:
    minibatch = toy_examples(10)
    correctness = _correctness(minibatch, 0)
    sample = sample_by_correctness(minibatch, correctness, 3, "correct", seed=1, round_index=1)
    assert sample == ()


def test_sample_by_correctness_partial_subset_returned_whole() -> None:
    minibatch = toy_examples(10)
    correctness = _correctness(minibatch, 2)
    sample = sample_by_correctness(minibatch, correctness, 3, "correct", seed=1, round_index=1)
    assert len(sample) == 2


def test_sample_by_correctness_never_disagrees_with_polarity() -> None:
    minibatch = toy_examples(64)
    correctness = {e.id: e.id % 3 == 0 for e in minibatch}
    for want in ("correct", "incorrect"):
        for round_index in range(5):
            sample = sample_by_correctness(
                minibatch, correctness, 5, want, seed=11, round_index=round_index
            )
            assert all(correctness[e.id] == (want == "correct") for e in sample)


def test_sample_by_correctness_requires_full_coverage() -> None:
    minibatch = toy_examples(4)
    with pytest.raises(ValueError, match="missing"):
        sample_by_correctness(minibatch, {0: True}, 1, "correct", seed=1, round_index=1)
