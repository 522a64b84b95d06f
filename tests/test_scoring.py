from __future__ import annotations

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptopt import Gateway, ScriptedBackend, new_seed_prompt, scoring
from promptopt.data import Example, canonical_number
from promptopt.scoring import (
    evaluate_prompt,
    f1,
    parse_label,
    parse_math_answer,
    prediction_rows,
)
from promptopt.scripted import ScriptExhaustedError

from conftest import ConfusionCounts, SequenceScript, confusion_counts, task_split

YES_NO = ("Yes", "No")


def test_parse_label_first_occurrence() -> None:
    assert parse_label("Yes, this is hate speech.", YES_NO) == "Yes"


def test_parse_label_whole_token_rule() -> None:
    # Brute-force token oracle: earliest whole token from the label set.
    raw = "It is not a lie. No."
    tokens = [(m.start(), m.group(0)) for m in re.finditer(r"[A-Za-z]+", raw)]
    oracle = next(
        (tok for _, tok in tokens if tok.lower() in {l.lower() for l in YES_NO}), None
    )
    assert oracle == "No"  # "not" is not a whole-token match
    assert parse_label(raw, YES_NO) == "No"


def test_parse_label_no_match() -> None:
    assert parse_label("unsure", YES_NO) is None
    with pytest.raises(ValueError, match="label_set is empty"):
        parse_label("Yes", ())


def test_parse_label_case_insensitive_returns_canonical_casing() -> None:
    assert parse_label("the answer is yes", YES_NO) == "Yes"


def test_parse_label_finds_labels_that_begin_or_end_with_non_word_characters() -> None:
    plus_minus = ("+1", "-1")
    assert parse_label("+1", plus_minus) == "+1"
    assert parse_label("x+1, so (-1)", plus_minus) == "-1"
    assert parse_label("n/a.", ("N/A.", "ok")) == "N/A."


def _parse_label_loop(raw: str, label_set) -> str | None:
    """Reference: one whole-token search per label, earliest start wins.

    A whole token has no word character just before or just after it.
    """
    best = None
    for label in label_set:
        match = re.search(rf"(?<!\w){re.escape(label)}(?!\w)", raw, re.IGNORECASE)
        if match and (best is None or match.start() < best[0]):
            best = (match.start(), label)
    return best[1] if best else None


# Small alphabets so labels overlap, prefix each other, differ only in case
# and repeat; "." and "-" give labels and text non-word characters.
_LABEL = st.text(alphabet="yYesNno01 .-", min_size=1, max_size=6)


@st.composite
def _label_case(draw):
    labels = draw(st.lists(_LABEL, min_size=1, max_size=5))
    mention = st.tuples(st.sampled_from(labels), st.sampled_from([str, str.upper, str.lower]))
    filler = st.text(alphabet="yYesNno01 .,-x", max_size=6)
    pieces = draw(st.lists(st.one_of(mention.map(lambda lc: lc[1](lc[0])), filler), max_size=8))
    return "".join(pieces), labels


@given(_label_case())
def test_parse_label_matches_per_label_loop(case) -> None:
    raw, labels = case
    assert parse_label(raw, labels) == _parse_label_loop(raw, labels)
    assert parse_label(raw, tuple(labels)) == _parse_label_loop(raw, labels)


def test_parse_math_marker_rule() -> None:
    assert parse_math_answer("some working ... #### 42") == "42"


def test_parse_math_last_number_extraction() -> None:
    # Oracle: last number token of the tokenized string, commas stripped.
    raw = "so the answer is 1,234."
    tokens = re.findall(r"-?\d[\d,]*(?:\.\d+)?", raw)
    assert tokens[-1].replace(",", "") == "1234"
    assert parse_math_answer(raw) == "1234"


def test_parse_math_absent() -> None:
    assert parse_math_answer("no numbers here") is None


def test_parse_math_canonicalization() -> None:
    assert parse_math_answer("#### 1,234") == "1234"
    assert parse_math_answer("#### 42.0") == "42"
    assert parse_math_answer("value 3.50 then 2.25") == "2.25"
    assert parse_math_answer("#### 1.50") == "1.5"
    assert canonical_number("1.50") == canonical_number("1.5") == "1.5"
    assert canonical_number("100") == "100"
    assert canonical_number("10.050") == "10.05"


def test_f1_perfect() -> None:
    assert f1(tp=5, fp=0, fn=0) == 1.0


def test_f1_hand_computed() -> None:
    assert f1(tp=3, fp=1, fn=2) == pytest.approx(2 * 3 / (6 + 1 + 2))


def test_f1_zero_tp_convention() -> None:
    assert f1(tp=0, fp=0, fn=0) == 0.0
    assert f1(tp=0, fp=4, fn=3) == 0.0


def test_confusion_counts_total_invariant() -> None:
    golds = ["Yes", "No", "Yes", "No"]
    parsed = ["Yes", "Yes", None, "No"]
    cc = confusion_counts(golds, parsed, "Yes")
    assert cc == ConfusionCounts(tp=1, fp=1, fn=1, tn=1)
    assert cc.tp + cc.fp + cc.fn + cc.tn == 4


def test_f1_matches_brute_force_oracle_on_random_sets() -> None:
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(1, 200)
        golds = [rng.choice(YES_NO) for _ in range(n)]
        parsed = [rng.choice([*YES_NO, None]) for _ in range(n)]
        tp = sum(1 for g, p in zip(golds, parsed) if g == "Yes" and p == "Yes")
        fp = sum(1 for g, p in zip(golds, parsed) if g == "No" and p == "Yes")
        fn = sum(1 for g, p in zip(golds, parsed) if g == "Yes" and p != "Yes")
        oracle = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
        cc = confusion_counts(golds, parsed, "Yes")
        assert f1(cc.tp, cc.fp, cc.fn) == oracle


def test_prediction_dict_form_keys_in_field_order() -> None:
    # The keys predictions.jsonl has written since its rows were dataclasses, the prompt id first.
    rows = prediction_rows(7, [Example(4, "q", "No")], ["no"], [True], _task())
    assert [list(row.items()) for row in rows] == [[
        ("prompt_id", 7),
        ("example_id", 4),
        ("raw_output", "no"),
        ("parsed_label", "No"),
        ("correct", True),
    ]]


def _task(**kwargs):
    base = dict(task_type="classification", label_set=YES_NO, positive_label="Yes")
    base.update(kwargs)
    return task_split(**base)


def _examples(n: int = 8) -> list[Example]:
    return [Example(i, f"input {i}", "Yes" if i % 2 == 0 else "No") for i in range(n)]


def _oracle_gateway() -> Gateway:
    def responder(req):
        # Answers the true label: inputs end with their id.
        idx = int(req.rendered_prompt.rsplit(" ", 1)[1])
        return "Yes" if idx % 2 == 0 else "No"

    return Gateway(ScriptedBackend(responder))


def test_evaluate_prompt_oracle_backend_scores_one() -> None:
    prompt = new_seed_prompt("classify")
    score, _, correct = evaluate_prompt(prompt, _examples(), _oracle_gateway(), _task())
    assert score == 1.0
    assert all(correct)


def test_evaluate_prompt_always_negative_scores_zero() -> None:
    gw = Gateway(ScriptedBackend(lambda req: "No"))
    score, _, correct = evaluate_prompt(new_seed_prompt("classify"), _examples(), gw, _task())
    assert score == 0.0
    assert not all(correct)


def test_evaluate_prompt_one_call_per_example() -> None:
    gw = _oracle_gateway()
    examples = _examples(64)
    evaluate_prompt(new_seed_prompt("classify"), examples, gw, _task())
    assert gw.call_count() == 64


def test_evaluate_prompt_score_invariant_under_permutation() -> None:
    examples = _examples(16)
    shuffled = list(examples)
    random.Random(5).shuffle(shuffled)
    prompt = new_seed_prompt("classify")

    def flaky(req):
        idx = int(req.rendered_prompt.rsplit(" ", 1)[1])
        return "Yes" if idx % 3 == 0 else "No"

    s1, *r1 = evaluate_prompt(prompt, examples, Gateway(ScriptedBackend(flaky)), _task())
    s2, *r2 = evaluate_prompt(prompt, shuffled, Gateway(ScriptedBackend(flaky)), _task())
    assert s1 == s2
    # The rows are ordered by example id.
    assert prediction_rows(0, examples, *r1, _task()) == prediction_rows(0, shuffled, *r2, _task())


def test_evaluate_prompt_math_accuracy_is_mean_of_correct() -> None:
    examples = [Example(i, f"sum {i}", str(i)) for i in range(10)]

    def solver(req):
        idx = int(req.rendered_prompt.rsplit(" ", 1)[1])
        return f"#### {idx}" if idx < 7 else "#### 0"

    score, _, correct = evaluate_prompt(
        new_seed_prompt("solve"),
        examples,
        Gateway(ScriptedBackend(solver)),
        _task(task_type="math", label_set=(), positive_label=""),
    )
    assert score == pytest.approx(sum(correct) / len(correct))
    assert score == pytest.approx(0.7)


def test_evaluate_prompt_unparseable_counts_as_negative() -> None:
    gw = Gateway(ScriptedBackend(lambda req: "mumble"))
    examples = _examples(4)
    score, texts, correct = evaluate_prompt(new_seed_prompt("classify"), examples, gw, _task())
    assert score == 0.0
    predictions = prediction_rows(0, examples, texts, correct, _task())
    assert all(row["parsed_label"] is None and not row["correct"] for row in predictions)


def test_evaluate_prompt_rejects_empty_examples() -> None:
    with pytest.raises(ValueError):
        evaluate_prompt(new_seed_prompt("classify"), [], _oracle_gateway(), _task())


def test_evaluate_prompt_tags_failing_example() -> None:
    gw = Gateway(ScriptedBackend(SequenceScript({"task_eval": ["Yes"]})))
    with pytest.raises(ScriptExhaustedError, match="example id 1"):
        evaluate_prompt(new_seed_prompt("classify"), _examples(3), gw, _task())


def test_evaluate_prompt_sends_examples_in_given_order_and_tags_by_position() -> None:
    examples = [_examples(10)[i] for i in (5, 3, 9)]
    gw = Gateway(ScriptedBackend(SequenceScript({"task_eval": ["Yes"]})))
    with pytest.raises(ScriptExhaustedError, match="example id 3"):
        evaluate_prompt(new_seed_prompt("classify"), examples, gw, _task())
    gw = Gateway(ScriptedBackend(lambda req: "Yes"))
    _, texts, correct = evaluate_prompt(new_seed_prompt("classify"), examples, gw, _task())
    assert [req.rendered_prompt for req, _ in gw.transcript.entries] == [
        "classify\ninput 5",
        "classify\ninput 3",
        "classify\ninput 9",
    ]
    predictions = prediction_rows(0, examples, texts, correct, _task())
    assert [row["example_id"] for row in predictions] == [3, 5, 9]


def test_parse_label_numeric_label_set() -> None:
    assert parse_label("the verdict is 1", ("0", "1")) == "1"
    assert parse_label("0", ("0", "1")) == "0"
    # "10" is not a whole-token match for either label.
    assert parse_label("count 10 items", ("0", "1")) is None


def test_parse_math_negative_and_marker_precedence() -> None:
    assert parse_math_answer("#### -3") == "-3"
    # The marker wins over earlier numbers in the body.
    assert parse_math_answer("we get 7, then 9. #### 12") == "12"


def test_evaluate_prompt_score_always_within_unit_interval() -> None:
    rng = random.Random(77)
    examples = _examples(12)
    outputs = ["Yes", "No", "mumble", "Yes and No", "answer: 4"]

    def chaotic(req):
        return rng.choice(outputs)

    for _ in range(20):
        score, texts, correct = evaluate_prompt(
            new_seed_prompt("classify"), examples, Gateway(ScriptedBackend(chaotic)), _task()
        )
        assert 0.0 <= score <= 1.0
        assert len(texts) == len(correct) == len(examples)


def _two_pass_evaluate(prompt, examples, gateway, task):
    """Reference: evaluate_prompt and its prediction rows as they were before it scored in one pass.

    Builds every prediction row, sorts them and the examples by id, then counts
    the confusion matrix in a second pass over the sorted pairs. Returns the
    score, each answer's correctness in the order given, and the rows.
    """
    texts = gateway.complete_many(
        "task_eval", [f"{prompt.text}\n{ex.input_text}" for ex in examples]
    )
    predictions = []
    correctness = []
    for ex, text in zip(examples, texts):
        if task.task_type == "math":
            parsed = parse_math_answer(text)
            gold = parse_math_answer(ex.label) if "####" in ex.label else canonical_number(ex.label)
            correct = parsed is not None and parsed == gold
        else:
            parsed = parse_label(text, task.label_set)
            correct = parsed is not None and parsed.lower() == ex.label.lower()
        correctness.append(correct)
        predictions.append({
            "prompt_id": prompt.id,
            "example_id": ex.id,
            "raw_output": text,
            "parsed_label": parsed,
            "correct": correct,
        })
    predictions.sort(key=lambda p: p["example_id"])
    if task.task_type == "math":
        score = sum(p["correct"] for p in predictions) / len(predictions)
    else:
        ordered = sorted(examples, key=lambda e: e.id)
        cc = confusion_counts(
            [ex.label for ex in ordered],
            [p["parsed_label"] for p in predictions],
            task.positive_label,
        )
        score = f1(cc.tp, cc.fp, cc.fn)
    return score, correctness, predictions


_CASINGS = st.sampled_from([str, str.upper, str.lower, str.swapcase])
_LABEL_SETS = st.sampled_from([YES_NO, ("positive", "negative", "neutral"), ("0", "1")])
_MATH_GOLDS = st.sampled_from(["3", "42", "1,000", "7.0", "-2"])


@st.composite
def _eval_case(draw, task_type: str):
    """A task, a batch drawn with replacement from a few examples, and each input's answer.

    Gold labels and answers come in mixed case; answers may name no label,
    or several; the positive label may be empty or outside the label set,
    and a math task may name one of its gold numbers.
    """
    if task_type == "math":
        # A positive label means nothing to a math score; drawing one checks that.
        task = task_split("math", positive_label=draw(st.sampled_from([""]) | _MATH_GOLDS))
        golds = _MATH_GOLDS
        answers = st.one_of(
            _MATH_GOLDS.map(lambda n: f"#### {n}"),
            _MATH_GOLDS.map(lambda n: f"so it is {n}."),
            st.sampled_from(["no idea", "#### none", "1 then #### 42", "7.00"]),
        )
    else:
        label_set = draw(_LABEL_SETS)
        positive = draw(
            st.one_of(
                st.tuples(st.sampled_from(label_set), _CASINGS).map(lambda lc: lc[1](lc[0])),
                st.sampled_from(["", "Maybe"]),
            )
        )
        task = task_split("classification", label_set, positive)
        golds = st.tuples(st.sampled_from(label_set), _CASINGS).map(lambda lc: lc[1](lc[0]))
        mention = st.tuples(st.sampled_from(label_set), _CASINGS).map(lambda lc: lc[1](lc[0]))
        answers = st.one_of(
            mention,
            mention.map(lambda m: f"I would say {m}."),
            st.tuples(mention, mention).map(lambda mm: f"{mm[0]} or {mm[1]}"),
            st.sampled_from(["unsure", "", "nothing fits"]),
        )
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    pool = [Example(i, f"input {i}", draw(golds)) for i in ids]
    answer_of = {ex.input_text: draw(answers) for ex in pool}
    batch = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return task, batch, answer_of


@given(st.sampled_from(["classification", "math"]).flatmap(_eval_case))
def test_evaluate_prompt_matches_two_pass_reference(case) -> None:
    task, batch, answer_of = case
    prompt = new_seed_prompt("classify")

    def gateway() -> Gateway:
        return Gateway(ScriptedBackend(lambda req: answer_of[req.rendered_prompt.split("\n", 1)[1]]))

    score, texts, correct = evaluate_prompt(prompt, batch, gateway(), task)
    ref_score, ref_correct, ref_predictions = _two_pass_evaluate(prompt, batch, gateway(), task)
    assert score == ref_score
    assert correct == ref_correct
    assert texts == [answer_of[ex.input_text] for ex in batch]
    assert prediction_rows(prompt.id, batch, texts, correct, task) == ref_predictions


@pytest.mark.parametrize(
    "token, canonical",
    [
        ("+5", "5"),
        ("05", "5"),
        ("+05", "5"),
        (".5", "0.5"),
        ("00.5", "0.5"),
        ("+.50", "0.5"),
        ("-.5", "-0.5"),
        ("-0", "0"),
        ("-0.0", "0"),
        ("+0", "0"),
        ("000", "0"),
        ("-007.10", "-7.1"),
        ("1,000", "1000"),
        ("n/a", "n/a"),
    ],
)
def test_canonical_number_drops_plus_leading_zeros_and_the_sign_of_zero(
    token, canonical
) -> None:
    assert canonical_number(token) == canonical


def test_parse_math_reads_a_number_that_starts_with_its_point() -> None:
    assert parse_math_answer("#### .5") == "0.5"
    assert parse_math_answer("#### -.25") == "-0.25"
    assert parse_math_answer("about .75 of it") == "0.75"
    assert parse_math_answer("#### +5") == "5"


def test_evaluate_prompt_math_labels_with_plus_leading_zero_or_point() -> None:
    examples = [Example(0, "q0", "+5"), Example(1, "q1", "05"), Example(2, "q2", ".5")]
    answers = {"q0": "#### 5", "q1": "it is 5", "q2": "#### 0.50"}
    gw = Gateway(ScriptedBackend(lambda req: answers[req.rendered_prompt.split("\n", 1)[1]]))
    task = _task(task_type="math", label_set=())
    score, texts, correct = evaluate_prompt(new_seed_prompt("solve"), examples, gw, task)
    assert score == 1.0
    predictions = prediction_rows(0, examples, texts, correct, task)
    assert [row["parsed_label"] for row in predictions] == ["5", "5", "0.5"]


def test_evaluate_prompt_math_label_in_gsm8k_form_is_its_final_number() -> None:
    # GSM8K's answer field is a worked solution ending "#### N".
    examples = [
        Example(0, "q0", "48 + 24 = <<48+24=72>>72.\n#### 72"),
        Example(1, "q1", "Half of 3 is <<3/2=1.5>>1.5\n#### 1.50"),
        Example(2, "q2", "2 * 3 = <<2*3=6>>6\n#### 6"),
        Example(3, "q3", "#### +05"),
        Example(4, "q4", "no number after the marker ####"),
    ]
    answers = {"q0": "#### 72", "q1": "so 1.5", "q2": "#### 7", "q3": "#### 5", "q4": "#### 0"}
    gw = Gateway(ScriptedBackend(lambda req: answers[req.rendered_prompt.split("\n", 1)[1]]))
    score, _, correct = evaluate_prompt(
        new_seed_prompt("solve"), examples, gw, _task(task_type="math", label_set=())
    )
    assert correct == [True, True, False, True, False]
    assert score == 3 / 5


@pytest.mark.parametrize("task_type, parser", [
    ("classification", "parse_label"), ("math", "parse_math_answer"),
])
def test_evaluate_prompt_parses_each_distinct_answer_once(monkeypatch, task_type, parser) -> None:
    parsed: list[str] = []
    parse = getattr(scoring, parser)

    def counting(raw, *args):
        parsed.append(raw)
        return parse(raw, *args)

    monkeypatch.setattr(scoring, parser, counting)
    answers = ["Yes", "#### 3", "yes", "Yes", "mumble", "#### 3", "mumble", "Yes"]
    examples = _examples(len(answers))
    gw = Gateway(ScriptedBackend(lambda req: answers[int(req.rendered_prompt.rsplit(" ", 1)[1])]))
    task = _task() if task_type == "classification" else _task(task_type="math", label_set=())
    evaluate_prompt(new_seed_prompt("classify"), examples, gw, task)
    assert sorted(parsed) == sorted(set(answers))


_ANSWER_POOLS = {
    "classification": st.sampled_from(
        ["Yes", "yes", "YES", "No", "no", "I would say No.", "Yes or no", "unsure", ""]
    ),
    "math": st.sampled_from(
        ["#### 3", "#### +3", "#### 03", "#### .5", "#### 0.50", "so 42.", "no idea", "7.00"]
    ),
}
_GOLDS = {
    "classification": st.tuples(st.sampled_from(YES_NO), _CASINGS).map(lambda lc: lc[1](lc[0])),
    "math": st.sampled_from(
        ["3", "+3", "03", ".5", "0.5", "42", "-0", "7", "1 + 2 = <<1+2=3>>3\n#### 3", "#### .50"]
    ),
}


@st.composite
def _answer_list_case(draw, task_type: str):
    """A task, examples with distinct ids, and an answer per example that often repeats."""
    if task_type == "math":
        task = task_split("math")
    else:
        positive = draw(st.sampled_from(["Yes", "no", "", "Maybe"]))
        task = task_split("classification", YES_NO, positive)
    answers = draw(st.lists(_ANSWER_POOLS[task_type], min_size=1, max_size=16))
    ids = draw(st.permutations(range(len(answers))))
    examples = [Example(i, f"input {i}", draw(_GOLDS[task_type])) for i in ids]
    return task, examples, answers


@given(st.sampled_from(["classification", "math"]).flatmap(_answer_list_case))
def test_evaluate_prompt_equals_parsing_each_answer_on_its_own(case) -> None:
    task, examples, answers = case
    answer_of = {ex.input_text: answer for ex, answer in zip(examples, answers)}
    prompt = new_seed_prompt("classify")

    def gateway() -> Gateway:
        return Gateway(ScriptedBackend(lambda req: answer_of[req.rendered_prompt.split("\n", 1)[1]]))

    score, texts, correct = evaluate_prompt(prompt, examples, gateway(), task)
    ref_score, ref_correct, ref_predictions = _two_pass_evaluate(prompt, examples, gateway(), task)
    assert score == ref_score
    assert correct == ref_correct
    assert prediction_rows(prompt.id, examples, texts, correct, task) == ref_predictions
