"""The beam-search orchestrator: evaluate, expand, select, record, report.

Each round evaluates the current beam on a fresh minibatch, expands every
parent into candidate children, prunes back to the beam width with the UCB
bandit, records the momentum pool, and scores the best survivor on the held
out test split unless an earlier round already did. One metric event is
emitted per round (plus a round-0 event for the seed), powering the
score-versus-round/time/calls reports and the convergence detector.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from . import artifact, bandit, momentum
from .data import DatasetSplit, Example, sample_by_correctness, sample_minibatch
from .gateway import Gateway, GatewayError, ReplayBackend
from .gradients import GradientEngine, TemplateSet
from .model import (
    Beam,
    ConfigError,
    GradientHistory,
    Prompt,
    PromptStore,
    RunConfig,
    derived_rng,
)
from .scoring import evaluate_prompt, prediction_rows


class RunIncompleteError(GatewayError):
    """The run aborted mid-flight; a partial artifact was flagged incomplete."""

    def __init__(self, message: str, artifact_dir: str):
        super().__init__(message)
        self.artifact_dir = artifact_dir


class MetricEvent(NamedTuple):
    """One telemetry row; counters are cumulative and nondecreasing.

    ``best_train_score`` is None only on the round-0 event, where no training
    measurement has happened yet. ``eval_calls`` counts each tested prompt
    once: a round whose top survivor was already tested adds 0 to it and
    reports the stored ``best_test_score``.
    """

    round: int
    elapsed_s: float
    optimize_calls: int
    eval_calls: int
    best_train_score: float | None
    best_test_score: float
    best_prompt_id: int


class ConvergenceReport(NamedTuple):
    target_score: float | None
    reached: bool
    convergence_time_s: float | None = None
    convergence_calls: int | None = None
    convergence_steps: int | None = None


class RunResult(NamedTuple):
    best: Prompt
    events: list[MetricEvent]
    report: ConvergenceReport
    artifact_dir: str
    beams: list[Beam]
    history: GradientHistory
    store: PromptStore
    arm_tables: list[tuple[bandit.ArmState, ...]]


def expected_calls_per_round(cfg: RunConfig, round_index: int) -> int:
    """Closed-form optimize-call count for one round, in every gradient mode.

    Per parent: the minibatch evaluation, one generator call per polarity of
    :func:`_polarity_plan`, ``candidates_per_parent`` editor calls and
    ``paraphrases_per_parent`` paraphrase calls; then the bandit pulls.
    Parents number 1 in round 1 and the beam width afterwards. Assumes no
    shortfalls: every polarity's correctness sample is non-empty and each
    generator call yields all its gradients. Requests the gateway answers from
    its temperature-0 memo count, as they do in the ``optimize`` bucket.
    """
    parents = 1 if round_index <= 1 else cfg.beam_width
    expansion = len(_polarity_plan(cfg)) + cfg.candidates_per_parent + cfg.paraphrases_per_parent
    pulls = cfg.bandit.time_steps * cfg.bandit.sample_size
    return parents * (cfg.minibatch_size + expansion) + pulls


def detect_convergence(events: Sequence[MetricEvent], target_score: float) -> ConvergenceReport:
    """First event whose test score reaches the target fixes time/calls/steps."""
    if not events:
        raise ValueError("events is empty")
    for event in sorted(events, key=lambda e: e.round):
        if event.best_test_score >= target_score:
            return ConvergenceReport(
                target_score=target_score,
                reached=True,
                convergence_time_s=event.elapsed_s,
                convergence_calls=event.optimize_calls + event.eval_calls,
                convergence_steps=event.round,
            )
    return ConvergenceReport(target_score=target_score, reached=False)


def _polarity_plan(cfg: RunConfig) -> list[tuple[str, int]]:
    """How many gradients to request per polarity under ``cfg.gradient_mode``."""
    g = cfg.num_gradients
    if cfg.gradient_mode == "negative_only":
        return [("negative", g)]
    if cfg.gradient_mode == "both":
        positive = math.ceil(g / 2)
        return [("positive", positive), ("negative", g - positive)] if g > 1 else [("positive", 1)]
    return [("positive", g)]


def expand_parent(
    engine: GradientEngine,
    parent: Prompt,
    round_index: int,
    minibatch: Sequence[Example],
    correct: Sequence[bool],
    history_binding: str,
) -> None:
    """Expand a parent into this round's children, which the engine adds to the store.

    ``correct`` holds the parent's verdict on each minibatch example, aligned
    with it. For each polarity in the plan: sample correct (positive) or
    incorrect (negative) examples, make one generator call, then one batch of
    editor calls along all of that polarity's gradients. One batch of
    ``paraphrases_per_parent`` paraphrases of the parent follows. An empty
    correctness sample skips that polarity and the parent simply carries
    through. A parent with a correctness sample smaller than
    ``num_correct_examples`` adds one to ``engine.sample_shortfalls``.
    """
    cfg = engine.cfg
    shortfall = False
    ordinal = 1
    for polarity, count in _polarity_plan(cfg):
        want = "correct" if polarity == "positive" else "incorrect"
        sample = sample_by_correctness(
            minibatch,
            correct,
            cfg.num_correct_examples,
            want,
            seed=f"{cfg.rng_seed}|parent{parent.id}",
            round_index=round_index,
        )
        shortfall = shortfall or len(sample) < cfg.num_correct_examples
        if not sample:
            continue
        gradients = engine.generate_gradients(
            parent, sample, history_binding, round_index, polarity, count
        )
        if gradients:
            engine.apply_gradient(parent, gradients, sample, history_binding, round_index, ordinal)
            ordinal += engine.edits_per_gradient * len(gradients)
    if cfg.paraphrases_per_parent > 0:
        engine.paraphrase_expand(parent, cfg.paraphrases_per_parent, round_index)
    engine.sample_shortfalls += shortfall


class _Search:
    """One run's state, with a method per phase of the round."""

    def __init__(
        self,
        seed_prompt: Prompt,
        split: DatasetSplit,
        cfg: RunConfig,
        gateway: Gateway,
        templates: TemplateSet,
    ):
        self.split, self.cfg, self.gateway = split, cfg, gateway
        self.store = PromptStore()
        seed = self.store.new_prompt(seed_prompt.text, round=0)
        self.engine = GradientEngine(cfg, gateway, self.store, templates, split.task_type)
        self.history = GradientHistory()
        self.beams: list[Beam] = [Beam(round=0, prompts=(seed.id,))]
        self.arm_tables: list[tuple[bandit.ArmState, ...]] = []
        self.events: list[MetricEvent] = []
        self.test_predictions: list[dict] = []

    def score_beam(self, round_index: int) -> Iterator[tuple[Prompt, list[Example], list[bool]]]:
        """Score each prompt of the last beam, in beam order, on the round's minibatch.

        Stores each score as the prompt's train score and yields the scored
        prompt, the minibatch and its per-example verdicts. Lazy: a prompt is
        scored only when the caller asks for the next one, so a parent's
        expansion requests follow its own evaluation and precede the next
        parent's, the round's fixed request order.
        """
        cfg = self.cfg
        minibatch = sample_minibatch(self.split, cfg.minibatch_size, cfg.rng_seed, round_index)
        for prompt_id in self.beams[-1].prompts:
            score, _, correct = evaluate_prompt(
                self.store.prompts[prompt_id], minibatch, self.gateway, self.split
            )
            yield self.store.set_train_score(prompt_id, score), minibatch, correct

    def expand(self, round_index: int) -> float:
        """Score each parent on the round's minibatch and expand it into children.

        The children and their gradients go to the store. Returns the best
        parent score.
        """
        history_binding = momentum.history_text(self.history, round_index, self.store.gradients)
        scores: list[float] = []
        for parent, minibatch, correct in self.score_beam(round_index):
            scores.append(parent.train_score)
            expand_parent(self.engine, parent, round_index, minibatch, correct, history_binding)
        return max(scores)

    def select(self, round_index: int) -> None:
        """Prune the parents and the round's children to the beam width with the UCB bandit."""
        prompts = self.store.prompts
        candidates = [prompts[parent_id] for parent_id in self.beams[-1].prompts]
        candidates += [p for p in prompts.values() if p.round == round_index]
        selection = bandit.select(
            candidates,
            self.split.train,
            self.cfg.bandit,
            self.cfg.beam_width,
            rng=derived_rng(self.cfg.rng_seed, "bandit", round_index),
            evaluate=lambda p, batch: evaluate_prompt(p, batch, self.gateway, self.split)[0],
        )
        self.beams.append(Beam(round=round_index, prompts=tuple(p.id for p in selection.selected)))
        self.arm_tables.append(selection.arms)

    def record_momentum(self) -> None:
        """Pool the round's positive gradients that produced a survivor and sample one.

        With momentum off, nothing is pooled or sampled, so every history slot binds ``(none)``.
        """
        if not self.cfg.momentum_enabled:
            return
        beam = self.beams[-1]
        pool = momentum.record_round(beam, self.store.gradients, self.store.prompts)
        self.history.pools[beam.round] = tuple(g.id for g in pool)
        sampled = momentum.sample_history_gradient(pool, self.cfg.rng_seed, beam.round)
        if sampled is not None:
            self.history.sampled[beam.round] = sampled.id

    def score_on_test(self, prompt: Prompt) -> float:
        """Score a prompt on the test split, as evaluation calls, once per prompt id.

        A prompt already tested keeps its stored score and sends no request.
        """
        stored = self.store.prompts[prompt.id].test_score
        if stored is not None:
            return stored
        test = self.split.test
        with self.gateway.count_as_eval():
            score, texts, correct = evaluate_prompt(prompt, test, self.gateway, self.split)
        self.store.set_test_score(prompt.id, score)
        if self.cfg.emit_predictions:
            self.test_predictions += prediction_rows(prompt.id, test, texts, correct, self.split)
        return score

    def test_event(self, round_index: int, train_best: float | None) -> None:
        """Test the latest beam's top prompt and append the round's metric event."""
        prompt = self.store.prompts[self.beams[-1].prompts[0]]
        test_score = self.score_on_test(prompt)
        gateway = self.gateway
        self.events.append(MetricEvent(
            round=round_index,
            elapsed_s=gateway.elapsed_seconds(),
            optimize_calls=gateway.optimize_calls(),
            eval_calls=gateway.eval_calls(),
            best_train_score=train_best,
            best_test_score=test_score,
            best_prompt_id=prompt.id,
        ))

    def final_argmax(self) -> Prompt:
        """Argmax train metric over the last beam on a fresh minibatch, ties to the lowest id."""
        scored = self.score_beam(self.cfg.search_depth + 1)
        best = min((p for p, _, _ in scored), key=lambda p: (-p.train_score, p.id))
        self.score_on_test(best)
        return self.store.prompts[best.id]


def run(
    seed_prompt: Prompt,
    split: DatasetSplit,
    cfg: RunConfig,
    gateway: Gateway,
    out_dir: str | Path,
    *,
    templates: TemplateSet = TemplateSet(),
    method_name: str = "mapo",
    config_context: dict | None = None,
) -> RunResult:
    """Execute a full optimization run and write its artifact directory.

    The run's store makes the seed, prompt 0, from ``seed_prompt``'s text
    alone. Returns the best prompt of the final beam (argmax train metric on
    a fresh minibatch, ties to the lowest id), the per-round metric events,
    and the convergence report. Any abort writes a partial artifact flagged
    incomplete: an unrecoverable gateway failure then raises
    :class:`RunIncompleteError`, and any other exception is re-raised as is.
    A gateway whose temperature is not ``cfg.temperature``, or a split whose
    test set does not hold ``cfg.test_set_size`` examples, raises
    :class:`ConfigError` before the artifact directory is made; so does a
    replay whose recording is the file ``out_dir/transcript.jsonl``, which
    the run would replace.

    Once the directory is made, and before the first request, every artifact
    file name is removed from it (:func:`artifact.clear`), so each file the
    run writes is a new one: a hard link to, or an open reader of, an earlier
    run's file keeps its bytes, and a run killed before it writes leaves none
    of them. A name that cannot be removed raises :class:`ConfigError`
    naming its path, with no request sent.
    """
    if gateway.temperature != cfg.temperature:
        raise ConfigError(
            f"gateway temperature {gateway.temperature} is not the run's {cfg.temperature}"
        )
    if len(split.test) != cfg.test_set_size:
        raise ConfigError(
            f"split has {len(split.test)} test examples, "
            f"not the run's test_set_size {cfg.test_set_size}"
        )
    out = Path(out_dir)
    own = out / artifact.TRANSCRIPT_FILE
    source = gateway.backend.source if isinstance(gateway.backend, ReplayBackend) else None
    if source is not None and own.is_file() and os.path.samefile(source, own):
        raise ConfigError(f"replay transcript {source} is the run's own {own}, which the run replaces")
    out.mkdir(parents=True, exist_ok=True)
    artifact.clear(out)
    state = _Search(seed_prompt, split, cfg, gateway, templates)

    # Set only once the run finishes, so the artifact that ``finally`` writes
    # after any abort, an interrupt included, is flagged incomplete.
    status = "incomplete"
    best: Prompt | None = None
    report: ConvergenceReport | None = None
    try:
        state.test_event(0, None)
        for round_index in range(1, cfg.search_depth + 1):
            train_best = state.expand(round_index)
            state.select(round_index)
            state.record_momentum()
            state.test_event(round_index, train_best)
        best = state.final_argmax()
        if cfg.convergence_target is not None:
            report = detect_convergence(state.events, cfg.convergence_target)
        else:
            report = ConvergenceReport(target_score=None, reached=False)
        status = "complete"
    except GatewayError as exc:
        raise RunIncompleteError(f"run aborted: {exc}", artifact_dir=str(out)) from exc
    finally:
        _write_artifact(out, state, status, best, report, method_name, config_context)
    return RunResult(
        best=best,
        events=state.events,
        report=report,
        artifact_dir=str(out),
        beams=state.beams,
        history=state.history,
        store=state.store,
        arm_tables=state.arm_tables,
    )


# Fixed decision notes echoed into every run's metadata.
_RUN_NOTES = [
    "one minibatch per round, shared by all parents",
    "parents compete with their children for selection",
    "editor calls append a distinct 'Variant j of k' ordinal line for diversity at temperature 0",
    "negative-mode templates mirror the positive ones (correct->wrong, strengths->weaknesses)",
    "'both' gradient mode splits gradient count evenly across polarities, positives first",
    "per-round test evaluation scores the bandit's top survivor once per prompt;"
    " a survivor already tested keeps its score",
]


def _write_artifact(
    out: Path,
    state: _Search,
    status: str,
    best: Prompt | None,
    report: ConvergenceReport | None,
    method_name: str,
    config_context: dict | None,
) -> None:
    cfg, store = state.cfg, state.store
    artifact.write_json(out / artifact.CONFIG_FILE, {**asdict(cfg), **(config_context or {})})
    artifact.write_json(
        out / artifact.META_FILE,
        {
            "method": method_name,
            "status": status,
            "gradient_mode": cfg.gradient_mode,
            "momentum_enabled": cfg.momentum_enabled,
            "bandit": asdict(cfg.bandit),
            # Attempts that reached the backend (one per transcript line, plus
            # any live retries) and temperature-0 repeats answered without one.
            # events.jsonl counts both, as the requests the method issued.
            "calls": {
                "wire": state.gateway.call_count(),
                "memo_hits": state.gateway.memo_hits(),
            },
            # What went wrong without stopping the run: gradient, edit and paraphrase
            # completions with no delimited span that holds text, parent expansions with a
            # correctness sample smaller than num_correct_examples, and candidates
            # the bandit never pulled, summed over the rounds' arm tables.
            "anomalies": {
                "parse_shortfalls": state.engine.parse_shortfalls,
                "sample_shortfalls": state.engine.sample_shortfalls,
                "unpulled_arms": sum(a.N == 0 for table in state.arm_tables for a in table),
            },
            "notes": _RUN_NOTES,
        },
    )
    artifact.write_jsonl(out / artifact.EVENTS_FILE, [e._asdict() for e in state.events])
    # Each record's row is its fields and its type; json writes a tuple as a
    # list. The store numbers its records as it adds them, so its order is id
    # order. Generators, so that each row is dropped once it is encoded.
    for name, kind, records in (
        (artifact.BEAMS_FILE, "beam", state.beams),
        (artifact.PROMPTS_FILE, "prompt", store.prompts.values()),
        (artifact.GRADIENTS_FILE, "gradient", store.gradients.values()),
    ):
        artifact.write_jsonl(out / name, ({"type": kind, **r._asdict()} for r in records))
    artifact.write_json(
        out / artifact.HISTORY_FILE,
        {
            "pools": {str(r): list(ids) for r, ids in sorted(state.history.pools.items())},
            "sampled": {str(r): gid for r, gid in sorted(state.history.sampled.items())},
        },
    )
    artifact.write_jsonl(
        out / artifact.BANDIT_FILE,
        [
            {
                "round": round_index,
                # bandit.select returns the arm table in prompt id order.
                "arms": [{"prompt_id": a.prompt_id, "N": a.N, "Q": a.Q} for a in table],
            }
            for round_index, table in enumerate(state.arm_tables, start=1)
        ],
    )
    result = None if best is None else {
        "best_prompt_id": best.id,
        "text": best.text,
        "train_score": best.train_score,
        "test_score": best.test_score,
    }
    # Written only when the run has them: run() cleared the directory first.
    if report is not None:
        artifact.write_json(out / artifact.CONVERGENCE_FILE, report._asdict())
    if result is not None:
        artifact.write_json(out / artifact.RESULT_FILE, result)
    if state.test_predictions:
        artifact.write_jsonl(out / artifact.PREDICTIONS_FILE, state.test_predictions)
    state.gateway.transcript.save(out / artifact.TRANSCRIPT_FILE)
