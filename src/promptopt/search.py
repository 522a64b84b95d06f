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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

from . import artifact, bandit, momentum
from .data import DatasetSplit, Example, sample_by_correctness, sample_minibatch
from .gateway import Gateway, GatewayError
from .gradients import GradientEngine, TemplateSet
from .model import (
    Beam,
    Gradient,
    GradientHistory,
    Prompt,
    PromptStore,
    RunConfig,
    derived_rng,
    to_record,
)
from .scoring import TaskSpec, evaluate_prompt


class RunIncompleteError(GatewayError):
    """The run aborted mid-flight; a partial artifact was flagged incomplete."""

    def __init__(self, message: str, artifact_dir: str):
        super().__init__(message)
        self.artifact_dir = artifact_dir


@dataclass(frozen=True)
class MetricEvent:
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


@dataclass(frozen=True)
class ConvergenceReport:
    target_score: float | None
    reached: bool
    convergence_time_s: float | None = None
    convergence_calls: int | None = None
    convergence_steps: int | None = None


@dataclass(frozen=True)
class Expansion:
    children: tuple[Prompt, ...]
    gradients: tuple[Gradient, ...]
    shortfall: bool


@dataclass
class RunResult:
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
    correctness: dict[int, bool],
    history_binding: str,
) -> Expansion:
    """Produce a parent's candidate children for this round.

    For each polarity in the plan: sample correct (positive) or incorrect
    (negative) examples, make one generator call, then one batch of editor
    calls along all of that polarity's gradients. One batch of
    ``paraphrases_per_parent`` paraphrases of the parent follows. An empty
    correctness sample skips that polarity and the parent simply carries
    through.
    """
    cfg = engine.cfg
    children: list[Prompt] = []
    gradients: list[Gradient] = []
    shortfall = False
    ordinal = 1
    for polarity, count in _polarity_plan(cfg):
        want = "correct" if polarity == "positive" else "incorrect"
        sample = sample_by_correctness(
            minibatch,
            correctness,
            cfg.num_correct_examples,
            want,
            seed=f"{cfg.rng_seed}|parent{parent.id}",
            round_index=round_index,
        )
        shortfall = shortfall or sample.shortfall
        if not sample.examples:
            continue
        polarity_gradients = engine.generate_gradients(
            parent, sample, history_binding, round_index, polarity, count
        )
        if polarity_gradients:
            children.extend(
                engine.apply_gradient(
                    parent, polarity_gradients, sample, history_binding, round_index, ordinal
                )
            )
            ordinal += engine.edits_per_gradient * len(polarity_gradients)
        gradients.extend(polarity_gradients)
    if cfg.paraphrases_per_parent > 0:
        children.extend(
            engine.paraphrase_expand(parent, cfg.paraphrases_per_parent, round_index)
        )
    return Expansion(children=tuple(children), gradients=tuple(gradients), shortfall=shortfall)


class _Search:
    """One run's state, with a method per phase of the round."""

    def __init__(
        self,
        seed_prompt: Prompt,
        split: DatasetSplit,
        cfg: RunConfig,
        gateway: Gateway,
        templates: TemplateSet | None,
    ):
        self.split, self.cfg, self.gateway = split, cfg, gateway
        self.store = PromptStore()
        # A test score the seed carries in was measured outside this run.
        self.seed = self.store.adopt(replace(seed_prompt, test_score=None))
        self.task = TaskSpec.from_split(split, cfg)
        self.engine = GradientEngine(cfg, gateway, self.store, templates, split.task_type)
        self.history = GradientHistory()
        self.beams: list[Beam] = [Beam(round=0, prompts=(self.seed.id,))]
        self.arm_tables: list[tuple[bandit.ArmState, ...]] = []
        self.events: list[MetricEvent] = []
        self.test_predictions: list[dict] = []
        self.sample_shortfalls = 0

    def expand(self, round_index: int) -> tuple[list[Prompt], list[Gradient], float]:
        """Score each parent on the round's minibatch and expand it into children.

        Returns the candidates (each parent after its children), the round's
        gradients and the best parent score.
        """
        cfg = self.cfg
        minibatch = sample_minibatch(self.split, cfg.minibatch_size, cfg.rng_seed, round_index)
        history_binding = momentum.history_text(
            self.history, round_index, self.store.gradients, enabled=cfg.momentum_enabled
        )
        candidates: list[Prompt] = []
        gradients: list[Gradient] = []
        scores: list[float] = []
        for parent_id in self.beams[-1].prompts:
            score, predictions = evaluate_prompt(
                self.store.prompts[parent_id], minibatch, self.gateway, self.task
            )
            parent = self.store.set_train_score(parent_id, score)
            scores.append(score)
            correctness = {p.example_id: p.correct for p in predictions}
            expansion = expand_parent(
                self.engine, parent, round_index, minibatch, correctness, history_binding
            )
            candidates.extend(expansion.children)
            candidates.append(parent)
            gradients.extend(expansion.gradients)
            self.sample_shortfalls += expansion.shortfall
        return candidates, gradients, max(scores)

    def select(self, round_index: int, candidates: list[Prompt]) -> Beam:
        """Prune the candidates to the beam width with the UCB bandit."""
        selection = bandit.select(
            candidates,
            self.split.train,
            self.cfg.bandit,
            self.cfg.beam_width,
            rng=derived_rng(self.cfg.rng_seed, "bandit", round_index),
            evaluate=lambda p, batch: evaluate_prompt(p, batch, self.gateway, self.task)[0],
        )
        beam = Beam(round=round_index, prompts=tuple(p.id for p in selection.selected))
        self.beams.append(beam)
        self.arm_tables.append(selection.arms)
        return beam

    def record_momentum(self, beam: Beam, gradients: list[Gradient]) -> None:
        """Pool the round's gradients that produced a survivor and sample one."""
        pool = momentum.record_round(beam, gradients, self.store.prompts)
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
        with self.gateway.count_as_eval():
            score, predictions = evaluate_prompt(prompt, self.split.test, self.gateway, self.task)
        self.store.set_test_score(prompt.id, score)
        if self.cfg.emit_predictions:
            self.test_predictions.extend({"prompt_id": prompt.id, **p._asdict()} for p in predictions)
        return score

    def test_event(self, round_index: int, train_best: float | None, prompt: Prompt) -> None:
        """Test the round's top prompt and append the round's metric event."""
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
        cfg, store = self.cfg, self.store
        batch = sample_minibatch(self.split, cfg.minibatch_size, cfg.rng_seed, cfg.search_depth + 1)
        ranked: list[tuple[float, int]] = []
        for prompt_id in self.beams[-1].prompts:
            score, _ = evaluate_prompt(store.prompts[prompt_id], batch, self.gateway, self.task)
            store.set_train_score(prompt_id, score)
            ranked.append((-score, prompt_id))
        best = store.prompts[min(ranked)[1]]
        self.score_on_test(best)
        return store.prompts[best.id]


def run(
    seed_prompt: Prompt,
    split: DatasetSplit,
    cfg: RunConfig,
    gateway: Gateway,
    out_dir: str | Path,
    *,
    templates: TemplateSet | None = None,
    method_name: str = "mapo",
    config_context: dict | None = None,
) -> RunResult:
    """Execute a full optimization run and write its artifact directory.

    Returns the best prompt of the final beam (argmax train metric on a fresh
    minibatch, ties to the lowest id), the per-round metric events, and the
    convergence report. Any abort writes a partial artifact flagged
    incomplete: an unrecoverable gateway failure then raises
    :class:`RunIncompleteError`, and any other exception is re-raised as is.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = _Search(seed_prompt, split, cfg, gateway, templates)

    # Set only once the run finishes, so the artifact that ``finally`` writes
    # after any abort, an interrupt included, is flagged incomplete.
    status = "incomplete"
    best: Prompt | None = None
    report: ConvergenceReport | None = None
    try:
        state.test_event(0, None, state.seed)
        for round_index in range(1, cfg.search_depth + 1):
            candidates, gradients, train_best = state.expand(round_index)
            beam = state.select(round_index, candidates)
            state.record_momentum(beam, gradients)
            state.test_event(round_index, train_best, state.store.prompts[beam.prompts[0]])
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
            # completions with no usable delimited text, parent expansions with a
            # correctness sample smaller than num_correct_examples, and candidates
            # the bandit never pulled, summed over the rounds' arm tables.
            "anomalies": {
                "parse_shortfalls": state.engine.parse_shortfalls,
                "sample_shortfalls": state.sample_shortfalls,
                "unpulled_arms": sum(a.N == 0 for table in state.arm_tables for a in table),
            },
            "notes": _RUN_NOTES,
        },
    )
    artifact.write_jsonl(out / artifact.EVENTS_FILE, [asdict(e) for e in state.events])
    artifact.write_jsonl(out / "beams.jsonl", [to_record(b) for b in state.beams])
    artifact.write_jsonl(
        out / "prompts.jsonl",
        [to_record(store.prompts[pid]) for pid in sorted(store.prompts)],
    )
    artifact.write_jsonl(
        out / "gradients.jsonl",
        [to_record(store.gradients[gid]) for gid in sorted(store.gradients)],
    )
    artifact.write_json(
        out / "history.json",
        {
            "pools": {str(r): list(ids) for r, ids in sorted(state.history.pools.items())},
            "sampled": {str(r): gid for r, gid in sorted(state.history.sampled.items())},
        },
    )
    artifact.write_jsonl(
        out / "bandit.jsonl",
        [
            {
                "round": round_index,
                "arms": [
                    {"prompt_id": a.prompt_id, "N": a.N, "Q": a.Q}
                    for a in sorted(table, key=lambda a: a.prompt_id)
                ],
            }
            for round_index, table in enumerate(state.arm_tables, start=1)
        ],
    )
    if report is not None:
        artifact.write_json(out / artifact.CONVERGENCE_FILE, asdict(report))
    if best is not None:
        artifact.write_json(
            out / artifact.RESULT_FILE,
            {
                "best_prompt_id": best.id,
                "text": best.text,
                "train_score": best.train_score,
                "test_score": best.test_score,
            },
        )
    if state.test_predictions:
        artifact.write_jsonl(out / "predictions.jsonl", state.test_predictions)
    state.gateway.transcript.save(out / "transcript.jsonl")
