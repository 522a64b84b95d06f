"""Workload inputs: the synthetic dataset and run configuration for each workload.

Everything here is a pure function of the workload name and seed, so the
benchmark process, its worker processes and the loopback stub all rebuild the
same inputs independently. Nothing is downloaded.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program():
    """Put the checkout's ``src`` first on the path and import the package from it.

    Refuses to run against any other copy of ``promptopt`` (an installed one,
    say), so the numbers always describe the source tree being benchmarked.
    """
    if not (SRC / "promptopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'promptopt'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import promptopt

    if Path(promptopt.__file__).resolve().parent != (SRC / "promptopt").resolve():
        raise SystemExit(f"perfbench: imported promptopt from {promptopt.__file__}, not {SRC}")
    return promptopt


WORKLOADS = ("scripted-default", "replay-default", "live-loopback")

LABELS = ("negative", "positive")
POSITIVE_LABEL = "positive"
SEED_PROMPT = "Decide whether the review below is positive or negative. Answer with one word."

_OPENERS = ("the", "this", "our", "my", "a", "that")
_NOUNS = (
    "battery", "screen", "service", "delivery", "kitchen", "hotel", "plot", "camera",
    "keyboard", "staff", "menu", "sound", "update", "engine", "fabric", "room",
    "interface", "price", "packaging", "ending", "support", "charger", "lens", "seat",
)
_VERBS = ("was", "felt", "seemed", "turned out", "looked", "proved", "stayed", "became")
_POSITIVE = (
    "excellent", "reliable", "delightful", "sturdy", "quick", "generous", "clear",
    "comfortable", "brilliant", "friendly", "smooth", "sharp",
)
_NEGATIVE = (
    "awful", "flimsy", "slow", "broken", "noisy", "confusing", "cramped", "dull",
    "rude", "overpriced", "blurry", "unstable",
)
_FILLER = (
    "after two weeks", "on the first day", "compared to the old one", "for the money",
    "during the trip", "in daily use", "once it arrived", "by the end", "at night",
    "out of the box", "after the update", "for a family of four",
)


@dataclass(frozen=True)
class Size:
    """How big one workload's inputs are."""

    examples: int
    search_depth: int | None = None  # None keeps the RunConfig default
    test_set_size: int | None = None
    time_steps: int | None = None


# Full sizes are the benchmark; "tiny" sizes serve the harness self-test.
SIZES = {
    "scripted-default": Size(examples=1200),
    "replay-default": Size(examples=1200),
    # A small train split (150 of 350) makes requests repeat often, and a
    # reduced depth keeps one run of serial HTTP waits near eight seconds.
    "live-loopback": Size(examples=350, search_depth=2),
}
TINY = Size(examples=60, search_depth=1, test_set_size=20, time_steps=4)

# Fixed stub latency per request, by completion budget (ms): the 512-token
# roles take longer than 16-token task evaluation.
STUB_LATENCY_MS = {"short": 0.5, "long": 3.0}
# Share of attempts the stub refuses with 429/503, and the most refusals one
# request meets in a row; worker.LIVE_RETRY always outlasts them.
STUB_FAULT_SHARE = 0.02
STUB_MAX_CONSECUTIVE_FAULTS = 2


def size_for(workload: str, tiny: bool) -> Size:
    if workload not in SIZES:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; choose from {WORKLOADS}")
    return TINY if tiny else SIZES[workload]


def make_examples(n: int, seed: int):
    """``n`` distinct single-line labelled reviews drawn from the seed."""
    from promptopt import Example

    rng = random.Random(f"perfbench-data|{seed}")
    seen: set[str] = set()
    examples = []
    while len(examples) < n:
        label = rng.choice(LABELS)
        words = _POSITIVE if label == "positive" else _NEGATIVE
        clauses = []
        for _ in range(rng.randint(1, 4)):
            # One clause in five leans the other way, so the task is not trivial.
            pool = words if rng.random() < 0.8 else (_NEGATIVE if words is _POSITIVE else _POSITIVE)
            clauses.append(
                f"{rng.choice(_OPENERS)} {rng.choice(_NOUNS)} {rng.choice(_VERBS)} "
                f"{rng.choice(pool)} {rng.choice(_FILLER)}"
            )
        text = ", and ".join(clauses) + "."
        if text in seen:
            continue
        seen.add(text)
        examples.append(Example(id=len(examples), input_text=text, label=label))
    return examples


def run_config(workload: str, seed: int, tiny: bool = False):
    """The default ``RunConfig`` with only the workload's size fields changed."""
    from promptopt import BanditConfig, RunConfig

    size = size_for(workload, tiny)
    cfg = RunConfig(rng_seed=seed)
    if size.search_depth is not None:
        cfg = replace(cfg, search_depth=size.search_depth)
    if size.test_set_size is not None:
        cfg = replace(cfg, test_set_size=size.test_set_size)
    if size.time_steps is not None:
        cfg = replace(cfg, bandit=BanditConfig(time_steps=size.time_steps))
    return cfg


def round_call_errors(rounds, cfg) -> list[str]:
    """Rounds whose optimize calls differ from ``expected_calls_per_round``.

    ``rounds`` holds (round, cumulative optimize calls) per metric event, in
    order; test-set scoring goes to the eval bucket, so each difference is
    one round's optimize calls.
    """
    from promptopt import expected_calls_per_round

    errors = []
    for (_, before), (round_index, after) in zip(rounds, rounds[1:]):
        expected = expected_calls_per_round(cfg, round_index)
        if after - before != expected:
            errors.append(f"round {round_index}: {after - before} optimize calls, "
                          f"expected {expected}")
    return errors


def build_inputs(workload: str, seed: int, tiny: bool = False):
    """(examples, split, cfg) exactly as ``promptopt optimize`` would derive them."""
    from promptopt import make_split

    cfg = run_config(workload, seed, tiny)
    examples = make_examples(size_for(workload, tiny).examples, seed)
    split = make_split(
        examples,
        cfg.test_set_size,
        cfg.rng_seed,
        task_type="classification",
        positive_label=POSITIVE_LABEL,
        label_set=LABELS,
    )
    return examples, split, cfg


def write_cli_inputs(directory: Path, workload: str, seed: int, tiny: bool = False) -> Path:
    """Write the dataset as TSV and an INI config; return the config path.

    ``promptopt optimize --config <path> --backend scripted`` on these files
    derives the same examples, split and configuration as :func:`build_inputs`.
    """
    examples, _, cfg = build_inputs(workload, seed, tiny)
    directory.mkdir(parents=True, exist_ok=True)
    data = directory / "dataset.tsv"
    data.write_text("".join(f"{ex.input_text}\t{ex.label}\n" for ex in examples), encoding="utf-8")
    lines = [
        "[run]",
        f"seed_prompt = {SEED_PROMPT}",
        f"rng_seed = {cfg.rng_seed}",
        f"search_depth = {cfg.search_depth}",
        f"test_set_size = {cfg.test_set_size}",
        "[bandit]",
        f"time_steps = {cfg.bandit.time_steps}",
        "[dataset]",
        f"path = {data}",
        "format = tsv",
        "task_type = classification",
        f"positive_label = {POSITIVE_LABEL}",
        f"label_set = {','.join(LABELS)}",
    ]
    config = directory / "config.ini"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config
