"""Command-line front door: optimize, evaluate, and report.

Configuration is a flat INI file with [run], [bandit], [dataset], and
[gateway] sections, each read into the dataclass it names; any other section,
[DEFAULT] included, is an error. The file's values, then the --mode preset,
then the flags are merged and checked once, when the RunConfig is built. The
environment supplies only the API key (PROMPTOPT_API_KEY or OPENAI_API_KEY).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

from . import artifact
from .data import DatasetError, DatasetSpec, load, make_split
from .gateway import (
    Gateway,
    GatewayError,
    LiveBackend,
    LiveConfig,
    ReplayBackend,
    ScriptedBackend,
    Transcript,
    TranscriptFormatError,
)
from .gradients import TemplateSet
from .model import (
    GRADIENT_MODES,
    BanditConfig,
    ConfigError,
    EmptyPromptError,
    RunConfig,
    new_seed_prompt,
    read_text,
)
from .scoring import TaskSpec, evaluate_prompt
from .scripted import HeuristicScript
from .search import RunIncompleteError, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_GATEWAY = 4
EXIT_INCOMPLETE = 5

# Each --mode is (the fields it forces, the fields it fills in where the file
# sets none). ProTeGi (Pryzant et al. 2023) generates more gradients per
# parent, all negative, and adds paraphrases of each parent.
_MODE_PRESETS = {
    "mapo": (
        {"gradient_mode": "positive_only", "momentum_enabled": True, "paraphrases_per_parent": 0},
        {},
    ),
    "protegi": (
        {"gradient_mode": "negative_only", "momentum_enabled": False},
        {"num_gradients": 4, "paraphrases_per_parent": 2},
    ),
}
# Each INI section: the dataclass whose fields it sets, the fields it leaves
# out, and the keys it takes besides those fields (read as text). The API key
# comes from the environment only, never from the file.
_SECTIONS = {
    "run": (RunConfig, ("bandit",), ("seed_prompt", "seed_prompt_file")),
    "bandit": (BanditConfig, (), ()),
    "dataset": (DatasetSpec, (), ()),
    "gateway": (LiveConfig, ("api_key",), ("backend", "transcript")),
}


def _field_types(cls, skip: tuple[str, ...] = ()) -> dict[str, type]:
    """Value type of each INI-settable field, read from the dataclass annotations.

    ``model`` postpones its annotations, so they are evaluated here; an
    optional field such as ``convergence_target: float | None`` takes the
    type of its non-None member, and ``tuple[str, ...]`` is read as a
    comma-separated list.
    """
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        hint = hints[f.name]
        if typing.get_origin(hint) is tuple:
            types[f.name] = tuple
            continue
        members = [t for t in typing.get_args(hint) if t is not type(None)]
        types[f.name] = members[0] if members else hint
    return types


def _coerce(section: str, types: dict[str, type], key: str, raw: str):
    if key not in types:
        raise ConfigError(f"[{section}] unknown key {key!r}")
    kind = types[key]
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered not in ("true", "false", "on", "off", "1", "0", "yes", "no"):
            raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
        return lowered in ("true", "on", "1", "yes")
    if kind is str:
        return raw.strip()
    if kind is tuple:
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def read_config_file(path: str | Path):
    """Parse the INI config into (run overrides, bandit overrides, dataset, gateway, extra).

    ``extra`` holds ``[run]``'s seed_prompt or seed_prompt_file, never both.
    """
    # Values are literal: a "%" in a prompt is text, not interpolation syntax.
    # No header can name the section "", so [DEFAULT] is an unknown section
    # rather than defaults merged into every other one.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None, default_section=""
    )
    text = read_text(path, "config file")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; expected one of {', '.join(_SECTIONS)}")

    values: dict[str, dict] = {}
    for name, (cls, skip, extra_keys) in _SECTIONS.items():
        types = {**_field_types(cls, skip), **dict.fromkeys(extra_keys, str)}
        items = parser.items(name) if parser.has_section(name) else []
        values[name] = {key: _coerce(name, types, key, raw) for key, raw in items}
    run_overrides, bandit_overrides, dataset_section, gateway_section = values.values()
    extra = {key: run_overrides.pop(key) for key in _SECTIONS["run"][2] if key in run_overrides}
    if len(extra) > 1:
        raise ConfigError("[run] sets both seed_prompt and seed_prompt_file; keep one")

    dataset = None
    if parser.has_section("dataset"):
        if "path" not in dataset_section:
            raise ConfigError("[dataset] missing key 'path'")
        if not dataset_section["path"]:
            raise ConfigError("[dataset] path is empty")
        dataset = DatasetSpec(**dataset_section)
    timeout_s = gateway_section.get("timeout_s")
    # The HTTP client refuses such a timeout on every attempt, which the live
    # backend would retry as a transport error.
    if timeout_s is not None and not (math.isfinite(timeout_s) and timeout_s > 0):
        raise ConfigError(f"[gateway] timeout_s: expected a finite number > 0, got {timeout_s}")
    return run_overrides, bandit_overrides, dataset, gateway_section, extra


def build_run_config(args, run_overrides: dict, bandit_overrides: dict) -> RunConfig:
    """One :class:`RunConfig` from the file's values, then the ``--mode`` preset, then the flags.

    The values are merged first and checked once, when the config is built,
    so a file value that a flag overrides is never checked on its own.
    """
    values = dict(run_overrides)
    if getattr(args, "mode", None):
        forced, defaults = _MODE_PRESETS[args.mode]
        values = {**defaults, **values, **forced}
    if getattr(args, "gradient_mode", None):
        values["gradient_mode"] = args.gradient_mode
    if getattr(args, "momentum", None):
        values["momentum_enabled"] = args.momentum == "on"
    if getattr(args, "seed", None) is not None:
        values["rng_seed"] = args.seed
    if getattr(args, "target", None) is not None:
        values["convergence_target"] = args.target
    if getattr(args, "verbose_predictions", False):
        values["emit_predictions"] = True
    return RunConfig(bandit=BanditConfig(**bandit_overrides), **values)


def _load_split(dataset: DatasetSpec | None, cfg: RunConfig):
    if dataset is None:
        raise ConfigError("config file has no [dataset] section")
    examples = load(dataset.path, dataset.format, dataset.task_type)
    label_set = dataset.label_set or None
    split = make_split(
        examples,
        cfg.test_set_size,
        cfg.rng_seed,
        task_type=dataset.task_type,
        positive_label=dataset.positive_label,
        label_set=label_set,
    )
    # F1 counts hits on the positive label, compared case-insensitively as the
    # scorer does; with any other label every score would read 0.0.
    if split.task_type == "classification" and split.positive_label.lower() not in {
        lb.lower() for lb in split.label_set
    }:
        raise DatasetError(
            f"positive_label {split.positive_label!r} is not one of the labels "
            f"{', '.join(split.label_set)}"
        )
    return examples, split


def _scripted_backend(args, gateway_section: dict, cfg: RunConfig, examples, split):
    responder = HeuristicScript(examples, split.label_set, seed=cfg.rng_seed, task_type=split.task_type)
    return ScriptedBackend(responder)


def _replay_backend(args, gateway_section: dict, cfg: RunConfig, examples, split):
    transcript_path = getattr(args, "transcript", None) or gateway_section.get("transcript")
    if not transcript_path:
        raise ConfigError("replay backend needs --transcript PATH")
    return ReplayBackend(Transcript.load(transcript_path))


def _live_backend(args, gateway_section: dict, cfg: RunConfig, examples, split):
    base_url = gateway_section.get("base_url")
    model = gateway_section.get("model")
    if not base_url or not model:
        raise ConfigError("[gateway] base_url and model are required for the live backend")
    api_key = os.environ.get("PROMPTOPT_API_KEY") or os.environ.get("OPENAI_API_KEY", "")
    # Only the fields the file sets, so LiveConfig's defaults fill the rest.
    settings = {f.name: gateway_section[f.name] for f in fields(LiveConfig) if f.name in gateway_section}
    return LiveBackend(LiveConfig(api_key=api_key, **settings))


# The backend names that --backend and [gateway] backend accept.
_BACKENDS = {"live": _live_backend, "replay": _replay_backend, "scripted": _scripted_backend}


def build_gateway(args, gateway_section: dict, cfg: RunConfig, examples, split) -> Gateway:
    backend_name = getattr(args, "backend", None) or gateway_section.get("backend", "scripted")
    if backend_name not in _BACKENDS:
        raise ConfigError(f"unknown backend {backend_name!r}")
    return Gateway(_BACKENDS[backend_name](args, gateway_section, cfg, examples, split))


def _make_dir(path: Path, what: str) -> Path:
    """``path``, made a directory with its parents unless it is one already."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {what} {path}: {exc.strerror}") from exc
    return path


def _seed_prompt_text(extra: dict) -> str:
    if "seed_prompt_file" in extra:
        return read_text(extra["seed_prompt_file"], "seed prompt file")
    if "seed_prompt" in extra:
        return extra["seed_prompt"]
    raise ConfigError("config needs [run] seed_prompt or seed_prompt_file")


def cmd_optimize(args) -> int:
    run_overrides, bandit_overrides, dataset, gateway_section, extra = read_config_file(args.config)
    cfg = build_run_config(args, run_overrides, bandit_overrides)
    examples, split = _load_split(dataset, cfg)
    seed = new_seed_prompt(_seed_prompt_text(extra))
    gateway = build_gateway(args, gateway_section, cfg, examples, split)
    templates = TemplateSet.from_dir(args.templates) if args.templates else None
    method = args.mode or "mapo"
    out_dir = _make_dir(Path(args.out or f"runs/{method}-seed{cfg.rng_seed}"), "artifact directory")

    result = run(
        seed,
        split,
        cfg,
        gateway,
        out_dir,
        templates=templates,
        method_name=method,
        # Echoed into config.json so a replay invocation can be rebuilt
        # from the artifact alone (backend choice deliberately excluded).
        config_context={
            "dataset": {**asdict(dataset), "label_set": list(split.label_set)},
            "seed_prompt": seed.text,
        },
    )
    print(f"artifact: {result.artifact_dir}")
    print(f"best prompt (id {result.best.id}):")
    print(result.best.text)
    print(
        f"train_score={result.best.train_score:.4f} "
        f"test_score={result.best.test_score:.4f} "
        f"optimize_calls={gateway.optimize_calls()} eval_calls={gateway.eval_calls()} "
        f"wire_calls={gateway.call_count()}"
    )
    report = result.report
    if report.target_score is None:
        print("convergence: no target configured")
    elif report.reached:
        print(
            f"convergence: reached {report.target_score} at step {report.convergence_steps} "
            f"({report.convergence_time_s:.2f}s, {report.convergence_calls} calls)"
        )
    else:
        print(f"convergence: target {report.target_score} not reached")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    run_overrides, bandit_overrides, dataset, gateway_section, _ = read_config_file(args.config)
    cfg = build_run_config(args, run_overrides, bandit_overrides)
    prompt = new_seed_prompt(read_text(args.prompt_file, "prompt file"))
    examples, split = _load_split(dataset, cfg)
    gateway = build_gateway(args, gateway_section, cfg, examples, split)
    task = TaskSpec.from_split(split, cfg)
    with gateway.count_as_eval():
        score, _ = evaluate_prompt(prompt, split.test, gateway, task)
    print(f"test_score={score:.4f} eval_calls={gateway.eval_calls()}")
    return EXIT_OK


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    import csv

    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_report(args) -> int:
    # Each directory's CSV files are named after it, so names must differ.
    directories: dict[str, Path] = {}
    for raw_dir in args.artifacts:
        directory = Path(raw_dir)
        if directory.name in directories:
            raise ConfigError(
                f"artifact directories {directories[directory.name]} and {directory} "
                f"share the name {directory.name!r}; their CSV files would overwrite each other"
            )
        directories[directory.name] = directory
    # Every artifact is read, and checked, before any CSV file is written.
    runs = []
    for stem, directory in directories.items():
        events = artifact.read_events(directory)
        if not events:
            raise ConfigError(f"no events found in artifact dir {directory}")
        runs.append((stem, directory, events, artifact.read_meta(directory)))
    out_dir = _make_dir(Path(args.out or "."), "report directory")
    curves: dict[str, dict[int, float]] = {}
    for stem, directory, events, meta in runs:
        if meta.get("status") != "complete":
            print(f"warning: artifact {directory} is incomplete", file=sys.stderr)
        events.sort(key=lambda e: e["round"])
        _write_csv(
            out_dir / f"{stem}_score_vs_round.csv",
            ["round", "best_test_score"],
            [[e["round"], e["best_test_score"]] for e in events],
        )
        _write_csv(
            out_dir / f"{stem}_score_vs_time.csv",
            ["elapsed_s", "best_test_score"],
            [[e["elapsed_s"], e["best_test_score"]] for e in events],
        )
        _write_csv(
            out_dir / f"{stem}_score_vs_calls.csv",
            ["optimize_calls", "eval_calls", "total_calls", "best_test_score"],
            [
                [
                    e["optimize_calls"],
                    e["eval_calls"],
                    e["optimize_calls"] + e["eval_calls"],
                    e["best_test_score"],
                ]
                for e in events
            ],
        )
        method = meta.get("method", stem)
        if method in curves:
            method = f"{method}_{stem}"
        curves[method] = {e["round"]: e["best_test_score"] for e in events}

    methods = list(curves)
    rounds = sorted({r for curve in curves.values() for r in curve})
    _write_csv(
        out_dir / "comparison.csv",
        ["round", *methods],
        [[r, *[curves[m].get(r, "") for m in methods]] for r in rounds],
    )
    print(f"wrote report CSVs to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptopt",
        description="Prompt optimization by beam search over LLM-edited candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser("optimize", help="run the optimizer")
    optimize.add_argument("--config", required=True, help="INI config file")
    optimize.add_argument("--mode", choices=tuple(_MODE_PRESETS))
    optimize.add_argument("--gradient-mode", dest="gradient_mode", choices=GRADIENT_MODES)
    optimize.add_argument("--momentum", choices=("on", "off"))
    optimize.add_argument("--backend", choices=tuple(_BACKENDS))
    optimize.add_argument("--transcript", help="transcript path for the replay backend")
    optimize.add_argument("--seed", type=int)
    optimize.add_argument("--target", type=float, help="convergence target score")
    optimize.add_argument("--templates", help="directory of template override files")
    optimize.add_argument("--verbose-predictions", action="store_true")
    optimize.add_argument("--out", help="artifact directory")
    optimize.set_defaults(func=cmd_optimize)

    evaluate = sub.add_parser("evaluate", help="score a fixed prompt on the test split")
    evaluate.add_argument("--prompt-file", required=True)
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--backend", choices=tuple(_BACKENDS))
    evaluate.add_argument("--transcript")
    evaluate.add_argument("--seed", type=int)
    evaluate.set_defaults(func=cmd_evaluate)

    report = sub.add_parser("report", help="emit plot-ready CSVs from run artifacts")
    report.add_argument("artifacts", nargs="+", help="artifact directories")
    report.add_argument("--out", help="output directory for CSV files")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EmptyPromptError, TranscriptFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except RunIncompleteError as exc:
        print(f"incomplete run: {exc} (partial artifact: {exc.artifact_dir})", file=sys.stderr)
        return EXIT_INCOMPLETE
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_GATEWAY


if __name__ == "__main__":
    sys.exit(main())
