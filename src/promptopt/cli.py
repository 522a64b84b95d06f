"""Command-line front door: optimize, evaluate, and report.

Configuration is a flat INI file with [run], [bandit], [dataset], and
[gateway] sections, each read into the dataclass it names; any other section,
[DEFAULT] included, is an error. The file's values, then the --mode preset,
then the flags are merged and checked once, when the RunConfig is built. The
environment supplies only the API key (PROMPTOPT_API_KEY or OPENAI_API_KEY).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Sequence

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
    check_timeout,
)
from .gradients import TemplateSet
from .model import (
    GRADIENT_MODES,
    BanditConfig,
    ConfigError,
    RunConfig,
    field_types,
    new_seed_prompt,
    read_text,
)
from .scoring import evaluate_prompt
from .scripted import HeuristicScript
from .search import RunIncompleteError, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_GATEWAY = 4
EXIT_INCOMPLETE = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C

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


def _on_off(raw: str) -> bool:
    """``--momentum``'s value as a bool; any word but ``on`` or ``off`` is a usage error."""
    if raw not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"invalid choice: {raw!r} (choose from 'on', 'off')")
    return raw == "on"


def read_config_file(path: str | Path):
    """Parse the INI config into (run, bandit, dataset, gateway), each section as read.

    ``dataset`` is the :class:`DatasetSpec` of ``[dataset]``, or None; the others are dicts of
    typed values. ``[run]`` sets seed_prompt or seed_prompt_file, not both, and a ``[gateway]``
    ``timeout_s`` is checked whichever backend runs.
    """
    import configparser

    # Values are literal: a "%" in a prompt is text, not interpolation syntax.
    # A ";" or "#" starts an inline comment only with whitespace on both
    # sides, so "#### <number>" in a prompt is text. No header can name the
    # section "", so [DEFAULT] is an unknown section rather than defaults
    # merged into every other one.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("; ", "# ", ";\t", "#\t"), interpolation=None, default_section=""
    )
    text = read_text(path, "config file")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        # Some of configparser's messages span lines; an error is one line.
        message = " ".join(part.strip() for part in str(exc).splitlines())
        raise ConfigError(f"malformed config file {path}: {message}") from exc
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; expected one of {', '.join(_SECTIONS)}")

    values: dict[str, dict] = {}
    for name, (cls, skip, extra_keys) in _SECTIONS.items():
        types = {name: kind for name, kind in field_types(cls).items() if name not in skip}
        types.update(dict.fromkeys(extra_keys, str))
        items = parser.items(name) if parser.has_section(name) else []
        values[name] = {key: _coerce(name, types, key, raw) for key, raw in items}
    run_section, bandit_section, dataset_section, gateway_section = values.values()
    if "seed_prompt" in run_section and "seed_prompt_file" in run_section:
        raise ConfigError("[run] sets both seed_prompt and seed_prompt_file; keep one")
    dataset = None
    if parser.has_section("dataset"):
        if "path" not in dataset_section:
            raise ConfigError("[dataset] missing key 'path'")
        dataset = DatasetSpec(**dataset_section)
    if "timeout_s" in gateway_section:
        check_timeout(gateway_section["timeout_s"])
    return run_section, bandit_section, dataset, gateway_section


def build_run_config(args, run_section: dict, bandit_section: dict) -> RunConfig:
    """One :class:`RunConfig` from the file's values, then the ``--mode`` preset, then the flags.

    Each flag is stored under the name of the :class:`RunConfig` field it
    sets, and a flag not given is None. The values are merged first and
    checked once, when the config is built, so a file value that a flag
    overrides is never checked on its own.
    """
    values = {f.name: run_section[f.name] for f in fields(RunConfig) if f.name in run_section}
    if getattr(args, "mode", None):
        forced, defaults = _MODE_PRESETS[args.mode]
        values = {**defaults, **values, **forced}
    flags = {name: value for name, value in vars(args).items() if value is not None}
    values.update((f.name, flags[f.name]) for f in fields(RunConfig) if f.name in flags)
    return RunConfig(bandit=BanditConfig(**bandit_section), **values)


# The backend names that --backend and [gateway] backend accept.
BACKENDS = ("live", "replay", "scripted")


def build_gateway(args, gateway_section: dict, cfg: RunConfig, examples, split) -> Gateway:
    """The gateway over the backend that ``--backend``, else ``[gateway] backend``, names."""
    backend_name = getattr(args, "backend", None) or gateway_section.get("backend", "scripted")
    if backend_name == "scripted":
        responder = HeuristicScript(examples, split.label_set, seed=cfg.rng_seed, task_type=split.task_type)
        backend = ScriptedBackend(responder)
    elif backend_name == "replay":
        transcript_path = getattr(args, "transcript", None) or gateway_section.get("transcript")
        if not transcript_path:
            raise ConfigError("replay backend needs --transcript PATH")
        backend = ReplayBackend(Transcript.load(transcript_path))
    elif backend_name == "live":
        api_key = os.environ.get("PROMPTOPT_API_KEY") or os.environ.get("OPENAI_API_KEY", "")
        # Only the fields the file sets, so LiveConfig's defaults fill the rest.
        settings = {f.name: gateway_section[f.name] for f in fields(LiveConfig) if f.name in gateway_section}
        backend = LiveBackend(LiveConfig(api_key=api_key, **settings))
    else:
        raise ConfigError(f"unknown backend {backend_name!r}")
    return Gateway(backend, cfg.temperature)


def _inputs(args):
    """The ``[run]`` values, dataset, run config, split and gateway that both commands start from."""
    run_section, bandit_section, dataset, gateway_section = read_config_file(args.config)
    cfg = build_run_config(args, run_section, bandit_section)
    if dataset is None:
        raise ConfigError("config file has no [dataset] section")
    examples = load(dataset.path, dataset.format, dataset.task_type)
    split = make_split(
        examples,
        cfg.test_set_size,
        cfg.rng_seed,
        task_type=dataset.task_type,
        positive_label=dataset.positive_label,
        label_set=dataset.label_set,
    )
    return run_section, dataset, cfg, split, build_gateway(args, gateway_section, cfg, examples, split)


def _make_dir(path: Path, what: str) -> Path:
    """``path``, made a directory with its parents unless it is one already."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {what} {path}: {exc.strerror}") from exc
    return path


def _seed_prompt_text(run_section: dict) -> str:
    if "seed_prompt_file" in run_section:
        return read_text(run_section["seed_prompt_file"], "seed prompt file")
    if "seed_prompt" in run_section:
        return run_section["seed_prompt"]
    raise ConfigError("config needs [run] seed_prompt or seed_prompt_file")


def _say(line: str) -> None:
    """Print ``line``; a character that standard output cannot encode is written as a backslash escape.

    A prompt or a path can hold a lone surrogate, which no strict encoder takes.
    """
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def cmd_optimize(args) -> int:
    run_section, dataset, cfg, split, gateway = _inputs(args)
    seed = new_seed_prompt(_seed_prompt_text(run_section))
    templates = TemplateSet.from_dir(args.templates) if args.templates else TemplateSet()
    method = args.mode or "mapo"
    out_dir = _make_dir(Path(args.out or f"runs/{method}-seed{cfg.rng_seed}"), "artifact directory")

    # From here an interrupt leaves run()'s partial artifact, which main names.
    args.artifact_dir = out_dir
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
    _say(f"artifact: {result.artifact_dir}")
    _say(f"best prompt (id {result.best.id}):")
    _say(result.best.text)
    _say(
        f"train_score={result.best.train_score:.4f} "
        f"test_score={result.best.test_score:.4f} "
        f"optimize_calls={gateway.optimize_calls()} eval_calls={gateway.eval_calls()} "
        f"wire_calls={gateway.call_count()}"
    )
    report = result.report
    if report.target_score is None:
        _say("convergence: no target configured")
    elif report.reached:
        _say(
            f"convergence: reached {report.target_score} at step {report.convergence_steps} "
            f"({report.convergence_time_s:.2f}s, {report.convergence_calls} calls)"
        )
    else:
        _say(f"convergence: target {report.target_score} not reached")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _, _, _, split, gateway = _inputs(args)
    prompt = new_seed_prompt(read_text(args.prompt_file, "prompt file"))
    with gateway.count_as_eval():
        score = evaluate_prompt(prompt, split.test, gateway, split)[0]
    print(f"test_score={score:.4f} eval_calls={gateway.eval_calls()}")
    return EXIT_OK


# Each per-artifact CSV file of a report: the curve it is named after and the
# event fields in its columns, where total_calls is optimize_calls + eval_calls.
_CURVES = {
    "score_vs_round": ("round", "best_test_score"),
    "score_vs_time": ("elapsed_s", "best_test_score"),
    "score_vs_calls": ("optimize_calls", "eval_calls", "total_calls", "best_test_score"),
}


def _write_csv(path: Path, header: Sequence[str], rows: list[list]) -> None:
    import csv

    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_report(args) -> int:
    # Each directory's CSV files are named after it, so names must differ.
    # A name is the last component of the absolute path, so "." has one and a
    # symlink keeps its own.
    directories: dict[str, Path] = {}
    for raw_dir in args.artifacts:
        directory = Path(raw_dir)
        name = os.path.basename(os.path.abspath(directory))
        if name in directories:
            raise ConfigError(
                f"artifact directories {directories[name]} and {directory} "
                f"share the name {name!r}; their CSV files would overwrite each other"
            )
        directories[name] = directory
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
        for e in events:
            e["total_calls"] = e["optimize_calls"] + e["eval_calls"]
        for curve, columns in _CURVES.items():
            _write_csv(out_dir / f"{stem}_{curve}.csv", columns, [[e[c] for c in columns] for e in events])
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
    _say(f"wrote report CSVs to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptopt",
        description="Prompt optimization by beam search over LLM-edited candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags optimize and evaluate share. A flag that sets a RunConfig field is stored under its name.
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", required=True, help="INI config file")
    run_flags.add_argument("--backend", choices=BACKENDS)
    run_flags.add_argument("--transcript", help="transcript path for the replay backend")
    run_flags.add_argument("--seed", dest="rng_seed", type=int, metavar="SEED")

    optimize = sub.add_parser("optimize", parents=[run_flags], help="run the optimizer")
    optimize.add_argument("--mode", choices=tuple(_MODE_PRESETS))
    optimize.add_argument("--gradient-mode", dest="gradient_mode", choices=GRADIENT_MODES)
    optimize.add_argument("--momentum", dest="momentum_enabled", type=_on_off, metavar="{on,off}")
    optimize.add_argument(
        "--target", dest="convergence_target", type=float, metavar="TARGET", help="convergence target score"
    )
    optimize.add_argument("--templates", help="directory of template override files")
    optimize.add_argument("--verbose-predictions", dest="emit_predictions", action="store_const", const=True)
    optimize.add_argument("--out", help="artifact directory")
    optimize.set_defaults(func=cmd_optimize)

    evaluate = sub.add_parser("evaluate", parents=[run_flags], help="score a fixed prompt on the test split")
    evaluate.add_argument("--prompt-file", required=True)
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
    except ConfigError as exc:
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
    except KeyboardInterrupt:
        artifact_dir = getattr(args, "artifact_dir", None)
        where = f" (partial artifact: {artifact_dir})" if artifact_dir else ""
        print(f"interrupted{where}", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
