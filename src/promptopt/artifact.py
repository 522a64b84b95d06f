"""Run artifact directory: what a run writes and what reports read back.

Layout (all JSON/JSONL, deterministic key order):
    config.json        resolved run configuration echo
    run_meta.json      method name, status, anomaly counts, recorded decisions
    events.jsonl       one metric event per line (round 0 included)
    beams.jsonl        one beam per selection round
    prompts.jsonl      every prompt record
    gradients.jsonl    every gradient record
    history.json       gradient pools and the per-round momentum samples
    bandit.jsonl       final (N, Q) table per round
    convergence.json   convergence report
    result.json        the returned best prompt and its scores
    transcript.jsonl   full request/response log
    predictions.jsonl  per-example test predictions (only when enabled)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .model import ConfigError, read_text

EVENTS_FILE = "events.jsonl"
META_FILE = "run_meta.json"
CONFIG_FILE = "config.json"
CONVERGENCE_FILE = "convergence.json"
RESULT_FILE = "result.json"

# The fields of each event that a report reads; each is a number.
REPORT_FIELDS = ("round", "elapsed_s", "optimize_calls", "eval_calls", "best_test_score")


def _dump(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows: Iterable[Any]) -> None:
    lines = [row if isinstance(row, str) else _dump(row) for row in rows]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _json_object(text: str, where: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {value!r:.40}")
    return value


def read_events(artifact_dir: str | Path) -> list[dict]:
    """The rows of ``events.jsonl``, none when it does not exist.

    A line that is not a JSON object whose :data:`REPORT_FIELDS` are numbers
    raises :class:`ConfigError` naming the file and the line.
    """
    path = Path(artifact_dir) / EVENTS_FILE
    if not path.exists():
        return []
    events = []
    for lineno, line in enumerate(read_text(path, "artifact file").split("\n"), start=1):
        if not line.strip():
            continue
        event = _json_object(line, f"{path}:{lineno}")
        for name in REPORT_FIELDS:
            value = event.get(name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}:{lineno}: {name}: expected a number, got {value!r:.40}")
        events.append(event)
    return events


def read_meta(artifact_dir: str | Path) -> dict:
    """The object in ``run_meta.json``, empty when it does not exist."""
    path = Path(artifact_dir) / META_FILE
    return _json_object(read_text(path, "artifact file"), str(path)) if path.exists() else {}
