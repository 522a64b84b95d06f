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

EVENTS_FILE = "events.jsonl"
META_FILE = "run_meta.json"
CONFIG_FILE = "config.json"
CONVERGENCE_FILE = "convergence.json"
RESULT_FILE = "result.json"


def _dump(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows: Iterable[Any]) -> None:
    lines = [row if isinstance(row, str) else _dump(row) for row in rows]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_events(artifact_dir: str | Path) -> list[dict]:
    return read_jsonl(Path(artifact_dir) / EVENTS_FILE)


def read_meta(artifact_dir: str | Path) -> dict:
    path = Path(artifact_dir) / META_FILE
    return read_json(path) if path.exists() else {}
