"""Run artifact directory: what a run writes and what reports read back.

Layout (all JSON/JSONL, deterministic key order):
    config.json        resolved run configuration echo
    run_meta.json      method name, status, anomaly counts, recorded decisions
    events.jsonl       one metric event per line (round 0 included)
    beams.jsonl        one beam per selection round
    prompts.jsonl      every prompt record
    gradients.jsonl    every gradient record
    history.json       gradient pools and the per-round momentum samples; empty when momentum is off
    bandit.jsonl       final (N, Q) table per round
    convergence.json   convergence report
    result.json        the returned best prompt and its scores
    transcript.jsonl   full request/response log
    predictions.jsonl  per-example test predictions (only when enabled)

A run removes each of these names from its directory before its first
request (:func:`clear`), so a reused directory never shows another run's
files as this one's, and every file is written as a new inode: a hard link
to a file of the earlier run, or a reader that holds it open, keeps the
earlier bytes. Other files in the directory are left alone. No file is
fsynced: a new file reaches the disk with the kernel's writeback.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable

from .model import ConfigError, read_text

CONFIG_FILE = "config.json"
META_FILE = "run_meta.json"
EVENTS_FILE = "events.jsonl"
BEAMS_FILE = "beams.jsonl"
PROMPTS_FILE = "prompts.jsonl"
GRADIENTS_FILE = "gradients.jsonl"
HISTORY_FILE = "history.json"
BANDIT_FILE = "bandit.jsonl"
CONVERGENCE_FILE = "convergence.json"
RESULT_FILE = "result.json"
TRANSCRIPT_FILE = "transcript.jsonl"
PREDICTIONS_FILE = "predictions.jsonl"
# Every file a run may write, in the order of the layout above.
FILES = (
    CONFIG_FILE, META_FILE, EVENTS_FILE, BEAMS_FILE, PROMPTS_FILE, GRADIENTS_FILE, HISTORY_FILE,
    BANDIT_FILE, CONVERGENCE_FILE, RESULT_FILE, TRANSCRIPT_FILE, PREDICTIONS_FILE,
)

# The fields of each event that a report reads; each is a number.
REPORT_FIELDS = ("round", "elapsed_s", "optimize_calls", "eval_calls", "best_test_score")


def _row_encoder():
    """A function from a row to ``json.dumps(row, sort_keys=True)``, built once.

    ``json.dumps`` builds a new encoder for every call. This builds json's C
    encoder once, with the arguments ``JSONEncoder.encode`` passes it, but
    without the circular-reference markers, since a row is a tree of plain
    values.
    """
    encoder = json.JSONEncoder(sort_keys=True)
    encode = c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, True, False, True,
    )
    return lambda row: "".join(encode(row, 0))


_encode_row = _row_encoder()


def clear(out: Path) -> None:
    """Remove every name in :data:`FILES` from ``out``; a name that is not there is skipped.

    One that cannot be removed raises :class:`ConfigError` naming its path. A
    directory under any of the names raises it before any name is removed,
    so a run refused for it leaves ``out`` as it was.
    """
    paths = [out / name for name in FILES]
    for path in paths:
        if path.is_dir() and not path.is_symlink():
            raise ConfigError(f"cannot remove artifact file {path}: Is a directory")
    for path in paths:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot remove artifact file {path}: {exc.strerror}") from exc


def write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows: Iterable[dict]) -> None:
    """Write each row as one line of JSON with sorted keys; every JSONL artifact row is written here."""
    lines = [_encode_row(row) for row in rows]
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
