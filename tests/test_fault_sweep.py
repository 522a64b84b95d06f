"""Fail the demo run at every backend call, under both presets.

A wrapper backend raises :class:`LiveCallError` at the k-th call that reaches
the backend (0-based), for every k the uninterrupted run makes. Each aborted
run must leave the documented partial artifact: exit code 5, ``status:
incomplete`` in ``run_meta.json``, no ``result.json``, and a transcript
holding exactly the k paid calls before the failure, as the uninterrupted run
recorded them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from promptopt import cli
from promptopt.cli import EXIT_INCOMPLETE, EXIT_OK, main
from promptopt.gateway import Gateway, LiveCallError

REPO = Path(__file__).parents[1]
DEMO_ARGS = ["optimize", "--config", "tests/data/demo.ini", "--backend", "scripted"]
PRESETS = {"mapo": [], "protegi": ["--mode", "protegi"]}


class FailAt:
    """Passes calls to ``backend`` and raises at its ``k``-th one."""

    def __init__(self, backend, k: int):
        self.transcript_mode = backend.transcript_mode
        self._backend = backend
        self._k = k
        self._calls = 0

    def complete(self, req, on_attempt):
        if self._calls == self._k:
            raise LiveCallError(f"injected failure at backend call {self._k}")
        self._calls += 1
        return self._backend.complete(req, on_attempt)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_failure_at_every_backend_call_leaves_the_paid_prefix(
    preset, monkeypatch, tmp_path, capsys
) -> None:
    monkeypatch.chdir(REPO)
    argv = DEMO_ARGS + PRESETS[preset]
    whole = tmp_path / "whole"
    assert main([*argv, "--out", str(whole)]) == EXIT_OK
    lines = (whole / "transcript.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) == json.loads((whole / "run_meta.json").read_text())["calls"]["wire"]

    build_gateway = cli.build_gateway
    for k in range(len(lines)):
        monkeypatch.setattr(
            cli,
            "build_gateway",
            lambda *args, k=k: Gateway(FailAt(build_gateway(*args).backend, k)),
        )
        out = tmp_path / f"k{k}"
        assert main([*argv, "--out", str(out)]) == EXIT_INCOMPLETE, k
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "incomplete", k
        assert meta["calls"]["wire"] == k, k
        assert not (out / "result.json").exists(), k
        assert (out / "transcript.jsonl").read_bytes() == b"".join(lines[:k]), k
    assert f"injected failure at backend call {len(lines) - 1}" in capsys.readouterr().err
